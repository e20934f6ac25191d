//! The [`RequestLedger`]: the one holder of tickets, records, the by-ticket
//! index and the event buffer behind every [`Controller`](crate::Controller).
//!
//! The runtime API is *ticket-based*: every submission is issued a
//! [`RequestId`], and its outcome is observable three ways — as a
//! [`ControllerEvent`] drained from the event stream, as a [`RequestRecord`]
//! in the per-request history, and by id through
//! [`Controller::outcome`](crate::Controller::outcome). Every family embeds
//! one ledger and enters answers through one of two doors:
//!
//! * the synchronous families (centralized, iterated, trivial, AAPS) answer
//!   inside `submit`: [`RequestLedger::issue`] a ticket, then
//!   [`RequestLedger::record`] the answer at the ledger's own clock — the
//!   number of tickets issued so far, so latency is 0 (which is exactly what
//!   makes the distributed families' non-zero latencies interesting to
//!   compare);
//! * the asynchronous families (distributed, adaptive-distributed, sharded,
//!   the §5 iteration driver) answer later on a simulated clock and
//!   [`RequestLedger::push`] a finished record carrying its own
//!   `submitted_at` / `answered_at`.
//!
//! The history is complete unless the owner asks otherwise: a process that
//! serves requests without end calls [`RequestLedger::trim`] to keep only the
//! newest answers, and the by-ticket index — a window over the ticket ids of
//! the retained records — shrinks with it.

use crate::api::ControllerEvent;
use crate::request::{Outcome, RequestId, RequestKind, RequestRecord};
use dcn_collections::SlidingMap;
use dcn_tree::NodeId;

/// Ticket issuing, event buffering and request history for one controller.
///
/// ```
/// use dcn_controller::{Outcome, RequestKind, RequestLedger};
/// use dcn_tree::NodeId;
///
/// let mut ledger = RequestLedger::new();
/// let id = ledger.issue();
/// ledger.record(
///     id,
///     NodeId::from_index(0),
///     RequestKind::NonTopological,
///     Outcome::Granted { serial: None, new_node: None },
/// );
/// assert!(ledger.outcome(id).unwrap().is_granted());
/// assert_eq!(ledger.drain_events().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RequestLedger {
    next_id: u64,
    events: Vec<ControllerEvent>,
    records: Vec<RequestRecord>,
    /// Number of records [`RequestLedger::trim`] has dropped from the front
    /// of `records`; only ever grows.
    trimmed: u64,
    /// Ticket → the record's number in answer order, counted from the
    /// ledger's first answer: it sits at `records[number − trimmed]`, so a
    /// trim moves no entry. Tickets are answered roughly in the order they
    /// were issued, which makes the retained ones a window of ids.
    index: SlidingMap<RequestId, u64>,
}

impl RequestLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RequestLedger::default()
    }

    /// Issues the next ticket (which also advances the synchronous clock by
    /// one).
    pub fn issue(&mut self) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Number of tickets issued so far — also the synchronous families'
    /// virtual time.
    pub fn issued(&self) -> u64 {
        self.next_id
    }

    /// Records the final answer for `id` at the synchronous clock (latency
    /// 0 — the synchronous families answer, and apply a granted change,
    /// before `submit` returns); see [`RequestLedger::push`] for the events.
    pub fn record(&mut self, id: RequestId, origin: NodeId, kind: RequestKind, outcome: Outcome) {
        let now = self.issued();
        self.push(RequestRecord {
            id,
            origin,
            kind,
            outcome,
            submitted_at: now,
            answered_at: now,
        });
    }

    /// Appends a finished record carrying its own times, indexes it by
    /// ticket and emits the matching events: [`ControllerEvent::Granted`]
    /// (plus [`ControllerEvent::TopologyApplied`] for granted topological
    /// requests), [`ControllerEvent::Rejected`] or
    /// [`ControllerEvent::Refused`].
    pub fn push(&mut self, record: RequestRecord) {
        ControllerEvent::push_for_record(&record, &mut self.events);
        let number = self.trimmed + self.records.len() as u64;
        self.index.insert(record.id, number);
        self.records.push(record);
    }

    /// Forgets all but the newest `keep` answers: the older records leave
    /// [`RequestLedger::records`] and their tickets read as unanswered from
    /// then on ([`RequestLedger::get`] is `None`). Tickets, counters and
    /// buffered events are untouched. Costs a move of the `keep` retained
    /// records, so a caller that trims as it goes lets the history reach a
    /// multiple of `keep` between calls.
    pub fn trim(&mut self, keep: usize) {
        let excess = self.records.len().saturating_sub(keep);
        for record in self.records.drain(..excess) {
            self.index.remove(record.id);
        }
        self.trimmed += excess as u64;
    }

    /// Issues a ticket and records a refusal in one step (the path taken when
    /// [`Controller::supports`](crate::Controller::supports) is `false` for
    /// the request's kind).
    pub fn refuse(&mut self, origin: NodeId, kind: RequestKind) -> RequestId {
        let id = self.issue();
        self.record(id, origin, kind, Outcome::Refused);
        id
    }

    /// Removes and returns the buffered events, in emission order.
    pub fn drain_events(&mut self) -> Vec<ControllerEvent> {
        std::mem::take(&mut self.events)
    }

    /// The answers recorded so far (and not trimmed or taken since), in
    /// answer order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Removes and returns the recorded answers, dropping their index
    /// entries and buffered events with them: the epoch engine
    /// ([`IterationDriver`](crate::distributed::IterationDriver)) moves an
    /// inner controller's answers out to re-key them under the outer
    /// tickets, so nothing is held twice.
    pub fn take_records(&mut self) -> Vec<RequestRecord> {
        self.index.clear();
        self.events.clear();
        std::mem::take(&mut self.records)
    }

    /// The record of a specific request, if it has been answered (and not
    /// dropped by [`RequestLedger::trim`] or moved out by
    /// [`RequestLedger::take_records`]).
    pub fn get(&self, id: RequestId) -> Option<&RequestRecord> {
        let number = *self.index.get(id)?;
        Some(&self.records[(number - self.trimmed) as usize])
    }

    /// The outcome of a specific request, if it has been answered.
    pub fn outcome(&self, id: RequestId) -> Option<Outcome> {
        self.get(id).map(|record| record.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RequestLedger {
        /// A ledger that has already answered and trimmed `trimmed` requests
        /// — a week of serving in one line.
        fn with_trimmed(trimmed: u64) -> Self {
            RequestLedger {
                next_id: trimmed,
                trimmed,
                ..RequestLedger::default()
            }
        }
    }

    fn rejected(id: RequestId, answered_at: u64) -> RequestRecord {
        RequestRecord {
            id,
            origin: NodeId::from_index(0),
            kind: RequestKind::NonTopological,
            outcome: Outcome::Rejected,
            submitted_at: 0,
            answered_at,
        }
    }

    #[test]
    fn tickets_are_sequential_and_tick_the_clock() {
        let mut ledger = RequestLedger::new();
        assert_eq!(ledger.issue(), RequestId(0));
        assert_eq!(ledger.issue(), RequestId(1));
        assert_eq!(ledger.issued(), 2);
    }

    #[test]
    fn granted_topological_requests_emit_two_events() {
        let mut ledger = RequestLedger::new();
        let id = ledger.issue();
        ledger.record(
            id,
            NodeId::from_index(3),
            RequestKind::AddLeaf,
            Outcome::Granted {
                serial: None,
                new_node: Some(NodeId::from_index(9)),
            },
        );
        let events = ledger.drain_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], ControllerEvent::Granted { .. }));
        assert!(matches!(
            events[1],
            ControllerEvent::TopologyApplied {
                node: Some(n),
                ..
            } if n == NodeId::from_index(9)
        ));
        // Draining empties the buffer.
        assert!(ledger.drain_events().is_empty());
    }

    #[test]
    fn refusals_are_recorded_and_retrievable() {
        let mut ledger = RequestLedger::new();
        let id = ledger.refuse(NodeId::from_index(1), RequestKind::RemoveSelf);
        assert_eq!(ledger.outcome(id), Some(Outcome::Refused));
        assert_eq!(ledger.get(id), Some(&ledger.records()[0]));
        // An issued but unanswered ticket, and one never issued, have none.
        let open = ledger.issue();
        assert_eq!(ledger.get(open), None);
        assert_eq!(ledger.get(RequestId(u64::MAX)), None);
        assert!(matches!(
            ledger.drain_events()[..],
            [ControllerEvent::Refused { id: got }] if got == id
        ));
        // Synchronous records carry zero latency.
        assert_eq!(ledger.records()[0].latency(), 0);
    }

    #[test]
    fn pushed_records_keep_their_own_times_and_taking_empties_everything() {
        let mut ledger = RequestLedger::new();
        let id = ledger.issue();
        ledger.push(RequestRecord {
            id,
            origin: NodeId::from_index(2),
            kind: RequestKind::NonTopological,
            outcome: Outcome::Rejected,
            submitted_at: 10,
            answered_at: 25,
        });
        assert_eq!(ledger.records()[0].latency(), 15);
        assert_eq!(ledger.outcome(id), Some(Outcome::Rejected));
        assert_eq!(ledger.get(id).map(|r| r.answered_at), Some(25));
        let taken = ledger.take_records();
        assert_eq!(taken.len(), 1);
        assert!(ledger.records().is_empty());
        assert_eq!(ledger.outcome(id), None);
        assert_eq!(ledger.get(id), None);
        assert!(ledger.drain_events().is_empty());
        // Tickets keep counting: a taken history never reissues an id.
        assert_eq!(ledger.issue(), RequestId(1));
    }

    #[test]
    fn trim_keeps_lookups_right_under_out_of_order_answers() {
        let mut ledger = RequestLedger::new();
        let ids: Vec<RequestId> = (0..12).map(|_| ledger.issue()).collect();
        // Answered in an order that is neither ticket order nor its reverse;
        // ticket 11 stays in flight.
        let order = [3, 0, 1, 7, 2, 5, 4, 10, 6, 9, 8];
        for (at, &t) in order.iter().enumerate() {
            ledger.push(rejected(ids[t], at as u64));
        }
        ledger.trim(4);
        assert_eq!(ledger.records().len(), 4);
        for (at, &t) in order.iter().enumerate() {
            let got = ledger.get(ids[t]).map(|r| (r.id, r.answered_at));
            if at < order.len() - 4 {
                assert_eq!(got, None, "ticket {t} was trimmed");
            } else {
                assert_eq!(got, Some((ids[t], at as u64)), "ticket {t} is retained");
            }
        }
        // In flight and never issued: no record before or after.
        assert_eq!(ledger.get(ids[11]), None);
        assert_eq!(ledger.get(RequestId(12)), None);
        assert_eq!(ledger.get(RequestId(u64::MAX)), None);
        // A ticket below every retained one is answered late: it is inserted
        // below the index window's front and found.
        ledger.push(rejected(ids[11], 99));
        ledger.trim(2);
        assert_eq!(ledger.get(ids[11]).map(|r| r.answered_at), Some(99));
        assert_eq!(ledger.get(ids[8]).map(|r| r.answered_at), Some(10));
        assert_eq!(ledger.get(ids[9]), None);
        // Trimming to more than is held, or again, changes nothing; events
        // and the ticket counter never noticed.
        ledger.trim(2);
        ledger.trim(100);
        assert_eq!(ledger.records().len(), 2);
        assert_eq!(ledger.drain_events().len(), 12);
        assert_eq!(ledger.issue(), RequestId(12));
        ledger.trim(0);
        assert!(ledger.records().is_empty());
        assert_eq!(ledger.get(ids[11]), None);
    }

    #[test]
    fn record_numbers_do_not_overflow_past_u32() {
        let mut ledger = RequestLedger::with_trimmed(u64::from(u32::MAX) + 7);
        let ids: Vec<RequestId> = (0..6).map(|_| ledger.issue()).collect();
        assert_eq!(ids[0], RequestId(u64::from(u32::MAX) + 7));
        for (at, &id) in ids.iter().enumerate() {
            ledger.push(rejected(id, at as u64));
        }
        ledger.trim(3);
        assert_eq!(ledger.get(ids[2]), None);
        for (at, &id) in ids.iter().enumerate().skip(3) {
            assert_eq!(ledger.get(id).map(|r| r.answered_at), Some(at as u64));
        }
        // Taking the history and answering on keeps the numbering sound.
        assert_eq!(ledger.take_records().len(), 3);
        let late = ledger.issue();
        ledger.push(rejected(late, 50));
        assert_eq!(ledger.get(late).map(|r| r.answered_at), Some(50));
        assert_eq!(ledger.get(ids[5]), None);
    }
}
