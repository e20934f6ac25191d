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

use crate::api::ControllerEvent;
use crate::request::{Outcome, RequestId, RequestKind, RequestRecord};
use dcn_collections::SecondaryMap;
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
    /// Ticket → position in `records`, as `u32`: half the slot of a `usize`
    /// on the one table that has an entry per request ever answered.
    index: SecondaryMap<RequestId, u32>,
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
        // lint: allow(unwrap) 2^32 records are 256 GiB of `RequestRecord`s
        let position = u32::try_from(self.records.len()).expect("fewer than 2^32 records");
        self.index.insert(record.id, position);
        self.records.push(record);
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

    /// All answers recorded so far, in answer order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Removes and returns the recorded answers, dropping their index
    /// entries and buffered events with them: the
    /// [`EpochShell`](crate::distributed::EpochShell) moves an inner
    /// controller's answers out to re-key them under the outer tickets, so
    /// nothing is held twice.
    pub fn take_records(&mut self) -> Vec<RequestRecord> {
        let records = std::mem::take(&mut self.records);
        // Entry by entry, not `clear()`: that would truncate the dense map
        // and make the next insert re-grow it up to the newest ticket id —
        // O(tickets so far) per take on a long-lived inner controller.
        for record in &records {
            self.index.remove(record.id);
        }
        self.events.clear();
        records
    }

    /// The record of a specific request, if it has been answered (and not
    /// moved out by [`RequestLedger::take_records`]).
    pub fn get(&self, id: RequestId) -> Option<&RequestRecord> {
        self.index.get(id).map(|&i| &self.records[i as usize])
    }

    /// The outcome of a specific request, if it has been answered.
    pub fn outcome(&self, id: RequestId) -> Option<Outcome> {
        self.get(id).map(|record| record.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
