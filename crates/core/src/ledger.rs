//! The [`RequestLedger`]: the one holder of tickets and answers behind every
//! [`Controller`](crate::Controller), and the one tally of them.
//!
//! The runtime API is *ticket-based*: every submission is issued a
//! [`RequestId`], and its answer is one [`RequestRecord`], kept in answer
//! order until a driver takes it
//! ([`Controller::take_records`](crate::Controller::take_records)); the
//! [`ControllerEvent`](crate::ControllerEvent) stream is derived from those
//! records. Every family embeds one ledger and enters answers through one of
//! two doors:
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
//! Both doors count the answer as it enters, so the tally
//! ([`RequestLedger::granted`], [`RequestLedger::rejected`],
//! [`RequestLedger::refused`]) covers every answer ever given, taken or not:
//! it is what [`Controller::granted`](crate::Controller::granted) and the
//! §2.2 [`Controller::summary`](crate::Controller::summary) read.

use crate::request::{Outcome, RequestId, RequestKind, RequestRecord};
use dcn_tree::NodeId;

/// Ticket issuing, the answers not yet taken, and the tally of every answer
/// given, for one controller.
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
/// assert!(ledger.records()[0].outcome.is_granted());
/// assert_eq!(ledger.take_records().len(), 1);
/// assert!(ledger.records().is_empty());
/// // Taking the answers leaves the tally.
/// assert_eq!((ledger.issued(), ledger.granted()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct RequestLedger {
    next_id: u64,
    records: Vec<RequestRecord>,
    granted: u64,
    rejected: u64,
    refused: u64,
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
    /// before `submit` returns).
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

    /// Appends a finished record carrying its own times, and counts it.
    pub fn push(&mut self, record: RequestRecord) {
        match record.outcome {
            Outcome::Granted { .. } => self.granted += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Refused => self.refused += 1,
        }
        self.records.push(record);
    }

    /// Issues a ticket and records a refusal in one step (the path taken when
    /// [`Controller::supports`](crate::Controller::supports) is `false` for
    /// the request's kind). A request refused after it waited keeps the
    /// ticket it was issued; see [`Outcome::Refused`].
    pub fn refuse(&mut self, origin: NodeId, kind: RequestKind) -> RequestId {
        let id = self.issue();
        self.record(id, origin, kind, Outcome::Refused);
        id
    }

    /// The answers recorded and not taken since, in answer order.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Removes and returns the answers recorded since the last take, in
    /// answer order: each answer is handed out once. The tally keeps them.
    pub fn take_records(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.records)
    }

    /// Answers that granted a permit, taken or not.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Answers that rejected, taken or not.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Answers that refused (see [`Outcome::Refused`]), taken or not.
    pub fn refused(&self) -> u64 {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ControllerEvent;

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
        let mut events = Vec::new();
        for record in ledger.take_records() {
            ControllerEvent::push_for_record(&record, &mut events);
        }
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], ControllerEvent::Granted { .. }));
        assert!(matches!(
            events[1],
            ControllerEvent::TopologyApplied {
                node: Some(n),
                ..
            } if n == NodeId::from_index(9)
        ));
        // Taking empties the ledger.
        assert!(ledger.take_records().is_empty());
    }

    #[test]
    fn refusals_are_recorded_and_retrievable() {
        let mut ledger = RequestLedger::new();
        let id = ledger.refuse(NodeId::from_index(1), RequestKind::RemoveSelf);
        // An issued but unanswered ticket has no record.
        let open = ledger.issue();
        assert_eq!(ledger.records().len(), 1);
        let record = ledger.records()[0];
        assert_eq!((record.id, record.outcome), (id, Outcome::Refused));
        assert!(ledger.records().iter().all(|r| r.id != open));
        // Synchronous records carry zero latency.
        assert_eq!(record.latency(), 0);
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
        let taken = ledger.take_records();
        assert_eq!(taken.len(), 1);
        assert_eq!((taken[0].id, taken[0].answered_at), (id, 25));
        assert!(ledger.records().is_empty());
        assert!(ledger.take_records().is_empty());
        // Tickets keep counting: a taken history never reissues an id.
        assert_eq!(ledger.issue(), RequestId(1));
    }

    #[test]
    fn both_doors_count_every_outcome_and_taking_keeps_the_tally() {
        let mut ledger = RequestLedger::new();
        let granted = ledger.issue();
        ledger.record(
            granted,
            NodeId::from_index(0),
            RequestKind::AddLeaf,
            Outcome::Granted {
                serial: None,
                new_node: None,
            },
        );
        let rejected = ledger.issue();
        ledger.push(RequestRecord {
            id: rejected,
            origin: NodeId::from_index(1),
            kind: RequestKind::NonTopological,
            outcome: Outcome::Rejected,
            submitted_at: 2,
            answered_at: 5,
        });
        ledger.refuse(NodeId::from_index(2), RequestKind::RemoveSelf);
        let tally = |l: &RequestLedger| (l.issued(), l.granted(), l.rejected(), l.refused());
        assert_eq!(tally(&ledger), (3, 1, 1, 1));
        assert_eq!(ledger.take_records().len(), 3);
        assert_eq!(tally(&ledger), (3, 1, 1, 1));
    }
}
