//! The discrete-event vocabulary: simulated [`Time`], the two kinds of event
//! and the queue that orders them.
//!
//! The queue is [`dcn_collections::CalendarQueue`] itself — a timing wheel
//! exploiting the bounded-delay distributions of
//! [`SimConfig`](crate::SimConfig) for O(1) schedule/pop: events pop in
//! ascending `(time, seq)` order (seq = insertion order), `now()` is the
//! timestamp of the last popped event, and past-dated absolute schedules are
//! clamped to `now` and counted. Its contract is tested where it lives
//! (`dcn-collections`: `calendar.rs`, and against a heap model in
//! `tests/prop_calendar.rs`).

use crate::protocol::AgentId;
use crate::topology::TopologyChange;
use crate::NodeId;
use dcn_collections::CalendarQueue;

/// Simulated time, in abstract units.
pub type Time = u64;

/// Internal simulator events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// An agent (created, moved or dequeued) becomes active at `at`.
    Activate { agent: AgentId, at: NodeId },
    /// The environment attempts a granted topology change for the first (and
    /// only timed) time; a refused change waits on its gate node instead.
    AttemptChange { change: TopologyChange },
}

/// Deterministic time-ordered queue; ties broken by insertion order.
pub(crate) type EventQueue = CalendarQueue<EventKind>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Carrying the change in its event must not widen the wheel's cells.
    #[test]
    fn a_change_attempt_is_no_larger_than_an_activation() {
        assert_eq!(std::mem::size_of::<EventKind>(), 16);
    }
}
