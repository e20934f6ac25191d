//! The discrete-event core: a time-ordered, deterministic event queue.
//!
//! Since PR 6 the queue is a thin wrapper over
//! [`dcn_collections::CalendarQueue`] — a timing wheel exploiting the
//! bounded-delay distributions of [`SimConfig`](crate::SimConfig) for O(1)
//! schedule/pop — instead of a `BinaryHeap` paying O(log n) per event. The
//! observable contract is unchanged: events pop in ascending `(time, seq)`
//! order (seq = insertion order), `now()` is the timestamp of the last
//! popped event, and past-dated absolute schedules are clamped to `now` and
//! counted. The wheel is property-tested against the old heap as a model in
//! `dcn-collections/tests/prop_calendar.rs`.

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

/// A popped event: its fire time and payload.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    pub time: Time,
    pub kind: EventKind,
}

/// Deterministic time-ordered queue; ties broken by insertion order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    calendar: CalendarQueue<EventKind>,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.calendar.now()
    }

    /// Number of events still pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.calendar.is_empty()
    }

    /// Schedules `kind` to fire `delay` units after the current time and
    /// returns the event's absolute fire time. A fire time past `Time::MAX`
    /// saturates there and is counted ([`EventQueue::saturated_count`]) —
    /// saturation silently collapses distinct delays onto one instant, so
    /// debug builds assert on it.
    #[inline]
    pub fn schedule(&mut self, delay: Time, kind: EventKind) -> Time {
        self.calendar.schedule(delay, kind)
    }

    /// Schedules `kind` at the absolute time `at` and returns the actual fire
    /// time.
    ///
    /// Simulated time must never run backwards (the §2.1.2 execution model
    /// orders every change), so an `at` in the past is **clamped to `now`**
    /// rather than accepted verbatim; the clamp is counted
    /// ([`EventQueue::clamped_count`]) so drivers and tests can treat it as
    /// the bug it indicates.
    #[cfg(test)]
    pub fn schedule_at(&mut self, at: Time, kind: EventKind) -> Time {
        self.calendar.schedule_at(at, kind)
    }

    /// Number of past-dated schedules that were clamped to `now` (0 in a
    /// correct execution).
    pub fn clamped_count(&self) -> u64 {
        self.calendar.clamped_count()
    }

    /// Number of relative schedules whose fire time saturated at
    /// `Time::MAX` (0 in a correct execution).
    pub fn saturated_count(&self) -> u64 {
        self.calendar.saturated_count()
    }

    /// The absolute fire time of the next pending event, without popping it.
    /// Lets drivers batch-poll ("is anything due before t?") without
    /// disturbing the queue.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.calendar.peek_time()
    }

    /// Pops the next event and advances the clock to its timestamp. The
    /// simulator itself drains by cohort ([`EventQueue::pop_batch`]); the
    /// single-event pop remains as the reference for the queue's contract
    /// tests.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<Event> {
        self.calendar.pop().map(|(time, kind)| Event { time, kind })
    }

    /// Pops **every** event sharing the earliest timestamp into `out` (in
    /// seq order) and advances the clock to that timestamp, which is
    /// returned. One queue probe serves the whole same-time cohort; events
    /// scheduled at that same timestamp while the cohort is being processed
    /// form the next cohort (larger seqs), reproducing the exact per-event
    /// pop order.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<EventKind>) -> Option<Time> {
        self.calendar.pop_batch(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activate(i: u32) -> EventKind {
        EventKind::Activate {
            agent: AgentId(i as u64),
            at: NodeId::from_index(0),
        }
    }

    /// Carrying the change in its event must not widen the wheel's cells.
    #[test]
    fn a_change_attempt_is_no_larger_than_an_activation() {
        assert_eq!(std::mem::size_of::<EventKind>(), 16);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(10, activate(1));
        q.schedule(5, activate(2));
        q.schedule(7, activate(3));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(order, vec![5, 7, 10]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(3, activate(1));
        q.schedule(3, activate(2));
        q.schedule(3, activate(3));
        let order: Vec<EventKind> = std::iter::from_fn(|| q.pop().map(|e| e.kind)).collect();
        assert_eq!(order, vec![activate(1), activate(2), activate(3)]);
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(4, activate(1));
        q.pop();
        assert_eq!(q.now(), 4);
        // Scheduling is relative to the current time.
        q.schedule(2, activate(2));
        assert_eq!(q.pop().unwrap().time, 6);
    }

    #[test]
    fn schedule_returns_the_absolute_fire_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.schedule(10, activate(1)), 10);
        q.pop();
        assert_eq!(q.now(), 10);
        // Relative delays resolve against the advanced clock.
        assert_eq!(q.schedule(5, activate(2)), 15);
        assert_eq!(q.schedule(0, activate(3)), 10);
    }

    #[test]
    fn saturating_delays_are_counted_as_the_bug_they_are() {
        // At now = 0, a delay of Time::MAX fires exactly at Time::MAX — no
        // information is lost and nothing saturates.
        let mut q = EventQueue::new();
        assert_eq!(q.schedule(Time::MAX, activate(1)), Time::MAX);
        assert_eq!(q.saturated_count(), 0);
        // Once the clock has advanced, a near-MAX delay overflows the fire
        // time: distinct delays silently collapse onto Time::MAX. Release
        // builds saturate-and-count; debug builds additionally assert.
        let mut q = EventQueue::new();
        q.schedule(10, activate(1));
        q.pop();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(Time::MAX - 5, activate(2))
        }));
        if cfg!(debug_assertions) {
            assert!(outcome.is_err(), "debug builds assert on saturation");
        } else {
            assert_eq!(outcome.unwrap(), Time::MAX);
        }
        assert_eq!(q.saturated_count(), 1);
    }

    #[test]
    fn peek_time_reports_the_next_event_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(8, activate(1));
        q.schedule(3, activate(2));
        assert_eq!(q.peek_time(), Some(3));
        // Peeking does not consume or advance anything.
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), 0);
        assert_eq!(q.pop().unwrap().time, 3);
        assert_eq!(q.peek_time(), Some(8));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn past_dated_events_are_clamped_to_now_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(10, activate(1));
        q.pop();
        assert_eq!(q.now(), 10);
        // An absolute schedule in the past must not move time backwards: it
        // fires "now" and the violation is counted.
        assert_eq!(q.schedule_at(3, activate(2)), 10);
        assert_eq!(q.clamped_count(), 1);
        let e = q.pop().unwrap();
        assert_eq!(e.time, 10);
        assert_eq!(q.now(), 10);
        // Present and future absolute schedules pass through unclamped.
        assert_eq!(q.schedule_at(10, activate(3)), 10);
        assert_eq!(q.schedule_at(12, activate(4)), 12);
        assert_eq!(q.clamped_count(), 1);
    }

    #[test]
    fn clock_is_monotone_under_mixed_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(5, activate(1));
        q.schedule_at(2, activate(2));
        q.schedule(0, activate(3));
        let mut last = q.now();
        let mut popped = 0;
        while let Some(e) = q.pop() {
            assert!(e.time >= last, "time ran backwards: {} < {last}", e.time);
            assert!(q.now() >= last);
            last = q.now();
            popped += 1;
            if popped == 2 {
                // Interleave more scheduling mid-drain.
                q.schedule_at(1, activate(4));
                q.schedule(1, activate(5));
            }
        }
        assert_eq!(popped, 5);
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, activate(1));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_batch_drains_one_timestamp_per_call() {
        let mut q = EventQueue::new();
        q.schedule(4, activate(1));
        q.schedule(4, activate(2));
        q.schedule(9, activate(3));
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(4));
        assert_eq!(batch, vec![activate(1), activate(2)]);
        assert_eq!(q.now(), 4);
        // Same-time events scheduled during processing form the next cohort.
        q.schedule(0, activate(4));
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(4));
        assert_eq!(batch, vec![activate(4)]);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(9));
        assert_eq!(batch, vec![activate(3)]);
        assert_eq!(q.pop_batch(&mut batch), None);
    }
}
