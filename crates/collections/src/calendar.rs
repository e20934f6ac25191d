//! The [`CalendarQueue`] — an O(1) timing-wheel event queue with a heap
//! overflow tier.

use std::collections::BinaryHeap;

/// Sentinel for "no slot" in the wheel's intrusive lists.
const NONE_SLOT: u32 = u32::MAX;

/// One cell of the wheel's slab: a payload plus the intrusive link to the
/// next item of the same bucket (or the next free slot, when the cell is on
/// the free list). `item` is `None` only for free-listed cells.
struct Slot<T> {
    item: Option<T>,
    next: u32,
}

/// Abstract simulated time (matches `dcn_simnet::Time`).
type Time = u64;

/// A far-future item parked in the overflow tier, ordered as a **min**-heap
/// by `(time, seq)` (the comparison is reversed so it can sit in a std
/// max-`BinaryHeap`). Payloads never participate in the ordering.
struct Far<T> {
    time: Time,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<T> Eq for Far<T> {}

impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the std max-heap then pops the smallest (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic time-ordered queue: a hierarchical *calendar* (timing
/// wheel) whose near tier is an array of width-1 buckets covering the next
/// `wheel_size` time units, plus a binary-heap overflow tier for far-future
/// items.
///
/// Discrete-event simulators whose delay distributions are bounded (every
/// hop delay drawn from a bounded model, every retry delay a small constant)
/// schedule almost every event within a small horizon of the current time.
/// For that workload the wheel gives O(1) `schedule` and amortized-O(1)
/// `pop`, where a binary heap pays O(log n) pointer-chasing per operation.
/// Items beyond the horizon are parked in the overflow heap and *migrate*
/// into the wheel exactly when the clock advances far enough — rare by the
/// bounded-delay assumption, and paid only by the far-future items
/// themselves.
///
/// # Ordering contract
///
/// Items pop in ascending `(time, seq)` order, where `seq` is the insertion
/// counter — i.e. time-ordered, ties broken FIFO by insertion. This is
/// exactly the total order a `BinaryHeap<Reverse<(time, seq)>>` produces,
/// which makes the wheel a drop-in replacement for heap-backed event queues
/// (property-tested against that model in `tests/prop_calendar.rs`). Within
/// a bucket the FIFO order *is* the seq order: a bucket only ever holds items
/// of a single timestamp (width-1 buckets), direct schedules append in seq
/// order, and overflow items migrate — in heap order — before any direct
/// schedule of their timestamp can occur.
///
/// # Clock discipline
///
/// `now` is the timestamp of the last popped item and never runs backwards:
/// absolute schedules in the past are clamped to `now` and counted
/// ([`CalendarQueue::clamped_count`]); relative schedules whose fire time
/// would overflow [`u64::MAX`] saturate and are counted
/// ([`CalendarQueue::saturated_count`]) — and `debug_assert!` fire in debug
/// builds, because a saturated fire time silently collapses distinct delays
/// onto the same instant.
///
/// ```
/// use dcn_collections::CalendarQueue;
///
/// let mut q: CalendarQueue<&str> = CalendarQueue::new();
/// q.schedule(10, "late");
/// q.schedule(5, "early");
/// q.schedule(5, "early-tie");
/// assert_eq!(q.peek_time(), Some(5));
/// assert_eq!(q.pop(), Some((5, "early")));
/// assert_eq!(q.pop(), Some((5, "early-tie")));
/// assert_eq!(q.now(), 5);
/// assert_eq!(q.pop(), Some((10, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<T> {
    /// The near tier's storage: one slab of linked cells shared by all
    /// buckets, recycled through an internal free list. A single arena keeps
    /// every pending item in one compact allocation (the wheel's working set
    /// is the number of in-flight events, not the number of buckets) where
    /// per-bucket growable buffers would pay one allocator round-trip per
    /// bucket and scatter the payloads across the heap.
    slab: Vec<Slot<T>>,
    /// Head of the slab's free list (`NONE_SLOT` when full).
    free_head: u32,
    /// Per-bucket FIFO list heads/tails into the slab (`NONE_SLOT` = empty).
    /// The bucket of an item at time `t` (with `now <= t < now + wheel_size`)
    /// is `t & mask`; each bucket only ever holds items of one timestamp, and
    /// insertion order within it *is* seq order (see the ordering contract).
    head: Vec<u32>,
    tail: Vec<u32>,
    mask: u64,
    /// One bit per bucket (bit set ⇔ bucket non-empty), so finding the
    /// earliest pending timestamp is a word scan instead of walking empty
    /// buckets one by one.
    occupied: Vec<u64>,
    /// Number of items currently in the wheel.
    wheel_len: usize,
    /// The far tier: items at time `>= now + wheel_size`, min-heap ordered
    /// by `(time, seq)`.
    overflow: BinaryHeap<Far<T>>,
    /// Timestamp of the last popped item (0 initially); monotone.
    now: Time,
    next_seq: u64,
    clamped: u64,
    saturated: u64,
}

/// Default near-horizon width, in time units. Covers every delay the
/// workspace's bounded delay models draw (hop delays ≤ 8 by default, retry
/// delays a small constant) with slack; larger delays are still handled
/// correctly through the overflow tier, just not in O(1). Kept at one
/// bitmap word so the occupancy scan in `wheel_min` is branch-free, and
/// small enough that constructing a simulator (the sweep builds one per
/// cell) zeroes half a kilobyte rather than several.
const DEFAULT_WHEEL_SIZE: usize = 64;

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the default near-horizon width.
    pub fn new() -> Self {
        Self::with_wheel_size(DEFAULT_WHEEL_SIZE)
    }

    /// Creates an empty queue whose near tier covers the next `wheel_size`
    /// time units. `wheel_size` must be a power of two.
    pub fn with_wheel_size(wheel_size: usize) -> Self {
        assert!(
            wheel_size.is_power_of_two(),
            "wheel size must be a power of two, got {wheel_size}"
        );
        CalendarQueue {
            slab: Vec::new(),
            free_head: NONE_SLOT,
            head: vec![NONE_SLOT; wheel_size],
            tail: vec![NONE_SLOT; wheel_size],
            mask: (wheel_size - 1) as u64,
            occupied: vec![0; wheel_size.div_ceil(64)],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            clamped: 0,
            saturated: 0,
        }
    }

    /// Current time: the timestamp of the last popped item.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of items still pending (both tiers).
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Returns `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of absolute-time schedules that pointed into the past and were
    /// clamped to `now` (0 in a correct driver).
    pub fn clamped_count(&self) -> u64 {
        self.clamped
    }

    /// Number of relative schedules whose fire time saturated at
    /// [`u64::MAX`], silently collapsing distinct delays onto one instant
    /// (0 in a correct driver).
    pub fn saturated_count(&self) -> u64 {
        self.saturated
    }

    /// The exclusive upper end of the near horizon: items at `>= now + W`
    /// live in the overflow tier.
    #[inline]
    fn horizon(&self) -> Time {
        self.now.saturating_add(self.mask + 1)
    }

    /// Schedules `item` to fire `delay` units after the current time and
    /// returns its absolute fire time. A fire time that would exceed
    /// [`u64::MAX`] saturates there; the saturation is counted (and asserted
    /// in debug builds) because it collapses distinct delays onto the same
    /// instant.
    #[inline]
    pub fn schedule(&mut self, delay: Time, item: T) -> Time {
        // Fast path for the overwhelmingly common case: a bounded delay
        // lands inside the near horizon by construction (`now + delay <
        // now + W` ⇔ `delay ≤ mask`), so the clamp check, the saturation
        // check and the horizon comparison all vanish.
        if delay <= self.mask {
            // (checked: a clock within `mask` of `Time::MAX` falls through
            // to the saturating slow path instead of overflowing.)
            if let Some(time) = self.now.checked_add(delay) {
                self.next_seq += 1;
                self.push_wheel(time, item);
                return time;
            }
        }
        if delay > Time::MAX - self.now {
            self.saturated += 1;
            debug_assert!(
                false,
                "schedule saturated: now={} + delay={delay} exceeds Time::MAX",
                self.now
            );
        }
        self.schedule_at(self.now.saturating_add(delay), item)
    }

    /// Schedules `item` at the absolute time `at` and returns the actual
    /// fire time. Time never runs backwards: an `at` in the past is clamped
    /// to `now` and the clamp is counted.
    #[inline]
    pub fn schedule_at(&mut self, at: Time, item: T) -> Time {
        let time = if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if time < self.horizon() {
            self.push_wheel(time, item);
        } else {
            self.overflow.push(Far { time, seq, item });
        }
        time
    }

    #[inline]
    fn push_wheel(&mut self, time: Time, item: T) {
        let idx = if self.free_head != NONE_SLOT {
            let idx = self.free_head;
            let slot = &mut self.slab[idx as usize];
            self.free_head = slot.next;
            slot.item = Some(item);
            slot.next = NONE_SLOT;
            idx
        } else {
            let idx = self.slab.len() as u32;
            assert!(idx != NONE_SLOT, "calendar wheel slab overflow");
            self.slab.push(Slot {
                item: Some(item),
                next: NONE_SLOT,
            });
            idx
        };
        let b = (time & self.mask) as usize;
        let tail = self.tail[b];
        if tail == NONE_SLOT {
            self.head[b] = idx;
            self.occupied[b / 64] |= 1u64 << (b % 64);
        } else {
            self.slab[tail as usize].next = idx;
        }
        self.tail[b] = idx;
        self.wheel_len += 1;
    }

    /// The earliest wheel timestamp: the occupancy bitmap is scanned
    /// circularly from `now`'s own bucket, so the cost is a handful of word
    /// operations regardless of how sparse the wheel is. Correct because
    /// every wheel item lies in `[now, now + W)`, where bucket indices are
    /// injective — the first occupied bucket at or after `now`'s position
    /// (circularly) is the earliest timestamp.
    fn wheel_min(&self) -> Time {
        debug_assert!(self.wheel_len > 0);
        let p = (self.now & self.mask) as usize;
        let nwords = self.occupied.len();
        let mut wi = p / 64;
        let mut word = self.occupied[wi] & (!0u64 << (p % 64));
        let q = loop {
            if word != 0 {
                break wi * 64 + word.trailing_zeros() as usize;
            }
            wi = (wi + 1) % nwords;
            word = self.occupied[wi];
        };
        // Circular distance from now's bucket to the found bucket.
        self.now + ((q as u64).wrapping_sub(p as u64) & self.mask)
    }

    /// The timestamp of the next item, without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        if self.wheel_len > 0 {
            // The overflow invariant (far items are at `>= now + W`, wheel
            // items strictly below it) makes the wheel minimum global.
            Some(self.wheel_min())
        } else {
            self.overflow.peek().map(|far| far.time)
        }
    }

    /// Advances the clock to the earliest pending timestamp and pulls every
    /// overflow item that the new horizon reveals into the wheel. Returns the
    /// timestamp, or `None` (the clock unmoved) if the queue is empty.
    fn advance(&mut self) -> Option<Time> {
        let time = if self.wheel_len > 0 {
            self.wheel_min()
        } else {
            self.overflow.peek()?.time
        };
        self.now = time;
        // Migrate far items revealed by the wider horizon. Migration happens
        // *before* control returns to the caller, so any later direct
        // schedule of the same timestamp (necessarily with a larger seq)
        // lands behind the migrated items — per-bucket FIFO stays seq order.
        let horizon = self.horizon();
        while self.overflow.peek().is_some_and(|far| far.time < horizon) {
            if let Some(Far { time, item, .. }) = self.overflow.pop() {
                self.push_wheel(time, item);
            }
        }
        Some(time)
    }

    /// Clears bucket `b`'s occupancy bit once it has been emptied.
    #[inline]
    fn mark_empty(&mut self, b: usize) {
        self.occupied[b / 64] &= !(1u64 << (b % 64));
    }

    /// Unlinks the first cell of bucket `b` (which must be non-empty),
    /// returning its payload and recycling the cell onto the free list.
    #[inline]
    fn pop_bucket_front(&mut self, b: usize) -> T {
        let idx = self.head[b];
        debug_assert!(idx != NONE_SLOT);
        let slot = &mut self.slab[idx as usize];
        #[expect(
            clippy::expect_used,
            reason = "every cell on a bucket list holds an item; only free-list cells are empty"
        )]
        let item = slot.item.take().expect("linked cells hold items");
        let next = slot.next;
        slot.next = self.free_head;
        self.free_head = idx;
        self.head[b] = next;
        if next == NONE_SLOT {
            self.tail[b] = NONE_SLOT;
            self.mark_empty(b);
        }
        self.wheel_len -= 1;
        item
    }

    /// Pops the next item in `(time, seq)` order, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let time = self.advance()?;
        let b = (time & self.mask) as usize;
        Some((time, self.pop_bucket_front(b)))
    }

    /// Pops **every** item sharing the earliest timestamp into `out` (in seq
    /// order, appended), advances the clock to that timestamp and returns it.
    /// This is the batch-drain primitive: one queue probe serves a whole
    /// same-time cohort. Items scheduled *at* the returned timestamp during
    /// the subsequent processing form the next cohort (their seqs are
    /// larger), so repeated batch drains reproduce the exact `(time, seq)`
    /// pop order.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<T>) -> Option<Time> {
        let time = self.advance()?;
        let b = (time & self.mask) as usize;
        while self.head[b] != NONE_SLOT {
            let item = self.pop_bucket_front(b);
            out.push(item);
        }
        Some(time)
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("now", &self.now)
            .field("wheel_len", &self.wheel_len)
            .field("overflow_len", &self.overflow.len())
            .field("clamped", &self.clamped)
            .field("saturated", &self.saturated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(7, 1);
        q.schedule(3, 2);
        q.schedule(3, 3);
        q.schedule(9, 4);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(3, 2), (3, 3), (7, 1), (9, 4)]);
        assert_eq!(q.now(), 9);
    }

    #[test]
    fn far_future_items_cross_the_overflow_tier_in_order() {
        // Wheel of 8: anything ≥ now + 8 is parked in the overflow heap.
        let mut q: CalendarQueue<u32> = CalendarQueue::with_wheel_size(8);
        q.schedule(100, 1);
        q.schedule(3, 2);
        q.schedule(101, 3);
        q.schedule(100, 4);
        assert_eq!(q.pop(), Some((3, 2)));
        // The jump across the empty gap reveals the far items.
        assert_eq!(q.pop(), Some((100, 1)));
        assert_eq!(q.pop(), Some((100, 4)));
        assert_eq!(q.pop(), Some((101, 3)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 101);
    }

    #[test]
    fn migration_preserves_seq_order_against_direct_schedules() {
        // An overflow item and a later direct schedule of the same timestamp
        // must pop in insertion order. The overflow item (seq 0) is parked at
        // t=10; after the clock advances, a direct schedule at t=10 (larger
        // seq) joins its bucket — migration must already have happened.
        let mut q: CalendarQueue<u32> = CalendarQueue::with_wheel_size(8);
        q.schedule(10, 1); // seq 0 → overflow (10 ≥ 0 + 8)
        q.schedule(4, 2); // seq 1 → wheel
        assert_eq!(q.pop(), Some((4, 2))); // now = 4; horizon 12 > 10 → migrate
        q.schedule_at(10, 3); // seq 2, same timestamp, scheduled later
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 3)));
    }

    #[test]
    fn pop_batch_drains_exactly_one_timestamp() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(6, 3);
        q.schedule(5, 4);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(5));
        assert_eq!(out, vec![1, 2, 4]);
        assert_eq!(q.now(), 5);
        assert_eq!(q.len(), 1);
        // A same-time schedule after the drain forms the *next* cohort.
        q.schedule(0, 5);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(5));
        assert_eq!(out, vec![5]);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(6));
        assert_eq!(out, vec![3]);
        assert_eq!(q.pop_batch(&mut out), None);
    }

    #[test]
    fn past_schedules_are_clamped_and_counted() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(10, 1);
        q.pop();
        assert_eq!(q.now(), 10);
        assert_eq!(q.schedule_at(3, 2), 10);
        assert_eq!(q.clamped_count(), 1);
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn peek_time_reports_without_popping() {
        let mut q: CalendarQueue<u32> = CalendarQueue::with_wheel_size(8);
        assert_eq!(q.peek_time(), None);
        q.schedule(100, 1); // overflow
        assert_eq!(q.peek_time(), Some(100));
        q.schedule(2, 2); // wheel
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), 0);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.peek_time(), Some(100));
    }

    #[test]
    fn saturated_schedules_are_counted() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        // At now = 0 a delay of u64::MAX fires exactly at u64::MAX — no
        // collapse, no saturation.
        assert_eq!(q.schedule(u64::MAX, 1), u64::MAX);
        assert_eq!(q.saturated_count(), 0);
        // Advance the clock, then overflow the fire time: the distinct
        // delays MAX and MAX-1 would both land on MAX.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.schedule(10, 1);
        q.pop();
        assert_eq!(q.now(), 10);
        let saturating =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.schedule(u64::MAX - 5, 2)));
        if cfg!(debug_assertions) {
            // The debug_assert fires, but only after the count is recorded.
            assert!(saturating.is_err());
        } else {
            assert_eq!(saturating.unwrap(), u64::MAX);
        }
        assert_eq!(q.saturated_count(), 1);
    }

    #[test]
    fn len_and_is_empty_track_both_tiers() {
        let mut q: CalendarQueue<u32> = CalendarQueue::with_wheel_size(8);
        assert!(q.is_empty());
        q.schedule(1, 1);
        q.schedule(1000, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
