//! The [`SlidingMap`] windowed slot map.

use crate::EntityKey;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// Capacity (in slots) under which a removal never shrinks the buffer: a
/// window this small is not worth a reallocation.
const SHRINK_FLOOR: usize = 64;

/// A dense map from an [`EntityKey`] to `V` whose memory follows the *live*
/// keys, not the largest key ever seen: a `VecDeque<Option<V>>` covering the
/// index range `base .. base + span`, where the first and the last slot are
/// always occupied.
///
/// It is the workspace's one slot map for dense ids, long-lived
/// (`NodeId`) and short-lived (`RequestId`, `AgentId`) alike. Access is an
/// offset and a bounds check — no hashing — and iteration visits entries in
/// **ascending index order**, so loops over the map are deterministic
/// without any sorting. [`SlidingMap::remove`] and [`SlidingMap::retain`]
/// pop the vacant slots at either end, so the window slides up behind the
/// oldest live key and a table of short-lived entries spans only the band
/// in flight. One long-lived entry pins the window: `span` is
/// `newest live − oldest live + 1`, whatever lies vacant in between — never
/// more than a plain `Vec<Option<V>>` indexed from 0 would hold. Once it
/// is released the allocation follows the window back down: a removal that
/// leaves the span under a quarter of the capacity shrinks the buffer to
/// twice the span (amortised against the removals that emptied it).
///
/// Keys need not arrive in order: inserting above the window extends it with
/// vacant slots, and so does inserting *below* its front (answers come back
/// out of ticket order). A key outside the window simply reads as absent.
///
/// ```
/// use dcn_collections::{EntityKey, SlidingMap};
/// # #[derive(Clone, Copy, PartialEq, Eq, Debug)]
/// # struct Id(u32);
/// # impl EntityKey for Id {
/// #     fn index(self) -> usize { self.0 as usize }
/// #     fn from_index(index: usize) -> Self { Id(index as u32) }
/// # }
/// let mut m: SlidingMap<Id, &str> = SlidingMap::new();
/// m.insert(Id(1_000_001), "b");
/// m.insert(Id(1_000_000), "a"); // below the front
/// m.insert(Id(1_000_003), "d");
/// assert_eq!((m.len(), m.span()), (3, 4));
/// assert_eq!(m.remove(Id(1_000_000)), Some("a"));
/// assert_eq!(m.remove(Id(1_000_001)), Some("b"));
/// // The window slid up to the one live key; the rest reads as absent.
/// assert_eq!((m.len(), m.span()), (1, 1));
/// assert_eq!(m.get(Id(1_000_000)), None);
/// assert_eq!(m.get(Id(1_000_003)), Some(&"d"));
/// ```
#[derive(Clone)]
pub struct SlidingMap<K, V> {
    /// `slots[i]` belongs to key index `base + i`. Unless the deque is empty
    /// its front and back slots are occupied.
    slots: VecDeque<Option<V>>,
    base: usize,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: EntityKey, V> SlidingMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SlidingMap {
            slots: VecDeque::new(),
            base: 0,
            len: 0,
            _key: PhantomData,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of the window, in slots: `newest − oldest + 1` over the occupied
    /// keys, 0 when empty. This — not the largest key — is what the map's
    /// memory is proportional to.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Removes every entry, keeping the allocation. The next insert starts a
    /// new window at its own key, however far from the old one.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    #[inline]
    fn offset(&self, key: K) -> Option<usize> {
        key.index().checked_sub(self.base)
    }

    /// Shared access to the value at `key`.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(self.offset(key)?)?.as_ref()
    }

    /// Exclusive access to the value at `key`.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let offset = self.offset(key)?;
        self.slots.get_mut(offset)?.as_mut()
    }

    /// Returns `true` if `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Widens the window to reach `index` (cost proportional to the gap)
    /// and returns its offset.
    fn reach(&mut self, index: usize) -> usize {
        if self.slots.is_empty() {
            self.base = index;
        }
        if index < self.base {
            let gap = self.base - index;
            self.slots.reserve(gap);
            for _ in 0..gap {
                self.slots.push_front(None);
            }
            self.base = index;
        }
        let offset = index - self.base;
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, || None);
        }
        offset
    }

    /// Inserts `value` at `key`, returning the previous value if the slot
    /// was occupied. A key outside the window widens it to reach the key.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let offset = self.reach(key.index());
        let old = self.slots[offset].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exclusive access to the value at `key`, inserting `default()` first
    /// if the slot is vacant (the moral equivalent of
    /// `HashMap::entry(key).or_insert_with(default)`).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let offset = self.reach(key.index());
        let slot = &mut self.slots[offset];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(default)
    }

    /// Removes and returns the value at `key`, then trims the window.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let offset = self.offset(key)?;
        let old = self.slots.get_mut(offset)?.take()?;
        self.len -= 1;
        self.trim();
        Some(old)
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting them
    /// in ascending index order, then trims the window.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(value) = slot {
                if !keep(K::from_index(self.base + i), value) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
        self.trim();
    }

    /// Drops the vacant slots at both ends of the window and, if that left
    /// the buffer mostly unused, gives the excess capacity back.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        let capacity = self.slots.capacity();
        if capacity > SHRINK_FLOOR && self.slots.len() < capacity / 4 {
            self.slots.shrink_to(2 * self.slots.len());
        }
    }

    /// Iterates over `(key, &value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (K::from_index(self.base + i), v)))
    }

    /// Iterates over `(key, &mut value)` pairs in ascending index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        let base = self.base;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_mut().map(|v| (K::from_index(base + i), v)))
    }
}

impl<K: EntityKey, V> Default for SlidingMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityKey + fmt::Debug, V: fmt::Debug> fmt::Debug for SlidingMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Id(usize);

    impl EntityKey for Id {
        fn index(self) -> usize {
            self.0
        }
        fn from_index(index: usize) -> Self {
            Id(index)
        }
    }

    fn map_of(pairs: impl IntoIterator<Item = (usize, u32)>) -> SlidingMap<Id, u32> {
        let mut map = SlidingMap::new();
        for (k, v) in pairs {
            map.insert(Id(k), v);
        }
        map
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: SlidingMap<Id, String> = SlidingMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(Id(5), "five".into()), None);
        assert_eq!(m.insert(Id(5), "FIVE".into()), Some("five".into()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(Id(5)).map(String::as_str), Some("FIVE"));
        assert!(m.contains_key(Id(5)));
        assert!(!m.contains_key(Id(4)));
        assert_eq!(m.remove(Id(5)), Some("FIVE".into()));
        assert_eq!(m.remove(Id(5)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_in_index_order() {
        let m = map_of([9, 2, 7, 0].map(|i| (i, i as u32 * 10)));
        let pairs: Vec<(Id, u32)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(
            pairs,
            vec![(Id(0), 0), (Id(2), 20), (Id(7), 70), (Id(9), 90)]
        );
    }

    #[test]
    fn get_or_insert_with_fills_vacant_slots_once() {
        let mut m: SlidingMap<Id, Vec<u32>> = SlidingMap::new();
        m.get_or_insert_with(Id(3), Vec::new).push(1);
        m.get_or_insert_with(Id(3), || panic!("slot is occupied"))
            .push(2);
        // Below the front, as the post-order ω₀ pass inserts parents.
        m.get_or_insert_with(Id(1), Vec::new).push(3);
        assert_eq!(m.get(Id(3)), Some(&vec![1, 2]));
        assert_eq!((m.len(), m.span()), (2, 3));
    }

    #[test]
    fn retain_keeps_len_consistent() {
        let mut m = map_of((0..10).map(|i| (i, i as u32)));
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 5);
        assert!(m.iter().all(|(_, v)| v % 2 == 0));
        // Vacated ends are trimmed, as a removal trims them.
        m.retain(|k, _| (3..7).contains(&k.0));
        assert_eq!((m.len(), m.span()), (2, 3));
        m.retain(|_, _| false);
        assert_eq!((m.len(), m.span()), (0, 0));
    }

    #[test]
    fn removed_slots_are_reusable() {
        let mut m: SlidingMap<Id, u32> = SlidingMap::new();
        m.insert(Id(4), 1);
        m.insert(Id(6), 1);
        m.remove(Id(4));
        m.remove(Id(6));
        assert_eq!(m.insert(Id(4), 2), None);
        assert_eq!(m.get(Id(4)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_mut_mutates_in_place() {
        let mut m = map_of((0..4).map(|i| (i, 1)));
        for (k, v) in m.iter_mut() {
            *v += k.index() as u32;
        }
        let values: Vec<u32> = m.iter().map(|(_, &v)| v).collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
    }

    /// The starved-agent pattern: one entry pins the front while 100 000
    /// short-lived ones pass behind it. Releasing it gives the peak back.
    #[test]
    fn releasing_a_pinned_entry_gives_the_peak_capacity_back() {
        let mut map: SlidingMap<Id, u64> = SlidingMap::new();
        map.insert(Id(0), 0);
        for id in 1..=100_000usize {
            map.insert(Id(id), id as u64);
            if id > 8 {
                map.remove(Id(id - 8));
            }
        }
        assert_eq!((map.len(), map.span()), (9, 100_001));
        assert!(map.slots.capacity() >= 100_001);
        assert_eq!(map.remove(Id(0)), Some(0));
        assert_eq!((map.len(), map.span()), (8, 8));
        assert!(
            map.slots.capacity() <= SHRINK_FLOOR,
            "capacity {} for a span of 8",
            map.slots.capacity()
        );
        // A window that was never large is left alone.
        let mut small: SlidingMap<Id, u64> = SlidingMap::new();
        for id in 0..SHRINK_FLOOR / 2 {
            small.insert(Id(id), 0);
        }
        let before = small.slots.capacity();
        for id in 0..SHRINK_FLOOR / 2 - 1 {
            small.remove(Id(id));
        }
        assert_eq!(small.slots.capacity(), before);
    }
}
