//! The [`SecondaryMap`] slot map.

use crate::EntityKey;
use std::fmt;
use std::marker::PhantomData;

/// A dense map from an [`EntityKey`] to `V`: a `Vec<Option<V>>` indexed by
/// `key.index()`.
///
/// Compared to a `HashMap` keyed by the same id, every operation is a bounds
/// check plus an array access — no hashing — and iteration visits entries in
/// **ascending index order**, so loops over the map are deterministic without
/// any sorting. Removing an entry leaves a vacant slot that is reused if the
/// same index is inserted again; the backing vector never shrinks, so memory
/// is proportional to the largest index ever inserted (which, for the
/// workspace's never-reused arena ids, is the same growth law as the arenas
/// themselves).
///
/// ```
/// use dcn_collections::{EntityKey, SecondaryMap};
/// # #[derive(Clone, Copy, PartialEq, Eq, Debug)]
/// # struct Id(u32);
/// # impl EntityKey for Id {
/// #     fn index(self) -> usize { self.0 as usize }
/// #     fn from_index(index: usize) -> Self { Id(index as u32) }
/// # }
/// let mut m: SecondaryMap<Id, u64> = SecondaryMap::new();
/// assert_eq!(m.insert(Id(2), 20), None);
/// assert_eq!(m.insert(Id(2), 22), Some(20));
/// *m.get_or_insert_with(Id(0), || 1) += 4;
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.remove(Id(2)), Some(22));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![(Id(0), &5)]);
/// ```
pub struct SecondaryMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: EntityKey, V> SecondaryMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SecondaryMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Creates an empty map with room for indices `0..capacity` without
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        SecondaryMap {
            slots: Vec::with_capacity(capacity),
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

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: K) -> bool {
        self.slots.get(key.index()).is_some_and(Option::is_some)
    }

    /// Shared access to the value at `key`.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index()).and_then(Option::as_ref)
    }

    /// Exclusive access to the value at `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index()).and_then(Option::as_mut)
    }

    /// Inserts `value` at `key`, returning the previous value if the slot
    /// was occupied.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let index = key.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let old = self.slots[index].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key`, leaving a vacant slot.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let old = self.slots.get_mut(key.index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Exclusive access to the value at `key`, inserting `default()` first
    /// if the slot is vacant (the moral equivalent of
    /// `HashMap::entry(key).or_insert_with(default)`).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let index = key.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let slot = &mut self.slots[index];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(default)
    }

    /// Keeps only the entries for which `keep` returns `true`. Entries are
    /// visited in index order.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(value) = slot {
                if !keep(K::from_index(index), value) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Iterates over `(key, &value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|v| (K::from_index(index), v)))
    }

    /// Iterates over `(key, &mut value)` pairs in ascending index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_mut().map(|v| (K::from_index(index), v)))
    }

    /// Iterates over the occupied keys in ascending index order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|_| K::from_index(index)))
    }

    /// Iterates over the values in ascending key-index order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates over the values mutably, in ascending key-index order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
    }
}

impl<K: EntityKey, V> Default for SecondaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityKey, V: Clone> Clone for SecondaryMap<K, V> {
    fn clone(&self) -> Self {
        SecondaryMap {
            slots: self.slots.clone(),
            len: self.len,
            _key: PhantomData,
        }
    }
}

impl<K: EntityKey + fmt::Debug, V: fmt::Debug> fmt::Debug for SecondaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: EntityKey, V> FromIterator<(K, V)> for SecondaryMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = SecondaryMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
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

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: SecondaryMap<Id, String> = SecondaryMap::new();
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
        let mut m: SecondaryMap<Id, u32> = SecondaryMap::new();
        for &i in &[9, 2, 7, 0] {
            m.insert(Id(i), i as u32 * 10);
        }
        let pairs: Vec<(Id, u32)> = m.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(
            pairs,
            vec![(Id(0), 0), (Id(2), 20), (Id(7), 70), (Id(9), 90)]
        );
        assert_eq!(
            m.keys().collect::<Vec<_>>(),
            vec![Id(0), Id(2), Id(7), Id(9)]
        );
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![0, 20, 70, 90]);
    }

    #[test]
    fn get_or_insert_with_fills_vacant_slots_once() {
        let mut m: SecondaryMap<Id, Vec<u32>> = SecondaryMap::new();
        m.get_or_insert_with(Id(3), Vec::new).push(1);
        m.get_or_insert_with(Id(3), || panic!("slot is occupied"))
            .push(2);
        assert_eq!(m.get(Id(3)), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_keeps_len_consistent() {
        let mut m: SecondaryMap<Id, u32> = (0..10).map(|i| (Id(i), i as u32)).collect();
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 5);
        assert!(m.values().all(|v| v % 2 == 0));
    }

    #[test]
    fn removed_slots_are_reusable() {
        let mut m: SecondaryMap<Id, u32> = SecondaryMap::new();
        m.insert(Id(4), 1);
        m.remove(Id(4));
        assert_eq!(m.insert(Id(4), 2), None);
        assert_eq!(m.get(Id(4)), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn values_mut_and_iter_mut_mutate_in_place() {
        let mut m: SecondaryMap<Id, u32> = (0..4).map(|i| (Id(i), 1)).collect();
        for v in m.values_mut() {
            *v += 1;
        }
        for (k, v) in m.iter_mut() {
            *v += k.index() as u32;
        }
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
    }
}
