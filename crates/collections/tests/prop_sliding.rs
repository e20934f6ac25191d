//! Seeded case-loop property test: a [`SlidingMap`] must hold exactly what a
//! `BTreeMap<usize, V>` holds — same contents, same ascending iteration —
//! while its window (`span`) covers exactly the live keys, after every
//! operation: insert, remove, get / `contains_key`, `get_mut`,
//! `get_or_insert_with`, `retain`, `iter_mut`, re-insertion into a slot just
//! vacated, and `clear` followed by a fresh insert. The key patterns are
//! those of its clients: ids issued in sequence with entries removed in any
//! order (the agent table), inserts that arrive out of order and below the
//! window's front (the ledger index under asynchronous answers), and one
//! fixed id range filled, thinned and refilled (the per-node tables).

use dcn_collections::{EntityKey, SlidingMap};
use dcn_rng::{DetRng, Rng, SeedableRng};
use std::collections::BTreeMap;

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

/// Compares every observable of the map against the model, the window law
/// included: `span == newest − oldest live + 1`.
fn assert_matches_model(map: &SlidingMap<Id, u64>, model: &BTreeMap<usize, u64>) {
    assert_eq!(map.len(), model.len());
    assert_eq!(map.is_empty(), model.is_empty());
    let got: Vec<(usize, u64)> = map.iter().map(|(k, &v)| (k.index(), v)).collect();
    let want: Vec<(usize, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
    let span = match (model.keys().next(), model.keys().next_back()) {
        (Some(oldest), Some(newest)) => newest - oldest + 1,
        _ => 0,
    };
    assert_eq!(map.span(), span);
}

/// A uniformly chosen live key of the model, if any.
fn nth_live_key(rng: &mut DetRng, model: &BTreeMap<usize, u64>) -> Option<usize> {
    if model.is_empty() {
        return None;
    }
    let nth = rng.gen_range(0usize..model.len());
    model.keys().nth(nth).copied()
}

#[test]
fn sliding_map_matches_a_btreemap_model() {
    for case in 0..300u64 {
        let mut rng = DetRng::seed_from_u64(0x511d_0000 + case);
        // Keys are drawn from a band that drifts upwards, like ids in flight
        // below a counter; `reach` is how far out of order they may arrive.
        let reach = 1 + rng.gen_range(0usize..40);
        let mut newest = rng.gen_range(0usize..1_000_000);
        let mut map: SlidingMap<Id, u64> = SlidingMap::new();
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        let ops = rng.gen_range(40usize..240);
        for op in 0..ops {
            newest += rng.gen_range(0usize..3);
            let key = newest.saturating_sub(rng.gen_range(0usize..reach));
            match rng.gen_range(0u32..100) {
                // In-order, out-of-order and below-the-front inserts alike.
                0..=29 => {
                    let value = rng.gen::<u64>();
                    assert_eq!(map.insert(Id(key), value), model.insert(key, value));
                }
                // Removal of a random band key, or of a random live key so
                // that every position (front, back, middle) is hit.
                30..=44 => {
                    assert_eq!(map.remove(Id(key)), model.remove(&key));
                }
                45..=59 => {
                    if let Some(victim) = nth_live_key(&mut rng, &model) {
                        assert_eq!(map.remove(Id(victim)), model.remove(&victim));
                    }
                }
                60..=69 => {
                    assert_eq!(map.get(Id(key)), model.get(&key));
                    assert_eq!(map.contains_key(Id(key)), model.contains_key(&key));
                    // Far below and far above the window read as absent.
                    assert_eq!(map.get(Id(key / 2)), model.get(&(key / 2)));
                    assert!(!map.contains_key(Id(key + 10 * reach)));
                }
                70..=74 => {
                    if let (Some(v), Some(w)) = (map.get_mut(Id(key)), model.get_mut(&key)) {
                        *v = v.wrapping_add(op as u64);
                        *w = w.wrapping_add(op as u64);
                    }
                }
                75..=79 => {
                    let add = rng.gen_range(1u64..10);
                    *map.get_or_insert_with(Id(key), || 1000) += add;
                    *model.entry(key).or_insert(1000) += add;
                }
                // Retain by value (any positions) or by residue (often the
                // ends): both must leave a trimmed window.
                80..=84 => {
                    let cutoff = rng.gen::<u64>();
                    map.retain(|_, v| *v >= cutoff);
                    model.retain(|_, v| *v >= cutoff);
                }
                85..=87 => {
                    let residue = key % 3;
                    map.retain(|k, _| k.index() % 3 != residue);
                    model.retain(|k, _| k % 3 != residue);
                }
                88..=91 => {
                    for (k, v) in map.iter_mut() {
                        *v = v.wrapping_add(k.index() as u64);
                    }
                    for (k, v) in model.iter_mut() {
                        *v = v.wrapping_add(*k as u64);
                    }
                }
                // Re-insert into a slot just vacated, wherever it lies.
                92..=96 => {
                    if let Some(victim) = nth_live_key(&mut rng, &model) {
                        assert_eq!(map.remove(Id(victim)), model.remove(&victim));
                        assert_matches_model(&map, &model);
                        let value = rng.gen::<u64>();
                        assert_eq!(map.insert(Id(victim), value), None);
                        model.insert(victim, value);
                    }
                }
                _ => {
                    map.clear();
                    model.clear();
                    assert_matches_model(&map, &model);
                    let value = rng.gen::<u64>();
                    assert_eq!(map.insert(Id(key), value), None);
                    model.insert(key, value);
                }
            }
            assert_matches_model(&map, &model);
        }
    }
}

#[test]
fn a_fixed_id_range_matches_a_btreemap_model() {
    // The per-node pattern: keys from one small range starting at 0, each
    // filled, vacated and refilled many times over.
    for case in 0..300u64 {
        let mut rng = DetRng::seed_from_u64(0x5ec0_0000 + case);
        let key_space = 1 + rng.gen_range(0usize..48);
        let mut map: SlidingMap<Id, u64> = SlidingMap::new();
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        let ops = rng.gen_range(20usize..160);
        for op in 0..ops {
            let key = rng.gen_range(0usize..key_space);
            match rng.gen_range(0u32..100) {
                0..=44 => {
                    let value = rng.gen::<u64>();
                    assert_eq!(map.insert(Id(key), value), model.insert(key, value));
                }
                45..=69 => {
                    assert_eq!(map.remove(Id(key)), model.remove(&key));
                }
                70..=84 => {
                    assert_eq!(map.get(Id(key)), model.get(&key));
                    assert_eq!(map.contains_key(Id(key)), model.contains_key(&key));
                }
                85..=89 => {
                    let add = rng.gen_range(1u64..10);
                    *map.get_or_insert_with(Id(key), || 1000) += add;
                    *model.entry(key).or_insert(1000) += add;
                }
                90..=94 => {
                    let cutoff = rng.gen::<u64>();
                    map.retain(|_, v| *v >= cutoff);
                    model.retain(|_, v| *v >= cutoff);
                }
                95..=97 => {
                    if let (Some(v), Some(w)) = (map.get_mut(Id(key)), model.get_mut(&key)) {
                        *v = v.wrapping_add(op as u64);
                        *w = w.wrapping_add(op as u64);
                    }
                }
                _ => {
                    map.clear();
                    model.clear();
                }
            }
            assert_matches_model(&map, &model);
        }
    }
}

#[test]
fn the_window_follows_sequential_ids_with_short_lives() {
    // The agent-table pattern: ids 0, 1, 2, … each removed a few inserts
    // later. The span stays at the number in flight however far the ids run.
    let mut map: SlidingMap<Id, u64> = SlidingMap::new();
    for id in 0..100_000usize {
        map.insert(Id(id), id as u64);
        if id >= 8 {
            assert_eq!(map.remove(Id(id - 8)), Some(id as u64 - 8));
        }
        assert!(map.span() <= 9, "span {} at id {id}", map.span());
    }
    assert_eq!(map.len(), 8);
    // One straggler pins the window; removing it collapses the window.
    map.insert(Id(200_000), 1);
    assert_eq!(map.span(), 200_000 - 99_992 + 1);
    for id in 99_992..100_000 {
        map.remove(Id(id));
    }
    assert_eq!((map.len(), map.span()), (1, 1));
}

/// The starved-agent pattern: one entry pins the front while 100 000
/// short-lived ones pass behind it, so the buffer grows to the pinned span.
/// Releasing it lets the map give that capacity back (the capacity itself is
/// pinned by `sliding.rs`'s unit test); what is checked here is that the
/// reallocation loses nothing — the survivors, wrapped far into the old
/// buffer, and everything done to the map afterwards still match the model.
#[test]
fn releasing_a_pinned_front_entry_keeps_the_model() {
    for (case, in_flight) in [(0u64, 1usize), (1, 8), (2, 100), (3, 5_000)] {
        let mut rng = DetRng::seed_from_u64(0x511d_8000 + case);
        let mut map: SlidingMap<Id, u64> = SlidingMap::new();
        let mut model: BTreeMap<usize, u64> = BTreeMap::new();
        let base = rng.gen_range(0usize..1_000_000);
        map.insert(Id(base), 0);
        model.insert(base, 0);
        for id in base + 1..=base + 100_000 {
            let value = rng.gen::<u64>();
            assert_eq!(map.insert(Id(id), value), model.insert(id, value));
            if id - base > in_flight {
                let gone = id - in_flight;
                assert_eq!(map.remove(Id(gone)), model.remove(&gone));
            }
        }
        assert_matches_model(&map, &model);
        assert_eq!(map.span(), 100_001);
        assert_eq!(map.remove(Id(base)), model.remove(&base));
        assert_matches_model(&map, &model);
        assert_eq!(map.span(), in_flight);
        // Life goes on in the smaller buffer: below the front, above the
        // back, and draining to empty.
        for id in (base + 99_000..base + 99_010).chain(base + 100_001..base + 100_200) {
            assert_eq!(map.insert(Id(id), id as u64), model.insert(id, id as u64));
        }
        assert_matches_model(&map, &model);
        while let Some((&key, _)) = model.iter().next() {
            let key = if rng.gen_range(0u32..2) == 0 {
                key
            } else {
                *model.keys().next_back().unwrap()
            };
            assert_eq!(map.remove(Id(key)), model.remove(&key));
            if model.len() % 64 == 0 {
                assert_matches_model(&map, &model);
            }
        }
        assert_matches_model(&map, &model);
    }
}

#[test]
fn emptying_and_refilling_starts_a_fresh_window() {
    let mut map: SlidingMap<Id, u64> = SlidingMap::new();
    for k in 10..20usize {
        map.insert(Id(k), k as u64);
    }
    for k in (10..20usize).rev() {
        assert_eq!(map.remove(Id(k)), Some(k as u64));
    }
    assert_eq!((map.len(), map.span()), (0, 0));
    // Refill far above, then far below where the old window was: neither
    // costs the distance to it.
    map.insert(Id(5_000_000), 1);
    assert_eq!(map.span(), 1);
    assert_eq!(map.remove(Id(5_000_000)), Some(1));
    map.insert(Id(3), 2);
    map.insert(Id(1), 3);
    assert_eq!((map.len(), map.span()), (2, 3));
    assert_eq!(map.get(Id(2)), None);
    assert_eq!(map.get(Id(0)), None);
    // `clear` is the same base jump without the removals.
    map.clear();
    assert_eq!((map.len(), map.span()), (0, 0));
    map.insert(Id(9_000_000), 4);
    assert_eq!((map.len(), map.span()), (1, 1));
    assert_eq!(map.get(Id(9_000_000)), Some(&4));
}

#[test]
fn vacated_slots_are_reused_without_ghosts() {
    // The per-node pattern: fill, thin and refill the same indices and check
    // that no stale value, length drift or stale window survives the churn.
    let mut map: SlidingMap<Id, u64> = SlidingMap::new();
    let mut model: BTreeMap<usize, u64> = BTreeMap::new();
    for round in 0..10u64 {
        for k in 0..32usize {
            map.insert(Id(k), round * 100 + k as u64);
            model.insert(k, round * 100 + k as u64);
        }
        for k in (0..32usize).step_by(2) {
            map.remove(Id(k));
            model.remove(&k);
        }
        assert_matches_model(&map, &model);
        map.retain(|k, _| k.index() < 31);
        model.retain(|&k, _| k < 31);
        assert_matches_model(&map, &model);
    }
    assert_eq!((map.len(), map.span()), (15, 29));
}
