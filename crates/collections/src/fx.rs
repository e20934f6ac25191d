//! The [`FxHasher`] and the `std` container aliases built on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// The multiplicative mixing constant: `⌊2^64 / φ⌋` rounded to an odd
/// neighbour, the same constant the Firefox/rustc "Fx" hash uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic, **fixed-seed** hasher: rotate, xor, multiply.
///
/// This is an in-tree implementation of the hash rustc and Firefox use for
/// their internal tables (the workspace has no crates.io access, so
/// `rustc-hash` itself is not available). It is several times cheaper than
/// SipHash on the short integer keys the hot paths use, and having no random
/// per-instance seed it hashes identically across runs and platforms — one
/// less nondeterminism hazard, at the cost of no HashDoS resistance, which is
/// irrelevant for a simulator hashing its own ids.
///
/// ```
/// use dcn_collections::FxHashMap;
///
/// let mut m: FxHashMap<u64, &str> = FxHashMap::default();
/// m.insert(17, "seventeen");
/// assert_eq!(m.get(&17), Some(&"seventeen"));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Little-endian words; a short last chunk is zero-padded.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Builds [`FxHasher`]s. Zero-sized and [`Default`], so the container
/// aliases construct with `::default()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using the [`FxHasher`]. Construct with
/// `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the [`FxHasher`]. Construct with
/// `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher.hash_one(value)
    }

    #[test]
    fn equal_values_hash_equal_and_the_seed_is_fixed() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"tree"), hash_of(&"tree"));
        // No per-instance randomness: two independent builders agree.
        let a = FxBuildHasher.build_hasher().finish();
        let b = FxBuildHasher.build_hasher().finish();
        assert_eq!(a, b);
    }

    #[test]
    fn nearby_keys_spread() {
        // Not a statistical test — just a guard against a degenerate
        // implementation (e.g. the identity function on small ints).
        let hashes: Vec<u64> = (0u64..64).map(|i| hash_of(&i)).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "collisions on consecutive small keys");
        assert!(hashes.windows(2).all(|w| w[0].abs_diff(w[1]) > 1000));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let long = vec![7u8; 23];
        assert_eq!(hash_of(&long), hash_of(&long.clone()));
        assert_ne!(hash_of(&vec![7u8; 23]), hash_of(&vec![7u8; 24]));
    }

    #[test]
    fn containers_work_with_the_alias_types() {
        let mut map: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..100 {
            map.insert((i, i * 2), i as u64);
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&(40, 80)), Some(&40));
        let set: FxHashSet<u32> = (0..50).collect();
        assert!(set.contains(&49));
        assert_eq!(set.len(), 50);
    }
}
