//! # dcn-collections — entity-keyed storage for the hot paths
//!
//! The workspace's entity identifiers — `NodeId`, `AgentId`, `RequestId` —
//! are dense arena indices: allocated sequentially, never reused. Storing
//! per-entity state in a general-purpose `std::collections::HashMap` pays a
//! SipHash round per access for keys that are already perfect array indices.
//! On the simulator's event loop that hashing dominates the profile, so this
//! crate provides the storage shapes the hot paths actually need:
//!
//! * [`SlidingMap`] — a dense slot map keyed by any [`EntityKey`]: a
//!   `VecDeque<Option<V>>` behind a moving window (the index of its first
//!   slot). O(1) access with no hashing at all, and iteration in **index
//!   order**, which makes every loop over it deterministic by construction
//!   (a property the byte-identical sweep reports rely on). Removal pops the
//!   vacant ends, so memory follows the span of the *live* keys instead of
//!   the largest key ever seen: per-request and per-agent tables, which a
//!   long-running process fills without bound, keep only the work in flight.
//!   Use it whenever the key is one of the workspace's dense entity ids.
//! * [`CalendarQueue`] — a timing-wheel priority queue for bounded-delay
//!   discrete-event scheduling: O(1) schedule/pop through a width-1 bucket
//!   wheel for the near horizon, a binary-heap overflow tier for far-future
//!   items, popping in the exact `(time, insertion)` order a
//!   `BinaryHeap<Reverse<_>>` would produce — but without the O(log n)
//!   sift per event.
//! * [`FxHashMap`] / [`FxHashSet`] — `std` hash containers with the
//!   [`FxHasher`], an in-tree implementation of the Firefox/rustc
//!   multiply-rotate hash. For keys that are *not* dense indices (composite
//!   tuples, foreign u64 counters) where a hash table is still the right
//!   shape but SipHash is overkill. The hasher is fixed-seed and therefore
//!   deterministic across runs and platforms — but iteration order is still
//!   unspecified, so hot-path loops over these must not let the order
//!   escape into outputs (sort first, or aggregate order-insensitively).
//!
//! The storage policy for the workspace (DESIGN.md "Performance model"):
//! dense entity key → [`SlidingMap`]; sparse or composite key →
//! [`FxHashMap`]; no `std` SipHash maps (clippy refuses their constructors,
//! DESIGN.md §8).
//!
//! ```
//! use dcn_collections::{EntityKey, SlidingMap};
//!
//! #[derive(Clone, Copy, PartialEq, Eq, Debug)]
//! struct Id(u32);
//! impl EntityKey for Id {
//!     fn index(self) -> usize {
//!         self.0 as usize
//!     }
//!     fn from_index(index: usize) -> Self {
//!         Id(index as u32)
//!     }
//! }
//!
//! let mut map: SlidingMap<Id, &str> = SlidingMap::new();
//! map.insert(Id(3), "three");
//! map.insert(Id(1), "one");
//! assert_eq!(map.get(Id(3)), Some(&"three"));
//! // Iteration is in index order, not insertion order.
//! let keys: Vec<Id> = map.iter().map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![Id(1), Id(3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod calendar;
mod fx;
mod sliding;

pub use calendar::CalendarQueue;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use sliding::SlidingMap;

/// A dense entity identifier: a copyable key that is (reversibly) a plain
/// array index.
///
/// Implemented by the workspace's arena ids (`NodeId`, `AgentId`,
/// `RequestId`), whose values are allocated sequentially and never reused.
/// The contract is `from_index(k.index()) == k` for every key handed to a
/// [`SlidingMap`]; live indices should be dense (a narrow range relative to
/// the number of live entities), since the map allocates from the smallest
/// live index to the largest.
pub trait EntityKey: Copy + Eq {
    /// The raw array index of this key.
    fn index(self) -> usize;

    /// Rebuilds the key from a raw index (the inverse of
    /// [`EntityKey::index`]).
    fn from_index(index: usize) -> Self;
}
