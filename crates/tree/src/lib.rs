//! # dcn-tree — dynamic rooted tree substrate
//!
//! The controller of Korman & Kutten ("Controller and Estimator for Dynamic
//! Networks") operates on a network spanned by a rooted tree `T` that may
//! undergo four kinds of topological changes (paper §2.1.2):
//!
//! * **add-leaf** — a new degree-one vertex is attached as a child of an
//!   existing vertex;
//! * **remove-leaf** — a non-root leaf is deleted;
//! * **add-internal** — an edge `(v, w)` is split by a new vertex `u`
//!   (so `u` becomes a child of `v` and the parent of `w`);
//! * **remove-internal** — a non-root internal vertex is deleted and its
//!   children are adopted by its parent.
//!
//! This crate provides [`DynamicTree`], an arena-backed implementation of that
//! model, together with ancestry / depth / path queries and DFS traversal. A
//! tree stores the spanning tree as it stands plus an `O(1)` count of the
//! changes applied to it ([`DynamicTree::changes`]); the history of those
//! changes — the [`ChangeLog`], from which the sizes `n_j` of the paper's
//! `Σ_j log² n_j` bounds are derived — is kept only after a reader asked for
//! it with [`DynamicTree::record_changes`]. Non-tree edges are not modelled:
//! the paper classes their insertion and removal as non-topological events,
//! which reach the controller as plain requests.
//!
//! Node identifiers are **never reused**: the total number of identifiers ever
//! allocated corresponds to the paper's quantity `U`, the number of nodes ever
//! to exist in the network.
//!
//! **Storage.** A tree allocates nothing per node. It holds two vectors: the
//! *spine*, one 4-byte entry per identifier ever minted (the index of the
//! node's record, or a vacant mark once it is removed), and the *records*,
//! one flat `Copy` record of 32 bytes per live node — parent, first and last
//! child, previous and next sibling, child count, cached depth and owning
//! id. Links name record indices, so a walk up the tree is one load per hop
//! and never touches the spine. A removed node's record is reused by the
//! next node created (last freed, first reused), and
//! [`DynamicTree::record_slot`] names it, so a side table keyed by it spans
//! the most nodes ever live at once. [`DynamicTree::children`]
//! walks the sibling links as a [`Children`] iterator (double-ended, exact
//! size); child-degree and leaf tests read the count, and removing a leaf or
//! splitting an edge relinks in `O(1)`. [`DynamicTree::dfs`] keeps no stack.
//!
//! ```
//! use dcn_tree::DynamicTree;
//!
//! # fn main() -> Result<(), dcn_tree::TreeError> {
//! let mut tree = DynamicTree::new();
//! let root = tree.root();
//! let a = tree.add_leaf(root)?;
//! let b = tree.add_leaf(a)?;
//! // Split the edge (a, b) with a new internal node.
//! let mid = tree.add_internal_above(b)?;
//! assert_eq!(tree.parent(b), Some(mid));
//! assert_eq!(tree.depth(b), 3);
//! // Remove the internal node again; `b` is re-adopted by `a`.
//! tree.remove_internal(mid)?;
//! assert_eq!(tree.parent(b), Some(a));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod error;
mod event;
mod id;
mod region;
mod traversal;
mod tree;

pub use error::TreeError;
pub use event::{ChangeLog, TopologyEvent};
pub use id::NodeId;
pub use region::{CarvedRegion, LocalMap, RegionMap};
pub use traversal::{Ancestors, Children, DfsIter};
pub use tree::DynamicTree;
