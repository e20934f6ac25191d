//! # dcn-estimator — size estimation, name assignment, heavy-child
//! decomposition and dynamic labeling (paper §5)
//!
//! The (M, W)-Controller is a building block; this crate implements the
//! applications the paper derives from it, all operating under the general
//! dynamic model (insertions and deletions of leaves and internal nodes):
//!
//! * [`SizeEstimator`] — every node holds a `β`-approximation `ñ` of the
//!   current network size, at `O(log² n)` amortized messages per topological
//!   change (Theorem 5.1);
//! * [`NameAssigner`] — every node holds a unique identity in `[1, 4n]`
//!   (Theorem 5.2), using the controller in *interval mode* so that permits are
//!   serial numbers;
//! * [`SubtreeEstimator`] — every node holds a `β`-approximation of its
//!   *super-weight* (descendants that existed at any point in the current
//!   iteration, Lemma 5.3), read off the permits that passed through it;
//! * [`HeavyChildDecomposition`] — every internal node points at a heavy
//!   child such that every node has `O(log n)` light ancestors (Theorem 5.4);
//! * [`AncestryLabeling`] — a dynamic extension of the classical interval
//!   ancestry labeling that keeps labels of size `O(log n)` under controlled
//!   deletions by re-labeling when the size estimate shrinks (Corollary 5.7);
//! * [`MajorityCommitment`] — the Bar-Yehuda–Kutten majority-commitment
//!   protocol generalized to churning networks via the size estimator (§1.3,
//!   §1.4).
//!
//! ## The shared epoch engine
//!
//! All six applications run on `dcn-controller`'s one epoch engine, the
//! [`IterationDriver`] (re-exported here with [`IterationPlan`] and
//! [`IterationPolicy`]; the iterated controllers are its other user). It
//! plans each iteration through the application's [`IterationPolicy`]
//! (per-iteration α/β budgets, interval mode, renaming) — the hooks the
//! applications leave at their defaults are the §5 behaviour: rotate when an
//! iteration is exhausted and retry there, `2n` for the closing count wave —
//! and its inherent methods are the same ticket/step seam as the
//! controllers': `submit` → [`RequestId`] tickets that survive iteration
//! rebuilds, bounded `step(budget)`, and the answers as records, read with
//! `records()` or handed out once by `take_records()`; `iterations()` and
//! `estimate()` report the epochs. Every application implements the uniform
//! [`Application`] trait — its name, the engine beneath it (as
//! `&IterationDriver<dyn IterationPolicy>`, to which its own driver
//! coerces), an after-slice hook and its invariant check; the ticket surface
//! is provided — so the scenario runner and sweep engine in `dcn-workload`
//! drive the §5 protocols exactly as they drive the controllers. Invariant
//! violations are reported through the shared typed [`InvariantError`].
//!
//! ## Modelling note
//!
//! The iteration bookkeeping that the paper performs with broadcast/upcast
//! waves (announcing the fresh estimate `N_i`, counting nodes, re-running a
//! DFS numbering) is executed here at the driver level and *charged* to the
//! message counters (`O(n)` per wave), exactly as recorded in DESIGN.md. The
//! permit movement itself — the part whose cost the theorems bound — runs on
//! the real distributed controller over the asynchronous network simulator.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod driver;
mod heavy;
mod invariant;
mod labeling;
mod majority;
mod names;
mod size;
mod subtree;

pub use dcn_controller::distributed::{IterationDriver, IterationPlan, IterationPolicy};
pub use driver::Application;
pub use heavy::HeavyChildDecomposition;
pub use invariant::InvariantError;
pub use labeling::{AncestryLabel, AncestryLabeling};
pub use majority::{Decision, MajorityCommitment};
pub use names::NameAssigner;
pub use size::SizeEstimator;
pub use subtree::SubtreeEstimator;

pub use dcn_controller::{ControllerError, Outcome, Progress, RequestId, RequestKind};
pub use dcn_tree::{DynamicTree, NodeId};
