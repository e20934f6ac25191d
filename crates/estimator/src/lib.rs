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
//!   deletions by re-labeling when the size estimate shrinks (Corollary 5.7),
//!   and places insertions in room reserved inside their parent's interval;
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
//! applications leave at their defaults are the §5 behaviour: retry an
//! iteration's rejects in the next one, and count the tree at its close with
//! one upcast, the reject wave that closed it serving as the broadcast —
//! and its inherent methods are the same ticket/step seam as the
//! controllers': `submit` → [`RequestId`] tickets that survive iteration
//! rebuilds, bounded `step(budget)`, and the answers as records in its
//! `ledger()`, which also counts them, or handed out once by
//! `take_records()`; `iterations()` and `estimate()` report the epochs.
//! Every application *is* a
//! [`Controller`](dcn_controller::Controller): the ticket surface forwards to
//! the engine beneath it (its own, or that of the application it is layered
//! on), `step` runs the application's after-slice bookkeeping, and
//! `check_invariants` checks its §5 guarantee — so the scenario runner and
//! sweep engine in `dcn-workload` drive the §5 protocols exactly as they
//! drive the controllers. Invariant violations are reported through the
//! shared typed [`InvariantError`].
//!
//! ## Modelling note
//!
//! The iteration bookkeeping that the paper performs with broadcast/upcast
//! waves (announcing the fresh estimate `N_i`, counting nodes, re-running a
//! DFS numbering) is executed here at the driver level and *charged* to the
//! message counters (`O(n)` per wave), exactly as recorded in DESIGN.md; an
//! iteration boundary costs one convergecast and one broadcast. The
//! permit movement itself — the part whose cost the theorems bound — runs on
//! the real distributed controller over the asynchronous network simulator.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

/// The engine half of a §5 application's
/// [`Controller`](dcn_controller::Controller) impl, invoked inside it: the
/// ticket surface forwards to the [`IterationDriver`] at the field path
/// `self.<engine>` (the application's own, or that of the application it is
/// layered on), and `step` runs the named inherent after-slice hook, if
/// any, with each slice's progress. The application adds its name and its
/// `check_invariants`.
///
/// A macro, not a blanket impl: the orphan rule forbids one outside
/// `dcn-controller`, and inside it one would overlap the `SyncController`
/// blanket impl.
macro_rules! engine_controller {
    ($name:literal, $($engine:ident).+ $(, $hook:ident)?) => {
        fn name(&self) -> &'static str {
            $name
        }

        /// `u64::MAX`: an application has no run-wide budget. Each
        /// iteration's controller has its own, and the engine retries its
        /// rejects in the next one, so a run report's safety and liveness
        /// checks are vacuous here.
        fn budget(&self) -> u64 {
            u64::MAX
        }

        /// `u64::MAX`, for the reason given on `budget`.
        fn waste_bound(&self) -> u64 {
            u64::MAX
        }

        fn submit(
            &mut self,
            at: dcn_tree::NodeId,
            kind: dcn_controller::RequestKind,
        ) -> Result<dcn_controller::RequestId, dcn_controller::ControllerError> {
            self.$($engine).+.submit(at, kind)
        }

        fn step(
            &mut self,
            budget: u64,
        ) -> Result<dcn_controller::Progress, dcn_controller::ControllerError> {
            let progress = self.$($engine).+.step(budget)?;
            $(self.$hook(progress);)?
            Ok(progress)
        }

        fn take_records(&mut self) -> Vec<dcn_controller::RequestRecord> {
            self.$($engine).+.take_records()
        }

        fn ledger(&self) -> &dcn_controller::RequestLedger {
            self.$($engine).+.ledger()
        }

        fn tree(&self) -> &dcn_tree::DynamicTree {
            self.$($engine).+.tree()
        }

        fn metrics(&self) -> dcn_controller::ControllerMetrics {
            self.$($engine).+.metrics()
        }

        fn iterations(&self) -> u32 {
            self.$($engine).+.iterations()
        }
    };
}

mod heavy;
mod labeling;
mod majority;
mod names;
mod size;
mod subtree;

pub use dcn_controller::distributed::{IterationDriver, IterationPlan, IterationPolicy};
pub use dcn_controller::InvariantError;
pub use heavy::HeavyChildDecomposition;
pub use labeling::{AncestryLabel, AncestryLabeling};
pub use majority::{Decision, MajorityCommitment};
pub use names::NameAssigner;
pub use size::SizeEstimator;
pub use subtree::SubtreeEstimator;

pub use dcn_controller::{ControllerError, Outcome, Progress, RequestId, RequestKind};
pub use dcn_tree::{DynamicTree, NodeId};
