//! # dcn-controller — the (M, W)-Controller for dynamic networks
//!
//! This crate implements the main contribution of Korman & Kutten,
//! *"Controller and Estimator for Dynamic Networks"*: an **(M, W)-Controller**
//! for networks spanned by a tree that may undergo insertions and deletions of
//! both leaves and internal nodes (the *controlled dynamic model*).
//!
//! An (M, W)-Controller answers online requests arriving at arbitrary nodes
//! with either a *permit* or a *reject*, subject to:
//!
//! * **Safety** — at most `M` permits are ever granted;
//! * **Liveness** — every request is eventually answered, and if any request
//!   is rejected, at least `M − W` permits are eventually granted.
//!
//! Following the paper, the crate provides the construction in layers:
//!
//! * [`centralized`] — the sequential controller of §3: permits travel in
//!   *packages* over the tree, requests pull packages from the nearest
//!   *filler node*, and the recursive `Proc` distribution leaves a trail of
//!   geometrically sized packages behind. Includes the iterated controller of
//!   Observation 3.4 and the adaptive (unknown-`U`) controllers of
//!   Theorem 3.5.
//! * [`distributed`] — the mobile-agent implementation of §4 running on the
//!   [`dcn_simnet`] asynchronous network simulator, with path locking, FIFO
//!   waiting queues and reject waves, plus the one epoch engine
//!   ([`distributed::IterationDriver`]) that runs the §5 applications of
//!   `dcn-estimator` and the iterated controllers.
//! * [`Iterated`] — the one iterated controller: Observation 3.4's halving
//!   rounds, in Theorem 3.5's epochs when `U` is unknown, over centralized
//!   rounds ([`centralized::IteratedController`]) or distributed ones (the
//!   adaptive controller of §4.5 / Appendix A,
//!   [`distributed::AdaptiveDistributedController`]).
//! * [`domain`] — the *package domain* bookkeeping used by the paper's
//!   analysis (§3.2), implemented as an auditor so tests can check the domain
//!   invariants on real executions.
//! * [`verify`] — safety / liveness / waste checkers shared by tests, property
//!   tests and the experiment harness.
//!
//! Every family is driven through the ticket-based [`Controller`] trait: a
//! submission returns a [`RequestId`] ticket, execution advances either all
//! the way ([`Controller::run_to_quiescence`]) or in bounded slices
//! ([`Controller::step`]), and each ticket's answer is one record, handed
//! out once by [`Controller::take_records`] (or as [`ControllerEvent`]s by
//! [`drain_events`](trait.Controller.html#method.drain_events), on
//! `dyn Controller`):
//!
//! ```
//! use dcn_controller::distributed::DistributedController;
//! use dcn_controller::{Controller, ControllerEvent, RequestKind};
//! use dcn_simnet::SimConfig;
//! use dcn_tree::DynamicTree;
//!
//! # fn main() -> Result<(), dcn_controller::ControllerError> {
//! // A distributed (M, W) = (10, 5) controller over a fresh 64-node star
//! // (the root plus 63 leaves — `with_initial_star(k)` creates k leaves).
//! let tree = DynamicTree::with_initial_star(63);
//! assert_eq!(tree.node_count(), 64);
//! let mut ctrl = DistributedController::new(SimConfig::new(7), tree, 10, 5, 200)?;
//! let leaf = Controller::tree(&ctrl).nodes().last().unwrap();
//!
//! // Submit returns a ticket; the agent is now in flight.
//! let ticket = Controller::submit(&mut ctrl, leaf, RequestKind::AddLeaf)?;
//! assert!(ctrl.records().is_empty());
//!
//! // Advance the simulator in bounded slices until it is quiescent —
//! // open-loop drivers submit more requests between slices.
//! while !Controller::step(&mut ctrl, 32)?.quiescent {}
//!
//! // The answer is a record until it is taken, here as events.
//! assert!(ctrl.records()[0].id == ticket && ctrl.records()[0].outcome.is_granted());
//! let events = (&mut ctrl as &mut dyn Controller).drain_events();
//! assert!(matches!(events[0], ControllerEvent::Granted { id, .. } if id == ticket));
//! assert!(ctrl.records().is_empty());
//! assert_eq!(ctrl.granted(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod api;
pub mod centralized;
pub mod distributed;
pub mod domain;
mod error;
mod invariant;
mod iterated;
mod ledger;
mod package;
mod params;
mod request;
pub mod sharded;
pub mod verify;

pub use api::{
    run_to_quiescence, Controller, ControllerEvent, ControllerMetrics, Progress, SyncController,
};
pub use error::ControllerError;
pub use invariant::InvariantError;
pub use iterated::Iterated;
pub use ledger::RequestLedger;
pub use package::{MobilePackage, PackageStore, PermitInterval};
pub use params::Params;
pub use request::{check_request, Outcome, RequestId, RequestKind, RequestRecord};
pub use sharded::ShardedController;

pub use dcn_tree::{DynamicTree, NodeId};
