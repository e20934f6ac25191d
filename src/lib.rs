//! # dcn — Controller and Estimator for Dynamic Networks
//!
//! Umbrella crate for the reproduction of Korman & Kutten, *"Controller and
//! Estimator for Dynamic Networks"*: it re-exports the whole public API so
//! that applications (and the examples in `examples/`) only need a single
//! dependency.
//!
//! * [`tree`] — the dynamic rooted-tree substrate;
//! * [`simnet`] — the asynchronous network / mobile-agent simulator;
//! * [`controller`] — the (M, W)-Controller (centralized and distributed);
//! * [`estimator`] — size estimation, name assignment, heavy-child
//!   decomposition, dynamic ancestry labeling;
//! * [`baseline`] — the AAPS-style and trivial comparison controllers;
//! * [`workload`] — topology, churn and request generators;
//! * [`server`] — `dcn-serve`: the controller as a long-running TCP
//!   admission-control service (line-JSON protocol, DESIGN.md §9).
//!
//! ```
//! use dcn::controller::distributed::DistributedController;
//! use dcn::controller::{Controller, RequestKind};
//! use dcn::simnet::SimConfig;
//! use dcn::tree::DynamicTree;
//!
//! # fn main() -> Result<(), dcn::controller::ControllerError> {
//! let tree = DynamicTree::with_initial_star(7);
//! let mut ctrl = DistributedController::new(SimConfig::new(1), tree, 4, 2, 32)?;
//! let leaf = ctrl.tree().nodes().last().unwrap();
//! ctrl.submit(leaf, RequestKind::AddLeaf)?;
//! ctrl.run_to_quiescence()?;
//! assert_eq!(ctrl.granted(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub use dcn_baseline as baseline;
pub use dcn_controller as controller;
pub use dcn_estimator as estimator;
pub use dcn_server as server;
pub use dcn_simnet as simnet;
pub use dcn_tree as tree;
pub use dcn_workload as workload;
