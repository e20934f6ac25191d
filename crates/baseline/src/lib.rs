//! # dcn-baseline — comparison controllers
//!
//! The paper's headline claim is comparative: the new controller handles a
//! strictly more general dynamic model (insertions *and deletions* of leaves
//! *and internal nodes*) while never using more messages than the controller
//! of Afek, Awerbuch, Plotkin and Saks (AAPS, *Local management of a global
//! resource in a communication network*, J. ACM 1996), which only supports
//! leaf insertions; and both are far cheaper than the naive approach in which
//! every request travels to the root.
//!
//! This crate provides the two comparators used by the experiment harness:
//!
//! * [`TrivialController`] — every request walks to the root and a permit
//!   walks back: `Θ(depth)` messages per request, the paper's `Ω(nM)` strawman;
//! * [`AapsController`] — a bin-hierarchy controller in the spirit of AAPS:
//!   permits are pre-positioned in bins whose level and size are determined by
//!   the node's depth, requests draw from the nearest level-0 bin, and empty
//!   bins replenish from their supervisor bin. It supports only the AAPS
//!   dynamic model (leaf insertions and non-topological events); requests for
//!   deletions or internal insertions are refused, which is exactly the
//!   limitation the paper's controller removes.
//!
//! Both baselines expose the same submission API and the same cost counters
//! (messages and permit moves) as the real controller so that experiment T4
//! can compare them row by row. Since the original AAPS implementation is not
//! publicly available, [`AapsController`] is a faithful-in-spirit
//! re-implementation calibrated to reproduce the *shape* of its complexity
//! (`O(N log² N · log(M/(W+1)))` messages on grow-only workloads), as recorded
//! in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod aaps;
mod trivial;

pub use aaps::AapsController;
pub use trivial::TrivialController;

pub use dcn_controller::{
    Controller, ControllerError, ControllerEvent, ControllerMetrics, Outcome, Progress, RequestId,
    RequestKind, RequestLedger, RequestRecord,
};
pub use dcn_tree::{DynamicTree, NodeId};

/// Error returned when a baseline is asked to perform an operation outside
/// the dynamic model it supports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsupportedOperation {
    /// The request kind that was refused.
    pub kind: RequestKind,
}

impl std::fmt::Display for UnsupportedOperation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the baseline controller does not support {:?} (grow-only dynamic model)",
            self.kind
        )
    }
}

impl std::error::Error for UnsupportedOperation {}
