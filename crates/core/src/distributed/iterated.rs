//! The adaptive distributed controller: epochs for unknown `U` (Appendix A)
//! and within-epoch permit recycling (the distributed counterpart of
//! Observations 2.1 / 3.4 and Theorem 4.9), as a policy of the one epoch
//! engine, the [`IterationDriver`].
//!
//! Epoch `i` assumes `U_i = 2·N_i` where `N_i` is the number of nodes at the
//! start of the epoch, and every iteration carries the unspent budget
//! `M − granted`. An epoch is refreshed after `U_i / 4` topological changes;
//! inside an epoch, when an iteration rejects while more than `W` permits are
//! still parked in packages, the data structure is cleared, the permits
//! recycled (the halving trick) and the rejected requests retried in the
//! fresh iteration — the stop-instead-of-reject, retry-in-the-next-round
//! behaviour of the paper's terminating controller (Observation 2.1). Once at
//! most `W` permits are uncommitted the rejects are final. A quiescent point
//! rotates at most once: a recycle that is also due for a refresh
//! re-estimates `U` in that single rebuild.
//!
//! **Modelling note.** The paper detects epoch boundaries with a second
//! controller counting topological changes, and counts `N_{i+1}`, `Y_i` and
//! the unused permits with broadcast-and-upcast waves. This controller
//! performs that bookkeeping directly at the engine (root) level and charges
//! the corresponding wave cost — `4n` messages per rebuild — to the message
//! counter, which keeps the measured totals asymptotically faithful while
//! avoiding a second interleaved protocol instance. DESIGN.md records this
//! substitution.

use super::driver::DistributedController;
use super::epoch::{IterationDriver, IterationPlan, IterationPolicy, Runtime};
use crate::api::{Controller, ControllerMetrics, Progress};
use crate::request::{RequestId, RequestKind, RequestRecord};
use crate::verify::ExecutionSummary;
use crate::ControllerError;
use dcn_simnet::{DynamicTree, NodeId, SimConfig};

/// Theorem 4.9's choices over the epoch engine.
#[derive(Debug)]
struct AdaptivePolicy {
    m: u64,
    w: u64,
    /// Permits granted so far (all epochs), counted as they are absorbed.
    granted: u64,
    /// The running epoch's bound `U_i = 2·N_i`.
    epoch_u: u64,
    /// [`DynamicTree::changes`] when the running epoch began.
    epoch_start: u64,
    epochs: u32,
}

impl AdaptivePolicy {
    /// `true` once the running epoch has seen `U_i / 4` topological changes.
    fn refresh_due(&self, tree: &DynamicTree) -> bool {
        tree.changes() - self.epoch_start >= (self.epoch_u / 4).max(1)
    }
}

impl IterationPolicy for AdaptivePolicy {
    /// The unspent budget with the halving waste target `max(M_i/2, W)`,
    /// under `U = max(U_i, n)`; an epoch refresh first re-reads `N`.
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan {
        let n = tree.node_count();
        if self.refresh_due(tree) {
            self.epochs += 1;
            self.epoch_u = (2 * n as u64).max(2);
            self.epoch_start = tree.changes();
        }
        let budget = self.m.saturating_sub(self.granted);
        IterationPlan {
            budget,
            waste: (budget / 2).max(self.w).max(1),
            interval: None,
            announce_messages: 0,
            u_bound: Some((self.epoch_u as usize).max(n)),
        }
    }

    fn absorb(&mut self, _tree: &DynamicTree, records: &[RequestRecord]) {
        self.granted += records.len() as u64;
    }

    /// Truly exhausted once at most `W` permits are uncommitted (liveness
    /// holds: granted = M − uncommitted ≥ M − W); otherwise recycle.
    fn rejects_are_final(&self, iteration: &DistributedController) -> bool {
        iteration.uncommitted_permits() <= self.w
    }

    /// Counting / clearing waves at the boundary: broadcast + upcast to
    /// count the granted permits and the current size, plus the wave that
    /// clears the package data structure.
    fn closing_messages(&self, nodes: u64) -> u64 {
        4 * nodes
    }

    /// An iteration ends once it has rejected (nothing more is admitted: the
    /// rejects wait for the recycle, as they did in whole batches) or once
    /// the epoch is due for a refresh.
    fn ends_iteration(&self, iteration: &DistributedController) -> bool {
        Controller::rejected(iteration) > 0 || self.refresh_due(iteration.tree())
    }
}

/// The adaptive distributed (M, W)-Controller: no a-priori bound on the number
/// of nodes is needed (Theorem 4.9). A thin [`Controller`] over the
/// [`IterationDriver`]: epoch `i` assumes `U_i = 2·N_i`, and a reject
/// recycles the parked permits until at most `W` are uncommitted.
#[derive(Debug)]
pub struct AdaptiveDistributedController {
    engine: IterationDriver<AdaptivePolicy>,
}

impl AdaptiveDistributedController {
    /// Creates an adaptive distributed (m, w)-controller over `tree`.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::WasteExceedsBudget`] if `w > m`.
    pub fn new(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
    ) -> Result<Self, ControllerError> {
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        let policy = AdaptivePolicy {
            m,
            w,
            granted: 0,
            epoch_u: (2 * tree.node_count() as u64).max(2),
            epoch_start: tree.changes(),
            epochs: 1,
        };
        Ok(AdaptiveDistributedController {
            engine: IterationDriver::new(config, tree, policy)?,
        })
    }

    /// Total messages so far (all epochs, including the modelled waves).
    pub fn messages(&self) -> u64 {
        self.engine.messages()
    }

    /// Number of epochs started.
    pub fn epochs(&self) -> u32 {
        self.engine.policy().epochs
    }

    /// Number of within-epoch recycling rounds performed (every rebuild that
    /// was not an epoch refresh).
    pub fn recycles(&self) -> u32 {
        self.engine.iterations() - self.epochs()
    }

    /// Returns `true` once the whole budget has been spent (up to the waste
    /// bound) and the controller rejects every further request.
    pub fn is_exhausted(&self) -> bool {
        self.engine.is_spent()
    }

    /// A correctness summary over the whole execution.
    pub fn summary(&self) -> ExecutionSummary {
        ExecutionSummary {
            m: self.budget(),
            w: self.waste_bound(),
            granted: self.granted(),
            rejected: self.rejected(),
            unanswered: self
                .engine
                .submitted()
                .saturating_sub(self.granted() + self.rejected()),
        }
    }
}

impl Controller for AdaptiveDistributedController {
    fn name(&self) -> &'static str {
        "adaptive-distributed"
    }

    fn budget(&self) -> u64 {
        self.engine.policy().m
    }

    fn waste_bound(&self) -> u64 {
        self.engine.policy().w
    }

    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        self.engine.submit(at, kind)
    }

    fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
        self.engine.run_to_quiescence()
    }

    /// A slice never spans a rebuild: it ends (not quiescent) right after a
    /// recycle or an epoch refresh, before any retried request runs.
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        self.engine.step(budget)
    }

    fn take_records(&mut self) -> Vec<RequestRecord> {
        self.engine.take_records()
    }

    fn records(&self) -> &[RequestRecord] {
        self.engine.records()
    }

    fn granted(&self) -> u64 {
        self.engine.policy().granted
    }

    fn rejected(&self) -> u64 {
        self.engine.rejected()
    }

    fn tree(&self) -> &DynamicTree {
        self.engine.tree()
    }

    fn metrics(&self) -> ControllerMetrics {
        self.engine.metrics()
    }
}
