//! The iterated controllers of §3 as a policy of the epoch engine.
//!
//! Running the base `(M, W)`-controller directly costs
//! `O(U · (M/W) · log² U)` moves. Observation 3.4 halves the waste target
//! every round instead: start with an `(M, M/2)`-controller; whenever a round
//! is exhausted, count the `L` uncommitted permits, clear the data structure
//! and start an `(L, L/2)`-controller, until `L ≤ 2W`, when an `(L, W)`
//! round runs. That costs `O(U · log² U · log(M/(W+1)))` and serves `W = 0`:
//! its last permit is a `(1, 1)` round over cleared stores.
//!
//! Theorem 3.5 runs the same schedule in *epochs* when no bound on the number
//! of nodes is known: epoch `i` assumes `U_i = 2·N_i` and starts a fresh
//! halving schedule over the unspent budget when its [`RefreshPolicy`] says
//! so, giving `O(n₀ log² n₀ · log(M/(W+1)) + Σ_j log² n_j · log(M/(W+1)))`
//! moves after `U_i / 4` changes, or `O(N log² N · log(M/(W+1)))` (`N` the
//! most nodes ever alive at once) on size doubling.

use super::CentralizedController;
use crate::api::{Controller, ControllerMetrics, Progress};
use crate::distributed::{
    InnerController, IterationDriver, IterationPlan, IterationPolicy, Runtime,
};
use crate::request::{RequestId, RequestKind, RequestRecord};
use crate::ControllerError;
use dcn_simnet::SimConfig;
use dcn_tree::{DynamicTree, NodeId};

/// When an epoch of the adaptive schedule ends and the bound `U` is
/// re-estimated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshPolicy {
    /// End the epoch after `U_i / 4` topological changes (Theorem 3.5, part 1).
    ChangesQuarterU,
    /// End the epoch when the node count reaches twice the number of nodes
    /// alive when the epoch started (Theorem 3.5, part 2).
    SizeDoubling,
}

/// Observation 3.4's halving rounds, in Theorem 3.5's epochs when a
/// refresh policy is set.
#[derive(Debug)]
struct Schedule {
    m: u64,
    w: u64,
    /// Permits granted so far (all rounds), counted as they are absorbed.
    granted: u64,
    /// The node bound: the caller's `U`, or the running epoch's `U_i = 2·N_i`.
    u: u64,
    /// When an epoch ends; `None` under the caller's fixed `U`.
    refresh: Option<RefreshPolicy>,
    /// [`DynamicTree::changes`] when the running epoch began.
    epoch_start: u64,
    epochs: u32,
    /// `true` until the opening round of the run or of an epoch is planned.
    opening: bool,
    /// The running round is the final `(L, min(W, L))` one.
    last: bool,
}

impl Schedule {
    fn refresh_due(&self, tree: &DynamicTree) -> bool {
        match self.refresh {
            None => false,
            Some(RefreshPolicy::ChangesQuarterU) => {
                tree.changes() - self.epoch_start >= (self.u / 4).max(1)
            }
            Some(RefreshPolicy::SizeDoubling) => tree.node_count() as u64 >= self.u,
        }
    }
}

impl<C: InnerController> IterationPolicy<C> for Schedule {
    /// The unspent budget `L`: `(L, max(L/2, 1))` to open the run or an epoch
    /// (which re-reads `N` first), then `(L, L/2)` until `L ≤ 2W`, then
    /// `(L, min(W, L))`.
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan {
        if self.refresh_due(tree) {
            self.epochs += 1;
            self.u = (2 * tree.node_count() as u64).max(2);
            self.epoch_start = tree.changes();
            self.opening = true;
        }
        let budget = self.m - self.granted;
        self.last = !self.opening && budget <= 2 * self.w;
        self.opening = false;
        let waste = if self.last {
            self.w.min(budget)
        } else {
            budget / 2
        };
        IterationPlan {
            budget,
            waste: waste.max(1),
            interval: None,
            announce_messages: 0,
            u_bound: Some(self.u as usize),
        }
    }

    fn absorb(&mut self, _tree: &DynamicTree, records: &[RequestRecord]) {
        self.granted += records.len() as u64;
    }

    /// Final once the last round is exhausted — the base controller then
    /// leaves at most `min(W, L)` permits uncommitted, so `granted ≥ M − W` —
    /// or no permit is left; otherwise the round's permits are recycled.
    fn rejects_are_final(&self, iteration: &C) -> bool {
        self.last || iteration.uncommitted_permits() == 0
    }

    /// The wave that clears the packages, or re-initialises them for a new
    /// epoch: one move per node.
    fn closing_messages(&self, nodes: u64) -> u64 {
        nodes
    }

    fn ends_iteration(&self, iteration: &C) -> bool {
        self.refresh_due(iteration.tree())
    }
}

/// The iterated centralized `(M, W)`-controller (Observation 3.4), or with
/// [`IteratedController::adaptive`] the one for an unknown number of nodes
/// (Theorem 3.5): [`CentralizedController`] rounds run by the epoch engine.
/// Unlike the base controller it supports `W = 0`. It is synchronous: a
/// request is answered, and a granted change applied, before
/// [`Controller::submit`] returns.
///
/// ```
/// use dcn_controller::centralized::IteratedController;
/// use dcn_controller::{Controller, RequestKind};
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// // W = 0: exactly 5 permits must be granted before any reject.
/// let mut ctrl = IteratedController::new(DynamicTree::with_initial_star(15), 5, 0, 64)?;
/// let root = ctrl.tree().root();
/// for _ in 0..5 {
///     let ticket = ctrl.submit(root, RequestKind::NonTopological)?;
///     let answer = ctrl.records().last().unwrap();
///     assert!(answer.id == ticket && answer.outcome.is_granted());
/// }
/// let ticket = ctrl.submit(root, RequestKind::NonTopological)?;
/// let answer = ctrl.records().last().unwrap();
/// assert!(answer.id == ticket && !answer.outcome.is_granted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IteratedController {
    engine: IterationDriver<Schedule, CentralizedController>,
}

impl IteratedController {
    /// Creates an iterated `(m, w)`-controller over `tree` with node bound
    /// `u_bound`. `w = 0` is allowed.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::WasteExceedsBudget`] for `w > m`;
    /// * [`ControllerError::BoundTooSmall`] if `u_bound` is smaller than the
    ///   current number of nodes.
    pub fn new(tree: DynamicTree, m: u64, w: u64, u_bound: usize) -> Result<Self, ControllerError> {
        Self::with_schedule(tree, m, w, u_bound as u64, None)
    }

    /// Creates an adaptive `(m, w)`-controller over `tree`: no bound on the
    /// number of nodes is needed, and epochs end by `refresh`. `w = 0` is
    /// allowed.
    ///
    /// ```
    /// use dcn_controller::centralized::{IteratedController, RefreshPolicy};
    /// use dcn_controller::{Controller, RequestKind};
    /// use dcn_tree::DynamicTree;
    ///
    /// # fn main() -> Result<(), dcn_controller::ControllerError> {
    /// // No bound on the number of nodes: U is re-estimated every epoch.
    /// let tree = DynamicTree::with_initial_star(3);
    /// let mut ctrl = IteratedController::adaptive(tree, 100, 10, RefreshPolicy::ChangesQuarterU)?;
    /// for _ in 0..50 {
    ///     let leaf = ctrl.tree().nodes().last().unwrap();
    ///     ctrl.submit(leaf, RequestKind::AddLeaf)?;
    /// }
    /// assert!(ctrl.epochs() > 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::WasteExceedsBudget`] if `w > m`.
    pub fn adaptive(
        tree: DynamicTree,
        m: u64,
        w: u64,
        refresh: RefreshPolicy,
    ) -> Result<Self, ControllerError> {
        let u = 2 * tree.node_count() as u64;
        Self::with_schedule(tree, m, w, u, Some(refresh))
    }

    fn with_schedule(
        tree: DynamicTree,
        m: u64,
        w: u64,
        u: u64,
        refresh: Option<RefreshPolicy>,
    ) -> Result<Self, ControllerError> {
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        let schedule = Schedule {
            m,
            w,
            granted: 0,
            u,
            refresh,
            epoch_start: tree.changes(),
            epochs: 1,
            opening: true,
            last: false,
        };
        // A centralized round runs no simulator: the configuration is unused.
        let engine = IterationDriver::new(SimConfig::new(0), tree, schedule)?;
        Ok(IteratedController { engine })
    }

    /// Rounds started so far, each epoch's opening round included.
    pub fn iterations(&self) -> u32 {
        self.engine.iterations()
    }

    /// Epochs started so far (always 1 for a fixed bound `U`).
    pub fn epochs(&self) -> u32 {
        self.engine.policy().epochs
    }

    /// Returns `true` once the budget is spent up to the waste bound and
    /// every further request is rejected.
    pub fn is_exhausted(&self) -> bool {
        self.engine.is_spent()
    }
}

impl Controller for IteratedController {
    fn name(&self) -> &'static str {
        "iterated"
    }

    fn budget(&self) -> u64 {
        self.engine.policy().m
    }

    fn waste_bound(&self) -> u64 {
        self.engine.policy().w
    }

    /// Runs the engine to quiescence before it returns: the request is
    /// answered, and the next one sees the tree its grant left.
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        let id = self.engine.submit(at, kind)?;
        self.engine.run_to_quiescence()?;
        Ok(id)
    }

    fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
        Ok(())
    }

    fn step(&mut self, _budget: u64) -> Result<Progress, ControllerError> {
        Ok(Progress::quiescent())
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
