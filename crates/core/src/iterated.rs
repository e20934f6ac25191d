//! The iterated controllers as the one policy of the epoch engine, over
//! either inner controller: the centralized one of §3
//! ([`IteratedController`]) or the distributed one of §4
//! ([`AdaptiveDistributedController`]).
//!
//! Running the base `(M, W)`-controller directly costs
//! `O(U · (M/W) · log² U)` moves. Observation 3.4 halves the waste target
//! every round instead: a round over the `L` uncommitted permits is an
//! `(L, max(L/2, W))`-controller — `L/2` while `L > 2W`, then `W`. When a
//! round rejects while more than `W` permits are uncommitted, the data
//! structure is cleared, the permits recycled and the rejected requests
//! retried in a fresh round; once at most `W` are uncommitted the rejects are
//! final, so `granted ≥ M − W`. That costs `O(U · log² U · log(M/(W+1)))` and
//! serves `W = 0`: its last permits come from `(L, 1)` rounds over cleared
//! stores.
//!
//! Theorem 3.5 runs the same schedule in *epochs* when no bound on the number
//! of nodes is known: epoch `i` assumes `U_i = 2·N_i` and starts a fresh
//! halving schedule over the unspent budget when its [`RefreshPolicy`] says
//! so, giving `O(n₀ log² n₀ · log(M/(W+1)) + Σ_j log² n_j · log(M/(W+1)))`
//! moves after `U_i / 4` changes, or `O(N log² N · log(M/(W+1)))` (`N` the
//! most nodes ever alive at once) on size doubling. Theorem 4.9 is that
//! schedule over the distributed controller, with epochs of `U_i / 4`
//! changes. A quiescent point rotates at most once: a recycle that is also
//! due for a refresh re-estimates `U` in that single rebuild.

use crate::api::{Controller, ControllerMetrics, Progress};
use crate::centralized::CentralizedController;
use crate::distributed::{
    DistributedController, InnerController, IterationDriver, IterationPlan, IterationPolicy,
};
use crate::ledger::RequestLedger;
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
    /// Permits granted so far (all rounds), counted as they are absorbed:
    /// `plan` sees the tree, not the engine's ledger, and the unspent budget
    /// is its arithmetic.
    granted: u64,
    /// The node bound: the caller's `U`, or the running epoch's `U_i = 2·N_i`.
    u: u64,
    /// When an epoch ends; `None` under the caller's fixed `U`.
    refresh: Option<RefreshPolicy>,
    /// [`DynamicTree::changes`] when the running epoch began.
    epoch_start: u64,
    epochs: u32,
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
    /// The unspent budget `L` with the waste target `max(L/2, W)`; an epoch
    /// refresh first re-reads `N`. An epoch that is not due holds fewer than
    /// `U_i` nodes, so `U_i` bounds the round.
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan {
        if self.refresh_due(tree) {
            self.epochs += 1;
            self.u = (2 * tree.node_count() as u64).max(2);
            self.epoch_start = tree.changes();
        }
        let budget = self.m - self.granted;
        IterationPlan {
            budget,
            waste: (budget / 2).max(self.w).max(1),
            interval: None,
            announce_messages: 0,
            u_bound: Some(self.u as usize),
        }
    }

    fn absorb(&mut self, _tree: &DynamicTree, records: &[RequestRecord]) {
        self.granted += records.len() as u64;
    }

    /// Final once at most `W` permits are uncommitted (liveness holds:
    /// `granted = M − uncommitted ≥ M − W`); otherwise the round's permits
    /// are recycled.
    fn rejects_are_final(&self, iteration: &C) -> bool {
        iteration.uncommitted_permits() <= self.w
    }

    /// The wave that clears the packages, or re-initialises them for a new
    /// epoch: one move per node in the centralized model.
    ///
    /// **Modelling note.** The paper's distributed controller detects epoch
    /// boundaries with a second controller counting topological changes, and
    /// counts `N_{i+1}`, `Y_i` and the unused permits with
    /// broadcast-and-upcast waves. The engine does that bookkeeping directly
    /// at the root and charges the waves' cost — broadcast + upcast to count
    /// the granted permits and the size, plus the clearing wave: `4n`
    /// messages per rebuild — which keeps the measured totals asymptotically
    /// faithful without a second interleaved protocol instance. DESIGN.md
    /// records this substitution.
    fn closing_messages(&self, nodes: u64, _missed: u64) -> u64 {
        if C::CENTRALIZED {
            nodes
        } else {
            4 * nodes
        }
    }

    /// A round ends once its epoch is due for a refresh (and, like every
    /// iteration, once it has rejected).
    fn ends_iteration(&self, iteration: &C) -> bool {
        self.refresh_due(iteration.tree())
    }
}

/// The iterated `(M, W)`-controller over inner controller `C`: its rounds
/// are `C` controllers run by the epoch engine under Observation 3.4's
/// halving schedule, in Theorem 3.5's epochs when `U` is unknown. It
/// supports `W = 0`. Build it through its two aliases.
#[derive(Debug)]
pub struct Iterated<C> {
    engine: IterationDriver<Schedule, C>,
}

/// The iterated centralized `(M, W)`-controller (Observation 3.4), or with
/// [`IteratedController::adaptive`] the one for an unknown number of nodes
/// (Theorem 3.5): [`CentralizedController`] rounds run by the epoch engine.
/// It is synchronous: a request is answered, and a granted change applied,
/// before [`Controller::submit`] returns.
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
pub type IteratedController = Iterated<CentralizedController>;

/// The adaptive distributed `(M, W)`-controller (Theorem 4.9 / Appendix A):
/// [`DistributedController`] rounds run by the epoch engine, with no
/// a-priori bound on the number of nodes. Epoch `i` assumes `U_i = 2·N_i`
/// and ends after `U_i / 4` changes, and a reject recycles the parked permits
/// until at most `W` are uncommitted. It is stepped in bounded slices: a
/// slice never spans a rebuild, it ends (not quiescent) right after a
/// recycle or an epoch refresh, before any retried request runs.
pub type AdaptiveDistributedController = Iterated<DistributedController>;

impl Iterated<CentralizedController> {
    /// Creates an iterated `(m, w)`-controller over `tree` with node bound
    /// `u_bound`. `w = 0` is allowed.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::WasteExceedsBudget`] for `w > m`;
    /// * [`ControllerError::BoundTooSmall`] if `u_bound` is smaller than the
    ///   current number of nodes.
    pub fn new(tree: DynamicTree, m: u64, w: u64, u_bound: usize) -> Result<Self, ControllerError> {
        // A centralized round runs no simulator: the configuration is unused.
        Self::with_schedule(SimConfig::new(0), tree, m, w, u_bound as u64, None)
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
        Self::unbounded(SimConfig::new(0), tree, m, w, refresh)
    }
}

impl Iterated<DistributedController> {
    /// Creates an adaptive distributed `(m, w)`-controller over `tree`.
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
        Self::unbounded(config, tree, m, w, RefreshPolicy::ChangesQuarterU)
    }
}

impl<C: InnerController> Iterated<C> {
    /// The schedule for an unknown number of nodes: the first epoch assumes
    /// `U = 2·N`.
    fn unbounded(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        refresh: RefreshPolicy,
    ) -> Result<Self, ControllerError> {
        let u = (2 * tree.node_count() as u64).max(2);
        Self::with_schedule(config, tree, m, w, u, Some(refresh))
    }

    fn with_schedule(
        config: SimConfig,
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
        };
        let engine = IterationDriver::new(config, tree, schedule)?;
        Ok(Iterated { engine })
    }

    /// Epochs started so far (always 1 for a fixed bound `U`).
    pub fn epochs(&self) -> u32 {
        self.engine.policy().epochs
    }

    /// Recycling rounds performed: every rebuild that was not an epoch
    /// refresh.
    pub fn recycles(&self) -> u32 {
        self.iterations() - self.epochs()
    }

    /// Returns `true` once the budget is spent up to the waste bound and
    /// every further request is rejected.
    pub fn is_exhausted(&self) -> bool {
        self.engine.is_spent()
    }

    /// Total messages so far (all rounds, including the charged waves).
    pub fn messages(&self) -> u64 {
        self.engine.messages()
    }
}

impl<C: InnerController> Controller for Iterated<C> {
    fn name(&self) -> &'static str {
        if C::CENTRALIZED {
            "iterated"
        } else {
            "adaptive-distributed"
        }
    }

    fn budget(&self) -> u64 {
        self.engine.policy().m
    }

    fn waste_bound(&self) -> u64 {
        self.engine.policy().w
    }

    /// Over centralized rounds, runs the engine to quiescence before it
    /// returns: the request is answered, and the next one sees the tree its
    /// grant left.
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        let id = self.engine.submit(at, kind)?;
        if C::CENTRALIZED {
            Controller::run_to_quiescence(self)?;
        }
        Ok(id)
    }

    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        self.engine.step(budget)
    }

    fn take_records(&mut self) -> Vec<RequestRecord> {
        self.engine.take_records()
    }

    fn ledger(&self) -> &RequestLedger {
        self.engine.ledger()
    }

    fn tree(&self) -> &DynamicTree {
        self.engine.tree()
    }

    fn metrics(&self) -> ControllerMetrics {
        self.engine.metrics()
    }

    /// Rounds started so far, each epoch's opening round included.
    fn iterations(&self) -> u32 {
        self.engine.iterations()
    }
}
