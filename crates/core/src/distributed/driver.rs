//! Driver for the fixed-bound distributed controller: request submission,
//! execution and answer collection.

use super::agent::{CtrlAgent, RequestAgent};
use super::epoch::InnerController;
use super::protocol::{ControllerProtocol, PackageEvent};
use crate::api::{Controller, ControllerMetrics, Progress};
use crate::ledger::RequestLedger;
use crate::package::PermitInterval;
use crate::params::Params;
use crate::request::{check_request, RequestId, RequestKind, RequestRecord};
use crate::ControllerError;
use dcn_simnet::{DynamicTree, NodeId, SimConfig, Simulator};
use dcn_tree::ChangeLog;

/// The distributed (M, W)-Controller over a simulated asynchronous network,
/// for a known bound `U` on the number of nodes ever to exist (§4.3).
///
/// Requests are submitted with [`Controller::submit`] (each request creates a
/// mobile agent at its origin) and executed concurrently by
/// [`Controller::run_to_quiescence`] / [`Controller::step`]; answers are
/// available afterwards through [`Controller::records`] /
/// [`Controller::take_records`].
///
/// ```
/// use dcn_controller::distributed::DistributedController;
/// use dcn_controller::{Controller, RequestKind};
/// use dcn_simnet::SimConfig;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(15);
/// let mut ctrl = DistributedController::new(SimConfig::new(7), tree, 8, 4, 64)?;
/// let leaves: Vec<_> = ctrl.tree().nodes().skip(1).take(4).collect();
/// for leaf in leaves {
///     ctrl.submit(leaf, RequestKind::AddLeaf)?;
/// }
/// ctrl.run_to_quiescence()?;
/// assert_eq!(ctrl.granted(), 4);
/// assert!(ctrl.messages() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DistributedController {
    sim: Simulator<ControllerProtocol>,
    ledger: RequestLedger,
    m: u64,
    w: u64,
}

impl DistributedController {
    /// Creates a distributed (m, w)-controller over `tree` with node bound
    /// `u_bound`, running on a network with the given simulator configuration.
    ///
    /// # Errors
    ///
    /// Same parameter validation as
    /// [`CentralizedController::new`](crate::centralized::CentralizedController::new).
    pub fn new(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        u_bound: usize,
    ) -> Result<Self, ControllerError> {
        Self::with_interval(config, tree, m, w, u_bound, None)
    }

    /// Like [`DistributedController::new`], but the root's permits carry the
    /// serial numbers of `interval` (whose length must be `m`); every grant
    /// then reports which serial it consumed. Used by the name-assignment
    /// protocol.
    ///
    /// # Errors
    ///
    /// Same as [`DistributedController::new`].
    pub fn with_interval(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        u_bound: usize,
        interval: Option<PermitInterval>,
    ) -> Result<Self, ControllerError> {
        if u_bound < tree.node_count() {
            return Err(ControllerError::BoundTooSmall {
                u: u_bound,
                nodes: tree.node_count(),
            });
        }
        if let Some(iv) = interval {
            assert_eq!(iv.len(), m, "interval length must equal the budget M");
        }
        let params = Params::new(m, w, u_bound as u64)?;
        let protocol = ControllerProtocol::new(params, interval);
        let sim = Simulator::with_tree(config, protocol, tree);
        Ok(DistributedController {
            sim,
            ledger: RequestLedger::new(),
            m,
            w,
        })
    }

    /// Records the life-cycle of every deposited package from now on (see
    /// [`PackageEvent`]); intended for tests that audit the §3.2 domain
    /// invariants on a concurrent execution.
    pub fn with_package_log(mut self) -> Self {
        self.sim.protocol_mut().record_packages();
        self
    }

    /// Removes and returns the package events recorded since the last call
    /// (requires [`DistributedController::with_package_log`]).
    pub fn take_package_events(&mut self) -> Vec<PackageEvent> {
        self.sim.protocol_mut().take_package_events()
    }

    /// The controller parameters.
    pub fn params(&self) -> &Params {
        self.sim.protocol().params()
    }

    /// Total number of messages sent so far (agent hops plus auxiliary
    /// service messages).
    pub fn messages(&self) -> u64 {
        self.sim.metrics().total_messages()
    }

    /// The largest per-node whiteboard footprint, in bits, under the
    /// compressed representation of Claim 4.8.
    pub fn peak_node_memory_bits(&self) -> u64 {
        let params = *self.params();
        self.sim
            .whiteboards()
            .map(|(_, wb)| wb.store.memory_bits(&params))
            .max()
            .unwrap_or(0)
    }

    /// Number of permits not yet granted (root storage plus packages).
    pub fn uncommitted_permits(&self) -> u64 {
        let params = *self.params();
        self.sim
            .whiteboards()
            .map(|(_, wb)| wb.storage + wb.store.total_permits(&params))
            .sum()
    }

    /// Access to one node's whiteboard (used by the estimator applications).
    pub fn whiteboard(&self, node: NodeId) -> Option<&super::protocol::CtrlWhiteboard> {
        self.sim.whiteboard(node)
    }

    /// The underlying simulator (read-only): its clock and quiescence for
    /// the epoch shell, its locks and event counters for tests.
    pub fn sim(&self) -> &Simulator<ControllerProtocol> {
        &self.sim
    }

    /// Takes the changes the tree recorded so far (see
    /// [`DynamicTree::take_change_log`]).
    pub(crate) fn take_change_log(&mut self) -> ChangeLog {
        self.sim.take_change_log()
    }

    /// Like [`Controller::submit`], but the request arrives `delay` simulated
    /// time units in the future (used to spread workloads in time).
    ///
    /// # Errors
    ///
    /// Same as [`Controller::submit`].
    pub fn submit_after(
        &mut self,
        at: NodeId,
        kind: RequestKind,
        delay: u64,
    ) -> Result<RequestId, ControllerError> {
        check_request(self.sim.tree(), at, kind)?;
        let id = self.ledger.issue();
        let agent = CtrlAgent::Request(RequestAgent::new(id, kind, self.sim.time() + delay));
        self.sim.create_agent_delayed(at, agent, delay)?;
        Ok(id)
    }
}

impl Controller for DistributedController {
    fn name(&self) -> &'static str {
        "distributed"
    }

    fn budget(&self) -> u64 {
        self.m
    }

    fn waste_bound(&self) -> u64 {
        self.w
    }

    /// The request is handled once execution advances
    /// ([`Controller::run_to_quiescence`] / [`Controller::step`]).
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        self.submit_after(at, kind, 0)
    }

    /// One simulator slice ([`Simulator::run_events`]), so the configured
    /// `max_events` valve caps it: a `budget` of at most `max_events` never
    /// trips it, and [`Controller::run_to_quiescence`]'s unbounded slice
    /// fails on a livelock.
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        // run_events serves whole same-timestamp cohorts out of the
        // simulator's batch buffer, so the budget loop probes the event
        // queue once per cohort instead of once per event.
        let processed = self.sim.run_events(budget)?;
        for record in self.sim.drain_outputs() {
            self.ledger.push(record);
        }
        Ok(Progress {
            processed,
            quiescent: self.sim.is_quiescent(),
        })
    }

    fn take_records(&mut self) -> Vec<RequestRecord> {
        self.ledger.take_records()
    }

    fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    fn tree(&self) -> &DynamicTree {
        self.sim.tree()
    }

    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics {
            moves: self.sim.metrics().agent_hops,
            messages: self.messages(),
            peak_node_memory_bits: self.peak_node_memory_bits(),
        }
    }
}

impl InnerController for DistributedController {
    fn start(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        u_bound: usize,
        interval: Option<PermitInterval>,
    ) -> Result<Self, ControllerError> {
        Self::with_interval(config, tree, m, w, u_bound, interval)
    }

    fn uncommitted_permits(&self) -> u64 {
        DistributedController::uncommitted_permits(self)
    }

    fn into_tree(self) -> DynamicTree {
        self.sim.into_tree()
    }

    fn time(&self) -> u64 {
        self.sim.time()
    }

    fn messages(&self) -> u64 {
        DistributedController::messages(self)
    }

    fn missed_by_reject_wave(&self) -> u64 {
        self.sim
            .whiteboards()
            .filter(|(_, wb)| !wb.store.has_reject())
            .count() as u64
    }
}
