//! The fixed-bound centralized (M, W)-Controller (§3.1).

use crate::api::{ControllerMetrics, SyncController};
use crate::distributed::InnerController;
use crate::domain::DomainAuditor;
use crate::ledger::RequestLedger;
use crate::package::{MobilePackage, PackageStore, PermitInterval};
use crate::params::Params;
use crate::request::{check_request, Outcome, RequestId, RequestKind};
use crate::ControllerError;
use dcn_collections::FxHashMap;
use dcn_simnet::SimConfig;
use dcn_tree::{DynamicTree, NodeId};

/// The centralized (M, W)-Controller for a known bound `U` on the number of
/// nodes ever to exist (§3.1).
///
/// The controller owns the spanning tree: granted topological requests are
/// applied to it immediately (the centralized setting is sequential), which is
/// exactly the paper's controlled dynamic model.
///
/// ```
/// use dcn_controller::centralized::CentralizedController;
/// use dcn_controller::{Controller, RequestKind};
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_path(10);
/// let mut ctrl = CentralizedController::new(tree, 20, 4, 64)?;
/// let deep = ctrl.tree().nodes().last().unwrap();
/// let ticket = ctrl.submit(deep, RequestKind::AddLeaf)?;
/// assert_eq!(ctrl.records()[0].id, ticket);
/// assert!(ctrl.records()[0].outcome.is_granted());
/// assert!(ctrl.moves() > 0); // permits travelled from the root
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CentralizedController {
    params: Params,
    tree: DynamicTree,
    stores: FxHashMap<NodeId, PackageStore>,
    storage: u64,
    storage_interval: Option<PermitInterval>,
    moves: u64,
    next_package_id: u64,
    reject_wave_done: bool,
    auditor: Option<DomainAuditor>,
    /// Ticket/event/record bookkeeping for submissions through the
    /// [`Controller`](crate::Controller) trait and the epoch engine.
    ledger: RequestLedger,
}

impl CentralizedController {
    /// Creates a controller over `tree` with permit budget `m`, waste bound
    /// `w ≥ 1` and an upper bound `u_bound` on the number of nodes ever to
    /// exist (current nodes plus all future insertions).
    ///
    /// # Errors
    ///
    /// * [`ControllerError::ZeroWasteUnsupported`] for `w = 0` (the halving
    ///   schedule of [`IteratedController`](crate::centralized::IteratedController)
    ///   supports it);
    /// * [`ControllerError::WasteExceedsBudget`] for `w > m`;
    /// * [`ControllerError::BoundTooSmall`] if `u_bound` is smaller than the
    ///   current number of nodes.
    pub fn new(tree: DynamicTree, m: u64, w: u64, u_bound: usize) -> Result<Self, ControllerError> {
        if u_bound < tree.node_count() {
            return Err(ControllerError::BoundTooSmall {
                u: u_bound,
                nodes: tree.node_count(),
            });
        }
        let params = Params::new(m, w, u_bound as u64)?;
        Ok(CentralizedController {
            params,
            tree,
            stores: FxHashMap::default(),
            storage: m,
            storage_interval: None,
            moves: 0,
            next_package_id: 0,
            reject_wave_done: false,
            auditor: None,
            ledger: RequestLedger::new(),
        })
    }

    /// Enables the domain auditor (§3.2 invariants); intended for tests and
    /// debugging, it does not change the controller's behaviour.
    pub fn with_auditor(mut self) -> Self {
        self.auditor = Some(DomainAuditor::new());
        self
    }

    /// Puts the controller in *interval mode*: the root's permits become the
    /// serial numbers `[interval.lo, interval.hi]` (the interval length must
    /// equal the remaining budget) and every grant reports the serial it
    /// consumed. Used by the name-assignment protocol (§5.2).
    pub fn set_storage_interval(&mut self, interval: PermitInterval) {
        assert_eq!(
            interval.len(),
            self.storage,
            "interval length must equal the number of permits in storage"
        );
        self.storage_interval = Some(interval);
    }

    /// The controller parameters (including the derived `φ` and `ψ`).
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Move complexity accumulated so far (the paper's cost measure for the
    /// centralized setting).
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Number of permits that are not yet granted: the root's storage plus
    /// everything currently sitting in packages.
    pub fn uncommitted_permits(&self) -> u64 {
        self.storage
            + self
                .stores
                .values()
                .map(|s| s.total_permits(&self.params))
                .sum::<u64>()
    }

    /// Number of permits sitting in packages (excluding the root's storage):
    /// the quantity the liveness analysis bounds by `W`.
    pub fn permits_in_packages(&self) -> u64 {
        self.stores
            .values()
            .map(|s| s.total_permits(&self.params))
            .sum()
    }

    /// The largest per-node package-store footprint, in bits, under the
    /// compressed representation of Claim 4.8 (the root's storage counter is
    /// included as `O(log M)` bits).
    pub fn peak_node_memory_bits(&self) -> u64 {
        let storage_bits = 64 - self.storage.max(1).leading_zeros() as u64;
        self.stores
            .values()
            .map(|s| s.memory_bits(&self.params))
            .max()
            .unwrap_or(0)
            .max(storage_bits)
    }

    /// The domain auditor, when enabled with [`CentralizedController::with_auditor`].
    pub fn auditor(&self) -> Option<&DomainAuditor> {
        self.auditor.as_ref()
    }

    /// Checks the domain invariants of §3.2 (requires the auditor).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant, or an error if the
    /// auditor is not enabled.
    pub fn check_domain_invariants(&self) -> Result<(), String> {
        let Some(aud) = &self.auditor else {
            return Err("domain auditor not enabled".to_string());
        };
        let host_of = |pkg: u64| -> Option<NodeId> {
            self.stores
                .iter()
                .find(|(_, s)| s.mobiles().iter().any(|p| p.id == pkg))
                .map(|(n, _)| *n)
        };
        aud.check_invariants(&self.tree, &self.params, host_of)
    }

    /// Serves a request without a reject wave: `None`, a reject, when the
    /// root's storage cannot supply the package the request needs (the
    /// exhausted round the epoch engine recycles). A node that holds a
    /// reject package answers [`Outcome::Rejected`] at once.
    ///
    /// # Errors
    ///
    /// Same as [`SyncController::decide`] on this controller.
    fn try_submit(
        &mut self,
        at: NodeId,
        kind: RequestKind,
    ) -> Result<Option<Outcome>, ControllerError> {
        check_request(&self.tree, at, kind)?;
        // Item 1: a reject package at the node answers the request at once.
        if self.stores.get(&at).is_some_and(PackageStore::has_reject) {
            return Ok(Some(Outcome::Rejected));
        }
        // Item 2: a static package at the node grants immediately.
        if let Some(serial) = self.store_mut(at).grant_static() {
            let new_node = self.apply_granted_event(at, kind)?;
            return Ok(Some(Outcome::Granted { serial, new_node }));
        }
        // Item 3: look for the closest filler node on the way to the root.
        let (package, host, host_dist) = match self.take_filler(at) {
            Some((pkg, host, host_dist)) => {
                if let Some(aud) = &mut self.auditor {
                    aud.package_consumed(pkg.id);
                }
                (pkg, host, host_dist)
            }
            None => {
                // Item 3b: no filler up to the root; create a package there if
                // the storage suffices.
                let root = self.tree.root();
                let dist = self.tree.depth(at) as u64;
                let level = self.params.root_level_for_distance(dist);
                let size = self.params.mobile_size(level);
                if self.storage < size {
                    return Ok(None);
                }
                self.storage -= size;
                let interval = self.carve_interval(size);
                let pkg = MobilePackage {
                    id: self.fresh_package_id(),
                    level,
                    interval,
                };
                (pkg, root, dist)
            }
        };
        // Item 4: distribute the package contents along the path towards `at`.
        let serial = self.distribute(package, host, host_dist, at);
        let new_node = self.apply_granted_event(at, kind)?;
        Ok(Some(Outcome::Granted { serial, new_node }))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn store_mut(&mut self, node: NodeId) -> &mut PackageStore {
        self.stores.entry(node).or_default()
    }

    fn fresh_package_id(&mut self) -> u64 {
        let id = self.next_package_id;
        self.next_package_id += 1;
        id
    }

    fn carve_interval(&mut self, size: u64) -> Option<PermitInterval> {
        let storage_iv = self.storage_interval?;
        let (taken, rest) = storage_iv.split_off(size);
        self.storage_interval = rest;
        Some(taken)
    }

    /// Finds the closest ancestor of `at` (possibly `at` itself) that is a
    /// filler node with respect to `at` and takes its filler package; returns
    /// `(package, host, distance)`.
    fn take_filler(&mut self, at: NodeId) -> Option<(MobilePackage, NodeId, u64)> {
        for (dist, node) in self.tree.ancestors(at).enumerate() {
            let dist = dist as u64;
            if let Some(store) = self.stores.get_mut(&node) {
                if let Some(pkg) = store.take_filler(dist, &self.params) {
                    return Some((pkg, node, dist));
                }
            }
        }
        None
    }

    /// The recursive distribution `Proc` (§3.1, item 4): carries `package`
    /// from `host` (an ancestor of `at` at distance `host_dist`) down towards
    /// `at`, depositing a package of level `k − 1` at the ancestor `u_{k−1}`
    /// (distance `3·2^{k−2}ψ` from `at`) for every level on the way, until a
    /// level-0 package reaches `at`, becomes static, and grants one permit.
    fn distribute(
        &mut self,
        package: MobilePackage,
        _host: NodeId,
        host_dist: u64,
        at: NodeId,
    ) -> Option<u64> {
        let mut current = package;
        let mut current_dist = host_dist;
        loop {
            if current.level == 0 {
                // Move to `at` and become static, then grant one permit.
                self.moves += current_dist;
                let size = self.params.mobile_size(0);
                return self.store_mut(at).settle_and_grant(size, current.interval);
            }
            let k = current.level;
            let target_dist = self.params.deposit_distance(k - 1);
            debug_assert!(target_dist < current_dist);
            #[expect(
                clippy::expect_used,
                reason = "target_dist < current_dist <= depth(at), so the ancestor exists"
            )]
            let target = self
                .tree
                .ancestor_at_distance(at, target_dist as usize)
                .expect("deposit point lies on the path between the request and the host");
            self.moves += current_dist - target_dist;
            let (stay, carry) = current.split(self.fresh_package_id(), self.fresh_package_id());
            if let Some(aud) = &mut self.auditor {
                let path: Vec<NodeId> = self
                    .tree
                    .ancestors(at)
                    .take(target_dist as usize + 1)
                    .collect();
                aud.package_deposited(stay.id, stay.level, target, &path, &self.params);
            }
            self.store_mut(target).add_mobile(stay);
            current = carry;
            current_dist = target_dist;
        }
    }

    /// Applies the event a granted request asked for (the controlled dynamic
    /// model: the change happens only once the permit is delivered).
    fn apply_granted_event(
        &mut self,
        at: NodeId,
        kind: RequestKind,
    ) -> Result<Option<NodeId>, ControllerError> {
        match kind {
            RequestKind::NonTopological => Ok(None),
            RequestKind::AddLeaf => {
                let new = self.tree.add_leaf(at)?;
                Ok(Some(new))
            }
            RequestKind::AddInternalAbove(child) => {
                let new = self.tree.add_internal_above(child)?;
                if let Some(aud) = &mut self.auditor {
                    aud.on_add_internal(new, child, &self.tree);
                }
                Ok(Some(new))
            }
            RequestKind::RemoveSelf => {
                // Packages stored at the removed node move to its parent.
                let Some(parent) = self.tree.parent(at) else {
                    return Err(ControllerError::CannotRemoveRoot);
                };
                if let Some(removed_store) = self.stores.remove(&at) {
                    if !removed_store.is_empty() {
                        self.moves += 1;
                        if let Some(aud) = &mut self.auditor {
                            for pkg in removed_store.mobiles() {
                                aud.package_rehosted(pkg.id, parent);
                            }
                        }
                        self.store_mut(parent).merge(removed_store);
                    }
                }
                self.tree.remove(at)?;
                Ok(None)
            }
        }
    }

    /// Places a reject package at every node (simulated centrally, counted as
    /// one move per delivered package, i.e. `n − 1` moves), once.
    fn broadcast_reject_wave(&mut self) {
        if self.reject_wave_done {
            return;
        }
        self.reject_wave_done = true;
        let nodes: Vec<NodeId> = self.tree.nodes().collect();
        self.moves += nodes.len().saturating_sub(1) as u64;
        for node in nodes {
            self.store_mut(node).place_reject();
        }
    }
}

impl SyncController for CentralizedController {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn budget(&self) -> u64 {
        self.params.m
    }

    fn waste_bound(&self) -> u64 {
        self.params.w
    }

    /// Rejected requests trigger the reject-wave (a reject package is
    /// delivered to every node, counted in the move complexity), after which
    /// every subsequent request is rejected locally.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::UnknownNode`] if `at` does not exist;
    /// * [`ControllerError::NotParentOf`] for a malformed
    ///   [`RequestKind::AddInternalAbove`];
    /// * [`ControllerError::CannotRemoveRoot`] for a
    ///   [`RequestKind::RemoveSelf`] at the root.
    fn decide(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError> {
        match self.try_submit(at, kind)? {
            Some(outcome) => Ok(outcome),
            None => {
                self.broadcast_reject_wave();
                Ok(Outcome::Rejected)
            }
        }
    }

    fn tree(&self) -> &DynamicTree {
        &self.tree
    }

    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics {
            moves: self.moves,
            messages: self.moves,
            peak_node_memory_bits: self.peak_node_memory_bits(),
        }
    }

    fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut RequestLedger {
        &mut self.ledger
    }
}

/// A controller that is always quiescent: it answers inside `submit`, and its
/// clock stands still (the engine stamps its answers at the synchronous clock).
impl InnerController for CentralizedController {
    const CENTRALIZED: bool = true;

    fn start(
        _config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        u_bound: usize,
        interval: Option<PermitInterval>,
    ) -> Result<Self, ControllerError> {
        let mut ctrl = CentralizedController::new(tree, m, w, u_bound)?;
        if let Some(interval) = interval {
            ctrl.set_storage_interval(interval);
        }
        Ok(ctrl)
    }

    /// An exhausted round answers with a reject and broadcasts no reject
    /// wave: whether the reject is final is the engine's call.
    fn enter(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        let outcome = self.try_submit(at, kind)?.unwrap_or(Outcome::Rejected);
        let id = self.ledger.issue();
        self.ledger.record(id, at, kind, outcome);
        Ok(id)
    }

    fn uncommitted_permits(&self) -> u64 {
        CentralizedController::uncommitted_permits(self)
    }

    fn into_tree(self) -> DynamicTree {
        self.tree
    }

    fn time(&self) -> u64 {
        0
    }

    fn messages(&self) -> u64 {
        self.moves
    }

    fn broadcast_reject(&mut self) {
        self.broadcast_reject_wave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Controller;

    /// The engine reads a round's `rejected()` to close it, so a round
    /// counts the rejects it answers through `enter` too, not only through
    /// `decide`.
    #[test]
    fn a_round_entered_past_its_budget_counts_its_rejects() {
        let mut round = CentralizedController::start(
            SimConfig::new(0),
            DynamicTree::with_initial_star(7),
            3,
            1,
            16,
            None,
        )
        .unwrap();
        let root = Controller::tree(&round).root();
        for _ in 0..8 {
            round.enter(root, RequestKind::NonTopological).unwrap();
        }
        let rejects = Controller::records(&round)
            .iter()
            .filter(|r| r.outcome == Outcome::Rejected)
            .count() as u64;
        assert!(
            rejects > 0,
            "a round of 3 permits rejects some of 8 requests"
        );
        assert_eq!(Controller::rejected(&round), rejects);
        assert_eq!(Controller::granted(&round) + rejects, 8);
    }
}
