//! A bin-hierarchy controller in the spirit of Afek–Awerbuch–Plotkin–Saks.
//!
//! The AAPS controller pre-positions permits in *bins*. Each bin's level and
//! size are determined by the exact depth of its node: a node at depth `d`
//! hosts a bin of level `i` exactly when `2^i` divides `d` (the root hosts a
//! bin of every level). A request draws a permit from the closest level-0 bin
//! on its path to the root; an empty bin refills from its *supervisor* — the
//! level-`(i+1)` bin at the nearest ancestor whose depth is a multiple of
//! `2^{i+1}` — and supervisors refill recursively, ultimately from the root's
//! storage.
//!
//! Because bin levels are tied to exact depths, the structure only survives
//! topological changes that do not alter any existing node's depth: leaf
//! insertions (and non-topological events). That is precisely the restriction
//! of the AAPS dynamic model which the paper's controller lifts; requests for
//! deletions or internal insertions are refused with
//! [`ControllerError::Sim`]-free, explicit errors so experiment T4 can report
//! them.

use dcn_collections::FxHashMap;
use dcn_controller::{
    ControllerError, ControllerMetrics, Outcome, RequestKind, RequestLedger, SyncController,
};
use dcn_tree::{DynamicTree, NodeId};

/// Key of a bin: the node hosting it and its level.
type BinKey = (NodeId, u32);

/// A bin-hierarchy (M, W)-Controller supporting only the grow-only dynamic
/// model (leaf insertions and non-topological events).
///
/// ```
/// use dcn_baseline::AapsController;
/// use dcn_controller::{Controller, Outcome, RequestKind};
/// use dcn_tree::DynamicTree;
///
/// let tree = DynamicTree::with_initial_path(8);
/// let mut ctrl = AapsController::new(tree, 16, 8, 64).unwrap();
/// let leaf = ctrl.tree().nodes().last().unwrap();
/// let ticket = ctrl.submit(leaf, RequestKind::AddLeaf).unwrap();
/// assert_eq!(ctrl.records()[0].id, ticket);
/// assert!(ctrl.records()[0].outcome.is_granted());
/// // Outside the grow-only model: a refusal ticket, not an error.
/// ctrl.submit(leaf, RequestKind::RemoveSelf).unwrap();
/// assert_eq!(ctrl.records()[1].outcome, Outcome::Refused);
/// ```
#[derive(Debug)]
pub struct AapsController {
    tree: DynamicTree,
    /// Permit granularity (same definition as the paper's φ so the comparison
    /// is apples-to-apples).
    phi: u64,
    /// Number of bin levels.
    levels: u32,
    /// Current contents of each bin. Keyed by the composite `(host, level)`
    /// pair, so a hash table is the right shape — but with the in-tree fast
    /// hasher, not SipHash, since every request walk probes it.
    bins: FxHashMap<BinKey, u64>,
    /// Permits still in the root's storage.
    storage: u64,
    m: u64,
    w: u64,
    messages: u64,
    moves: u64,
    ledger: RequestLedger,
}

impl AapsController {
    /// Creates a bin-hierarchy controller with budget `m`, waste bound `w` and
    /// node bound `u_bound` over `tree`.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::WasteExceedsBudget`] if `w > m`;
    /// * [`ControllerError::BoundTooSmall`] if `u_bound` is below the current
    ///   node count.
    pub fn new(tree: DynamicTree, m: u64, w: u64, u_bound: usize) -> Result<Self, ControllerError> {
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        if u_bound < tree.node_count() {
            return Err(ControllerError::BoundTooSmall {
                u: u_bound,
                nodes: tree.node_count(),
            });
        }
        let u = u_bound as u64;
        let phi = (w / (2 * u)).max(1);
        let levels = 64 - u.leading_zeros() + 1;
        Ok(AapsController {
            tree,
            phi,
            levels,
            bins: FxHashMap::default(),
            storage: m,
            m,
            w,
            messages: 0,
            moves: 0,
            ledger: RequestLedger::new(),
        })
    }

    /// Messages sent so far (request walks plus permit-package moves).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Move complexity so far (permit-package moves only).
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Capacity of a level-`i` bin.
    fn capacity(&self, level: u32) -> u64 {
        self.phi.saturating_mul(1u64 << level.min(63))
    }

    /// Returns `true` if a node at depth `depth` hosts a bin of `level`.
    fn hosts_bin(depth: usize, level: u32) -> bool {
        if level >= 63 {
            return depth == 0;
        }
        depth % (1usize << level) == 0
    }

    /// The nearest ancestor of `node` (possibly itself) hosting a bin of
    /// `level`, together with its hop distance.
    fn nearest_bin_host(&self, node: NodeId, level: u32) -> (NodeId, u64) {
        let mut dist = 0u64;
        for anc in self.tree.ancestors(node) {
            if Self::hosts_bin(self.tree.depth(anc), level) {
                return (anc, dist);
            }
            dist += 1;
        }
        (self.tree.root(), dist)
    }

    /// End-game recall: when the root's storage and the entire supervisor
    /// chain above a requester are dry, permits may still be stranded in
    /// bins elsewhere in the hierarchy. Rejecting in that state violates
    /// liveness as soon as more than `W` permits are stranded, so the
    /// controller recalls one permit from the nearest non-empty bin (paying
    /// the full donor-to-requester detour in messages and moves — this is
    /// exactly the expensive path the paper's controller avoids). Returns
    /// `false` only when every bin is empty.
    fn recall_permit(&mut self, to: NodeId) -> bool {
        // Deterministic donor choice (shallowest first, ties by id/level):
        // the order key is unique per bin, so HashMap iteration order never
        // leaks into the execution.
        let tree = &self.tree;
        let Some((&(node, _), count)) = self
            .bins
            .iter_mut()
            .filter(|(_, count)| **count > 0)
            .min_by_key(|(&(node, level), _)| (tree.depth(node), node.index(), level))
        else {
            return false;
        };
        *count -= 1;
        let cost = (self.tree.depth(node) + self.tree.depth(to)) as u64;
        self.moves += cost;
        self.messages += cost;
        *self.bins.entry((to, 0)).or_insert(0) += 1;
        true
    }

    /// Ensures the given bin holds at least one permit, refilling it (and its
    /// supervisors) recursively from the root's storage. Returns `false` when
    /// even the root is out of permits.
    fn refill(&mut self, host: NodeId, level: u32) -> bool {
        let key = (host, level);
        if self.bins.get(&key).copied().unwrap_or(0) > 0 {
            return true;
        }
        let want = self.capacity(level);
        // The supervisor is the nearest ancestor (strictly closer to the root
        // unless `host` itself qualifies) hosting a level-(i+1) bin; the root's
        // storage backs the top level.
        if level + 1 >= self.levels || host == self.tree.root() {
            let take = want.min(self.storage);
            if take == 0 {
                return false;
            }
            self.storage -= take;
            let dist = self.tree.depth(host) as u64;
            self.moves += dist;
            self.messages += dist;
            *self.bins.entry(key).or_insert(0) += take;
            return true;
        }
        let (sup_host, sup_dist) = self.nearest_bin_host(host, level + 1);
        if !self.refill(sup_host, level + 1) {
            return false;
        }
        let Some(available) = self.bins.get_mut(&(sup_host, level + 1)) else {
            return false;
        };
        let take = want.min(*available);
        if take == 0 {
            return false;
        }
        *available -= take;
        *self.bins.entry(key).or_insert(0) += take;
        self.moves += sup_dist;
        self.messages += sup_dist;
        true
    }

    /// Number of permits that are not yet granted (storage plus bins).
    pub fn uncommitted_permits(&self) -> u64 {
        self.storage + self.bins.values().sum::<u64>()
    }

    /// The largest per-node bin footprint in bits: one `O(log M)` counter per
    /// non-empty bin level hosted at the node (plus the root's storage
    /// counter).
    pub fn peak_node_memory_bits(&self) -> u64 {
        let log_m = 64 - self.m.max(1).leading_zeros() as u64;
        let mut per_node: FxHashMap<NodeId, u64> = FxHashMap::default();
        for (&(node, _level), &count) in &self.bins {
            if count > 0 {
                *per_node.entry(node).or_insert(0) += log_m;
            }
        }
        let storage_bits = 64 - self.storage.max(1).leading_zeros() as u64;
        per_node
            .values()
            .copied()
            .max()
            .unwrap_or(0)
            .max(storage_bits)
    }
}

impl SyncController for AapsController {
    fn name(&self) -> &'static str {
        "aaps"
    }

    fn budget(&self) -> u64 {
        self.m
    }

    fn waste_bound(&self) -> u64 {
        self.w
    }

    fn supports(&self, kind: RequestKind) -> bool {
        // The AAPS dynamic model: leaf insertions and non-topological events
        // only — exactly the restriction the paper's controller lifts.
        matches!(kind, RequestKind::AddLeaf | RequestKind::NonTopological)
    }

    /// Draws a permit from the nearest level-0 bin and applies the granted
    /// event. Through [`Controller`] a kind outside the model resolves to a
    /// refusal ticket and never gets here.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::UnknownNode`] for a request at a missing node;
    /// * [`ControllerError::Sim`] when called directly with a change outside
    ///   the grow-only model (deletion or internal insertion).
    ///
    /// [`Controller`]: dcn_controller::Controller
    fn decide(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError> {
        if !self.tree.contains(at) {
            return Err(ControllerError::UnknownNode(at));
        }
        match kind {
            RequestKind::AddLeaf | RequestKind::NonTopological => {}
            RequestKind::RemoveSelf | RequestKind::AddInternalAbove(_) => {
                // Outside the AAPS dynamic model.
                return Err(ControllerError::Sim(format!(
                    "the AAPS baseline supports only leaf insertions, not {kind:?}"
                )));
            }
        }
        // The request walks to the nearest level-0 bin.
        let (host, dist) = self.nearest_bin_host(at, 0);
        self.messages += dist;
        // Refill from the supervisor chain; once that is dry, recall from
        // the rest of the hierarchy while the stranded permits still exceed
        // `W` (rejecting earlier would violate liveness — the sweep grid's
        // deep path/spider shapes caught exactly that).
        let have_permit = self.refill(host, 0)
            || (self.uncommitted_permits() > self.w && self.recall_permit(host));
        if !have_permit {
            // Reject answer walks back to the requester.
            self.messages += dist;
            return Ok(Outcome::Rejected);
        }
        #[expect(
            clippy::expect_used,
            reason = "refill() or recall_permit() returning true stocked the bin"
        )]
        let bin = self.bins.get_mut(&(host, 0)).expect("bin was refilled");
        *bin -= 1;
        // The permit travels from the bin to the requester.
        self.moves += dist;
        self.messages += dist;
        let new_node = match kind {
            RequestKind::AddLeaf => Some(self.tree.add_leaf(at)?),
            _ => None,
        };
        Ok(Outcome::Granted {
            serial: None,
            new_node,
        })
    }

    fn tree(&self) -> &DynamicTree {
        &self.tree
    }

    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics {
            moves: self.moves,
            messages: self.messages,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Submits through the ticketed path, whose ledger counts the answer (a
    /// bare `decide` is not counted), and returns the answer.
    fn answer(ctrl: &mut AapsController, at: NodeId, kind: RequestKind) -> Outcome {
        dcn_controller::Controller::submit(ctrl, at, kind).unwrap();
        ctrl.ledger().records().last().unwrap().outcome
    }

    #[test]
    fn grants_within_budget_and_conserves_permits() {
        let tree = DynamicTree::with_initial_path(32);
        let m = 40;
        let mut ctrl = AapsController::new(tree, m, 20, 256).unwrap();
        for i in 0..(m as usize + 10) {
            let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
            let at = nodes[(i * 7) % nodes.len()];
            answer(&mut ctrl, at, RequestKind::AddLeaf);
            assert_eq!(ctrl.ledger().granted() + ctrl.uncommitted_permits(), m);
        }
        assert!(ctrl.ledger().granted() <= m);
        assert!(ctrl.ledger().rejected() > 0);
        assert!(ctrl.tree().check_invariants().is_ok());
    }

    #[test]
    fn refuses_deletions_and_internal_insertions() {
        let tree = DynamicTree::with_initial_path(4);
        let mut ctrl = AapsController::new(tree, 10, 5, 32).unwrap();
        let leaf = NodeId::from_index(4);
        assert!(ctrl.decide(leaf, RequestKind::RemoveSelf).is_err());
        assert!(ctrl
            .decide(leaf, RequestKind::AddInternalAbove(NodeId::from_index(3)))
            .is_err());
    }

    #[test]
    fn bin_hosting_follows_depth_divisibility() {
        assert!(AapsController::hosts_bin(0, 5));
        assert!(AapsController::hosts_bin(8, 3));
        assert!(!AapsController::hosts_bin(6, 2));
        assert!(AapsController::hosts_bin(6, 1));
    }

    #[test]
    fn requests_near_prepositioned_bins_become_cheap() {
        // After the first (expensive) request fills the bins along a path,
        // subsequent requests at the same node are much cheaper.
        let tree = DynamicTree::with_initial_path(64);
        let deep = NodeId::from_index(64);
        let mut ctrl = AapsController::new(tree, 1000, 500, 256).unwrap();
        ctrl.decide(deep, RequestKind::NonTopological).unwrap();
        let first = ctrl.messages();
        ctrl.decide(deep, RequestKind::NonTopological).unwrap();
        let second = ctrl.messages() - first;
        assert!(
            second < first,
            "second request ({second}) should be cheaper than the first ({first})"
        );
    }

    #[test]
    fn deep_paths_do_not_strand_more_than_w_permits() {
        // Regression: on deep, narrow shapes the supervisor chain above a
        // requester runs dry while permits sit stranded in bins on other
        // branches; rejecting there violated liveness (granted < M − W).
        // The end-game recall must keep granting until waste is within W.
        for (len, m, w) in [(23usize, 48u64, 12u64), (40, 64, 8), (16, 30, 1)] {
            let tree = DynamicTree::with_initial_path(len);
            let mut ctrl = AapsController::new(tree, m, w, 256).unwrap();
            let mut rejected = 0u64;
            for i in 0..(3 * m as usize) {
                let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
                let at = nodes[(i * 11) % nodes.len()];
                match answer(&mut ctrl, at, RequestKind::NonTopological) {
                    Outcome::Granted { .. } => {}
                    Outcome::Rejected => rejected += 1,
                    Outcome::Refused => unreachable!("events are inside the AAPS model"),
                }
                // Permit conservation holds throughout, recall included.
                assert_eq!(ctrl.ledger().granted() + ctrl.uncommitted_permits(), m);
            }
            assert!(rejected > 0, "len={len}: budget must be exhausted");
            assert!(
                ctrl.ledger().granted() >= m - w,
                "len={len}: liveness violated — granted {} < M − W = {}",
                ctrl.ledger().granted(),
                m - w
            );
        }
    }

    #[test]
    fn rejects_only_after_nearly_exhausting_the_budget() {
        let tree = DynamicTree::with_initial_star(8);
        let (m, w) = (20, 10);
        let mut ctrl = AapsController::new(tree, m, w, 64).unwrap();
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let mut granted = 0;
        let mut rejected = 0;
        for i in 0..60 {
            match ctrl
                .decide(nodes[i % nodes.len()], RequestKind::NonTopological)
                .unwrap()
            {
                Outcome::Granted { .. } => granted += 1,
                Outcome::Rejected => rejected += 1,
                Outcome::Refused => unreachable!("events are inside the AAPS model"),
            }
        }
        assert!(granted <= m);
        assert!(rejected > 0);
        assert!(granted >= m - w, "liveness-like guarantee of the baseline");
    }
}
