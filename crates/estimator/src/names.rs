//! The name-assignment protocol (Theorem 5.2).

use dcn_collections::{FxHashMap, SlidingMap};
use dcn_controller::distributed::{IterationDriver, IterationPlan, IterationPolicy};
use dcn_controller::{
    Controller, ControllerError, InvariantError, Outcome, PermitInterval, RequestKind,
    RequestRecord,
};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// The iteration policy of Theorem 5.2: each iteration opens with a DFS
/// renaming that gives the `N_i` current nodes the identities `1..=N_i`, and
/// hands new joiners serial numbers from the interval `(N_i, 3N_i/2]` via
/// the controller's interval mode. The renaming is two broadcasts of DFS
/// offsets (`2n`), computed from the subtree sizes of the closing count;
/// the first also carries `N_i`. At construction no count precedes it, so
/// it is charged as two traversals (`4n`).
#[derive(Debug, Default)]
pub(crate) struct NamePolicy {
    ids: SlidingMap<NodeId, u64>,
    /// Serial numbers granted to insertions but not yet matched to a node
    /// appearing in the tree (the simulator applies changes with a small
    /// lag behind the grant answer).
    pending_serials: Vec<u64>,
}

impl NamePolicy {
    pub(crate) fn ids(&self) -> &SlidingMap<NodeId, u64> {
        &self.ids
    }
}

impl IterationPolicy for NamePolicy {
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan {
        let n = tree.node_count() as u64;
        // Ids 1..=N_i in DFS order, in two phases so that the temporary and
        // final ranges never collide. Only the first plan finds no ids (the
        // root keeps one for ever) and no closing count's subtree sizes.
        let renaming = if self.ids.is_empty() { 4 * n } else { 2 * n };
        self.ids.clear();
        self.pending_serials.clear();
        for (i, node) in tree.dfs(tree.root()).enumerate() {
            self.ids.insert(node, i as u64 + 1);
        }
        // New nodes draw identities from (N_i, 3N_i/2].
        let budget = (n / 2).max(1);
        IterationPlan {
            budget,
            waste: (n / 4).max(1).min(budget),
            interval: Some(PermitInterval::new(n + 1, n + budget)),
            announce_messages: renaming,
            u_bound: None,
        }
    }

    fn absorb(&mut self, tree: &DynamicTree, records: &[RequestRecord]) {
        // Granted insertions carry their permit's serial number — the new
        // node's identity — in answer order.
        for rec in records {
            if let Outcome::Granted {
                serial: Some(s), ..
            } = rec.outcome
            {
                if matches!(
                    rec.kind,
                    RequestKind::AddLeaf | RequestKind::AddInternalAbove(_)
                ) {
                    self.pending_serials.push(s);
                }
            }
        }
        // Hand the serials to the nodes that appeared since the last absorb
        // (discovery order), and retire the identities of deleted nodes.
        let mut fresh: Vec<NodeId> = tree
            .nodes()
            .filter(|&n| !self.ids.contains_key(n))
            .collect();
        let take = fresh.len().min(self.pending_serials.len());
        for (node, serial) in fresh.drain(..take).zip(self.pending_serials.drain(..take)) {
            self.ids.insert(node, serial);
        }
        self.ids.retain(|node, _| tree.contains(node));
    }
}

/// The name-assignment protocol: every node holds a short unique identity —
/// an integer in `[1, 4n]` where `n` is the *current* number of nodes — under
/// insertions and deletions of both leaves and internal nodes.
///
/// Iteration `i` (driven by the shared [`IterationDriver`]) starts with a DFS
/// re-numbering that gives the current `N_i` nodes the identities `1..N_i`
/// (two phases, so that the temporary and final ranges never collide;
/// charged `O(n)` messages). New nodes joining during the iteration
/// receive identities from the interval `[N_i + 1, 3N_i/2]`: the controller
/// runs in interval mode, so the permit a join request consumes *is* the new
/// node's identity.
///
/// ```
/// use dcn_estimator::NameAssigner;
/// use dcn_controller::{Controller, RequestKind};
/// use dcn_simnet::SimConfig;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(9);
/// let mut names = NameAssigner::new(SimConfig::new(1), tree)?;
/// let root = names.tree().root();
/// names.run_batch(&[(root, RequestKind::AddLeaf); 4])?;
/// names.check_invariants().unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NameAssigner {
    pub(crate) driver: IterationDriver<NamePolicy>,
}

impl NameAssigner {
    /// Creates the name assigner over `tree`. Initial identities are assigned
    /// by a DFS numbering (`1..=n0`).
    ///
    /// # Errors
    ///
    /// Returns controller construction errors.
    pub fn new(config: SimConfig, tree: DynamicTree) -> Result<Self, ControllerError> {
        Ok(NameAssigner {
            driver: IterationDriver::new(config, tree, NamePolicy::default())?,
        })
    }

    /// The identity currently assigned to `node`, if it exists.
    pub fn id_of(&self, node: NodeId) -> Option<u64> {
        self.driver.policy().ids().get(node).copied()
    }

    /// All current `(node, identity)` assignments, in node-index order.
    pub fn ids(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.driver.policy().ids().iter().map(|(n, &i)| (n, i))
    }
}

impl Controller for NameAssigner {
    engine_controller!("name-assigner", driver);

    /// Every existing node has an identity, identities are pairwise distinct,
    /// and every identity is at most `4n`.
    fn check_invariants(&self) -> Result<(), InvariantError> {
        let tree = self.tree();
        let n = tree.node_count() as u64;
        let ids = self.driver.policy().ids();
        let mut seen: FxHashMap<u64, NodeId> = FxHashMap::default();
        for node in tree.nodes() {
            let Some(&id) = ids.get(node) else {
                return Err(InvariantError::MissingIdentity { node });
            };
            if id == 0 || id > 4 * n {
                return Err(InvariantError::IdentityOutOfRange {
                    node,
                    id,
                    bound: 4 * n,
                });
            }
            if let Some(first) = seen.insert(id, node) {
                return Err(InvariantError::DuplicateIdentity {
                    id,
                    first,
                    second: node,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_stay_unique_and_short_under_mixed_churn() {
        let tree = DynamicTree::with_initial_star(15);
        let mut names = NameAssigner::new(SimConfig::new(5), tree).unwrap();
        for round in 0..15usize {
            let nodes: Vec<NodeId> = names.tree().nodes().collect();
            let mut batch: Vec<(NodeId, RequestKind)> = Vec::new();
            for (i, &n) in nodes.iter().enumerate().take(6) {
                if round % 3 == 2 && i % 2 == 0 && n != names.tree().root() {
                    batch.push((n, RequestKind::RemoveSelf));
                } else {
                    batch.push((n, RequestKind::AddLeaf));
                }
            }
            names.run_batch(&batch).unwrap();
            names.check_invariants().unwrap();
        }
        assert!(names.iterations() >= 2, "churn must trigger renamings");
    }

    #[test]
    fn new_nodes_receive_serials_from_the_iteration_interval() {
        let tree = DynamicTree::with_initial_star(19);
        let n0 = 20u64;
        let mut names = NameAssigner::new(SimConfig::new(6), tree).unwrap();
        let root = names.tree().root();
        let records = names
            .run_batch(&[(root, RequestKind::AddLeaf), (root, RequestKind::AddLeaf)])
            .unwrap();
        assert_eq!(records.len(), 2);
        // Both new nodes exist and carry ids from (N_1, 3N_1/2].
        let new_ids: Vec<u64> = names
            .tree()
            .nodes()
            .filter(|&n| names.tree().parent(n) == Some(root) && n.index() >= n0 as usize)
            .filter_map(|n| names.id_of(n))
            .collect();
        assert_eq!(new_ids.len(), 2);
        for id in new_ids {
            assert!(id > n0 && id <= n0 + n0 / 2, "id {id} outside the interval");
        }
        names.check_invariants().unwrap();
    }

    #[test]
    fn deleted_nodes_lose_their_identities() {
        let tree = DynamicTree::with_initial_star(10);
        let mut names = NameAssigner::new(SimConfig::new(7), tree).unwrap();
        let victim = names
            .tree()
            .nodes()
            .find(|&n| n != names.tree().root())
            .unwrap();
        names
            .run_batch(&[(victim, RequestKind::RemoveSelf)])
            .unwrap();
        assert!(!names.tree().contains(victim));
        assert!(names.id_of(victim).is_none());
        names.check_invariants().unwrap();
    }

    #[test]
    fn incremental_stepping_keeps_identities_consistent_at_quiescence() {
        let tree = DynamicTree::with_initial_star(12);
        let mut names = NameAssigner::new(SimConfig::new(8), tree).unwrap();
        let root = names.tree().root();
        for _ in 0..9 {
            names.submit(root, RequestKind::AddLeaf).unwrap();
            // Tiny slices: identities must still be complete once quiescent.
            while !names.step(3).unwrap().quiescent {}
            names.check_invariants().unwrap();
        }
        assert_eq!(names.tree().node_count(), 22);
    }
}
