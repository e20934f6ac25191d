//! The heavy-child decomposition (Theorem 5.4).

use crate::invariant::InvariantError;
use crate::subtree::SubtreeEstimator;
use crate::{Application, IterationDriver, IterationPolicy};
use dcn_collections::SecondaryMap;
use dcn_controller::{ControllerError, Progress};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// A dynamically maintained heavy-child decomposition: every internal node `v`
/// holds a pointer `µ(v)` to one of its children (its *heavy* child); all
/// other children are *light*. The decomposition guarantees that every node
/// has `O(log n)` light ancestors at all times.
///
/// Following §5.3, the pointers are driven by the subtree estimator with
/// `β = √3`: each node points at the child with the largest super-weight
/// estimate, which guarantees that every light child's super-weight is at most
/// 3/4 of its parent's.
#[derive(Debug)]
pub struct HeavyChildDecomposition {
    subtree: SubtreeEstimator,
    heavy: SecondaryMap<NodeId, NodeId>,
}

impl HeavyChildDecomposition {
    /// Creates the decomposition over `tree`.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors.
    pub fn new(config: SimConfig, tree: DynamicTree) -> Result<Self, ControllerError> {
        let subtree = SubtreeEstimator::new(config, tree, f64::sqrt(3.0))?;
        let mut decomposition = HeavyChildDecomposition {
            subtree,
            heavy: SecondaryMap::new(),
        };
        decomposition.refresh_pointers();
        Ok(decomposition)
    }

    /// The heavy child of `node`, if `node` is internal.
    pub fn heavy_child(&self, node: NodeId) -> Option<NodeId> {
        self.heavy.get(node).copied()
    }

    /// Number of *light* ancestors of `node` (ancestors `a` such that the
    /// child of `a` on the path to `node` is not `a`'s heavy child).
    pub fn light_ancestor_count(&self, node: NodeId) -> usize {
        let tree = self.tree();
        let mut count = 0;
        let mut cur = node;
        while let Some(parent) = tree.parent(cur) {
            if self.heavy.get(parent) != Some(&cur) {
                count += 1;
            }
            cur = parent;
        }
        count
    }

    /// The maximum number of light ancestors over all existing nodes — the
    /// quantity Theorem 5.4 bounds by `O(log n)`.
    pub fn max_light_ancestors(&self) -> usize {
        self.tree()
            .nodes()
            .map(|n| self.light_ancestor_count(n))
            .max()
            .unwrap_or(0)
    }

    /// Checks the decomposition quality: every node has at most
    /// `4·log2(n) + 8` light ancestors.
    ///
    /// # Errors
    ///
    /// Returns the violating node.
    pub fn check_light_depth(&self) -> Result<(), InvariantError> {
        let nodes = self.tree().node_count();
        let n = nodes.max(2) as f64;
        let bound = (4.0 * n.log2() + 8.0) as usize;
        for node in self.tree().nodes() {
            let light = self.light_ancestor_count(node);
            if light > bound {
                return Err(InvariantError::LightAncestorsExceeded {
                    node,
                    light,
                    bound,
                    nodes,
                });
            }
        }
        Ok(())
    }

    /// Recomputes every pointer from the current estimates. A pointer flip (or
    /// a fresh pointer) corresponds to a message from the child that reported
    /// a new largest estimate, so flips are charged one message each through
    /// the shared driver.
    fn refresh_pointers(&mut self) {
        let mut flips = 0u64;
        let mut new_heavy = SecondaryMap::new();
        {
            let tree = self.subtree.tree();
            for node in tree.nodes() {
                // A leaf has no heavy child.
                let Some(best) = tree
                    .children(node)
                    .unwrap_or_default()
                    .iter()
                    .copied()
                    .max_by_key(|&c| (self.subtree.estimate(c), std::cmp::Reverse(c)))
                else {
                    continue;
                };
                if self.heavy.get(node) != Some(&best) {
                    flips += 1;
                }
                new_heavy.insert(node, best);
            }
        }
        self.heavy = new_heavy;
        self.charge_messages(flips);
    }
}

impl Application for HeavyChildDecomposition {
    fn name(&self) -> &'static str {
        "heavy-child"
    }

    fn runtime(&self) -> &IterationDriver<dyn IterationPolicy> {
        self.subtree.runtime()
    }

    fn runtime_mut(&mut self) -> &mut IterationDriver<dyn IterationPolicy> {
        self.subtree.runtime_mut()
    }

    /// After the subtree estimator's own hook, the heavy pointers are
    /// refreshed from the updated estimates once a slice reaches quiescence
    /// (pointers, like the other §5 guarantees, are only owed at quiescent
    /// points — refreshing a full-tree scan per bounded slice would be pure
    /// overhead).
    fn after_slice(&mut self, progress: Progress) {
        self.subtree.after_slice(progress);
        if progress.quiescent {
            self.refresh_pointers();
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantError> {
        self.check_light_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

    #[test]
    fn initial_decomposition_of_a_path_has_no_light_ancestors() {
        let tree = DynamicTree::with_initial_path(20);
        let decomposition = HeavyChildDecomposition::new(SimConfig::new(21), tree).unwrap();
        assert_eq!(decomposition.max_light_ancestors(), 0);
    }

    #[test]
    fn light_ancestors_stay_logarithmic_under_growth() {
        let tree = DynamicTree::with_initial_star(10);
        let mut decomposition = HeavyChildDecomposition::new(SimConfig::new(22), tree).unwrap();
        for round in 0..12usize {
            let nodes: Vec<NodeId> = decomposition.tree().nodes().collect();
            let batch: Vec<(NodeId, RequestKind)> = nodes
                .iter()
                .skip(round % 2)
                .step_by(3)
                .take(6)
                .map(|&n| (n, RequestKind::AddLeaf))
                .collect();
            decomposition.run_batch(&batch).unwrap();
            decomposition.check_light_depth().unwrap();
        }
        assert!(decomposition.tree().node_count() > 50);
    }

    #[test]
    fn heavy_pointer_follows_the_bulkier_subtree() {
        // Root with two children: one child grows a long chain, the other
        // stays a leaf; the root's heavy pointer must select the big subtree.
        let mut tree = DynamicTree::new();
        let big = tree.add_leaf(tree.root()).unwrap();
        let _small = tree.add_leaf(tree.root()).unwrap();
        let mut cur = big;
        for _ in 0..20 {
            cur = tree.add_leaf(cur).unwrap();
        }
        let decomposition = HeavyChildDecomposition::new(SimConfig::new(23), tree).unwrap();
        assert_eq!(
            decomposition.heavy_child(decomposition.tree().root()),
            Some(big)
        );
    }
}
