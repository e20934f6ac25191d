//! Dynamic ancestry labeling (Corollary 5.7).

use crate::invariant::InvariantError;
use crate::size::SizeEstimator;
use crate::{Application, IterationDriver, IterationPolicy};
use dcn_collections::SecondaryMap;
use dcn_controller::{ControllerError, Progress};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// An interval label: `u` is an ancestor of `v` iff `u`'s interval contains
/// `v`'s interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AncestryLabel {
    /// DFS entry time.
    pub low: u64,
    /// DFS exit time (inclusive).
    pub high: u64,
}

impl AncestryLabel {
    /// Returns `true` if the node carrying `self` is an ancestor of the node
    /// carrying `other` (a node is its own ancestor).
    pub fn is_ancestor_of(&self, other: &AncestryLabel) -> bool {
        self.low <= other.low && other.high <= self.high
    }

    /// Number of bits needed to encode this label (two numbers).
    pub fn bits(&self) -> u32 {
        2 * (64 - self.high.max(1).leading_zeros())
    }
}

/// A dynamic ancestry labeling scheme for trees under controlled deletions of
/// both leaves and internal nodes (Corollary 5.7).
///
/// Deletions never invalidate interval containment, so the labels of surviving
/// nodes stay *correct* for free; what degrades is their *size*: after heavy
/// shrinkage, labels are long relative to `log n`. The size-estimation
/// protocol detects the shrinkage (its per-iteration estimate halves) and
/// triggers a global re-labeling, which keeps the label length at
/// `O(log n)` bits while paying only `O(n)` messages per halving.
#[derive(Debug)]
pub struct AncestryLabeling {
    size: SizeEstimator,
    labels: SecondaryMap<NodeId, AncestryLabel>,
    /// The node count at the time of the last re-labeling.
    labeled_at: u64,
    relabels: u32,
}

impl AncestryLabeling {
    /// Creates the labeling over `tree`; all current nodes are labeled.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors.
    pub fn new(config: SimConfig, tree: DynamicTree) -> Result<Self, ControllerError> {
        let size = SizeEstimator::new(config, tree, 2.0)?;
        let mut labeling = AncestryLabeling {
            size,
            labels: SecondaryMap::new(),
            labeled_at: 0,
            relabels: 0,
        };
        labeling.relabel();
        Ok(labeling)
    }

    /// The label of `node`, if it exists and has been labeled.
    pub fn label(&self, node: NodeId) -> Option<AncestryLabel> {
        self.labels.get(node).copied()
    }

    /// Number of global re-labelings performed so far.
    pub fn relabels(&self) -> u32 {
        self.relabels
    }

    /// Maximum label size over existing nodes, in bits.
    pub fn max_label_bits(&self) -> u32 {
        self.tree()
            .nodes()
            .filter_map(|n| self.labels.get(n))
            .map(AncestryLabel::bits)
            .max()
            .unwrap_or(0)
    }

    /// Answers an ancestry query purely from the two labels.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> Option<bool> {
        Some(self.labels.get(anc)?.is_ancestor_of(self.labels.get(desc)?))
    }

    /// Re-labels every existing node with fresh DFS intervals (charged as one
    /// traversal of the tree through the shared driver).
    fn relabel(&mut self) {
        let charge;
        {
            let tree = self.size.tree();
            self.labels.clear();
            // Iterative DFS computing [entry, exit] intervals; a node's
            // second stack entry carries its entry number.
            let mut counter = 0u64;
            let mut stack: Vec<(NodeId, Option<u64>)> = vec![(tree.root(), None)];
            while let Some((node, entered)) = stack.pop() {
                if let Some(low) = entered {
                    self.labels
                        .insert(node, AncestryLabel { low, high: counter });
                    continue;
                }
                counter += 1;
                stack.push((node, Some(counter)));
                for &child in tree.children(node).unwrap_or_default().iter().rev() {
                    stack.push((child, None));
                }
            }
            self.labeled_at = tree.node_count() as u64;
            charge = 2 * tree.node_count() as u64;
        }
        self.relabels += 1;
        self.charge_messages(charge);
    }
}

impl Application for AncestryLabeling {
    fn name(&self) -> &'static str {
        "ancestry-labeling"
    }

    fn runtime(&self) -> &IterationDriver<dyn IterationPolicy> {
        self.size.runtime()
    }

    fn runtime_mut(&mut self) -> &mut IterationDriver<dyn IterationPolicy> {
        self.size.runtime_mut()
    }

    /// Drops labels of deleted nodes and re-labels when the network halved
    /// since the last labeling (or when new nodes are waiting for a label).
    fn after_slice(&mut self, _progress: Progress) {
        // Probe the tree arena directly — membership is an O(1) slot check,
        // so no snapshot set of all nodes is materialised per slice.
        let tree = self.size.tree();
        self.labels.retain(|node, _| tree.contains(node));
        let n = tree.node_count() as u64;
        let unlabeled = tree.nodes().any(|v| !self.labels.contains_key(v));
        if n <= self.labeled_at / 2 || unlabeled {
            self.relabel();
        }
    }

    /// Every existing node is labeled, label-based ancestry agrees with the
    /// tree, and label sizes are `O(log n)` (at most `2·(log2(n) + 3)` bits
    /// per coordinate pair after the scheme's own re-labeling policy).
    fn check_invariants(&self) -> Result<(), InvariantError> {
        let tree = self.tree();
        let nodes: Vec<NodeId> = tree.nodes().collect();
        for &v in &nodes {
            if !self.labels.contains_key(v) {
                return Err(InvariantError::MissingLabel { node: v });
            }
        }
        // Ancestry agreement on a sample of pairs (all pairs for small trees).
        for &u in nodes.iter().step_by(1 + nodes.len() / 32) {
            for &v in nodes.iter().step_by(1 + nodes.len() / 32) {
                #[expect(
                    clippy::expect_used,
                    reason = "the loop above returned unless every node is labeled"
                )]
                let by_label = self.is_ancestor(u, v).expect("both labeled");
                let by_tree = tree.is_ancestor(u, v);
                if by_label != by_tree {
                    return Err(InvariantError::AncestryMismatch {
                        ancestor: u,
                        descendant: v,
                        by_label,
                        by_tree,
                    });
                }
            }
        }
        let count = tree.node_count();
        let n = count.max(2) as f64;
        let max_bits = self.max_label_bits();
        let bound = 2 * (n.log2().ceil() as u32 + 3);
        if max_bits > bound {
            return Err(InvariantError::LabelTooWide {
                bits: max_bits,
                bound,
                nodes: count,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

    #[test]
    fn label_containment_matches_ancestry() {
        let tree = DynamicTree::with_initial_path(12);
        let labeling = AncestryLabeling::new(SimConfig::new(31), tree).unwrap();
        labeling.check_invariants().unwrap();
        let root = labeling.tree().root();
        let deep = labeling
            .tree()
            .nodes()
            .max_by_key(|&n| labeling.tree().depth(n))
            .unwrap();
        assert_eq!(labeling.is_ancestor(root, deep), Some(true));
        assert_eq!(labeling.is_ancestor(deep, root), Some(false));
    }

    #[test]
    fn deletions_keep_labels_correct_and_shrinkage_triggers_relabeling() {
        let tree = DynamicTree::with_initial_star(120);
        let mut labeling = AncestryLabeling::new(SimConfig::new(32), tree).unwrap();
        let initial_relabels = labeling.relabels();
        for _ in 0..30 {
            let victims: Vec<(NodeId, RequestKind)> = labeling
                .tree()
                .nodes()
                .filter(|&n| n != labeling.tree().root())
                .take(4)
                .map(|n| (n, RequestKind::RemoveSelf))
                .collect();
            if victims.is_empty() {
                break;
            }
            labeling.run_batch(&victims).unwrap();
            labeling.check_invariants().unwrap();
        }
        assert!(labeling.tree().node_count() < 40);
        assert!(
            labeling.relabels() > initial_relabels,
            "halving the network must trigger a re-label"
        );
    }

    #[test]
    fn insertions_receive_labels_and_queries_stay_consistent() {
        let tree = DynamicTree::with_initial_path(6);
        let mut labeling = AncestryLabeling::new(SimConfig::new(33), tree).unwrap();
        let deep = labeling
            .tree()
            .nodes()
            .max_by_key(|&n| labeling.tree().depth(n))
            .unwrap();
        labeling
            .run_batch(&[(deep, RequestKind::AddLeaf), (deep, RequestKind::AddLeaf)])
            .unwrap();
        labeling.check_invariants().unwrap();
    }
}
