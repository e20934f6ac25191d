//! Placement distributions for non-topological requests.

use dcn_rng::Rng;
use dcn_tree::{DynamicTree, NodeId};

/// Where (at which nodes) requests arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Uniformly over all existing nodes.
    Uniform,
    /// Only at the deepest node(s): the adversarial worst case, maximising the
    /// distance permits must travel.
    Deepest,
    /// Only at leaves (typical for join/leave traffic in an overlay).
    Leaves,
    /// Skewed towards a small hot set: with probability `hot_percent`% the
    /// request goes to one of the `hot_set` deepest nodes, otherwise uniform.
    Skewed {
        /// Size of the hot set.
        hot_set: usize,
        /// Probability (0–100) of hitting the hot set.
        hot_percent: u8,
    },
}

impl Placement {
    /// Draws the arrival node for the next request.
    pub fn draw<R: Rng>(&self, tree: &DynamicTree, rng: &mut R) -> NodeId {
        let nodes: Vec<NodeId> = tree.nodes().collect();
        match *self {
            Placement::Uniform => nodes[rng.gen_range(0..nodes.len())],
            Placement::Deepest => {
                let max_depth = nodes.iter().map(|&n| tree.depth(n)).max().unwrap_or(0);
                let deepest: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&n| tree.depth(n) == max_depth)
                    .collect();
                deepest[rng.gen_range(0..deepest.len())]
            }
            Placement::Leaves => {
                let leaves: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&n| tree.is_leaf(n).unwrap_or(false))
                    .collect();
                if leaves.is_empty() {
                    tree.root()
                } else {
                    leaves[rng.gen_range(0..leaves.len())]
                }
            }
            Placement::Skewed {
                hot_set,
                hot_percent,
            } => {
                if rng.gen_range(0u8..100) < hot_percent {
                    let mut by_depth = nodes.clone();
                    by_depth.sort_by_key(|&n| std::cmp::Reverse(tree.depth(n)));
                    let k = hot_set.max(1).min(by_depth.len());
                    by_depth[rng.gen_range(0..k)]
                } else {
                    nodes[rng.gen_range(0..nodes.len())]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{build_tree, TreeShape};
    use dcn_rng::{DetRng, SeedableRng};

    #[test]
    fn deepest_placement_always_hits_the_deepest_node() {
        let tree = build_tree(TreeShape::Path { nodes: 9 });
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..20 {
            let n = Placement::Deepest.draw(&tree, &mut rng);
            assert_eq!(tree.depth(n), 9);
        }
    }

    #[test]
    fn leaves_placement_only_hits_leaves() {
        let tree = build_tree(TreeShape::Caterpillar { spine: 4, legs: 2 });
        let mut rng = DetRng::seed_from_u64(2);
        for _ in 0..50 {
            let n = Placement::Leaves.draw(&tree, &mut rng);
            assert!(tree.is_leaf(n).unwrap());
        }
    }

    #[test]
    fn uniform_placement_covers_many_nodes() {
        let tree = build_tree(TreeShape::Star { nodes: 20 });
        let mut rng = DetRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            seen.insert(Placement::Uniform.draw(&tree, &mut rng));
        }
        assert!(seen.len() > 10);
    }

    #[test]
    fn skewed_placement_prefers_deep_nodes() {
        let tree = build_tree(TreeShape::Path { nodes: 30 });
        let mut rng = DetRng::seed_from_u64(4);
        let placement = Placement::Skewed {
            hot_set: 2,
            hot_percent: 90,
        };
        let deep_hits = (0..200)
            .filter(|_| tree.depth(placement.draw(&tree, &mut rng)) >= 29)
            .count();
        assert!(deep_hits > 100, "only {deep_hits} deep hits");
    }
}
