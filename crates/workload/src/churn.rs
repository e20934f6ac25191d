//! Churn models: sequences of topological-change requests.

use crate::shape::random_node;
use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_tree::{DynamicTree, NodeId};

/// One abstract operation requested from the controller.
///
/// Operations reference nodes of the tree they were generated against; the
/// driver converts them into controller requests (the request for an addition
/// arrives at the parent-to-be, the request for a removal at the node itself,
/// matching the paper's conventions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// Attach a new leaf below `parent`.
    AddLeaf {
        /// The prospective parent (where the request arrives).
        parent: NodeId,
    },
    /// Split the edge above `below` with a new internal node (the request
    /// arrives at `below`'s parent).
    AddInternal {
        /// The lower endpoint of the split edge.
        below: NodeId,
        /// The parent of `below` at generation time (where the request
        /// arrives).
        parent: NodeId,
    },
    /// Remove `node` (the request arrives at `node`).
    Remove {
        /// The node to remove.
        node: NodeId,
    },
    /// A non-topological event at `at`.
    Event {
        /// Where the request arrives.
        at: NodeId,
    },
}

impl ChurnOp {
    /// The node the corresponding controller request arrives at.
    pub fn origin(&self) -> NodeId {
        match *self {
            ChurnOp::AddLeaf { parent } => parent,
            ChurnOp::AddInternal { parent, .. } => parent,
            ChurnOp::Remove { node } => node,
            ChurnOp::Event { at } => at,
        }
    }

    /// Converts the operation into a controller request, following the
    /// paper's arrival conventions (additions arrive at the parent-to-be,
    /// removals at the node itself).
    pub fn to_request(&self) -> (NodeId, dcn_controller::RequestKind) {
        use dcn_controller::RequestKind;
        match *self {
            ChurnOp::AddLeaf { parent } => (parent, RequestKind::AddLeaf),
            ChurnOp::AddInternal { below, parent } => {
                (parent, RequestKind::AddInternalAbove(below))
            }
            ChurnOp::Remove { node } => (node, RequestKind::RemoveSelf),
            ChurnOp::Event { at } => (at, RequestKind::NonTopological),
        }
    }

    /// Returns `true` if the operation changes the tree topology.
    pub fn is_topological(&self) -> bool {
        !matches!(self, ChurnOp::Event { .. })
    }
}

/// The statistical model governing which operations are generated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnModel {
    /// Only leaf insertions — the restricted model of Afek–Awerbuch–Plotkin–
    /// Saks, used for the baseline comparison (experiment T4).
    GrowOnly,
    /// Leaf insertions and deletions with the given insertion probability
    /// (in percent); the tree size drifts but stays positive.
    LeafChurn {
        /// Probability (0–100) that an operation is an insertion.
        insert_percent: u8,
    },
    /// The full model of the paper: insertions and deletions of both leaves
    /// and internal nodes, in the given percentage mix
    /// (add-leaf / add-internal / remove; the remainder are non-topological
    /// events).
    FullChurn {
        /// Percent of operations that add a leaf.
        add_leaf: u8,
        /// Percent of operations that add an internal node.
        add_internal: u8,
        /// Percent of operations that remove a node.
        remove: u8,
    },
    /// Only non-topological events (the pure resource-allocation workload).
    EventsOnly,
    /// Bursty deep-leaf churn: alternating bursts of `burst` operations that
    /// first grow the deepest frontier (leaves attached at maximal-depth
    /// nodes), then tear it down again (removals of maximal-depth leaves).
    /// The adversarial pattern for permit travel: every burst happens as far
    /// from the root as the tree currently reaches, and the depth keeps
    /// ratcheting because a growth burst deepens the frontier faster than the
    /// next removal burst can strip it.
    BurstyDeepLeaf {
        /// Operations per burst (clamped to at least 1).
        burst: u8,
    },
}

impl ChurnModel {
    /// A reasonable default mixed-churn model (30% add-leaf, 20% add-internal,
    /// 25% remove, 25% events).
    pub fn default_mixed() -> Self {
        ChurnModel::FullChurn {
            add_leaf: 30,
            add_internal: 20,
            remove: 25,
        }
    }
}

/// Seeded generator producing [`ChurnOp`]s against the current state of a
/// tree.
///
/// ```
/// use dcn_workload::{build_tree, ChurnGenerator, ChurnModel, TreeShape};
///
/// let tree = build_tree(TreeShape::Star { nodes: 10 });
/// let mut gen = ChurnGenerator::new(ChurnModel::default_mixed(), 42);
/// let op = gen.next_op(&tree).unwrap();
/// assert!(tree.contains(op.origin()));
/// ```
#[derive(Clone, Debug)]
pub struct ChurnGenerator {
    model: ChurnModel,
    rng: DetRng,
    /// Operations generated so far; drives the phase of the bursty models.
    ticks: u64,
}

impl ChurnGenerator {
    /// Creates a generator for the given model and seed.
    pub fn new(model: ChurnModel, seed: u64) -> Self {
        ChurnGenerator {
            model,
            rng: DetRng::seed_from_u64(seed),
            ticks: 0,
        }
    }

    /// The model this generator draws from.
    pub fn model(&self) -> &ChurnModel {
        &self.model
    }

    /// Generates the next operation against the current tree. Returns `None`
    /// only if no applicable operation exists (e.g. a removal was drawn but
    /// the tree has only the root — callers may simply retry).
    pub fn next_op(&mut self, tree: &DynamicTree) -> Option<ChurnOp> {
        let tick = self.ticks;
        self.ticks += 1;
        match self.model {
            ChurnModel::GrowOnly => {
                let parent = random_node(tree, &mut self.rng, false)?;
                Some(ChurnOp::AddLeaf { parent })
            }
            ChurnModel::EventsOnly => {
                let at = random_node(tree, &mut self.rng, false)?;
                Some(ChurnOp::Event { at })
            }
            ChurnModel::LeafChurn { insert_percent } => {
                let roll: u8 = self.rng.gen_range(0u8..100);
                if roll < insert_percent || tree.node_count() <= 2 {
                    let parent = random_node(tree, &mut self.rng, false)?;
                    Some(ChurnOp::AddLeaf { parent })
                } else {
                    // Remove a random leaf.
                    let leaves: Vec<NodeId> = tree
                        .nodes()
                        .filter(|&n| n != tree.root() && tree.is_leaf(n).unwrap_or(false))
                        .collect();
                    let node = *pick(&mut self.rng, &leaves)?;
                    Some(ChurnOp::Remove { node })
                }
            }
            ChurnModel::FullChurn {
                add_leaf,
                add_internal,
                remove,
            } => {
                let roll: u8 = self.rng.gen_range(0u8..100);
                if roll < add_leaf || tree.node_count() <= 2 {
                    let parent = random_node(tree, &mut self.rng, false)?;
                    Some(ChurnOp::AddLeaf { parent })
                } else if roll < add_leaf.saturating_add(add_internal) {
                    let below = random_node(tree, &mut self.rng, true)?;
                    let parent = tree.parent(below)?;
                    Some(ChurnOp::AddInternal { below, parent })
                } else if roll < add_leaf.saturating_add(add_internal).saturating_add(remove) {
                    let node = random_node(tree, &mut self.rng, true)?;
                    Some(ChurnOp::Remove { node })
                } else {
                    let at = random_node(tree, &mut self.rng, false)?;
                    Some(ChurnOp::Event { at })
                }
            }
            ChurnModel::BurstyDeepLeaf { burst } => {
                let burst = u64::from(burst.max(1));
                let growing = (tick / burst) % 2 == 0;
                let max_depth = tree.nodes().map(|n| tree.depth(n)).max().unwrap_or(0);
                if growing || max_depth == 0 {
                    // Growth burst: attach a leaf at a maximal-depth node.
                    let frontier: Vec<NodeId> = tree
                        .nodes()
                        .filter(|&n| tree.depth(n) == max_depth)
                        .collect();
                    let parent = *pick(&mut self.rng, &frontier)?;
                    Some(ChurnOp::AddLeaf { parent })
                } else {
                    // Removal burst: strip a maximal-depth leaf (maximal-depth
                    // nodes are always leaves, and depth > 0 excludes the
                    // root).
                    let deepest_leaves: Vec<NodeId> = tree
                        .nodes()
                        .filter(|&n| tree.depth(n) == max_depth)
                        .collect();
                    let node = *pick(&mut self.rng, &deepest_leaves)?;
                    Some(ChurnOp::Remove { node })
                }
            }
        }
    }

    /// Generates a batch of up to `count` operations against the current tree
    /// (skipping draws that do not apply).
    pub fn batch(&mut self, tree: &DynamicTree, count: usize) -> Vec<ChurnOp> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0;
        while out.len() < count && attempts < count * 4 {
            attempts += 1;
            if let Some(op) = self.next_op(tree) {
                out.push(op);
            }
        }
        out
    }
}

fn pick<'a, R: Rng, T>(rng: &mut R, slice: &'a [T]) -> Option<&'a T> {
    if slice.is_empty() {
        None
    } else {
        slice.get(rng.gen_range(0..slice.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{build_tree, TreeShape};

    #[test]
    fn grow_only_generates_only_leaf_insertions() {
        let tree = build_tree(TreeShape::Star { nodes: 5 });
        let mut gen = ChurnGenerator::new(ChurnModel::GrowOnly, 1);
        for _ in 0..50 {
            let op = gen.next_op(&tree).unwrap();
            assert!(matches!(op, ChurnOp::AddLeaf { .. }));
            assert!(tree.contains(op.origin()));
        }
    }

    #[test]
    fn events_only_generates_only_events() {
        let tree = build_tree(TreeShape::Path { nodes: 5 });
        let mut gen = ChurnGenerator::new(ChurnModel::EventsOnly, 2);
        for _ in 0..50 {
            assert!(matches!(gen.next_op(&tree).unwrap(), ChurnOp::Event { .. }));
        }
    }

    #[test]
    fn full_churn_generates_every_kind_and_valid_targets() {
        let tree = build_tree(TreeShape::Balanced {
            nodes: 30,
            arity: 2,
        });
        let mut gen = ChurnGenerator::new(ChurnModel::default_mixed(), 3);
        let ops = gen.batch(&tree, 300);
        assert!(ops.iter().any(|o| matches!(o, ChurnOp::AddLeaf { .. })));
        assert!(ops.iter().any(|o| matches!(o, ChurnOp::AddInternal { .. })));
        assert!(ops.iter().any(|o| matches!(o, ChurnOp::Remove { .. })));
        assert!(ops.iter().any(|o| matches!(o, ChurnOp::Event { .. })));
        for op in &ops {
            assert!(tree.contains(op.origin()));
            if let ChurnOp::AddInternal { below, parent } = op {
                assert_eq!(tree.parent(*below), Some(*parent));
            }
            if let ChurnOp::Remove { node } = op {
                assert_ne!(*node, tree.root());
            }
        }
    }

    #[test]
    fn leaf_churn_only_removes_leaves() {
        let tree = build_tree(TreeShape::Caterpillar { spine: 5, legs: 2 });
        let mut gen = ChurnGenerator::new(ChurnModel::LeafChurn { insert_percent: 30 }, 4);
        for _ in 0..200 {
            if let Some(ChurnOp::Remove { node }) = gen.next_op(&tree) {
                assert!(tree.is_leaf(node).unwrap());
            }
        }
    }

    #[test]
    fn bursty_deep_leaf_alternates_deep_growth_and_deep_removal() {
        let mut tree = build_tree(TreeShape::Spider {
            legs: 3,
            leg_length: 4,
        });
        let mut gen = ChurnGenerator::new(ChurnModel::BurstyDeepLeaf { burst: 5 }, 8);
        let mut saw_add = 0usize;
        let mut saw_remove = 0usize;
        for i in 0..40 {
            let max_depth = tree.nodes().map(|n| tree.depth(n)).max().unwrap();
            let op = gen.next_op(&tree).unwrap();
            let growing = (i / 5) % 2 == 0;
            match op {
                ChurnOp::AddLeaf { parent } => {
                    assert!(growing, "op {i}: add outside a growth burst");
                    assert_eq!(tree.depth(parent), max_depth, "op {i}: not deepest");
                    tree.add_leaf(parent).unwrap();
                    saw_add += 1;
                }
                ChurnOp::Remove { node } => {
                    assert!(!growing, "op {i}: removal outside a removal burst");
                    assert_eq!(tree.depth(node), max_depth, "op {i}: not deepest");
                    assert!(tree.is_leaf(node).unwrap(), "op {i}: deepest is a leaf");
                    tree.remove_leaf(node).unwrap();
                    saw_remove += 1;
                }
                other => panic!("op {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(saw_add, 20);
        assert_eq!(saw_remove, 20);
    }

    #[test]
    fn bursty_deep_leaf_never_strands_a_root_only_tree() {
        // Degenerate start: only the root. Removal bursts must fall back to
        // growth instead of returning None forever.
        let mut tree = DynamicTree::new();
        let mut gen = ChurnGenerator::new(ChurnModel::BurstyDeepLeaf { burst: 1 }, 3);
        for _ in 0..20 {
            let op = gen.next_op(&tree).unwrap();
            match op {
                ChurnOp::AddLeaf { parent } => {
                    tree.add_leaf(parent).unwrap();
                }
                ChurnOp::Remove { node } => {
                    tree.remove_leaf(node).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(tree.node_count() >= 1);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let tree = build_tree(TreeShape::RandomRecursive { nodes: 20, seed: 7 });
        let a = ChurnGenerator::new(ChurnModel::default_mixed(), 99).batch(&tree, 50);
        let b = ChurnGenerator::new(ChurnModel::default_mixed(), 99).batch(&tree, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn origin_and_topological_classification() {
        let op = ChurnOp::AddLeaf {
            parent: NodeId::from_index(3),
        };
        assert_eq!(op.origin(), NodeId::from_index(3));
        assert!(op.is_topological());
        assert!(!ChurnOp::Event {
            at: NodeId::from_index(1)
        }
        .is_topological());
    }
}
