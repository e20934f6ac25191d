//! Initial tree shapes.

use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_tree::{DynamicTree, NodeId};

/// The shape of the initial spanning tree.
///
/// The controller's cost depends heavily on node depths (permits travel along
/// root-to-node paths), so experiments sweep over shapes with very different
/// depth profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeShape {
    /// A single path of the given depth hanging off the root: the worst case
    /// for permit travel distance.
    Path {
        /// Number of non-root nodes.
        nodes: usize,
    },
    /// All nodes attached directly to the root: the best case.
    Star {
        /// Number of non-root nodes.
        nodes: usize,
    },
    /// A complete `arity`-ary tree truncated to the given node count.
    Balanced {
        /// Number of non-root nodes.
        nodes: usize,
        /// Children per node.
        arity: usize,
    },
    /// A random recursive tree: each new node picks a uniformly random parent
    /// among the existing nodes (expected depth `O(log n)`).
    RandomRecursive {
        /// Number of non-root nodes.
        nodes: usize,
        /// Seed for the parent choices.
        seed: u64,
    },
    /// A "caterpillar": a path spine with `legs` leaves attached to each spine
    /// node — deep and wide at the same time.
    Caterpillar {
        /// Number of spine (path) nodes.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// Degree-biased random attachment (Barabási–Albert-style): each new node
    /// picks a parent with probability proportional to `1 + child-degree`.
    /// Produces the hub-dominated skewed-degree trees typical of real
    /// overlays — shallower than random recursive but with a few very wide
    /// nodes.
    PreferentialAttachment {
        /// Number of non-root nodes.
        nodes: usize,
        /// Seed for the attachment choices.
        seed: u64,
    },
    /// A "spider": `legs` disjoint paths of `leg_length` nodes hanging off the
    /// root — maximal depth in several independent directions at once, the
    /// multi-branch analogue of [`TreeShape::Path`].
    Spider {
        /// Number of paths hanging off the root.
        legs: usize,
        /// Nodes per path.
        leg_length: usize,
    },
}

impl TreeShape {
    /// Number of non-root nodes this shape will create.
    pub fn node_budget(&self) -> usize {
        match *self {
            TreeShape::Path { nodes }
            | TreeShape::Star { nodes }
            | TreeShape::Balanced { nodes, .. }
            | TreeShape::RandomRecursive { nodes, .. }
            | TreeShape::PreferentialAttachment { nodes, .. } => nodes,
            TreeShape::Caterpillar { spine, legs } => spine * (legs + 1),
            TreeShape::Spider { legs, leg_length } => legs * leg_length,
        }
    }
}

/// Builds the initial tree for a shape (the pre-existing network `n0`) in
/// one pass from the parent of each node, ids in creation order. Like every
/// built tree it has made no changes and keeps no change log.
pub fn build_tree(shape: TreeShape) -> DynamicTree {
    let n = shape.node_budget();
    match shape {
        TreeShape::Path { nodes } => DynamicTree::with_initial_path(nodes),
        TreeShape::Star { nodes } => DynamicTree::with_initial_star(nodes),
        // Level by level, `arity` children a node.
        TreeShape::Balanced { arity, .. } => {
            let arity = arity.max(1);
            DynamicTree::from_parents(n, |i| (i - 1) / arity)
        }
        TreeShape::RandomRecursive { seed, .. } => {
            let mut rng = DetRng::seed_from_u64(seed);
            DynamicTree::from_parents(n, |i| rng.gen_range(0..i))
        }
        // Each spine node, then its legs.
        TreeShape::Caterpillar { legs, .. } => {
            DynamicTree::from_parents(n, |i| match (i - 1) % (legs + 1) {
                0 => i.saturating_sub(legs + 1),
                leg => i - leg,
            })
        }
        TreeShape::PreferentialAttachment { seed, .. } => {
            let mut rng = DetRng::seed_from_u64(seed);
            // Each node appears once plus once per child, so a uniform draw
            // from this list is a draw proportional to `1 + child-degree`.
            let mut endpoints = Vec::with_capacity(2 * n + 1);
            endpoints.push(0);
            DynamicTree::from_parents(n, |i| {
                let parent = endpoints[rng.gen_range(0..endpoints.len())];
                endpoints.extend([parent, i]);
                parent
            })
        }
        // One leg after another, each a path off the root.
        TreeShape::Spider { leg_length, .. } => {
            DynamicTree::from_parents(n, |i| if (i - 1) % leg_length == 0 { 0 } else { i - 1 })
        }
    }
}

/// Picks a random existing node, optionally excluding the root.
pub(crate) fn random_node<R: Rng>(
    tree: &DynamicTree,
    rng: &mut R,
    exclude_root: bool,
) -> Option<NodeId> {
    // The one draw a slice's `choose` makes over the same candidates, taken
    // without collecting them: the root is always live.
    let len = tree.node_count() - usize::from(exclude_root);
    if len == 0 {
        return None;
    }
    let k = rng.gen_range(0..len);
    tree.nodes()
        .filter(|&n| !(exclude_root && n == tree.root()))
        .nth(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shapes_build_consistent_trees_of_the_declared_size() {
        let shapes = [
            TreeShape::Path { nodes: 17 },
            TreeShape::Star { nodes: 17 },
            TreeShape::Balanced {
                nodes: 17,
                arity: 3,
            },
            TreeShape::RandomRecursive { nodes: 17, seed: 5 },
            TreeShape::Caterpillar { spine: 4, legs: 3 },
            TreeShape::PreferentialAttachment { nodes: 17, seed: 5 },
            TreeShape::Spider {
                legs: 3,
                leg_length: 6,
            },
        ];
        for shape in shapes {
            let tree = build_tree(shape);
            assert_eq!(tree.node_count(), shape.node_budget() + 1, "{shape:?}");
            assert!(tree.check_invariants().is_ok(), "{shape:?}");
            assert!(tree.change_log().is_empty(), "{shape:?}");
        }
    }

    /// The builder `build_tree` replaced: one `add_leaf` at a time, so the
    /// one-pass build can be held against it.
    fn add_leaf_reference(shape: TreeShape) -> DynamicTree {
        let mut tree = DynamicTree::new();
        let root = tree.root();
        let grow = |tree: &mut DynamicTree, parent| tree.add_leaf(parent).unwrap();
        match shape {
            TreeShape::Path { nodes } => {
                let mut cur = root;
                for _ in 0..nodes {
                    cur = grow(&mut tree, cur);
                }
            }
            TreeShape::Star { nodes } => {
                for _ in 0..nodes {
                    grow(&mut tree, root);
                }
            }
            TreeShape::Balanced { nodes, arity } => {
                let mut frontier = vec![root];
                let mut next_frontier = Vec::new();
                let mut created = 0;
                'outer: loop {
                    for &parent in &frontier {
                        for _ in 0..arity.max(1) {
                            if created == nodes {
                                break 'outer;
                            }
                            next_frontier.push(grow(&mut tree, parent));
                            created += 1;
                        }
                    }
                    frontier = std::mem::take(&mut next_frontier);
                }
            }
            TreeShape::RandomRecursive { nodes, seed } => {
                let mut rng = DetRng::seed_from_u64(seed);
                let mut existing = vec![root];
                for _ in 0..nodes {
                    let parent = existing[rng.gen_range(0..existing.len())];
                    existing.push(grow(&mut tree, parent));
                }
            }
            TreeShape::Caterpillar { spine, legs } => {
                let mut cur = root;
                for _ in 0..spine {
                    cur = grow(&mut tree, cur);
                    for _ in 0..legs {
                        grow(&mut tree, cur);
                    }
                }
            }
            TreeShape::PreferentialAttachment { nodes, seed } => {
                let mut rng = DetRng::seed_from_u64(seed);
                let mut endpoints = vec![root];
                for _ in 0..nodes {
                    let parent = endpoints[rng.gen_range(0..endpoints.len())];
                    let child = grow(&mut tree, parent);
                    endpoints.extend([parent, child]);
                }
            }
            TreeShape::Spider { legs, leg_length } => {
                for _ in 0..legs {
                    let mut cur = root;
                    for _ in 0..leg_length {
                        cur = grow(&mut tree, cur);
                    }
                }
            }
        }
        tree
    }

    /// Every shape, at sizes from empty to 1 000 nodes and over 20 seeds,
    /// builds the tree the `add_leaf` loop builds: the same ids, parents,
    /// child order and depths, and no changes made.
    #[test]
    fn every_shape_builds_what_an_add_leaf_loop_builds() {
        for size in [0, 1, 2, 3, 7, 17, 64, 255, 1000] {
            for seed in 0..20u64 {
                let (arity, legs) = (1 + seed as usize % 5, seed as usize % 4);
                let shapes = [
                    TreeShape::Path { nodes: size },
                    TreeShape::Star { nodes: size },
                    TreeShape::Balanced { nodes: size, arity },
                    TreeShape::RandomRecursive { nodes: size, seed },
                    TreeShape::Caterpillar {
                        spine: size / (legs + 1),
                        legs,
                    },
                    TreeShape::PreferentialAttachment { nodes: size, seed },
                    TreeShape::Spider {
                        legs: legs + 1,
                        leg_length: size / (legs + 1),
                    },
                ];
                for shape in shapes {
                    let (built, reference) = (build_tree(shape), add_leaf_reference(shape));
                    assert!(built.nodes().eq(reference.nodes()), "{shape:?}");
                    for v in built.nodes() {
                        assert_eq!(built.parent(v), reference.parent(v), "{shape:?} {v}");
                        assert!(
                            built
                                .children(v)
                                .unwrap()
                                .eq(reference.children(v).unwrap()),
                            "{shape:?} {v}"
                        );
                        assert_eq!(built.depth(v), reference.depth(v), "{shape:?} {v}");
                    }
                    assert_eq!(built.node_count(), reference.node_count(), "{shape:?}");
                    assert_eq!(built.node_count(), shape.node_budget() + 1, "{shape:?}");
                    assert_eq!(built.total_created(), reference.total_created());
                    assert_eq!(built.changes(), 0, "{shape:?}");
                    assert!(built.check_invariants().is_ok(), "{shape:?}");
                }
            }
        }
    }

    #[test]
    fn path_is_deep_and_star_is_flat() {
        let path = build_tree(TreeShape::Path { nodes: 50 });
        let star = build_tree(TreeShape::Star { nodes: 50 });
        let max_depth = |t: &DynamicTree| t.nodes().map(|n| t.depth(n)).max().unwrap();
        assert_eq!(max_depth(&path), 50);
        assert_eq!(max_depth(&star), 1);
    }

    #[test]
    fn balanced_tree_has_logarithmic_depth() {
        let tree = build_tree(TreeShape::Balanced {
            nodes: 100,
            arity: 2,
        });
        let max_depth = tree.nodes().map(|n| tree.depth(n)).max().unwrap();
        assert!(
            max_depth <= 8,
            "depth {max_depth} too large for a binary tree of 101 nodes"
        );
    }

    #[test]
    fn random_recursive_trees_are_reproducible_per_seed() {
        let a = build_tree(TreeShape::RandomRecursive { nodes: 40, seed: 9 });
        let b = build_tree(TreeShape::RandomRecursive { nodes: 40, seed: 9 });
        let parents = |t: &DynamicTree| t.nodes().map(|n| t.parent(n)).collect::<Vec<_>>();
        assert_eq!(parents(&a), parents(&b));
    }

    /// The pick is the one the old collect-and-`choose` made, draw for draw,
    /// on trees that have lost nodes (so the live ids have gaps).
    #[test]
    fn random_node_picks_what_collect_and_choose_picked() {
        use dcn_rng::SliceRandom;
        fn collected<R: Rng>(
            tree: &DynamicTree,
            rng: &mut R,
            exclude_root: bool,
        ) -> Option<NodeId> {
            let nodes: Vec<NodeId> = tree
                .nodes()
                .filter(|&n| !(exclude_root && n == tree.root()))
                .collect();
            nodes.choose(rng).copied()
        }
        for seed in 0..1_000u64 {
            let mut grow = DetRng::seed_from_u64(seed);
            let mut tree = build_tree(TreeShape::RandomRecursive {
                nodes: (seed % 40) as usize,
                seed,
            });
            for _ in 0..seed % 30 {
                if let Some(v) = collected(&tree, &mut grow, true) {
                    tree.remove(v).unwrap();
                }
            }
            for exclude_root in [false, true] {
                let mut ours = DetRng::seed_from_u64(seed ^ 0x5eed);
                let mut old = ours.clone();
                for _ in 0..4 {
                    assert_eq!(
                        random_node(&tree, &mut ours, exclude_root),
                        collected(&tree, &mut old, exclude_root),
                        "seed {seed}, exclude_root {exclude_root}"
                    );
                }
                assert_eq!(ours.gen::<u64>(), old.gen::<u64>(), "seed {seed}");
            }
        }
    }

    #[test]
    fn caterpillar_budget_matches() {
        assert_eq!(
            TreeShape::Caterpillar { spine: 4, legs: 3 }.node_budget(),
            16
        );
    }

    #[test]
    fn preferential_attachment_skews_degrees_and_is_reproducible() {
        let shape = TreeShape::PreferentialAttachment {
            nodes: 200,
            seed: 11,
        };
        let a = build_tree(shape);
        let b = build_tree(shape);
        let parents = |t: &DynamicTree| t.nodes().map(|n| t.parent(n)).collect::<Vec<_>>();
        assert_eq!(parents(&a), parents(&b));
        // Degree-biased attachment produces hubs far wider than uniform
        // attachment does on average (200 nodes / max uniform degree ≈ 8).
        let max_deg = a.nodes().map(|n| a.child_degree(n).unwrap()).max().unwrap();
        assert!(max_deg >= 12, "max degree {max_deg} not hub-like");
    }

    #[test]
    fn spider_has_leg_count_many_maximal_paths() {
        let tree = build_tree(TreeShape::Spider {
            legs: 4,
            leg_length: 7,
        });
        assert_eq!(tree.node_count(), 29);
        assert_eq!(tree.child_degree(tree.root()).unwrap(), 4);
        let deepest = tree.nodes().filter(|&n| tree.depth(n) == 7).count();
        assert_eq!(deepest, 4, "each leg ends at depth 7");
    }
}
