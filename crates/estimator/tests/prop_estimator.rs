//! Property-style tests for the §5 applications: their invariants must hold
//! after every batch, for random churn mixes, random seeds and random batch
//! sizes.
//!
//! The build environment has no proptest, so each property runs a fixed
//! number of seeded random cases through `dcn-rng`: every failure is
//! reproducible from its printed case seed.

use dcn_controller::{Controller, RequestKind};
use dcn_estimator::{AncestryLabeling, HeavyChildDecomposition, NameAssigner, SizeEstimator};
use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_simnet::SimConfig;
use dcn_tree::{DynamicTree, NodeId};

const CASES: u64 = 16;

#[derive(Clone, Copy, Debug)]
enum Op {
    AddLeaf(usize),
    AddInternal(usize),
    Remove(usize),
}

/// Draws one operation with the weights 3 : 1 : 2 (mirroring the old
/// proptest strategy).
fn random_op(rng: &mut DetRng) -> Op {
    let k = rng.gen_range(0usize..128);
    match rng.gen_range(0u32..6) {
        0..=2 => Op::AddLeaf(k),
        3 => Op::AddInternal(k),
        _ => Op::Remove(k),
    }
}

fn random_ops(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<Op> {
    let len = rng.gen_range(lo..=hi);
    (0..len).map(|_| random_op(rng)).collect()
}

fn concretize(tree: &DynamicTree, op: Op) -> Option<(NodeId, RequestKind)> {
    let nodes: Vec<NodeId> = tree.nodes().collect();
    concretize_among(tree, &nodes, op)
}

/// Like [`concretize`], with the operation's node drawn from `nodes`.
fn concretize_among(tree: &DynamicTree, nodes: &[NodeId], op: Op) -> Option<(NodeId, RequestKind)> {
    match op {
        Op::AddLeaf(k) => Some((nodes[k % nodes.len()], RequestKind::AddLeaf)),
        Op::AddInternal(k) => {
            let child = nodes[k % nodes.len()];
            let parent = tree.parent(child)?;
            Some((parent, RequestKind::AddInternalAbove(child)))
        }
        Op::Remove(k) => {
            let node = nodes[k % nodes.len()];
            if node == tree.root() {
                None
            } else {
                Some((node, RequestKind::RemoveSelf))
            }
        }
    }
}

/// The size estimate never leaves the β-band, for random churn and seeds.
#[test]
fn size_estimation_invariant_holds() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case);
        let ops = random_ops(&mut rng, 1, 60);
        let seed = rng.gen_range(0u64..1_000);
        let n0 = rng.gen_range(4usize..24);
        let beta = rng.gen_range(125u32..300) as f64 / 100.0;
        let tree = DynamicTree::with_initial_star(n0);
        let mut est = SizeEstimator::new(SimConfig::new(seed), tree, beta).unwrap();
        for chunk in ops.chunks(6) {
            let batch: Vec<(NodeId, RequestKind)> = chunk
                .iter()
                .filter_map(|&op| concretize(est.tree(), op))
                .collect();
            est.run_batch(&batch).unwrap();
            assert!(
                est.estimate_is_valid(),
                "case {case}: estimate {} out of band for n = {} (beta = {beta})",
                est.estimate(),
                est.tree().node_count()
            );
            assert!(est.tree().check_invariants().is_ok(), "case {case}");
        }
    }
}

/// Name assignment: identities stay unique and within [1, 4n] after every
/// batch of random churn.
#[test]
fn name_assignment_invariants_hold() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(1_000 + case);
        let ops = random_ops(&mut rng, 1, 50);
        let seed = rng.gen_range(0u64..1_000);
        let n0 = rng.gen_range(4usize..20);
        let tree = DynamicTree::with_initial_star(n0);
        let mut names = NameAssigner::new(SimConfig::new(seed), tree).unwrap();
        for chunk in ops.chunks(5) {
            let batch: Vec<(NodeId, RequestKind)> = chunk
                .iter()
                .filter_map(|&op| concretize(names.tree(), op))
                .collect();
            names.run_batch(&batch).unwrap();
            names
                .check_invariants()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

/// Heavy-child decomposition: the light-ancestor bound holds after every
/// batch.
#[test]
fn heavy_child_light_depth_holds() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(2_000 + case);
        let ops = random_ops(&mut rng, 1, 40);
        let seed = rng.gen_range(0u64..500);
        let n0 = rng.gen_range(4usize..16);
        let tree = DynamicTree::with_initial_star(n0);
        let mut heavy = HeavyChildDecomposition::new(SimConfig::new(seed), tree).unwrap();
        for chunk in ops.chunks(5) {
            let batch: Vec<(NodeId, RequestKind)> = chunk
                .iter()
                .filter_map(|&op| concretize(heavy.tree(), op))
                .collect();
            heavy.run_batch(&batch).unwrap();
            heavy
                .check_light_depth()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

/// Ancestry labeling: labels stay present, correct and short after every
/// batch (churn skewed towards deletions, the case the corollary covers).
#[test]
fn ancestry_labeling_invariants_hold() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(3_000 + case);
        let ops = random_ops(&mut rng, 1, 40);
        let seed = rng.gen_range(0u64..500);
        let n0 = rng.gen_range(8usize..32);
        let tree = DynamicTree::with_initial_star(n0);
        let mut labels = AncestryLabeling::new(SimConfig::new(seed), tree).unwrap();
        for chunk in ops.chunks(5) {
            let batch: Vec<(NodeId, RequestKind)> = chunk
                .iter()
                .filter_map(|&op| concretize(labels.tree(), op))
                .collect();
            labels.run_batch(&batch).unwrap();
            labels
                .check_invariants()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

/// Ancestry labeling under insertion-heavy churn (add-leaf 3 : add-internal
/// 2 : remove 1): each batch is submitted in three parts with a short step
/// after each, and a later part puts most of its operations on nodes the
/// batch created, so new leaves and splits land under new nodes. Labels stay
/// present, correct and short after every step.
#[test]
fn ancestry_labeling_invariants_hold_under_insertions() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(4_000 + case);
        let seed = rng.gen_range(0u64..500);
        let n0 = rng.gen_range(4usize..24);
        let tree = DynamicTree::with_initial_star(n0);
        let mut labels = AncestryLabeling::new(SimConfig::new(seed), tree).unwrap();
        for _ in 0..6 {
            let first_new = labels.tree().total_created();
            for _ in 0..3 {
                let tree = labels.tree();
                let all: Vec<NodeId> = tree.nodes().collect();
                let fresh: Vec<NodeId> = tree.nodes().filter(|v| v.index() >= first_new).collect();
                let mut batch = Vec::new();
                for _ in 0..rng.gen_range(1usize..6) {
                    let k = rng.gen_range(0usize..128);
                    let op = match rng.gen_range(0u32..6) {
                        0..=2 => Op::AddLeaf(k),
                        3..=4 => Op::AddInternal(k),
                        _ => Op::Remove(k),
                    };
                    let pool = if fresh.is_empty() || rng.gen_bool(0.25) {
                        &all
                    } else {
                        &fresh
                    };
                    batch.extend(concretize_among(tree, pool, op));
                }
                for (at, kind) in batch {
                    labels.submit(at, kind).unwrap();
                }
                labels.step(rng.gen_range(1u64..64)).unwrap();
                labels
                    .check_invariants()
                    .unwrap_or_else(|e| panic!("case {case}: {e}"));
            }
            labels.run_to_quiescence().unwrap();
            labels
                .check_invariants()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}
