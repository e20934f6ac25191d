//! An overlay "directory" layer built from the §5 applications: short unique
//! node names (Theorem 5.2), a heavy-child decomposition for O(log n) path
//! decompositions (Theorem 5.4), and ancestry labels that answer
//! "is peer u upstream of peer v?" locally (Corollary 5.7) — all maintained
//! while the overlay changes.
//!
//! Each §5 application is a controller; this example drives them directly
//! in batches (`run_batch`), with churn operations from the shared workload
//! generators ([`ChurnOp::to_request`]).
//!
//! ```text
//! cargo run --example overlay_directory
//! ```

use dcn::controller::Controller;
use dcn::estimator::{AncestryLabeling, HeavyChildDecomposition, NameAssigner};
use dcn::simnet::SimConfig;
use dcn::workload::{build_tree, ChurnGenerator, ChurnModel, ChurnOp, TreeShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- overlay directory ---");

    // 1. Short names under churn.
    let tree = build_tree(TreeShape::RandomRecursive { nodes: 31, seed: 5 });
    let mut names = NameAssigner::new(SimConfig::new(21), tree)?;
    let mut churn = ChurnGenerator::new(ChurnModel::default_mixed(), 6);
    for _ in 0..10 {
        let ops: Vec<_> = churn
            .batch(names.tree(), 8)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        names.run_batch(&ops)?;
        names
            .check_invariants()
            .expect("names stay unique and short");
    }
    let n = names.tree().node_count() as u64;
    let max_id = names.ids().map(|(_, id)| id).max().unwrap_or(0);
    println!(
        "names: {} peers, largest identity {} (bound 4n = {}), {} renamings, {} messages",
        n,
        max_id,
        4 * n,
        names.iterations(),
        names.metrics().messages
    );

    // 2. Heavy-child decomposition for light-depth routing structures.
    let tree = build_tree(TreeShape::Star { nodes: 15 });
    let mut heavy = HeavyChildDecomposition::new(SimConfig::new(22), tree)?;
    let mut growth = ChurnGenerator::new(ChurnModel::GrowOnly, 7);
    for _ in 0..10 {
        let ops: Vec<_> = growth
            .batch(heavy.tree(), 10)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        heavy.run_batch(&ops)?;
    }
    heavy
        .check_light_depth()
        .expect("light depth stays logarithmic");
    println!(
        "heavy-child: {} peers, max light ancestors {} (log2 n = {:.1})",
        heavy.tree().node_count(),
        heavy.max_light_ancestors(),
        (heavy.tree().node_count() as f64).log2()
    );

    // 3. Ancestry labels that survive departures.
    let tree = build_tree(TreeShape::Balanced {
        nodes: 62,
        arity: 2,
    });
    let mut labels = AncestryLabeling::new(SimConfig::new(23), tree)?;
    let mut departures = ChurnGenerator::new(ChurnModel::LeafChurn { insert_percent: 5 }, 8);
    for _ in 0..12 {
        let ops: Vec<_> = departures
            .batch(labels.tree(), 6)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        labels.run_batch(&ops)?;
        labels
            .check_invariants()
            .expect("labels stay correct and short");
    }
    let root = labels.tree().root();
    let some_leaf = labels
        .tree()
        .nodes()
        .max_by_key(|&v| labels.tree().depth(v))
        .unwrap();
    println!(
        "ancestry labels: {} peers survive, {} relabelings, root-is-ancestor-of-deepest = {:?}, max label bits = {}",
        labels.tree().node_count(),
        labels.relabels(),
        labels.is_ancestor(root, some_leaf),
        labels.max_label_bits()
    );
    Ok(())
}
