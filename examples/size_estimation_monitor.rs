//! Size estimation in a dynamic overlay (Theorem 5.1): every peer keeps a
//! 2-approximation of the overlay size while peers join and leave, at a few
//! messages per change.
//!
//! The size estimator is a controller; this example drives it directly in
//! batches (`run_batch`), with churn operations from the shared workload
//! generators ([`ChurnOp::to_request`]).
//!
//! ```text
//! cargo run --example size_estimation_monitor
//! ```
//!
//! The overlay first doubles in size, then loses most of its peers again; the
//! estimate held by the nodes is printed next to the true size after every
//! churn wave and never drifts outside the factor-2 band.

use dcn::controller::Controller;
use dcn::estimator::SizeEstimator;
use dcn::simnet::SimConfig;
use dcn::workload::{build_tree, ChurnGenerator, ChurnModel, ChurnOp, TreeShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tree = build_tree(TreeShape::RandomRecursive { nodes: 63, seed: 1 });
    let mut estimator = SizeEstimator::new(SimConfig::new(11), tree, 2.0)?;

    println!("--- size estimation monitor (beta = 2) ---");
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12}",
        "wave", "true n", "estimate", "iterations", "msgs/change"
    );

    // Growth phase.
    let mut grow = ChurnGenerator::new(ChurnModel::GrowOnly, 2);
    for wave in 0..8 {
        let ops: Vec<_> = grow
            .batch(estimator.tree(), 16)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        estimator.run_batch(&ops)?;
        report(wave, &estimator);
    }
    // Shrink phase.
    let mut shrink = ChurnGenerator::new(ChurnModel::LeafChurn { insert_percent: 10 }, 3);
    for wave in 8..20 {
        let ops: Vec<_> = shrink
            .batch(estimator.tree(), 16)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        estimator.run_batch(&ops)?;
        report(wave, &estimator);
    }
    assert!(estimator.estimate_is_valid());
    Ok(())
}

fn report(wave: usize, estimator: &SizeEstimator) {
    let n = estimator.tree().node_count();
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12.1}   {}",
        wave,
        n,
        estimator.estimate(),
        estimator.iterations(),
        estimator.amortized_messages_per_change(),
        if estimator.estimate_is_valid() {
            "ok"
        } else {
            "OUT OF BAND"
        }
    );
}
