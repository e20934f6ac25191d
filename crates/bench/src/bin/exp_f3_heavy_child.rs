//! Experiment F3 (Lemma 5.3 / Theorem 5.4): subtree estimation and the
//! heavy-child decomposition.
//!
//! Growth-heavy scenarios driven through the shared `ScenarioRunner` over
//! the ticketed application runtime (no bespoke drive loop). Each row
//! reports the maximum number of light ancestors over all nodes (the
//! quantity the theorem bounds by `O(log n)`) against `log2 n`; the
//! light-depth invariant is checked at every quiescent point by the runner.

use dcn_bench::{print_table, sweep_sizes, Row};
use dcn_estimator::{Application, HeavyChildDecomposition};
use dcn_simnet::SimConfig;
use dcn_workload::{
    build_tree, ArrivalMode, ChurnModel, Placement, Scenario, ScenarioRunner, TreeShape,
};

fn main() {
    let sizes = sweep_sizes(&[32, 128, 512], &[32, 128]);
    let requests = if dcn_bench::quick_mode() { 80 } else { 200 };
    let mut rows = Vec::new();
    for &n in &sizes {
        for (shape_name, shape) in [
            ("star", TreeShape::Star { nodes: n - 1 }),
            ("path", TreeShape::Path { nodes: n - 1 }),
        ] {
            let scenario = Scenario {
                name: format!("f3-{shape_name}-n{n}"),
                shape,
                churn: ChurnModel::FullChurn {
                    add_leaf: 70,
                    add_internal: 10,
                    remove: 10,
                },
                placement: Placement::Uniform,
                arrival: ArrivalMode::Batch,
                requests,
                // The application derives its per-iteration budgets from the
                // live network size; the scenario's (M, W) is not used.
                m: requests as u64,
                w: 1,
                seed: 17,
            };
            let runner = ScenarioRunner::new(scenario.clone()).with_batch(10);
            // Built concretely (the light-ancestor read-out is not part of
            // the uniform report) but driven through the shared runner.
            let mut decomposition =
                HeavyChildDecomposition::new(SimConfig::new(scenario.seed), build_tree(shape))
                    .expect("params");
            let report = runner.run_app(&mut decomposition).expect("run");
            assert_eq!(
                report.invariant_violations, 0,
                "light-ancestor bound must hold: {:?}",
                report.first_violation
            );
            let n_now = decomposition.tree().node_count().max(2) as f64;
            rows.push(Row::new(
                "F3",
                format!(
                    "shape={shape_name} n0={n} final_n={} msgs={}",
                    n_now, report.messages
                ),
                decomposition.max_light_ancestors() as f64,
                n_now.log2(),
            ));
        }
    }
    print_table(
        "F3 — heavy-child decomposition: max light ancestors vs log2 n",
        &rows,
    );
}
