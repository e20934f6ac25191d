//! Experiment F2 (Theorem 5.2): the name-assignment protocol.
//!
//! Mixed-churn scenarios driven through the shared `ScenarioRunner` over the
//! ticketed application runtime (no bespoke drive loop). Each row reports the
//! largest identity relative to the final network size (the paper guarantees
//! ≤ 4n), the invariant violations observed at the runner's quiescent
//! checkpoints (must be 0) and the total message count compared with the
//! `(n₀log²n₀ + Σ log²n_j)` shape.

use dcn_bench::{print_table, sweep_sizes, Row};
use dcn_estimator::{Application, NameAssigner};
use dcn_simnet::SimConfig;
use dcn_workload::{
    build_tree, ArrivalMode, ChurnModel, Placement, Scenario, ScenarioRunner, TreeShape,
};

fn main() {
    let sizes = sweep_sizes(&[64, 256, 512], &[64, 256]);
    let requests = if dcn_bench::quick_mode() { 100 } else { 300 };
    let mut rows = Vec::new();
    for &n in &sizes {
        let scenario = Scenario {
            name: format!("f2-n{n}"),
            shape: TreeShape::RandomRecursive {
                nodes: n - 1,
                seed: 13,
            },
            churn: ChurnModel::FullChurn {
                add_leaf: 45,
                add_internal: 15,
                remove: 35,
            },
            placement: Placement::Uniform,
            arrival: ArrivalMode::Batch,
            requests,
            // The application derives its per-iteration budgets from the
            // live network size; the scenario's (M, W) is not used.
            m: requests as u64,
            w: 1,
            seed: 13,
        };
        let runner = ScenarioRunner::new(scenario.clone()).with_batch(10);
        // Build concretely (so the identity table stays inspectable) but
        // drive through the same runner as every other family.
        let mut names =
            NameAssigner::new(SimConfig::new(scenario.seed), build_tree(scenario.shape))
                .expect("params");
        let report = runner.run_app(&mut names).expect("run");
        let n_now = names.tree().node_count().max(1) as f64;
        let max_id = names.ids().map(|(_, id)| id).max().unwrap_or(0) as f64;
        let log = names.tree().change_log();
        let n0f = n as f64;
        let bound = n0f * n0f.log2().powi(2) + log.sum_log2_squared();
        rows.push(Row::new(
            "F2",
            format!(
                "n0={n} renamings={} max_id/n={:.2} violations={}",
                report.iterations,
                max_id / n_now,
                report.invariant_violations
            ),
            report.messages as f64,
            bound,
        ));
    }
    print_table(
        "F2 — name assignment: messages vs n0log²n0 + Σlog²n_j (ids must stay ≤ 4n, unique)",
        &rows,
    );
}
