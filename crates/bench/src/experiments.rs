//! The ten experiments, one function each, and the table `dcn-exp` looks
//! them up in. [`EXPERIMENTS`] is the experiment index: id, the claim each
//! table is headed with, and the function that measures it. DESIGN.md §4
//! says which of the shared drivers (`SweepEngine`, [`run_family`],
//! [`ScenarioRunner::run`]) each one goes through, and why T2 alone keeps
//! a loop of its own.

use crate::{
    default_workers, iterated_bound, quick_mode, run_cells, run_family, sweep_sizes, Family, Row,
};
use dcn_controller::centralized::{IteratedController, RefreshPolicy};
use dcn_controller::Controller;
use dcn_estimator::{HeavyChildDecomposition, NameAssigner, SizeEstimator};
use dcn_simnet::SimConfig;
use dcn_workload::{
    build_tree, ArrivalMode, CellResult, ChurnGenerator, ChurnModel, Placement, RunReport,
    Scenario, ScenarioRunner, SweepCell, TreeShape,
};

/// One row of the experiment index.
pub struct Experiment {
    /// What `dcn-exp` takes on its command line (`t1` … `f5`).
    pub id: &'static str,
    /// The heading of the printed table: the claim and what it is measured
    /// against.
    pub title: &'static str,
    /// Runs the experiment (reduced under `DCN_QUICK`) and returns its rows.
    pub run: fn() -> Vec<Row>,
}

/// Every experiment, in paper order.
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        id: "t1",
        title: "T1 — centralized move complexity vs U·log²U·log(M/(W+1))",
        run: t1_centralized_moves,
    },
    Experiment {
        id: "t2",
        title:
            "T2 — adaptive (unknown U) move complexity vs (n0log²n0 + Σlog²n_j)·log(M/(W+1))",
        run: t2_adaptive_moves,
    },
    Experiment {
        id: "t3",
        title: "T3 — distributed message complexity vs U·log²U·log(M/(W+1))",
        run: t3_distributed_messages,
    },
    Experiment {
        id: "t4",
        title: "T4 — new controller vs AAPS (bound column) and trivial controller",
        run: t4_vs_baselines,
    },
    Experiment {
        id: "t5",
        title: "T5 — per-node memory (bits) vs O(deg·logN + log³N + log²U)",
        run: t5_memory,
    },
    Experiment {
        id: "f1",
        title:
            "F1 — size estimation: amortized messages per change vs log²n (violations must be 0)",
        run: f1_size_estimation,
    },
    Experiment {
        id: "f2",
        title:
            "F2 — name assignment: messages vs n0log²n0 + Σlog²n_j (ids must stay ≤ 4n, unique)",
        run: f2_name_assignment,
    },
    Experiment {
        id: "f3",
        title: "F3 — heavy-child decomposition: max light ancestors vs log2 n",
        run: f3_heavy_child,
    },
    Experiment {
        id: "f4",
        title: "F4 — safety/liveness: granted permits vs the liveness floor M−W under overload",
        run: f4_safety_liveness,
    },
    Experiment {
        id: "f5",
        title:
            "F5 — ablation: single-shot (measured) vs iterated (bound column) centralized controller",
        run: f5_ablation_iterations,
    },
];

/// Appends a controller cell of `family` over `scenario`.
fn push_cell(cells: &mut Vec<SweepCell>, family: &str, scenario: Scenario) {
    cells.push(SweepCell {
        index: cells.len(),
        family: family.to_string(),
        scenario,
    });
}

/// The run report of a controller cell, which must have swept clean.
///
/// # Panics
///
/// Panics on a cell that errored or violated a §2.2 condition (a bug in the
/// sweep definition or in the controller, either way not a row to print).
fn clean(cell: &CellResult) -> &RunReport {
    let name = &cell.cell.scenario.name;
    assert!(cell.violation.is_none(), "{name}: {:?}", cell.violation);
    cell.run_report()
        .unwrap_or_else(|| panic!("{name}: {:?}", cell.report))
}

/// Drives `app` through `runner`'s scenario.
///
/// # Panics
///
/// Panics on simulator errors (a bug in the sweep definition).
fn drive_app(runner: &ScenarioRunner, app: &mut dyn Controller) -> RunReport {
    runner
        .run(app)
        .unwrap_or_else(|e| panic!("{}: run failed: {e}", runner.scenario().name))
}

/// T1 (Lemma 3.3 / Observation 3.4): move complexity of the centralized
/// controller as the network size grows.
///
/// For each initial size `n`, a mixed-churn workload of `2n` requests is run
/// through the iterated centralized controller with `M = 2n`, `W = n/2`. The
/// measured moves are compared against the theoretical shape
/// `U · log²U · log(M/(W+1))`; the paper's claim holds when the ratio column
/// stays roughly flat (no super-logarithmic blow-up with `n`).
fn t1_centralized_moves() -> Vec<Row> {
    let sizes = sweep_sizes(&[64, 128, 256, 512, 1024, 2048], &[64, 256]);
    let mut cells = Vec::new();
    let mut row_meta = Vec::new();
    for &n in &sizes {
        for (shape_name, shape) in [
            ("path", TreeShape::Path { nodes: n - 1 }),
            (
                "random",
                TreeShape::RandomRecursive {
                    nodes: n - 1,
                    seed: 7,
                },
            ),
        ] {
            let requests = 2 * n;
            let m = (2 * n) as u64;
            let w = (n as u64 / 2).max(1);
            let scenario = Scenario {
                name: format!("t1-{shape_name}-n{n}").into(),
                shape,
                churn: ChurnModel::default_mixed(),
                placement: Placement::Uniform,
                arrival: ArrivalMode::Batch,
                requests,
                m,
                w,
                seed: n as u64,
            };
            push_cell(&mut cells, "iterated", scenario);
            let u_bound = n + requests + 1;
            row_meta.push((
                format!("shape={shape_name} n0={n} M={m} W={w} reqs={requests}"),
                iterated_bound(u_bound, m, w),
            ));
        }
    }
    let report = run_cells("t1", cells, default_workers());
    report
        .cells
        .iter()
        .zip(row_meta)
        .map(|(cell, (params, bound))| Row::new("T1", params, clean(cell).moves as f64, bound))
        .collect()
}

/// T2 (Theorem 3.5): move complexity of the adaptive centralized controller
/// when no bound on the number of nodes is known in advance.
///
/// The network starts tiny and grows by an order of magnitude through granted
/// insertions; the measured moves are compared against the per-change bound
/// `(n₀·log²n₀ + Σ_j log²n_j) · log(M/(W+1))` evaluated on the actual change
/// log, for both refresh policies of the theorem.
fn t2_adaptive_moves() -> Vec<Row> {
    let growth_targets = sweep_sizes(&[200, 500, 1000, 2000], &[200, 500]);
    let mut rows = Vec::new();
    for &target in &growth_targets {
        for (policy_name, policy) in [
            ("changes-U/4", RefreshPolicy::ChangesQuarterU),
            ("size-doubling", RefreshPolicy::SizeDoubling),
        ] {
            let n0 = 4usize;
            let m = (2 * target) as u64;
            let w = (target as u64 / 4).max(1);
            let mut tree = build_tree(TreeShape::Star { nodes: n0 - 1 });
            tree.record_changes();
            let mut ctrl = IteratedController::adaptive(tree, m, w, policy)
                .unwrap_or_else(|e| panic!("t2 target={target}: invalid parameters: {e}"));
            let mut gen = ChurnGenerator::new(
                ChurnModel::FullChurn {
                    add_leaf: 60,
                    add_internal: 15,
                    remove: 10,
                },
                target as u64,
            );
            while ctrl.tree().node_count() < target && !ctrl.is_exhausted() {
                let Some(op) = gen.next_op(ctrl.tree()) else {
                    continue;
                };
                let (at, kind) = op.to_request();
                let _ = ctrl.submit(at, kind);
            }
            let log = ctrl.tree().change_log();
            let n0f = (n0.max(2)) as f64;
            let ratio_term = ((m as f64) / (w as f64 + 1.0)).max(2.0).log2();
            let bound = (n0f.log2().powi(2) * n0f + log.sum_log2_squared()) * ratio_term;
            rows.push(Row::new(
                "T2",
                format!(
                    "policy={policy_name} n0={n0} -> n={} changes={} epochs={}",
                    ctrl.tree().node_count(),
                    log.len(),
                    ctrl.epochs()
                ),
                ctrl.metrics().moves as f64,
                bound,
            ));
        }
    }
    rows
}

/// T3 (Theorems 4.7 / 4.9): message complexity of the distributed controller
/// on the asynchronous network simulator.
///
/// Sweeps the network size and the asynchronous delay schedule (seed); the
/// measured message count is compared against the same
/// `U·log²U·log(M/(W+1))` shape as the centralized bound (Lemma 4.5 ties the
/// two together).
fn t3_distributed_messages() -> Vec<Row> {
    let sizes = sweep_sizes(&[32, 64, 128, 256, 512], &[32, 128]);
    let seeds: &[u64] = if quick_mode() { &[1] } else { &[1, 2, 3] };
    let mut cells = Vec::new();
    let mut bounds = Vec::new();
    for &n in &sizes {
        for &seed in seeds {
            let requests = n;
            let m = n as u64;
            let w = (n as u64 / 4).max(1);
            let scenario = Scenario {
                name: format!("t3-n{n}-s{seed}").into(),
                shape: TreeShape::RandomRecursive { nodes: n - 1, seed },
                churn: ChurnModel::default_mixed(),
                placement: Placement::Uniform,
                arrival: ArrivalMode::Batch,
                requests,
                m,
                w,
                seed,
            };
            push_cell(&mut cells, "distributed", scenario);
            bounds.push((n, seed, iterated_bound(n + requests + 1, m, w)));
        }
    }
    let report = run_cells("t3", cells, default_workers());
    report
        .cells
        .iter()
        .zip(bounds)
        .map(|(cell, (n, seed, bound))| {
            let r = clean(cell);
            Row::new(
                "T3",
                format!(
                    "n0={n} seed={seed} granted={} rejected={} final_n={}",
                    r.granted, r.rejected, r.final_nodes
                ),
                r.messages as f64,
                bound,
            )
        })
        .collect()
}

/// T4 (§1, §1.4): comparison against the AAPS bin-hierarchy controller and
/// the trivial root-walk controller.
///
/// On grow-only workloads (the only model AAPS supports) the new controller
/// should use no more messages than AAPS (up to constants), and both should
/// beat the trivial controller by a widening margin as the tree deepens. On
/// mixed churn the AAPS column is reported as refusals — that is the
/// qualitative point of the paper. Every family is a cell of the same
/// `SweepEngine` run over the *same* seeded scenario, so the rows compare
/// identical request streams.
fn t4_vs_baselines() -> Vec<Row> {
    /// Cells per size step: grow-only × {distributed, aaps, trivial} plus
    /// mixed-churn × {distributed, aaps}.
    const CELLS_PER_SIZE: usize = 5;

    let sizes = sweep_sizes(&[64, 128, 256, 512], &[64, 128]);
    let mut cells = Vec::new();
    for &n in &sizes {
        let base = Scenario {
            name: format!("t4-grow-n{n}").into(),
            shape: TreeShape::RandomRecursive {
                nodes: n - 1,
                seed: 3,
            },
            churn: ChurnModel::GrowOnly,
            placement: Placement::Uniform,
            arrival: ArrivalMode::Batch,
            requests: n,
            m: n as u64,
            w: (n as u64 / 2).max(1),
            seed: 5,
        };
        let mixed = Scenario {
            name: format!("t4-mixed-n{n}").into(),
            churn: ChurnModel::default_mixed(),
            seed: 6,
            ..base.clone()
        };
        for (family, scenario) in [
            ("distributed", &base),
            ("aaps", &base),
            ("trivial", &base),
            ("distributed", &mixed),
            ("aaps", &mixed),
        ] {
            push_cell(&mut cells, family, scenario.clone());
        }
    }
    let report = run_cells("t4", cells, default_workers());

    let mut rows = Vec::new();
    for (&n, step) in sizes.iter().zip(report.cells.chunks_exact(CELLS_PER_SIZE)) {
        let [ours, aaps, trivial, ours_mixed, aaps_mixed] =
            [0, 1, 2, 3, 4].map(|i| clean(&step[i]));

        rows.push(Row::new(
            "T4",
            format!("grow-only n0={n} ours={} msgs", ours.messages),
            ours.messages as f64,
            aaps.messages as f64,
        ));
        rows.push(Row::new(
            "T4",
            format!("grow-only n0={n} trivial vs ours"),
            trivial.messages as f64,
            ours.messages as f64,
        ));
        rows.push(Row::new(
            "T4",
            format!(
                "mixed-churn n0={n}: ours handles all, AAPS refuses {}/{} requests",
                aaps_mixed.refused,
                aaps_mixed.refused + aaps_mixed.submitted,
            ),
            ours_mixed.messages as f64,
            f64::NAN,
        ));
    }
    rows
}

/// T5 (Claim 4.8): per-node memory of the distributed controller.
///
/// After a demanding grow-only workload (one cell per shape × size), the
/// largest whiteboard (under the compressed per-level representation) is
/// measured in bits and compared against the claim
/// `O(deg(v)·log N + log³N + log²U)` evaluated at the *measured* final
/// network (grow-only churn raises node degrees well above the initial
/// shape's; the runner reports the final size and maximum degree).
fn t5_memory() -> Vec<Row> {
    let sizes = sweep_sizes(&[64, 128, 256, 512], &[64, 128]);
    let mut cells = Vec::new();
    let mut meta = Vec::new();
    for &n in &sizes {
        for (shape_name, shape) in [
            ("path", TreeShape::Path { nodes: n - 1 }),
            ("star", TreeShape::Star { nodes: n - 1 }),
            (
                "caterpillar",
                TreeShape::Caterpillar {
                    spine: n / 4,
                    legs: 3,
                },
            ),
        ] {
            let scenario = Scenario {
                name: format!("t5-{shape_name}-n{n}").into(),
                shape,
                churn: ChurnModel::GrowOnly,
                placement: Placement::Uniform,
                arrival: ArrivalMode::Batch,
                requests: n,
                m: n as u64,
                w: (n as u64 / 2).max(1),
                seed: 9,
            };
            push_cell(&mut cells, "distributed", scenario);
            meta.push((shape_name, n, shape.node_budget() + 1 + n + 1));
        }
    }
    let report = run_cells("t5", cells, default_workers());
    report
        .cells
        .iter()
        .zip(meta)
        .map(|(cell, (shape_name, n, u_bound))| {
            let r = clean(cell);
            let n_now = r.final_nodes.max(2) as f64;
            let log_n = n_now.log2();
            let log_u = (u_bound as f64).log2();
            let bound = r.final_max_degree as f64 * log_n + log_n.powi(3) + log_u.powi(2);
            Row::new(
                "T5",
                format!("shape={shape_name} n0={n} peak whiteboard"),
                r.peak_node_memory_bits as f64,
                bound,
            )
        })
        .collect()
}

/// F1 (Theorem 5.1): the size-estimation protocol.
///
/// Long mixed-churn scenarios for several approximation factors β. Each row
/// reports the amortized messages per topological change (compared against
/// the `log²n` shape) and the number of β-invariant violations observed at
/// the runner's quiescent checkpoints (the paper's guarantee is that there
/// are none).
fn f1_size_estimation() -> Vec<Row> {
    let sizes = sweep_sizes(&[64, 256, 1024], &[64, 256]);
    let betas = [1.5f64, 2.0, 3.0];
    let requests = if quick_mode() { 120 } else { 360 };
    let mut rows = Vec::new();
    for &n in &sizes {
        for &beta in &betas {
            let scenario = Scenario {
                name: format!("f1-n{n}-beta{beta}").into(),
                shape: TreeShape::RandomRecursive {
                    nodes: n - 1,
                    seed: 11,
                },
                churn: ChurnModel::FullChurn {
                    add_leaf: 40,
                    add_internal: 15,
                    remove: 45,
                },
                placement: Placement::Uniform,
                arrival: ArrivalMode::Batch,
                requests,
                // The application derives its per-iteration budgets from the
                // live network size; the scenario's (M, W) is not used.
                m: requests as u64,
                w: 1,
                seed: 11,
            };
            let runner = ScenarioRunner::new(scenario.clone()).with_batch(12);
            let mut app =
                SizeEstimator::new(SimConfig::new(scenario.seed), runner.initial_tree(), beta)
                    .unwrap_or_else(|e| panic!("{}: invalid parameters: {e}", scenario.name));
            let report = drive_app(&runner, &mut app);
            let n_now = report.final_nodes.max(2) as f64;
            let bound = n_now.log2().powi(2);
            rows.push(Row::new(
                "F1",
                format!(
                    "n0={n} beta={beta} iterations={} changes={} violations={}",
                    report.iterations, report.changes, report.invariant_violations
                ),
                report.amortized_messages_per_change(),
                bound,
            ));
        }
    }
    rows
}

/// F2 (Theorem 5.2): the name-assignment protocol.
///
/// Each row reports the largest identity relative to the final network size
/// (the paper guarantees ≤ 4n), the invariant violations observed at the
/// runner's quiescent checkpoints (must be 0) and the total message count
/// compared with the `(n₀log²n₀ + Σ log²n_j)` shape.
fn f2_name_assignment() -> Vec<Row> {
    let sizes = sweep_sizes(&[64, 256, 512], &[64, 256]);
    let requests = if quick_mode() { 100 } else { 300 };
    let mut rows = Vec::new();
    for &n in &sizes {
        let scenario = Scenario {
            name: format!("f2-n{n}").into(),
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
        let mut tree = build_tree(scenario.shape);
        tree.record_changes();
        let mut names = NameAssigner::new(SimConfig::new(scenario.seed), tree)
            .unwrap_or_else(|e| panic!("{}: invalid parameters: {e}", scenario.name));
        let report = drive_app(&runner, &mut names);
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
    rows
}

/// F3 (Lemma 5.3 / Theorem 5.4): subtree estimation and the heavy-child
/// decomposition.
///
/// Growth-heavy scenarios; each row reports the maximum number of light
/// ancestors over all nodes (the quantity the theorem bounds by `O(log n)`)
/// against `log2 n`; the light-depth invariant is checked at every quiescent
/// point by the runner.
fn f3_heavy_child() -> Vec<Row> {
    let sizes = sweep_sizes(&[32, 128, 512], &[32, 128]);
    let requests = if quick_mode() { 80 } else { 200 };
    let mut rows = Vec::new();
    for &n in &sizes {
        for (shape_name, shape) in [
            ("star", TreeShape::Star { nodes: n - 1 }),
            ("path", TreeShape::Path { nodes: n - 1 }),
        ] {
            let scenario = Scenario {
                name: format!("f3-{shape_name}-n{n}").into(),
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
                    .unwrap_or_else(|e| panic!("{}: invalid parameters: {e}", scenario.name));
            let report = drive_app(&runner, &mut decomposition);
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
    rows
}

/// F4 (§2.2): safety and liveness across the (M, W) space.
///
/// The network is overloaded with more requests than the budget `M` for a
/// sweep of waste bounds `W` (including `W = 0` and `W = M`), on both the
/// centralized and the distributed controllers. Each row reports the number
/// of granted permits against the liveness floor `M − W` (the measured value
/// must lie in `[M − W, M]`; the `violations` field counts runs where it did
/// not — it must stay 0).
fn f4_safety_liveness() -> Vec<Row> {
    let sizes = sweep_sizes(&[64, 256], &[64]);
    let mut rows = Vec::new();
    for &n in &sizes {
        let m = (n / 2) as u64;
        let waste_sweep = [0u64, 1, m / 4, m / 2, m];
        for &w in &waste_sweep {
            let scenario = Scenario {
                name: format!("f4-n{n}-w{w}").into(),
                shape: TreeShape::RandomRecursive {
                    nodes: n - 1,
                    seed: 19,
                },
                churn: ChurnModel::EventsOnly,
                placement: Placement::Uniform,
                arrival: ArrivalMode::Batch,
                requests: 2 * m as usize,
                m,
                w,
                seed: 19,
            };
            // The iterated family handles W = 0; the base distributed
            // controller requires W >= 1.
            for (label, family) in [
                ("centralized", Family::Iterated),
                ("distributed", Family::Distributed),
            ] {
                if family == Family::Distributed && w == 0 {
                    continue;
                }
                let report = run_family(family, &scenario);
                let ok = report.check().is_ok();
                rows.push(Row::new(
                    "F4",
                    format!("{label} n={n} M={m} W={w} violations={}", u32::from(!ok)),
                    report.granted as f64,
                    (m - w) as f64,
                ));
            }
        }
    }
    rows
}

/// F5 (ablation): the iteration trick of Observation 3.4.
///
/// For a fixed network and a small waste bound, the single-shot controller
/// pays a factor `M/W` in its move complexity while the iterated controller
/// only pays `log(M/(W+1))`. Sweeping `M` with `W = 1` makes the difference
/// visible: the ratio column (single-shot / iterated) should grow roughly
/// linearly with `M`. Both families run the *same* seeded scenario.
fn f5_ablation_iterations() -> Vec<Row> {
    let budgets = sweep_sizes(&[200, 500, 1000, 2000, 4000], &[200, 1000]);
    // Deep path: the distance scale psi must be well below the depth for
    // the package hierarchy (and thus the iteration trick) to engage at all;
    // at shallow depths both families degenerate to direct root-to-node
    // moves and measure identically.
    let n = 2048usize;
    let mut rows = Vec::new();
    for &m_usize in &budgets {
        let m = m_usize as u64;
        let scenario = Scenario {
            name: format!("f5-m{m}").into(),
            shape: TreeShape::Path { nodes: n - 1 },
            churn: ChurnModel::EventsOnly,
            placement: Placement::Uniform,
            arrival: ArrivalMode::Batch,
            requests: m as usize,
            m,
            w: 1,
            seed: 13,
        };

        let single = run_family(Family::Centralized, &scenario);
        let iterated = run_family(Family::Iterated, &scenario);

        rows.push(Row::new(
            "F5",
            format!("n={n} W=1 M={m}: single-shot moves vs iterated moves"),
            single.moves as f64,
            iterated.moves as f64,
        ));
    }
    rows
}
