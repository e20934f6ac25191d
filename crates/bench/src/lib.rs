//! # dcn-bench — experiment harness
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems bounding
//! the move/message complexity of the controller and of the protocols built on
//! it. This crate reproduces every one of those claims as a measurable
//! experiment: [`experiments::EXPERIMENTS`] is the index (ids T1–T5, F1–F5,
//! each with the claim it checks), `dcn-exp <id|all>` runs them, and
//! EXPERIMENTS.md holds recorded results. `dcn-sweep` runs the diversified
//! grids defined here ([`full_grid`], [`quick_grid`]).
//!
//! Controller experiments are expressed as [`Scenario`]s and executed through
//! the shared [`ScenarioRunner`] — one driver loop for every
//! [`Controller`](dcn_controller::Controller) family ([`Family`] enumerates
//! them, [`run_family`] builds and drives one); the §5 applications are
//! controllers too (`Family::App(`[`AppFamily`]`)`), and their experiments
//! run through the same [`ScenarioRunner::run`].
//!
//! `dcn-exp` prints a table of rows (`experiment, parameters, measured,
//! bound, ratio`) per experiment and, when the `DCN_JSON` environment
//! variable is set, the same rows as JSON lines so results can be archived.
//! Set `DCN_QUICK=1` to run reduced sweeps (used by CI).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

use dcn_workload::{
    ArrivalMode, ChurnModel, ControllerSpec, MwBudget, Placement, RunReport, Scenario,
    ScenarioRunner, SweepCell, SweepEngine, SweepGrid, SweepReport, TreeShape,
};

pub use dcn_workload::{family_factory, AppFamily, Family};

pub mod experiments;

/// The four controller families the sweep grids compare.
fn grid_families() -> Vec<String> {
    ["iterated", "distributed", "trivial", "aaps"]
        .map(String::from)
        .to_vec()
}

/// The §5 applications axis (all six families), when requested.
fn grid_apps(with_apps: bool) -> Vec<String> {
    if !with_apps {
        return Vec::new();
    }
    AppFamily::ALL.map(|f| f.name().to_string()).to_vec()
}

/// Both arrival modes: the closed-loop batch schedule and the open-loop
/// interleaved schedule, in which requests are submitted while distributed
/// agents are still in flight.
fn grid_arrivals() -> Vec<ArrivalMode> {
    vec![ArrivalMode::Batch, ArrivalMode::Interleaved { quantum: 24 }]
}

fn grid_churns() -> Vec<ChurnModel> {
    vec![
        ChurnModel::GrowOnly,
        ChurnModel::default_mixed(),
        ChurnModel::BurstyDeepLeaf { burst: 6 },
    ]
}

/// The `dcn-sweep` default grid: 4 families × 6 shapes × 3 churn models × 2
/// arrival modes; `with_apps` adds the six §5 applications as a further
/// axis. Defined here — not in the CLI — so the CLI and the determinism
/// tests sweep the *same* grid.
pub fn full_grid(seed: u64, replicates: usize, with_apps: bool) -> SweepGrid {
    SweepGrid {
        name: "sweep-full".to_string(),
        families: grid_families(),
        apps: grid_apps(with_apps),
        shapes: vec![
            TreeShape::Star { nodes: 63 },
            TreeShape::Path { nodes: 63 },
            TreeShape::Balanced {
                nodes: 63,
                arity: 3,
            },
            TreeShape::RandomRecursive { nodes: 63, seed: 7 },
            TreeShape::PreferentialAttachment { nodes: 63, seed: 7 },
            TreeShape::Spider {
                legs: 4,
                leg_length: 16,
            },
        ],
        shards: vec![],
        churns: grid_churns(),
        placements: vec![Placement::Uniform],
        arrivals: grid_arrivals(),
        budgets: vec![MwBudget { m: 128, w: 32 }],
        requests: 96,
        replicates,
        base_seed: seed,
    }
}

/// The `dcn-sweep --quick` grid: 4 families × 4 shapes × 3 churn models × 2
/// arrival modes = 96 cells, small enough for a CI smoke step; `with_apps`
/// adds the six §5 applications (240 cells total). The golden-hash
/// regression tests in `tests/sweep_determinism.rs` pin this grid's exact
/// CSV/JSON bytes (with the CLI's default seed 2007), so the one definition
/// here *is* the byte-level contract.
pub fn quick_grid(seed: u64, replicates: usize, with_apps: bool) -> SweepGrid {
    SweepGrid {
        name: "sweep-quick".to_string(),
        families: grid_families(),
        apps: grid_apps(with_apps),
        shapes: vec![
            TreeShape::Star { nodes: 23 },
            TreeShape::Path { nodes: 23 },
            TreeShape::PreferentialAttachment { nodes: 23, seed: 7 },
            TreeShape::Spider {
                legs: 3,
                leg_length: 8,
            },
        ],
        shards: vec![],
        churns: grid_churns(),
        placements: vec![Placement::Uniform],
        arrivals: grid_arrivals(),
        budgets: vec![MwBudget { m: 48, w: 12 }],
        requests: 40,
        replicates,
        base_seed: seed,
    }
}

/// The default `--seed` of the sweep CLI, shared with the golden-hash tests.
pub const DEFAULT_SWEEP_SEED: u64 = 2007;

/// One output row of an experiment.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment identifier (e.g. `"T3"`).
    pub experiment: String,
    /// Human-readable parameter description for this row.
    pub params: String,
    /// The measured quantity (messages, moves, ratio, …).
    pub measured: f64,
    /// The theoretical bound / reference value this row is compared against.
    pub bound: f64,
    /// `measured / bound` — the "constant factor"; the *shape* claim of the
    /// paper holds when this stays roughly flat across the sweep.
    pub ratio: f64,
}

impl Row {
    /// Builds a row, computing the ratio.
    pub fn new(experiment: &str, params: String, measured: f64, bound: f64) -> Self {
        Row {
            experiment: experiment.to_string(),
            params,
            measured,
            bound,
            ratio: if bound > 0.0 {
                measured / bound
            } else {
                f64::NAN
            },
        }
    }

    /// The row as one JSON line (hand-rolled; the build environment has no
    /// serde). String escaping is shared with the scenario serialiser
    /// ([`dcn_workload::json::quote`]).
    pub fn to_json_line(&self) -> String {
        format!(
            r#"{{"experiment": {}, "params": {}, "measured": {}, "bound": {}, "ratio": {}}}"#,
            dcn_workload::json::quote(&self.experiment),
            dcn_workload::json::quote(&self.params),
            json_num(self.measured),
            json_num(self.bound),
            json_num(self.ratio),
        )
    }
}

/// Formats a float as a JSON value (`NaN`/infinities become `null`).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Prints rows as an aligned text table, plus JSON lines when `DCN_JSON` is
/// set.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("== {title} ==");
    println!(
        "{:<6} {:<52} {:>14} {:>14} {:>8}",
        "exp", "params", "measured", "bound", "ratio"
    );
    for row in rows {
        println!(
            "{:<6} {:<52} {:>14.1} {:>14.1} {:>8.3}",
            row.experiment, row.params, row.measured, row.bound, row.ratio
        );
    }
    if env_switch("DCN_JSON").is_some() {
        for row in rows {
            println!("{}", row.to_json_line());
        }
    }
    println!();
}

/// The harness's one reader of the environment: the value of the `DCN_*`
/// switch `name`, if it is set (and Unicode).
#[expect(
    clippy::disallowed_methods,
    reason = "the DCN_* switches choose which sweeps run and how they print; no seed or count reads them"
)]
fn env_switch(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Returns `true` when reduced sweeps were requested (`DCN_QUICK=1`).
pub fn quick_mode() -> bool {
    env_switch("DCN_QUICK").is_some_and(|v| v != "0")
}

/// Picks the sweep sizes for experiments: full by default, reduced in quick
/// mode.
pub fn sweep_sizes(full: &[usize], quick: &[usize]) -> Vec<usize> {
    if quick_mode() {
        quick.to_vec()
    } else {
        full.to_vec()
    }
}

/// The worker-thread count used by the harness binaries: `DCN_WORKERS` if
/// set, otherwise the machine's available parallelism (at least 2 so the
/// parallel path is always exercised).
pub fn default_workers() -> usize {
    env_switch("DCN_WORKERS")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(2)
        })
}

/// Runs a declarative [`SweepGrid`] over the workspace's controller families
/// on `workers` threads.
pub fn run_grid(grid: &SweepGrid, workers: usize) -> SweepReport {
    SweepEngine::new(workers).run(grid, &family_factory)
}

/// Runs an explicit cell list (for sweeps whose parameters co-vary, e.g. `M`
/// growing with the tree size) over the workspace's controller families.
pub fn run_cells(grid_name: &str, cells: Vec<SweepCell>, workers: usize) -> SweepReport {
    SweepEngine::new(workers).run_cells(grid_name.to_string(), cells, &family_factory)
}

/// Builds a controller of `family` and drives it through `scenario` with the
/// shared [`ScenarioRunner`].
///
/// # Panics
///
/// Panics on invalid scenario parameters or simulator errors (experiment
/// harness context, where that is a bug in the sweep definition).
pub fn run_family(family: Family, scenario: &Scenario) -> RunReport {
    let runner = ScenarioRunner::new(scenario.clone());
    let mut ctrl = ControllerSpec::for_scenario(family, scenario)
        .build_for(&runner)
        .unwrap_or_else(|e| panic!("{}: invalid parameters: {e}", family.name()));
    runner
        .run(ctrl.as_mut())
        .unwrap_or_else(|e| panic!("{}: run failed: {e}", family.name()))
}

/// The theoretical distributed/centralized bound shape
/// `U · log²U · log(M/(W+1))` used as the comparison column for T1–T3.
pub fn iterated_bound(u: usize, m: u64, w: u64) -> f64 {
    let uf = u.max(2) as f64;
    let log2u = uf.log2();
    let ratio = ((m as f64) / (w as f64 + 1.0)).max(2.0);
    uf * log2u * log2u * ratio.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_workload::{ArrivalMode, ChurnModel, Placement, TreeShape};

    fn small_scenario() -> Scenario {
        Scenario {
            name: "bench-test".to_string(),
            shape: TreeShape::Star { nodes: 15 },
            churn: ChurnModel::GrowOnly,
            placement: Placement::Uniform,
            arrival: ArrivalMode::Batch,
            requests: 20,
            m: 30,
            w: 10,
            seed: 1,
        }
    }

    #[test]
    fn rows_compute_ratios() {
        let r = Row::new("T1", "n=8".into(), 50.0, 100.0);
        assert!((r.ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rows_serialise_to_json_lines() {
        let r = Row::new("T1", "n=\"8\"".into(), 50.0, 0.0);
        let line = r.to_json_line();
        assert!(line.contains(r#""experiment": "T1""#));
        assert!(line.contains("\\\"8\\\""));
        assert!(line.contains(r#""ratio": null"#));
    }

    #[test]
    fn every_family_runs_the_same_scenario() {
        let scenario = small_scenario();
        for family in Family::ALL {
            let report = run_family(family, &scenario);
            assert_eq!(report.controller, family.name());
            assert!(report.granted > 0, "{}", family.name());
            assert!(report.granted <= report.m, "{}", family.name());
            report.check().unwrap();
        }
    }

    #[test]
    fn distributed_runs_grow_the_tree() {
        let report = run_family(Family::Distributed, &small_scenario());
        assert!(report.messages > 0);
        assert!(report.final_nodes > 16);
    }

    #[test]
    fn every_application_runs_the_same_scenario() {
        let scenario = small_scenario();
        for family in AppFamily::ALL.map(Family::App) {
            let report = run_family(family, &scenario);
            assert_eq!(report.controller, family.name());
            assert!(report.granted > 0, "{}", family.name());
            assert_eq!(report.invariant_violations, 0, "{}", family.name());
            report.check().unwrap();
        }
    }

    #[test]
    fn bound_is_monotone() {
        assert!(iterated_bound(1000, 100, 10) > iterated_bound(100, 100, 10));
    }
}
