//! The [`SweepEngine`]: parallel execution of declarative scenario grids.
//!
//! The paper's claims are *comparative* — the (M, W)-controller beats the
//! baselines on moves, messages and memory across network shapes and churn
//! patterns — so the experiments' real substrate is not one hand-picked
//! scenario but a **grid**: controller families × tree shapes × churn models
//! × placement distributions × (M, W) budgets × seed replicates. A
//! [`SweepGrid`] describes such a grid declaratively; the [`SweepEngine`]
//! expands it into [`SweepCell`]s, fans the cells out over a `std::thread`
//! worker pool, and aggregates the per-cell [`RunReport`]s into a
//! [`SweepReport`] with CSV/JSON emitters and per-family summary rows.
//!
//! Two properties are load-bearing for everything built on top:
//!
//! * **Determinism under parallelism.** Every cell's scenario seed is a pure
//!   SplitMix64 function of the grid's base seed and the cell's coordinates,
//!   computed *before* any thread runs, and results are reassembled in cell
//!   order — so the emitted CSV/JSON is byte-identical whether the grid runs
//!   on 1 worker or 16.
//! * **Family comparability.** The derived seed deliberately excludes the
//!   family axis: every family meets the *same* workload stream in the
//!   corresponding cell, so rows compare request-for-request (the T4
//!   methodology, applied grid-wide).

use crate::churn::ChurnModel;
use crate::placement::Placement;
use crate::runner::{percentiles, RunReport, ScenarioRunner};
use crate::scenario::{ArrivalMode, Scenario};
use crate::shape::TreeShape;
use crate::spec::AppFamily;
use dcn_controller::Controller;
use dcn_rng::split_mix64;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An `(M, W)` budget point of a sweep grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MwBudget {
    /// The permit budget `M`.
    pub m: u64,
    /// The waste bound `W`.
    pub w: u64,
}

/// A declarative scenario grid: the cross product of every axis.
///
/// Expansion order is fixed (family outermost, then shape, churn, placement,
/// budget, replicate), so cell indices — and with them the derived seeds and
/// the emitted row order — are stable for a given grid description.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Grid name (prefixes every scenario name).
    pub name: String,
    /// Controller family names, resolved by the factory passed to
    /// [`SweepEngine::run`] ([`family_factory`](crate::family_factory)
    /// builds every [`Family`](crate::Family) name and `sharded:k<k>`).
    pub families: Vec<String>,
    /// §5 application names (the apps axis, [`AppFamily`] names), resolved
    /// by the same factory as the families and driven through
    /// [`ScenarioRunner::run`]. App cells expand *after* the controller
    /// cells; their per-cell seeds use the same family-blind derivation, so
    /// an application cell sees the identical workload stream as the
    /// controller cell with the same scenario coordinates. Empty for a
    /// controllers-only grid.
    pub apps: Vec<String>,
    /// Shard counts for the sharded distributed controller (the `shards`
    /// axis). Each entry `k` expands to a controller driver named
    /// `sharded:k<k>` (see [`shard_family_name`](crate::shard_family_name)),
    /// placed after the plain families and before the apps. Shard cells use
    /// the same family-blind seed derivation as every other driver. One
    /// shard is the distributed family itself, so a `sharded:k1` row repeats
    /// the `distributed` row at the same scenario point. Empty for a grid
    /// without the axis.
    pub shards: Vec<usize>,
    /// Initial tree shapes.
    pub shapes: Vec<TreeShape>,
    /// Churn models.
    pub churns: Vec<ChurnModel>,
    /// Placement distributions for non-topological requests.
    pub placements: Vec<Placement>,
    /// Arrival modes (closed-loop batches and/or open-loop interleaved
    /// submission against in-flight execution).
    pub arrivals: Vec<ArrivalMode>,
    /// `(M, W)` budget points.
    pub budgets: Vec<MwBudget>,
    /// Requests submitted per cell.
    pub requests: usize,
    /// Number of seed replicates per scenario point.
    pub replicates: usize,
    /// Base seed every per-cell seed is derived from.
    pub base_seed: u64,
}

impl SweepGrid {
    /// Number of cells the grid expands to (controller families and §5
    /// applications alike).
    pub fn cell_count(&self) -> usize {
        (self.families.len() + self.shards.len() + self.apps.len())
            * self.shapes.len()
            * self.churns.len()
            * self.placements.len()
            * self.arrivals.len()
            * self.budgets.len()
            * self.replicates.max(1)
    }

    /// Expands the grid into its cells, deriving each cell's scenario seed
    /// via SplitMix64 from the base seed and the cell's *scenario*
    /// coordinates (excluding the family and apps axes, so that every
    /// family — controller or application — sees the identical workload
    /// stream for the same scenario point). Controller cells come first, in
    /// family order, followed by the application cells.
    pub fn cells(&self) -> Vec<SweepCell> {
        // The scenario points are expanded once and handed to every driver:
        // the same (shape, churn, placement, arrival, budget, replicate)
        // is the same scenario — name, seed and all — whichever family or
        // application runs it, which is what makes the seed family-blind.
        // Every driver's cell shares its point's one name allocation.
        let replicates = self.replicates.max(1);
        let mut points = Vec::new();
        for &shape in &self.shapes {
            for &churn in &self.churns {
                for &placement in &self.placements {
                    for &arrival in &self.arrivals {
                        for &budget in &self.budgets {
                            for replicate in 0..replicates {
                                let point = points.len() as u64;
                                let seed = split_mix64(
                                    split_mix64(self.base_seed ^ split_mix64(point))
                                        ^ replicate as u64,
                                );
                                points.push(Scenario {
                                    name: format!(
                                        "{}-{}-{}-{}-{}-m{}w{}-r{replicate}",
                                        self.name,
                                        Label::Shape(&shape),
                                        Label::Churn(&churn),
                                        Label::Placement(&placement),
                                        Label::Arrival(&arrival),
                                        budget.m,
                                        budget.w,
                                    )
                                    .into(),
                                    shape,
                                    churn,
                                    placement,
                                    arrival,
                                    requests: self.requests,
                                    m: budget.m,
                                    w: budget.w,
                                    seed,
                                });
                            }
                        }
                    }
                }
            }
        }
        let shard_names: Vec<String> = self
            .shards
            .iter()
            .map(|&k| crate::spec::shard_family_name(k))
            .collect();
        let drivers = self.families.iter().chain(&shard_names).chain(&self.apps);
        let mut cells = Vec::with_capacity(self.cell_count());
        for family in drivers {
            for scenario in &points {
                cells.push(SweepCell {
                    index: cells.len(),
                    family: family.clone(),
                    scenario: scenario.clone(),
                });
            }
        }
        cells
    }
}

/// One cell of an expanded grid: a family driven through one seeded scenario.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Position in the grid's expansion order (also the output row order).
    pub index: usize,
    /// Controller-family or application name, resolved by the engine's
    /// factory; an [`AppFamily`] name makes the cell an application cell.
    pub family: String,
    /// The fully-specified scenario, including the derived seed.
    pub scenario: Scenario,
}

/// The report produced by one executed cell, tagged with the cell's kind.
/// The emitters print the same columns for both, and a family summary
/// aggregates every column over its own cells, whichever kind they are.
#[derive(Clone, Debug)]
pub enum CellReport {
    /// A controller cell's [`RunReport`].
    Controller(RunReport),
    /// An application cell's [`RunReport`].
    App(RunReport),
}

impl CellReport {
    /// The run's report, whichever kind of cell ran.
    pub fn run(&self) -> &RunReport {
        match self {
            CellReport::Controller(r) | CellReport::App(r) => r,
        }
    }

    /// Total messages, uniformly across both kinds.
    pub fn messages(&self) -> u64 {
        self.run().messages
    }
}

/// The result of one executed cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that was executed.
    pub cell: SweepCell,
    /// The run's report, or a description of why it could not run (factory
    /// rejection or runner error).
    pub report: Result<CellReport, String>,
    /// The first violated condition, if any ([`RunReport::check`]): a §2.2
    /// safety/liveness/accounting violation, or a §5 invariant violation.
    pub violation: Option<String>,
}

impl CellResult {
    /// The run's report, if the cell ran.
    pub fn run_report(&self) -> Option<&RunReport> {
        self.report.as_ref().ok().map(CellReport::run)
    }
}

/// Aggregated outcome of a sweep: cells in grid order plus per-family
/// summaries.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The grid name.
    pub grid: String,
    /// All cell results, sorted by cell index.
    pub cells: Vec<CellResult>,
}

/// Per-family aggregate over the executed cells of a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilySummary {
    /// The controller family.
    pub family: String,
    /// Cells attempted for this family.
    pub cells: usize,
    /// Cells that failed to build or run.
    pub errors: usize,
    /// Cells whose report violated a correctness condition.
    pub violations: usize,
    /// Median permit/package moves.
    pub p50_moves: u64,
    /// 95th-percentile permit/package moves.
    pub p95_moves: u64,
    /// Median messages.
    pub p50_messages: u64,
    /// 95th-percentile messages.
    pub p95_messages: u64,
    /// Median peak per-node memory, in bits.
    pub p50_memory_bits: u64,
    /// 95th-percentile peak per-node memory, in bits.
    pub p95_memory_bits: u64,
    /// Median of the cells' median answer latencies (virtual time units; 0
    /// for synchronous families, which answer inside `submit`).
    pub p50_latency: u64,
    /// 95th percentile of the cells' p95 answer latencies.
    pub p95_latency: u64,
}

/// Builds a controller of the named family over a scenario.
///
/// [`family_factory`](crate::family_factory) builds all twelve families;
/// the engine still takes the factory as a parameter so that a caller can
/// substitute its own (the tests build a single family or refuse names on
/// purpose, and the out-of-workspace benchmark passes `family_factory` to
/// [`SweepEngine::run_cells`]). Errors are reported per cell, not
/// propagated — one invalid parameter combination must not sink a 1000-cell
/// sweep.
pub type ControllerFactory<'a> =
    dyn Fn(&str, &Scenario) -> Result<Box<dyn Controller>, String> + Sync + 'a;

/// The parallel sweep executor.
///
/// ```
/// use dcn_controller::centralized::IteratedController;
/// use dcn_workload::{
///     ArrivalMode, ChurnModel, MwBudget, Placement, ScenarioRunner, SweepEngine, SweepGrid,
///     TreeShape,
/// };
///
/// let grid = SweepGrid {
///     name: "doc".to_string(),
///     families: vec!["iterated".to_string()],
///     apps: vec![],
///     shards: vec![],
///     shapes: vec![TreeShape::Star { nodes: 12 }],
///     churns: vec![ChurnModel::default_mixed()],
///     placements: vec![Placement::Uniform],
///     arrivals: vec![ArrivalMode::Batch],
///     budgets: vec![MwBudget { m: 32, w: 8 }],
///     requests: 24,
///     replicates: 2,
///     base_seed: 7,
/// };
/// let report = SweepEngine::new(2).run(&grid, &|family, scenario| {
///     assert_eq!(family, "iterated");
///     let runner = ScenarioRunner::new(scenario.clone());
///     IteratedController::new(
///         runner.initial_tree(),
///         scenario.m,
///         scenario.w,
///         runner.suggested_u_bound(),
///     )
///     .map(|c| Box::new(c) as Box<dyn dcn_workload::Controller>)
///     .map_err(|e| e.to_string())
/// });
/// assert_eq!(report.cells.len(), 2);
/// assert!(report.cells.iter().all(|c| c.violation.is_none()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SweepEngine {
    workers: usize,
}

impl SweepEngine {
    /// Creates an engine with the given worker-thread count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        SweepEngine {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Expands `grid` and runs every cell, building each cell's controller
    /// through `factory`.
    pub fn run(&self, grid: &SweepGrid, factory: &ControllerFactory<'_>) -> SweepReport {
        self.run_cells(grid.name.clone(), grid.cells(), factory)
    }

    /// Runs an explicit cell list (the lower-level entry point for harness
    /// binaries whose sweeps tie parameters together in ways a plain cross
    /// product cannot express, e.g. `M` growing with the tree size).
    ///
    /// Cells are distributed over the worker pool via an atomic cursor;
    /// results are reassembled in cell-index order, so the report — and any
    /// CSV/JSON derived from it — is independent of scheduling. With one
    /// worker (or one cell) the cells run in order on the calling thread.
    pub fn run_cells(
        &self,
        grid_name: String,
        cells: Vec<SweepCell>,
        factory: &ControllerFactory<'_>,
    ) -> SweepReport {
        let workers = self.workers.min(cells.len()).max(1);
        if workers == 1 {
            return SweepReport {
                grid: grid_name,
                cells: cells.iter().map(|cell| run_cell(cell, factory)).collect(),
            };
        }
        let cursor = AtomicUsize::new(0);
        let mut done: Vec<(usize, CellResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let cells = &cells;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(i) else { break };
                            mine.push((i, run_cell(cell, factory)));
                        }
                        mine
                    })
                })
                .collect();
            // A panicking worker's panic propagates: the sweep's
            // byte-identical contract leaves nothing to salvage.
            handles
                .into_iter()
                .flat_map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        // The workers took the cells in turn; put them back in grid order.
        done.sort_unstable_by_key(|&(i, _)| i);
        SweepReport {
            grid: grid_name,
            cells: done.into_iter().map(|(_, result)| result).collect(),
        }
    }
}

/// Executes one cell: build the controller, drive the scenario, check the
/// report ([`RunReport::check`]).
fn run_cell(cell: &SweepCell, factory: &ControllerFactory<'_>) -> CellResult {
    let runner = ScenarioRunner::new(cell.scenario.clone());
    let report = factory(&cell.family, &cell.scenario)
        .and_then(|mut ctrl| runner.run(ctrl.as_mut()).map_err(|e| e.to_string()));
    let violation = report
        .as_ref()
        .ok()
        .and_then(|r| r.check().err())
        .map(|v| v.to_string());
    let report = report.map(if is_app(&cell.family) {
        CellReport::App
    } else {
        CellReport::Controller
    });
    CellResult {
        cell: cell.clone(),
        report,
        violation,
    }
}

/// `true` for an application cell: a cell's kind is a function of its name.
fn is_app(family: &str) -> bool {
    AppFamily::from_name(family).is_some()
}

/// One named column of the sweep report. The name heads the CSV column and
/// keys the JSON value, and `value` prints the field as both writers (and
/// `dcn-sweep`'s table) show it.
pub struct Column<T> {
    /// The CSV header cell and the JSON key.
    pub name: &'static str,
    /// The field's text.
    pub value: fn(&T) -> String,
    /// `false` for a column the JSON prints but the CSV leaves out.
    csv: bool,
}

impl<T> Column<T> {
    const fn new(name: &'static str, value: fn(&T) -> String) -> Self {
        let csv = true;
        Column { name, value, csv }
    }
}

/// A count's column text. One copy of the integer formatter serves every
/// column: `to_string` inlined into each column's closure added 9 KB of
/// code to a binary that writes the CSV.
#[inline(never)]
fn count(n: u64) -> String {
    n.to_string()
}

/// The columns of a cell's [`RunReport`], in print order: the CSV row's
/// tail after `status`, and the JSON cell's `report` object.
const REPORT_COLUMNS: [Column<RunReport>; 18] = [
    Column::new("submitted", |r| count(r.submitted)),
    Column::new("refused", |r| count(r.refused)),
    Column::new("dropped", |r| count(r.dropped)),
    Column::new("granted", |r| count(r.granted)),
    Column::new("rejected", |r| count(r.rejected)),
    Column::new("wasted", |r| count(r.wasted)),
    Column::new("moves", |r| count(r.moves)),
    Column::new("messages", |r| count(r.messages)),
    Column::new("p50_latency", |r| count(r.p50_answer_latency)),
    Column::new("p95_latency", |r| count(r.p95_answer_latency)),
    Column::new("peak_memory_bits", |r| count(r.peak_node_memory_bits)),
    Column::new("final_nodes", |r| count(r.final_nodes as u64)),
    Column::new("final_max_degree", |r| count(r.final_max_degree as u64)),
    Column::new("iterations", |r| count(u64::from(r.iterations))),
    Column::new("changes", |r| count(r.changes)),
    Column::new("amortized_mpc", |r| {
        format!("{:.2}", r.amortized_messages_per_change())
    }),
    Column {
        csv: false,
        ..Column::new("invariant_checks", |r| count(r.invariant_checks))
    },
    Column::new("invariant_violations", |r| count(r.invariant_violations)),
];

/// The numeric columns of a [`FamilySummary`], in print order after
/// `family`.
pub const SUMMARY_COLUMNS: [Column<FamilySummary>; 11] = [
    Column::new("cells", |s| count(s.cells as u64)),
    Column::new("errors", |s| count(s.errors as u64)),
    Column::new("violations", |s| count(s.violations as u64)),
    Column::new("p50_moves", |s| count(s.p50_moves)),
    Column::new("p95_moves", |s| count(s.p95_moves)),
    Column::new("p50_messages", |s| count(s.p50_messages)),
    Column::new("p95_messages", |s| count(s.p95_messages)),
    Column::new("p50_memory_bits", |s| count(s.p50_memory_bits)),
    Column::new("p95_memory_bits", |s| count(s.p95_memory_bits)),
    Column::new("p50_latency", |s| count(s.p50_latency)),
    Column::new("p95_latency", |s| count(s.p95_latency)),
];

impl SweepReport {
    /// Number of cells that failed to build or run.
    pub fn error_count(&self) -> usize {
        self.cells.iter().filter(|c| c.report.is_err()).count()
    }

    /// Number of cells whose report violated a correctness condition.
    pub fn violation_count(&self) -> usize {
        self.cells.iter().filter(|c| c.violation.is_some()).count()
    }

    /// Per-family summaries (p50/p95 of moves, messages, peak memory and
    /// latency over the family's own cells that produced a report, for a
    /// controller and an application alike), in first-appearance order.
    pub fn summaries(&self) -> Vec<FamilySummary> {
        let mut families: Vec<(&str, Vec<&CellResult>)> = Vec::new();
        for c in &self.cells {
            match families.iter_mut().find(|(f, _)| *f == c.cell.family) {
                Some((_, cells)) => cells.push(c),
                None => families.push((&c.cell.family, vec![c])),
            }
        }
        families
            .into_iter()
            .map(|(family, cells)| {
                let runs: Vec<&RunReport> = cells.iter().filter_map(|c| c.run_report()).collect();
                let (p50_moves, p95_moves) = percentiles(runs.iter().map(|r| r.moves));
                let (p50_messages, p95_messages) = percentiles(runs.iter().map(|r| r.messages));
                let (p50_memory_bits, p95_memory_bits) =
                    percentiles(runs.iter().map(|r| r.peak_node_memory_bits));
                let (p50_latency, _) = percentiles(runs.iter().map(|r| r.p50_answer_latency));
                let (_, p95_latency) = percentiles(runs.iter().map(|r| r.p95_answer_latency));
                FamilySummary {
                    family: family.to_string(),
                    cells: cells.len(),
                    errors: cells.len() - runs.len(),
                    violations: cells.iter().filter(|c| c.violation.is_some()).count(),
                    p50_moves,
                    p95_moves,
                    p50_messages,
                    p95_messages,
                    p50_memory_bits,
                    p95_memory_bits,
                    p50_latency,
                    p95_latency,
                }
            })
            .collect()
    }

    /// The full report as CSV: a header line, one row per cell in grid
    /// order, a blank line, then the per-family summary rows. Every cell
    /// that ran fills every column from its [`RunReport`], whichever kind it
    /// is; a cell that could not run leaves the report columns empty, so
    /// every row keeps the same arity.
    pub fn to_csv(&self) -> String {
        let csv_columns = || REPORT_COLUMNS.iter().filter(|column| column.csv);
        let mut out = String::from(
            "cell,family,kind,scenario,shape,churn,placement,arrival,m,w,requests,seed,status",
        );
        for column in csv_columns() {
            let _ = write!(out, ",{}", column.name);
        }
        out.push('\n');
        for c in &self.cells {
            let s = &c.cell.scenario;
            // Error/violation messages are free text; keep the row's column
            // count intact no matter what they contain.
            let status = cell_status(c).replace(',', ";").replace('\n', " ");
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                c.cell.index,
                c.cell.family,
                kind_label(&c.cell.family),
                s.name,
                Label::Shape(&s.shape),
                Label::Churn(&s.churn),
                Label::Placement(&s.placement),
                Label::Arrival(&s.arrival),
                s.m,
                s.w,
                s.requests,
                s.seed,
                status,
            );
            for column in csv_columns() {
                let value = c.run_report().map(column.value).unwrap_or_default();
                let _ = write!(out, ",{value}");
            }
            out.push('\n');
        }
        out.push_str("\nfamily");
        for column in &SUMMARY_COLUMNS {
            let _ = write!(out, ",{}", column.name);
        }
        out.push('\n');
        for s in self.summaries() {
            out.push_str(&s.family);
            for column in &SUMMARY_COLUMNS {
                let _ = write!(out, ",{}", (column.value)(&s));
            }
            out.push('\n');
        }
        out
    }

    /// The full report as a single JSON document (hand-rolled like the rest
    /// of the workspace; string escaping via [`crate::json::quote`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"grid": {}, "cells": ["#,
            crate::json::quote(&self.grid)
        );
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                r#"{{"cell": {}, "family": {}, "kind": {}, "scenario": {}, "status": {}, "report": "#,
                c.cell.index,
                crate::json::quote(&c.cell.family),
                crate::json::quote(kind_label(&c.cell.family)),
                c.cell.scenario.to_json(),
                crate::json::quote(&cell_status(c)),
            );
            match c.run_report() {
                Some(r) => {
                    out.push('{');
                    json_fields(&mut out, &REPORT_COLUMNS, r);
                    out.push('}');
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str(r#"], "summary": ["#);
        for (i, s) in self.summaries().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, r#"{{"family": {}, "#, crate::json::quote(&s.family));
            json_fields(&mut out, &SUMMARY_COLUMNS, s);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `"name": value` for every column, comma-separated: the body of
/// a JSON object.
fn json_fields<T>(out: &mut String, columns: &[Column<T>], row: &T) {
    for (i, column) in columns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, r#""{}": {}"#, column.name, (column.value)(row));
    }
}

fn cell_status(c: &CellResult) -> String {
    match (&c.report, &c.violation) {
        (Err(e), _) => format!("error: {e}"),
        (Ok(_), Some(v)) => format!("violation: {v}"),
        (Ok(_), None) => "ok".to_string(),
    }
}

/// The kind column of a cell's CSV/JSON row.
fn kind_label(family: &str) -> &'static str {
    if is_app(family) {
        "app"
    } else {
        "controller"
    }
}

/// A short, comma-free label of one scenario axis (used in scenario names
/// and CSV), written straight into its row or name.
enum Label<'a> {
    Shape(&'a TreeShape),
    Churn(&'a ChurnModel),
    Placement(&'a Placement),
    Arrival(&'a ArrivalMode),
}

impl fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Label::Shape(&TreeShape::Path { nodes }) => write!(f, "path{nodes}"),
            Label::Shape(&TreeShape::Star { nodes }) => write!(f, "star{nodes}"),
            Label::Shape(&TreeShape::Balanced { nodes, arity }) => write!(f, "bal{nodes}x{arity}"),
            Label::Shape(&TreeShape::RandomRecursive { nodes, seed }) => {
                write!(f, "rrt{nodes}s{seed}")
            }
            Label::Shape(&TreeShape::Caterpillar { spine, legs }) => write!(f, "cat{spine}x{legs}"),
            Label::Shape(&TreeShape::PreferentialAttachment { nodes, seed }) => {
                write!(f, "pa{nodes}s{seed}")
            }
            Label::Shape(&TreeShape::Spider { legs, leg_length }) => {
                write!(f, "spider{legs}x{leg_length}")
            }
            Label::Churn(ChurnModel::GrowOnly) => f.write_str("grow"),
            Label::Churn(ChurnModel::EventsOnly) => f.write_str("events"),
            Label::Churn(&ChurnModel::LeafChurn { insert_percent }) => {
                write!(f, "leaf{insert_percent}")
            }
            Label::Churn(&ChurnModel::FullChurn {
                add_leaf,
                add_internal,
                remove,
            }) => write!(f, "full{add_leaf}-{add_internal}-{remove}"),
            Label::Churn(&ChurnModel::BurstyDeepLeaf { burst }) => write!(f, "bursty{burst}"),
            Label::Placement(Placement::Uniform) => f.write_str("uniform"),
            Label::Placement(Placement::Deepest) => f.write_str("deepest"),
            Label::Placement(Placement::Leaves) => f.write_str("leaves"),
            Label::Placement(&Placement::Skewed {
                hot_set,
                hot_percent,
            }) => write!(f, "skew{hot_set}-{hot_percent}"),
            Label::Arrival(ArrivalMode::Batch) => f.write_str("batch"),
            Label::Arrival(&ArrivalMode::Interleaved { quantum }) => write!(f, "open{quantum}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::centralized::IteratedController;
    use std::sync::Arc;

    fn iterated_factory(family: &str, scenario: &Scenario) -> Result<Box<dyn Controller>, String> {
        if family != "iterated" {
            return Err(format!("unknown family {family:?}"));
        }
        let runner = ScenarioRunner::new(scenario.clone());
        IteratedController::new(
            runner.initial_tree(),
            scenario.m,
            scenario.w,
            runner.suggested_u_bound(),
        )
        .map(|c| Box::new(c) as Box<dyn Controller>)
        .map_err(|e| e.to_string())
    }

    fn small_grid() -> SweepGrid {
        SweepGrid {
            name: "unit".to_string(),
            families: vec!["iterated".to_string()],
            apps: vec![],
            shards: vec![],
            shapes: vec![TreeShape::Star { nodes: 10 }, TreeShape::Path { nodes: 10 }],
            churns: vec![ChurnModel::default_mixed(), ChurnModel::GrowOnly],
            placements: vec![Placement::Uniform],
            arrivals: vec![ArrivalMode::Batch],
            budgets: vec![MwBudget { m: 24, w: 6 }],
            requests: 16,
            replicates: 2,
            base_seed: 99,
        }
    }

    #[test]
    fn grid_expansion_is_stable_and_counts_match() {
        let grid = small_grid();
        assert_eq!(grid.cell_count(), 8);
        let a = grid.cells();
        let b = grid.cells();
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.scenario, y.scenario);
        }
        // Indices are the positions.
        for (i, c) in a.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn per_cell_seeds_ignore_the_family_axis() {
        let mut grid = small_grid();
        grid.families = vec!["iterated".to_string(), "other".to_string()];
        let cells = grid.cells();
        let half = cells.len() / 2;
        for i in 0..half {
            assert_eq!(
                cells[i].scenario.seed,
                cells[half + i].scenario.seed,
                "family must not change the workload stream"
            );
        }
        // But distinct scenario points get distinct seeds.
        let mut seeds: Vec<u64> = cells[..half].iter().map(|c| c.scenario.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), half);
    }

    /// A scenario point's name is made once: every driver's cell at the
    /// point holds the same allocation, spelled as the labels spell it.
    #[test]
    fn every_drivers_cell_at_a_point_shares_one_name() {
        let mut grid = small_grid();
        grid.families = vec!["iterated".to_string(), "distributed".to_string()];
        grid.shards = vec![1, 4];
        grid.apps = vec!["size-estimator".to_string()];
        let cells = grid.cells();
        let points = cells.len() / 5;
        assert_eq!(points, 8);
        assert_eq!(
            &*cells[0].scenario.name,
            "unit-star10-full30-20-25-uniform-batch-m24w6-r0"
        );
        assert_eq!(
            &*cells[7].scenario.name,
            "unit-path10-grow-uniform-batch-m24w6-r1"
        );
        for (i, cell) in cells.iter().enumerate() {
            let first = &cells[i % points].scenario;
            assert!(Arc::ptr_eq(&cell.scenario.name, &first.name), "cell {i}");
            assert_eq!(cell.scenario, *first, "cell {i}");
        }
        let mut names: Vec<&str> = cells[..points].iter().map(|c| &*c.scenario.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), points);
    }

    #[test]
    fn parallel_and_serial_runs_emit_identical_reports() {
        let grid = small_grid();
        let serial = SweepEngine::new(1).run(&grid, &iterated_factory);
        let parallel = SweepEngine::new(4).run(&grid, &iterated_factory);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.error_count(), 0);
        assert_eq!(serial.violation_count(), 0);
    }

    #[test]
    fn factory_errors_are_reported_per_cell_not_propagated() {
        let mut grid = small_grid();
        grid.families = vec!["iterated".to_string(), "bogus".to_string()];
        let report = SweepEngine::new(2).run(&grid, &iterated_factory);
        assert_eq!(report.cells.len(), 16);
        assert_eq!(report.error_count(), 8);
        let summaries = report.summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[1].family, "bogus");
        assert_eq!(summaries[1].errors, 8);
        assert_eq!(summaries[1].p50_moves, 0);
        // Errored cells keep their row (with an empty report tail) so cell
        // indices stay aligned across emitters.
        assert!(report.to_csv().contains("error: unknown family"));
        assert!(report.to_json().contains(r#""report": null"#));
        let csv = report.to_csv();
        let arity = csv.lines().next().unwrap().matches(',').count();
        for row in csv.lines().filter(|row| row.contains("error: ")) {
            assert_eq!(row.matches(',').count(), arity, "row {row:?}");
        }
    }

    #[test]
    fn the_arrival_axis_multiplies_the_grid_and_labels_cells() {
        let mut grid = small_grid();
        grid.arrivals = vec![ArrivalMode::Batch, ArrivalMode::Interleaved { quantum: 12 }];
        assert_eq!(grid.cell_count(), 16);
        let cells = grid.cells();
        assert!(cells
            .iter()
            .any(|c| c.scenario.arrival.is_interleaved() && c.scenario.name.contains("open12")));
        // An interleaved grid still runs clean and deterministically.
        let serial = SweepEngine::new(1).run(&grid, &iterated_factory);
        let parallel = SweepEngine::new(3).run(&grid, &iterated_factory);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.violation_count(), 0);
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_headers_and_summary() {
        let grid = small_grid();
        let report = SweepEngine::new(2).run(&grid, &iterated_factory);
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // header + 8 cells + blank + summary header + 1 family.
        assert_eq!(lines.len(), 12);
        assert!(lines[0].starts_with("cell,family,"));
        assert!(lines[10].starts_with("family,cells,"));
        // No stray commas from labels: every cell row has the same arity.
        let arity = lines[0].matches(',').count();
        for row in &lines[1..9] {
            assert_eq!(row.matches(',').count(), arity, "row {row:?}");
        }
    }

    fn apps_grid() -> SweepGrid {
        let mut grid = small_grid();
        grid.apps = vec!["size-estimator".to_string(), "name-assigner".to_string()];
        grid.requests = 12;
        grid
    }

    #[test]
    fn the_apps_axis_multiplies_the_grid_and_tags_cells() {
        let grid = apps_grid();
        // (1 family + 2 apps) × 2 shapes × 2 churns × 2 replicates.
        assert_eq!(grid.cell_count(), 24);
        let cells = grid.cells();
        let apps = cells.iter().filter(|c| is_app(&c.family)).count();
        assert_eq!(apps, 16);
        // Controller cells come first; app cells follow in apps order.
        assert!(cells[..8].iter().all(|c| !is_app(&c.family)));
        assert_eq!(cells[8].family, "size-estimator");
        assert_eq!(cells[16].family, "name-assigner");
    }

    #[test]
    fn app_cell_seeds_are_family_blind() {
        let grid = apps_grid();
        let cells = grid.cells();
        // Every driver block (1 controller family + 2 apps) sees the same
        // seed sequence for the same scenario points.
        for i in 0..8 {
            assert_eq!(cells[i].scenario.seed, cells[8 + i].scenario.seed);
            assert_eq!(cells[i].scenario.seed, cells[16 + i].scenario.seed);
        }
    }

    #[test]
    fn app_cells_run_clean_and_deterministically_parallel() {
        let grid = apps_grid();
        let serial = SweepEngine::new(1).run(&grid, &crate::family_factory);
        let parallel = SweepEngine::new(4).run(&grid, &crate::family_factory);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.error_count(), 0);
        assert_eq!(serial.violation_count(), 0);
        // App cells produced app reports with clean invariants.
        for cell in serial.cells.iter().filter(|c| is_app(&c.cell.family)) {
            assert!(matches!(cell.report, Ok(CellReport::App(_))));
            let report = cell.run_report().expect("app cell ran");
            assert_eq!(report.invariant_violations, 0);
            assert!(report.invariant_checks > 0);
            assert!(report.messages > 0);
        }
        // Summaries cover the app families, each over its own cells:
        // messages, moves and memory populated.
        let summaries = serial.summaries();
        assert_eq!(summaries.len(), 3);
        let apps: Vec<_> = summaries
            .iter()
            .filter(|s| s.family != "iterated")
            .collect();
        for s in apps {
            assert_eq!(s.errors, 0);
            assert!(s.p95_messages > 0, "{}", s.family);
            assert!(s.p50_moves > 0, "{}", s.family);
            assert!(s.p50_memory_bits > 0, "{}", s.family);
        }
        // CSV rows keep one arity and fill every column across controller
        // rows and app rows, and the kind column tags them.
        let csv = serial.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        let arity = lines[0].matches(',').count();
        for row in &lines[1..=24] {
            assert_eq!(row.matches(',').count(), arity, "row {row:?}");
            assert!(!row.split(',').any(str::is_empty), "row {row:?}");
        }
        assert!(csv.contains(",app,"));
        assert!(serial.to_json().contains(r#""kind": "app""#));
        assert!(serial.to_json().contains(r#""invariant_violations": 0"#));
    }

    /// An application cell that refuses — the open-loop star-23 cell where
    /// a grant removes the origin of a waiting request — shows its
    /// refusals in both emitters, as a controller cell does; and both
    /// emitters print every report and summary column alike: each CSV
    /// column's text is the JSON value under the same key, and the JSON
    /// report holds exactly the CSV's report columns plus
    /// `invariant_checks`.
    #[test]
    fn an_app_cells_refusals_reach_both_emitters() {
        use crate::json::Value;
        let scenario = Scenario {
            name: "star23-open24".into(),
            shape: TreeShape::Star { nodes: 23 },
            churn: ChurnModel::default_mixed(),
            placement: Placement::Uniform,
            arrival: ArrivalMode::Interleaved { quantum: 24 },
            requests: 512,
            m: 4096,
            w: 128,
            seed: 0,
        };
        let cells = ["size-estimator", "distributed"]
            .into_iter()
            .enumerate()
            .map(|(index, family)| SweepCell {
                index,
                family: family.to_string(),
                scenario: scenario.clone(),
            })
            .collect();
        let report =
            SweepEngine::new(1).run_cells("refusals".to_string(), cells, &crate::family_factory);
        let refused = report.cells[0].run_report().expect("the cell ran").refused;
        assert!(refused > 0, "the cell refused nothing");
        let csv = report.to_csv();
        let json = crate::json::parse(&report.to_json()).unwrap();
        // Every CSV field of `row` under `header[from..]` equals the JSON
        // value of `object` under the same key.
        let same = |header: &[&str], row: &[&str], from: usize, object: &Value| {
            assert_eq!(row.len(), header.len(), "{row:?}");
            for (&key, &text) in header.iter().zip(row).skip(from) {
                match object.get(key).unwrap() {
                    Value::Int(n) => assert_eq!(text, n.to_string(), "{key}"),
                    Value::Num(x) => assert_eq!(text.parse::<f64>(), Ok(*x), "{key}"),
                    other => panic!("{key}: {other:?}"),
                }
            }
        };
        let mut lines = csv.lines().map(|line| line.split(',').collect::<Vec<_>>());
        let header = lines.next().unwrap();
        let first = header.iter().position(|&h| h == "status").unwrap() + 1;
        let refused_at = header.iter().position(|&h| h == "refused").unwrap();
        let mut keys: Vec<&str> = header[first..].to_vec();
        keys.push("invariant_checks");
        keys.sort_unstable();
        for (i, cell) in json
            .get("cells")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .enumerate()
        {
            let row = lines.next().unwrap();
            let object = cell.get("report").unwrap();
            let Value::Object(fields) = object else {
                panic!("cell {i}'s report is not an object");
            };
            assert!(fields.keys().map(String::as_str).eq(keys.iter().copied()));
            same(&header, &row, first, object);
            if i == 0 {
                assert_eq!(row[refused_at], refused.to_string());
            }
        }
        assert_eq!(lines.next(), Some(vec![""]));
        let header = lines.next().unwrap();
        for summary in json.get("summary").unwrap().as_array().unwrap() {
            let row = lines.next().unwrap();
            assert_eq!(Ok(row[0]), summary.get("family").and_then(Value::as_str));
            same(&header, &row, 1, summary);
        }
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn unknown_app_names_are_reported_per_cell() {
        let mut grid = small_grid();
        grid.apps = vec!["martian-estimator".to_string()];
        let report = SweepEngine::new(2).run(&grid, &iterated_factory);
        assert_eq!(report.error_count(), 8);
        // The factory does not know the name, so neither is it an app cell.
        assert!(report.to_csv().contains(",controller,"));
        assert!(report.to_csv().contains("error: unknown family"));
    }

    #[test]
    fn the_shards_axis_expands_to_sharded_drivers_with_family_blind_seeds() {
        let mut grid = small_grid();
        grid.families = vec!["distributed".to_string()];
        grid.shards = vec![1, 2, 8];
        // (1 family + 3 shard counts) × 2 shapes × 2 churns × 2 replicates.
        assert_eq!(grid.cell_count(), 32);
        let cells = grid.cells();
        assert_eq!(cells.len(), 32);
        // Shard drivers follow the plain families, in axis order, and are
        // controller cells with the derived driver names.
        assert_eq!(cells[8].family, "sharded:k1");
        assert_eq!(cells[16].family, "sharded:k2");
        assert_eq!(cells[24].family, "sharded:k8");
        assert!(cells.iter().all(|c| !is_app(&c.family)));
        // Seeds are family-blind: every driver block repeats the same seed
        // sequence, so sharded:k1 meets the distributed family's workload.
        for i in 0..8 {
            for block in [8, 16, 24] {
                assert_eq!(cells[i].scenario.seed, cells[block + i].scenario.seed);
            }
        }
        // The canonical factory runs the whole grid clean, and the report is
        // byte-identical across worker counts.
        let serial = SweepEngine::new(1).run(&grid, &crate::family_factory);
        let parallel = SweepEngine::new(4).run(&grid, &crate::family_factory);
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.error_count(), 0);
        assert_eq!(serial.violation_count(), 0);
    }

    #[test]
    fn labels_are_comma_free_for_every_variant() {
        let shapes = [
            TreeShape::Path { nodes: 1 },
            TreeShape::Star { nodes: 2 },
            TreeShape::Balanced { nodes: 3, arity: 2 },
            TreeShape::RandomRecursive { nodes: 4, seed: 5 },
            TreeShape::Caterpillar { spine: 2, legs: 2 },
            TreeShape::PreferentialAttachment { nodes: 5, seed: 6 },
            TreeShape::Spider {
                legs: 2,
                leg_length: 3,
            },
        ];
        for s in &shapes {
            assert!(!Label::Shape(s).to_string().contains(','));
        }
        let churns = [
            ChurnModel::GrowOnly,
            ChurnModel::EventsOnly,
            ChurnModel::LeafChurn { insert_percent: 9 },
            ChurnModel::default_mixed(),
            ChurnModel::BurstyDeepLeaf { burst: 4 },
        ];
        for c in &churns {
            assert!(!Label::Churn(c).to_string().contains(','));
        }
        let placements = [
            Placement::Uniform,
            Placement::Deepest,
            Placement::Leaves,
            Placement::Skewed {
                hot_set: 3,
                hot_percent: 80,
            },
        ];
        for p in &placements {
            assert!(!Label::Placement(p).to_string().contains(','));
        }
    }
}
