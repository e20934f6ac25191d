//! `dcn-sweep` — the parallel grid-sweep CLI.
//!
//! Expands a diversified [`SweepGrid`](dcn_workload::SweepGrid) (controller families × tree shapes ×
//! churn models × placement distributions × (M, W) budgets × seed
//! replicates), fans the cells out over a worker pool, checks every cell
//! against the §2.2 safety/liveness/accounting conditions, and emits the
//! aggregate as a summary table plus optional CSV/JSON files.
//!
//! The emitted CSV/JSON is byte-identical for any `--workers` value — the
//! per-cell seeds are derived with SplitMix64 before any thread runs — so a
//! recorded sweep reproduces exactly regardless of the machine it ran on.
//!
//! ```text
//! dcn-sweep [--quick] [--apps] [--shards K1[,K2,...]] [--workers N]
//!           [--seed S] [--replicates R] [--csv PATH] [--json PATH]
//! ```
//!
//! `--apps` adds the §5 application axis to the grid: all six applications
//! (size estimation, name assignment, subtree estimation, heavy-child
//! decomposition, ancestry labeling, majority commitment) run through the
//! same `ScenarioRunner`/`SweepEngine` machinery as the controllers, and any
//! §5 invariant violation fails the sweep.
//!
//! `--shards` adds the sharded-controller axis: each listed shard count `k`
//! expands to a `sharded:k<k>` driver (the k-region `ShardedController`
//! over the distributed family; `sharded:k1` is the distributed family
//! itself) at every scenario point, with the same family-blind seeds — so
//! its outcome columns can be diffed against the plain families or across
//! shard counts. Omitted, the grids are exactly the pre-axis grids (the
//! golden-hash contract).
//!
//! Exits non-zero if any cell errored or violated a correctness condition
//! (the CI smoke contract).

#![forbid(unsafe_code)]

use dcn_bench::{default_workers, full_grid, quick_grid, run_grid, DEFAULT_SWEEP_SEED};
use std::process::ExitCode;

struct Args {
    quick: bool,
    apps: bool,
    shards: Vec<usize>,
    workers: usize,
    seed: u64,
    replicates: usize,
    csv: Option<String>,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        apps: false,
        shards: Vec::new(),
        workers: default_workers(),
        seed: DEFAULT_SWEEP_SEED,
        replicates: 1,
        csv: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--apps" => args.apps = true,
            "--shards" => {
                for part in value("--shards")?.split(',') {
                    let k: usize = part
                        .trim()
                        .parse()
                        .map_err(|e| format!("--shards {part:?}: {e}"))?;
                    if k == 0 {
                        return Err("--shards: shard counts must be >= 1".to_string());
                    }
                    args.shards.push(k);
                }
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--replicates" => {
                args.replicates = value("--replicates")?
                    .parse()
                    .map_err(|e| format!("--replicates: {e}"))?
            }
            "--csv" => args.csv = Some(value("--csv")?),
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => {
                println!(
                    "usage: dcn-sweep [--quick] [--apps] [--shards K1[,K2,...]] \
                     [--workers N] [--seed S] [--replicates R] [--csv PATH] \
                     [--json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcn-sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut grid = if args.quick {
        quick_grid(args.seed, args.replicates, args.apps)
    } else {
        full_grid(args.seed, args.replicates, args.apps)
    };
    grid.shards = args.shards;
    println!(
        "== dcn-sweep: grid {:?} — {} cells ({} families + {} shard counts + {} apps × {} shapes × {} churns × {} placements × {} arrivals × {} budgets × {} replicates) on {} workers ==",
        grid.name,
        grid.cell_count(),
        grid.families.len(),
        grid.shards.len(),
        grid.apps.len(),
        grid.shapes.len(),
        grid.churns.len(),
        grid.placements.len(),
        grid.arrivals.len(),
        grid.budgets.len(),
        grid.replicates.max(1),
        args.workers,
    );
    let report = run_grid(&grid, args.workers);

    println!(
        "{:<12} {:>5} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "family",
        "cells",
        "errors",
        "violations",
        "p50moves",
        "p95moves",
        "p50msgs",
        "p95msgs",
        "p50mem",
        "p95mem",
        "p50lat",
        "p95lat"
    );
    for s in report.summaries() {
        println!(
            "{:<12} {:>5} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}",
            s.family,
            s.cells,
            s.errors,
            s.violations,
            s.p50_moves,
            s.p95_moves,
            s.p50_messages,
            s.p95_messages,
            s.p50_memory_bits,
            s.p95_memory_bits,
            s.p50_latency,
            s.p95_latency,
        );
    }
    for cell in &report.cells {
        if let Err(e) = &cell.report {
            eprintln!(
                "cell {} ({} / {}): error: {e}",
                cell.cell.index, cell.cell.family, cell.cell.scenario.name
            );
        } else if let Some(v) = &cell.violation {
            eprintln!(
                "cell {} ({} / {}): VIOLATION: {v}",
                cell.cell.index, cell.cell.family, cell.cell.scenario.name
            );
        }
    }

    if let Some(path) = &args.csv {
        if let Err(e) = std::fs::write(path, report.to_csv()) {
            eprintln!("dcn-sweep: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("dcn-sweep: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    let errors = report.error_count();
    let violations = report.violation_count();
    if errors + violations > 0 {
        eprintln!("dcn-sweep: {errors} errors, {violations} violations");
        return ExitCode::FAILURE;
    }
    println!(
        "all {} cells ok (0 errors, 0 violations)",
        report.cells.len()
    );
    ExitCode::SUCCESS
}
