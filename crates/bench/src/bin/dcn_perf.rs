//! `dcn_perf` — the pinned wall-clock performance suite.
//!
//! Every other harness in this crate measures *simulated* cost (messages,
//! moves, memory bits); this one measures the simulator itself: wall time and
//! throughput over a fixed scenario suite, so that storage/allocation changes
//! in the hot paths show up as a recorded trajectory (`BENCH_<pr>.json` at
//! the repo root, one point per PR).
//!
//! The suite is pinned — same shapes, same seeds, same budgets on every run —
//! and covers all six controller families plus the six §5 applications over
//! three tree shapes, plus the distributed-family quick-sweep grid (the
//! scenario the PR-5 throughput target is stated against). Each entry runs
//! `--reps` times (default 3) and reports the best wall time; the simulated
//! work per entry is asserted identical across reps, so events/sec ratios
//! between two builds are pure wall-time ratios.
//!
//! "Events" is the unit of simulated work: messages sent plus requests
//! answered. It is fully determined by the scenario (byte-identical sweeps
//! guarantee it), which is what makes the throughput comparable across
//! builds.
//!
//! Two entries cover the `dcn-serve` wire-protocol stack. `serve:loopback`
//! drives the full protocol path — line parsing, frame dispatch, ticket
//! routing, event streaming — through the deterministic loopback transport,
//! so protocol overhead is measured on the same wall-clock footing as the
//! controller hot loops (and sits under the same regression gate). With
//! `--serve-report PATH`, a `dcn-load` report from a real TCP run is
//! ingested as a `serve:tcp-load` entry and embedded verbatim under the
//! snapshot's `"serve"` key — that one is wall-clock of a socketed system
//! under load, recorded for the trajectory rather than gated.
//!
//! A prior snapshot can be diffed against the fresh run with `--compare`:
//! per-entry speedup ratios are printed (matched on name and scenario), any
//! entry more than 10% slower than the baseline — beyond a 0.25ms absolute
//! noise floor that keeps sub-100µs entries from flagging on timer jitter —
//! is flagged as a regression, and the process exits non-zero if one is
//! found — before/after claims in EXPERIMENTS.md are mechanically produced,
//! not hand-computed.
//!
//! ```text
//! dcn_perf [--quick] [--reps N] [--out PATH] [--compare BASELINE.json]
//!          [--serve-report LOAD.json]
//! # default PATH: BENCH_9.json
//! ```

use dcn_bench::compare::{compare, parse_bench, BenchEntry, BenchFile};
use dcn_bench::{
    quick_grid, run_app_family, run_family, run_grid, AppFamily, Family, DEFAULT_SWEEP_SEED,
};
use dcn_controller::{Controller, ShardedController};
use dcn_server::{Loopback, ServeConfig};
use dcn_simnet::SimConfig;
use dcn_tree::{DynamicTree, NodeId};
use dcn_workload::json::{self, Value};
use dcn_workload::{
    build_tree, ArrivalMode, ChurnModel, Placement, RequestKind, Scenario, SweepGrid, TreeShape,
};
use std::process::ExitCode;
use std::time::Instant;

/// One measured row of the suite.
struct Entry {
    /// `controller:<family>`, `app:<family>` or `sweep:<grid>`.
    name: String,
    /// The shape (or grid) the entry ran over.
    scenario: String,
    /// Best wall time over the reps, in milliseconds.
    wall_ms: f64,
    /// Simulated work: messages + answered requests (identical across reps).
    events: u64,
    /// `events / best wall time`.
    events_per_sec: f64,
}

/// Times `work` `reps` times; returns (best wall seconds, events), asserting
/// the event count is rep-invariant (determinism is what makes the numbers
/// comparable).
fn time_best(reps: usize, mut work: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let e = work();
        let secs = start.elapsed().as_secs_f64();
        if let Some(prev) = events {
            assert_eq!(prev, e, "simulated work must be identical across reps");
        }
        events = Some(e);
        best = best.min(secs);
    }
    (best, events.unwrap_or(0))
}

/// The three pinned shapes of the suite.
fn shapes(quick: bool) -> Vec<(&'static str, TreeShape)> {
    let n = if quick { 24 } else { 48 };
    vec![
        ("star", TreeShape::Star { nodes: n }),
        ("path", TreeShape::Path { nodes: n }),
        (
            "pref-attach",
            TreeShape::PreferentialAttachment { nodes: n, seed: 7 },
        ),
    ]
}

/// The pinned per-shape scenario (mixed churn, batch arrivals, fixed seed).
fn scenario(label: &str, shape: TreeShape, quick: bool) -> Scenario {
    Scenario {
        name: format!("perf-{label}"),
        shape,
        churn: ChurnModel::default_mixed(),
        placement: Placement::Uniform,
        arrival: ArrivalMode::Batch,
        requests: if quick { 24 } else { 64 },
        m: if quick { 48 } else { 96 },
        w: if quick { 12 } else { 24 },
        seed: 5,
    }
}

/// The distributed-family quick-sweep grid: the shared
/// [`dcn_bench::quick_grid`] restricted to the distributed family (the PR-5
/// throughput target is stated against this grid). Single-worker so the
/// measurement is a pure hot-loop time, not a scheduling artifact.
fn distributed_quick_grid() -> SweepGrid {
    let mut grid = quick_grid(DEFAULT_SWEEP_SEED, 1, false);
    grid.name = "perf-distributed-quick".to_string();
    grid.families = vec!["distributed".to_string()];
    grid
}

/// One `controller:sharded` entry: stands up a [`ShardedController`] with
/// `k` shards over a pre-built ≥1M-node path and measures how fast the
/// running federation *answers tickets* submitted deep in the tree.
///
/// `events` counts answered tickets (granted + rejected), so
/// `events_per_sec` is controller-event throughput — the rate at which
/// `drain_events` observations are produced. That is where sharding's
/// architectural win lives: a single controller must walk a permit request
/// from its arrival node all the way to the global root (O(depth) messages
/// per ticket — the deep quartile of a 1M-node path), while the carved
/// federation answers the same ticket against its region's slice at the
/// region proxy root, bounding the walk by the region depth (≈ n/4k). The
/// per-message simulator cost is identical either way (~15M simulator
/// events/s on the reference box at every k), so the ticket-throughput
/// ratio directly exposes the message-cost reduction and is
/// machine-independent.
///
/// Controller standup (carve + per-shard construction) happens outside the
/// timer: the entry measures steady serving, not setup. Budget slices are
/// sized exchange-free (`M = 16 × requests`, so `M_i ≥ 2 × requests` even
/// if every request lands in one shard), and the zero-wave/all-granted
/// outcome is asserted, which also pins global safety (Σ granted ≤ M) per
/// rep.
fn sharded_entry(
    k: usize,
    base: &DynamicTree,
    ids: &[NodeId],
    requests: u64,
    reps: usize,
) -> Entry {
    let m = 16 * requests;
    let w = m / 4;
    let u_bound = base.node_count() + m as usize + 2;
    let mut best = f64::INFINITY;
    let mut events_seen = None;
    for _ in 0..reps.max(1) {
        let tree = base.clone();
        let mut ctrl = ShardedController::new(SimConfig::new(11), tree, m, w, u_bound, k)
            .expect("pinned sharded parameters are valid");
        let start = Instant::now();
        for i in 0..requests as usize {
            // Deep-quartile placement: `ids` is in creation order, which on
            // a path is depth order, so these arrival nodes sit at depths
            // in [3n/4, n).
            let at = ids[ids.len() - 1 - ((i * 7919) % (ids.len() / 4))];
            ctrl.submit(at, RequestKind::NonTopological)
                .expect("pinned submissions target live nodes");
        }
        ctrl.run_to_quiescence()
            .expect("pinned drive reaches quiescence");
        let secs = start.elapsed().as_secs_f64();
        ctrl.drain_events();
        assert_eq!(ctrl.granted(), requests, "exchange-free sizing grants all");
        assert_eq!(
            ctrl.waves(),
            0,
            "exchange-free sizing never triggers a wave"
        );
        let answers = ctrl.granted() + ctrl.rejected();
        if let Some(prev) = events_seen {
            assert_eq!(prev, answers, "answered work must be identical across reps");
        }
        events_seen = Some(answers);
        best = best.min(secs);
    }
    let events = events_seen.unwrap_or(0);
    Entry {
        name: "controller:sharded".to_string(),
        scenario: format!("k{k}"),
        wall_ms: best * 1e3,
        events,
        events_per_sec: events as f64 / best,
    }
}

/// Drives `requests` tagged permit submissions through the full wire
/// protocol over the loopback transport — encode, length-check, parse,
/// dispatch, ticket-route, pump, stream — and returns the protocol work
/// done (request lines handled plus reply/event frames produced). All the
/// work is deterministic, so the count is rep-invariant like every other
/// entry.
fn serve_loopback_events(requests: u64) -> u64 {
    // Budget == request count: every submission grants, so the measured
    // path is the steady serving state, not the reject tail. Events are
    // non-topological, so the 48-leaf star (and the node bound) is static.
    let config = ServeConfig::new(Family::Centralized, requests, 64)
        .with_shape(TreeShape::Star { nodes: 48 })
        .with_u_bound(64);
    let mut lb = Loopback::new(config).expect("loopback server");
    let client = lb.connect();
    lb.send(client, r#"{"op": "hello", "proto": 1}"#);
    lb.send(client, r#"{"op": "subscribe"}"#);
    let mut frames = lb.recv(client).len() as u64;
    for i in 0..requests {
        let node = i % 49;
        lb.send(
            client,
            &format!(r#"{{"op": "submit", "kind": "event", "node": {node}, "tag": {i}}}"#),
        );
        // Pump in slices like the TCP engine thread does between inbox
        // drains, rather than once at the end.
        if i % 64 == 63 {
            lb.run_to_quiescence();
            frames += lb.recv(client).len() as u64;
        }
    }
    lb.run_to_quiescence();
    frames += lb.recv(client).len() as u64;
    let stats = lb.engine().stats();
    assert_eq!(stats.granted, requests, "every submission grants");
    assert_eq!(stats.protocol_errors, 0);
    // Lines handled (hello + subscribe + submits) plus frames out.
    2 + requests + frames
}

/// A numeric field of the `dcn-load` report (integers and floats both
/// appear: counters vs. the elapsed/throughput columns).
fn report_num(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key)? {
        Value::Int(n) => Ok(*n as f64),
        Value::Num(x) => Ok(*x),
        other => Err(format!(
            "report field {key}: expected a number, found {other:?}"
        )),
    }
}

/// Ingests a `dcn-load --report` file as the `serve:tcp-load` entry.
fn serve_report_entry(text: &str) -> Result<Entry, String> {
    let v = json::parse(text.trim()).map_err(|e| format!("not valid JSON: {e}"))?;
    let tool = v.get("tool")?.as_str()?;
    if tool != "dcn-load" {
        return Err(format!("expected a dcn-load report, found tool {tool:?}"));
    }
    let clients = v.get("clients")?.as_u64()?;
    let answered = v.get("answered")?.as_u64()?;
    let wall_ms = report_num(&v, "elapsed_ms")?;
    let rps = report_num(&v, "requests_per_sec")?;
    Ok(Entry {
        name: "serve:tcp-load".to_string(),
        scenario: format!("{clients}-client"),
        wall_ms,
        events: answered,
        events_per_sec: rps,
    })
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn to_json(entries: &[Entry], reps: usize, quick: bool, serve_report: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": 9,\n");
    out.push_str("  \"suite\": \"dcn_perf pinned scenario suite\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    let total_events: u64 = entries.iter().map(|e| e.events).sum();
    let total_wall: f64 = entries.iter().map(|e| e.wall_ms).sum();
    out.push_str(&format!("  \"total_wall_ms\": {},\n", json_num(total_wall)));
    out.push_str(&format!("  \"total_events\": {total_events},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"scenario\": {}, \"wall_ms\": {}, \"events\": {}, \"events_per_sec\": {}}}{}\n",
            dcn_workload::json_quote(&e.name),
            dcn_workload::json_quote(&e.scenario),
            json_num(e.wall_ms),
            e.events,
            json_num(e.events_per_sec),
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]");
    if let Some(report) = serve_report {
        // The raw dcn-load report, embedded verbatim (it is validated
        // JSON): the snapshot records exactly what was measured.
        out.push_str(",\n  \"serve\": ");
        out.push_str(report.trim());
    }
    out.push_str("\n}\n");
    out
}

struct Args {
    quick: bool,
    reps: usize,
    out: String,
    compare: Option<String>,
    serve_report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        reps: 3,
        out: "BENCH_9.json".to_string(),
        compare: None,
        serve_report: None,
    };
    // An explicit --reps wins over --quick's reps=1 default regardless of
    // the order the two flags appear in.
    let mut reps_explicit = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--quick" => {
                args.quick = true;
                if !reps_explicit {
                    args.reps = 1;
                }
            }
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                reps_explicit = true;
            }
            "--out" => args.out = value("--out")?,
            "--compare" => args.compare = Some(value("--compare")?),
            "--serve-report" => args.serve_report = Some(value("--serve-report")?),
            "--help" | "-h" => {
                println!(
                    "usage: dcn_perf [--quick] [--reps N] [--out PATH] \
                     [--compare BASELINE.json] [--serve-report LOAD.json]"
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
            eprintln!("dcn_perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut entries: Vec<Entry> = Vec::new();

    for (label, shape) in shapes(args.quick) {
        let sc = scenario(label, shape, args.quick);
        for family in Family::ALL {
            let (secs, events) = time_best(args.reps, || {
                let report = run_family(family, &sc);
                report.messages + report.granted + report.rejected + report.refused
            });
            entries.push(Entry {
                name: format!("controller:{}", family.name()),
                scenario: label.to_string(),
                wall_ms: secs * 1e3,
                events,
                events_per_sec: events as f64 / secs,
            });
        }
        for family in AppFamily::ALL {
            let (secs, events) = time_best(args.reps, || {
                let report = run_app_family(family, &sc);
                report.messages + report.granted + report.rejected
            });
            entries.push(Entry {
                name: format!("app:{}", family.name()),
                scenario: label.to_string(),
                wall_ms: secs * 1e3,
                events,
                events_per_sec: events as f64 / secs,
            });
        }
    }

    let grid = distributed_quick_grid();
    let (secs, events) = time_best(args.reps, || {
        let report = run_grid(&grid, 1);
        assert_eq!(report.error_count() + report.violation_count(), 0);
        report
            .cells
            .iter()
            .filter_map(|c| c.report.as_ref().ok())
            .filter_map(|r| r.controller())
            .map(|r| r.messages + r.granted + r.rejected + r.refused)
            .sum()
    });
    entries.push(Entry {
        name: "sweep:distributed-quick".to_string(),
        scenario: grid.name.clone(),
        wall_ms: secs * 1e3,
        events,
        events_per_sec: events as f64 / secs,
    });

    // The sharded tentpole: k ∈ {1, 4, 8} over a pinned ≥1M-node path
    // (full mode), deep-quartile exchange-free ticket stream. The k=1 entry
    // is the single-controller baseline the scaling claim in EXPERIMENTS.md
    // is stated against: its permit walks span the whole path, while each
    // shard bounds them at its region proxy root.
    let shard_nodes = if args.quick { 65_537 } else { 1_048_577 };
    let shard_requests: u64 = if args.quick { 8 } else { 16 };
    let shard_base = build_tree(TreeShape::Path {
        nodes: shard_nodes - 1,
    });
    let shard_ids: Vec<NodeId> = shard_base.nodes().collect();
    for k in [1usize, 4, 8] {
        entries.push(sharded_entry(
            k,
            &shard_base,
            &shard_ids,
            shard_requests,
            args.reps,
        ));
    }
    drop(shard_ids);
    drop(shard_base);

    // The wire-protocol stack, on the same deterministic footing: 120k
    // requests through the loopback server (4k in quick mode).
    let serve_requests: u64 = if args.quick { 4_000 } else { 120_000 };
    let (secs, events) = time_best(args.reps, || serve_loopback_events(serve_requests));
    entries.push(Entry {
        name: "serve:loopback".to_string(),
        scenario: format!("{serve_requests}-req"),
        wall_ms: secs * 1e3,
        events,
        events_per_sec: events as f64 / secs,
    });

    // A recorded TCP load run, if one was handed in.
    let serve_report_text = match &args.serve_report {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| serve_report_entry(&text).map(|entry| (text, entry)))
        {
            Ok((text, entry)) => {
                entries.push(entry);
                Some(text)
            }
            Err(e) => {
                eprintln!("dcn_perf: reading serve report {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    println!(
        "{:<28} {:<12} {:>10} {:>12} {:>14}",
        "entry", "scenario", "wall_ms", "events", "events/sec"
    );
    for e in &entries {
        println!(
            "{:<28} {:<12} {:>10.3} {:>12} {:>14.0}",
            e.name, e.scenario, e.wall_ms, e.events, e.events_per_sec
        );
    }

    let json = to_json(
        &entries,
        args.reps,
        args.quick,
        serve_report_text.as_deref(),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("dcn_perf: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    if let Some(baseline_path) = &args.compare {
        // A missing or unreadable baseline is not a regression: on a fresh
        // checkout (or right after a bench renumber) there is nothing to
        // gate against. Report every entry explicitly as unmatched and keep
        // the exit green — silently skipping rows would make "zero
        // regressions" indistinguishable from "nothing compared".
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => match parse_bench(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("dcn_perf: baseline {baseline_path} is not a bench snapshot: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!(
                    "dcn_perf: warning: baseline {baseline_path} unreadable ({e}); \
                     treating every entry as new"
                );
                BenchFile {
                    bench: 0,
                    entries: Vec::new(),
                }
            }
        };
        let current = BenchFile {
            bench: 9,
            entries: entries
                .iter()
                .map(|e| BenchEntry {
                    name: e.name.clone(),
                    scenario: e.scenario.clone(),
                    wall_ms: e.wall_ms,
                    events: e.events,
                    events_per_sec: e.events_per_sec,
                })
                .collect(),
        };
        let cmp = compare(&baseline, &current);
        println!();
        println!(
            "vs {baseline_path} (bench {}): {:<28} {:<12} {:>10} {:>10} {:>8}",
            baseline.bench, "entry", "scenario", "old_ms", "new_ms", "speedup"
        );
        for d in &cmp.deltas {
            println!(
                "{:<28} {:<12} {:>10.3} {:>10.3} {:>7.2}x{}",
                d.name,
                d.scenario,
                d.old_wall_ms,
                d.new_wall_ms,
                d.speedup,
                if d.regression { "  REGRESSION" } else { "" },
            );
        }
        for name in &cmp.only_old {
            println!("only in baseline: {name}");
        }
        for name in &cmp.only_new {
            println!("{name}: no baseline entry");
        }
        if let Some(geomean) = cmp.geomean_speedup() {
            println!("geomean speedup: {geomean:.2}x");
        }
        let regressions = cmp.regressions().count();
        if regressions > 0 {
            eprintln!("dcn_perf: {regressions} entr(y/ies) regressed by more than 10% (beyond the noise floor)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
