//! `dcn-benchmark` — one benchmark for the whole stack.
//!
//! ```text
//! dcn-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--smoke] [--calibrate N] [--screen]
//! ```
//!
//! Run from the repository root. Builds `dcn-serve` in release mode, runs
//! the named workload (default: all five), prints every end-to-end metric
//! by name with its unit, checks the outputs, and exits non-zero on any
//! failed check. With `--trace` the same generated inputs are also replayed
//! in-process through each layer's public functions and the per-layer
//! metrics are printed. The last line of a single-workload run is the
//! driver's JSON object. See README.md.

mod client;
mod clock;
#[cfg(test)]
mod contract;
mod gen;
mod ladder;
mod metrics;
mod procfs;
mod report;
mod serve;
mod server;
mod stats;
mod sweep;
mod tally;
mod trace;
mod wire;

use metrics::{END_TO_END, REPORT_ONLY, WORKLOADS};
use report::{LadderRun, Report};
use serve::ServeKind;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Share of `--seconds` a traced run spends on its TCP rung; the rest goes
/// to the in-process replays.
const TRACED_TCP_SHARE: f64 = 0.4;

/// Requests each in-process rung replays per second of `--seconds`.
const LADDER_CENTRAL_RPS: f64 = 30_000.0;
const LADDER_CHURN_RPS: f64 = 1_500.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
    calibrate: usize,
    screen: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        scale: 1.0,
        calibrate: 0,
        screen: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.scale = 0.02,
            "--calibrate" => {
                args.calibrate = value("--calibrate")?
                    .parse()
                    .map_err(|e| format!("--calibrate: {e}"))?
            }
            "--screen" => args.screen = true,
            "--help" | "-h" => {
                println!(
                    "usage: dcn-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--calibrate N] [--screen]\nworkloads:"
                );
                for (name, why) in WORKLOADS {
                    println!("  {name:<20} {why}");
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn serve_kind(workload: &str) -> Option<ServeKind> {
    match workload {
        "serve-central-open" => Some(ServeKind::Open),
        "serve-central-pipe" => Some(ServeKind::Pipe),
        "serve-central-batch" => Some(ServeKind::Batch),
        "serve-dist-churn" => Some(ServeKind::Churn),
        _ => None,
    }
}

fn out_path(file: String) -> PathBuf {
    Path::new(server::OUT_DIR).join(file)
}

/// Runs one workload and reports on it.
fn run_workload(bin: &Path, workload: &'static str, args: &Args, seed: u64) -> io::Result<Report> {
    let (seconds, scale) = (args.seconds, args.scale);
    let mut tracer = Tracer::new(args.traced);
    let mut report = match serve_kind(workload) {
        Some(kind) if !args.traced => report::serve_report(
            workload,
            seed,
            &serve::run(bin, kind, seed, seconds, scale, false)?,
        ),
        Some(kind) => {
            let run = serve::run(bin, kind, seed, seconds * TRACED_TCP_SHARE, scale, true)?;
            let mut report = report::serve_report(workload, seed, &run);
            let rate = if kind == ServeKind::Churn {
                LADDER_CHURN_RPS
            } else {
                LADDER_CENTRAL_RPS
            };
            let plan = ladder::Plan::new(kind, seed, (rate * seconds * scale) as usize);
            let counts = ladder::run_ladder(&plan, &mut tracer);
            // The same ladder again with the recorder off: what tracing
            // costs, and whether one seed replays to the same counts.
            let start = clock::now_ns();
            let again = ladder::run_ladder(&plan, &mut Tracer::new(false));
            let untraced_ladder_ns = clock::now_ns() - start;
            if again != counts {
                report.wrong.push(format!(
                    "two replays of one seed differ: {again:?} vs {counts:?}"
                ));
            }
            let micro = (kind == ServeKind::Churn).then(|| {
                let shape = dcn_workload::TreeShape::Path {
                    nodes: kind.server(seed).nodes,
                };
                ladder::micro_layers(shape, seed, (2_000.0 * scale) as usize + 64, &mut tracer)
            });
            let ladder = LadderRun {
                plan,
                spans: tracer.spans().to_vec(),
                counts,
                untraced_ladder_ns,
                micro,
            };
            report::add_serve_layers(&mut report, &run, &ladder);
            report
        }
        None if !args.traced => report::sweep_report(
            workload,
            seed,
            &sweep::run(seed, seconds, scale, &mut tracer)?,
        ),
        None => {
            // Half the time without spans, half with: the pair gives the
            // tracing overhead and must agree byte for byte.
            let plain = sweep::run(seed, seconds / 2.0, scale, &mut Tracer::new(false))?;
            let run = sweep::run(seed, seconds / 2.0, scale, &mut tracer)?;
            let mut report = report::sweep_report(workload, seed, &run);
            if plain.counts != run.counts {
                report.wrong.push(format!(
                    "traced and untraced runs differ: csv hash {:016x} vs {:016x}",
                    run.counts.csv_hash, plain.counts.csv_hash
                ));
            }
            let shape = dcn_workload::TreeShape::Path { nodes: 255 };
            let micro =
                ladder::micro_layers(shape, seed, (2_000.0 * scale) as usize + 64, &mut tracer);
            let untraced_pass_ns = plain.pass_ns.iter().copied().min().unwrap_or(0);
            report::add_sweep_layers(&mut report, &run, &micro, tracer.spans(), untraced_pass_ns);
            report
        }
    };
    std::fs::create_dir_all(server::OUT_DIR)?;
    if args.traced {
        // What the spans themselves leave uncovered: the ladder's self time
        // is the replay loops' own work (generating requests, reading
        // replies).
        for (name, layer) in trace::layer_times(tracer.spans()) {
            if matches!(name, "ladder" | "rung.micro" | "sweep.pass") {
                report.notes.push(format!(
                    "{name}: {} spans, {:.1} ms in all, {:.1} ms ({:.1} %) outside any child span",
                    layer.spans,
                    layer.total_ns as f64 / 1e6,
                    layer.self_ns as f64 / 1e6,
                    100.0 * layer.self_ns as f64 / layer.total_ns.max(1) as f64
                ));
            }
        }
        let path = out_path(format!("trace-{workload}.json"));
        trace::write_json(&path, workload, seed, tracer.spans())?;
        report.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    std::fs::write(
        out_path(format!("report-{workload}.json")),
        report.detail_json(),
    )?;
    Ok(report)
}

/// `--calibrate N`: N back-to-back sets of all workloads, a fresh seed each,
/// then every end-to-end metric's spread (interquartile distance over
/// median, as the driver computes it) and the bound that would follow.
fn calibrate(bin: &Path, args: &Args) -> io::Result<bool> {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(REPORT_ONLY)
        .map(|d| d.name)
        .collect();
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); names.len()]; WORKLOADS.len()];
    let mut all_correct = true;
    for set in 0..args.calibrate {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            let report = run_workload(bin, workload, args, args.seed + set as u64)?;
            all_correct &= report.correct();
            let measured = report.end_to_end.iter().chain(&report.report_only);
            let line: Vec<String> = measured
                .clone()
                .map(|m| format!("{}={:.6}", m.def.name, m.value))
                .collect();
            println!(
                "set {set} {workload} correct={} failed={} {}",
                report.correct(),
                report.failed,
                line.join(" ")
            );
            for (m, measured) in measured.enumerate() {
                values[w][m].push(measured.value);
            }
        }
    }
    println!(
        "\n{:<24} {:<22} {:>16} {:>8}",
        "metric", "workload", "median", "spread"
    );
    let mut worst = vec![0.0f64; names.len()];
    for (m, name) in names.iter().enumerate() {
        for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
            let spread = stats::relative_spread(&values[w][m]);
            worst[m] = worst[m].max(spread);
            println!(
                "{name:<24} {workload:<22} {:>16.6} {spread:>8.4}",
                stats::median(&values[w][m])
            );
        }
    }
    println!(
        "\n{:<24} {:>12}  verdict: bound = max(0.10, 2 x worst spread), the contract caps a bound at 0.25; \
         a spread above 0.25 demotes to report-only (metrics that are 0 or discrete: see README)",
        "metric", "worst spread"
    );
    for (name, spread) in names.iter().zip(worst) {
        let verdict = if *name == "setup_s" {
            "gate at 0.25: the contract wants set-up time gated at the largest bound".to_string()
        } else if spread > 0.25 {
            "report only".to_string()
        } else {
            format!(
                "bound {:.2}, if two sets of ten runs in a row also agree within it",
                (2.0 * spread).clamp(0.10, 0.25)
            )
        };
        println!("{name:<24} {spread:>12.4}  {verdict}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dcn-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.screen {
        // Every grid variant a seed can select must run without a failing
        // cell (see `sweep::GRID_VARIANTS`).
        let failing: Vec<u64> = (1..=sweep::GRID_VARIANTS)
            .filter(|&base_seed| !sweep::screen(base_seed))
            .collect();
        println!(
            "{} grid variants screened, failing base seeds: {failing:?}",
            sweep::GRID_VARIANTS
        );
        return if failing.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let bin = match server::build_server() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("dcn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate > 0 {
        return match calibrate(&bin, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dcn-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut all_correct = true;
    for (workload, why) in WORKLOADS {
        if args.workload != "all" && args.workload != *workload {
            continue;
        }
        match run_workload(&bin, workload, &args, args.seed) {
            Ok(report) => {
                println!("# {why}");
                print!("{}", report.render(args.traced));
                all_correct &= report.correct();
                // The driver reads the last line of a single-workload run.
                println!("{}", report.driver_line(args.traced));
            }
            Err(e) => {
                // No result line: the run did not measure anything.
                eprintln!("dcn-benchmark: {workload}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
