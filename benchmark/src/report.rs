//! From what a run observed to what it reports: metric values, the human
//! report, the driver's JSON line and the detail file.

use crate::client::LoadRun;
use crate::clock::{at_reference, Timed};
use crate::ladder::{self, LadderCounts, MicroLayers, Plan};
use crate::metrics::{
    Better, Measured, Sheet, END_TO_END, NOT_MEASURED, PER_LAYER, REPORT_ONLY, WITHHELD,
};
use crate::serve::{Phase, ServeKind, ServeRun};
use crate::stats::{five_numbers, highest_supported_percentile, median, percentile, FiveNumbers};
use crate::sweep::SweepRun;
use crate::trace::Span;
use std::fmt::Write as _;

/// The latency limit an open-loop step must meet to count as sustained.
pub const RATE_OK_P99_US: f64 = 2_000.0;
/// The share of requests that may fail or be held back at a sustained step.
pub const RATE_OK_FAILED_SHARE: f64 = 0.001;
/// Validity limits of the open-loop generator.
pub const GENERATOR_MIN_RATE_SHARE: f64 = 0.99;
pub const GENERATOR_MAX_LATENESS_P99_US: f64 = 200.0;
/// Slices in which the generator kept its schedule that an open-loop step
/// needs to stand: the fewest slices the issue lets any run be cut into (or
/// half the step's slices, when a small run has fewer than sixteen).
pub const MIN_VALID_SLICES: usize = 8;

/// One workload's report.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty means correct.
    pub wrong: Vec<String>,
    /// The gated end-to-end metrics (the driver line of an untraced run).
    pub end_to_end: Vec<Measured>,
    /// The end-to-end metrics that are printed but not gated.
    pub report_only: Vec<Measured>,
    pub per_layer: Vec<Measured>,
    /// Further lines of the human report, in order.
    pub notes: Vec<String>,
    /// The detail file's body (a JSON object without the outer braces).
    pub detail: String,
}

/// How far from the best slice the companion figure lies that a report
/// prints beside every median slice: a rate at its 95th-percentile slice, a
/// time at its 5th. The host's interference only ever slows a slice down,
/// so the slices near the best show what the program does when left alone,
/// the median what a user of this box gets; the named metric is the median.
const BEST_SHARE: f64 = 0.05;

/// The value `share` of the way up the ascending slices — but never the
/// extreme one while there is another: a single slice can be an artefact (a
/// boundary that fell inside a stall), the second such is a pattern.
fn ranked(per_slice: &[f64], share: f64) -> f64 {
    let mut v = per_slice.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().saturating_sub(1);
    let inner = 1.min(last)..=last.saturating_sub(1).max(1.min(last));
    let at = ((v.len() as f64 * share).round() as usize).clamp(*inner.start(), *inner.end());
    v.get(at).copied().unwrap_or(0.0)
}

fn fmt_five(f: &FiveNumbers, digits: usize) -> String {
    format!(
        "min {:.d$} q1 {:.d$} med {:.d$} q3 {:.d$} max {:.d$}",
        f.min,
        f.q1,
        f.median,
        f.q3,
        f.max,
        d = digits
    )
}

/// One figure of a phase, slice by slice: as measured, and restated at the
/// reference clock by the probes around each slice (see `clock::probe_ns`).
/// The median of the restated slices is what a run reports.
struct PerSlice {
    raw: Vec<f64>,
    at_reference: Vec<f64>,
    /// A rate (more is better) or a time (less is).
    is_rate: bool,
}

impl PerSlice {
    /// Per-slice times: a slice on a slow clock took longer than it would
    /// have at the reference clock.
    fn times(raw: Vec<f64>, factors: &[f64]) -> Self {
        let at_reference = raw.iter().zip(factors).map(|(v, f)| v * f).collect();
        PerSlice {
            raw,
            at_reference,
            is_rate: false,
        }
    }

    /// Per-slice rates: the inverse.
    fn rates(raw: Vec<f64>, factors: &[f64]) -> Self {
        let at_reference = raw.iter().zip(factors).map(|(v, f)| v / f).collect();
        PerSlice {
            raw,
            at_reference,
            is_rate: true,
        }
    }

    fn reported(&self) -> f64 {
        median(&self.at_reference)
    }

    fn best(&self) -> f64 {
        let share = if self.is_rate {
            1.0 - BEST_SHARE
        } else {
            BEST_SHARE
        };
        ranked(&self.at_reference, share)
    }

    fn note(&self, digits: usize) -> String {
        format!(
            "median of {} slices at the reference clock: {}; best-5% slice {:.d$}; as measured, median {:.d$}",
            self.raw.len(),
            fmt_five(&five_numbers(&self.at_reference), digits),
            self.best(),
            median(&self.raw),
            d = digits
        )
    }
}

/// The clock factor of each slice of a run: from the faster of the two
/// probes around it (1 when the probes are missing).
fn slice_factors(run: &LoadRun) -> Vec<f64> {
    let probes = &run.slice_probe_ns;
    (0..run.slices.len())
        .map(|i| match (probes.get(i), probes.get(i + 1)) {
            (Some(&a), Some(&b)) => at_reference(a.min(b)),
            _ => 1.0,
        })
        .collect()
}

/// Whether the open-loop generator kept its schedule in each slice (all
/// true for a closed loop, which has no schedule).
fn valid_slices(run: &LoadRun) -> Vec<bool> {
    (0..run.slices.len())
        .map(|i| {
            run.generator.get(i).map_or(true, |g| {
                g.rate_share >= GENERATOR_MIN_RATE_SHARE
                    && g.lateness_p99_ns as f64 / 1e3 <= GENERATOR_MAX_LATENESS_P99_US
            })
        })
        .collect()
}

/// Server CPU per answered request, in µs, and the clock factor, over groups
/// of consecutive slices (at most 32 groups: the scheduler's accounting is
/// only as fine as its context switches, and a slice of a lightly loaded
/// server holds few). Empty when the fine-grained CPU clock could not be
/// read.
fn slice_cpu_us(run: &LoadRun, factors: &[f64]) -> (Vec<f64>, Vec<f64>) {
    if run.slice_marks.len() != run.slices.len() + 1 || run.slice_marks.contains(&0) {
        return (Vec::new(), Vec::new());
    }
    let group = run.slices.len().div_ceil(32).max(1);
    run.slices
        .chunks(group)
        .enumerate()
        .map(|(g, slices)| {
            let (from, to) = (g * group, g * group + slices.len());
            let cpu_ns = run.slice_marks[to].saturating_sub(run.slice_marks[from]);
            let requests: usize = slices.iter().map(|s| s.requests).sum();
            (
                cpu_ns as f64 / 1e3 / requests.max(1) as f64,
                median(&factors[from..to]),
            )
        })
        .unzip()
}

fn json_array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", body.join(", "))
}

/// Whole-phase latency summary for the notes, as measured: the median, p99,
/// and the highest percentile the sample supports.
fn latency_note(run: &LoadRun) -> String {
    let l = &run.latencies_ns;
    let us = |p: f64| percentile(l, p) as f64 / 1e3;
    let top = highest_supported_percentile(l.len());
    format!(
        "whole phase, as measured: {} samples in {:.3} s, p50 {:.1} p99 {:.1} p{} {:.1} max {:.1} us; {:.1} wire bytes a request",
        l.len(),
        run.seconds,
        us(0.5),
        us(0.99),
        top * 100.0,
        us(top),
        l.last().copied().unwrap_or(0) as f64 / 1e3,
        (run.bytes_sent + run.bytes_received) as f64 / l.len().max(1) as f64
    )
}

/// What one load phase comes to, slice by slice. Of an open-loop step only
/// the slices in which the generator kept its schedule are in here.
struct PhaseFigures {
    rates: PerSlice,
    p50s: PerSlice,
    p99s: PerSlice,
    cpus: PerSlice,
    /// Slices of the phase, and how many of them count.
    slices: usize,
    valid: usize,
    /// Whole-phase server CPU per answered request, µs (10 ms ticks), as
    /// measured.
    cpu_whole_us: f64,
}

impl PhaseFigures {
    fn of(phase: &Phase) -> Self {
        let run = &phase.run;
        let factors = slice_factors(run);
        let valid = valid_slices(run);
        let kept = |values: Vec<f64>| -> Vec<f64> {
            values
                .into_iter()
                .zip(&valid)
                .filter_map(|(v, ok)| ok.then_some(v))
                .collect()
        };
        let kept_factors = kept(factors.clone());
        let us = |p: f64| -> Vec<f64> {
            run.slices
                .iter()
                .map(|s| percentile(&s.latencies_ns, p) as f64 / 1e3)
                .collect()
        };
        let rates = run
            .slices
            .iter()
            .map(|s| s.requests as f64 / s.seconds.max(1e-9))
            .collect();
        let (cpus, cpu_factors) = slice_cpu_us(run, &factors);
        PhaseFigures {
            rates: PerSlice::rates(kept(rates), &kept_factors),
            p50s: PerSlice::times(kept(us(0.5)), &kept_factors),
            p99s: PerSlice::times(kept(us(0.99)), &kept_factors),
            cpus: PerSlice::times(cpus, &cpu_factors),
            slices: valid.len(),
            valid: kept_factors.len(),
            cpu_whole_us: phase.server_cpu_us as f64 / run.tally.answered().max(1) as f64,
        }
    }

    /// Server CPU per request: the median slice group when groups could be
    /// told apart, the whole phase (as measured) otherwise.
    fn cpu_us(&self) -> f64 {
        if self.cpus.raw.is_empty() {
            self.cpu_whole_us
        } else {
            self.cpus.reported()
        }
    }

    /// The same as measured, which is what the in-process rungs of a traced
    /// run compare with.
    fn cpu_us_as_measured(&self) -> f64 {
        if self.cpus.raw.is_empty() {
            self.cpu_whole_us
        } else {
            median(&self.cpus.raw)
        }
    }
}

impl PhaseFigures {
    /// Whether the generator kept its schedule in enough slices for a
    /// median slice to mean something (see README, "Generator").
    fn generator_ok(&self) -> bool {
        self.valid >= MIN_VALID_SLICES.min(self.slices.div_ceil(2)).max(1)
    }
}

/// One open-loop step, judged.
struct Step {
    offered: f64,
    figures: PhaseFigures,
    failed_share: f64,
    generator_ok: bool,
    sustained: bool,
}

fn judge_step(phase: &Phase, figures: PhaseFigures) -> (Step, String) {
    let run = &phase.run;
    let offered = phase.offered_rps.unwrap_or(0.0);
    let sent = run.tally.sent.max(1) as f64;
    // Held-back requests were due and not sent: for the question "does the
    // server keep up at this rate" they count like failures.
    let failed_share = (run.tally.failed() + run.deferred) as f64 / sent;
    let generator_ok = figures.generator_ok();
    // A backlog that grows shows as latency that grows: compare the last
    // quarter of the step with the first.
    let p50s = &figures.p50s.raw;
    let quarter = (p50s.len() / 4).max(1);
    let (early, late) = if p50s.is_empty() {
        (0.0, 0.0)
    } else {
        (
            median(&p50s[..quarter]),
            median(&p50s[p50s.len() - quarter..]),
        )
    };
    let backlog_grows = late > 2.0 * early + 100.0;
    // The limit is a user's, in real time: judged on the slices as
    // measured, not at the reference clock.
    let sustained = generator_ok
        && median(&figures.p99s.raw) <= RATE_OK_P99_US
        && failed_share <= RATE_OK_FAILED_SHARE
        && !backlog_grows;
    let note = format!(
        "step {:>6.0} req/s: median slice as measured lat p50 {:.1} p99 {:.1} us (at the reference clock {:.1} / {:.1}); \
         answered {} of {} at {:.0} req/s, overloaded {}, deferred {}, errors {}, failed share {:.5}; \
         server cpu {:.2} us/req; generator kept its schedule in {} of {} slices -> {} \
         (whole step: lateness p50 {:.1} p99 {:.1} us, send rate {:.4} of scheduled); \
         backlog {}; {}; {}",
        offered,
        median(&figures.p50s.raw),
        median(&figures.p99s.raw),
        figures.p50s.reported(),
        figures.p99s.reported(),
        run.tally.answered(),
        run.tally.sent,
        median(&figures.rates.raw),
        run.tally.overloaded,
        run.deferred,
        run.tally.errors,
        failed_share,
        figures.cpu_us(),
        figures.valid,
        figures.slices,
        if generator_ok { "valid" } else { "INVALID" },
        percentile(&run.lateness_ns, 0.5) as f64 / 1e3,
        percentile(&run.lateness_ns, 0.99) as f64 / 1e3,
        run.scheduled_seconds / run.send_seconds.max(1e-9),
        if backlog_grows { "grows" } else { "steady" },
        if sustained { "sustained" } else { "not sustained" },
        latency_note(run),
    );
    (
        Step {
            offered,
            figures,
            failed_share,
            generator_ok,
            sustained,
        },
        note,
    )
}

/// The set-up times of a run, restated at the reference clock, and the row
/// that reports their median.
fn set_setup(e2e: &mut Sheet, setup: &[Timed], what: &str, detail: &mut String) {
    let at_reference: Vec<f64> = setup.iter().map(Timed::at_reference).collect();
    let raw: Vec<f64> = setup.iter().map(|t| t.seconds).collect();
    e2e.set(
        "setup_s",
        median(&at_reference),
        format!(
            "{what}; median of {} at the reference clock: {}; as measured, median {:.6}",
            setup.len(),
            fmt_five(&five_numbers(&at_reference), 6),
            median(&raw)
        ),
    );
    let us = |v: &[f64]| json_array(&v.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    let _ = write!(
        detail,
        "\"setup_us\": {}, \"setup_us_at_reference\": {}",
        us(&raw),
        us(&at_reference)
    );
}

/// The end-to-end half of a serve run's report.
pub fn serve_report(workload: &'static str, seed: u64, run: &ServeRun) -> Report {
    let mut e2e = Sheet::new(END_TO_END);
    let mut more = Sheet::new(REPORT_ONLY);
    let mut notes = Vec::new();
    let mut detail = String::new();
    set_setup(&mut e2e, &run.setup, "spawn to welcome", &mut detail);

    let total_answered: u64 = run.phases.iter().map(|p| p.run.tally.answered()).sum();
    let total_messages: u64 = run.phases.iter().map(|p| p.messages).sum();
    let msgs_per_req = total_messages as f64 / total_answered.max(1) as f64;
    e2e.set(
        "peak_rss_mb",
        run.peak_rss_mb,
        "VmHWM of dcn-serve at the end of the run",
    );
    e2e.set(
        "msgs_per_req",
        msgs_per_req,
        format!("{total_messages} messages over {total_answered} answered requests"),
    );

    // The first phase is the one the figures come from: the only phase of
    // a closed loop, the 10k step of the open loop.
    let open = run.kind == ServeKind::Open;
    let figures: Vec<PhaseFigures> = run.phases.iter().map(PhaseFigures::of).collect();
    if let Some(lat) = figures.first() {
        if !lat.generator_ok() {
            // The generator measured itself: the step's figures are printed
            // in its note for the record, and withheld as metrics.
            let why = format!(
                "{WITHHELD}: the generator kept its schedule in only {} of {} slices of the 10k step",
                lat.valid, lat.slices
            );
            for name in ["lat_p50_us", "lat_p99_us", "server_cpu_us_per_req"] {
                more.set(name, 0.0, why.clone());
            }
        } else {
            if !open {
                more.set("throughput_rps", lat.rates.reported(), lat.rates.note(0));
            } else {
                more.set(
                    "lat_p50_us",
                    lat.p50s.reported(),
                    format!(
                        "from due time, 10k step; per-slice p50, {}",
                        lat.p50s.note(1)
                    ),
                );
                more.set(
                    "lat_p99_us",
                    lat.p99s.reported(),
                    format!(
                        "from due time, 10k step; per-slice p99 ({} samples a slice), {}",
                        run.phases[0].run.slices.first().map_or(0, |s| s.requests),
                        lat.p99s.note(1)
                    ),
                );
            }
            more.set(
                "server_cpu_us_per_req",
                lat.cpu_us(),
                format!(
                    "dcn-serve CPU time{}, {}; whole phase as measured {:.2}",
                    if open { ", 10k step" } else { "" },
                    lat.cpus.note(2),
                    lat.cpu_whole_us
                ),
            );
        }
        let _ = write!(
            detail,
            ", \"slice_rps\": {}, \"slice_rps_at_reference\": {}, \"slice_p50_us\": {}, \
             \"slice_p50_us_at_reference\": {}, \"slice_p99_us\": {}, \"slice_cpu_us\": {}, \
             \"slice_cpu_us_at_reference\": {}",
            json_array(&lat.rates.raw),
            json_array(&lat.rates.at_reference),
            json_array(&lat.p50s.raw),
            json_array(&lat.p50s.at_reference),
            json_array(&lat.p99s.raw),
            json_array(&lat.cpus.raw),
            json_array(&lat.cpus.at_reference)
        );
    }

    let mut wrong = run.wrong.clone();
    let failed = run.tally.failed();
    more.set(
        "failed_share",
        failed as f64 / run.tally.sent.max(1) as f64,
        format!(
            "{failed} of {} requests: {} overloaded, {} errors, {} unanswered",
            run.tally.sent,
            run.tally.overloaded,
            run.tally.errors,
            failed.saturating_sub(run.tally.overloaded + run.tally.errors)
        ),
    );
    if open {
        let mut rate_ok = 0.0f64;
        let mut steps_json = Vec::new();
        for (phase, figures) in run.phases.iter().zip(figures) {
            let (step, note) = judge_step(phase, figures);
            if step.sustained {
                rate_ok = rate_ok.max(step.offered);
            }
            if !step.generator_ok {
                notes.push(format!(
                    "GENERATOR INVALID at the {:.0} req/s step: it kept its schedule in only {} of {} slices; the step cannot count as sustained and its figures are withheld",
                    step.offered, step.figures.valid, step.figures.slices
                ));
            }
            steps_json.push(format!(
                "{{\"offered\": {}, \"lat_p50_us\": {:.3}, \"lat_p99_us\": {:.3}, \"answered_rps\": {:.3}, \
                 \"failed_share\": {:.6}, \"valid_slices\": {}, \"slices\": {}, \"generator_ok\": {}, \"sustained\": {}}}",
                step.offered,
                median(&step.figures.p50s.raw),
                median(&step.figures.p99s.raw),
                median(&step.figures.rates.raw),
                step.failed_share,
                step.figures.valid,
                step.figures.slices,
                step.generator_ok,
                step.sustained
            ));
            notes.push(note);
        }
        more.set(
            "rate_ok_rps",
            rate_ok,
            format!(
                "highest step with a valid generator, median-slice p99 <= {RATE_OK_P99_US:.0} us as measured, failed + deferred share <= {RATE_OK_FAILED_SHARE}, no growing backlog"
            ),
        );
        let _ = write!(detail, ", \"steps\": [{}]", steps_json.join(", "));
    } else if let Some(phase) = run.phases.first() {
        notes.push(latency_note(&phase.run));
    }
    if total_answered == 0 {
        wrong.push("no request was answered".to_string());
    }
    Report {
        workload,
        seed,
        attempted: run.tally.sent,
        failed,
        wrong,
        end_to_end: e2e.finish(),
        report_only: more.finish(),
        per_layer: Vec::new(),
        notes,
        detail,
    }
    .closed()
}

/// The end-to-end half of a `sweep-grid` report.
pub fn sweep_report(workload: &'static str, seed: u64, run: &SweepRun) -> Report {
    let mut e2e = Sheet::new(END_TO_END);
    let mut more = Sheet::new(REPORT_ONLY);
    let mut detail = String::new();
    set_setup(
        &mut e2e,
        &run.setup,
        "grid expanded, trees built",
        &mut detail,
    );
    let cells_at_reference = run.median_cell_ns(true);
    let cells_raw = run.median_cell_ns(false);
    let pass_seconds = cells_at_reference.iter().sum::<f64>() / 1e9;
    let pass_seconds_raw = cells_raw.iter().sum::<f64>() / 1e9;
    let counts = &run.counts;
    let pass_s: Vec<f64> = run.pass_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let how = format!(
        "one pass of {} cells in {:.3} s at the reference clock ({:.3} s as measured), each cell at its median of {} passes (whole passes as measured: {})",
        counts.cells,
        pass_seconds,
        pass_seconds_raw,
        run.passes,
        fmt_five(&five_numbers(&pass_s), 3)
    );
    more.set(
        "sim_events_per_s",
        counts.events() as f64 / pass_seconds,
        format!("messages + answers; {how}"),
    );
    e2e.set(
        "peak_rss_mb",
        run.peak_rss_mb,
        "VmHWM of the harness process",
    );
    e2e.set(
        "msgs_per_req",
        counts.messages as f64 / counts.answered.max(1) as f64,
        format!(
            "exact: {} messages over {} answered requests",
            counts.messages, counts.answered
        ),
    );
    let attempted = counts.cells * run.passes as u64;
    let failed = counts.bad_cells * run.passes as u64;
    more.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        format!("{failed} of {attempted} cells errored or violated a condition"),
    );
    let notes = vec![format!(
        "csv hash {:016x} (identical in all {} passes)",
        counts.csv_hash, run.passes
    )];
    let _ = write!(
        detail,
        ", \"pass_s\": {}, \"pass_s_at_reference\": {pass_seconds:.6}, \"csv_hash\": \"{:016x}\", \"messages\": {}, \"answered\": {}",
        json_array(&pass_s),
        counts.csv_hash,
        counts.messages,
        counts.answered
    );
    Report {
        workload,
        seed,
        attempted,
        failed,
        wrong: run.wrong.clone(),
        end_to_end: e2e.finish(),
        report_only: more.finish(),
        per_layer: Vec::new(),
        notes,
        detail,
    }
    .closed()
}

/// What the in-process ladder of a serve workload measured.
pub struct LadderRun {
    pub plan: Plan,
    pub spans: Vec<Span>,
    pub counts: LadderCounts,
    /// Wall time of the same ladder replayed with the recorder off.
    pub untraced_ladder_ns: u64,
    pub micro: Option<MicroLayers>,
}

/// Adds the per-layer half to a serve report.
pub fn add_serve_layers(report: &mut Report, run: &ServeRun, ladder: &LadderRun) {
    let mut layers = Sheet::new(PER_LAYER);
    let plan = &ladder.plan;
    let per_req = |name: &str| ladder::per_request_ns(&ladder.spans, name, plan);
    let requests = ladder.counts.core.requests.max(1) as f64;

    let (submit, step, drain) = (
        per_req("core.submit"),
        per_req("core.step"),
        per_req("core.drain"),
    );
    let core_total = submit + step + drain;
    layers.set("core.submit_ns", submit, "Controller::submit, per request");
    layers.set(
        "core.step_ns_per_req",
        step,
        "Controller::step until quiescent, per request",
    );
    layers.set(
        "core.drain_ns_per_req",
        drain,
        "Controller::drain_events, per request",
    );
    layers.set(
        "core.msgs_per_req",
        ladder.counts.core.messages as f64 / requests,
        "exact on this replay",
    );
    layers.set(
        "core.moves_per_req",
        ladder.counts.core.moves as f64 / requests,
        "exact on this replay",
    );
    let events_per_req = ladder.counts.core.sim_events as f64 / requests;
    layers.set(
        "simnet.events_per_req",
        events_per_req,
        "simulator events processed inside step, exact on this replay",
    );
    if ladder.counts.core.sim_events > 0 {
        layers.set(
            "simnet.step_ns_per_event",
            step / events_per_req,
            "time inside Controller::step / simulator events",
        );
    }

    let batch = run.kind == ServeKind::Batch;
    let parse = per_req(if batch {
        "server.protocol.parse_batch"
    } else {
        "server.protocol.parse"
    });
    layers.set(
        if batch {
            "server.protocol.parse_batch_ns_per_req"
        } else {
            "server.protocol.parse_ns"
        },
        parse,
        "parse_frame, per request",
    );
    let encode = per_req("server.protocol.encode");
    layers.set(
        "server.protocol.encode_ns",
        encode,
        "the reply frames of one request (ticket + event), encoded on their own",
    );
    let (apply, pump) = (
        per_req("server.engine.apply"),
        per_req("server.engine.pump"),
    );
    layers.set(
        "server.engine.apply_ns",
        apply,
        "EngineCore::apply, per request",
    );
    layers.set(
        "server.engine.pump_ns_per_req",
        pump,
        "EngineCore::pump until quiescent, per request",
    );
    let engine_self = apply + pump - core_total - encode;
    layers.set(
        "server.engine.self_ns_per_req",
        engine_self,
        "apply + pump - core - encode",
    );
    let loopback = per_req("server.loopback");
    layers.set(
        "server.loopback.req_ns",
        loopback,
        "Loopback::send / run_to_quiescence / recv, per request",
    );

    // What the rungs below explain of the loopback rung, and what they do
    // not (the transport's own queueing, and whatever differed between two
    // replays of the same input).
    let explained = parse + apply + pump;
    layers.set(
        "trace.unattributed_share",
        ((loopback - explained) / loopback.max(1e-9)).abs(),
        format!("|loopback - (parse + apply + pump)| / loopback = |{loopback:.0} - {explained:.0}| / {loopback:.0}"),
    );
    let traced_ladder_ns = ladder
        .spans
        .iter()
        .find(|s| s.name == "ladder")
        .map_or(0, |s| s.end_ns - s.start_ns);
    // Two replays minutes of host drift apart would differ by more than the
    // recorder costs; these two run seconds apart, and the share is floored
    // at 0.
    layers.set(
        "trace.overhead_share",
        ((traced_ladder_ns as f64 - ladder.untraced_ladder_ns as f64)
            / ladder.untraced_ladder_ns.max(1) as f64)
            .max(0.0),
        format!(
            "the whole ladder with the recorder on {:.1} ms vs off {:.1} ms",
            traced_ladder_ns as f64 / 1e6,
            ladder.untraced_ladder_ns as f64 / 1e6
        ),
    );

    // The TCP rung is the run itself.
    let phase = run.phases.first();
    let server_cpu_us = phase.map_or(0.0, |p| PhaseFigures::of(p).cpu_us_as_measured());
    layers.set(
        "server.net.cpu_us_per_req",
        server_cpu_us - loopback / 1e3,
        format!("server_cpu_us_per_req as measured {server_cpu_us:.2} - server.loopback.req_ns: threads, channels, syscalls"),
    );
    layers.set(
        "server.net.rtt_us",
        percentile(&run.rtt_ns, 0.5) as f64 / 1e3,
        format!("median of {} window-1 round trips", run.rtt_ns.len()),
    );
    layers.set(
        "server.net.overloaded",
        run.tally.overloaded as f64,
        "overloaded frames over the whole connection",
    );
    layers.set(
        "server.net.dropped_frames",
        run.stats.dropped_frames as f64,
        "from the stats frame",
    );
    if let Some(p) = phase {
        layers.set(
            "server.net.ctx_switches_per_req",
            p.server_ctx_switches as f64 / p.run.tally.answered().max(1) as f64,
            "voluntary + involuntary, all dcn-serve threads",
        );
    }
    layers.set(
        "server.net.bytes_per_req",
        ladder.counts.loopback.bytes as f64 / requests,
        "request + reply bytes on the loopback replay (exact)",
    );
    if let Some(m) = &ladder.micro {
        set_micro(&mut layers, m);
    }

    // The dominance the workload was chosen for.
    let core_share = core_total / 1e3 / server_cpu_us.max(1e-9);
    report.notes.push(format!(
        "dominance: core (+simnet) {:.1} % of server_cpu_us_per_req, server.* {:.1} % (core {core_total:.0} ns, engine self {engine_self:.0} ns, loopback {loopback:.0} ns, server cpu {:.0} ns per request)",
        100.0 * core_share,
        100.0 * (1.0 - core_share),
        server_cpu_us * 1e3
    ));
    for (name, counts) in [
        ("engine", &ladder.counts.engine),
        ("loopback", &ladder.counts.loopback),
    ] {
        let same = (
            counts.input_hash,
            counts.requests,
            counts.granted,
            counts.messages,
        ) == (
            ladder.counts.core.input_hash,
            ladder.counts.core.requests,
            ladder.counts.core.granted,
            ladder.counts.core.messages,
        );
        if !same {
            report.wrong.push(format!(
                "the {name} rung disagrees with the core rung on the same inputs: {counts:?} vs {:?}",
                ladder.counts.core
            ));
        }
    }
    if ladder.counts.core.granted != ladder.counts.core.requests {
        report.wrong.push(format!(
            "replay: {} of {} requests granted",
            ladder.counts.core.granted, ladder.counts.core.requests
        ));
    }
    report.per_layer = layers.finish();
}

fn set_micro(layers: &mut Sheet, m: &MicroLayers) {
    layers.set(
        "tree.add_leaf_ns",
        m.tree_add_leaf_ns,
        "DynamicTree::add_leaf under a random node",
    );
    layers.set(
        "tree.remove_ns",
        m.tree_remove_ns,
        "DynamicTree::remove of a leaf",
    );
    layers.set(
        "tree.ancestor_hop_ns",
        m.tree_ancestor_hop_ns,
        "one parent() step from the deepest node",
    );
    layers.set(
        "tree.carve_ms",
        m.tree_carve_ms,
        "RegionMap::carve(k = 4) of the workload's tree",
    );
    layers.set(
        "collections.calendar.schedule_ns",
        m.calendar_schedule_ns,
        "CalendarQueue::schedule, default delay model",
    );
    layers.set(
        "collections.calendar.pop_ns",
        m.calendar_pop_ns,
        "CalendarQueue::pop",
    );
}

/// Adds the per-layer half to a `sweep-grid` report: `untraced_pass_ns` is
/// the fastest whole pass of a run without spans.
pub fn add_sweep_layers(
    report: &mut Report,
    run: &SweepRun,
    micro: &MicroLayers,
    spans: &[Span],
    untraced_pass_ns: u64,
) {
    let mut layers = Sheet::new(PER_LAYER);
    let cells = run.median_cell_ns(false);
    let mut by_layer: std::collections::BTreeMap<&str, (f64, u64)> = Default::default();
    for (family, ns) in run.families.iter().zip(&cells) {
        let e = by_layer.entry(crate::sweep::layer_of(family)).or_default();
        e.0 += ns;
        e.1 += 1;
    }
    for (layer, (ns, cells)) in &by_layer {
        // "core.cell.distributed" -> "core.cell_ms.distributed"
        let name = layer.replacen(".cell.", ".cell_ms.", 1);
        layers.set(
            &name,
            *ns / *cells as f64 / 1e6,
            format!("mean of {cells} cells, each at its median pass"),
        );
    }
    if let Some((cells, waves)) = run.sharded_waves {
        layers.set(
            "core.sharded.waves_per_cell",
            waves as f64 / cells.max(1) as f64,
            format!("{waves} exchange waves over {cells} sharded:k4 cells"),
        );
    }
    let counts = &run.counts;
    layers.set(
        "simnet.events_per_req",
        counts.events() as f64 / counts.answered.max(1) as f64,
        "messages + answers per answered request (exact)",
    );
    layers.set(
        "simnet.step_ns_per_event",
        cells.iter().sum::<f64>() / counts.events().max(1) as f64,
        "wall time of one pass / simulated events (the cells are all there is)",
    );
    layers.set(
        "core.msgs_per_req",
        counts.messages as f64 / counts.answered.max(1) as f64,
        "exact",
    );
    set_micro(&mut layers, micro);
    let fastest_pass = run.pass_ns.iter().copied().min().unwrap_or(0);
    let in_cells: u64 = run
        .cell_ns
        .iter()
        .zip(&run.pass_ns)
        .filter(|(_, &p)| p == fastest_pass)
        .map(|(cells, _)| cells.iter().sum::<u64>())
        .next()
        .unwrap_or(0);
    layers.set(
        "trace.unattributed_share",
        fastest_pass.saturating_sub(in_cells) as f64 / fastest_pass.max(1) as f64,
        "share of the fastest pass outside any cell span (report assembly, CSV, hashing)",
    );
    layers.set(
        "trace.overhead_share",
        ((fastest_pass as f64 - untraced_pass_ns as f64) / untraced_pass_ns.max(1) as f64).max(0.0),
        format!("fastest pass with spans {fastest_pass} ns vs without {untraced_pass_ns} ns"),
    );
    let server_spans = spans
        .iter()
        .filter(|s| s.name.starts_with("server."))
        .count();
    report.notes.push(format!(
        "dominance: server.* spans {server_spans} (the sweep opens no socket and builds no engine)"
    ));
    report.per_layer = layers.finish();
}

impl Report {
    /// Closes an untraced report: a gated metric that came out 0 (or was
    /// never set) is a run that measured nothing, not a value to compare.
    fn closed(mut self) -> Report {
        for m in self.end_to_end.iter().filter(|m| m.value <= 0.0) {
            self.wrong
                .push(format!("{} is {}: {}", m.def.name, m.value, m.note));
        }
        self
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The human report.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}  seed {}", self.workload, self.seed);
        let _ = writeln!(
            out,
            "end-to-end, gated by BENCHMARK.json ({}; v lower is better, ^ higher)",
            if traced {
                "traced run: shorter, for reference"
            } else {
                "tracing off"
            }
        );
        let arrow = |b: Better| if b == Better::Lower { "v" } else { "^" };
        for m in &self.end_to_end {
            let _ = writeln!(
                out,
                "  {:<24} {:>14.4} {:<6} {} {}",
                m.def.name,
                m.value,
                m.def.unit,
                arrow(m.def.better),
                m.note
            );
        }
        let _ = writeln!(
            out,
            "end-to-end, printed but not gated (see README, Calibration)"
        );
        for m in &self.report_only {
            if m.note == NOT_MEASURED || m.note.starts_with(WITHHELD) {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>14} {:<6} {} {}",
                    m.def.name,
                    "-",
                    m.def.unit,
                    arrow(m.def.better),
                    m.note
                );
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<24} {:>14.4} {:<6} {} {}",
                m.def.name,
                m.value,
                m.def.unit,
                arrow(m.def.better),
                m.note
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        if traced {
            let _ = writeln!(out, "per-layer");
            for m in &self.per_layer {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>14.4} {:<6} {} {}",
                    m.def.name,
                    m.value,
                    m.def.unit,
                    arrow(m.def.better),
                    m.note
                );
            }
        }
        if self.correct() {
            let _ = writeln!(
                out,
                "checks: ok ({} attempted, {} failed)",
                self.attempted, self.failed
            );
        } else {
            for w in &self.wrong {
                let _ = writeln!(out, "CHECK FAILED: {w}");
            }
        }
        out
    }

    fn metrics_json(metrics: &[Measured]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.def.name, m.value, m.def.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The driver's line: every end-to-end metric of an untraced run, every
    /// per-layer metric of a traced one.
    pub fn driver_line(&self, traced: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            Self::metrics_json(if traced {
                &self.per_layer
            } else {
                &self.end_to_end
            })
        )
    }

    /// The detail file: everything above plus per-slice values.
    pub fn detail_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"report_only\": {}, \"per_layer\": {}, {}}}\n",
            self.workload,
            self.seed,
            self.correct(),
            self.attempted,
            self.failed,
            Self::metrics_json(&self.end_to_end),
            Self::metrics_json(&self.report_only),
            Self::metrics_json(&self.per_layer),
            self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{GeneratorSlice, Slice};

    #[test]
    fn the_companion_slice_is_five_percent_from_the_best_and_never_the_extreme() {
        let slices: Vec<f64> = (0..256).map(f64::from).collect();
        assert_eq!(ranked(&slices, BEST_SHARE), 13.0);
        assert_eq!(ranked(&slices, 1.0 - BEST_SHARE), 243.0);
        // Few slices: the second best, not the best.
        let few: Vec<f64> = (0..17).map(f64::from).collect();
        assert_eq!(ranked(&few, BEST_SHARE), 1.0);
        assert_eq!(ranked(&few, 1.0 - BEST_SHARE), 15.0);
        assert_eq!(ranked(&[7.0], BEST_SHARE), 7.0);
        assert_eq!(ranked(&[], BEST_SHARE), 0.0);
    }

    #[test]
    fn a_run_reports_its_median_slice_at_the_reference_clock() {
        // Three slices on a clock at two thirds of the reference, one of
        // them stalled: times shrink by the factor, rates grow by it, and
        // the stall does not decide either.
        let factors = [2.0 / 3.0; 3];
        let times = PerSlice::times(vec![150.0, 9_000.0, 150.0], &factors);
        assert!((times.reported() - 100.0).abs() < 1e-9);
        assert_eq!(median(&times.raw), 150.0);
        let rates = PerSlice::rates(vec![200.0, 3.0, 200.0], &factors);
        assert!((rates.reported() - 300.0).abs() < 1e-9);
        assert!(rates.best() >= rates.reported() && times.best() <= times.reported());
    }

    fn slice(requests: usize) -> Slice {
        Slice {
            requests,
            seconds: 1.0,
            latencies_ns: vec![1_000; requests],
        }
    }

    #[test]
    fn cpu_is_told_apart_by_slice_group() {
        let run = LoadRun {
            slices: (0..64).map(|_| slice(10)).collect(),
            // 1 000 ns of CPU per slice from a clock that started at 5 000.
            slice_marks: (0..=64).map(|i| 5_000 + 1_000 * i).collect(),
            ..LoadRun::default()
        };
        let (groups, factors) = slice_cpu_us(&run, &[0.5; 64]);
        assert_eq!((groups.len(), factors.len()), (32, 32));
        assert!(
            groups.iter().all(|&us| (us - 0.1).abs() < 1e-12),
            "{groups:?}"
        );
        assert!(factors.iter().all(|&f| f == 0.5));
        // A clock that could not be read leaves nothing to tell apart.
        let blind = LoadRun {
            slice_marks: vec![0; 65],
            ..run
        };
        assert!(slice_cpu_us(&blind, &[0.5; 64]).0.is_empty());
    }

    #[test]
    fn slices_in_which_the_generator_fell_behind_do_not_count() {
        let on_time = GeneratorSlice {
            lateness_p99_ns: 20_000,
            rate_share: 1.0,
            deferred: 0,
        };
        let late = GeneratorSlice {
            lateness_p99_ns: 900_000,
            ..on_time
        };
        let slow = GeneratorSlice {
            rate_share: 0.9,
            ..on_time
        };
        let mut run = LoadRun {
            slices: (0..4).map(|_| slice(100)).collect(),
            generator: vec![on_time, late, slow, on_time],
            ..LoadRun::default()
        };
        assert_eq!(valid_slices(&run), [true, false, false, true]);
        // Missing probes leave the clock factor at 1.
        assert_eq!(slice_factors(&run), [1.0; 4]);
        run.slice_probe_ns = vec![crate::clock::PROBE_REFERENCE_NS as u64; 5];
        assert_eq!(slice_factors(&run), [1.0; 4]);
        let phase = Phase {
            offered_rps: Some(100.0),
            run,
            server_cpu_us: 0,
            server_ctx_switches: 0,
            messages: 0,
        };
        let figures = PhaseFigures::of(&phase);
        assert_eq!((figures.slices, figures.valid), (4, 2));
        assert_eq!(figures.p50s.raw.len(), 2);
        // Two of four slices stand: the step does; one more lost and it does
        // not. A long step needs eight, however many it has.
        let (step, _) = judge_step(&phase, figures);
        assert!(step.generator_ok);
        let mut worse = phase;
        worse.run.generator[0] = late;
        let (step, _) = judge_step(&worse, PhaseFigures::of(&worse));
        assert!(!step.generator_ok && !step.sustained);
    }
}
