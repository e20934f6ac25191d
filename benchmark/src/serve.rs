//! The four serve workloads: `dcn-serve` as a separate process, driven over
//! one TCP connection.

use crate::client::{self, ClosedPlan, LoadRun};
use crate::clock::{now_ns, probe_ns, Timed};
use crate::gen::{poisson_schedule, stream_seed, ChurnSource, EventSource, OpSource};
use crate::server::{Conn, Server, ServerSpec, ServerStats};
use crate::tally::Tally;
use std::io;
use std::path::Path;

/// Budget and waste bound of every served controller: large enough that
/// every request of every workload is granted (steady state, no reject
/// tail), and the same everywhere so workloads compare.
pub const M: u64 = 4_194_304;
pub const W: u64 = 4_096;

/// How many times a run starts the server to time it, before the load and
/// again after it (two windows seconds apart see the host in more than one
/// mood). The last server of the first round serves the run.
pub const SETUP_REPEATS: usize = 24;

/// Equal-work slices a load phase is cut into: as many as leave each slice
/// the 1 000 samples its p99 needs, at most 256 (about 30 ms each: short
/// enough that some fall between two spells of host interference).
pub fn slices_for(requests: usize) -> usize {
    (requests / 1_000).clamp(8, 256)
}

/// Length of the untimed warm-up, in seconds of the workload's own load
/// (sized like the measured phase, from its nominal rate). Connection,
/// allocator and branch predictors settle in milliseconds; the host takes
/// longer: when both virtual CPUs of the reference box turn busy after a
/// quiet spell they share one physical core for about a second (two ALU
/// loops started together both run at half speed for that long), and a
/// phase that starts inside that second reports it.
const WARMUP_SECONDS: f64 = 1.5;
/// The shortest warm-up, whatever the scale.
const WARMUP_MIN_REQUESTS: usize = 2_000;
/// Offered rate of the open loop's warm-up step.
const OPEN_WARMUP_RPS: f64 = 30_000.0;

/// The serve workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Open,
    Pipe,
    Batch,
    Churn,
}

impl ServeKind {
    pub fn server(self, seed: u64) -> ServerSpec {
        let (family, shape, nodes) = match self {
            ServeKind::Churn => ("distributed", "path", CHURN_NODES),
            _ => ("centralized", "star", 64),
        };
        ServerSpec {
            family,
            shape,
            nodes,
            m: M,
            w: W,
            seed: stream_seed(seed, "server"),
        }
    }
}

/// Offered rates of the open-loop steps, requests per second.
pub const OPEN_RATES: [f64; 3] = [10_000.0, 30_000.0, 60_000.0];

/// Request rates the closed loops are sized by: a run sends
/// `rate × --seconds` requests, so it measures for about `--seconds` on the
/// commit and box the rates were taken on (see README, "Sizing"). They size
/// the work only; no metric is computed from them.
pub const PIPE_NOMINAL_RPS: f64 = 170_000.0;
/// Most requests a centralized closed loop sends, so that with its warm-up
/// it stays far below `M - W` and every request is granted.
pub const PIPE_MAX_REQUESTS: usize = 2_048_000;
pub const CHURN_NOMINAL_RPS: f64 = 17_000.0;

/// In-flight requests of the two centralized closed loops, and the group
/// they are released in (one write of single-line frames, or one `batch`
/// frame).
pub const PIPE_WINDOW: usize = 128;
pub const PIPE_UNIT: usize = 64;

pub const CHURN_WINDOW: usize = 32;
pub const CHURN_NODES: usize = 256;
pub const CHURN_BAND: usize = 64;

/// One measured phase of a serve run, with the server-side deltas taken
/// around it.
pub struct Phase {
    /// Offered rate of an open-loop step; `None` for a closed loop.
    pub offered_rps: Option<f64>,
    pub run: LoadRun,
    pub server_cpu_us: u64,
    pub server_ctx_switches: u64,
    /// Messages the controller counted during the phase.
    pub messages: u64,
}

/// Everything one serve run observed.
pub struct ServeRun {
    pub kind: ServeKind,
    /// Every timed start of the server: spawn until the `welcome` frame.
    pub setup: Vec<Timed>,
    pub phases: Vec<Phase>,
    /// Window-1 round trips, ascending (traced runs only).
    pub rtt_ns: Vec<u64>,
    /// The whole connection's tally (warm-up included), which is what the
    /// server's counters must equal.
    pub tally: Tally,
    pub stats: ServerStats,
    pub peak_rss_mb: f64,
    /// Output checks that failed (empty = correct).
    pub wrong: Vec<String>,
}

/// Runs one load phase between two readings of the server's counters.
/// Phases start and end with nothing in flight, so the `stats` exchanges
/// around them see a quiet connection.
fn timed_phase(
    server: &Server,
    conn: &mut Conn,
    offered_rps: Option<f64>,
    load: impl FnOnce(&mut Conn) -> io::Result<LoadRun>,
) -> io::Result<Phase> {
    let messages = conn.stats()?.messages;
    let (cpu, ctx) = (server.cpu_us()?, server.context_switches()?);
    let run = load(conn)?;
    let server_cpu_us = server.cpu_us()? - cpu;
    let server_ctx_switches = server.context_switches()?.saturating_sub(ctx);
    Ok(Phase {
        offered_rps,
        run,
        server_cpu_us,
        server_ctx_switches,
        messages: conn.stats()?.messages - messages,
    })
}

/// Runs one serve workload. `seconds` sizes the work, `scale` shrinks it
/// (`--smoke`), `with_rtt` adds the window-1 ping-pong phase of a traced
/// run.
pub fn run(
    bin: &Path,
    kind: ServeKind,
    seed: u64,
    seconds: f64,
    scale: f64,
    with_rtt: bool,
) -> io::Result<ServeRun> {
    let spec = kind.server(seed);
    // Set-up, several times over: spawn until the welcome frame.
    let mut setup = Vec::with_capacity(2 * SETUP_REPEATS);
    let mut timed_start = || -> io::Result<(Server, Conn)> {
        let before = probe_ns();
        let start = now_ns();
        let server = Server::spawn(bin, &spec)?;
        let conn = server.connect()?;
        let seconds = (now_ns() - start) as f64 / 1e9;
        setup.push(Timed {
            seconds,
            probe_ns: before.min(probe_ns()),
        });
        Ok((server, conn))
    };
    let (mut server, mut conn) = timed_start()?;
    for _ in 1..SETUP_REPEATS {
        Server::stop(server, conn)?;
        (server, conn) = timed_start()?;
    }

    let ops_seed = stream_seed(seed, "ops");
    let initial_nodes = conn.nodes as usize;
    let mut events = EventSource::new(ops_seed, conn.nodes);
    let mut churn = ChurnSource::new(ops_seed, initial_nodes, CHURN_BAND);
    let mut tally = Tally::default();
    let mut next_tag = 0u64;
    let mut phases = Vec::new();
    let mut rtt_ns = Vec::new();

    let closed = |total: usize, window, unit, batch_frames| ClosedPlan {
        total,
        window,
        unit,
        batch_frames,
        slices: slices_for(total),
    };
    let sized = |rate: f64| ((rate * seconds * scale) as usize).max(2_048);
    let warm_up = |rate: f64| ((rate * WARMUP_SECONDS * scale) as usize).max(WARMUP_MIN_REQUESTS);

    // Warm-up under the workload's own load, untimed.
    {
        let warm = match kind {
            ServeKind::Open => {
                let due = poisson_schedule(
                    stream_seed(seed, "warm-up"),
                    OPEN_WARMUP_RPS,
                    warm_up(OPEN_WARMUP_RPS),
                );
                client::run_open(&mut conn, &mut events, next_tag, &due, 1, &mut || 0)?
            }
            ServeKind::Churn => {
                let plan = closed(warm_up(CHURN_NOMINAL_RPS), CHURN_WINDOW, 1, false);
                client::run_closed(&mut conn, &mut churn, next_tag, &plan, &mut || 0)?
            }
            ServeKind::Pipe | ServeKind::Batch => {
                let plan = closed(
                    warm_up(PIPE_NOMINAL_RPS),
                    PIPE_WINDOW,
                    PIPE_UNIT,
                    kind == ServeKind::Batch,
                );
                client::run_closed(&mut conn, &mut events, next_tag, &plan, &mut || 0)?
            }
        };
        next_tag += warm.tally.sent;
        tally.add(&warm.tally);
    }
    if with_rtt {
        let count = ((2_000.0 * scale.sqrt()) as usize).max(200);
        let source: &mut dyn OpSource = match kind {
            ServeKind::Churn => &mut churn,
            _ => &mut events,
        };
        let pings = client::ping_pong(&mut conn, source, next_tag, count)?;
        next_tag += pings.tally.sent;
        tally.add(&pings.tally);
        rtt_ns = pings.latencies_ns;
    }

    // The server's CPU clock, read at every slice boundary of a measured
    // phase. A failed read shows as a zero-cost slice, not as a failed run.
    let mut server_cpu = || server.cpu_ns().unwrap_or(0);
    match kind {
        ServeKind::Open => {
            for (step, rate) in OPEN_RATES.into_iter().enumerate() {
                let count =
                    ((rate * seconds * scale / OPEN_RATES.len() as f64) as usize).max(2_000);
                let due =
                    poisson_schedule(stream_seed(seed, &format!("schedule{step}")), rate, count);
                let phase = timed_phase(&server, &mut conn, Some(rate), |conn| {
                    client::run_open(
                        conn,
                        &mut events,
                        next_tag,
                        &due,
                        slices_for(count),
                        &mut server_cpu,
                    )
                })?;
                next_tag += phase.run.tally.sent;
                tally.add(&phase.run.tally);
                phases.push(phase);
            }
        }
        ServeKind::Pipe | ServeKind::Batch => {
            let plan = closed(
                sized(PIPE_NOMINAL_RPS).min(PIPE_MAX_REQUESTS),
                PIPE_WINDOW,
                PIPE_UNIT,
                kind == ServeKind::Batch,
            );
            let phase = timed_phase(&server, &mut conn, None, |conn| {
                client::run_closed(conn, &mut events, next_tag, &plan, &mut server_cpu)
            })?;
            tally.add(&phase.run.tally);
            phases.push(phase);
        }
        ServeKind::Churn => {
            let plan = closed(sized(CHURN_NOMINAL_RPS), CHURN_WINDOW, 1, false);
            let phase = timed_phase(&server, &mut conn, None, |conn| {
                client::run_closed(conn, &mut churn, next_tag, &plan, &mut server_cpu)
            })?;
            tally.add(&phase.run.tally);
            phases.push(phase);
        }
    }

    // Nothing is in flight any more (or the server stopped answering, which
    // the tally shows), so the next frame is the stats reply.
    let mut stats = conn.stats()?;
    if kind == ServeKind::Churn {
        // A granted removal is applied once its node is idle, which can be
        // after the last answer: give the engine a moment to finish.
        for _ in 0..1_000 {
            if stats.nodes == churn.live_count() as u64 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            stats = conn.stats()?;
        }
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    let mut wrong = tally.reconcile(&stats, M, W);
    if kind == ServeKind::Churn {
        let band = (initial_nodes - CHURN_BAND) as u64..=(initial_nodes + CHURN_BAND) as u64;
        if !band.contains(&stats.nodes) || stats.nodes != churn.live_count() as u64 {
            wrong.push(format!(
                "tree: server has {} nodes, client counts {}, band is {band:?}",
                stats.nodes,
                churn.live_count()
            ));
        }
    }
    if conn.stray_frames > 0 {
        wrong.push(format!(
            "{} frames arrived after their phase had given up on them",
            conn.stray_frames
        ));
    }
    if let Err(e) = Server::stop(server, conn) {
        wrong.push(format!("shutdown: {e}"));
    }
    for _ in 0..SETUP_REPEATS {
        let (server, conn) = timed_start()?;
        Server::stop(server, conn)?;
    }
    Ok(ServeRun {
        kind,
        setup,
        phases,
        rtt_ns,
        tally,
        stats,
        peak_rss_mb,
        wrong,
    })
}
