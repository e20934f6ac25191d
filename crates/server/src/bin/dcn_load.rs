//! `dcn-load` — open-loop load generator for `dcn-serve`.
//!
//! ```text
//! dcn-load --addr HOST:PORT [--clients N] [--requests TOTAL] [--rate R]
//!          [--kind event|add-leaf|mixed] [--seed N] [--report PATH]
//!          [--shutdown]
//! ```
//!
//! Spawns `--clients` connection threads. Each one performs the protocol
//! handshake (`hello`, `subscribe`), then submits its share of `--requests`
//! permit requests **open-loop**: inter-arrival gaps are exponential with
//! per-client rate `--rate` (requests/sec; `0` = no pacing), drawn from a
//! seeded [`DetRng`], and the sender never waits for an answer — exactly the
//! arrival model of an M/M/c-style queueing experiment, so a server that
//! falls behind accumulates queue instead of silently slowing the clients.
//!
//! A per-connection reader thread matches streamed outcome events back to
//! send timestamps via the client-chosen `tag`, recording one grant-latency
//! sample per answered request. The merged result — sustained requests/sec
//! plus p50/p90/p95/p99/max latency — is emitted as a single-line JSON
//! report (`--report PATH`, default stdout); CI's serve smoke asserts on it.
//!
//! `--shutdown` sends `{"op": "shutdown"}` after the run, letting scripts
//! tear the server down cleanly.
//!
//! This binary is intentionally wall-clock driven (it measures a real
//! server); every `Instant` site carries a `// determinism:` justification
//! because nothing here feeds the deterministic sweep reports.

use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_workload::json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
// determinism: dcn-load measures a live TCP server's wall-clock latency; its
// determinism: report is a measurement artifact (like crates/bench timings),
// determinism: never an input to the pinned sweep outputs.
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    clients: usize,
    requests: u64,
    rate: f64,
    kind: String,
    seed: u64,
    report: Option<String>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        clients: 4,
        requests: 10_000,
        rate: 0.0,
        kind: "event".to_string(),
        seed: 1,
        report: None,
        shutdown: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--kind" => args.kind = value("--kind")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--report" => args.report = Some(value("--report")?),
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if args.clients == 0 {
        return Err("--clients must be at least 1".to_string());
    }
    if !matches!(args.kind.as_str(), "event" | "add-leaf" | "mixed") {
        return Err(format!(
            "--kind must be event, add-leaf or mixed, got {:?}",
            args.kind
        ));
    }
    Ok(args)
}

/// One connection's tally.
#[derive(Default)]
struct Tally {
    sent: u64,
    granted: u64,
    rejected: u64,
    refused: u64,
    errors: u64,
    lost: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn answered(&self) -> u64 {
        self.granted + self.rejected + self.refused
    }

    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.granted += other.granted;
        self.rejected += other.rejected;
        self.refused += other.refused;
        self.errors += other.errors;
        self.lost += other.lost;
        self.latencies_us.extend(other.latencies_us);
    }
}

fn handshake(w: &mut BufWriter<TcpStream>, r: &mut BufReader<TcpStream>) -> Result<u64, String> {
    let mut line = String::new();
    w.write_all(b"{\"op\": \"hello\", \"proto\": 1}\n")
        .and_then(|_| w.flush())
        .map_err(|e| format!("hello write: {e}"))?;
    r.read_line(&mut line)
        .map_err(|e| format!("hello read: {e}"))?;
    let welcome = json::parse(line.trim_end()).map_err(|e| format!("welcome frame: {e}"))?;
    let nodes = welcome
        .get("nodes")
        .and_then(|n| n.as_u64())
        .map_err(|e| format!("welcome frame: {e}"))?;
    line.clear();
    w.write_all(b"{\"op\": \"subscribe\"}\n")
        .and_then(|_| w.flush())
        .map_err(|e| format!("subscribe write: {e}"))?;
    r.read_line(&mut line)
        .map_err(|e| format!("subscribe read: {e}"))?;
    json::parse(line.trim_end())
        .map_err(|e| format!("subscribe reply: {e}"))?
        .get("ok")
        .map_err(|e| format!("subscribe reply: {e}"))?;
    Ok(nodes)
}

/// Reads streamed frames until every sent request has a final answer (an
/// outcome event, a tagged error, or an untagged overload rejection), the
/// socket idles out, or the server goes away.
fn reader_loop(
    stream: &TcpStream,
    mut r: BufReader<TcpStream>,
    // determinism: send-timestamp handoff for latency measurement only.
    stamps: &mpsc::Receiver<(u64, Instant)>,
    expected: u64,
) -> Tally {
    let mut tally = Tally::default();
    // determinism: tag → send time; latency samples are wall-clock by design.
    let mut pending: HashMap<u64, Instant> = HashMap::new();
    // Idle guard: when the stream stays silent this long, the remaining
    // requests are declared lost (e.g. frames dropped on a full outbox).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut line = String::new();
    while tally.answered() + tally.errors + tally.lost < expected {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => {
                // Timeout (or hard error) with requests outstanding.
                tally.lost = expected - tally.answered() - tally.errors;
                break;
            }
        }
        while let Ok((tag, at)) = stamps.try_recv() {
            pending.insert(tag, at);
        }
        let v = match json::parse(line.trim_end()) {
            Ok(v) => v,
            Err(_) => {
                tally.errors += 1;
                continue;
            }
        };
        let tag = v
            .get_opt("tag")
            .ok()
            .flatten()
            .and_then(|t| t.as_u64().ok());
        if let Ok(event) = v.get("event").and_then(|e| e.as_str()) {
            match event {
                "granted" => tally.granted += 1,
                "rejected" => tally.rejected += 1,
                "refused" => tally.refused += 1,
                // Topology events are informational, not answers.
                _ => continue,
            }
            if let Some(at) = tag.and_then(|t| pending.remove(&t)) {
                tally
                    .latencies_us
                    .push(u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX));
            }
        } else if v.get("error").is_ok() {
            // Tagged: a specific request was refused at submission. Untagged:
            // an overload/framing rejection that still consumed one line.
            tally.errors += 1;
            if let Some(t) = tag {
                pending.remove(&t);
            }
        }
        // Ticket acks and stats replies are not final answers.
    }
    tally
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    addr: &str,
    requests: u64,
    rate: f64,
    kind: &str,
    seed: u64,
) -> Result<Tally, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let nodes = handshake(&mut w, &mut r)?;

    let (stamp_tx, stamp_rx) = mpsc::channel();
    let reader = thread::Builder::new()
        .name("dcn-load-read".to_string())
        .spawn({
            let stream = stream.try_clone().map_err(|e| e.to_string())?;
            move || reader_loop(&stream, r, &stamp_rx, requests)
        })
        .map_err(|e| e.to_string())?;

    let mut rng = DetRng::seed_from_u64(seed);
    let mut sent = 0u64;
    for tag in 0..requests {
        let node = rng.gen_range(0..nodes.max(1));
        let kind_str = match kind {
            "event" => "event",
            "add-leaf" => "add-leaf",
            // A 9:1 permit/growth mix keeps the tree changing under load.
            _ => {
                if rng.gen_bool(0.9) {
                    "event"
                } else {
                    "add-leaf"
                }
            }
        };
        let line = format!(
            "{{\"op\": \"submit\", \"kind\": \"{kind_str}\", \"node\": {node}, \"tag\": {tag}}}\n"
        );
        // determinism: the send stamp starts this request's latency clock.
        let _ = stamp_tx.send((tag, Instant::now()));
        if w.write_all(line.as_bytes())
            .and_then(|_| w.flush())
            .is_err()
        {
            break;
        }
        sent += 1;
        if rate > 0.0 {
            // Open-loop pacing: exponential inter-arrival gaps of mean
            // 1/rate, independent of how fast the server answers.
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let gap = -(1.0 - unit).ln() / rate;
            thread::sleep(Duration::from_secs_f64(gap.min(1.0)));
        }
    }
    drop(stamp_tx);
    let mut tally = reader
        .join()
        .map_err(|_| "reader thread panicked".to_string())?;
    tally.sent = sent;
    // Requests that never got a line back (e.g. the sender broke off early).
    let accounted = tally.answered() + tally.errors + tally.lost;
    tally.lost += sent.saturating_sub(accounted);
    Ok(tally)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn send_shutdown(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut r = BufReader::new(stream);
    w.write_all(b"{\"op\": \"hello\", \"proto\": 1}\n{\"op\": \"shutdown\"}\n")
        .and_then(|_| w.flush())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    let _ = r.read_line(&mut line); // welcome
    line.clear();
    let _ = r.read_line(&mut line); // shutting-down
    if line.contains("shutting-down") {
        Ok(())
    } else {
        Err(format!("unexpected shutdown reply: {}", line.trim_end()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dcn-load: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let per_client = args.requests / args.clients as u64;
    let remainder = args.requests % args.clients as u64;
    // determinism: wall time over a live server is the measured quantity.
    let start = Instant::now();
    let mut workers = Vec::new();
    for idx in 0..args.clients {
        let addr = args.addr.clone();
        let kind = args.kind.clone();
        let quota = per_client + u64::from((idx as u64) < remainder);
        let seed = args
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx as u64 + 1);
        let rate = args.rate;
        workers.push(
            thread::Builder::new()
                .name(format!("dcn-load-{idx}"))
                .spawn(move || run_client(&addr, quota, rate, &kind, seed)),
        );
    }
    let mut total = Tally::default();
    let mut failures = Vec::new();
    for worker in workers {
        match worker.map(|w| w.join()) {
            Ok(Ok(Ok(tally))) => total.merge(tally),
            Ok(Ok(Err(msg))) => failures.push(msg),
            Ok(Err(_)) => failures.push("client thread panicked".to_string()),
            Err(e) => failures.push(e.to_string()),
        }
    }
    let elapsed = start.elapsed();

    if args.shutdown {
        if let Err(msg) = send_shutdown(&args.addr) {
            eprintln!("dcn-load: shutdown: {msg}");
            failures.push(msg);
        }
    }
    for msg in &failures {
        eprintln!("dcn-load: client error: {msg}");
    }
    if total.sent == 0 {
        eprintln!("dcn-load: no requests were sent");
        return ExitCode::FAILURE;
    }

    total.latencies_us.sort_unstable();
    let lat = &total.latencies_us;
    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    let answered = total.answered();
    let rps = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    let report = format!(
        "{{\"tool\": \"dcn-load\", \"addr\": {}, \"clients\": {}, \"requests\": {}, \
         \"rate_per_client\": {}, \"seed\": {}, \"kind\": {}, \"sent\": {}, \"answered\": {}, \
         \"granted\": {}, \"rejected\": {}, \"refused\": {}, \"errors\": {}, \"lost\": {}, \
         \"elapsed_ms\": {:.3}, \"requests_per_sec\": {:.1}, \"latency_us\": \
         {{\"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}",
        dcn_workload::json_quote(&args.addr),
        args.clients,
        args.requests,
        args.rate,
        args.seed,
        dcn_workload::json_quote(&args.kind),
        total.sent,
        answered,
        total.granted,
        total.rejected,
        total.refused,
        total.errors,
        total.lost,
        elapsed_ms,
        rps,
        percentile(lat, 0.50),
        percentile(lat, 0.90),
        percentile(lat, 0.95),
        percentile(lat, 0.99),
        lat.last().copied().unwrap_or(0),
    );
    match &args.report {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{report}\n")) {
                eprintln!("dcn-load: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "dcn-load: {answered}/{} answered in {elapsed_ms:.0} ms ({rps:.0} req/s), report at {path}",
                total.sent
            );
        }
        None => println!("{report}"),
    }
    if !failures.is_empty() || total.lost > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
