//! The load generators: one TCP connection, at most two threads.
//!
//! * [`run_closed`] — closed loop: a fixed number of requests in flight, a
//!   new group for every group of answers; single-threaded.
//! * [`run_open`] — open loop: a sender thread writes on an absolute,
//!   pre-computed schedule whatever the server does, the calling thread
//!   reads; latency counts from each request's *due* time.
//!
//! Reply chunks are stamped once per `read`, which is when their lines
//! became visible to a client.

use crate::clock::{now_ns, probe_ns, wait_until};
use crate::gen::OpSource;
use crate::server::Conn;
use crate::stats::{percentile, slice_ends};
use crate::tally::Tally;
use crate::wire::{self, Op, Reply};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// Splits a byte stream into lines.
struct LineReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    bytes: u64,
}

impl LineReader {
    fn new() -> Self {
        LineReader {
            buf: vec![0; 512 * 1024],
            start: 0,
            end: 0,
            bytes: 0,
        }
    }

    /// Blocks for more bytes; returns the stamp of their arrival, or `None`
    /// when the read timed out or the server closed the connection.
    fn fill(&mut self, stream: &mut impl Read) -> io::Result<Option<u64>> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            return Err(io::Error::other("reply line longer than the read buffer"));
        }
        match stream.read(&mut self.buf[self.end..]) {
            Ok(0) => Ok(None),
            Ok(n) => {
                self.end += n;
                self.bytes += n as u64;
                Ok(Some(now_ns()))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The next complete line already buffered.
    fn next_line(&mut self) -> Option<&[u8]> {
        let nl = self.buf[self.start..self.end]
            .iter()
            .position(|&b| b == b'\n')?;
        let line = &self.buf[self.start..self.start + nl];
        self.start += nl + 1;
        Some(line)
    }
}

/// Per-request bookkeeping shared by both loops.
struct Ledger {
    first_tag: u64,
    /// Send time (closed loop) or due time (open loop) by `tag − first_tag`;
    /// `u64::MAX` once the tag is settled.
    reference_ns: Vec<u64>,
    /// Completion stamp and latency of each answered request, in completion
    /// order.
    done_ns: Vec<u64>,
    latency_ns: Vec<u64>,
    tally: Tally,
    /// Requests without a final outcome or counted error yet.
    outstanding: u64,
    /// Granted changes whose topology event has not arrived yet (signed: an
    /// event overtaking its grant must not wedge the loop).
    awaiting_topology: i64,
}

impl Ledger {
    fn new(first_tag: u64, capacity: usize) -> Self {
        Ledger {
            first_tag,
            reference_ns: vec![u64::MAX; capacity],
            done_ns: Vec::with_capacity(capacity),
            latency_ns: Vec::with_capacity(capacity),
            tally: Tally::default(),
            outstanding: 0,
            awaiting_topology: 0,
        }
    }

    fn reference(&mut self, tag: Option<u64>) -> Option<&mut u64> {
        let index = tag?.checked_sub(self.first_tag)?;
        self.reference_ns
            .get_mut(index as usize)
            .filter(|r| **r != u64::MAX)
    }

    /// Applies one reply line that arrived at `at`.
    fn on_line(&mut self, line: &[u8], at: u64, source: &mut dyn OpSource) {
        match wire::scan(line) {
            Reply::Ticket { .. } => self.tally.tickets += 1,
            Reply::Final { outcome, tag } => match self.reference(tag) {
                Some(reference) => {
                    let latency = at.saturating_sub(*reference);
                    *reference = u64::MAX;
                    self.done_ns.push(at);
                    self.latency_ns.push(latency);
                    self.tally.record(outcome);
                    self.outstanding -= 1;
                    let tag = tag.unwrap_or(0);
                    source.answered(tag);
                    if outcome == wire::Outcome::Granted && source.awaits_topology(tag) {
                        self.awaiting_topology += 1;
                    }
                }
                None => self.tally.duplicates += 1,
            },
            Reply::Topology {
                node,
                tag: Some(tag),
            } => {
                self.awaiting_topology -= 1;
                source.applied(tag, node);
            }
            Reply::Topology { tag: None, .. } | Reply::Other { .. } => {}
            Reply::Error { code, tag } => {
                if code == b"overloaded" {
                    self.tally.overloaded += 1;
                } else {
                    self.tally.errors += 1;
                }
                // A refused submission never gets an outcome. Shed lines
                // come back untagged, so they settle by count only.
                if let Some(reference) = self.reference(tag) {
                    *reference = u64::MAX;
                }
                self.outstanding = self.outstanding.saturating_sub(1);
            }
            Reply::Malformed => self.tally.malformed += 1,
        }
    }
}

/// Takes two readings whenever the completions cross a slice boundary: of
/// the server's CPU clock, so per-slice CPU time can be told apart, and of
/// the core clock ([`probe_ns`]), so a slice's times can be restated at the
/// reference clock. The probe holds the reading thread for about 30 µs once
/// per slice of at least 1 000 requests.
struct Marks<'a> {
    sample: &'a mut dyn FnMut() -> u64,
    ends: Vec<usize>,
    readings: Vec<u64>,
    probes: Vec<u64>,
}

impl<'a> Marks<'a> {
    fn new(total: usize, slices: usize, sample: &'a mut dyn FnMut() -> u64) -> Self {
        let first = sample();
        Marks {
            sample,
            ends: slice_ends(total, slices),
            readings: vec![first],
            probes: vec![probe_ns()],
        }
    }

    fn observe(&mut self, completed: usize) {
        while self
            .ends
            .get(self.readings.len() - 1)
            .is_some_and(|&end| completed >= end)
        {
            let reading = (self.sample)();
            self.readings.push(reading);
            self.probes.push(probe_ns());
        }
    }
}

/// One equal-work slice of a run.
#[derive(Clone, Debug, Default)]
pub struct Slice {
    pub requests: usize,
    pub seconds: f64,
    /// Latencies of the requests that completed in this slice, ascending.
    pub latencies_ns: Vec<u64>,
}

/// Cuts completions (stamps and latencies in completion order) into
/// `slices` equal-count slices; the first slice starts at `start_ns`.
pub fn cut_slices(start_ns: u64, done_ns: &[u64], latency_ns: &[u64], slices: usize) -> Vec<Slice> {
    let mut out = Vec::new();
    let (mut from, mut from_ns) = (0usize, start_ns);
    for end in slice_ends(done_ns.len(), slices) {
        if end == from {
            continue;
        }
        let mut latencies_ns = latency_ns[from..end].to_vec();
        latencies_ns.sort_unstable();
        let end_ns = done_ns[end - 1];
        out.push(Slice {
            requests: end - from,
            seconds: end_ns.saturating_sub(from_ns) as f64 / 1e9,
            latencies_ns,
        });
        (from, from_ns) = (end, end_ns);
    }
    out
}

/// What one load phase measured.
#[derive(Clone, Debug, Default)]
pub struct LoadRun {
    pub tally: Tally,
    /// First send (closed) or first due time (open) to last completion.
    pub seconds: f64,
    pub slices: Vec<Slice>,
    /// Every latency of the phase, ascending.
    pub latencies_ns: Vec<u64>,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// The `sample` reading taken as each slice completed (the server's CPU
    /// time), so `slice_marks[i] - slice_marks[i - 1]` belongs to slice `i`;
    /// the reading at the start of the phase comes first.
    pub slice_marks: Vec<u64>,
    /// The core-clock probe taken at the same moments (`slices + 1` of
    /// them): slice `i` ran between probes `i` and `i + 1`.
    pub slice_probe_ns: Vec<u64>,
    /// How late each request that was not held back left the generator,
    /// ascending (open loop only).
    pub lateness_ns: Vec<u64>,
    /// Requests held back because the in-flight cap was reached (open loop
    /// only).
    pub deferred: u64,
    /// Seconds from the first due time to the last write, and to the last
    /// due time (open loop only): equal when the generator kept its schedule.
    pub send_seconds: f64,
    pub scheduled_seconds: f64,
    /// What the generator did slice by slice (open loop only).
    pub generator: Vec<GeneratorSlice>,
}

/// How well the open-loop generator kept its schedule over one equal-count
/// chunk of it (chunk `i` of the schedule is, but for the few requests in
/// flight at a boundary, slice `i` of the completions).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GeneratorSlice {
    /// 99th percentile of how late the requests that were not held back
    /// left.
    pub lateness_p99_ns: u64,
    /// Scheduled span over the span the writes took: 1 on schedule, below 1
    /// when the generator fell behind.
    pub rate_share: f64,
    /// Requests held back by the in-flight cap.
    pub deferred: u64,
}

/// Cuts a schedule and what became of it into `slices` equal-count chunks.
/// `written_ns[i]` is when request `i` was written (same origin as
/// `due_ns`), `deferred_at` the ascending indexes of the requests that were
/// held back.
pub fn generator_slices(
    due_ns: &[u64],
    written_ns: &[u64],
    deferred_at: &[usize],
    slices: usize,
) -> Vec<GeneratorSlice> {
    let mut out = Vec::new();
    let (mut from, mut held) = (0usize, deferred_at.iter().copied().peekable());
    for end in slice_ends(written_ns.len(), slices) {
        if end == from {
            continue;
        }
        let mut late = Vec::with_capacity(end - from);
        let mut deferred = 0;
        for i in from..end {
            if held.next_if_eq(&i).is_some() {
                deferred += 1;
            } else {
                late.push(written_ns[i].saturating_sub(due_ns[i]));
            }
        }
        late.sort_unstable();
        let scheduled = due_ns[end - 1] - due_ns[from];
        let took = written_ns[end - 1].saturating_sub(written_ns[from]);
        out.push(GeneratorSlice {
            lateness_p99_ns: percentile(&late, 0.99),
            rate_share: scheduled as f64 / took.max(1) as f64,
            deferred,
        });
        from = end;
    }
    out
}

impl LoadRun {
    fn finish(ledger: Ledger, start_ns: u64, slices: usize, bytes: (u64, u64)) -> LoadRun {
        let end_ns = ledger.done_ns.last().copied().unwrap_or(start_ns);
        let slices = cut_slices(start_ns, &ledger.done_ns, &ledger.latency_ns, slices);
        let mut latencies_ns = ledger.latency_ns;
        latencies_ns.sort_unstable();
        LoadRun {
            tally: ledger.tally,
            seconds: end_ns.saturating_sub(start_ns) as f64 / 1e9,
            slices,
            latencies_ns,
            bytes_sent: bytes.0,
            bytes_received: bytes.1,
            slice_marks: Vec::new(),
            slice_probe_ns: Vec::new(),
            lateness_ns: Vec::new(),
            deferred: 0,
            send_seconds: 0.0,
            scheduled_seconds: 0.0,
            generator: Vec::new(),
        }
    }
}

/// How a closed loop frames and paces its requests.
#[derive(Clone, Copy, Debug)]
pub struct ClosedPlan {
    /// Requests to send in total.
    pub total: usize,
    /// Most requests in flight.
    pub window: usize,
    /// Requests are released in groups of this many (1 = one per answer).
    pub unit: usize,
    /// Frame each group as one `batch` frame instead of single lines.
    pub batch_frames: bool,
    /// Equal-work slices the run is cut into.
    pub slices: usize,
}

/// Drives `plan` over `conn`, drawing requests from `source`. A server that
/// stops answering ends the run early; the unanswered requests then show in
/// the tally as sent and never settled.
pub fn run_closed(
    conn: &mut Conn,
    source: &mut dyn OpSource,
    first_tag: u64,
    plan: &ClosedPlan,
    sample: &mut dyn FnMut() -> u64,
) -> io::Result<LoadRun> {
    let mut ledger = Ledger::new(first_tag, plan.total);
    let mut marks = Marks::new(plan.total, plan.slices, sample);
    let mut reader = LineReader::new();
    let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut group: Vec<Op> = Vec::with_capacity(plan.unit);
    let (mut sent, mut bytes_sent) = (0usize, 0u64);
    let start_ns = now_ns();
    while sent < plan.total || ledger.outstanding > 0 || ledger.awaiting_topology > 0 {
        // Release as many whole groups as the window has room for.
        wbuf.clear();
        let first = sent;
        let mut room = plan.window.saturating_sub(ledger.outstanding as usize);
        while sent < plan.total {
            let want = plan.unit.min(plan.total - sent);
            if want > room {
                break;
            }
            group.clear();
            group.extend((0..want).map(|_| source.next_op()));
            if plan.batch_frames {
                wire::push_batch(&mut wbuf, &group);
            } else {
                wire::push_submits(&mut wbuf, &group);
            }
            sent += want;
            room -= want;
        }
        if sent > first {
            // Tags are the stream index, so this write covers first..sent.
            ledger.reference_ns[first..sent].fill(now_ns());
            ledger.outstanding += (sent - first) as u64;
            ledger.tally.sent = sent as u64;
            conn.stream.write_all(&wbuf)?;
            bytes_sent += wbuf.len() as u64;
        }
        let Some(at) = reader.fill(&mut conn.stream)? else {
            break;
        };
        while let Some(line) = reader.next_line() {
            ledger.on_line(line, at, source);
        }
        marks.observe(ledger.done_ns.len());
    }
    let bytes = (bytes_sent, reader.bytes);
    let mut run = LoadRun::finish(ledger, start_ns, plan.slices, bytes);
    run.slice_marks = marks.readings;
    run.slice_probe_ns = marks.probes;
    Ok(run)
}

/// A source for the reading side of an open loop, which generates nothing.
struct NoFeedback;

impl OpSource for NoFeedback {
    fn next_op(&mut self) -> Op {
        unreachable!("the reading side of an open loop sends nothing")
    }
}

/// How long after the last due time an open-loop step waits for stragglers.
const DRAIN_GRACE_NS: u64 = 2_000_000_000;

/// Most requests the open loop keeps in flight. The server sheds lines past
/// 256 in flight per connection (`overloaded`, "back off and retry"); a
/// client that knows the limit holds a due request back instead of having it
/// shed, and the wait shows as latency, because latency counts from the due
/// time. Held-back requests are counted per step as `deferred`.
pub const OPEN_IN_FLIGHT_CAP: u64 = 240;

/// What the sending side of an open loop reports back.
struct Sent {
    /// When each request was written, from the start of the step.
    written_ns: Vec<u64>,
    /// Ascending indexes of the requests that were held back.
    deferred_at: Vec<usize>,
    bytes: u64,
}

/// Sends one request at each of `due_ns` (offsets from the start of the
/// step) whatever comes back, short of [`OPEN_IN_FLIGHT_CAP`], and reads
/// until every request is settled or the grace period after the last due
/// time is over.
pub fn run_open(
    conn: &mut Conn,
    source: &mut (dyn OpSource + Send),
    first_tag: u64,
    due_ns: &[u64],
    slices: usize,
    sample: &mut dyn FnMut() -> u64,
) -> io::Result<LoadRun> {
    let total = due_ns.len() as u64;
    let mut ledger = Ledger::new(first_tag, due_ns.len());
    let mut marks = Marks::new(due_ns.len(), slices, sample);
    // Leave the sender time to start before the first request is due.
    let base_ns = now_ns() + 2_000_000;
    for (reference, due) in ledger.reference_ns.iter_mut().zip(due_ns) {
        *reference = base_ns + due;
    }
    ledger.outstanding = total;
    ledger.tally.sent = total;
    let deadline_ns = base_ns + due_ns.last().copied().unwrap_or(0) + DRAIN_GRACE_NS;
    let mut writer = conn.stream.try_clone()?;
    conn.stream
        .set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut reader = LineReader::new();
    // Requests settled so far (answered or refused), published by the
    // reading side for the sender's in-flight count. A plain counter: it
    // orders nothing else.
    let settled = AtomicU64::new(0);
    // Raised when the reading side gives up, so a sender waiting for room
    // that will never come stops too.
    let abandoned = AtomicBool::new(false);

    let sent = thread::scope(|scope| {
        let (settled, abandoned) = (&settled, &abandoned);
        let sender = scope.spawn(move || -> io::Result<Sent> {
            let mut wbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
            let mut out = Sent {
                written_ns: Vec::with_capacity(due_ns.len()),
                deferred_at: Vec::new(),
                bytes: 0,
            };
            let mut next = 0usize;
            while next < due_ns.len() {
                let now = wait_until(base_ns + due_ns[next]);
                // Everything due by now goes out in one write, window
                // permitting; what does not fit is deferred.
                let mut due_end = next;
                while due_end < due_ns.len() && base_ns + due_ns[due_end] <= now {
                    due_end += 1;
                }
                let mut on_time = true;
                while next < due_end {
                    let in_flight = next as u64 - settled.load(Ordering::Relaxed);
                    let room = OPEN_IN_FLIGHT_CAP.saturating_sub(in_flight) as usize;
                    if room == 0 {
                        if abandoned.load(Ordering::Relaxed) {
                            return Ok(out);
                        }
                        // Whatever goes out after waiting for room was held
                        // back, the first write of the wake-up included.
                        on_time = false;
                        std::hint::spin_loop();
                        continue;
                    }
                    let upto = due_end.min(next + room);
                    wbuf.clear();
                    for _ in next..upto {
                        wire::push_submits(&mut wbuf, &[source.next_op()]);
                    }
                    // The first write of a wake-up leaves at the wake-up;
                    // what had to wait for room leaves when it got it.
                    let at = if on_time {
                        now
                    } else {
                        out.deferred_at.extend(next..upto);
                        now_ns()
                    };
                    out.written_ns.resize(upto, at - base_ns);
                    writer.write_all(&wbuf)?;
                    out.bytes += wbuf.len() as u64;
                    next = upto;
                    on_time = false;
                }
            }
            Ok(out)
        });
        // A failed read must not strand the sender: it ends on its own once
        // the schedule is written out, its socket is gone, or it is told.
        let mut read_error = None;
        while ledger.outstanding > 0 && now_ns() < deadline_ns {
            match reader.fill(&mut conn.stream) {
                Ok(Some(at)) => {
                    while let Some(line) = reader.next_line() {
                        ledger.on_line(line, at, &mut NoFeedback);
                    }
                    settled.store(total - ledger.outstanding, Ordering::Relaxed);
                    marks.observe(ledger.done_ns.len());
                }
                Ok(None) => {}
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
        abandoned.store(true, Ordering::Relaxed);
        let sent = sender.join().expect("the sender thread does not panic");
        read_error.map_or(sent, Err)
    });
    conn.stream
        .set_read_timeout(Some(crate::server::REPLY_TIMEOUT))?;
    let sent = sent?;
    let bytes = (sent.bytes, reader.bytes);
    let mut run = LoadRun::finish(ledger, base_ns, slices, bytes);
    run.slice_marks = marks.readings;
    run.slice_probe_ns = marks.probes;
    // An abandoned step wrote only the head of its schedule.
    let due_ns = &due_ns[..sent.written_ns.len()];
    run.generator = generator_slices(due_ns, &sent.written_ns, &sent.deferred_at, slices);
    let mut held = sent.deferred_at.iter().copied().peekable();
    run.lateness_ns = (0..due_ns.len())
        .filter(|i| held.next_if_eq(i).is_none())
        .map(|i| sent.written_ns[i].saturating_sub(due_ns[i]))
        .collect();
    run.lateness_ns.sort_unstable();
    run.deferred = sent.deferred_at.len() as u64;
    run.send_seconds = sent.written_ns.last().copied().unwrap_or(0) as f64 / 1e9;
    run.scheduled_seconds = due_ns.last().copied().unwrap_or(0) as f64 / 1e9;
    Ok(run)
}

/// Window-1 ping-pong: `count` round trips of one `event` submit each,
/// returned as ascending latencies.
pub fn ping_pong(
    conn: &mut Conn,
    source: &mut dyn OpSource,
    first_tag: u64,
    count: usize,
) -> io::Result<LoadRun> {
    let plan = ClosedPlan {
        total: count,
        window: 1,
        unit: 1,
        batch_frames: false,
        slices: 1,
    };
    run_closed(conn, source, first_tag, &plan, &mut || 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_across_reads_are_reassembled() {
        let mut reader = LineReader::new();
        let mut first: &[u8] = b"{\"ok\":\"ticket\"}\n{\"eve";
        assert!(reader.fill(&mut first).unwrap().is_some());
        assert_eq!(reader.next_line(), Some(&b"{\"ok\":\"ticket\"}"[..]));
        assert_eq!(reader.next_line(), None);
        let mut second: &[u8] = b"nt\":\"granted\"}\n";
        assert!(reader.fill(&mut second).unwrap().is_some());
        assert_eq!(reader.next_line(), Some(&b"{\"event\":\"granted\"}"[..]));
        assert_eq!(reader.next_line(), None);
        let mut empty: &[u8] = b"";
        assert!(reader.fill(&mut empty).unwrap().is_none());
        assert_eq!(reader.bytes, 36);
    }

    #[test]
    fn every_tag_settles_exactly_once() {
        let mut ledger = Ledger::new(10, 3);
        ledger.reference_ns.fill(100);
        ledger.outstanding = 3;
        let mut none = NoFeedback;
        ledger.on_line(b"{\"ok\":\"ticket\",\"tag\":10}", 150, &mut none);
        ledger.on_line(b"{\"event\":\"granted\",\"tag\":10}", 150, &mut none);
        ledger.on_line(b"{\"event\":\"granted\",\"tag\":10}", 160, &mut none);
        ledger.on_line(b"{\"event\":\"granted\",\"tag\":9}", 160, &mut none);
        ledger.on_line(
            b"{\"error\":\"overloaded\",\"detail\":\"x\"}",
            170,
            &mut none,
        );
        ledger.on_line(
            b"{\"error\":\"bad-node\",\"detail\":\"x\",\"tag\":12}",
            170,
            &mut none,
        );
        ledger.on_line(b"{\"event\":\"rejected\",\"tag\":12}", 180, &mut none);
        assert_eq!(ledger.latency_ns, vec![50]);
        assert_eq!(ledger.outstanding, 0);
        let t = &ledger.tally;
        assert_eq!((t.tickets, t.granted, t.rejected), (1, 1, 0));
        assert_eq!((t.overloaded, t.errors, t.duplicates), (1, 1, 3));
    }

    #[test]
    fn the_generator_is_judged_chunk_by_chunk() {
        // Eight requests a millisecond apart in two chunks. The first chunk
        // leaves on time but for one request held back; the second leaves
        // 300 us late throughout and stretched to twice its span.
        let due: Vec<u64> = (0..8).map(|i| i * 1_000_000).collect();
        let mut written = due.clone();
        written[2] += 5_000_000;
        for (i, w) in written.iter_mut().enumerate().skip(4) {
            *w += 300_000 + (i as u64 - 4) * 1_000_000;
        }
        let chunks = generator_slices(&due, &written, &[2], 2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(
            chunks[0],
            GeneratorSlice {
                lateness_p99_ns: 0,
                rate_share: 1.0,
                deferred: 1
            }
        );
        assert_eq!(chunks[1].deferred, 0);
        assert_eq!(chunks[1].lateness_p99_ns, 3_300_000);
        assert!((chunks[1].rate_share - 0.5).abs() < 1e-9);
        assert!(generator_slices(&[], &[], &[], 4).is_empty());
    }

    #[test]
    fn slices_are_equal_work_and_consecutive() {
        let done: Vec<u64> = (1..=8).map(|i| i * 1_000_000_000).collect();
        let lat: Vec<u64> = vec![5, 1, 9, 3, 7, 7, 2, 8];
        let slices = cut_slices(0, &done, &lat, 4);
        assert_eq!(slices.len(), 4);
        assert!(slices.iter().all(|s| s.requests == 2 && s.seconds == 2.0));
        assert_eq!(slices[0].latencies_ns, vec![1, 5]);
        assert_eq!(slices[3].latencies_ns, vec![2, 8]);
    }
}
