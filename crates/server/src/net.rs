//! The TCP transport: `TcpListener`, a thread per connection direction, and
//! one single-writer engine thread.
//!
//! ```text
//!  accept thread ──spawns──► reader thread ──(capped inbox)──► engine thread
//!                            writer thread ◄──(capped outbox)──┘
//! ```
//!
//! The engine thread is the only thread that touches the controller (a
//! `Box<dyn Controller>` is not `Send`, so it is *constructed* there from
//! the `Send`-able [`ServeConfig`]). Readers decode nothing: they split the
//! byte stream into length-capped lines and forward them; all protocol
//! logic lives in [`EngineCore`], shared verbatim with the deterministic
//! loopback transport.
//!
//! Backpressure is bounded at both ends and degrades to protocol-level
//! rejection rather than unbounded queueing. Both directions use one
//! mechanism: an unbounded channel beside a per-connection count of what is
//! queued, capped (a `Bound`), so a queue takes memory as items queue and
//! a connection costs nothing for its cap at accept:
//!
//! * **inbox** — each connection may have at most
//!   `INBOX_LIMIT` (256) lines in flight toward the engine; past
//!   that the reader immediately answers `{"error": "overloaded"}` and
//!   drops the line.
//! * **outbox** — each connection's reply queue holds at most
//!   `OUTBOX_LIMIT` (8 192) frames; a slow reader loses further
//!   frames, which the engine counts and reports as `dropped_frames` in
//!   `stats`.
//!
//! Shutdown (a `shutdown` frame, or [`ServerHandle::shutdown`]) lets the
//! engine finish all in-flight work, then stops the accept loop and drops
//! every outbox; writer threads drain what is queued, shut their sockets
//! down, and the readers unwind on the resulting EOF.

use crate::engine::{ClientId, EngineCore, Outgoing, ServeConfig};
use crate::protocol;
use dcn_collections::FxHashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// Most request lines one connection may have queued toward the engine
/// before further lines are answered with an `overloaded` error frame.
const INBOX_LIMIT: usize = 256;

/// Most reply/event frames queued toward one connection before further
/// frames for it are dropped (counted in `stats.dropped_frames`).
const OUTBOX_LIMIT: usize = 8192;

/// A per-connection count of queued items and its cap, shared by whoever
/// queues and whoever takes out. A producer claims a place before it queues
/// an item and the consumer releases it on taking the item, so the channel
/// beside it can be unbounded and hold only what is queued.
#[derive(Clone)]
struct Bound {
    queued: Arc<AtomicUsize>,
    limit: usize,
}

impl Bound {
    fn new(limit: usize) -> Self {
        Bound {
            queued: Arc::new(AtomicUsize::new(0)),
            limit,
        }
    }

    /// Claims a place for one item; `false` at the cap.
    fn try_claim(&self) -> bool {
        self.queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                (q < self.limit).then_some(q + 1)
            })
            .is_ok()
    }

    /// Gives back the place of an item taken out.
    fn release(&self) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The sending half of one connection's outbox: at most [`OUTBOX_LIMIT`]
/// frames queued, in a channel that grows as frames queue.
#[derive(Clone)]
struct Outbox {
    tx: Sender<String>,
    bound: Bound,
}

impl Outbox {
    /// Queues `frame`: `Full` at the cap, `Disconnected` once the writer's
    /// half is gone (whatever was queued then).
    fn try_send(&self, frame: String) -> Result<(), TrySendError<String>> {
        if !self.bound.try_claim() {
            return Err(TrySendError::Full(frame));
        }
        // A failed send keeps its claim: the receiver is gone, and its drop
        // cleared the count.
        self.tx
            .send(frame)
            .map_err(|SendError(frame)| TrySendError::Disconnected(frame))
    }
}

/// The writer's half of an outbox: taking a frame out releases its place.
struct OutboxRx {
    rx: Receiver<String>,
    bound: Bound,
}

impl OutboxRx {
    fn recv(&self) -> Result<String, RecvError> {
        let frame = self.rx.recv()?;
        self.bound.release();
        Ok(frame)
    }

    fn try_recv(&self) -> Result<String, TryRecvError> {
        let frame = self.rx.try_recv()?;
        self.bound.release();
        Ok(frame)
    }
}

impl Drop for OutboxRx {
    /// Empties the count, so a sender meets the closed channel and reads
    /// `Disconnected` even if the queue was full when the writer went.
    fn drop(&mut self) {
        self.bound.queued.store(0, Ordering::SeqCst);
    }
}

/// A connection's outbox of at most `limit` frames.
fn outbox(limit: usize) -> (Outbox, OutboxRx) {
    let (tx, rx) = mpsc::channel();
    let bound = Bound::new(limit);
    (
        Outbox {
            tx,
            bound: bound.clone(),
        },
        OutboxRx { rx, bound },
    )
}

enum EngineMsg {
    Connect {
        client: ClientId,
        outbox: Outbox,
    },
    Line {
        client: ClientId,
        line: String,
        inflight: Bound,
    },
    Disconnect {
        client: ClientId,
    },
    Stop,
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or send a `shutdown` frame) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    local: SocketAddr,
    /// The served controller's `M` and `W`, as its `welcome` reports them.
    budget: (u64, u64),
    tx: Sender<EngineMsg>,
    engine: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The served controller's permit budget `M` and waste bound `W`, as
    /// every `welcome` frame reports them (`u64::MAX` for a §5
    /// application, which uses neither).
    pub fn budget(&self) -> (u64, u64) {
        self.budget
    }

    /// Requests a drain-and-exit, like a client's `shutdown` frame.
    pub fn shutdown(&self) {
        let _ = self.tx.send(EngineMsg::Stop);
    }

    /// Waits for the engine and accept threads to finish (connection
    /// reader/writer threads unwind on their own once their sockets close).
    pub fn join(mut self) {
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving
/// `config`.
///
/// # Errors
///
/// Socket errors from bind/accept setup, plus controller construction
/// failures surfaced as [`io::ErrorKind::InvalidInput`].
pub fn serve(config: ServeConfig, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let (tx, rx) = mpsc::channel::<EngineMsg>();
    let (ready_tx, ready_rx) = mpsc::sync_channel::<Result<(u64, u64), String>>(1);
    let stop = Arc::new(AtomicBool::new(false));

    let engine_stop = Arc::clone(&stop);
    let engine = thread::Builder::new()
        .name("dcn-serve-engine".to_string())
        .spawn(move || {
            // Built here, not in `serve`: the controller must live and die
            // on the engine thread.
            let engine = match EngineCore::new(config) {
                Ok(engine) => {
                    let ctrl = engine.controller();
                    let _ = ready_tx.send(Ok((ctrl.budget(), ctrl.waste_bound())));
                    engine
                }
                Err(e) => {
                    let _ = ready_tx.send(Err(e.to_string()));
                    return;
                }
            };
            engine_loop(engine, rx, &engine_stop, local);
        })?;
    let budget = match ready_rx.recv() {
        Ok(Ok(budget)) => budget,
        Ok(Err(msg)) => {
            let _ = engine.join();
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        }
        Err(_) => {
            let _ = engine.join();
            return Err(io::Error::other("engine thread died during startup"));
        }
    };

    let accept_tx = tx.clone();
    let accept_stop = Arc::clone(&stop);
    let accept = thread::Builder::new()
        .name("dcn-serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_tx, &accept_stop))?;

    Ok(ServerHandle {
        local,
        budget,
        tx,
        engine: Some(engine),
        accept: Some(accept),
    })
}

fn engine_loop(
    mut engine: EngineCore,
    rx: Receiver<EngineMsg>,
    stop: &AtomicBool,
    local: SocketAddr,
) {
    let mut outboxes: FxHashMap<ClientId, Outbox> = FxHashMap::default();
    let mut out: Vec<Outgoing> = Vec::new();
    loop {
        // Block for input only while the controller has nothing in flight;
        // otherwise poll the inbox and keep pumping.
        if engine.is_quiescent() {
            match rx.recv() {
                Ok(msg) => handle_msg(&mut engine, &mut outboxes, msg, &mut out),
                Err(_) => break,
            }
        }
        // Drain whatever queued meanwhile, boundedly, so a steady request
        // stream cannot starve the pump below.
        for _ in 0..128 {
            match rx.try_recv() {
                Ok(msg) => handle_msg(&mut engine, &mut outboxes, msg, &mut out),
                Err(_) => break,
            }
        }
        if !engine.is_quiescent() {
            engine.pump(&mut out);
        }
        let mut dropped = 0u64;
        for (client, frame) in out.drain(..) {
            // A client absent from `outboxes` vanished between submit and
            // answer; its frames simply have nowhere to go.
            if let Some(outbox) = outboxes.get(&client) {
                match outbox.try_send(frame) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => dropped += 1,
                    Err(TrySendError::Disconnected(_)) => {
                        outboxes.remove(&client);
                    }
                }
            }
        }
        if dropped > 0 {
            engine.note_dropped_frames(dropped);
        }
        if engine.is_shutting_down() && engine.is_quiescent() {
            break;
        }
    }
    // Stop accepting: raise the flag, then poke the (blocking) accept loop
    // with a throwaway connection so it observes the flag.
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(local);
    // `outboxes` drops here: writers drain their queues, close their
    // sockets, and the readers unwind on EOF.
}

fn handle_msg(
    engine: &mut EngineCore,
    outboxes: &mut FxHashMap<ClientId, Outbox>,
    msg: EngineMsg,
    out: &mut Vec<Outgoing>,
) {
    match msg {
        EngineMsg::Connect { client, outbox } => {
            outboxes.insert(client, outbox);
            engine.client_connected(client);
        }
        EngineMsg::Line {
            client,
            line,
            inflight,
        } => {
            engine.handle_line(client, &line, out);
            inflight.release();
        }
        EngineMsg::Disconnect { client } => {
            outboxes.remove(&client);
            engine.client_disconnected(client);
        }
        EngineMsg::Stop => engine.begin_shutdown(),
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<EngineMsg>, stop: &AtomicBool) {
    let mut next_client: ClientId = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        next_client += 1;
        if spawn_connection(stream, next_client, tx.clone()).is_err() {
            // A failed clone/spawn closes this connection; the server
            // itself keeps accepting.
            continue;
        }
    }
}

fn spawn_connection(stream: TcpStream, client: ClientId, tx: Sender<EngineMsg>) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone()?;
    let (out_tx, out_rx) = outbox(OUTBOX_LIMIT);
    if tx
        .send(EngineMsg::Connect {
            client,
            outbox: out_tx.clone(),
        })
        .is_err()
    {
        // Engine already gone (shutdown race): drop the connection.
        return Ok(());
    }
    thread::Builder::new()
        .name(format!("dcn-serve-write-{client}"))
        .spawn(move || writer_loop(write_half, &out_rx))?;
    thread::Builder::new()
        .name(format!("dcn-serve-read-{client}"))
        .spawn(move || reader_loop(stream, client, &tx, &out_tx))?;
    Ok(())
}

fn writer_loop(stream: TcpStream, out_rx: &OutboxRx) {
    let mut w = BufWriter::new(&stream);
    while let Ok(first) = out_rx.recv() {
        let mut write_one = |line: String| -> io::Result<()> {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")
        };
        if write_one(first).is_err() {
            break;
        }
        // Batch whatever else is queued before the flush.
        let mut dead = false;
        while let Ok(more) = out_rx.try_recv() {
            if write_one(more).is_err() {
                dead = true;
                break;
            }
        }
        if dead || w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One length-capped line from the byte stream.
enum LineRead {
    /// A complete line (without the newline; a trailing `\r` is stripped).
    Line(String),
    /// The line exceeded the cap; it was discarded up to the next newline.
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `max` bytes, not counting its
/// terminator (`\n` or `\r\n`). Oversized lines are consumed (so framing
/// resynchronises at the next newline) but their bytes are not buffered — a
/// hostile megabyte line costs its socket reads and nothing more.
fn read_limited_line(r: &mut impl BufRead, max: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overlong = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a final unterminated line is delivered as-is.
            return Ok(match (overlong, buf.is_empty()) {
                (true, _) => LineRead::TooLong,
                (false, true) => LineRead::Eof,
                (false, false) => finish_line(buf),
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if !overlong {
                    buf.extend_from_slice(&chunk[..nl]);
                }
                r.consume(nl + 1);
                if overlong || content_len(&buf) > max {
                    return Ok(LineRead::TooLong);
                }
                return Ok(finish_line(buf));
            }
            None => {
                if !overlong {
                    buf.extend_from_slice(chunk);
                    // A trailing `\r` may be the start of the terminator.
                    if content_len(&buf) > max {
                        overlong = true;
                        buf = Vec::new();
                    }
                }
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

/// The length of `buf` without a trailing `\r`, the first half of a CRLF
/// terminator.
fn content_len(buf: &[u8]) -> usize {
    buf.len() - usize::from(buf.last() == Some(&b'\r'))
}

fn finish_line(mut buf: Vec<u8>) -> LineRead {
    buf.truncate(content_len(&buf));
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::BadUtf8,
    }
}

fn reader_loop(stream: TcpStream, client: ClientId, tx: &Sender<EngineMsg>, out_tx: &Outbox) {
    let mut reader = BufReader::new(stream);
    let inflight = Bound::new(INBOX_LIMIT);
    loop {
        match read_limited_line(&mut reader, protocol::MAX_LINE_BYTES) {
            Ok(LineRead::Line(line)) => {
                // Per-connection inbox bound: past it, overload degrades to
                // a protocol-level rejection the client can react to, not
                // an ever-growing queue. (If even the error frame does not
                // fit in the outbox, it is dropped like any other frame to
                // a slow reader.)
                if !inflight.try_claim() {
                    let _ = out_tx.try_send(protocol::error_frame(
                        "overloaded",
                        "per-connection inbox is full; back off and retry",
                        None,
                    ));
                    continue;
                }
                if tx
                    .send(EngineMsg::Line {
                        client,
                        line,
                        inflight: inflight.clone(),
                    })
                    .is_err()
                {
                    break;
                }
            }
            Ok(LineRead::TooLong) => {
                let _ = out_tx.try_send(protocol::line_too_long_frame());
            }
            Ok(LineRead::BadUtf8) => {
                let _ = out_tx.try_send(protocol::error_frame(
                    "bad-utf8",
                    "request lines must be UTF-8",
                    None,
                ));
            }
            Ok(LineRead::Eof) | Err(_) => break,
        }
    }
    let _ = tx.send(EngineMsg::Disconnect { client });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(input: &[u8], max: usize) -> Vec<String> {
        read_all_in(input, max, 8 * 1024)
    }

    /// Like `read_all`, through a buffer of `capacity` bytes.
    fn read_all_in(input: &[u8], max: usize, capacity: usize) -> Vec<String> {
        let mut r = BufReader::with_capacity(capacity, Cursor::new(input.to_vec()));
        let mut out = Vec::new();
        loop {
            match read_limited_line(&mut r, max).unwrap() {
                LineRead::Line(l) => out.push(l),
                LineRead::TooLong => out.push("<too-long>".to_string()),
                LineRead::BadUtf8 => out.push("<bad-utf8>".to_string()),
                LineRead::Eof => return out,
            }
        }
    }

    #[test]
    fn splits_caps_and_resynchronises() {
        assert_eq!(read_all(b"a\nbb\r\nccc", 10), ["a", "bb", "ccc"]);
        // The oversized middle line is discarded to its newline; framing
        // recovers on the next line.
        assert_eq!(
            read_all(b"ok\nxxxxxxxxxxxxxxxx\nagain\n", 8),
            ["ok", "<too-long>", "again"]
        );
        // Oversized final line without newline.
        assert_eq!(read_all(b"xxxxxxxxxxxxxxxx", 8), ["<too-long>"]);
        assert_eq!(read_all(b"", 8), Vec::<String>::new());
        assert_eq!(read_all(b"\xff\xfe\n", 8), ["<bad-utf8>"]);
    }

    /// The cap counts the line, not its terminator: a CRLF line of exactly
    /// `max` bytes is read whole, however the reads split it, and one byte
    /// more is too long.
    #[test]
    fn the_cap_leaves_out_a_crlf_terminator() {
        for capacity in [1, 2, 3, 5, 64] {
            assert_eq!(read_all_in(b"abcd\r\n", 4, capacity), ["abcd"]);
            assert_eq!(read_all_in(b"abcd\r\nxy\n", 4, capacity), ["abcd", "xy"]);
            assert_eq!(read_all_in(b"abcd\r", 4, capacity), ["abcd"]);
            assert_eq!(
                read_all_in(b"abcde\r\nok\n", 4, capacity),
                ["<too-long>", "ok"]
            );
            assert_eq!(read_all_in(b"abcd\r\r\n", 4, capacity), ["<too-long>"]);
            assert_eq!(read_all_in(b"abc\rd\n", 4, capacity), ["<too-long>"]);
        }
    }

    #[test]
    fn the_outbox_holds_at_most_its_limit_and_clones_share_the_count() {
        let (tx, rx) = outbox(2);
        let twin = tx.clone();
        assert!(tx.try_send("a".into()).is_ok());
        assert!(twin.try_send("b".into()).is_ok());
        // Full at the cap, for either handle, and the frame comes back.
        assert!(matches!(tx.try_send("c".into()), Err(TrySendError::Full(f)) if f == "c"));
        assert!(matches!(
            twin.try_send("c".into()),
            Err(TrySendError::Full(_))
        ));
        // One taken out makes room for exactly one more.
        assert_eq!(rx.recv().as_deref(), Ok("a"));
        assert!(twin.try_send("c".into()).is_ok());
        assert!(matches!(
            tx.try_send("d".into()),
            Err(TrySendError::Full(_))
        ));
        assert_eq!(rx.try_recv().as_deref(), Ok("b"));
        assert_eq!(rx.try_recv().as_deref(), Ok("c"));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // Once the receiver is gone every send is `Disconnected`, also from
        // a full queue.
        assert!(tx.try_send("d".into()).is_ok() && twin.try_send("e".into()).is_ok());
        drop(rx);
        assert!(matches!(tx.try_send("f".into()), Err(TrySendError::Disconnected(f)) if f == "f"));
        assert!(matches!(
            twin.try_send("g".into()),
            Err(TrySendError::Disconnected(_))
        ));
    }
}
