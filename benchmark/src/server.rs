//! The program under test as a separate process: build `dcn-serve` from the
//! root workspace, spawn it on an ephemeral port, talk to it over one TCP
//! connection, read its `/proc` entry, and always stop it again.

use crate::clock::now_ns;
use crate::procfs;
use crate::wire::{self, Reply};
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// Where the harness keeps everything it writes (port files, traces,
/// reports), relative to the checkout root it is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// How long one reply may take before a run gives up on the server.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Builds `dcn-serve` in release mode from the workspace in the current
/// directory and returns the path of the binary.
pub fn build_server() -> io::Result<PathBuf> {
    if !Path::new("crates/server/Cargo.toml").exists() {
        return Err(other(
            "crates/server not found: run the benchmark from the repository root".to_string(),
        ));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "dcn-server", "--bin", "dcn-serve"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(other(format!("cargo build of dcn-serve failed: {status}")));
    }
    // determinism: locates the build output; no metric or input reads it.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("dcn-serve");
    if !bin.exists() {
        return Err(other(format!("{} missing after the build", bin.display())));
    }
    Ok(bin)
}

/// The served controller: everything `dcn-serve` is started with.
#[derive(Clone, Copy, Debug)]
pub struct ServerSpec {
    pub family: &'static str,
    pub shape: &'static str,
    pub nodes: usize,
    pub m: u64,
    pub w: u64,
    /// Simulator seed of the distributed families.
    pub seed: u64,
}

/// A running `dcn-serve` child. Dropping it kills and reaps the process, so
/// no path out of a run — error, failed check, panic — leaves one behind.
pub struct Server {
    child: Child,
    pid: String,
    port: u16,
}

static SPAWNED: AtomicU64 = AtomicU64::new(0);

impl Server {
    /// Spawns the server and waits for the port it bound.
    pub fn spawn(bin: &Path, spec: &ServerSpec) -> io::Result<Server> {
        fs::create_dir_all(OUT_DIR)?;
        let port_file = Path::new(OUT_DIR).join(format!(
            "port-{}-{}",
            std::process::id(),
            SPAWNED.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_file(&port_file);
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--family", spec.family, "--shape", spec.shape])
            .args(["--nodes", &spec.nodes.to_string()])
            .args(["--m", &spec.m.to_string(), "--w", &spec.w.to_string()])
            .args(["--seed", &spec.seed.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut server = Server {
            pid: child.id().to_string(),
            child,
            port: 0,
        };
        let deadline = now_ns() + REPLY_TIMEOUT.as_nanos() as u64;
        loop {
            // The file appears before its content does; an empty read is
            // "not yet".
            if let Some(port) = fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.port = port;
                break;
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(other(format!("dcn-serve exited during start-up: {status}")));
            }
            if now_ns() > deadline {
                return Err(other("dcn-serve wrote no port file".to_string()));
            }
            thread::sleep(Duration::from_micros(100));
        }
        let _ = fs::remove_file(&port_file);
        Ok(server)
    }

    /// Opens the one connection of a run: `hello`, then `subscribe`.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(4096, stream.try_clone()?),
            stream,
            nodes: 0,
            stray_frames: 0,
        };
        for (request, expect) in [
            ("{\"op\":\"hello\",\"proto\":1}\n", "welcome"),
            ("{\"op\":\"subscribe\"}\n", "subscribed"),
        ] {
            conn.stream.write_all(request.as_bytes())?;
            let line = conn.read_line()?;
            match wire::scan(line.as_bytes()) {
                Reply::Other { what } if what == expect.as_bytes() => {}
                _ => return Err(other(format!("expected {expect}, got {line:?}"))),
            }
            if let Some(nodes) = wire::field(line.as_bytes(), "nodes") {
                conn.nodes = nodes;
            }
        }
        if conn.nodes == 0 {
            return Err(other("the welcome frame named no node count".to_string()));
        }
        Ok(conn)
    }

    /// CPU time the server has used so far, in µs.
    pub fn cpu_us(&self) -> io::Result<u64> {
        procfs::cpu_us(&self.pid)
    }

    /// CPU time of the server's threads so far, in ns (fine-grained; see
    /// [`procfs::live_threads_cpu_ns`]).
    pub fn cpu_ns(&self) -> io::Result<u64> {
        procfs::live_threads_cpu_ns(&self.pid)
    }

    /// The server's peak resident set, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        procfs::peak_rss_mb(&self.pid)
    }

    /// Context switches of the server's threads so far.
    pub fn context_switches(&self) -> io::Result<u64> {
        procfs::context_switches(&self.pid)
    }

    /// Asks the server to drain and exit, and waits until it has. A server
    /// that does not exit in time is killed, and that is an error.
    pub fn stop(mut self, mut conn: Conn) -> io::Result<()> {
        conn.stream.write_all(b"{\"op\":\"shutdown\"}\n")?;
        let deadline = now_ns() + REPLY_TIMEOUT.as_nanos() as u64;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(other(format!("dcn-serve exited with {status}")))
                };
            }
            if now_ns() > deadline {
                return Err(other("dcn-serve ignored the shutdown frame".to_string()));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The counters of a `stats` reply the output checks reconcile against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub submitted: u64,
    pub granted: u64,
    pub rejected: u64,
    pub refused: u64,
    pub protocol_errors: u64,
    pub dropped_frames: u64,
    pub nodes: u64,
    pub moves: u64,
    pub messages: u64,
}

impl ServerStats {
    pub fn parse(line: &[u8]) -> Option<ServerStats> {
        let f = |key| wire::field(line, key);
        Some(ServerStats {
            submitted: f("submitted")?,
            granted: f("granted")?,
            rejected: f("rejected")?,
            refused: f("refused")?,
            protocol_errors: f("protocol_errors")?,
            dropped_frames: f("dropped_frames")?,
            nodes: f("nodes")?,
            moves: f("moves")?,
            messages: f("messages")?,
        })
    }
}

/// One greeted, subscribed connection. Load phases read `stream` directly;
/// `reader` serves the few line-at-a-time exchanges around them, which only
/// happen while nothing else is in flight.
pub struct Conn {
    pub stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Nodes of the served tree at connection time (root included), as the
    /// `welcome` frame reports them: node ids `0..nodes` exist.
    pub nodes: u64,
    /// Frames that arrived while a `stats` reply was expected.
    pub stray_frames: u64,
}

impl Conn {
    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(other("connection closed by the server".to_string()));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Fetches the server's counters. Meant for a quiet connection; frames
    /// of requests that were given up on may still arrive first, and are
    /// counted in [`Conn::stray_frames`] (an output check fails on them).
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        self.stream.write_all(b"{\"op\":\"stats\"}\n")?;
        loop {
            let line = self.read_line()?;
            if let Some(stats) = ServerStats::parse(line.as_bytes()) {
                return Ok(stats);
            }
            self.stray_frames += 1;
        }
    }
}
