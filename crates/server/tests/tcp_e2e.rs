//! End-to-end exercise of the real TCP transport: an in-process
//! [`serve`] on an ephemeral port, several concurrent clients speaking the
//! line protocol over actual sockets, a protocol-level shutdown, and a
//! clean join; and once the `dcn-serve` binary itself, from its command
//! line to its exit status. Wall-clock timing here only bounds how long the
//! test waits — every protocol outcome asserted is deterministic.

use dcn_server::protocol::MAX_LINE_BYTES;
use dcn_server::{serve, Loopback, ServeConfig};
use dcn_workload::json;
use dcn_workload::Family;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: impl std::net::ToSocketAddrs) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read frame");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end().to_string()
    }
}

#[test]
fn tcp_clients_submit_poll_and_shut_the_server_down() {
    let config = ServeConfig::new(Family::Distributed, 256, 16);
    let handle = serve(config, "127.0.0.1:0").expect("bind");
    let addr = handle.local_addr();

    let workers: Vec<_> = (0..3u64)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                c.send(r#"{"op": "hello", "proto": 1, "family": "distributed"}"#);
                let welcome = json::parse(&c.recv()).unwrap();
                assert_eq!(welcome.get("ok").unwrap().as_str().unwrap(), "welcome");
                let nodes = welcome.get("nodes").unwrap().as_u64().unwrap();

                c.send(r#"{"op": "subscribe"}"#);
                assert!(c.recv().contains("subscribed"));

                // Submit a handful of permit requests, each tagged, and wait
                // for the streamed outcome of every ticket: granted (budget
                // 256 >> 24 total requests), with its submit's tag.
                let (mut tickets, mut answered) = (Vec::new(), Vec::new());
                for i in 0..8u64 {
                    let node = (w * 3 + i) % nodes;
                    c.send(&format!(
                        r#"{{"op": "submit", "kind": "event", "node": {node}, "tag": {i}}}"#
                    ));
                }
                let mut outcomes = 0;
                while outcomes < 8 {
                    let frame = c.recv();
                    let v = json::parse(&frame).unwrap();
                    if let Ok(ok) = v.get("ok") {
                        assert_eq!(ok.as_str().unwrap(), "ticket", "{frame}");
                        tickets.push(v.get("ticket").unwrap().as_u64().unwrap());
                    } else if let Ok(event) = v.get("event") {
                        assert_eq!(event.as_str().unwrap(), "granted", "{frame}");
                        let tag = v.get("tag").unwrap().as_u64().unwrap();
                        answered.push((tag, v.get("ticket").unwrap().as_u64().unwrap()));
                        outcomes += 1;
                    } else {
                        panic!("unexpected frame {frame}");
                    }
                }
                // Each ticket streamed exactly one answer.
                answered.sort_unstable();
                let tagged: Vec<_> = (0..8u64).zip(tickets).collect();
                assert_eq!(answered, tagged);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client worker");
    }

    // A final client checks the totals and asks the server to stop.
    let mut c = Client::connect(addr);
    c.send(r#"{"op": "hello", "proto": 1}"#);
    assert!(c.recv().contains("welcome"));
    c.send(r#"{"op": "stats"}"#);
    let stats = json::parse(&c.recv()).unwrap();
    assert_eq!(stats.get("submitted").unwrap().as_u64().unwrap(), 24);
    assert_eq!(stats.get("granted").unwrap().as_u64().unwrap(), 24);
    assert_eq!(stats.get("rejected").unwrap().as_u64().unwrap(), 0);
    c.send(r#"{"op": "shutdown"}"#);
    assert!(c.recv().contains("shutting-down"));

    handle.join();
}

/// Both transports answer an oversized line with the same bytes: the TCP
/// reader's reply to one 9 000-byte line is the loopback's, and the
/// connection keeps serving.
#[test]
fn an_oversized_line_gets_the_same_reply_over_tcp_and_loopback() {
    let config = ServeConfig::new(Family::Centralized, 16, 4);
    let prefix = r#"{"op": "stats", "pad": ""#;
    let line = format!("{prefix}{}\"}}", "x".repeat(9_000 - prefix.len() - 2));
    assert_eq!(line.len(), 9_000);

    let mut lb = Loopback::new(config).unwrap();
    let l = lb.connect();
    lb.send(l, &line);
    let looped = lb.recv(l);

    let handle = serve(config, "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(handle.local_addr());
    c.send(&line);
    assert_eq!([c.recv()], looped.as_slice());
    c.send(r#"{"op": "hello", "proto": 1}"#);
    assert!(c.recv().contains("welcome"));
    c.send(r#"{"op": "shutdown"}"#);
    assert!(c.recv().contains("shutting-down"));
    handle.join();
}

/// The cap counts a line without its terminator on both transports: a line
/// of exactly `MAX_LINE_BYTES` sent with a CRLF ending over TCP is answered
/// as the loopback answers it, not refused as one byte too long.
#[test]
fn a_crlf_line_at_the_cap_gets_the_same_reply_over_tcp_and_loopback() {
    let config = ServeConfig::new(Family::Centralized, 16, 4);
    let prefix = r#"{"op": "hello", "proto": 1, "pad": ""#;
    let line = format!(
        "{prefix}{}\"}}",
        "x".repeat(MAX_LINE_BYTES - prefix.len() - 2)
    );
    assert_eq!(line.len(), MAX_LINE_BYTES);

    let mut lb = Loopback::new(config).unwrap();
    let l = lb.connect();
    lb.send(l, &line);
    let looped = lb.recv(l);
    assert!(looped[0].contains("welcome"), "{looped:?}");

    let handle = serve(config, "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(handle.local_addr());
    c.writer.write_all(line.as_bytes()).unwrap();
    c.writer.write_all(b"\r\n").unwrap();
    assert_eq!([c.recv()], looped.as_slice());
    c.send(r#"{"op": "shutdown"}"#);
    assert!(c.recv().contains("shutting-down"));
    handle.join();
}

/// A child process that is killed and reaped when the test ends, so a
/// failing assertion leaves no server behind.
struct Reap(std::process::Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `dcn-serve` binary as a script drives it: started with a host name
/// and a port file, one session of `hello`, `subscribe`, `submit` and
/// `shutdown`, and a clean exit after the drain.
#[test]
fn the_dcn_serve_binary_serves_a_session_and_exits_cleanly() {
    let bin = env!("CARGO_BIN_EXE_dcn-serve");
    let port_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dcn-serve-e2e.port");
    let _ = std::fs::remove_file(&port_file);
    let mut child = Reap(
        Command::new(bin)
            .args(["--addr", "localhost:0", "--m", "16", "--w", "4"])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dcn-serve"),
    );

    // The port file is written after the bind; a complete one ends in a
    // newline. 2 000 polls of 10 ms bound the wait.
    let mut port = None;
    for _ in 0..2_000 {
        if let Some(status) = child.0.try_wait().unwrap() {
            panic!("dcn-serve exited during start-up: {status}");
        }
        match std::fs::read_to_string(&port_file) {
            Ok(text) if text.ends_with('\n') => {
                port = Some(text.trim().parse::<u16>().expect("a port number"));
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let port = port.expect("dcn-serve wrote no port file");

    let mut c = Client::connect(("localhost", port));
    c.send(r#"{"op": "hello", "proto": 1, "family": "centralized"}"#);
    assert!(c.recv().contains("welcome"));
    c.send(r#"{"op": "subscribe"}"#);
    assert!(c.recv().contains("subscribed"));
    c.send(r#"{"op": "submit", "kind": "event", "node": 0, "tag": 7}"#);
    let (mut ticket, mut granted) = (false, false);
    while !(ticket && granted) {
        let frame = c.recv();
        let v = json::parse(&frame).unwrap();
        if let Ok(ok) = v.get("ok") {
            assert_eq!(ok.as_str().unwrap(), "ticket", "{frame}");
            ticket = true;
        } else {
            assert_eq!(
                v.get("event").unwrap().as_str().unwrap(),
                "granted",
                "{frame}"
            );
            assert_eq!(v.get("tag").unwrap().as_u64().unwrap(), 7, "{frame}");
            granted = true;
        }
    }
    c.send(r#"{"op": "shutdown"}"#);
    assert!(c.recv().contains("shutting-down"));

    let stdout = std::io::read_to_string(child.0.stdout.take().unwrap()).unwrap();
    let status = child.0.wait().unwrap();
    assert!(status.success(), "{status}: {stdout}");
    assert_eq!(
        stdout.lines().last(),
        Some("dcn-serve: drained and stopped"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(&port_file);
}

/// On Linux/glibc the root `.cargo/config.toml` links statically, so
/// `dcn-serve` starts without the dynamic loader: its ELF program headers
/// hold no `PT_INTERP`. A `RUSTFLAGS` environment variable replaces the
/// config's flags and brings the loader back; this test is where that shows.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn dcn_serve_is_linked_without_a_dynamic_loader() {
    const PT_INTERP: u32 = 3;
    let elf = std::fs::read(env!("CARGO_BIN_EXE_dcn-serve")).unwrap();
    assert_eq!(&elf[..4], b"\x7fELF");
    assert_eq!((elf[4], elf[5]), (2, 1), "not a little-endian ELF64 file");
    let u16_at = |at: usize| u16::from_le_bytes([elf[at], elf[at + 1]]) as usize;
    let phoff = u64::from_le_bytes(elf[0x20..0x28].try_into().unwrap()) as usize;
    let (phentsize, phnum) = (u16_at(0x36), u16_at(0x38));
    assert!(phnum > 0);
    let types: Vec<u32> = (0..phnum)
        .map(|i| {
            let at = phoff + i * phentsize;
            u32::from_le_bytes(elf[at..at + 4].try_into().unwrap())
        })
        .collect();
    assert!(
        !types.contains(&PT_INTERP),
        "dcn-serve requests a dynamic loader (program header types {types:?}); \
         is RUSTFLAGS set in the environment?"
    );
}
