//! The controller as a network service: start `dcn-serve` in-process on an
//! ephemeral port, then act as three clients of the wire protocol —
//! handshake, subscribe, submit tagged permit requests over real TCP
//! sockets, read the streamed outcomes, and shut the server down cleanly.
//!
//! This is the programmatic twin of running the binary and talking to it:
//!
//! ```text
//! dcn-serve --family distributed --m 256 --w 16 --addr 127.0.0.1:4617 &
//! printf '%s\n' '{"op":"hello","proto":1}' \
//!     '{"op":"subscribe"}' '{"op":"submit","kind":"event","node":0}' \
//!     '{"op":"shutdown"}' | nc 127.0.0.1 4617
//! ```
//!
//! The full frame grammar is documented in DESIGN.md §9.
//!
//! ```text
//! cargo run --example serve_quickstart
//! ```

use dcn::server::{serve, ServeConfig};
use dcn::workload::json;
use dcn::workload::{Family, TreeShape};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- dcn-serve quickstart ---");

    // One long-running distributed controller: M = 256 permits, waste
    // bound W = 16, over a 32-leaf star.
    let config = ServeConfig::new(Family::Distributed, 256, 16)
        .with_shape(TreeShape::Star { nodes: 32 })
        .with_seed(7);
    let handle = serve(config, "127.0.0.1:0")?;
    let addr = handle.local_addr();
    println!("serving {} on {addr}", Family::Distributed.name());

    // Three clients submit 16 tagged permit requests each.
    let workers: Vec<_> = (0..3u64)
        .map(|w| {
            std::thread::spawn(move || -> Result<u64, String> {
                let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                let mut send = {
                    let mut stream = stream;
                    move |line: &str| -> Result<(), String> {
                        stream
                            .write_all(line.as_bytes())
                            .and_then(|()| stream.write_all(b"\n"))
                            .map_err(|e| e.to_string())
                    }
                };
                let mut recv = move || -> Result<String, String> {
                    let mut line = String::new();
                    reader.read_line(&mut line).map_err(|e| e.to_string())?;
                    Ok(line.trim_end().to_string())
                };

                // hello → welcome tells us the tree size; subscribe streams
                // this connection's outcomes, the one way an answer comes
                // back.
                send(r#"{"op": "hello", "proto": 1, "family": "distributed"}"#)?;
                let welcome = json::parse(&recv()?).map_err(|e| e.to_string())?;
                let nodes = welcome.get("nodes").and_then(|n| n.as_u64())?;
                send(r#"{"op": "subscribe"}"#)?;
                let _ = recv()?;

                for i in 0..16u64 {
                    let node = (w * 5 + i) % nodes;
                    send(&format!(
                        r#"{{"op": "submit", "kind": "event", "node": {node}, "tag": {i}}}"#
                    ))?;
                }
                // 16 tickets + 16 streamed outcome events, interleaved.
                let mut granted = 0u64;
                let mut outcomes = 0;
                while outcomes < 16 {
                    let frame = recv()?;
                    let v = json::parse(&frame).map_err(|e| e.to_string())?;
                    if let Ok(ev) = v.get("event") {
                        outcomes += 1;
                        if ev.as_str().map_err(|e| e.to_string())? == "granted" {
                            granted += 1;
                        }
                    }
                }
                Ok(granted)
            })
        })
        .collect();
    let mut granted = 0;
    for worker in workers {
        granted += worker.join().expect("client thread")?;
    }
    println!("3 clients x 16 requests: {granted} grants streamed back");

    // A last connection reads the server's own counters, then stops it.
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    let mut stream = stream;
    stream.write_all(b"{\"op\": \"hello\", \"proto\": 1}\n")?;
    reader.read_line(&mut line)?;
    stream.write_all(b"{\"op\": \"stats\"}\n")?;
    line.clear();
    reader.read_line(&mut line)?;
    let stats = json::parse(line.trim_end())?;
    println!(
        "server stats: submitted={} granted={} messages={} clients={}",
        stats.get("submitted")?.as_u64()?,
        stats.get("granted")?.as_u64()?,
        stats.get("messages")?.as_u64()?,
        stats.get("clients")?.as_u64()?,
    );
    stream.write_all(b"{\"op\": \"shutdown\"}\n")?;
    line.clear();
    reader.read_line(&mut line)?;
    handle.join();
    println!("server drained and stopped");
    Ok(())
}
