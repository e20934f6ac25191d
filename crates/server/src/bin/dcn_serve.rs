//! `dcn-serve` — run one (M,W)-controller as a TCP admission-control
//! service.
//!
//! ```text
//! dcn-serve [--addr HOST:PORT] [--family NAME] [--m N] [--w N]
//!           [--shape star|path] [--nodes N] [--seed N] [--port-file PATH]
//! ```
//!
//! Binds the address (port 0 picks an ephemeral port; `--port-file` writes
//! the bound port for scripts to discover), builds the controller — any of
//! the twelve `Family` names, a §5 application such as `size-estimator`
//! included, which ignores `--m` and `--w` — and
//! serves the DESIGN.md §9 line-JSON protocol until a client sends
//! `{"op": "shutdown"}`. Try it interactively:
//!
//! ```text
//! $ dcn-serve --addr 127.0.0.1:7007 --family centralized --m 1024 --w 64 &
//! $ printf '%s\n' '{"op":"hello","proto":1}' \
//!     '{"op":"subscribe"}' '{"op":"submit","kind":"event","node":0}' \
//!     '{"op":"shutdown"}' | nc 127.0.0.1 7007
//! ```

#![forbid(unsafe_code)]

use dcn_server::{serve, ServeConfig};
use dcn_workload::{Family, TreeShape};
use std::process::ExitCode;

struct Args {
    addr: String,
    family: Family,
    m: u64,
    w: u64,
    shape_kind: String,
    nodes: usize,
    seed: u64,
    port_file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        family: Family::Centralized,
        m: 1 << 20,
        w: 1024,
        shape_kind: "star".to_string(),
        nodes: 64,
        seed: 0,
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--family" => {
                let name = value("--family")?;
                args.family =
                    Family::from_name(&name).ok_or_else(|| format!("unknown family {name:?}"))?;
            }
            "--m" => args.m = value("--m")?.parse().map_err(|e| format!("--m: {e}"))?,
            "--w" => args.w = value("--w")?.parse().map_err(|e| format!("--w: {e}"))?,
            "--shape" => args.shape_kind = value("--shape")?,
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--port-file" => args.port_file = Some(value("--port-file")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dcn-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let shape = match args.shape_kind.as_str() {
        "star" => TreeShape::Star { nodes: args.nodes },
        "path" => TreeShape::Path { nodes: args.nodes },
        other => {
            eprintln!("dcn-serve: unknown shape {other:?} (use star or path)");
            return ExitCode::FAILURE;
        }
    };
    let config = ServeConfig::new(args.family, args.m, args.w)
        .with_shape(shape)
        .with_seed(args.seed);
    let handle = match serve(config, &args.addr) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("dcn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = handle.local_addr();
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", local.port())) {
            eprintln!("dcn-serve: cannot write {path}: {e}");
            handle.shutdown();
            handle.join();
            return ExitCode::FAILURE;
        }
    }
    let (m, w) = handle.budget();
    println!(
        "dcn-serve listening on {local} family={} m={m} w={w} nodes={} seed={}",
        args.family.name(),
        args.nodes,
        args.seed
    );
    handle.join();
    println!("dcn-serve: drained and stopped");
    ExitCode::SUCCESS
}
