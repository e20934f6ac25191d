//! `dcn-exp` — the paper's ten claims as measurable experiments.
//!
//! ```text
//! dcn-exp <t1|t2|t3|t4|t5|f1|f2|f3|f4|f5|all>
//! ```
//!
//! Looks the id up in [`EXPERIMENTS`], runs it and prints its table (`all`
//! runs every experiment in paper order). `DCN_QUICK=1` selects the reduced
//! sweeps, `DCN_JSON=1` appends the rows as JSON lines, `DCN_WORKERS` sizes
//! the worker pool of the experiments that fan out over the sweep engine.

#![forbid(unsafe_code)]

use dcn_bench::experiments::EXPERIMENTS;
use dcn_bench::print_table;
use std::process::ExitCode;

fn usage() -> String {
    let mut text = String::from("usage: dcn-exp <id|all>\n\nexperiments:\n");
    for e in &EXPERIMENTS {
        text.push_str(&format!("  {}  {}\n", e.id, e.title));
    }
    text
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprint!("dcn-exp: expected exactly one argument\n{}", usage());
        return ExitCode::from(2);
    };
    if arg == "--help" || arg == "-h" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| arg == "all" || arg == e.id)
        .collect();
    if selected.is_empty() {
        eprint!("dcn-exp: unknown experiment `{arg}`\n{}", usage());
        return ExitCode::from(2);
    }
    for e in selected {
        print_table(e.title, &(e.run)());
    }
    ExitCode::SUCCESS
}
