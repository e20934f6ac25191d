//! The `dcn-exp` binary: every experiment's quick-mode table is pinned, and
//! the command line does what its usage text says.
//!
//! The fingerprints were recorded from the ten single-purpose `exp_*`
//! binaries this CLI replaced (PR 13), so they also prove the fold changed no
//! output byte; `t3`, `t4`, `f1`, `f2` and `f3` — the tables with a
//! distributed-derived column — were re-pinned when the request agent began
//! releasing its locks on the way down (their message columns roughly
//! halved), again when a blocked topological change began to apply in the
//! step that frees its gate (PR 17), and a third time when the simulator's
//! port numbers were deleted and hop delays became the first samples of the
//! seed's stream (PR 24); the other five moved none of the three times. Each
//! run is a child process with its own environment — the quick/JSON switches
//! are environment variables, and setting those in-process would race with
//! the other tests of this binary.
//!
//! `f1`, `f2` and `f3` — the application tables — were re-pinned once more
//! when an iteration boundary of the §5 engine began to cost one
//! convergecast and one broadcast. Only their message columns moved: F1's
//! amortized messages per change on its four multi-iteration quick rows
//! (20.6 / 15.4 / 12.7 / 22.0 → 17.5 / 13.6 / 11.4 / 19.8), F2's 2 410 →
//! 1 923, F3's `msgs` (1 503 / 4 063 / 1 639 / 11 788 → 989 / 3 544 /
//! 1 138 / 11 283). The other seven tables are byte-identical.

mod common;

use common::fnv1a;
use dcn_bench::experiments::EXPERIMENTS;
use std::process::{Command, Output};

/// Runs `dcn-exp <arg>` in quick mode, with JSON lines on or off.
fn dcn_exp(arg: &str, json: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dcn-exp"));
    cmd.arg(arg).env("DCN_QUICK", "1").env_remove("DCN_JSON");
    if json {
        cmd.env("DCN_JSON", "1");
    }
    cmd.output().expect("dcn-exp spawns")
}

/// `(id, fnv1a(stdout), fnv1a(stdout with DCN_JSON=1))` under `DCN_QUICK=1`.
const GOLDEN: [(&str, u64, u64); 10] = [
    ("t1", 0x014d_d045_5215_8b88, 0x26dc_7604_6780_d95d),
    ("t2", 0xf426_874b_2731_b30b, 0xacfa_4d89_58c9_aa46),
    ("t3", 0x8d56_04cf_4367_e5df, 0x2ccd_ad06_90fb_48ec),
    ("t4", 0x85c7_19dc_8df3_7f46, 0x10d8_71b2_7b60_a9bb),
    ("t5", 0xcdbc_d09c_eebb_bd51, 0xa472_1d6c_8da0_cd6a),
    ("f1", 0xe370_0272_9f50_8175, 0xf056_74a0_4e48_5586),
    ("f2", 0xdf64_cc5a_7066_15d4, 0xf109_c586_81f2_28fb),
    ("f3", 0x4084_ce4e_065e_c80c, 0x126b_376e_270c_99af),
    ("f4", 0xc174_94a5_8d83_ff8e, 0xd935_2a41_bcfd_2891),
    ("f5", 0x4eb6_0217_1980_7a37, 0xe531_c8ec_7085_e69c),
];

#[test]
fn every_quick_table_matches_its_golden_fingerprint() {
    for (id, plain, with_json) in GOLDEN {
        for (json, want) in [(false, plain), (true, with_json)] {
            let out = dcn_exp(id, json);
            assert!(out.status.success(), "{id} json={json}: {:?}", out.status);
            assert_eq!(
                fnv1a(&out.stdout),
                want,
                "{id} json={json} printed:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
    }
}

/// Paper order, T1…T5 then F1…F5; the golden table above covers exactly the
/// index.
#[test]
fn the_index_lists_the_ten_ids_in_paper_order() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids, GOLDEN.map(|(id, _, _)| id));
}

#[test]
fn all_runs_every_experiment_in_index_order() {
    let all = dcn_exp("all", false);
    assert!(all.status.success());
    let one_by_one: Vec<u8> = EXPERIMENTS
        .iter()
        .flat_map(|e| dcn_exp(e.id, false).stdout)
        .collect();
    assert_eq!(all.stdout, one_by_one);
}

#[test]
fn an_unknown_id_fails_and_lists_the_valid_ones() {
    let out = dcn_exp("t99", false);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `t99`"), "{stderr}");
    for e in &EXPERIMENTS {
        assert!(stderr.contains(&format!("\n  {}  ", e.id)), "{stderr}");
    }
}

#[test]
fn help_exits_zero_and_prints_the_index() {
    let out = dcn_exp("--help", false);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for e in &EXPERIMENTS {
        assert!(stdout.contains(e.title), "{stdout}");
    }
}
