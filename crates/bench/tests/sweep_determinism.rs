//! End-to-end determinism of the sweep engine over the real controller
//! families: the same grid must emit byte-identical CSV and JSON whether it
//! runs on one worker or many, and re-running must reproduce exactly.

mod common;

use common::fnv1a;
use dcn_bench::run_grid;
use dcn_workload::{ArrivalMode, ChurnModel, MwBudget, Placement, SweepGrid, TreeShape};

fn grid() -> SweepGrid {
    SweepGrid {
        name: "determinism".to_string(),
        families: ["iterated", "distributed", "trivial", "aaps"]
            .map(String::from)
            .to_vec(),
        apps: vec![],
        shapes: vec![
            TreeShape::Path { nodes: 15 },
            TreeShape::PreferentialAttachment { nodes: 15, seed: 3 },
            TreeShape::Spider {
                legs: 3,
                leg_length: 5,
            },
        ],
        shards: vec![],
        churns: vec![
            ChurnModel::GrowOnly,
            ChurnModel::default_mixed(),
            ChurnModel::BurstyDeepLeaf { burst: 4 },
        ],
        placements: vec![Placement::Uniform, Placement::Deepest],
        // Both schedules: closed-loop batches and open-loop interleaved
        // arrivals, in which requests are submitted while the distributed
        // family's agents are still in flight — determinism must survive
        // mid-flight submission too.
        arrivals: vec![ArrivalMode::Batch, ArrivalMode::Interleaved { quantum: 16 }],
        budgets: vec![MwBudget { m: 32, w: 8 }],
        requests: 24,
        replicates: 1,
        base_seed: 41,
    }
}

/// One worker and N workers (more workers than cells included) produce the
/// same bytes, and a repeated run reproduces them.
#[test]
fn sweep_reports_are_byte_identical_across_worker_counts() {
    let grid = grid();
    assert_eq!(grid.cell_count(), 144);
    let serial = run_grid(&grid, 1);
    let serial_csv = serial.to_csv();
    let serial_json = serial.to_json();
    for workers in [4, 16, 100] {
        let parallel = run_grid(&grid, workers);
        assert_eq!(
            serial_csv,
            parallel.to_csv(),
            "CSV diverged at {workers} workers"
        );
        assert_eq!(
            serial_json,
            parallel.to_json(),
            "JSON diverged at {workers} workers"
        );
    }
    // Replay: a fresh serial run reproduces the bytes too.
    let again = run_grid(&grid, 1);
    assert_eq!(serial_csv, again.to_csv());
}

/// The same grid with the §5 apps axis attached: `size-estimator` and
/// `name-assigner` cells run through `ScenarioRunner::run` inside the
/// same engine, and the emitted CSV/JSON must stay byte-identical whether
/// the grid runs on 1, 4 or 16 workers.
fn apps_grid() -> SweepGrid {
    let mut grid = grid();
    grid.name = "determinism-apps".to_string();
    grid.families = vec!["iterated".to_string(), "distributed".to_string()];
    grid.apps = vec!["size-estimator".to_string(), "name-assigner".to_string()];
    grid
}

/// Satellite of the application-layer refactor: the apps grid is
/// byte-identical across worker counts and reproducible on re-run, exactly
/// like the controller grid.
#[test]
fn apps_grid_reports_are_byte_identical_across_worker_counts() {
    let grid = apps_grid();
    assert_eq!(grid.cell_count(), 144);
    let serial = run_grid(&grid, 1);
    let serial_csv = serial.to_csv();
    let serial_json = serial.to_json();
    for workers in [4, 16] {
        let parallel = run_grid(&grid, workers);
        assert_eq!(
            serial_csv,
            parallel.to_csv(),
            "CSV diverged at {workers} workers"
        );
        assert_eq!(
            serial_json,
            parallel.to_json(),
            "JSON diverged at {workers} workers"
        );
    }
    // Replay: a fresh serial run reproduces the bytes too.
    let again = run_grid(&grid, 1);
    assert_eq!(serial_csv, again.to_csv());
    // The app cells all ran clean: every ticket answered, no §5 invariant
    // violations anywhere on the diversified grid.
    for cell in serial
        .cells
        .iter()
        .filter(|c| dcn_workload::AppFamily::from_name(&c.cell.family).is_some())
    {
        let report = cell
            .run_report()
            .unwrap_or_else(|| panic!("cell {}: {:?}", cell.cell.index, cell.report));
        assert!(
            cell.violation.is_none(),
            "cell {} ({} / {}): {:?}",
            cell.cell.index,
            cell.cell.family,
            cell.cell.scenario.name,
            cell.violation
        );
        assert_eq!(report.invariant_violations, 0);
        assert!(report.invariant_checks > 0);
    }
    // Both app families produced summary rows with real message costs, and
    // with the moves and memory of their own cells.
    let summaries = serial.summaries();
    assert_eq!(summaries.len(), 4);
    for s in summaries.iter().filter(|s| s.family.contains('-')) {
        assert_eq!(s.cells, 36, "{}", s.family);
        assert_eq!(s.errors, 0, "{}", s.family);
        assert!(s.p95_messages > 0, "{}", s.family);
        assert!(s.p95_moves > 0, "{}", s.family);
        assert!(s.p95_memory_bits > 0, "{}", s.family);
    }
}

/// Golden-hash regression: the `dcn-sweep --quick` CSV/JSON bytes (the
/// shared [`dcn_bench::quick_grid`] with the CLI's default seed) are pinned.
/// Any change to iteration order, seed derivation, rng consumption or report
/// formatting moves these hashes; a storage layer swap must not (the pins
/// were first recorded *before* the HashMap → slot map/FxHashMap migration
/// and survived it).
///
/// Re-pinned, consciously, when the distributed request agent began
/// releasing its locks on the way down: every distributed-derived row
/// (`distributed`, `sharded:k*`, the §5 apps, adaptive-distributed) moved —
/// messages roughly halved — while the `iterated`, `trivial` and `aaps` rows
/// stayed byte-identical (diffed per family, parent against change; see
/// CHANGES.md). The same holds for the other constants in this file.
///
/// Re-pinned again, the same way, when a blocked topological change began to
/// wait on its gate node and apply in the step that frees it (PR 17): the
/// three grid pins moved (14–15 of each distributed-derived family's 24 quick
/// rows, messages −0.7 % … +2.1 %), the `adaptive_distributed` fingerprints
/// below did not.
///
/// Re-pinned a third time when the simulator's port numbers were deleted
/// (PR 24) and a run's hop delays became the first samples of its seed's
/// stream: all four constants in this file moved — every distributed-derived
/// row, by its latency columns at least; `distributed` / `sharded:k1`
/// messages 12 167 → 12 169 with no `granted` / `rejected` moved — and
/// `iterated`, `trivial` and `aaps` stayed byte-identical. Under
/// `DelayModel::Constant` nothing moved (`tests/end_to_end.rs`,
/// `a_constant_delay_run_is_pinned_field_for_field`).
///
/// Re-pinned a fourth time, by format alone, when one writer began to print
/// every column of every row from the cell's `RunReport`. Diffed against the
/// parent field by field and key by key: the header and the 103 lines are
/// unchanged, every one of the 2 586 fields the parent printed non-empty is
/// byte-identical, and so is every one of the 2 865 JSON values it printed.
/// What is new: the 96 controller rows fill `iterations`, `changes`,
/// `amortized_mpc` and `invariant_violations` (0 in every row), and their
/// JSON objects gain those keys and `invariant_checks`.
#[test]
fn quick_sweep_output_matches_the_pre_migration_golden_hashes() {
    let report = run_grid(
        &dcn_bench::quick_grid(dcn_bench::DEFAULT_SWEEP_SEED, 1, false),
        4,
    );
    assert_eq!(fnv1a(report.to_csv().as_bytes()), 0x4f66_c80e_32b9_2f3b);
    assert_eq!(fnv1a(report.to_json().as_bytes()), 0x4fa2_f9b2_3929_f017);
}

/// Same pin for the apps axis (`dcn-sweep --quick --apps`).
///
/// Re-pinned, consciously, when ancestry labels began to take new nodes
/// from room reserved in their parent's interval instead of re-labeling the
/// whole tree after every slice with an insertion. Diffed per family
/// and column against the parent: only the 24 `ancestry-labeling` rows
/// moved, in `messages` and `amortized_mpc` only (the family's messages
/// 26 548 → 22 876), and so did that family's summary row (p50 / p95
/// messages 933 / 2 022 → 786 / 1 798). The other nine families' rows and
/// summaries are byte-identical, and so are the other three pins in this
/// file and every `dcn-exp` pin in `exp_tables.rs`.
///
/// Re-pinned again when an iteration of the epoch engine began to admit
/// nothing more after its first reject, under every policy (the §5 default
/// used to hand a bounded slice's rejects back to the same exhausted
/// iteration). Diffed per family and column against the parent: one row per
/// application moved, all six in one cell
/// (`star23-full30-20-25-uniform-open24-m48w12`), one of the twelve
/// open-arrival cells — the only cells stepped in bounded (24-event)
/// slices, so the only ones the old re-feed could reach. Granted /
/// rejected / messages went 30 / 10 / 390 → 31 / 9 / 395 for
/// `size-estimator` and `majority-commitment`, 651 → 659, 564 → 571 and
/// 516 → 523 messages (30 / 10 → 31 / 9) for `name-assigner`,
/// `subtree-estimator` and `ancestry-labeling`, and 28 / 12 / 568 →
/// 27 / 13 / 549 for `heavy-child`, with `p50_latency`, `p95_latency`,
/// `changes`, `amortized_mpc` and (but for `heavy-child`) `final_nodes`
/// moving alongside; `iterations` stayed 3. No summary row moved, nor did
/// the other three pins in this file or any pin in `exp_tables.rs`.
///
/// Re-pinned a third time when an iteration boundary of the §5 engine began
/// to cost one convergecast and one broadcast: the closing count rides on
/// the reject wave, and ω₀ and the renaming ride on the count. Diffed per
/// family and column against the parent: all 24 rows of each of the six
/// applications moved, in `messages` and `amortized_mpc` only, and so did
/// their six summary rows. The families' messages went 18 151 → 16 512
/// (`size-estimator`, `majority-commitment`), 24 793 → 19 890
/// (`name-assigner`), 22 579 → 17 676 (`subtree-estimator`), 23 786 →
/// 18 573 (`heavy-child`) and 22 883 → 21 244 (`ancestry-labeling`); the
/// summaries' p50 / p95 messages 581 / 1 474 → 514 / 1 382, 840 / 1 816 →
/// 655 / 1 544, 759 / 1 702 → 562 / 1 430, 794 / 1 690 → 655 / 1 442 and
/// 786 / 1 798 → 736 / 1 706. The four controller families' rows, the
/// other three pins in this file and the `t1`–`t5`, `f4` and `f5` pins in
/// `exp_tables.rs` did not move.
///
/// Re-pinned a fourth time when a waiting request that the tree no longer
/// admits (its origin vanished) began to be refused by the epoch engine
/// instead of rejected for good (the one refusal rule, DESIGN §2.1). Diffed
/// per family and column against the parent: 14 of the 24 rows of each
/// application moved (11 for `heavy-child`), in `submitted`, `rejected`,
/// `p50_latency` and `p95_latency` only. Every reject in them was such a
/// request, so `rejected` went to 0 in each — 110 → 0 per family over its
/// 14 rows (128 → 0 for `heavy-child`), `submitted` 560 → 450 (440 →
/// 312) — while `granted`, `messages` and every other column held. The
/// summary rows of five applications moved in `p50_latency` only (75 →
/// 79); `heavy-child`'s did not. The controller families' rows, the other
/// three pins in this file and every pin in `exp_tables.rs` did not move.
///
/// Re-pinned a fifth time, by format alone, when one writer began to print
/// every column of every row. Diffed against the parent field by field and
/// key by key: the header and the 253 lines are unchanged, every one of the
/// 6 258 fields the parent printed non-empty is byte-identical, and so is
/// every one of the 7 161 JSON values it printed. What is new: the 144 app
/// rows fill `refused` (678 refusals over 81 rows, which the parent's
/// `submitted` had already lost), `wasted` (0 in every row), `moves`,
/// `peak_memory_bits` and `final_max_degree`, and the 96 controller rows
/// fill `iterations`, `changes`, `amortized_mpc` and
/// `invariant_violations`; the JSON objects gain the same keys (the
/// controller ones `invariant_checks` too).
///
/// Re-pinned a sixth time when an application's summary row began to
/// aggregate moves and memory over its own cells, as a controller's does
/// (it used to take them from controller cells only, and read 0). Diffed
/// per row and column against the parent: all 240 cell rows are
/// byte-identical, and so are the four controller summaries; only the six
/// application summaries moved, in `p50_moves`, `p95_moves`,
/// `p50_memory_bits` and `p95_memory_bits` alone — 0 / 0 / 0 / 0 →
/// 363 / 1 180 / 5 / 6 for five of them and 353 / 1 174 / 5 / 6 for
/// `heavy-child`. The JSON moved in the same 24 values. The other three
/// pins in this file and every pin in `exp_tables.rs` did not move.
#[test]
fn quick_apps_sweep_output_matches_the_pre_migration_golden_hashes() {
    let report = run_grid(
        &dcn_bench::quick_grid(dcn_bench::DEFAULT_SWEEP_SEED, 1, true),
        4,
    );
    assert_eq!(fnv1a(report.to_csv().as_bytes()), 0xde30_18b1_5e2c_4d01);
    assert_eq!(fnv1a(report.to_json().as_bytes()), 0x370b_67ed_ad91_107f);
}

/// The sharded-controller grid: the `distributed` family side by side with
/// `sharded:k1` (the distributed family again, under the driver's own name),
/// `sharded:k2` and `sharded:k8` on the same scenario points. The low-M
/// budget forces per-shard slice exhaustion, so the k ≥ 2 cells actually run
/// cross-shard permit-exchange waves inside the sweep.
fn sharded_grid() -> SweepGrid {
    let mut grid = grid();
    grid.name = "determinism-sharded".to_string();
    grid.families = vec!["distributed".to_string()];
    grid.shards = vec![1, 2, 8];
    grid.budgets = vec![MwBudget { m: 32, w: 8 }, MwBudget { m: 10, w: 3 }];
    grid
}

/// Satellite of the sharded controller: the `shards` axis emits
/// byte-identical CSV/JSON across 1, 4 and 16 sweep workers (a sharded cell
/// steps its shards in order on its worker's thread), and re-running
/// reproduces the bytes.
#[test]
fn sharded_grid_reports_are_byte_identical_across_worker_counts() {
    let grid = sharded_grid();
    assert_eq!(grid.cell_count(), 288);
    let serial = run_grid(&grid, 1);
    let serial_csv = serial.to_csv();
    let serial_json = serial.to_json();
    for workers in [4, 16] {
        let parallel = run_grid(&grid, workers);
        assert_eq!(
            serial_csv,
            parallel.to_csv(),
            "CSV diverged at {workers} workers"
        );
        assert_eq!(
            serial_json,
            parallel.to_json(),
            "JSON diverged at {workers} workers"
        );
    }
    let again = run_grid(&grid, 1);
    assert_eq!(serial_csv, again.to_csv());
    // Every sharded cell ran clean: built, answered every ticket, and kept
    // the global §2.2 safety/liveness conditions across shards.
    for cell in &serial.cells {
        assert!(
            cell.report.is_ok(),
            "cell {} ({}): {:?}",
            cell.cell.index,
            cell.cell.scenario.name,
            cell.report
        );
        assert!(
            cell.violation.is_none(),
            "cell {} ({} / {}): {:?}",
            cell.cell.index,
            cell.cell.family,
            cell.cell.scenario.name,
            cell.violation
        );
    }
    let summaries = serial.summaries();
    assert_eq!(summaries.len(), 4);
    for s in &summaries {
        assert_eq!(s.cells, 72, "{}", s.family);
        assert_eq!(s.errors, 0, "{}", s.family);
        assert!(s.p95_messages > 0, "{}", s.family);
    }
}

/// Every cell of the grid runs clean over the real families: no build/run
/// errors and no safety/liveness/accounting violations.
#[test]
fn every_family_survives_the_diversified_grid() {
    let report = run_grid(&grid(), 4);
    for cell in &report.cells {
        assert!(
            cell.report.is_ok(),
            "cell {} ({}): {:?}",
            cell.cell.index,
            cell.cell.scenario.name,
            cell.report
        );
        assert!(
            cell.violation.is_none(),
            "cell {} ({} / {}): {:?}",
            cell.cell.index,
            cell.cell.family,
            cell.cell.scenario.name,
            cell.violation
        );
    }
    // All four families actually produced work.
    let summaries = report.summaries();
    assert_eq!(summaries.len(), 4);
    for s in &summaries {
        assert_eq!(s.cells, 36, "{}", s.family);
        assert_eq!(s.errors, 0, "{}", s.family);
        assert!(s.p95_messages > 0, "{}", s.family);
    }
}

/// Constant byte pin for the sharded axis, recorded on the commit *before*
/// the epoch-shell refactor: until then the 288-cell grid (whose `m=10,w=3`
/// budget forces exchange waves) was only compared across worker counts,
/// never against a constant.
///
/// Re-pinned once, by format alone, when one writer began to print every
/// column of every row. Diffed against the parent field by field and key by
/// key: the header and the 295 lines are unchanged, every one of the 7 578
/// fields the parent printed non-empty is byte-identical, and so is every
/// one of the 8 545 JSON values it printed. What is new: the 288 controller
/// rows fill `iterations`, `changes`, `amortized_mpc` and
/// `invariant_violations` (0 in every row), and their JSON objects gain
/// those keys and `invariant_checks`. The CLI's `--quick --shards 1,4` grid
/// (CI's sharded smoke) diffs the same way: 153 lines, 3 858 fields and
/// 4 297 JSON values held.
#[test]
fn sharded_grid_output_matches_the_pre_shell_golden_hashes() {
    let report = run_grid(&sharded_grid(), 4);
    assert_eq!(fnv1a(report.to_csv().as_bytes()), 0x19e2_ec35_d9ed_954b);
    assert_eq!(fnv1a(report.to_json().as_bytes()), 0x114e_61ef_2f8c_d24e);
}

/// One adaptive-distributed run reduced to a fingerprint: ticket, outcome,
/// `submitted_at` and `answered_at` of every record, then `messages()`,
/// `epochs()` and `recycles()`. `moves` / `peak_node_memory_bits` are left
/// out on purpose — the pre-shell code reset them at every rebuild.
fn adaptive_distributed_fingerprint(seed: u64) -> u64 {
    use dcn_controller::distributed::AdaptiveDistributedController;
    use dcn_controller::{Controller, RequestKind};
    use dcn_simnet::SimConfig;
    use dcn_tree::{DynamicTree, NodeId};

    // M = 400 over 8 nodes gives the first epochs φ > 1, so static packages
    // strand permits and the first reject finds more than W uncommitted (a
    // recycle); the six insertions of rounds 0, 5 and 10 cross U/4 changes
    // (an epoch refresh).
    let tree = DynamicTree::with_initial_path(8);
    let mut ctrl = AdaptiveDistributedController::new(SimConfig::new(seed), tree, 400, 4).unwrap();
    for round in 0..12usize {
        let nodes: Vec<NodeId> = Controller::tree(&ctrl).nodes().collect();
        for i in 0..40usize {
            let at = nodes[(i * 7 + round) % nodes.len()];
            let kind = if round % 5 == 0 && i < 6 {
                RequestKind::AddLeaf
            } else {
                RequestKind::NonTopological
            };
            Controller::submit(&mut ctrl, at, kind).unwrap();
        }
        Controller::run_to_quiescence(&mut ctrl).unwrap();
    }
    assert!(ctrl.recycles() >= 1, "seed {seed}: no recycle forced");
    assert!(ctrl.epochs() >= 2, "seed {seed}: no epoch refresh forced");
    fingerprint(&ctrl)
}

/// The same fingerprint in the hierarchical regime (`W ≥ 4U`, so `φ > 1`
/// from the first epoch): a 15-node path with M = 4 096 and W = 1 024, asked
/// for more permits than M. Its epochs re-open with `L ≤ 2W` and its rejects
/// meet between 1 and `2W` uncommitted permits, which is where a halving rule
/// that opens every epoch at `L/2`, or takes rejects as final only at zero
/// uncommitted permits, spends different messages.
fn hierarchical_adaptive_distributed_fingerprint(seed: u64) -> u64 {
    use dcn_controller::distributed::AdaptiveDistributedController;
    use dcn_controller::{Controller, RequestKind};
    use dcn_simnet::SimConfig;
    use dcn_tree::{DynamicTree, NodeId};

    let tree = DynamicTree::with_initial_path(15);
    let mut ctrl =
        AdaptiveDistributedController::new(SimConfig::new(seed), tree, 4_096, 1_024).unwrap();
    for round in 0..11usize {
        let nodes: Vec<NodeId> = Controller::tree(&ctrl).nodes().collect();
        for i in 0..400usize {
            let at = nodes[(i * 7 + round) % nodes.len()];
            let kind = if round % 3 == 0 && i < 8 {
                RequestKind::AddLeaf
            } else {
                RequestKind::NonTopological
            };
            Controller::submit(&mut ctrl, at, kind).unwrap();
        }
        Controller::run_to_quiescence(&mut ctrl).unwrap();
    }
    assert!(ctrl.is_exhausted(), "seed {seed}: M not exhausted");
    assert!(ctrl.epochs() >= 2, "seed {seed}: no epoch refresh forced");
    fingerprint(&ctrl)
}

fn fingerprint(ctrl: &dcn_controller::distributed::AdaptiveDistributedController) -> u64 {
    use dcn_controller::{Controller, Outcome};

    let mut words: Vec<u64> = Vec::new();
    for r in Controller::records(ctrl) {
        let outcome = match r.outcome {
            Outcome::Granted { .. } => 1,
            Outcome::Rejected => 2,
            Outcome::Refused => 3,
        };
        words.extend([r.id.0, outcome, r.submitted_at, r.answered_at]);
    }
    words.extend([
        Controller::metrics(ctrl).messages,
        ctrl.epochs() as u64,
        ctrl.recycles() as u64,
    ]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Constant pin for the epoch shell's second client, recorded on the commit
/// before the refactor: three seeds, each forcing at least one recycle and
/// one epoch refresh.
#[test]
fn adaptive_distributed_runs_match_the_pre_shell_fingerprints() {
    let got = [3u64, 11, 29].map(adaptive_distributed_fingerprint);
    assert_eq!(
        got,
        [
            0x28cf_7105_c6f2_788b,
            0x6953_6532_0df1_68a7,
            0xd3ee_9798_2cfc_fa7a
        ],
        "{got:x?}"
    );
    let hierarchical = hierarchical_adaptive_distributed_fingerprint(5);
    assert_eq!(hierarchical, 0xee6c_9cea_0707_6e57, "{hierarchical:x}");
}
