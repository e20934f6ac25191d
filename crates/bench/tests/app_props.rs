//! Seeded case-loop property tests for the §5 applications driven
//! *incrementally* through the ticketed runtime: `AncestryLabeling` and
//! `HeavyChildDecomposition` must hold their invariants across mixed
//! `FullChurn` traces (leaf and internal inserts plus deletes) on all four
//! classic tree shapes, with execution advanced in small bounded `step`
//! slices rather than one blocking batch.
//!
//! The build environment has no proptest, so each property runs a fixed
//! number of seeded random cases through `dcn-rng`; every failure is
//! reproducible from its printed case seed.

use dcn_controller::Controller;
use dcn_estimator::{AncestryLabeling, HeavyChildDecomposition};
use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_simnet::SimConfig;
use dcn_workload::{build_tree, ChurnGenerator, ChurnModel, TreeShape};

const CASES: u64 = 12;

/// The four classic shapes, picked per case.
fn shape_for(case: u64, nodes: usize) -> TreeShape {
    match case % 4 {
        0 => TreeShape::Star { nodes },
        1 => TreeShape::Path { nodes },
        2 => TreeShape::Balanced { nodes, arity: 3 },
        _ => TreeShape::RandomRecursive {
            nodes,
            seed: case + 1,
        },
    }
}

/// Drives `app` through a seeded mixed-churn trace in small incremental
/// slices: a few operations are submitted, execution advances by a tiny
/// bounded `step` budget (leaving iteration agents in flight while the next
/// operations arrive), and the invariant is checked at every quiescent
/// point. Returns (granted, rejected) tallies read from the record history.
fn drive_incrementally(
    app: &mut dyn Controller,
    case: u64,
    rng: &mut DetRng,
    rounds: usize,
) -> (u64, u64) {
    let mut churn = ChurnGenerator::new(
        ChurnModel::FullChurn {
            add_leaf: 40,
            add_internal: 20,
            remove: 30,
        },
        case.wrapping_mul(0x9E37_79B9).wrapping_add(5),
    );
    for _ in 0..rounds {
        let want = rng.gen_range(1usize..6);
        for op in churn.batch(app.tree(), want) {
            let (at, kind) = op.to_request();
            // Stale operations (target vanished under an earlier grant) are
            // dropped, exactly like the runner does.
            let _ = app.submit(at, kind);
            // A tiny slice: agents stay in flight across submissions.
            let quantum = rng.gen_range(1u64..8);
            app.step(quantum)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
        // Drain to quiescence in bounded slices (never one blocking call).
        loop {
            let progress = app.step(16).unwrap_or_else(|e| panic!("case {case}: {e}"));
            if progress.quiescent {
                break;
            }
        }
        app.check_invariants()
            .unwrap_or_else(|e| panic!("case {case} ({}): {e}", app.name()));
    }
    let granted = app
        .records()
        .iter()
        .filter(|r| r.outcome.is_granted())
        .count() as u64;
    let rejected = app.records().len() as u64 - granted;
    (granted, rejected)
}

/// Corollary 5.7 under incremental execution: labels stay present, correct
/// and short across mixed full-churn traces on all four shapes.
#[test]
fn ancestry_labeling_invariants_hold_under_incremental_steps() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(7_000 + case);
        let n0 = rng.gen_range(8usize..28);
        let seed = rng.gen_range(0u64..1_000);
        let tree = build_tree(shape_for(case, n0));
        let mut labels = AncestryLabeling::new(SimConfig::new(seed), tree)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let rounds = rng.gen_range(4usize..9);
        let (granted, _) = drive_incrementally(&mut labels, case, &mut rng, rounds);
        assert!(granted > 0, "case {case}: nothing granted");
        // Every ticket resolved: the driver never strands a request.
        assert!(labels.tree().check_invariants().is_ok(), "case {case}");
    }
}

/// Theorem 5.4 under incremental execution: the light-ancestor bound holds
/// across mixed full-churn traces on all four shapes.
#[test]
fn heavy_child_light_depth_holds_under_incremental_steps() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(8_000 + case);
        let n0 = rng.gen_range(6usize..20);
        let seed = rng.gen_range(0u64..1_000);
        let tree = build_tree(shape_for(case, n0));
        let mut heavy = HeavyChildDecomposition::new(SimConfig::new(seed), tree)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let rounds = rng.gen_range(4usize..9);
        let (granted, _) = drive_incrementally(&mut heavy, case, &mut rng, rounds);
        assert!(granted > 0, "case {case}: nothing granted");
        assert!(heavy.tree().check_invariants().is_ok(), "case {case}");
    }
}
