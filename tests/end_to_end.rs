//! Cross-crate integration tests: workload generators and the shared
//! `ScenarioRunner` driving every controller family plus the §5 applications,
//! with correctness checked end to end.

use dcn::baseline::{AapsController, TrivialController};
use dcn::controller::centralized::{CentralizedController, IteratedController};
use dcn::controller::distributed::{AdaptiveDistributedController, DistributedController};
use dcn::controller::verify::ExecutionSummary;
use dcn::controller::{
    Controller, ControllerMetrics, Outcome, RequestId, RequestKind, RequestRecord,
};
use dcn::simnet::{DelayModel, SimConfig};
use dcn::tree::NodeId;
use dcn::workload::{
    build_tree, ArrivalMode, ChurnGenerator, ChurnModel, ChurnOp, ControllerSpec, Family,
    Placement, RunReport, Scenario, ScenarioRunner, TreeShape,
};

/// The acceptance test of the ticket/event redesign: all six controller
/// families — built through the *same* `ControllerSpec` factory — run the
/// same seeded scenario through the single `ScenarioRunner` code path; the
/// safety invariant `granted ≤ M` (plus liveness, via `RunReport::check`)
/// holds for each of them, and every single request's outcome is retrievable
/// by its `RequestId` ticket afterwards.
#[test]
fn all_six_controller_families_respect_safety_on_the_same_scenario() {
    let scenario = Scenario {
        name: "e2e-sweep".into(),
        shape: TreeShape::RandomRecursive {
            nodes: 31,
            seed: 11,
        },
        churn: ChurnModel::GrowOnly,
        placement: Placement::Uniform,
        arrival: ArrivalMode::Batch,
        requests: 48,
        m: 40,
        w: 10,
        seed: 11,
    };
    let runner = ScenarioRunner::new(scenario.clone());

    for family in Family::ALL {
        let mut ctrl = ControllerSpec::for_scenario(family, &scenario)
            .build_for(&runner)
            .unwrap();
        let report = runner.run(ctrl.as_mut()).unwrap();
        assert_eq!(report.controller, family.name());
        assert!(
            report.granted <= scenario.m,
            "{}: safety violated ({} > {})",
            report.controller,
            report.granted,
            scenario.m
        );
        assert!(report.granted > 0, "{}: nothing granted", report.controller);
        assert_eq!(
            report.granted + report.rejected,
            report.submitted,
            "{}: every submitted request must be answered",
            report.controller
        );
        report
            .check()
            .unwrap_or_else(|v| panic!("{}: {v}", report.controller));
        assert!(
            ctrl.tree().check_invariants().is_ok(),
            "{}: inconsistent tree",
            report.controller
        );
        // Every ticket is answered by exactly one record, for every family.
        let records = ctrl.records();
        assert_eq!(
            records.len() as u64,
            report.submitted + report.refused,
            "{}: one record per ticket",
            report.controller
        );
        let mut ids: Vec<_> = records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            records.len(),
            "{}: a ticket answered twice",
            report.controller
        );
        assert!(records.iter().all(|r| r.answered_at >= r.submitted_at));
    }
}

/// Open-loop arrivals: requests are submitted while distributed agents are
/// in flight, and the execution stays safe, live and reproducible.
#[test]
fn interleaved_arrivals_are_safe_for_the_distributed_families() {
    let scenario = Scenario {
        name: "e2e-interleaved".into(),
        shape: TreeShape::RandomRecursive {
            nodes: 31,
            seed: 13,
        },
        churn: ChurnModel::GrowOnly,
        placement: Placement::Uniform,
        arrival: ArrivalMode::Interleaved { quantum: 12 },
        requests: 48,
        m: 40,
        w: 10,
        seed: 13,
    };
    let runner = ScenarioRunner::new(scenario.clone());
    for family in [Family::Distributed, Family::AdaptiveDistributed] {
        let build = || {
            ControllerSpec::for_scenario(family, &scenario)
                .build_for(&runner)
                .unwrap()
        };
        let mut ctrl = build();
        let report = runner.run(ctrl.as_mut()).unwrap();
        report
            .check()
            .unwrap_or_else(|v| panic!("{}: {v}", report.controller));
        assert_eq!(report.granted + report.rejected, report.submitted);
        let mut again = build();
        assert_eq!(
            runner.run(again.as_mut()).unwrap(),
            report,
            "{}: interleaved runs must be reproducible",
            family.name()
        );
    }
}

/// The adaptive distributed controller also runs behind the shared trait.
#[test]
fn adaptive_distributed_controller_runs_through_the_scenario_runner() {
    let scenario = Scenario {
        name: "e2e-adaptive".into(),
        shape: TreeShape::RandomRecursive { nodes: 15, seed: 3 },
        churn: ChurnModel::default_mixed(),
        placement: Placement::Uniform,
        arrival: ArrivalMode::Batch,
        requests: 60,
        m: 120,
        w: 30,
        seed: 3,
    };
    let runner = ScenarioRunner::new(scenario.clone());
    let config = SimConfig::new(scenario.seed).with_delay(DelayModel::Uniform { min: 1, max: 7 });
    let mut ctrl =
        AdaptiveDistributedController::new(config, runner.initial_tree(), scenario.m, scenario.w)
            .unwrap();
    let report = runner.run(&mut ctrl).unwrap();
    assert_eq!(report.controller, "adaptive-distributed");
    report.check().unwrap();
    assert!(Controller::tree(&ctrl).check_invariants().is_ok());
}

/// Under `DelayModel::Constant` the simulator draws nothing from its rng, so
/// a change to what else the rng is used for (or to how a node is stored)
/// may move no field of this report. Recorded at commit e44cdee, before the
/// port numbers — the rng's other consumer — were deleted.
#[test]
fn a_constant_delay_run_is_pinned_field_for_field() {
    let recorded = [
        (
            ArrivalMode::Batch,
            (12_386, 12_423),
            (264, 1_814),
            (137, 4),
            (149, 17),
        ),
        (
            ArrivalMode::Interleaved { quantum: 48 },
            (10_181, 10_211),
            (6_956, 19_466),
            (139, 6),
            (144, 1),
        ),
    ];
    for (
        arrival,
        (moves, messages),
        (p50, p95),
        (final_nodes, final_max_degree),
        (changes, invariant_checks),
    ) in recorded
    {
        let scenario = Scenario {
            name: "constant-delay-control".into(),
            shape: TreeShape::Path { nodes: 64 },
            churn: ChurnModel::default_mixed(),
            placement: Placement::Uniform,
            arrival,
            requests: 256,
            m: 200,
            w: 50,
            seed: 7,
        };
        let runner = ScenarioRunner::new(scenario.clone());
        let config = SimConfig::new(7).with_delay(DelayModel::Constant(2));
        let mut ctrl = DistributedController::new(
            config,
            runner.initial_tree(),
            scenario.m,
            scenario.w,
            runner.suggested_u_bound(),
        )
        .unwrap();
        let expected = RunReport {
            controller: "distributed".to_string(),
            scenario: scenario.name,
            m: 200,
            w: 50,
            submitted: 256,
            refused: 0,
            dropped: 0,
            granted: 200,
            rejected: 56,
            wasted: 0,
            moves,
            messages,
            p50_answer_latency: p50,
            p95_answer_latency: p95,
            peak_node_memory_bits: 9,
            final_nodes,
            final_max_degree,
            iterations: 1,
            changes,
            invariant_checks,
            invariant_violations: 0,
            first_violation: None,
        };
        assert_eq!(runner.run(&mut ctrl).unwrap(), expected);
    }
}

#[test]
fn generated_churn_through_the_adaptive_controller_is_safe_and_live() {
    for seed in [3u64, 17, 99] {
        let tree = build_tree(TreeShape::RandomRecursive { nodes: 15, seed });
        let config = SimConfig::new(seed).with_delay(DelayModel::Uniform { min: 1, max: 7 });
        let (m, w) = (120u64, 30u64);
        let mut ctrl = AdaptiveDistributedController::new(config, tree, m, w).unwrap();
        let mut gen = ChurnGenerator::new(ChurnModel::default_mixed(), seed);
        let mut granted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..20 {
            let before = ctrl.records().len();
            for op in gen.batch(ctrl.tree(), 10) {
                let (at, kind) = op.to_request();
                ctrl.submit(at, kind).unwrap();
            }
            ctrl.run_to_quiescence().unwrap();
            for r in &ctrl.records()[before..] {
                match r.outcome {
                    Outcome::Granted { .. } => granted += 1,
                    Outcome::Rejected => rejected += 1,
                    Outcome::Refused => unreachable!("no request of these batches goes stale"),
                }
            }
            assert!(ctrl.tree().check_invariants().is_ok());
        }
        let summary = ExecutionSummary {
            m,
            w,
            granted,
            rejected,
            unanswered: 0,
        };
        summary
            .check()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        assert!(granted <= m);
        if rejected > 0 {
            assert!(granted >= m - w, "seed {seed}: granted {granted}");
        }
    }
}

#[test]
fn all_section_five_applications_hold_their_invariants_under_one_shared_trace() {
    use dcn::estimator::{AncestryLabeling, HeavyChildDecomposition, NameAssigner, SizeEstimator};

    // The same churn trace (same seed, same model) is fed to all four
    // applications; every application-specific invariant must hold after
    // every wave.
    let seed = 7u64;
    let model = ChurnModel::FullChurn {
        add_leaf: 45,
        add_internal: 15,
        remove: 30,
    };

    let mut size = SizeEstimator::new(
        SimConfig::new(seed),
        build_tree(TreeShape::RandomRecursive { nodes: 31, seed }),
        2.0,
    )
    .unwrap();
    let mut names = NameAssigner::new(
        SimConfig::new(seed),
        build_tree(TreeShape::RandomRecursive { nodes: 31, seed }),
    )
    .unwrap();
    let mut heavy = HeavyChildDecomposition::new(
        SimConfig::new(seed),
        build_tree(TreeShape::RandomRecursive { nodes: 31, seed }),
    )
    .unwrap();
    let mut labels = AncestryLabeling::new(
        SimConfig::new(seed),
        build_tree(TreeShape::RandomRecursive { nodes: 31, seed }),
    )
    .unwrap();

    let mut gens: Vec<ChurnGenerator> = (0..4).map(|_| ChurnGenerator::new(model, seed)).collect();

    for _ in 0..8 {
        let ops: Vec<_> = gens[0]
            .batch(size.tree(), 8)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        size.run_batch(&ops).unwrap();
        assert!(size.estimate_is_valid());

        let ops: Vec<_> = gens[1]
            .batch(names.tree(), 8)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        names.run_batch(&ops).unwrap();
        names.check_invariants().unwrap();

        let ops: Vec<_> = gens[2]
            .batch(heavy.tree(), 8)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        heavy.run_batch(&ops).unwrap();
        heavy.check_light_depth().unwrap();

        let ops: Vec<_> = gens[3]
            .batch(labels.tree(), 8)
            .iter()
            .map(ChurnOp::to_request)
            .collect();
        labels.run_batch(&ops).unwrap();
        labels.check_invariants().unwrap();
    }
}

/// The acceptance test of the application-layer refactor: all six §5
/// applications — built through the *same* `family_factory` — run the same
/// seeded scenario through the single `ScenarioRunner::run` code path,
/// in both the closed-loop and open-loop arrival modes; every ticket
/// resolves and every application-specific invariant holds at the quiescent
/// checkpoints.
#[test]
fn all_six_applications_run_through_the_unified_ticketed_runtime() {
    use dcn::workload::{family_factory, AppFamily};

    let base = Scenario {
        name: "e2e-apps".into(),
        shape: TreeShape::RandomRecursive {
            nodes: 23,
            seed: 19,
        },
        churn: ChurnModel::FullChurn {
            add_leaf: 40,
            add_internal: 15,
            remove: 30,
        },
        placement: Placement::Uniform,
        arrival: ArrivalMode::Batch,
        requests: 40,
        m: 40,
        w: 10,
        seed: 19,
    };
    for family in AppFamily::ALL {
        for arrival in [ArrivalMode::Batch, ArrivalMode::Interleaved { quantum: 16 }] {
            let mut scenario = base.clone();
            scenario.arrival = arrival;
            let runner = ScenarioRunner::new(scenario.clone());
            let mut app = family_factory(family.name(), &scenario)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            let report = runner
                .run(app.as_mut())
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(report.controller, family.name());
            assert_eq!(
                report.granted + report.rejected,
                report.submitted,
                "{} ({arrival:?}): every ticket must resolve",
                family.name()
            );
            assert!(report.granted > 0, "{}", family.name());
            assert!(report.messages > 0, "{}", family.name());
            report
                .check()
                .unwrap_or_else(|e| panic!("{} ({arrival:?}): {e}", family.name()));
            // The run is reproducible ticket-for-ticket.
            let mut again = family_factory(family.name(), &scenario).unwrap();
            assert_eq!(runner.run(again.as_mut()).unwrap(), report);
        }
    }
}

/// The open-loop cell where a grant removes the origin of a waiting request
/// (star 23, `default_mixed` churn, quantum 24, M 4096, W 128).
fn vanishing_origin_scenario(seed: u64) -> Scenario {
    Scenario {
        name: "star23-open24".into(),
        shape: TreeShape::Star { nodes: 23 },
        churn: ChurnModel::default_mixed(),
        placement: Placement::Uniform,
        arrival: ArrivalMode::Interleaved { quantum: 24 },
        requests: 512,
        m: 4096,
        w: 128,
        seed,
    }
}

/// The one refusal rule under open-loop churn: a request whose origin a
/// grant removed while it waited is refused, not rejected, so the §2.2
/// liveness condition (no reject before `granted ≥ M − W`) holds for
/// `adaptive-distributed`. Answering it with a final reject broke liveness
/// on seed 0 after a few hundred grants. Every ticket issued is answered,
/// by a grant, a reject or a refusal, for the six applications too.
#[test]
fn a_request_whose_origin_vanished_is_refused_and_liveness_holds() {
    use dcn::workload::{family_factory, AppFamily};

    let families = std::iter::once("adaptive-distributed").chain(AppFamily::ALL.map(|a| a.name()));
    for seed in 0..4 {
        let scenario = vanishing_origin_scenario(seed);
        let runner = ScenarioRunner::new(scenario.clone());
        for family in families.clone() {
            let mut ctrl = family_factory(family, &scenario).unwrap();
            let report = runner.run(ctrl.as_mut()).unwrap();
            report
                .check()
                .unwrap_or_else(|v| panic!("{family}, seed {seed}: {v}"));
            assert_eq!(
                ctrl.records().len() as u64,
                report.submitted + report.refused,
                "{family}, seed {seed}: every ticket issued is answered"
            );
        }
    }
}

/// The controller's own summary counts a refusal as answered: on the same
/// cells `AdaptiveDistributedController::summary` checks out, before and
/// after its records are taken (a refusal counted as neither grant, reject
/// nor answer would read as `Violation::Unanswered`).
#[test]
fn adaptive_summary_counts_refusals_after_the_records_are_taken() {
    for seed in 0..4 {
        let scenario = vanishing_origin_scenario(seed);
        let runner = ScenarioRunner::new(scenario.clone());
        // Built as `family_factory` builds it, but concrete for `summary`.
        let mut ctrl = AdaptiveDistributedController::new(
            SimConfig::new(seed),
            runner.initial_tree(),
            scenario.m,
            scenario.w,
        )
        .unwrap();
        let report = runner.run(&mut ctrl).unwrap();
        assert!(report.refused > 0, "seed {seed}: no request was refused");
        let before = ctrl.summary();
        before
            .check()
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        ctrl.take_records();
        assert_eq!(ctrl.summary(), before, "seed {seed}");
    }
}

#[test]
fn baselines_comparison_captures_the_papers_qualitative_claims() {
    // Two claims are checked.
    //
    // (1) Dynamic-model generality: the AAPS-style baseline refuses deletions
    //     and internal insertions (visible both through `supports` and as an
    //     error from the raw `decide`), while the paper's controller handles
    //     them.
    let mut aaps =
        AapsController::new(build_tree(TreeShape::Path { nodes: 15 }), 16, 8, 64).unwrap();
    let leaf = aaps
        .tree()
        .nodes()
        .max_by_key(|&v| aaps.tree().depth(v))
        .unwrap();
    assert!(!aaps.supports(RequestKind::RemoveSelf));
    assert!(!aaps.supports(RequestKind::AddInternalAbove(leaf)));
    assert!(aaps.supports(RequestKind::AddLeaf));
    let decide = dcn::controller::SyncController::decide;
    assert!(decide(&mut aaps, leaf, RequestKind::RemoveSelf).is_err());
    assert!(decide(&mut aaps, leaf, RequestKind::AddLeaf)
        .unwrap()
        .is_granted());

    // (2) Shape of the cost: per-request move complexity of the paper's
    //     controller grows like polylog(n) while the trivial controller's
    //     grows linearly in the depth. Measured at two scales on a path with
    //     all requests at the deepest node, the trivial controller's
    //     per-request cost must blow up by (roughly) the scale factor while
    //     the controller's grows far slower. (At small n the controller's
    //     ψ ≈ 4·log²U·U/W constant dominates — that finding is recorded in
    //     EXPERIMENTS.md — so the comparison is about growth, not absolutes.)
    let per_request = |n: usize| -> (f64, f64) {
        // The budget scales with the network (the regime the theorems are
        // about: M = Θ(n)).
        let requests = n;
        let m = requests as u64;
        let w = m / 2;
        let deep = NodeId::from_index(n - 1);

        let mut ours = IteratedController::new(
            build_tree(TreeShape::Path { nodes: n - 1 }),
            m,
            w,
            n + requests + 1,
        )
        .unwrap();
        for _ in 0..requests {
            ours.submit(deep, RequestKind::NonTopological).unwrap();
        }

        let mut trivial = TrivialController::new(build_tree(TreeShape::Path { nodes: n - 1 }), m);
        for _ in 0..requests {
            trivial.submit(deep, RequestKind::NonTopological).unwrap();
        }
        (
            ours.metrics().moves as f64 / requests as f64,
            trivial.moves() as f64 / requests as f64,
        )
    };

    let (ours_small, trivial_small) = per_request(256);
    let (ours_large, trivial_large) = per_request(2048);
    let ours_growth = ours_large / ours_small;
    let trivial_growth = trivial_large / trivial_small;
    assert!(
        trivial_growth > 7.0,
        "trivial per-request cost must scale with the depth (got {trivial_growth:.2})"
    );
    assert!(
        ours_growth < trivial_growth / 2.0,
        "the controller's per-request cost must grow much slower than the trivial one \
         (ours {ours_growth:.2}x vs trivial {trivial_growth:.2}x)"
    );
}

/// `submit` means one thing on every controller: called on a concrete
/// synchronous family, as on `&mut dyn Controller`, it issues a ticket whose
/// answer `records()` holds — on AAPS too, where a change outside its model
/// is a refusal ticket, not an error. On a concrete distributed controller
/// `metrics()` is `Controller::metrics`.
#[test]
fn submit_on_a_concrete_controller_issues_a_ticket() {
    fn answer(records: &[RequestRecord], id: RequestId) -> Outcome {
        records.iter().find(|r| r.id == id).unwrap().outcome
    }
    let tree = || build_tree(TreeShape::Path { nodes: 8 });
    let at = tree().nodes().last().unwrap();

    let mut central = CentralizedController::new(tree(), 16, 4, 64).unwrap();
    let id = central.submit(at, RequestKind::AddLeaf).unwrap();
    assert!(answer(central.records(), id).is_granted());

    let mut trivial = TrivialController::new(tree(), 16);
    let id = trivial.submit(at, RequestKind::RemoveSelf).unwrap();
    assert!(answer(trivial.records(), id).is_granted());

    let mut aaps = AapsController::new(tree(), 16, 8, 64).unwrap();
    let id = aaps.submit(at, RequestKind::RemoveSelf).unwrap();
    assert_eq!(answer(aaps.records(), id), Outcome::Refused);
    let id = aaps.submit(at, RequestKind::AddLeaf).unwrap();
    assert!(answer(aaps.records(), id).is_granted());

    let mut dist = DistributedController::new(SimConfig::new(1), tree(), 16, 4, 64).unwrap();
    let id = dist.submit(at, RequestKind::NonTopological).unwrap();
    dist.run_to_quiescence().unwrap();
    assert!(answer(dist.records(), id).is_granted());
    let m: ControllerMetrics = dist.metrics();
    assert_eq!(m.messages, dist.messages());
    assert_eq!(m.moves, dist.sim().metrics().agent_hops);
}
