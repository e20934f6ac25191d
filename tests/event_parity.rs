//! Property tests for the ticket/event runtime API (seeded case loops — the
//! build environment has no proptest; every failure reproduces from its
//! printed case seed).
//!
//! Three properties must hold for **all six** controller families, and the
//! first and third for the six §5 applications too:
//!
//! 1. **Event/tally parity.** The drained [`ControllerEvent`] stream is not
//!    a parallel truth: its `Granted` / `Rejected` / `Refused` totals equal
//!    the ledger's tally (`granted()`, `rejected()`, `refused()`) exactly,
//!    the §2.2 `summary()` built from that tally has nothing unanswered and
//!    checks clean, and the stream is [`ControllerEvent::push_for_record`]
//!    over the records the same calls would have taken (checked on a twin
//!    run).
//! 2. **Exactly once.** The records taken after every bounded `step` slice,
//!    concatenated, answer each issued ticket exactly once, and a take after
//!    the last answer finds nothing.
//! 3. **Step ≡ run.** Driving execution with `step(budget)` until quiescence
//!    — at budgets 1 and 7, within a bounded number of slices — is
//!    observationally identical to one `run_to_quiescence` call: same records
//!    taken, same counters, same tree, same cost metrics.
//!
//! A fourth holds for every driver, the sharded federation included: **one
//! valve.** `run_to_quiescence` is unbounded `step` slices, and the
//! configured `max_events` caps each simulator slice, so a livelock errs
//! instead of hanging, while slices within the valve never trip it.

use dcn::controller::sharded::ShardedController;
use dcn::controller::{
    run_to_quiescence, Controller, ControllerEvent, RequestId, RequestKind, RequestRecord,
};
use dcn::simnet::SimConfig;
use dcn::tree::DynamicTree;
use dcn::workload::{
    build_tree, family_factory, AppFamily, ChurnGenerator, ChurnModel, ControllerSpec, Family,
    Scenario, TreeShape,
};

const CASES: u64 = 6;

/// Slices one step-until-quiescent loop may take before it counts as stuck.
const MAX_SLICES: u32 = 10_000;

fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::smoke();
    s.name = format!("parity-{seed}").into();
    // Mixed churn includes deletions and internal insertions, which the AAPS
    // family refuses — exercising the Refused path.
    s.churn = ChurnModel::default_mixed();
    s.shape = TreeShape::RandomRecursive { nodes: 19, seed };
    s.requests = 40;
    s.m = 24;
    s.w = 8;
    s.seed = seed;
    s
}

/// Submits one seeded batch stream; after each batch, `advance` drives the
/// controller (either one `run_to_quiescence` or a step-until-quiescent
/// loop). Returns the tickets issued.
fn drive(
    ctrl: &mut dyn Controller,
    scenario: &Scenario,
    advance: &mut dyn FnMut(&mut dyn Controller),
) -> Vec<RequestId> {
    let mut churn = ChurnGenerator::new(scenario.churn, scenario.seed.wrapping_add(17));
    let mut tickets = Vec::new();
    while tickets.len() < scenario.requests {
        let want = 8.min(scenario.requests - tickets.len());
        let ops = churn.batch(ctrl.tree(), want);
        if ops.is_empty() {
            break;
        }
        for op in &ops {
            let (at, kind) = op.to_request();
            if let Ok(id) = ctrl.submit(at, kind) {
                tickets.push(id);
            }
        }
        advance(ctrl);
    }
    advance(ctrl);
    tickets
}

fn run_fully(ctrl: &mut dyn Controller) {
    run_to_quiescence(ctrl).unwrap();
}

/// Steps in slices of `budget` events until quiescent, taking the answers
/// after every slice into `taken`; fails after [`MAX_SLICES`] slices.
fn step_and_take(
    budget: u64,
    taken: &mut Vec<RequestRecord>,
) -> impl FnMut(&mut dyn Controller) + '_ {
    move |ctrl| {
        for _ in 0..MAX_SLICES {
            let quiescent = ctrl.step(budget).unwrap().quiescent;
            taken.extend(ctrl.take_records());
            if quiescent {
                return;
            }
        }
        panic!(
            "{}: not quiescent after {MAX_SLICES} slices of {budget} events",
            ctrl.name()
        );
    }
}

fn build(family: Family, scenario: &Scenario) -> Box<dyn Controller> {
    let tree = build_tree(scenario.shape);
    let u_bound = tree.node_count() + scenario.requests + 2;
    ControllerSpec::for_scenario(family, scenario)
        .build(tree, u_bound)
        .unwrap()
}

#[test]
fn event_totals_equal_the_tally_for_all_twelve_families() {
    let families = Family::ALL
        .into_iter()
        .chain(AppFamily::ALL.map(Family::App));
    for case in 0..CASES {
        let scenario = scenario(case);
        for family in families.clone() {
            let mut ctrl = build(family, &scenario);
            let tickets = drive(ctrl.as_mut(), &scenario, &mut run_fully);
            let events = ctrl.drain_events();

            let granted = events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::Granted { .. }))
                .count() as u64;
            let rejected = events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::Rejected { .. }))
                .count() as u64;
            let refused = events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::Refused { .. }))
                .count() as u64;
            let answers = events.iter().filter(|e| e.is_answer()).count();

            assert_eq!(
                granted,
                ctrl.granted(),
                "case {case} {}: granted events vs tally",
                family.name()
            );
            assert_eq!(
                rejected,
                ctrl.rejected(),
                "case {case} {}: rejected events vs tally",
                family.name()
            );
            assert_eq!(
                refused,
                ctrl.refused(),
                "case {case} {}: refused events vs tally",
                family.name()
            );
            // Draining took the records; the tally keeps every answer.
            let summary = ctrl.summary();
            assert_eq!(summary.unanswered, 0, "case {case} {}", family.name());
            if let Err(v) = summary.check() {
                panic!("case {case} {}: {v}", family.name());
            }
            assert_eq!(
                answers,
                tickets.len(),
                "case {case} {}: every ticket resolves to exactly one answer",
                family.name()
            );
            // An application refuses a waiting request whose origin
            // vanished under mixed churn; the tally above is its check.
            if family == Family::Aaps {
                assert!(
                    refused > 0,
                    "case {case}: mixed churn must exercise the AAPS refusal path"
                );
            } else if !matches!(family, Family::App(_)) {
                assert_eq!(refused, 0, "case {case} {}", family.name());
            }
            // Draining took the answers, and the events are exactly those
            // of the records a twin run's same calls take.
            assert!(ctrl.records().is_empty(), "case {case} {}", family.name());
            let mut twin = build(family, &scenario);
            drive(twin.as_mut(), &scenario, &mut run_fully);
            let mut derived = Vec::new();
            for record in &twin.take_records() {
                ControllerEvent::push_for_record(record, &mut derived);
            }
            assert_eq!(
                events,
                derived,
                "case {case} {}: events are derived from records",
                family.name()
            );
        }
    }
}

#[test]
fn every_ticket_is_taken_exactly_once_for_all_six_families() {
    for case in 0..CASES {
        let scenario = scenario(2_000 + case);
        for family in Family::ALL {
            let mut ctrl = build(family, &scenario);
            let mut taken = Vec::new();
            let tickets = drive(ctrl.as_mut(), &scenario, &mut step_and_take(7, &mut taken));
            let mut answered: Vec<RequestId> = taken.iter().map(|r| r.id).collect();
            answered.sort_unstable();
            assert_eq!(
                answered,
                tickets,
                "case {case} {}: each issued ticket taken exactly once",
                family.name()
            );
            assert!(
                ctrl.take_records().is_empty(),
                "case {case} {}: a second take is empty",
                family.name()
            );
            assert!(ctrl.records().is_empty(), "case {case} {}", family.name());
        }
    }
}

#[test]
fn stepping_until_quiescent_is_observationally_identical_to_running() {
    let names = Family::ALL
        .map(|f| f.name())
        .into_iter()
        .chain(AppFamily::ALL.map(|a| a.name()));
    for name in names {
        for case in 0..CASES {
            let scenario = scenario(1_000 + case);
            let mut ran = family_factory(name, &scenario).unwrap();
            let ran_tickets = drive(ran.as_mut(), &scenario, &mut run_fully);
            let ran_records = ran.take_records();
            for budget in [1, 7] {
                let mut stepped = family_factory(name, &scenario).unwrap();
                let mut stepped_records = Vec::new();
                let stepped_tickets = drive(
                    stepped.as_mut(),
                    &scenario,
                    &mut step_and_take(budget, &mut stepped_records),
                );
                let at = format!("case {case} {name} budget {budget}");
                assert_eq!(
                    ran_tickets, stepped_tickets,
                    "{at}: identical submission streams"
                );
                assert_eq!(
                    ran_records, stepped_records,
                    "{at}: identical records taken"
                );
                assert_eq!(ran.granted(), stepped.granted(), "{at}");
                assert_eq!(ran.rejected(), stepped.rejected(), "{at}");
                // Ancestry labeling charges its labeling per slice, so its
                // cost still depends on the slicing (ROADMAP item 13).
                if name != AppFamily::AncestryLabeling.name() {
                    assert_eq!(
                        ran.metrics(),
                        stepped.metrics(),
                        "{at}: identical cost metrics"
                    );
                }
                assert_eq!(
                    ran.tree().node_count(),
                    stepped.tree().node_count(),
                    "{at}: identical final trees"
                );
            }
        }
    }
}

/// Every family on a 30-node path under a valve of 5 events, plus a 4-shard
/// federation; `true` for those that simulate (and so can trip it).
fn valved_controllers() -> Vec<(String, Box<dyn Controller>, bool)> {
    let tree = || DynamicTree::with_initial_path(29);
    let sim = SimConfig::new(3).with_max_events(5);
    let u_bound = 30 + 6 + 2;
    let families = Family::ALL
        .into_iter()
        .chain(AppFamily::ALL.map(Family::App));
    let mut all: Vec<_> = families
        .map(|family| {
            let spec = ControllerSpec {
                family,
                m: 16,
                w: 4,
                sim,
            };
            let simulates = !matches!(
                family,
                Family::Centralized | Family::Iterated | Family::Trivial | Family::Aaps
            );
            let ctrl = spec.build(tree(), u_bound).unwrap();
            (family.name().to_string(), ctrl, simulates)
        })
        .collect();
    let sharded = ShardedController::new(sim, tree(), 16, 4, u_bound, 4).unwrap();
    all.push(("sharded:k4".to_string(), Box::new(sharded), true));
    all
}

/// Six requests from the path's deepest nodes: every agent climbs far past
/// five events.
fn submit_deep(ctrl: &mut dyn Controller) {
    assert_eq!(ctrl.tree().node_count(), 30);
    let mut nodes: Vec<_> = ctrl.tree().nodes().collect();
    nodes.sort_by_key(|&n| std::cmp::Reverse(ctrl.tree().depth(n)));
    for &at in &nodes[..6] {
        ctrl.submit(at, RequestKind::NonTopological).unwrap();
    }
}

#[test]
fn one_max_events_valve_caps_every_slice_of_every_driver() {
    for (name, mut ctrl, simulates) in valved_controllers() {
        submit_deep(ctrl.as_mut());
        let ran = run_to_quiescence(ctrl.as_mut());
        assert_eq!(ran.is_err(), simulates, "{name}: {ran:?}");
    }
    // Slices within the valve never trip it: stepping one event at a time
    // answers every ticket.
    for (name, mut ctrl, _) in valved_controllers() {
        submit_deep(ctrl.as_mut());
        let mut slices = 0;
        while !ctrl.step(1).unwrap().quiescent {
            slices += 1;
            assert!(slices < MAX_SLICES, "{name}: not quiescent");
        }
        let summary = ctrl.summary();
        assert_eq!(summary.unanswered, 0, "{name}");
        assert_eq!(ctrl.granted() + ctrl.rejected(), 6, "{name}");
    }
}
