//! Property-style tests: random workloads and random asynchronous schedules
//! must never violate the (M, W)-Controller correctness conditions, the
//! domain invariants, permit conservation, or tree consistency.
//!
//! The build environment has no proptest, so each property runs a fixed
//! number of seeded random cases through `dcn-rng`: every failure is
//! reproducible from its printed case seed.

use dcn_controller::centralized::{CentralizedController, IteratedController};
use dcn_controller::distributed::{DistributedController, PackageEvent};
use dcn_controller::domain::DomainAuditor;
use dcn_controller::verify::ExecutionSummary;
use dcn_controller::{Controller, Outcome, RequestKind};
use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_simnet::{AgentId, DelayModel, SimConfig};
use dcn_tree::{DynamicTree, NodeId, TopologyEvent};
use std::collections::BTreeSet;

const CASES: u64 = 48;

/// An abstract request; the node index is interpreted modulo the current node
/// set so any sequence applies to any intermediate tree.
#[derive(Clone, Copy, Debug)]
enum Req {
    AddLeaf(usize),
    AddInternal(usize),
    Remove(usize),
    Plain(usize),
}

/// Draws one request with the weights 3 : 2 : 2 : 3 (mirroring the old
/// proptest strategy).
fn random_req(rng: &mut DetRng) -> Req {
    let k = rng.gen_range(0usize..256);
    match rng.gen_range(0u32..10) {
        0..=2 => Req::AddLeaf(k),
        3..=4 => Req::AddInternal(k),
        5..=6 => Req::Remove(k),
        _ => Req::Plain(k),
    }
}

fn random_reqs(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<Req> {
    let len = rng.gen_range(lo..=hi);
    (0..len).map(|_| random_req(rng)).collect()
}

fn pick(tree: &DynamicTree, k: usize) -> NodeId {
    let nodes: Vec<NodeId> = tree.nodes().collect();
    nodes[k % nodes.len()]
}

/// Translates an abstract request into a concrete (origin, kind) pair against
/// the current tree, or `None` when it does not apply (e.g. removing the
/// root).
fn concretize(tree: &DynamicTree, req: Req) -> Option<(NodeId, RequestKind)> {
    match req {
        Req::AddLeaf(k) => Some((pick(tree, k), RequestKind::AddLeaf)),
        Req::Plain(k) => Some((pick(tree, k), RequestKind::NonTopological)),
        Req::AddInternal(k) => {
            let child = pick(tree, k);
            let parent = tree.parent(child)?;
            Some((parent, RequestKind::AddInternalAbove(child)))
        }
        Req::Remove(k) => {
            let node = pick(tree, k);
            if node == tree.root() {
                return None;
            }
            Some((node, RequestKind::RemoveSelf))
        }
    }
}

/// The centralized base controller: safety, liveness, permit conservation
/// and tree consistency under arbitrary mixed workloads.
#[test]
fn centralized_controller_is_correct_under_random_workloads() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case);
        let reqs = random_reqs(&mut rng, 1, 120);
        let m = rng.gen_range(1u64..60);
        let w_frac = rng.gen_range(1u64..100);
        let n0 = rng.gen_range(1usize..40);
        let w = (m * w_frac / 100).clamp(1, m);
        let u_bound = n0 + reqs.len() + 1;
        let tree = DynamicTree::with_initial_star(n0);
        let mut ctrl = CentralizedController::new(tree, m, w, u_bound)
            .unwrap()
            .with_auditor();
        let mut granted = 0u64;
        let mut rejected = 0u64;
        for req in &reqs {
            let Some((at, kind)) = concretize(ctrl.tree(), *req) else {
                continue;
            };
            match ctrl.submit(at, kind).unwrap() {
                Outcome::Granted { .. } => granted += 1,
                Outcome::Rejected => rejected += 1,
                Outcome::Refused => unreachable!("core families never refuse"),
            }
            // Permit conservation: granted + uncommitted == M at all times.
            assert_eq!(
                ctrl.granted() + ctrl.uncommitted_permits(),
                m,
                "case {case}: permit conservation"
            );
            // Structural and analysis invariants.
            assert!(ctrl.tree().check_invariants().is_ok(), "case {case}");
            ctrl.check_domain_invariants()
                .unwrap_or_else(|e| panic!("case {case}: domain invariant violated: {e}"));
        }
        ExecutionSummary {
            m,
            w,
            granted,
            rejected,
            unanswered: 0,
        }
        .check()
        .unwrap_or_else(|v| panic!("case {case}: {v}"));
    }
}

/// The iterated controller supports W = 0 and always grants exactly
/// min(M, answered-before-exhaustion) permits with no waste.
#[test]
fn iterated_controller_with_zero_waste_grants_exactly_m() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(10_000 + case);
        let reqs = random_reqs(&mut rng, 30, 150);
        let m = rng.gen_range(1u64..25);
        let n0 = rng.gen_range(1usize..30);
        let u_bound = n0 + reqs.len() + 1;
        let tree = DynamicTree::with_initial_star(n0);
        let mut ctrl = IteratedController::new(tree, m, 0, u_bound).unwrap();
        let mut granted = 0u64;
        let mut rejected = 0u64;
        for req in &reqs {
            let Some((at, kind)) = concretize(ctrl.tree(), *req) else {
                continue;
            };
            let ticket = ctrl.submit(at, kind).unwrap();
            let answer = ctrl.records().last().unwrap();
            assert_eq!(answer.id, ticket, "case {case}: answered inside submit");
            match answer.outcome {
                Outcome::Granted { .. } => granted += 1,
                Outcome::Rejected => rejected += 1,
                Outcome::Refused => unreachable!("core families never refuse"),
            }
        }
        assert!(granted <= m, "case {case}");
        if rejected > 0 {
            assert_eq!(
                granted, m,
                "case {case}: W = 0 requires zero waste once a reject is issued"
            );
        }
        assert!(ctrl.tree().check_invariants().is_ok(), "case {case}");
    }
}

/// The distributed controller under random workloads, random delay
/// schedules and concurrent submission: every request answered, safety
/// and liveness hold, all locks released, tree consistent.
#[test]
fn distributed_controller_is_correct_under_random_schedules() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(20_000 + case);
        let reqs = random_reqs(&mut rng, 1, 60);
        let m = rng.gen_range(1u64..40);
        let w_frac = rng.gen_range(1u64..100);
        let n0 = rng.gen_range(1usize..25);
        let seed = rng.next_u64();
        let max_delay = rng.gen_range(1u64..16);
        let w = (m * w_frac / 100).clamp(1, m);
        let u_bound = n0 + reqs.len() + 2;
        let tree = DynamicTree::with_initial_star(n0);
        let config = SimConfig::new(seed).with_delay(DelayModel::Uniform {
            min: 1,
            max: max_delay,
        });
        let mut ctrl = DistributedController::new(config, tree, m, w, u_bound).unwrap();
        let mut submitted = 0u64;
        for req in &reqs {
            // Concretize against the *initial* tree (all requests are
            // submitted up-front and race with each other).
            let Some((at, kind)) = concretize(ctrl.tree(), *req) else {
                continue;
            };
            ctrl.submit(at, kind).unwrap();
            submitted += 1;
        }
        ctrl.run_to_quiescence().unwrap();
        let answered = ctrl.records().len() as u64;
        assert_eq!(
            answered, submitted,
            "case {case}: every request must be answered"
        );
        ctrl.summary()
            .check()
            .unwrap_or_else(|v| panic!("case {case}: {v}"));
        assert!(ctrl.tree().check_invariants().is_ok(), "case {case}");
        for node in ctrl.tree().nodes().collect::<Vec<_>>() {
            assert!(
                !ctrl.sim().is_locked(node),
                "case {case}: node {node} left locked"
            );
        }
        // Permit conservation in the distributed data structure.
        assert_eq!(
            ctrl.granted() + ctrl.uncommitted_permits(),
            m,
            "case {case}: permit conservation"
        );
    }
}

/// A random initial tree: a shallow star (budgets run out, rejects and the
/// reject wave are exercised) or a deep broom — a long path with side chains
/// hanging off it — on which requests draw packages of level ≥ 1 and leave
/// deposits behind, so agents meet at deposit points and domains exist.
fn random_tree(rng: &mut DetRng) -> DynamicTree {
    if rng.gen_range(0u32..3) == 0 {
        return DynamicTree::with_initial_star(rng.gen_range(1usize..25));
    }
    let mut tree = DynamicTree::with_initial_path(rng.gen_range(90usize..130));
    for _ in 0..rng.gen_range(0usize..4) {
        let spine: Vec<NodeId> = tree.nodes().collect();
        let mut at = spine[rng.gen_range(0..spine.len())];
        for _ in 0..rng.gen_range(1usize..25) {
            at = tree.add_leaf(at).unwrap();
        }
    }
    tree
}

fn random_delay(rng: &mut DetRng) -> DelayModel {
    match rng.gen_range(0u32..3) {
        0 => DelayModel::Constant(rng.gen_range(1u64..4)),
        1 => DelayModel::Uniform {
            min: 1,
            max: rng.gen_range(1u64..16),
        },
        _ => DelayModel::Bimodal {
            fast: 1,
            slow: rng.gen_range(20u64..200),
            slow_percent: rng.gen_range(1u8..40),
        },
    }
}

/// The lock discipline behind the release-on-descent agent program, on random
/// trees, request mixes, arrival times and delay models, observed from
/// outside one simulator event at a time:
///
/// * two-phase locking — no agent acquires a lock after it has released one;
/// * the §3.2 domain invariants hold after every event, with the auditor fed
///   from the protocol's package log (a deposit's path is read off the tree
///   in the same event, while the agent still holds everything below it);
/// * at quiescence every request is answered, safety and liveness hold, no
///   node is locked, permits are conserved, the tree is consistent and every
///   granted topological change has been applied (or found its target gone).
#[test]
fn distributed_agents_lock_in_two_phases_and_keep_the_domain_invariants() {
    let mut deposits = 0usize;
    let mut overlapped_acquisitions = 0usize;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(30_000 + case);
        // The auditor hears of every edge split from the tree's change log.
        let mut tree = random_tree(&mut rng);
        tree.record_changes();
        let n0 = tree.node_count();
        let reqs = random_reqs(&mut rng, 1, 60);
        // W around U keeps ψ small enough for deposits on the deep trees;
        // M barely above W makes the shallow cases run dry.
        let u_bound = n0 + reqs.len() + 2;
        let w = rng.gen_range(1u64..=2 * u_bound as u64);
        let m = w + rng.gen_range(0u64..40);
        let spread = [0u64, 0, 50, 400][rng.gen_range(0usize..4)];
        let config = SimConfig::new(rng.next_u64()).with_delay(random_delay(&mut rng));
        let mut ctrl = DistributedController::new(config, tree, m, w, u_bound)
            .unwrap()
            .with_package_log();
        let params = *ctrl.params();
        let mut submitted = 0u64;
        for req in &reqs {
            let Some((at, kind)) = concretize(ctrl.tree(), *req) else {
                continue;
            };
            let delay = rng.gen_range(0..=spread);
            ctrl.submit_after(at, kind, delay).unwrap();
            submitted += 1;
        }

        let mut auditor = DomainAuditor::new();
        let mut replayed = ctrl.tree().change_log().len();
        // Lock owner per node-arena index, as of the previous event.
        let mut owners: Vec<Option<AgentId>> = Vec::new();
        let mut released: BTreeSet<AgentId> = BTreeSet::new();
        let mut quiescent = false;
        while !quiescent {
            quiescent = ctrl.step(1).unwrap().quiescent;
            // Who holds which lock now, against the previous event.
            let mut now = vec![None; ctrl.tree().total_created()];
            for node in ctrl.tree().nodes() {
                now[node.index()] = ctrl.sim().locked_by(node);
            }
            owners.resize(now.len(), None);
            for (before, after) in owners.iter().zip(&now) {
                if let (Some(agent), true) = (before, before != after) {
                    released.insert(*agent);
                }
            }
            let descending = now.iter().flatten().any(|a| released.contains(a));
            for (i, (before, after)) in owners.iter().zip(&now).enumerate() {
                if let (Some(agent), true) = (after, before != after) {
                    assert!(
                        !released.contains(agent),
                        "case {case}: {agent} locked n{i} after releasing a lock"
                    );
                    overlapped_acquisitions += usize::from(descending);
                }
            }
            owners = now;

            // Feed the domain auditor with this event's package traffic and
            // topology changes, then check the three invariants.
            let events = ctrl.take_package_events();
            let changes = ctrl.tree().change_log().len();
            if events.is_empty() && changes == replayed {
                continue;
            }
            for event in events {
                match event {
                    PackageEvent::Deposited {
                        pkg,
                        level,
                        host,
                        origin,
                    } => {
                        let path = ctrl.tree().path_between(origin, host).unwrap();
                        auditor.package_deposited(pkg, level, host, &path, &params);
                        deposits += 1;
                    }
                    PackageEvent::Taken { pkg } => auditor.package_consumed(pkg),
                }
            }
            for &event in &ctrl.tree().change_log().events()[replayed..] {
                if let TopologyEvent::AddInternal { node, below, .. } = event {
                    auditor.on_add_internal(node, below, ctrl.tree());
                }
            }
            replayed = changes;
            let host_of = |pkg: u64| {
                ctrl.sim()
                    .whiteboards()
                    .find(|(_, wb)| wb.store.mobiles().iter().any(|p| p.id == pkg))
                    .map(|(node, _)| node)
            };
            auditor
                .check_invariants(ctrl.tree(), &params, host_of)
                .unwrap_or_else(|e| panic!("case {case}: domain invariant violated: {e}"));
        }

        assert!(
            owners.iter().all(Option::is_none),
            "case {case}: locks held at quiescence"
        );
        assert_eq!(
            ctrl.records().len() as u64,
            submitted,
            "case {case}: every request must be answered"
        );
        ctrl.summary()
            .check()
            .unwrap_or_else(|v| panic!("case {case}: {v}"));
        assert!(ctrl.tree().check_invariants().is_ok(), "case {case}");
        assert_eq!(
            ctrl.granted() + ctrl.uncommitted_permits(),
            m,
            "case {case}: permit conservation"
        );
        // A granted change is applied or its target vanished, nothing in
        // between: none is left waiting once its gate is quiescent.
        let granted_changes = ctrl
            .records()
            .iter()
            .filter(|r| r.outcome.is_granted() && r.kind.is_topological())
            .count() as u64;
        let sim = ctrl.sim().metrics();
        assert_eq!(
            sim.topology_changes_applied + sim.topology_changes_dropped,
            granted_changes,
            "case {case}: a granted change is neither applied nor dropped"
        );
        // …and waiting cost no event: one per activation, one per change.
        assert_eq!(
            sim.events_processed,
            sim.activations + granted_changes,
            "case {case}: the event law"
        );
    }
    // The cases are not vacuous: packages were deposited, and agents took
    // locks while others were in the middle of their shrinking phase.
    assert!(deposits > 0, "no case deposited a package");
    assert!(overlapped_acquisitions > 0, "no case overlapped two agents");
}
