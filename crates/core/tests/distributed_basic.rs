//! Integration tests for the distributed controller (§4) on the asynchronous
//! network simulator.

use dcn_controller::distributed::{AdaptiveDistributedController, DistributedController};
use dcn_controller::{Controller, Outcome, PermitInterval, RequestKind, RequestRecord};
use dcn_simnet::{DelayModel, SimConfig};
use dcn_tree::{DynamicTree, NodeId};

fn cfg(seed: u64) -> SimConfig {
    SimConfig::new(seed).with_delay(DelayModel::Uniform { min: 1, max: 9 })
}

/// Submits `batch`, runs to quiescence and returns this batch's records.
fn submit_and_run(
    ctrl: &mut AdaptiveDistributedController,
    batch: &[(NodeId, RequestKind)],
) -> Vec<RequestRecord> {
    let before = ctrl.records().len();
    for &(at, kind) in batch {
        ctrl.submit(at, kind).unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    ctrl.records()[before..].to_vec()
}

#[test]
fn single_request_far_from_the_root_is_granted() {
    let tree = DynamicTree::with_initial_path(40);
    let deep = NodeId::from_index(40);
    let mut ctrl = DistributedController::new(cfg(1), tree, 10, 5, 128).unwrap();
    let id = ctrl.submit(deep, RequestKind::NonTopological).unwrap();
    ctrl.run_to_quiescence().unwrap();
    assert!(matches!(
        ctrl.records(),
        [r] if r.id == id && matches!(r.outcome, Outcome::Granted { .. })
    ));
    assert_eq!(ctrl.granted(), 1);
    // The agent climbed to the root locking and came back down unlocking:
    // exactly 2 * depth hops, and nothing else sends a message here.
    assert_eq!(ctrl.messages(), 2 * 40);
    // All locks are released at quiescence.
    for node in ctrl.tree().nodes().collect::<Vec<_>>() {
        assert!(!ctrl.sim().is_locked(node));
    }
}

#[test]
fn concurrent_requests_from_all_leaves_are_all_answered() {
    let tree = DynamicTree::with_initial_star(40);
    let mut ctrl = DistributedController::new(cfg(2), tree, 30, 10, 256).unwrap();
    let leaves: Vec<NodeId> = ctrl
        .tree()
        .nodes()
        .filter(|&n| n != ctrl.tree().root())
        .collect();
    for &leaf in &leaves {
        ctrl.submit(leaf, RequestKind::NonTopological).unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    let summary = ctrl.summary();
    assert_eq!(summary.unanswered, 0);
    summary.check().unwrap();
    assert!(
        ctrl.granted() >= 30 - 10,
        "liveness: granted {}",
        ctrl.granted()
    );
    assert!(ctrl.granted() <= 30, "safety: granted {}", ctrl.granted());
    assert!(
        ctrl.rejected() > 0,
        "40 requests vs budget 30 must reject some"
    );
}

#[test]
fn topological_changes_are_applied_gracefully_during_the_run() {
    let tree = DynamicTree::with_initial_path(12);
    let mut ctrl = DistributedController::new(cfg(3), tree, 40, 10, 128).unwrap();
    let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
    // Grow a few leaves, split an edge, and delete a middle node concurrently.
    for &n in nodes.iter().take(6) {
        ctrl.submit(n, RequestKind::AddLeaf).unwrap();
    }
    let mid = nodes[6];
    ctrl.submit(mid, RequestKind::RemoveSelf).unwrap();
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(ctrl.summary().unanswered, 0);
    assert!(!ctrl.tree().contains(mid));
    assert!(ctrl.tree().node_count() >= 12 + 6 - 1);
    assert!(ctrl.tree().check_invariants().is_ok());
    assert!(ctrl.sim().metrics().topology_changes_applied >= 7);
}

#[test]
fn safety_and_liveness_hold_under_async_schedule_sweep() {
    for seed in 0..8u64 {
        let tree = DynamicTree::with_initial_star(25);
        let (m, w) = (12, 4);
        let mut ctrl = DistributedController::new(cfg(seed), tree, m, w, 128).unwrap();
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        for i in 0..30usize {
            ctrl.submit(nodes[i % nodes.len()], RequestKind::NonTopological)
                .unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        let s = ctrl.summary();
        assert_eq!(s.unanswered, 0, "seed {seed}");
        s.check().unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        assert!(ctrl.rejected() > 0, "seed {seed}: overload must reject");
    }
}

#[test]
fn distributed_message_complexity_tracks_the_centralized_move_shape() {
    // The distributed controller's messages should be within a constant factor
    // of the centralized controller's moves on the same workload (Lemma 4.5
    // links the two; the agent walks at most twice the distance the permits
    // travel — up to the filler node and back down).
    let n = 128usize;
    let make_tree = || DynamicTree::with_initial_path(n - 1);
    let m = 64;
    let w = 16;

    let mut central =
        dcn_controller::centralized::CentralizedController::new(make_tree(), m, w, 4 * n).unwrap();
    let mut distributed = DistributedController::new(cfg(11), make_tree(), m, w, 4 * n).unwrap();

    let targets: Vec<usize> = (0..m as usize).map(|i| (i * 29) % n).collect();
    for &d in &targets {
        let at = central
            .tree()
            .nodes()
            .find(|&x| central.tree().depth(x) == d)
            .unwrap();
        central.submit(at, RequestKind::NonTopological).unwrap();
    }
    for &d in &targets {
        let at = distributed
            .tree()
            .nodes()
            .find(|&x| distributed.tree().depth(x) == d)
            .unwrap();
        distributed.submit(at, RequestKind::NonTopological).unwrap();
    }
    distributed.run_to_quiescence().unwrap();

    let moves = central.moves().max(1);
    let msgs = distributed.messages();
    assert!(
        msgs <= 20 * moves + 20 * n as u64,
        "distributed messages {msgs} are wildly out of line with centralized moves {moves}"
    );
}

#[test]
fn interval_mode_grants_unique_serials() {
    let tree = DynamicTree::with_initial_star(20);
    let m = 10;
    let mut ctrl = DistributedController::with_interval(
        cfg(5),
        tree,
        m,
        4,
        64,
        Some(PermitInterval::new(1, m)),
    )
    .unwrap();
    let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
    for i in 0..m as usize {
        ctrl.submit(nodes[i % nodes.len()], RequestKind::NonTopological)
            .unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    let mut serials: Vec<u64> = ctrl
        .records()
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Granted { serial, .. } => serial,
            Outcome::Rejected | Outcome::Refused => None,
        })
        .collect();
    let granted = serials.len();
    serials.sort_unstable();
    serials.dedup();
    assert_eq!(serials.len(), granted, "serials must be unique");
    assert!(serials.iter().all(|&s| (1..=m).contains(&s)));
}

#[test]
fn rejected_requests_see_reject_packages_spread_by_the_wave() {
    let tree = DynamicTree::with_initial_star(10);
    let mut ctrl = DistributedController::new(cfg(6), tree, 3, 1, 64).unwrap();
    let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
    for i in 0..20usize {
        ctrl.submit(nodes[i % nodes.len()], RequestKind::NonTopological)
            .unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    assert!(ctrl.rejected() > 0);
    // After the wave, every node should hold a reject package.
    let with_reject = ctrl
        .tree()
        .nodes()
        .filter(|&n| ctrl.whiteboard(n).is_some_and(|wb| wb.store.has_reject()))
        .count();
    assert_eq!(with_reject, ctrl.tree().node_count());
    // A later request is rejected locally, costing no extra permits.
    let id = ctrl.submit(nodes[0], RequestKind::NonTopological).unwrap();
    ctrl.run_to_quiescence().unwrap();
    let answer = ctrl.records().last().unwrap();
    assert_eq!((answer.id, answer.outcome), (id, Outcome::Rejected));
}

#[test]
fn adaptive_distributed_controller_handles_growth_without_a_bound() {
    let tree = DynamicTree::with_initial_star(4);
    let mut ctrl = AdaptiveDistributedController::new(cfg(7), tree, 300, 60).unwrap();
    let mut granted = 0u64;
    for round in 0..12 {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let batch: Vec<(NodeId, RequestKind)> = (0..20)
            .map(|i| (nodes[(i * 3 + round) % nodes.len()], RequestKind::AddLeaf))
            .collect();
        let records = submit_and_run(&mut ctrl, &batch);
        granted += records.iter().filter(|r| r.outcome.is_granted()).count() as u64;
    }
    assert_eq!(granted, 240, "all requests fit the budget of 300");
    assert!(ctrl.epochs() > 1, "the network grew, epochs must refresh");
    assert!(ctrl.tree().node_count() > 200);
    ctrl.summary().check().unwrap();
}

#[test]
fn adaptive_distributed_controller_rejects_only_when_budget_spent() {
    let tree = DynamicTree::with_initial_star(6);
    let (m, w) = (50u64, 10u64);
    let mut ctrl = AdaptiveDistributedController::new(cfg(8), tree, m, w).unwrap();
    let mut granted = 0u64;
    let mut rejected = 0u64;
    for round in 0..10 {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let batch: Vec<(NodeId, RequestKind)> = (0..10)
            .map(|i| {
                let at = nodes[(i + round) % nodes.len()];
                (at, RequestKind::AddLeaf)
            })
            .collect();
        let records = submit_and_run(&mut ctrl, &batch);
        for r in &records {
            match r.outcome {
                Outcome::Granted { .. } => granted += 1,
                Outcome::Rejected | Outcome::Refused => rejected += 1,
            }
        }
    }
    assert!(granted <= m);
    assert!(rejected > 0);
    assert!(granted >= m - w, "liveness: granted {granted}");
    ctrl.summary().check().unwrap();
}

/// Regression: `metrics()` used to read `moves` and `peak_node_memory_bits`
/// from the live inner controller only, so both fell back towards zero at
/// every recycle / epoch refresh while `messages` kept accumulating.
#[test]
fn adaptive_distributed_metrics_accumulate_across_rebuilds() {
    let tree = DynamicTree::with_initial_path(8);
    let mut ctrl = AdaptiveDistributedController::new(SimConfig::new(3), tree, 400, 4).unwrap();
    let mut last = ctrl.metrics();
    let mut rebuilds_straddled = 0;
    for round in 0..12usize {
        let rebuilds_before = ctrl.epochs() + ctrl.recycles();
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        for i in 0..40usize {
            let at = nodes[(i * 7 + round) % nodes.len()];
            let kind = if round % 5 == 0 && i < 6 {
                RequestKind::AddLeaf
            } else {
                RequestKind::NonTopological
            };
            ctrl.submit(at, kind).unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        let now = ctrl.metrics();
        assert!(
            now.moves >= last.moves,
            "round {round}: {last:?} -> {now:?}"
        );
        assert!(
            now.peak_node_memory_bits >= last.peak_node_memory_bits,
            "round {round}: {last:?} -> {now:?}"
        );
        assert!(now.messages >= last.messages);
        last = now;
        if ctrl.epochs() + ctrl.recycles() > rebuilds_before {
            rebuilds_straddled += 1;
        }
    }
    assert!(ctrl.recycles() >= 1 && ctrl.epochs() >= 2);
    assert!(rebuilds_straddled >= 2, "no run straddled a rebuild");
}

/// The adaptive family honours the step budget like every asynchronous
/// family: a two-event slice leaves the deep request's agent climbing, and
/// stepping on to quiescence keeps the records one `run_to_quiescence` keeps.
#[test]
fn adaptive_distributed_steps_in_bounded_slices() {
    let build = || {
        let tree = DynamicTree::with_initial_path(40);
        AdaptiveDistributedController::new(cfg(9), tree, 50, 10).unwrap()
    };
    let deep = NodeId::from_index(40);
    let mut stepped = build();
    stepped.submit(deep, RequestKind::NonTopological).unwrap();
    let first = stepped.step(2).unwrap();
    assert_eq!((first.processed, first.quiescent), (2, false));
    assert!(stepped.records().is_empty());
    while !stepped.step(2).unwrap().quiescent {}

    let mut ran = build();
    ran.submit(deep, RequestKind::NonTopological).unwrap();
    ran.run_to_quiescence().unwrap();
    assert_eq!(stepped.records(), ran.records());
    assert!(stepped.records()[0].outcome.is_granted());
    assert_eq!(stepped.metrics(), ran.metrics());
}
