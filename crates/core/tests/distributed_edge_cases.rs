//! Edge-case tests for the distributed controller: degenerate topologies,
//! requests at the root, hot-spot contention and adversarial delay schedules.

use dcn_controller::distributed::DistributedController;
use dcn_controller::{Controller, Outcome, PermitInterval, RequestKind};
use dcn_simnet::{DelayModel, SimConfig};
use dcn_tree::{DynamicTree, NodeId};

#[test]
fn a_single_node_network_can_grow_from_nothing() {
    let mut ctrl =
        DistributedController::new(SimConfig::new(1), DynamicTree::new(), 8, 2, 16).unwrap();
    let root = ctrl.tree().root();
    for _ in 0..4 {
        ctrl.submit(root, RequestKind::AddLeaf).unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(ctrl.granted(), 4);
    assert_eq!(ctrl.tree().node_count(), 5);
    assert!(ctrl.tree().check_invariants().is_ok());
}

#[test]
fn requests_at_the_root_are_served_locally() {
    let tree = DynamicTree::with_initial_star(5);
    let mut ctrl = DistributedController::new(SimConfig::new(2), tree, 4, 2, 32).unwrap();
    let root = ctrl.tree().root();
    ctrl.submit(root, RequestKind::NonTopological).unwrap();
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(ctrl.granted(), 1);
    // No tree edge needs to be crossed for a request at the root.
    assert_eq!(ctrl.sim().metrics().agent_hops, 0);
}

#[test]
fn a_hot_spot_of_requests_at_one_deep_node_serializes_through_its_lock() {
    let tree = DynamicTree::with_initial_path(30);
    let deep = NodeId::from_index(30);
    let mut ctrl = DistributedController::new(SimConfig::new(3), tree, 20, 5, 128).unwrap();
    for _ in 0..15 {
        ctrl.submit(deep, RequestKind::NonTopological).unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(ctrl.granted(), 15);
    assert!(
        ctrl.sim().metrics().waits > 0,
        "the hot spot must cause queueing"
    );
    // At this scale the distance parameter ψ exceeds the depth, so every
    // request degenerates to at most one root round-trip (the agent's
    // locking climb and its unlocking descent): the per-request cost is
    // bounded by 2·depth, never more.
    let per_request = ctrl.messages() as f64 / 15.0;
    assert!(
        per_request <= 2.0 * 30.0,
        "per-request messages {per_request} must not exceed 2·depth"
    );
}

#[test]
fn bimodal_delays_do_not_change_the_outcome_set() {
    let run = |delay: DelayModel| {
        let tree = DynamicTree::with_initial_star(12);
        let config = SimConfig::new(4).with_delay(delay);
        let mut ctrl = DistributedController::new(config, tree, 6, 2, 64).unwrap();
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        for i in 0..10usize {
            ctrl.submit(nodes[i % nodes.len()], RequestKind::NonTopological)
                .unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        (ctrl.granted(), ctrl.rejected())
    };
    let uniform = run(DelayModel::Uniform { min: 1, max: 4 });
    let bimodal = run(DelayModel::Bimodal {
        fast: 1,
        slow: 200,
        slow_percent: 25,
    });
    let constant = run(DelayModel::Constant(3));
    // The specific requests granted may differ, but the counts are forced by
    // safety + liveness: all three schedules grant exactly M = 6.
    assert_eq!(uniform, (6, 4));
    assert_eq!(bimodal, (6, 4));
    assert_eq!(constant, (6, 4));
}

#[test]
fn removing_a_chain_of_internal_nodes_keeps_descendants_reachable() {
    let tree = DynamicTree::with_initial_path(10);
    let mut ctrl = DistributedController::new(SimConfig::new(5), tree, 20, 5, 64).unwrap();
    // Remove nodes at depths 3, 5, 7 (all internal) concurrently.
    for idx in [3u32, 5, 7] {
        ctrl.submit(NodeId::from_index(idx as usize), RequestKind::RemoveSelf)
            .unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(ctrl.granted(), 3);
    assert_eq!(ctrl.tree().node_count(), 8);
    // The deepest node survives and is still connected to the root.
    let deep = NodeId::from_index(10);
    assert!(ctrl.tree().contains(deep));
    assert!(ctrl.tree().is_ancestor(ctrl.tree().root(), deep));
    assert!(ctrl.tree().check_invariants().is_ok());
}

#[test]
fn permits_parked_in_packages_survive_the_deletion_of_their_host() {
    // A deep request leaves packages on the path; deleting package-holding
    // nodes must conserve permits (they move to the parent whiteboard).
    let tree = DynamicTree::with_initial_path(400);
    let deep = NodeId::from_index(400);
    let mut ctrl = DistributedController::new(SimConfig::new(6), tree, 800, 400, 2048).unwrap();
    ctrl.submit(deep, RequestKind::NonTopological).unwrap();
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(ctrl.granted() + ctrl.uncommitted_permits(), 800);

    // Delete thirty nodes spread over the path.
    for i in 1..=30u32 {
        let node = NodeId::from_index((i * 13 % 390) as usize + 5);
        if ctrl.tree().contains(node) {
            let _ = ctrl.submit(node, RequestKind::RemoveSelf);
        }
    }
    ctrl.run_to_quiescence().unwrap();
    assert_eq!(
        ctrl.granted() + ctrl.uncommitted_permits(),
        800,
        "permits are conserved across deletions of package hosts"
    );
    assert!(ctrl.tree().check_invariants().is_ok());
}

#[test]
fn answers_match_between_two_identical_runs() {
    let run = |seed: u64| {
        let tree = DynamicTree::with_initial_star(16);
        let mut ctrl = DistributedController::new(SimConfig::new(seed), tree, 10, 3, 64).unwrap();
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        for i in 0..14usize {
            ctrl.submit(nodes[i % nodes.len()], RequestKind::AddLeaf)
                .unwrap();
        }
        ctrl.run_to_quiescence().unwrap();
        let mut outcomes: Vec<(u64, bool)> = ctrl
            .records()
            .iter()
            .map(|r| (r.id.0, matches!(r.outcome, Outcome::Granted { .. })))
            .collect();
        outcomes.sort();
        (outcomes, ctrl.messages())
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn a_queued_agent_overtakes_the_one_that_released_the_node_on_its_descent() {
    // Locks are released on the way down, so an agent B queued at a deposit
    // point P is served as soon as agent A has passed P — long before A is
    // back at its own origin — and from the very package A left there.
    //
    // U = 256, W = 128 gives ψ = 80: a request at depth 170 (> 2ψ) draws a
    // level-1 package at the root and deposits one half at distance 3ψ/2 =
    // 120, i.e. at depth 50.
    let (m, w) = (130u64, 128u64);
    let mut tree = DynamicTree::with_initial_path(170);
    let a = NodeId::from_index(170);
    let p = NodeId::from_index(50);
    let b = tree.add_leaf(p).unwrap();
    let root = tree.root();
    let config = SimConfig::new(9).with_delay(DelayModel::Constant(1));
    let mut ctrl = DistributedController::with_interval(
        config,
        tree,
        m,
        w,
        256,
        Some(PermitInterval::new(1, m)),
    )
    .unwrap();
    assert_eq!(ctrl.params().psi, 80);

    // A locks P at t = 120, is at the root at t = 170 and back at P at
    // t = 220; B arrives at P at t = 151 and waits in its queue.
    let id_a = ctrl.submit(a, RequestKind::NonTopological).unwrap();
    let id_b = ctrl
        .submit_after(b, RequestKind::NonTopological, 150)
        .unwrap();
    ctrl.run_to_quiescence().unwrap();

    let record = |id| *ctrl.records().iter().find(|r| r.id == id).unwrap();
    let answered_at = |id| record(id).answered_at;
    assert!(record(id_a).outcome.is_granted());
    assert!(record(id_b).outcome.is_granted());
    assert_eq!(answered_at(id_b), 221, "B is served one hop after A left P");
    assert_eq!(answered_at(id_a), 340, "A walks its path exactly twice");
    assert_eq!(ctrl.sim().metrics().waits, 1);
    // B never went to the root: the two permits A drew there served both.
    assert_eq!(ctrl.whiteboard(root).unwrap().storage, m - 2);
    assert_eq!(ctrl.whiteboard(p).unwrap().store.mobile_count(), 0);
    assert_eq!(ctrl.messages(), 2 * 170 + 2);

    // Exhaust the budget from next to the root: safety, liveness at the
    // first reject, and every serial handed out exactly once.
    let shallow = NodeId::from_index(1);
    for _ in 0..(m + 10) {
        ctrl.submit(shallow, RequestKind::NonTopological).unwrap();
    }
    ctrl.run_to_quiescence().unwrap();
    let summary = ctrl.summary();
    assert_eq!(summary.unanswered, 0);
    summary.check().unwrap();
    assert!(ctrl.rejected() > 0);
    let mut serials: Vec<u64> = ctrl
        .records()
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Granted { serial, .. } => serial,
            _ => None,
        })
        .collect();
    assert_eq!(serials.len() as u64, ctrl.granted());
    serials.sort_unstable();
    serials.dedup();
    assert_eq!(serials.len() as u64, ctrl.granted(), "serials are unique");
    assert!(serials.iter().all(|s| (1..=m).contains(s)));
    for node in ctrl.tree().nodes().collect::<Vec<_>>() {
        assert!(!ctrl.sim().is_locked(node));
    }
}
