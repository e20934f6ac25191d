//! Edge-case tests for the distributed controller: degenerate topologies,
//! requests at the root, hot-spot contention and adversarial delay schedules.

use dcn_controller::distributed::DistributedController;
use dcn_controller::{Controller, Outcome, RequestKind};
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
    assert_eq!(ctrl.metrics().agent_hops, 0);
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
    assert!(ctrl.metrics().waits > 0, "the hot spot must cause queueing");
    // At this scale the distance parameter ψ exceeds the depth, so every
    // request degenerates to at most two root round-trips (the agent's climb,
    // bounce and unlocking descent): the per-request cost is bounded by
    // 4·depth, never more.
    let per_request = ctrl.messages() as f64 / 15.0;
    assert!(
        per_request <= 4.0 * 30.0,
        "per-request messages {per_request} must not exceed 4·depth"
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
