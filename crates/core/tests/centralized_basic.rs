//! Integration tests for the centralized controllers (§3).

use dcn_controller::centralized::{
    AdaptiveController, CentralizedController, IteratedController, RefreshPolicy,
};
use dcn_controller::verify::ExecutionSummary;
use dcn_controller::{ControllerError, Outcome, PermitInterval, RequestKind};
use dcn_tree::{DynamicTree, NodeId};

fn deepest(tree: &DynamicTree) -> NodeId {
    tree.nodes()
        .max_by_key(|&n| tree.depth(n))
        .expect("tree is non-empty")
}

#[test]
fn grants_until_budget_then_rejects_and_liveness_holds() {
    let tree = DynamicTree::with_initial_star(31);
    let m = 10;
    let w = 4;
    let mut ctrl = CentralizedController::new(tree, m, w, 128).unwrap();
    let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
    let mut granted = 0;
    let mut rejected = 0;
    for i in 0..40 {
        let at = nodes[i % nodes.len()];
        match ctrl.submit(at, RequestKind::NonTopological).unwrap() {
            Outcome::Granted { .. } => granted += 1,
            Outcome::Rejected => rejected += 1,
            Outcome::Refused => unreachable!("core families never refuse"),
        }
    }
    assert_eq!(granted, ctrl.granted());
    assert_eq!(rejected, ctrl.rejected());
    assert!(rejected > 0, "the budget must run out over 40 requests");
    ExecutionSummary {
        m,
        w,
        granted,
        rejected,
        unanswered: 0,
    }
    .check()
    .unwrap();
}

#[test]
fn requests_near_the_root_are_cheap_and_deep_requests_cost_more() {
    let tree = DynamicTree::with_initial_path(200);
    let mut ctrl = CentralizedController::new(tree, 100, 50, 512).unwrap();
    let root = ctrl.tree().root();
    ctrl.submit(root, RequestKind::NonTopological).unwrap();
    let cheap = ctrl.moves();
    let deep = deepest(ctrl.tree());
    ctrl.submit(deep, RequestKind::NonTopological).unwrap();
    let expensive = ctrl.moves() - cheap;
    assert!(
        expensive > cheap,
        "deep requests should move permits farther"
    );
}

#[test]
fn topological_requests_change_the_tree() {
    let tree = DynamicTree::with_initial_path(5);
    let mut ctrl = CentralizedController::new(tree, 50, 10, 64).unwrap();
    let leaf = deepest(ctrl.tree());

    // Add a leaf below the deepest node.
    let out = ctrl.submit(leaf, RequestKind::AddLeaf).unwrap();
    let new_leaf = match out {
        Outcome::Granted { new_node, .. } => new_node.unwrap(),
        Outcome::Rejected | Outcome::Refused => panic!("request should be granted"),
    };
    assert_eq!(ctrl.tree().parent(new_leaf), Some(leaf));

    // Split the edge above the new leaf.
    let out = ctrl
        .submit(leaf, RequestKind::AddInternalAbove(new_leaf))
        .unwrap();
    let mid = match out {
        Outcome::Granted { new_node, .. } => new_node.unwrap(),
        Outcome::Rejected | Outcome::Refused => panic!("request should be granted"),
    };
    assert_eq!(ctrl.tree().parent(new_leaf), Some(mid));

    // Remove the internal node again.
    let out = ctrl.submit(mid, RequestKind::RemoveSelf).unwrap();
    assert!(out.is_granted());
    assert!(!ctrl.tree().contains(mid));
    assert_eq!(ctrl.tree().parent(new_leaf), Some(leaf));
    assert!(ctrl.tree().check_invariants().is_ok());
}

#[test]
fn removing_a_node_moves_its_packages_to_the_parent() {
    // A long path so that package deposits land on intermediate nodes.
    let tree = DynamicTree::with_initial_path(300);
    let mut ctrl = CentralizedController::new(tree, 1000, 500, 1024).unwrap();
    let deep = deepest(ctrl.tree());
    ctrl.submit(deep, RequestKind::NonTopological).unwrap();
    let parked_before = ctrl.permits_in_packages();
    assert!(
        parked_before > 0,
        "the distribution should leave packages behind"
    );
    // Delete a node in the middle of the path; no permits may be lost.
    let mid = ctrl
        .tree()
        .nodes()
        .find(|&n| ctrl.tree().depth(n) == 150)
        .unwrap();
    ctrl.submit(mid, RequestKind::RemoveSelf).unwrap();
    assert_eq!(
        ctrl.uncommitted_permits() + ctrl.granted(),
        1000,
        "permits are conserved across deletions"
    );
}

#[test]
fn validation_errors_are_reported() {
    let tree = DynamicTree::with_initial_path(3);
    let mut ctrl = CentralizedController::new(tree, 10, 5, 32).unwrap();
    let root = ctrl.tree().root();
    let ghost = NodeId::from_index(99);
    assert!(matches!(
        ctrl.submit(ghost, RequestKind::NonTopological),
        Err(ControllerError::UnknownNode(_))
    ));
    assert!(matches!(
        ctrl.submit(root, RequestKind::RemoveSelf),
        Err(ControllerError::CannotRemoveRoot)
    ));
    let leaf = deepest(ctrl.tree());
    assert!(matches!(
        ctrl.submit(root, RequestKind::AddInternalAbove(leaf)),
        Err(ControllerError::NotParentOf { .. })
    ));
    assert!(matches!(
        CentralizedController::new(DynamicTree::with_initial_star(10), 5, 0, 32),
        Err(ControllerError::ZeroWasteUnsupported)
    ));
    assert!(matches!(
        CentralizedController::new(DynamicTree::with_initial_star(10), 5, 6, 32),
        Err(ControllerError::WasteExceedsBudget { .. })
    ));
    assert!(matches!(
        CentralizedController::new(DynamicTree::with_initial_star(10), 5, 2, 3),
        Err(ControllerError::BoundTooSmall { .. })
    ));
}

#[test]
fn domain_invariants_hold_during_a_mixed_run() {
    let tree = DynamicTree::with_initial_path(120);
    let mut ctrl = CentralizedController::new(tree, 400, 200, 512)
        .unwrap()
        .with_auditor();
    for i in 0..60usize {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let at = nodes[(i * 7) % nodes.len()];
        let kind = match i % 4 {
            0 => RequestKind::AddLeaf,
            1 => RequestKind::NonTopological,
            2 if at != ctrl.tree().root() => RequestKind::RemoveSelf,
            _ => RequestKind::NonTopological,
        };
        let _ = ctrl.submit(at, kind).unwrap();
        ctrl.check_domain_invariants().unwrap();
    }
}

#[test]
fn interval_mode_reports_distinct_serials_within_budget() {
    let tree = DynamicTree::with_initial_star(20);
    let m = 16;
    let mut ctrl = CentralizedController::new(tree, m, 8, 64).unwrap();
    ctrl.set_storage_interval(PermitInterval::new(100, 100 + m - 1));
    let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
    let mut serials = Vec::new();
    for i in 0..m as usize {
        match ctrl.submit(nodes[i % nodes.len()], RequestKind::NonTopological) {
            Ok(Outcome::Granted { serial, .. }) => serials.push(serial.unwrap()),
            Ok(Outcome::Rejected) => break,
            Ok(Outcome::Refused) => unreachable!("core families never refuse"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let mut sorted = serials.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), serials.len(), "serials must be unique");
    assert!(serials.iter().all(|&s| (100..100 + m).contains(&s)));
}

#[test]
fn iterated_controller_handles_zero_waste_exactly() {
    let tree = DynamicTree::with_initial_path(40);
    let m = 7;
    let mut ctrl = IteratedController::new(tree, m, 0, 256).unwrap();
    let mut granted = 0;
    for i in 0..30usize {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let at = nodes[(i * 11) % nodes.len()];
        if ctrl
            .submit(at, RequestKind::NonTopological)
            .unwrap()
            .is_granted()
        {
            granted += 1;
        }
    }
    assert_eq!(
        granted, m,
        "W = 0 means exactly M permits before any reject"
    );
    assert_eq!(ctrl.granted(), m);
    assert!(ctrl.is_exhausted());
}

#[test]
fn iterated_controller_uses_fewer_moves_than_single_shot_for_small_w() {
    // M much larger than W: the single-shot controller pays a factor M/W,
    // the iterated one only log(M/(W+1)).
    let m = 2_000;
    let w = 1;
    let build_tree = || DynamicTree::with_initial_path(60);
    let requests: Vec<usize> = (0..1200).map(|i| (i * 13) % 61).collect();

    let mut single = CentralizedController::new(build_tree(), m, w, 256).unwrap();
    for &d in &requests {
        let at = single
            .tree()
            .nodes()
            .find(|&n| single.tree().depth(n) == d)
            .unwrap();
        let _ = single.submit(at, RequestKind::NonTopological).unwrap();
    }

    let mut iterated = IteratedController::new(build_tree(), m, w, 256).unwrap();
    for &d in &requests {
        let at = iterated
            .tree()
            .nodes()
            .find(|&n| iterated.tree().depth(n) == d)
            .unwrap();
        let _ = iterated.submit(at, RequestKind::NonTopological).unwrap();
    }

    assert!(
        iterated.moves() <= single.moves(),
        "iterated controller should not use more moves ({} vs {})",
        iterated.moves(),
        single.moves()
    );
}

#[test]
fn adaptive_controller_grows_far_beyond_the_initial_size() {
    // Start from a 4-node network and insert hundreds of nodes: no a-priori
    // bound U is available, epochs must adapt.
    let tree = DynamicTree::with_initial_star(3);
    let mut ctrl = AdaptiveController::new(tree, 500, 50, RefreshPolicy::ChangesQuarterU).unwrap();
    for i in 0..400usize {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let at = nodes[(i * 5) % nodes.len()];
        let out = ctrl.submit(at, RequestKind::AddLeaf).unwrap();
        assert!(out.is_granted(), "request {i} unexpectedly rejected");
    }
    assert!(ctrl.tree().node_count() > 400);
    assert!(ctrl.epochs() > 3, "epochs = {}", ctrl.epochs());
    assert_eq!(ctrl.granted(), 400);
}

#[test]
fn adaptive_controller_respects_safety_and_liveness_under_churn() {
    let tree = DynamicTree::with_initial_star(8);
    let (m, w) = (60, 10);
    let mut ctrl = AdaptiveController::new(tree, m, w, RefreshPolicy::SizeDoubling).unwrap();
    let mut granted = 0;
    let mut rejected = 0;
    for i in 0..200usize {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let at = nodes[(i * 3) % nodes.len()];
        let kind = if i % 5 == 4 && at != ctrl.tree().root() && ctrl.tree().node_count() > 4 {
            RequestKind::RemoveSelf
        } else {
            RequestKind::AddLeaf
        };
        match ctrl.submit(at, kind) {
            Ok(Outcome::Granted { .. }) => granted += 1,
            Ok(Outcome::Rejected) => rejected += 1,
            Ok(Outcome::Refused) => unreachable!("core families never refuse"),
            Err(ControllerError::CannotRemoveRoot) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(granted <= m);
    if rejected > 0 {
        assert!(granted >= m - w, "granted {granted} < M - W");
    }
    assert!(ctrl.tree().check_invariants().is_ok());
}

#[test]
fn moves_stay_within_the_theoretical_shape() {
    // Measured moves should stay within a moderate constant factor of the
    // Lemma 3.3 bound U·(M/W)·log²U for a demanding workload.
    let n = 256usize;
    let tree = DynamicTree::with_initial_path(n - 1);
    let m = 512;
    let w = 256;
    let u = 2 * n;
    let mut ctrl = CentralizedController::new(tree, m, w, u).unwrap();
    for i in 0..(m as usize) {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let at = nodes[(i * 17) % nodes.len()];
        if !ctrl
            .submit(at, RequestKind::NonTopological)
            .unwrap()
            .is_granted()
        {
            break;
        }
    }
    let bound = ctrl.params().single_shot_bound();
    assert!(
        (ctrl.moves() as f64) < bound,
        "moves {} exceed the theoretical bound {bound}",
        ctrl.moves()
    );
}
