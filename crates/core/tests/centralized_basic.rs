//! Integration tests for the centralized controllers (§3).

use dcn_controller::centralized::{CentralizedController, IteratedController, RefreshPolicy};
use dcn_controller::verify::ExecutionSummary;
use dcn_controller::{Controller, ControllerError, Outcome, PermitInterval, RequestKind};
use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_tree::{DynamicTree, NodeId};

fn deepest(tree: &DynamicTree) -> NodeId {
    tree.nodes()
        .max_by_key(|&n| tree.depth(n))
        .expect("tree is non-empty")
}

/// Submits through the ticket API and reads the answer, which the
/// centralized and iterated controllers give before `submit` returns.
fn submit(
    ctrl: &mut impl Controller,
    at: NodeId,
    kind: RequestKind,
) -> Result<Outcome, ControllerError> {
    let ticket = ctrl.submit(at, kind)?;
    let answer = ctrl.records().last().expect("answered inside submit");
    assert_eq!(answer.id, ticket);
    Ok(answer.outcome)
}

/// The centralized controller's raw decision, without a ticket.
fn decide(
    ctrl: &mut CentralizedController,
    at: NodeId,
    kind: RequestKind,
) -> Result<Outcome, ControllerError> {
    dcn_controller::SyncController::decide(ctrl, at, kind)
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
        match submit(&mut ctrl, at, RequestKind::NonTopological).unwrap() {
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
    let out = decide(&mut ctrl, leaf, RequestKind::AddLeaf).unwrap();
    let new_leaf = match out {
        Outcome::Granted { new_node, .. } => new_node.unwrap(),
        Outcome::Rejected | Outcome::Refused => panic!("request should be granted"),
    };
    assert_eq!(ctrl.tree().parent(new_leaf), Some(leaf));

    // Split the edge above the new leaf.
    let out = decide(&mut ctrl, leaf, RequestKind::AddInternalAbove(new_leaf)).unwrap();
    let mid = match out {
        Outcome::Granted { new_node, .. } => new_node.unwrap(),
        Outcome::Rejected | Outcome::Refused => panic!("request should be granted"),
    };
    assert_eq!(ctrl.tree().parent(new_leaf), Some(mid));

    // Remove the internal node again.
    let out = decide(&mut ctrl, mid, RequestKind::RemoveSelf).unwrap();
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
        decide(&mut ctrl, ghost, RequestKind::NonTopological),
        Err(ControllerError::UnknownNode(_))
    ));
    assert!(matches!(
        decide(&mut ctrl, root, RequestKind::RemoveSelf),
        Err(ControllerError::CannotRemoveRoot)
    ));
    let leaf = deepest(ctrl.tree());
    assert!(matches!(
        decide(&mut ctrl, root, RequestKind::AddInternalAbove(leaf)),
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
        match decide(
            &mut ctrl,
            nodes[i % nodes.len()],
            RequestKind::NonTopological,
        ) {
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
        if submit(&mut ctrl, at, RequestKind::NonTopological)
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

/// A root with `legs` paths hanging off it, `nodes` nodes in all.
fn spider(legs: usize, nodes: usize) -> DynamicTree {
    let mut tree = DynamicTree::new();
    let mut tips = vec![tree.root(); legs];
    for i in 0..nodes - 1 {
        tips[i % legs] = tree.add_leaf(tips[i % legs]).unwrap();
    }
    tree
}

/// With `W = 0` the last permit must be granted too. It once went to the
/// trivial `(1, 0)`-controller over uncleared stores: when it sat in a
/// package off the requester's path to the root, the root had nothing to
/// give and the controller rejected after `M − 1` grants (about one run in
/// ten here). It is now a `(1, 1)` round over cleared stores.
#[test]
fn iterated_controller_with_zero_waste_grants_the_last_permit_on_spiders() {
    let mut rng = DetRng::seed_from_u64(27);
    for case in 0..48 {
        let legs = rng.gen_range(1usize..=4);
        let n = rng.gen_range(20usize..260);
        let u = n + rng.gen_range(1usize..=64);
        let m = rng.gen_range(2..8 * u as u64);
        let mut ctrl = IteratedController::new(spider(legs, n), m, 0, u).unwrap();
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let mut granted = 0;
        while submit(
            &mut ctrl,
            nodes[rng.gen_range(0..n)],
            RequestKind::NonTopological,
        )
        .unwrap()
        .is_granted()
        {
            granted += 1;
        }
        assert_eq!(granted, m, "case {case}: {legs} legs, n {n}, U {u}");
    }
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
        iterated.submit(at, RequestKind::NonTopological).unwrap();
    }

    let moves = iterated.metrics().moves;
    assert!(
        moves <= single.moves(),
        "iterated controller should not use more moves ({moves} vs {})",
        single.moves()
    );
}

/// Requests at the root move no permit, so every move of the iterated
/// schedules is a wave: `n` for each round after the first — the clearing
/// wave of a recycle before the grant, the re-initialisation of an epoch
/// refresh after it — and `n − 1` for the reject wave. Each is a message
/// too.
#[test]
fn every_wave_of_the_iterated_schedules_is_a_move_and_a_message() {
    let star = || DynamicTree::with_initial_star(8);
    let schedules = [
        (IteratedController::new(star(), 1_000, 0, 64).unwrap(), 1),
        (
            IteratedController::adaptive(star(), 1_000, 0, RefreshPolicy::ChangesQuarterU).unwrap(),
            5,
        ),
        (
            IteratedController::adaptive(star(), 1_000, 0, RefreshPolicy::SizeDoubling).unwrap(),
            3,
        ),
    ];
    for (mut ctrl, epochs_at_least) in schedules {
        let root = ctrl.tree().root();
        let mut waves = 0;
        for i in 0..1_100 {
            let (rounds, epochs) = (ctrl.iterations(), ctrl.epochs());
            let before = ctrl.tree().node_count() as u64;
            // 9 + 50 nodes stay within the fixed bound U = 64.
            let kind = if i < 50 {
                RequestKind::AddLeaf
            } else {
                RequestKind::NonTopological
            };
            let exhausted = ctrl.is_exhausted();
            let granted = submit(&mut ctrl, root, kind).unwrap().is_granted();
            let refreshes = u64::from(ctrl.epochs() - epochs);
            let recycles = u64::from(ctrl.iterations() - rounds) - refreshes;
            waves += recycles * before + refreshes * ctrl.tree().node_count() as u64;
            if !granted && !exhausted {
                waves += before - 1;
            }
        }
        assert!(ctrl.is_exhausted());
        assert_eq!(ctrl.granted(), 1_000);
        assert!(ctrl.epochs() >= epochs_at_least, "{} epochs", ctrl.epochs());
        assert!(ctrl.iterations() > ctrl.epochs(), "no recycle ran");
        let metrics = ctrl.metrics();
        assert_eq!((metrics.moves, metrics.messages), (waves, waves));
    }
}

#[test]
fn adaptive_controller_grows_far_beyond_the_initial_size() {
    // Start from a 4-node network and insert hundreds of nodes: no a-priori
    // bound U is available, epochs must adapt.
    let tree = DynamicTree::with_initial_star(3);
    let mut ctrl =
        IteratedController::adaptive(tree, 500, 50, RefreshPolicy::ChangesQuarterU).unwrap();
    for i in 0..400usize {
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let at = nodes[(i * 5) % nodes.len()];
        let out = submit(&mut ctrl, at, RequestKind::AddLeaf).unwrap();
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
    let mut ctrl = IteratedController::adaptive(tree, m, w, RefreshPolicy::SizeDoubling).unwrap();
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
        match submit(&mut ctrl, at, kind) {
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
        if !decide(&mut ctrl, at, RequestKind::NonTopological)
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
