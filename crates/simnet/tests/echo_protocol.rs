//! Integration tests for the simulator using small synthetic protocols.
//!
//! These protocols exercise the taxi layer (Up/Down/Distance),
//! locking and FIFO queues, graceful topology changes and message accounting
//! independently of the (M, W)-controller built on top.

use dcn_simnet::{
    Action, DelayModel, DynamicTree, NodeCtx, NodeId, Protocol, SimConfig, Simulator,
    TopologyChange,
};

/// A protocol whose agents climb from their origin to the root (locking every
/// node on the way), then walk back down unlocking, and finally report the
/// depth they measured.
struct ClimbProtocol;

#[derive(Debug)]
struct ClimbWb {
    visits: u64,
}

#[derive(Debug)]
struct ClimbAgent {
    phase: ClimbPhase,
    /// Hops below the root, counted by the agent itself on its way down.
    below_top: usize,
}

#[derive(Debug, PartialEq)]
enum ClimbPhase {
    Climb,
    FirstDescent,
    SecondClimb,
    FinalDescent,
}

#[derive(Debug, PartialEq)]
struct DepthReport {
    origin: NodeId,
    depth: usize,
}

impl Protocol for ClimbProtocol {
    type Whiteboard = ClimbWb;
    type Agent = ClimbAgent;
    type Output = DepthReport;

    fn make_whiteboard(&mut self, _node: NodeId, _parent: Option<&ClimbWb>) -> ClimbWb {
        ClimbWb { visits: 0 }
    }

    fn merge_whiteboard(&mut self, removed: ClimbWb, parent: &mut ClimbWb) -> u64 {
        parent.visits += removed.visits;
        1
    }

    fn on_activate(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut ClimbAgent) -> Action {
        ctx.whiteboard_mut().visits += 1;
        match agent.phase {
            // Climb to the root, locking the whole path (the path stays locked
            // while the agent bounces down to its origin and back, which
            // creates real lock contention).
            ClimbPhase::Climb => {
                if ctx.is_locked() && !ctx.locked_by_me() {
                    return Action::WaitForUnlock;
                }
                ctx.lock();
                if ctx.is_root() {
                    ctx.emit(DepthReport {
                        origin: ctx.origin(),
                        depth: ctx.distance_from_origin(),
                    });
                    if ctx.origin() == ctx.node() {
                        ctx.unlock();
                        return Action::Terminate;
                    }
                    agent.phase = ClimbPhase::FirstDescent;
                    agent.below_top = 1;
                    return Action::Down;
                }
                Action::Up
            }
            ClimbPhase::FirstDescent => {
                if ctx.node() == ctx.origin() {
                    agent.phase = ClimbPhase::SecondClimb;
                    agent.below_top -= 1;
                    return Action::Up;
                }
                agent.below_top += 1;
                Action::Down
            }
            ClimbPhase::SecondClimb => {
                if agent.below_top == 0 {
                    // Back at the topmost node: unlock it and descend,
                    // unlocking the rest of the path on the way.
                    ctx.unlock();
                    agent.phase = ClimbPhase::FinalDescent;
                    return Action::Down;
                }
                agent.below_top -= 1;
                Action::Up
            }
            ClimbPhase::FinalDescent => {
                ctx.unlock();
                if ctx.node() == ctx.origin() {
                    return Action::Terminate;
                }
                Action::Down
            }
        }
    }
}

fn path_tree(len: usize) -> DynamicTree {
    DynamicTree::with_initial_path(len)
}

#[test]
fn single_agent_measures_its_depth() {
    let tree = path_tree(5);
    let deepest = NodeId::from_index(5);
    let mut sim = Simulator::with_tree(SimConfig::new(1), ClimbProtocol, tree);
    sim.create_agent(
        deepest,
        ClimbAgent {
            phase: ClimbPhase::Climb,
            below_top: 0,
        },
    )
    .unwrap();
    sim.run_events(u64::MAX).unwrap();
    let outputs = sim.drain_outputs();
    assert_eq!(
        outputs,
        vec![DepthReport {
            origin: deepest,
            depth: 5
        }]
    );
    // The agent traverses the depth-5 path four times (up, down, up, down).
    assert_eq!(sim.metrics().agent_hops, 20);
    assert_eq!(sim.live_agents(), 0);
    // Every node on the path is unlocked again.
    for node in sim.tree().nodes().collect::<Vec<_>>() {
        assert!(!sim.is_locked(node));
    }
}

#[test]
fn agent_created_at_root_terminates_immediately() {
    let mut sim = Simulator::new(SimConfig::new(2), ClimbProtocol);
    let root = sim.tree().root();
    sim.create_agent(
        root,
        ClimbAgent {
            phase: ClimbPhase::Climb,
            below_top: 0,
        },
    )
    .unwrap();
    sim.run_events(u64::MAX).unwrap();
    let outputs = sim.drain_outputs();
    assert_eq!(
        outputs,
        vec![DepthReport {
            origin: root,
            depth: 0
        }]
    );
    assert_eq!(sim.metrics().agent_hops, 0);
}

#[test]
fn concurrent_agents_all_complete_and_locks_serialize_them() {
    // A star with long-ish delays: all leaves launch agents at once.
    let tree = DynamicTree::with_initial_star(20);
    let mut sim = Simulator::with_tree(
        SimConfig::new(3).with_delay(DelayModel::Uniform { min: 1, max: 12 }),
        ClimbProtocol,
        tree,
    );
    let leaves: Vec<NodeId> = sim
        .tree()
        .nodes()
        .filter(|&n| n != sim.tree().root())
        .collect();
    for &leaf in &leaves {
        sim.create_agent(
            leaf,
            ClimbAgent {
                phase: ClimbPhase::Climb,
                below_top: 0,
            },
        )
        .unwrap();
    }
    sim.run_events(u64::MAX).unwrap();
    let outputs = sim.drain_outputs();
    assert_eq!(outputs.len(), leaves.len());
    assert!(outputs.iter().all(|r| r.depth == 1));
    // The root was contended: someone must have waited.
    assert!(sim.metrics().waits > 0);
    assert_eq!(sim.live_agents(), 0);
    for node in sim.tree().nodes().collect::<Vec<_>>() {
        assert!(!sim.is_locked(node));
    }
}

#[test]
fn determinism_same_seed_same_metrics() {
    let run = |seed: u64| {
        let tree = DynamicTree::with_initial_star(10);
        let mut sim = Simulator::with_tree(SimConfig::new(seed), ClimbProtocol, tree);
        let leaves: Vec<NodeId> = sim
            .tree()
            .nodes()
            .filter(|&n| n != sim.tree().root())
            .collect();
        for &leaf in &leaves {
            sim.create_agent(
                leaf,
                ClimbAgent {
                    phase: ClimbPhase::Climb,
                    below_top: 0,
                },
            )
            .unwrap();
        }
        sim.run_events(u64::MAX).unwrap();
        (*sim.metrics(), sim.drain_outputs().len())
    };
    assert_eq!(run(42), run(42));
    // Different seeds may give different interleavings but the same number of
    // reports.
    assert_eq!(run(42).1, run(43).1);
}

#[test]
fn graceful_add_and_remove_changes_apply() {
    let tree = path_tree(3);
    let mut sim = Simulator::with_tree(SimConfig::new(4), ClimbProtocol, tree);
    let leaf = NodeId::from_index(3);
    let mid = NodeId::from_index(2);
    sim.schedule_change(TopologyChange::AddLeaf { parent: leaf });
    sim.schedule_change(TopologyChange::AddInternalAbove { below: mid });
    sim.run_events(u64::MAX).unwrap();
    assert_eq!(sim.metrics().topology_changes_applied, 2);
    assert_eq!(sim.tree().node_count(), 6);
    assert_eq!(sim.tree().depth(leaf), 4); // one internal node inserted above mid

    sim.schedule_change(TopologyChange::Remove { node: mid });
    sim.run_events(u64::MAX).unwrap();
    assert_eq!(sim.metrics().topology_changes_applied, 3);
    assert!(!sim.tree().contains(mid));
    assert_eq!(sim.tree().depth(leaf), 3);
    assert!(sim.tree().check_invariants().is_ok());
}

#[test]
fn removal_of_a_missing_node_is_dropped_not_fatal() {
    let tree = path_tree(2);
    let mut sim = Simulator::with_tree(SimConfig::new(5), ClimbProtocol, tree);
    let leaf = NodeId::from_index(2);
    sim.schedule_change(TopologyChange::Remove { node: leaf });
    sim.schedule_change(TopologyChange::Remove { node: leaf });
    sim.run_events(u64::MAX).unwrap();
    assert_eq!(sim.metrics().topology_changes_applied, 1);
    assert_eq!(sim.metrics().topology_changes_dropped, 1);
}

#[test]
fn removal_merges_whiteboard_into_parent_and_counts_aux_messages() {
    let tree = path_tree(2);
    let mut sim = Simulator::with_tree(SimConfig::new(6), ClimbProtocol, tree);
    let leaf = NodeId::from_index(2);
    let mid = NodeId::from_index(1);
    // Run one agent from the leaf so whiteboards accumulate visits.
    sim.create_agent(
        leaf,
        ClimbAgent {
            phase: ClimbPhase::Climb,
            below_top: 0,
        },
    )
    .unwrap();
    sim.run_events(u64::MAX).unwrap();
    let leaf_visits = sim.whiteboard(leaf).unwrap().visits;
    let mid_visits = sim.whiteboard(mid).unwrap().visits;
    assert!(leaf_visits > 0);

    let aux_before = sim.metrics().aux_messages;
    sim.schedule_change(TopologyChange::Remove { node: leaf });
    sim.run_events(u64::MAX).unwrap();
    assert!(sim.metrics().aux_messages > aux_before);
    assert_eq!(
        sim.whiteboard(mid).unwrap().visits,
        leaf_visits + mid_visits
    );
    assert!(sim.whiteboard(leaf).is_none());
}

#[test]
fn root_can_never_be_removed() {
    let mut sim = Simulator::new(SimConfig::new(7), ClimbProtocol);
    let root = sim.tree().root();
    sim.schedule_change(TopologyChange::Remove { node: root });
    sim.run_events(u64::MAX).unwrap();
    assert!(sim.tree().contains(root));
    assert_eq!(sim.metrics().topology_changes_dropped, 1);
}

#[test]
fn one_change_of_each_kind_on_a_path_leaves_a_valid_tree() {
    let tree = path_tree(4);
    let mut sim = Simulator::with_tree(SimConfig::new(9), ClimbProtocol, tree);
    sim.schedule_change(TopologyChange::AddLeaf {
        parent: NodeId::from_index(2),
    });
    sim.schedule_change(TopologyChange::AddInternalAbove {
        below: NodeId::from_index(3),
    });
    sim.schedule_change(TopologyChange::Remove {
        node: NodeId::from_index(1),
    });
    sim.run_events(u64::MAX).unwrap();
    assert!(sim.tree().check_invariants().is_ok());
}

#[test]
fn create_agent_at_unknown_node_errors() {
    let mut sim = Simulator::new(SimConfig::new(10), ClimbProtocol);
    let err = sim
        .create_agent(
            NodeId::from_index(99),
            ClimbAgent {
                phase: ClimbPhase::Climb,
                below_top: 0,
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        dcn_simnet::SimError::UnknownNode(NodeId::from_index(99))
    );
}

/// A protocol that never terminates (always re-activates) to exercise the
/// event budget safety valve.
struct SpinProtocol;

impl Protocol for SpinProtocol {
    type Whiteboard = ();
    type Agent = ();
    type Output = ();

    fn make_whiteboard(&mut self, _node: NodeId, _parent: Option<&()>) {}

    fn merge_whiteboard(&mut self, _removed: (), _parent: &mut ()) -> u64 {
        0
    }

    fn on_activate(&mut self, _ctx: &mut NodeCtx<'_, Self>, _agent: &mut ()) -> Action {
        Action::Again
    }
}

#[test]
fn event_budget_is_enforced() {
    let mut sim = Simulator::new(SimConfig::new(11).with_max_events(1_000), SpinProtocol);
    let root = sim.tree().root();
    sim.create_agent(root, ()).unwrap();
    // A slice within the valve never trips it, however long the run…
    for _ in 0..3 {
        assert_eq!(sim.run_events(1_000).unwrap(), 1_000);
    }
    // …and one past it does, exactly once it passes `max_events`.
    let err = sim.run_events(u64::MAX).unwrap_err();
    assert!(matches!(
        err,
        dcn_simnet::SimError::EventBudgetExceeded(1_000)
    ));
    assert_eq!(sim.metrics().events_processed, 4 * 1_000 + 1);
}

/// A protocol that issues `Up` at the root to exercise violation reporting.
struct BadProtocol;

impl Protocol for BadProtocol {
    type Whiteboard = ();
    type Agent = ();
    type Output = ();

    fn make_whiteboard(&mut self, _node: NodeId, _parent: Option<&()>) {}

    fn merge_whiteboard(&mut self, _removed: (), _parent: &mut ()) -> u64 {
        0
    }

    fn on_activate(&mut self, _ctx: &mut NodeCtx<'_, Self>, _agent: &mut ()) -> Action {
        Action::Up
    }
}

#[test]
fn protocol_violations_are_reported() {
    let mut sim = Simulator::new(SimConfig::new(12), BadProtocol);
    let root = sim.tree().root();
    sim.create_agent(root, ()).unwrap();
    let err = sim.run_events(u64::MAX).unwrap_err();
    assert!(matches!(err, dcn_simnet::SimError::ProtocolViolation(_)));
}
