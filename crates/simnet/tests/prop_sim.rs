//! Property-style tests for the simulator: graceful topology changes under
//! concurrent agent traffic never corrupt the tree, never lose agents, and
//! executions are deterministic per seed.
//!
//! The build environment has no proptest, so each property runs a fixed
//! number of seeded random cases through `dcn-rng`: every failure is
//! reproducible from its printed case seed.

use dcn_rng::{DetRng, Rng, SeedableRng};
use dcn_simnet::{
    Action, DelayModel, DynamicTree, NodeCtx, NodeId, Protocol, SimConfig, Simulator,
    TopologyChange,
};

const CASES: u64 = 40;

/// A protocol whose agents bounce: climb to the root locking, return to the
/// origin, climb again, and finally descend unlocking (twice the controller's
/// walk, so a path stays locked under traffic for as long as possible).
struct BounceProtocol;

#[derive(Debug)]
enum BouncePhase {
    Climb,
    FirstDescent,
    SecondClimb,
    FinalDescent,
}

#[derive(Debug)]
struct BounceAgent {
    phase: BouncePhase,
    /// Hops below the root, counted by the agent itself on its way down.
    below_top: usize,
}

impl Protocol for BounceProtocol {
    type Whiteboard = u64;
    type Agent = BounceAgent;
    type Output = NodeId;

    fn make_whiteboard(&mut self, _node: NodeId, _parent: Option<&u64>) -> u64 {
        0
    }

    fn merge_whiteboard(&mut self, removed: u64, parent: &mut u64) -> u64 {
        *parent += removed;
        1
    }

    fn on_activate(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut BounceAgent) -> Action {
        *ctx.whiteboard_mut() += 1;
        match agent.phase {
            BouncePhase::Climb => {
                if ctx.is_locked() && !ctx.locked_by_me() {
                    return Action::WaitForUnlock;
                }
                ctx.lock();
                if ctx.is_root() {
                    ctx.emit(ctx.origin());
                    if ctx.distance_from_origin() == 0 {
                        ctx.unlock();
                        return Action::Terminate;
                    }
                    agent.phase = BouncePhase::FirstDescent;
                    agent.below_top = 1;
                    return Action::Down;
                }
                Action::Up
            }
            BouncePhase::FirstDescent => {
                if ctx.distance_from_origin() == 0 {
                    agent.phase = BouncePhase::SecondClimb;
                    agent.below_top -= 1;
                    return Action::Up;
                }
                agent.below_top += 1;
                Action::Down
            }
            BouncePhase::SecondClimb => {
                if agent.below_top == 0 {
                    ctx.unlock();
                    agent.phase = BouncePhase::FinalDescent;
                    return Action::Down;
                }
                agent.below_top -= 1;
                Action::Up
            }
            BouncePhase::FinalDescent => {
                ctx.unlock();
                if ctx.distance_from_origin() == 0 {
                    return Action::Terminate;
                }
                Action::Down
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum SimEvent {
    Agent(usize),
    AddLeaf(usize),
    AddInternal(usize),
    Remove(usize),
}

/// Draws one event with the weights 4 : 2 : 2 : 2 (mirroring the old
/// proptest strategy).
fn random_event(rng: &mut DetRng) -> SimEvent {
    let k = rng.gen_range(0usize..64);
    match rng.gen_range(0u32..10) {
        0..=3 => SimEvent::Agent(k),
        4..=5 => SimEvent::AddLeaf(k),
        6..=7 => SimEvent::AddInternal(k),
        _ => SimEvent::Remove(k),
    }
}

fn random_events(rng: &mut DetRng, lo: usize, hi: usize) -> Vec<SimEvent> {
    let len = rng.gen_range(lo..=hi);
    (0..len).map(|_| random_event(rng)).collect()
}

fn pick(tree: &DynamicTree, k: usize) -> NodeId {
    let nodes: Vec<NodeId> = tree.nodes().collect();
    nodes[k % nodes.len()]
}

fn fresh_agent() -> BounceAgent {
    BounceAgent {
        phase: BouncePhase::Climb,
        below_top: 0,
    }
}

/// Creates the agent or schedules the change `event` stands for, at the
/// `k`-th live node.
fn inject(sim: &mut Simulator<BounceProtocol>, event: SimEvent) {
    match event {
        SimEvent::Agent(k) => {
            let at = pick(sim.tree(), k);
            sim.create_agent(at, fresh_agent()).unwrap();
        }
        SimEvent::AddLeaf(k) => {
            let parent = pick(sim.tree(), k);
            sim.schedule_change(TopologyChange::AddLeaf { parent });
        }
        SimEvent::AddInternal(k) => {
            let below = pick(sim.tree(), k);
            sim.schedule_change(TopologyChange::AddInternalAbove { below });
        }
        SimEvent::Remove(k) => {
            let node = pick(sim.tree(), k);
            sim.schedule_change(TopologyChange::Remove { node });
        }
    }
}

fn run(seed: u64, max_delay: u64, n0: usize, events: &[SimEvent]) -> (usize, u64, usize) {
    let tree = DynamicTree::with_initial_star(n0);
    let config = SimConfig::new(seed).with_delay(DelayModel::Uniform {
        min: 1,
        max: max_delay,
    });
    let mut sim = Simulator::with_tree(config, BounceProtocol, tree);
    let mut agents_created = 0usize;
    // Interleave: inject a slice of events, run a few steps, inject more.
    for chunk in events.chunks(4) {
        for &event in chunk {
            inject(&mut sim, event);
            agents_created += usize::from(matches!(event, SimEvent::Agent(_)));
        }
        for _ in 0..16 {
            if !sim.step().unwrap() {
                break;
            }
        }
    }
    sim.run_events(u64::MAX).unwrap();
    let outputs = sim.drain_outputs().len();
    (
        agents_created,
        sim.metrics().agent_hops,
        outputs + sim.metrics().agents_dropped as usize,
    )
}

/// Every agent eventually reports (or is accounted as dropped), every lock
/// is released, every change is resolved without a single polling event, and
/// the tree stays structurally valid — under arbitrary interleavings of agent
/// traffic and graceful topology changes.
#[test]
fn concurrent_agents_and_churn_never_corrupt_the_network() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(case);
        let events = random_events(&mut rng, 1, 60);
        let seed = rng.gen_range(0u64..10_000);
        let max_delay = rng.gen_range(1u64..12);
        let n0 = rng.gen_range(1usize..20);
        let tree = DynamicTree::with_initial_star(n0);
        let config = SimConfig::new(seed).with_delay(DelayModel::Uniform {
            min: 1,
            max: max_delay,
        });
        let mut sim = Simulator::with_tree(config, BounceProtocol, tree);
        let mut agents_created = 0u64;
        let mut changes_scheduled = 0u64;
        for chunk in events.chunks(3) {
            for &event in chunk {
                inject(&mut sim, event);
                if matches!(event, SimEvent::Agent(_)) {
                    agents_created += 1;
                } else {
                    changes_scheduled += 1;
                }
            }
            for _ in 0..12 {
                if !sim.step().unwrap() {
                    break;
                }
            }
        }
        sim.run_events(u64::MAX).unwrap();

        assert!(sim.tree().check_invariants().is_ok(), "case {case}");
        assert_eq!(sim.live_agents(), 0, "case {case}: agents must not leak");
        assert_eq!(
            sim.pending_change_count(),
            0,
            "case {case}: changes must not leak"
        );
        // A change is applied or its target vanished, nothing in between,
        // and waiting costs no event: one per activation, one per change.
        let m = *sim.metrics();
        assert_eq!(
            m.topology_changes_applied + m.topology_changes_dropped,
            changes_scheduled,
            "case {case}"
        );
        assert_eq!(
            m.events_processed,
            m.activations + changes_scheduled,
            "case {case}: the event law"
        );
        let answered = sim.drain_outputs().len() as u64;
        assert_eq!(
            answered, agents_created,
            "case {case}: every agent reports exactly once"
        );
        for node in sim.tree().nodes().collect::<Vec<_>>() {
            assert!(!sim.is_locked(node), "case {case}: node {node} left locked");
        }
    }
}

/// Simulated time never goes backwards: across arbitrary interleavings of
/// agent traffic, delayed injections and graceful topology changes, the
/// clock observed after every single step is non-decreasing, and the next
/// pending event is never due before "now".
#[test]
fn simulator_time_is_monotone() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(20_000 + case);
        let events = random_events(&mut rng, 1, 50);
        let seed = rng.gen_range(0u64..10_000);
        let max_delay = rng.gen_range(1u64..16);
        let n0 = rng.gen_range(1usize..16);
        let tree = DynamicTree::with_initial_star(n0);
        let config = SimConfig::new(seed).with_delay(DelayModel::Uniform {
            min: 1,
            max: max_delay,
        });
        let mut sim = Simulator::with_tree(config, BounceProtocol, tree);
        let mut last = sim.time();
        let check = |sim: &Simulator<BounceProtocol>, last: &mut u64| {
            assert!(
                sim.time() >= *last,
                "case {case}: time ran backwards ({} < {last})",
                sim.time()
            );
            if let Some(next) = sim.next_event_time() {
                assert!(
                    next >= sim.time(),
                    "case {case}: pending event at {next} is before now={}",
                    sim.time()
                );
            }
            *last = sim.time();
        };
        for chunk in events.chunks(5) {
            for &event in chunk {
                match event {
                    SimEvent::Agent(k) => {
                        let at = pick(sim.tree(), k);
                        let delay = rng.gen_range(0u64..8);
                        sim.create_agent_delayed(at, fresh_agent(), delay).unwrap();
                    }
                    SimEvent::AddLeaf(k) => {
                        let parent = pick(sim.tree(), k);
                        sim.schedule_change(TopologyChange::AddLeaf { parent });
                    }
                    SimEvent::AddInternal(k) => {
                        let below = pick(sim.tree(), k);
                        sim.schedule_change(TopologyChange::AddInternalAbove { below });
                    }
                    SimEvent::Remove(k) => {
                        let node = pick(sim.tree(), k);
                        sim.schedule_change(TopologyChange::Remove { node });
                    }
                }
                check(&sim, &mut last);
            }
            for _ in 0..10 {
                let progressed = sim.step().unwrap();
                check(&sim, &mut last);
                if !progressed {
                    break;
                }
            }
        }
        while sim.step().unwrap() {
            check(&sim, &mut last);
        }
        assert_eq!(
            sim.clamped_event_count(),
            0,
            "case {case}: an event was scheduled in the past"
        );
        assert_eq!(
            sim.saturated_event_count(),
            0,
            "case {case}: a delay saturated at the end of time"
        );
    }
}

/// Executions are fully deterministic for a fixed seed and differ only in
/// cost (not in delivered answers) across seeds.
#[test]
fn executions_are_deterministic_per_seed() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(10_000 + case);
        let events = random_events(&mut rng, 1, 40);
        let seed = rng.gen_range(0u64..1_000);
        let n0 = rng.gen_range(1usize..12);
        let a = run(seed, 9, n0, &events);
        let b = run(seed, 9, n0, &events);
        assert_eq!(a, b, "case {case}");
        let c = run(seed.wrapping_add(1), 9, n0, &events);
        // Same number of agents created; every agent answered or dropped.
        assert_eq!(a.0, c.0, "case {case}");
    }
}

/// Climbs to the root, reporting the time of every activation on the way.
struct ClockProtocol;

impl Protocol for ClockProtocol {
    type Whiteboard = ();
    type Agent = ();
    type Output = u64;

    fn make_whiteboard(&mut self, _node: NodeId, _parent: Option<&()>) {}

    fn merge_whiteboard(&mut self, _removed: (), _parent: &mut ()) -> u64 {
        0
    }

    fn on_activate(&mut self, ctx: &mut NodeCtx<'_, Self>, _agent: &mut ()) -> Action {
        ctx.emit(ctx.time());
        if ctx.is_root() {
            Action::Terminate
        } else {
            Action::Up
        }
    }
}

/// The simulator's rng has one consumer, the hop delay: the k-th message of
/// a run is delayed by the k-th sample of its seed's stream, whatever the
/// tree did in between. One agent at a time climbs a path from its bottom
/// while, between agents, the path is split and shortened and leaves come and
/// go beside it; the hop delays read off the activation times are, element
/// for element, `DelayModel::sample` on a fresh rng of the same seed.
/// (`Constant` draws nothing and is the sanity row.)
#[test]
fn the_kth_hop_is_delayed_by_the_kth_sample_of_the_seeds_stream() {
    let models = [
        DelayModel::Uniform { min: 1, max: 9 },
        DelayModel::Bimodal {
            fast: 1,
            slow: 40,
            slow_percent: 10,
        },
        DelayModel::Constant(3),
    ];
    for (seed, delay) in (41u64..).zip(models) {
        let config = SimConfig::new(seed).with_delay(delay);
        let tree = DynamicTree::with_initial_path(6);
        let mut sim = Simulator::with_tree(config, ClockProtocol, tree);
        let bottom = NodeId::from_index(6);
        let mut side_leaf = None;
        let (mut observed, mut scheduled) = (Vec::new(), 0u64);
        for round in 0..24 {
            sim.create_agent(bottom, ()).unwrap();
            sim.run_events(u64::MAX).unwrap();
            let times = sim.drain_outputs();
            assert_eq!(times.len(), sim.tree().depth(bottom) + 1, "seed {seed}");
            observed.extend(times.windows(2).map(|w| w[1] - w[0]));
            // On the path: one node more above the bottom, and on odd rounds
            // two fewer. Off it: last round's leaf goes, a new one comes.
            let above = sim.tree().parent(bottom).unwrap();
            let mut changes = vec![
                TopologyChange::AddInternalAbove { below: bottom },
                TopologyChange::AddLeaf { parent: above },
            ];
            if round % 2 == 1 {
                let node = sim.tree().parent(above).unwrap();
                changes.push(TopologyChange::Remove { node: above });
                changes.push(TopologyChange::Remove { node });
            }
            changes.extend(side_leaf.map(|node| TopologyChange::Remove { node }));
            for change in changes {
                sim.schedule_change(change);
                scheduled += 1;
            }
            sim.run_events(u64::MAX).unwrap();
            side_leaf = sim.tree().nodes().last();
            let beside = |l| l != bottom && sim.tree().is_leaf(l) == Ok(true);
            assert!(side_leaf.is_some_and(beside), "seed {seed}");
        }
        assert_eq!(sim.metrics().topology_changes_applied, scheduled);
        let mut rng = DetRng::seed_from_u64(seed);
        let expected: Vec<u64> = observed.iter().map(|_| delay.sample(&mut rng)).collect();
        assert_eq!(observed, expected, "seed {seed}: {delay:?}");
        assert!(observed.len() > 100, "seed {seed}");
    }
}

/// FNV-1a over a rendering: the pin for "every byte of it".
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// How the simulator stores a node is not behaviour. 2 000 interleaved
/// agents, adds, splits and removes under each delay model: after every
/// applied change the whiteboards are listed in strictly increasing id order
/// over exactly the tree's nodes, and the cost counters and the outputs are
/// pinned to the byte. The `Constant` row draws nothing from the rng and is
/// what the simulator reported before its node table held one record per
/// live node (commit 4656d4d) and before port numbers were deleted (e44cdee):
/// the control that neither moved anything but the delay stream. The other
/// two rows were re-recorded when the ports went — their hop delays are now
/// the first samples of the seed's stream, and the script picks its nodes
/// from the live tree, so the trajectories diverged.
#[test]
fn node_storage_moves_no_count_and_no_output() {
    let recorded = [
        (
            DelayModel::Uniform { min: 1, max: 9 },
            (70_883, 67_333, 0),
            0x1573_888b_abb7_290c,
        ),
        (
            DelayModel::Bimodal {
                fast: 1,
                slow: 40,
                slow_percent: 10,
            },
            (70_183, 66_400, 0),
            0x4173_f795_bd8d_e030,
        ),
        (
            DelayModel::Constant(3),
            (46_349, 42_443, 0),
            0x82e0_a31d_2358_08bc,
        ),
    ];
    for (seed, (delay, counts, bytes)) in (23u64..).zip(recorded) {
        let mut rng = DetRng::seed_from_u64(30_000 + seed);
        let config = SimConfig::new(seed).with_delay(delay);
        let tree = DynamicTree::with_initial_star(12);
        let mut sim = Simulator::with_tree(config, BounceProtocol, tree);
        let mut removed_some = false;
        for _ in 0..500 {
            for _ in 0..4 {
                let event = random_event(&mut rng);
                inject(&mut sim, event);
            }
            for _ in 0..16 {
                let before = sim.tree().changes();
                if !sim.step().unwrap() {
                    break;
                }
                if sim.tree().changes() == before {
                    continue;
                }
                let listed: Vec<NodeId> = sim.whiteboards().map(|(id, _)| id).collect();
                assert!(listed.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
                assert!(listed.iter().copied().eq(sim.tree().nodes()), "seed {seed}");
                removed_some |= sim.tree().total_created() > listed.len() + 64;
            }
        }
        sim.run_events(u64::MAX).unwrap();
        assert!(
            removed_some,
            "seed {seed}: the run must leave dead ids behind"
        );
        let m = *sim.metrics();
        let outputs = sim.drain_outputs();
        assert_eq!(
            (m.events_processed, m.total_messages(), m.agents_dropped),
            counts,
            "seed {seed}"
        );
        assert_eq!(fnv1a(&format!("{m:?}{outputs:?}")), bytes, "seed {seed}");
    }
}
