//! The discrete-event simulator tying together the tree, the taxi layer, the
//! graceful-change handshake and the protocol's agent program.
//!
//! Every event is an agent activation or a granted change's single first
//! attempt (a refused change waits on a node, see `crate::topology`). Hence
//! the **event law**, exact whenever no first attempt is still queued (at
//! quiescence, say): `events_processed == activations +
//! topology_changes_applied + topology_changes_dropped +
//! pending_change_count()`.
//!
//! The simulator's rng has one draw site, the hop delay in `dispatch_move`
//! (under `DelayModel::Constant` it has none): the k-th message of a run is
//! delayed by the k-th sample of its seed's stream, whatever the tree did in
//! between. Held by `tests/prop_sim.rs`.

use crate::config::SimConfig;
use crate::engine::{EventKind, EventQueue, Time};
use crate::hot::{AgentTable, HotNodeState};
use crate::metrics::Metrics;
use crate::protocol::{Action, AgentId, Effect, NodeCtx, Protocol};
use crate::taxi::{AgentTaxi, NodeTaxi};
use crate::topology::{TopologyChange, CHANGE_DELAY};
use crate::{DynamicTree, NodeId};
use dcn_rng::{DetRng, SeedableRng};
use dcn_tree::ChangeLog;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An operation referenced a node that does not (or no longer) exist.
    UnknownNode(NodeId),
    /// The protocol issued an impossible instruction (e.g. `Up` at the root,
    /// `Down` with no recorded descent pointer).
    ProtocolViolation(String),
    /// One [`Simulator::run_events`] slice processed more than
    /// [`SimConfig::max_events`] events; the execution is likely
    /// livelocked.
    EventBudgetExceeded(u64),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNode(id) => write!(f, "node {id} does not exist in the simulation"),
            SimError::ProtocolViolation(msg) => write!(f, "protocol violation: {msg}"),
            SimError::EventBudgetExceeded(n) => {
                write!(f, "event budget of {n} events exceeded before quiescence")
            }
        }
    }
}

impl Error for SimError {}

/// The asynchronous-network / mobile-agent simulator.
///
/// See the crate-level documentation for the model. Typical usage:
///
/// 1. construct with [`Simulator::new`] or [`Simulator::with_tree`];
/// 2. inject requests by creating agents with [`Simulator::create_agent`];
/// 3. call [`Simulator::run_events`] (`u64::MAX` runs to quiescence);
/// 4. drain protocol outputs with [`Simulator::drain_outputs`] and inspect
///    [`Simulator::metrics`].
pub struct Simulator<P: Protocol> {
    config: SimConfig,
    protocol: P,
    tree: DynamicTree,
    /// Seeded once from [`SimConfig::seed`]; its one draw site is the hop
    /// delay in `dispatch_move` (see the module doc).
    rng: DetRng,
    queue: EventQueue,
    /// Per-node hot state (whiteboard and taxi), one record per live node
    /// behind a spine over the tree's record slots: a step() pays a single
    /// liveness check and one pointer, a removed node gives its record back
    /// and leaves no entry (the spine is as long as the most nodes ever live
    /// at once), and every iteration over node state walks the tree's ids in
    /// order (deterministic) by construction.
    nodes: HotNodeState<P::Whiteboard>,
    /// Agent ids are never reused, but the table holds slots for the live
    /// agents only (a window over the ids), so a simulator that runs without
    /// end — the served `distributed` family never rebuilds its own — keeps
    /// memory for the agents in flight, not for every agent it ever made.
    agents: AgentTable<P::Agent>,
    /// Granted changes neither applied nor dropped yet: each is either its
    /// first-attempt event or an entry of one node's `NodeTaxi::parked`.
    live_changes: usize,
    outputs: Vec<P::Output>,
    metrics: Metrics,
    /// The same-timestamp cohort currently being dispatched: `step()` drains
    /// the engine one *bucket* at a time into this reusable buffer and then
    /// serves events from it by cursor, so a cohort of k same-time events
    /// costs one queue probe instead of k.
    batch: Vec<EventKind>,
    batch_cursor: usize,
    /// Scratch buffer for the effects of one activation, reused across
    /// events so the hot loop does not allocate per event.
    effects_scratch: Vec<Effect<P>>,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator whose network initially consists of a single root.
    pub fn new(config: SimConfig, protocol: P) -> Self {
        Self::with_tree(config, protocol, DynamicTree::new())
    }

    /// Creates a simulator over an existing initial tree. Whiteboards are
    /// created top-down so that every node's whiteboard can be derived from
    /// its parent's (the paper's parameter hand-off).
    pub fn with_tree(config: SimConfig, mut protocol: P, tree: DynamicTree) -> Self {
        let mut nodes: HotNodeState<P::Whiteboard> = HotNodeState::with_capacity(tree.node_count());
        for node in tree.dfs(tree.root()) {
            let parent_wb = tree.parent(node).and_then(|p| nodes.whiteboard(&tree, p));
            let wb = protocol.make_whiteboard(node, parent_wb);
            nodes.insert(&tree, node, wb);
        }
        Simulator {
            config,
            protocol,
            tree,
            rng: DetRng::seed_from_u64(config.seed),
            queue: EventQueue::new(),
            nodes,
            agents: AgentTable::new(),
            live_changes: 0,
            outputs: Vec::new(),
            metrics: Metrics::new(),
            batch: Vec::new(),
            batch_cursor: 0,
            effects_scratch: Vec::new(),
        }
    }

    /// The protocol instance (e.g. to read aggregated protocol state).
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol instance.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// The current spanning tree.
    pub fn tree(&self) -> &DynamicTree {
        &self.tree
    }

    /// Consumes the simulator and returns the tree in its final state (used
    /// by iteration drivers that rebuild the protocol state over the same
    /// network at an epoch boundary).
    pub fn into_tree(self) -> DynamicTree {
        self.tree
    }

    /// Takes the changes the tree recorded so far (see
    /// [`DynamicTree::take_change_log`]).
    pub fn take_change_log(&mut self) -> ChangeLog {
        self.tree.take_change_log()
    }

    /// Current simulated time.
    pub fn time(&self) -> Time {
        self.queue.now()
    }

    /// Number of events that were scheduled in the past and clamped to the
    /// current time. Always 0 in a correct execution — a non-zero value means
    /// a driver or protocol computed a stale absolute timestamp.
    pub fn clamped_event_count(&self) -> u64 {
        self.queue.clamped_count()
    }

    /// Number of relative schedules whose fire time saturated at
    /// `Time::MAX`, collapsing distinct delays onto one instant. Always 0 in
    /// a correct execution.
    pub fn saturated_event_count(&self) -> u64 {
        self.queue.saturated_count()
    }

    /// Cost counters accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The whiteboard of `node`, if the node exists.
    pub fn whiteboard(&self, node: NodeId) -> Option<&P::Whiteboard> {
        self.nodes.whiteboard(&self.tree, node)
    }

    /// Mutable whiteboard access (driver-side initialisation only).
    pub fn whiteboard_mut(&mut self, node: NodeId) -> Option<&mut P::Whiteboard> {
        self.nodes.whiteboard_mut(&self.tree, node)
    }

    /// Iterates over the whiteboards of all currently existing nodes, in
    /// node-index order.
    pub fn whiteboards(&self) -> impl Iterator<Item = (NodeId, &P::Whiteboard)> {
        self.nodes.iter_whiteboards(&self.tree)
    }

    /// Returns `true` if `node` is currently locked by some agent.
    pub fn is_locked(&self, node: NodeId) -> bool {
        self.locked_by(node).is_some()
    }

    /// The agent currently holding `node`'s lock, if any.
    pub fn locked_by(&self, node: NodeId) -> Option<AgentId> {
        self.nodes.taxi(&self.tree, node).and_then(|t| t.locked_by)
    }

    /// Number of agents currently alive (travelling, active or queued).
    pub fn live_agents(&self) -> usize {
        self.agents.len()
    }

    /// Number of granted topological changes still awaiting graceful
    /// application.
    pub fn pending_change_count(&self) -> usize {
        self.live_changes
    }

    /// Number of events currently scheduled (including the not-yet-served
    /// remainder of the batch being dispatched). Zero means the execution is
    /// quiescent.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + (self.batch.len() - self.batch_cursor)
    }

    /// Returns `true` when no events are scheduled (nothing left to simulate).
    pub fn is_quiescent(&self) -> bool {
        self.pending_events() == 0
    }

    /// The absolute simulated time of the next scheduled event, if any.
    /// Drivers can batch-poll ("run until t") without popping events.
    pub fn next_event_time(&self) -> Option<Time> {
        if self.batch_cursor < self.batch.len() {
            // The rest of the current same-timestamp cohort fires "now".
            Some(self.queue.now())
        } else {
            self.queue.peek_time()
        }
    }

    /// Removes and returns all protocol outputs emitted so far.
    pub fn drain_outputs(&mut self) -> Vec<P::Output> {
        std::mem::take(&mut self.outputs)
    }

    /// Creates an agent at `node`, activated at the current simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if `node` does not exist.
    pub fn create_agent(&mut self, node: NodeId, state: P::Agent) -> Result<AgentId, SimError> {
        self.create_agent_delayed(node, state, 0)
    }

    /// Creates an agent at `node`, activated `delay` time units from now.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] if `node` does not exist.
    pub fn create_agent_delayed(
        &mut self,
        node: NodeId,
        state: P::Agent,
        delay: Time,
    ) -> Result<AgentId, SimError> {
        if !self.tree.contains(node) {
            return Err(SimError::UnknownNode(node));
        }
        let id = self.agents.create(state, node);
        self.metrics.agents_created += 1;
        self.metrics.max_live_agents = self.metrics.max_live_agents.max(self.agents.len());
        self.schedule_activation(id, node, delay);
        Ok(id)
    }

    /// Schedules a topological change for graceful application (driver-side;
    /// the protocol schedules changes through
    /// [`NodeCtx::schedule_change`](crate::NodeCtx::schedule_change)).
    pub fn schedule_change(&mut self, change: TopologyChange) {
        self.live_changes += 1;
        self.queue
            .schedule(CHANGE_DELAY, EventKind::AttemptChange { change });
    }

    /// Processes a single event. Returns `Ok(false)` when the event queue is
    /// empty.
    ///
    /// Events are pulled from the engine one same-timestamp *cohort* at a
    /// time (`pop_batch`) and served from the reusable batch buffer, so k
    /// simultaneous events cost one queue probe. Per-event semantics are
    /// unchanged: each `step()` dispatches exactly one event, in the global
    /// `(time, seq)` order.
    ///
    /// # Errors
    ///
    /// Propagates protocol violations; see [`SimError`].
    pub fn step(&mut self) -> Result<bool, SimError> {
        if self.batch_cursor >= self.batch.len() {
            self.batch.clear();
            self.batch_cursor = 0;
            if self.queue.pop_batch(&mut self.batch).is_none() {
                return Ok(false);
            }
        }
        let kind = self.batch[self.batch_cursor];
        self.batch_cursor += 1;
        self.metrics.events_processed += 1;
        match kind {
            EventKind::Activate { agent, at } => {
                let outcome = self.process_activation(agent, at);
                self.retry_parked(at);
                outcome?;
            }
            EventKind::AttemptChange { change } => self.attempt_change(change),
        }
        Ok(true)
    }

    /// Processes up to `budget` events and returns the number actually
    /// processed (fewer only when the queue drained first). `u64::MAX` runs
    /// to quiescence.
    ///
    /// [`SimConfig::max_events`] caps every call: a slice that processes
    /// more than that many events is taken for a livelock, so a `budget` of
    /// at most `max_events` never trips it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExceeded`] once the slice passes
    /// `max_events` events, or a protocol violation if the agent program
    /// issues an impossible instruction.
    pub fn run_events(&mut self, budget: u64) -> Result<u64, SimError> {
        let max = self.config.max_events;
        // One compare per event: the valve is folded into the loop bound.
        let limit = budget.min(max.saturating_add(1));
        let mut processed = 0;
        while processed < limit && self.step()? {
            processed += 1;
        }
        if processed > max {
            return Err(SimError::EventBudgetExceeded(max));
        }
        Ok(processed)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule_activation(&mut self, agent: AgentId, at: NodeId, delay: Time) {
        if let Some(t) = self.nodes.taxi_mut(&self.tree, at) {
            t.inbound += 1;
        }
        self.queue
            .schedule(delay, EventKind::Activate { agent, at });
    }

    fn process_activation(&mut self, agent: AgentId, at: NodeId) -> Result<(), SimError> {
        // One lookup serves the whole activation: the node's record holds
        // its taxi state and its whiteboard together.
        let mut node = self.nodes.slot_mut(&self.tree, at);
        if let Some(node) = &mut node {
            node.taxi.inbound = node.taxi.inbound.saturating_sub(1);
        }
        let Some(slot) = self.agents.get_mut(agent) else {
            return Ok(());
        };
        // The child list is borrowed straight from the tree arena (nothing
        // mutates the tree during an activation) and the effects vector is
        // the reusable scratch buffer: one activation allocates nothing.
        let Ok(children) = self.tree.children(at) else {
            // The target vanished despite the quiescence gate (can only happen
            // for wave agents heading to a just-removed child); drop the agent.
            self.metrics.agents_dropped += 1;
            self.agents.retire(agent);
            return Ok(());
        };
        self.metrics.activations += 1;
        slot.taxi.location = at;
        let arrived_from = slot.taxi.arrived_from;

        let parent = self.tree.parent(at);
        let effects = std::mem::take(&mut self.effects_scratch);
        let time = self.queue.now();

        // The tree holds `at`, so a missing record means the node
        // bookkeeping diverged from the tree arena; surface it to the driver
        // instead of panicking mid-drain.
        let Some(node) = node else {
            return Err(SimError::UnknownNode(at));
        };
        let locked_by = node.taxi.locked_by;
        let whiteboard = &mut node.whiteboard;
        let protocol = &mut self.protocol;
        let mut ctx: NodeCtx<'_, P> = NodeCtx {
            node: at,
            parent,
            children,
            time,
            agent_id: agent,
            origin: slot.taxi.origin,
            dist_from_origin: slot.taxi.dist_from_origin,
            locked_by,
            whiteboard,
            effects,
        };
        let action = protocol.on_activate(&mut ctx, &mut slot.state);
        let mut effects = std::mem::take(&mut ctx.effects);
        drop(ctx);

        self.apply_effects(agent, at, arrived_from, &mut effects);
        effects.clear();
        self.effects_scratch = effects;
        self.apply_action(agent, at, action)
    }

    fn apply_effects(
        &mut self,
        agent: AgentId,
        at: NodeId,
        arrived_from: Option<NodeId>,
        effects: &mut Vec<Effect<P>>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Lock => {
                    let is_child = arrived_from
                        .map(|c| self.tree.parent(c) == Some(at))
                        .unwrap_or(false);
                    if let Some(t) = self.nodes.taxi_mut(&self.tree, at) {
                        t.locked_by = Some(agent);
                        if is_child {
                            t.down_child = arrived_from;
                        } else if arrived_from.is_none() {
                            t.down_child = None;
                        }
                    }
                }
                Effect::Unlock => {
                    let dequeued = if let Some(t) = self.nodes.taxi_mut(&self.tree, at) {
                        t.locked_by = None;
                        t.queue.pop_front()
                    } else {
                        None
                    };
                    if let Some(next) = dequeued {
                        self.schedule_activation(next, at, 0);
                    }
                }
                Effect::Spawn(state) => {
                    let id = self.agents.create(state, at);
                    self.metrics.agents_created += 1;
                    self.metrics.max_live_agents =
                        self.metrics.max_live_agents.max(self.agents.len());
                    self.schedule_activation(id, at, 0);
                }
                Effect::Emit(output) => self.outputs.push(output),
                Effect::ScheduleChange(change) => self.schedule_change(change),
            }
        }
    }

    fn apply_action(&mut self, agent: AgentId, at: NodeId, action: Action) -> Result<(), SimError> {
        match action {
            Action::Up => {
                let Some(target) = self.tree.parent(at) else {
                    return Err(SimError::ProtocolViolation(format!(
                        "agent {agent} issued Up at the root"
                    )));
                };
                self.dispatch_move(agent, at, target, AgentTaxi::hop_away);
                Ok(())
            }
            Action::Down => {
                let target = self.nodes.taxi(&self.tree, at).and_then(|t| t.down_child);
                let Some(target) = target else {
                    return Err(SimError::ProtocolViolation(format!(
                        "agent {agent} issued Down at {at} with no descent pointer"
                    )));
                };
                if !self.tree.contains(target) {
                    return Err(SimError::ProtocolViolation(format!(
                        "descent pointer of {at} references removed node {target}"
                    )));
                }
                self.dispatch_move(agent, at, target, AgentTaxi::hop_down);
                Ok(())
            }
            Action::MoveToChild(child) => {
                if !self.tree.contains(child) || self.tree.parent(child) != Some(at) {
                    // The child disappeared between the decision and the move;
                    // wave agents are simply dropped (see crate docs).
                    self.metrics.agents_dropped += 1;
                    self.agents.retire(agent);
                    return Ok(());
                }
                self.dispatch_move(agent, at, child, AgentTaxi::hop_away);
                Ok(())
            }
            Action::WaitForUnlock => {
                if let Some(t) = self.nodes.taxi_mut(&self.tree, at) {
                    t.queue.push_back(agent);
                    self.metrics.waits += 1;
                    self.metrics.max_queue_len = self.metrics.max_queue_len.max(t.queue.len());
                }
                Ok(())
            }
            Action::Again => {
                self.schedule_activation(agent, at, 0);
                Ok(())
            }
            Action::Terminate => {
                self.agents.retire(agent);
                Ok(())
            }
        }
    }

    /// Records the hop `from → target` in the agent's taxi counters (`hop`
    /// says in which direction) and schedules its arrival.
    fn dispatch_move(
        &mut self,
        agent: AgentId,
        from: NodeId,
        target: NodeId,
        hop: fn(&mut AgentTaxi, NodeId, NodeId),
    ) {
        self.metrics.agent_hops += 1;
        let delay = self.config.delay.sample(&mut self.rng);
        if let Some(slot) = self.agents.get_mut(agent) {
            hop(&mut slot.taxi, from, target);
        }
        self.schedule_activation(agent, target, delay);
    }

    /// Re-attempts, oldest first, the changes parked on `at`. Runs at the end
    /// of every `Activate` event at `at`: a node's lock, queue and descent
    /// pointer move, and its `inbound` falls, only inside an activation at
    /// that node, so no gate opens anywhere else.
    fn retry_parked(&mut self, at: NodeId) {
        let Some(taxi) = self.nodes.taxi_mut(&self.tree, at) else {
            return;
        };
        if taxi.parked.is_empty() {
            return;
        }
        for change in std::mem::take(&mut taxi.parked) {
            self.attempt_change(change);
        }
    }

    /// Applies `change`, drops it (its target vanished) or parks it on the
    /// node whose taxi state refuses it.
    fn attempt_change(&mut self, change: TopologyChange) {
        match self.try_apply_change(change) {
            ChangeOutcome::Applied => {
                self.live_changes -= 1;
                self.metrics.topology_changes_applied += 1;
            }
            ChangeOutcome::Dropped => {
                self.live_changes -= 1;
                self.metrics.topology_changes_dropped += 1;
            }
            ChangeOutcome::Busy(node) => {
                // `Busy` names a node whose taxi state it has just read.
                if let Some(taxi) = self.nodes.taxi_mut(&self.tree, node) {
                    taxi.parked.push(change);
                }
            }
        }
    }

    fn try_apply_change(&mut self, change: TopologyChange) -> ChangeOutcome {
        match change {
            TopologyChange::AddLeaf { parent } => {
                if !self.tree.contains(parent) {
                    return ChangeOutcome::Dropped;
                }
                // `contains(parent)` held above; if the arena still refuses
                // the change treat it as malformed and drop it gracefully.
                let Ok(child) = self.tree.add_leaf(parent) else {
                    return ChangeOutcome::Dropped;
                };
                self.init_new_node(child, parent);
                ChangeOutcome::Applied
            }
            TopologyChange::AddInternalAbove { below } => {
                if !self.tree.contains(below) {
                    return ChangeOutcome::Dropped;
                }
                let Some(parent) = self.tree.parent(below) else {
                    return ChangeOutcome::Dropped;
                };
                // Do not split an edge that an agent's locked descent path
                // currently crosses, and never split the parent edge of a
                // locked node: a waiting agent may have locked `below` and
                // will later record it as its parent's descent target, so the
                // edge must stay intact until that agent releases it.
                let below_locked = self
                    .nodes
                    .taxi(&self.tree, below)
                    .map(NodeTaxi::is_locked)
                    .unwrap_or(false);
                let crossing = self
                    .nodes
                    .taxi(&self.tree, parent)
                    .map(|t| t.is_locked() && t.down_child == Some(below))
                    .unwrap_or(false);
                if crossing || below_locked {
                    return ChangeOutcome::Busy(if below_locked { below } else { parent });
                }
                // `below` exists and has a parent (checked above), so the
                // split cannot fail; a malformed change degrades to Dropped.
                let Ok(node) = self.tree.add_internal_above(below) else {
                    return ChangeOutcome::Dropped;
                };
                self.init_new_node(node, parent);
                ChangeOutcome::Applied
            }
            TopologyChange::Remove { node } => {
                if !self.tree.contains(node) {
                    return ChangeOutcome::Dropped;
                }
                if node == self.tree.root() {
                    return ChangeOutcome::Dropped;
                }
                let busy = self
                    .nodes
                    .taxi(&self.tree, node)
                    .map(|t| t.is_locked() || !t.queue.is_empty() || t.inbound > 0)
                    .unwrap_or(false);
                if busy {
                    return ChangeOutcome::Busy(node);
                }
                // Non-root (checked above), so a parent exists; a node the
                // arena disowns anyway is a malformed change, not a panic.
                let Some(parent) = self.tree.parent(node) else {
                    return ChangeOutcome::Dropped;
                };
                // The gate is open, so nothing waits here (the hook took
                // this node's list before re-attempting any of it): no
                // parked change is lost with the slot.
                debug_assert!(self
                    .nodes
                    .taxi(&self.tree, node)
                    .is_some_and(|t| t.parked.is_empty()));
                // Hand the whiteboard contents to the parent ("graceful"
                // rule); the node's taxi state goes with its record. The
                // entry is vacated while the tree still names its slot, so
                // the slot is empty when the tree hands it out again.
                if let Some(removed_wb) = self.nodes.remove(&self.tree, node) {
                    // The parent always has a whiteboard while its child
                    // existed; if not, the merge is skipped rather than
                    // panicking (the removed contents are lost either way).
                    if let Some(parent_wb) = self.nodes.whiteboard_mut(&self.tree, parent) {
                        let aux = self.protocol.merge_whiteboard(removed_wb, parent_wb);
                        self.metrics.aux_messages += aux;
                    }
                }
                #[expect(
                    clippy::expect_used,
                    reason = "contains(node) and node != root were checked above, and the \
                              whiteboard is already handed over: failing here must be loud"
                )]
                self.tree.remove(node).expect("checked above");
                ChangeOutcome::Applied
            }
        }
    }

    fn init_new_node(&mut self, node: NodeId, parent: NodeId) {
        let parent_wb = self.nodes.whiteboard(&self.tree, parent);
        let wb = self.protocol.make_whiteboard(node, parent_wb);
        self.nodes.insert(&self.tree, node, wb);
    }
}

enum ChangeOutcome {
    Applied,
    /// The target vanished (or the change is malformed).
    Dropped,
    /// Refused by the taxi state of this node; the change waits there.
    Busy(NodeId),
}

impl<P: Protocol> fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.queue.now())
            .field("nodes", &self.tree.node_count())
            .field("live_agents", &self.agents.len())
            .field("pending_changes", &self.live_changes)
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    //! Laws read off private state with no wall clock: the agent table's
    //! window (`span`) follows the agents in flight, not the agents ever
    //! made; a refused change waits on the node that refuses it
    //! (`NodeTaxi::parked`) and is applied by the activation that frees it.

    use super::*;
    use crate::DelayModel;
    use dcn_rng::Rng;
    use std::collections::VecDeque;

    /// What a scripted agent does to its node's lock in one activation.
    #[derive(Clone, Copy, Debug)]
    enum Latch {
        Lock,
        Unlock,
        Pass,
    }

    /// Agent programs that need no whiteboard.
    #[derive(Debug)]
    enum Walker {
        /// Terminates at its first activation.
        Short,
        /// Walks to the root and terminates there.
        Climber,
        /// Waits while its node is locked, then terminates.
        Parked,
        /// One `(latch, action)` per activation, whatever the lock says.
        Scripted(VecDeque<(Latch, Action)>),
        /// Climbs to the root locking (queueing behind other agents' locks),
        /// then walks back down unlocking — the controller's two walks. A
        /// `shy` one leaves its origin unlocked and ends one hop above it, so
        /// only the pointer at the origin's parent guards the edge between.
        Bouncer { descending: bool, shy: bool },
    }

    fn scripted<const N: usize>(steps: [(Latch, Action); N]) -> Walker {
        Walker::Scripted(VecDeque::from(steps))
    }

    /// Created at a node: locks it, visits `child` and comes back to unlock.
    fn holder_via(child: NodeId) -> Walker {
        scripted([
            (Latch::Lock, Action::MoveToChild(child)),
            (Latch::Pass, Action::Up),
            (Latch::Unlock, Action::Terminate),
        ])
    }

    struct Walk;

    impl Protocol for Walk {
        type Whiteboard = ();
        type Agent = Walker;
        type Output = ();

        fn make_whiteboard(&mut self, _node: NodeId, _parent: Option<&()>) {}

        fn merge_whiteboard(&mut self, _removed: (), _parent: &mut ()) -> u64 {
            0
        }

        fn on_activate(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut Walker) -> Action {
            match agent {
                Walker::Short => Action::Terminate,
                Walker::Climber if ctx.is_root() => Action::Terminate,
                Walker::Climber => Action::Up,
                Walker::Parked if ctx.is_locked() => Action::WaitForUnlock,
                Walker::Parked => Action::Terminate,
                Walker::Scripted(steps) => {
                    let (latch, action) = steps.pop_front().expect("script ran out");
                    match latch {
                        Latch::Lock => ctx.lock(),
                        Latch::Unlock => ctx.unlock(),
                        Latch::Pass => {}
                    }
                    action
                }
                Walker::Bouncer { descending, shy } => {
                    // The lowest node it locks is `floor` hops above its origin.
                    let floor = usize::from(*shy);
                    let below_floor = ctx.distance_from_origin() < floor;
                    if !*descending {
                        if !below_floor {
                            if ctx.is_locked() && !ctx.locked_by_me() {
                                return Action::WaitForUnlock;
                            }
                            ctx.lock();
                        }
                        if !ctx.is_root() {
                            return Action::Up;
                        }
                        *descending = true;
                    }
                    if below_floor {
                        return Action::Terminate;
                    }
                    ctx.unlock();
                    if ctx.distance_from_origin() == floor {
                        Action::Terminate
                    } else {
                        Action::Down
                    }
                }
            }
        }
    }

    fn star() -> Simulator<Walk> {
        let config = SimConfig::new(1).with_delay(DelayModel::Constant(1));
        Simulator::with_tree(config, Walk, DynamicTree::with_initial_star(8))
    }

    #[test]
    fn short_lived_agents_leave_no_slots_behind() {
        let mut sim = star();
        let leaves: Vec<NodeId> = sim.tree().nodes().skip(1).collect();
        for wave in 0..500 {
            for i in 0..10 {
                let leaf = leaves[(wave + i) % leaves.len()];
                sim.create_agent(leaf, Walker::Climber).unwrap();
            }
            // Two activations an agent: the waves overlap but do not pile up.
            sim.run_events(20).unwrap();
            assert!(sim.agents.span() <= sim.metrics().max_live_agents + 1);
        }
        sim.run_events(u64::MAX).unwrap();
        assert_eq!(sim.metrics().agents_created, 5_000);
        assert!(sim.metrics().max_live_agents <= 20);
        assert_eq!((sim.live_agents(), sim.agents.span()), (0, 0));
    }

    #[test]
    fn a_parked_agent_pins_the_window_until_it_terminates() {
        let mut sim = star();
        let root = sim.tree().root();
        let leaf = sim.tree().nodes().nth(2).unwrap();
        let holder = sim.create_agent(root, holder_via(leaf)).unwrap();
        let parked = sim.create_agent(root, Walker::Parked).unwrap();
        sim.run_events(2).unwrap();
        assert_eq!(sim.locked_by(root), Some(holder));
        assert_eq!(sim.metrics().waits, 1);
        // A thousand agents come and go while the two are out…
        for _ in 0..1_000 {
            sim.create_agent(leaf, Walker::Short).unwrap();
        }
        assert_eq!(sim.run_events(1_000).unwrap(), 1_000);
        // …and one more arrives after both are done.
        let late = sim.create_agent_delayed(leaf, Walker::Short, 10).unwrap();
        assert_eq!(late.raw() - parked.raw(), 1_001);
        assert_eq!((sim.live_agents(), sim.agents.span()), (3, 1_003));
        // The holder walks out, walks back, unlocks and terminates: the
        // window's front moves up to the parked agent. That one is woken and
        // terminates: the window collapses onto the late agent.
        let mut spans = Vec::new();
        while sim.step().unwrap() {
            spans.push(sim.agents.span());
        }
        assert_eq!(spans, vec![1_003, 1_002, 1, 0]);
        assert_eq!(sim.live_agents(), 0);
    }

    /// The node table follows the live nodes, not the ids: a tree held at a
    /// fixed size through 10 000 add-leaf / remove cycles mints 10 000 ids,
    /// and the table's spine stays no longer than the tree's record count
    /// (the most nodes ever live at once, since a freed record is reused
    /// before a new one is made).
    #[test]
    fn the_node_table_spans_the_most_nodes_ever_live_not_the_ids_minted() {
        let mut sim = star();
        let root = sim.tree().root();
        let mut added: VecDeque<NodeId> = VecDeque::new();
        let mut records = sim.tree().node_count();
        for cycle in 0..10_000 {
            let leaf = NodeId::from_index(sim.tree().total_created());
            sim.schedule_change(TopologyChange::AddLeaf { parent: root });
            sim.run_events(u64::MAX).unwrap();
            assert!(sim.tree().contains(leaf), "cycle {cycle}");
            added.push_back(leaf);
            records = records.max(sim.tree().node_count());
            if added.len() > 4 {
                let gone = added.pop_front().unwrap();
                sim.schedule_change(TopologyChange::Remove { node: gone });
                sim.run_events(u64::MAX).unwrap();
                assert!(sim.whiteboard(gone).is_none() && sim.locked_by(gone).is_none());
            }
        }
        assert!(sim.whiteboards().map(|(id, _)| id).eq(sim.tree().nodes()));
        assert_eq!(sim.tree().total_created(), 10_009);
        assert_eq!(records, 14);
        assert!(
            sim.nodes.spine_len() <= records,
            "{} spine entries for {records} records",
            sim.nodes.spine_len()
        );
    }

    // ------------------------------------------------------------------
    // A granted change waits on its gate
    // ------------------------------------------------------------------

    const HOP: Time = 3;

    /// The path n0 – n1 – n2 – n3 under hops of `HOP` ticks, so that a change
    /// scheduled at time 0 is first attempted (`CHANGE_DELAY` = 4) between an
    /// agent's second and third activation.
    fn path() -> (Simulator<Walk>, [NodeId; 4]) {
        let config = SimConfig::new(1).with_delay(DelayModel::Constant(HOP));
        let sim = Simulator::with_tree(config, Walk, DynamicTree::with_initial_path(3));
        (sim, [0, 1, 2, 3].map(NodeId::from_index))
    }

    /// Created at a child of `node`: locks `node` arriving from that child
    /// (so the descent pointer crosses the edge between them) without ever
    /// locking the child, visits `node`'s parent, and unlocks `node` at 3·HOP.
    fn crossing_holder(node: NodeId) -> Walker {
        scripted([
            (Latch::Pass, Action::Up),
            (Latch::Lock, Action::Up),
            (Latch::Pass, Action::MoveToChild(node)),
            (Latch::Unlock, Action::Terminate),
        ])
    }

    fn parked(sim: &Simulator<Walk>, node: NodeId) -> &[TopologyChange] {
        sim.nodes.taxi(&sim.tree, node).map_or(&[], |t| &t.parked)
    }

    fn resolved(sim: &Simulator<Walk>) -> (u64, u64) {
        let m = sim.metrics();
        (m.topology_changes_applied, m.topology_changes_dropped)
    }

    /// Steps until the clock reads `time` and nothing else is due at it.
    fn run_through(sim: &mut Simulator<Walk>, time: Time) {
        while sim.next_event_time().is_some_and(|t| t <= time) {
            sim.step().unwrap();
        }
    }

    #[test]
    fn a_removal_blocked_by_a_lock_is_applied_in_the_step_that_unlocks_its_target() {
        let (mut sim, [_, _, n2, n3]) = path();
        sim.create_agent(n2, holder_via(n3)).unwrap();
        let remove = TopologyChange::Remove { node: n2 };
        sim.schedule_change(remove);
        run_through(&mut sim, CHANGE_DELAY);
        assert_eq!(parked(&sim, n2), [remove]);
        assert_eq!((resolved(&sim), sim.pending_change_count()), ((0, 0), 1));
        // Everything up to the holder's return: still locked, still parked.
        run_through(&mut sim, 2 * HOP - 1);
        assert!(sim.is_locked(n2));
        assert_eq!(parked(&sim, n2), [remove]);
        // The one activation that unlocks n2 also removes it: no later event,
        // no later tick.
        let events = sim.metrics().events_processed;
        assert_eq!(sim.next_event_time(), Some(2 * HOP));
        assert!(sim.step().unwrap());
        assert!(!sim.tree().contains(n2));
        assert_eq!(sim.time(), 2 * HOP);
        assert_eq!(sim.metrics().events_processed, events + 1);
        assert_eq!((resolved(&sim), sim.pending_change_count()), ((1, 0), 0));
        assert!(sim.is_quiescent());
        assert_eq!(sim.tree().parent(n3), Some(NodeId::from_index(1)));
    }

    #[test]
    fn changes_parked_on_one_node_are_re_attempted_in_park_order() {
        // Removal first: the split finds its edge gone. Split first: both fit.
        for (removal_first, outcome) in [(true, (1, 1)), (false, (2, 0))] {
            let (mut sim, [_, _, n2, n3]) = path();
            let mut order = [
                TopologyChange::Remove { node: n2 },
                TopologyChange::AddInternalAbove { below: n2 },
            ];
            if !removal_first {
                order.reverse();
            }
            sim.create_agent(n2, holder_via(n3)).unwrap();
            for change in order {
                sim.schedule_change(change);
            }
            run_through(&mut sim, 2 * HOP - 1);
            assert_eq!(parked(&sim, n2), order);
            sim.run_events(u64::MAX).unwrap();
            assert_eq!((resolved(&sim), sim.pending_change_count()), (outcome, 0));
            assert_eq!((sim.time(), sim.tree().contains(n2)), (2 * HOP, false));
        }
    }

    #[test]
    fn a_message_inbound_alone_holds_a_removal_back() {
        let (mut sim, [_, _, _, n3]) = path();
        sim.create_agent_delayed(n3, Walker::Short, CHANGE_DELAY + 1)
            .unwrap();
        let remove = TopologyChange::Remove { node: n3 };
        sim.schedule_change(remove);
        sim.schedule_change(remove);
        run_through(&mut sim, CHANGE_DELAY);
        assert!(!sim.is_locked(n3));
        assert_eq!(parked(&sim, n3), [remove, remove]);
        sim.run_events(u64::MAX).unwrap();
        // Its delivery opens the gate: the older removal goes through, the
        // younger finds the node gone.
        assert_eq!((resolved(&sim), sim.pending_change_count()), ((1, 1), 0));
        assert_eq!(
            (sim.time(), sim.tree().contains(n3)),
            (CHANGE_DELAY + 1, false)
        );
    }

    #[test]
    fn a_split_blocked_only_by_a_crossing_pointer_waits_on_the_parent() {
        let (mut sim, [_, n1, n2, _]) = path();
        sim.create_agent(n2, crossing_holder(n1)).unwrap();
        let split = TopologyChange::AddInternalAbove { below: n2 };
        sim.schedule_change(split);
        run_through(&mut sim, 3 * HOP - 1);
        assert!(!sim.is_locked(n2) && sim.is_locked(n1));
        assert_eq!(parked(&sim, n1), [split]);
        assert_eq!(parked(&sim, n2), []);
        assert_eq!((resolved(&sim), sim.tree().depth(n2)), ((0, 0), 2));
        // The activation that unlocks the parent splits the edge.
        assert!(sim.step().unwrap());
        assert_eq!((sim.time(), sim.is_locked(n1)), (3 * HOP, false));
        assert_eq!((resolved(&sim), sim.tree().depth(n2)), ((1, 0), 3));
        assert!(sim.is_quiescent() && sim.pending_change_count() == 0);
    }

    #[test]
    fn a_split_blocked_twice_moves_from_the_lower_endpoint_to_the_parent() {
        let (mut sim, [_, n1, n2, n3]) = path();
        sim.create_agent(n2, holder_via(n3)).unwrap(); // n2 locked until 2·HOP
        sim.create_agent(n2, crossing_holder(n1)).unwrap(); // n1 from HOP to 3·HOP
        let split = TopologyChange::AddInternalAbove { below: n2 };
        sim.schedule_change(split);
        // Both conditions hold at the first attempt: the lower endpoint first.
        run_through(&mut sim, 2 * HOP - 1);
        assert!(sim.is_locked(n2) && sim.is_locked(n1));
        assert_eq!(
            (parked(&sim, n2), parked(&sim, n1)),
            (&[split][..], &[][..])
        );
        // n2 is released while the pointer still crosses: on to the parent.
        run_through(&mut sim, 3 * HOP - 1);
        assert!(!sim.is_locked(n2) && sim.is_locked(n1));
        assert_eq!(
            (parked(&sim, n2), parked(&sim, n1)),
            (&[][..], &[split][..])
        );
        assert_eq!((resolved(&sim), sim.tree().depth(n2)), ((0, 0), 2));
        sim.run_events(u64::MAX).unwrap();
        assert_eq!((resolved(&sim), sim.tree().depth(n2)), ((1, 0), 3));
        assert_eq!((sim.time(), sim.pending_change_count()), (3 * HOP, 0));
    }

    #[test]
    fn a_change_parked_on_a_node_outlives_that_node() {
        // A removal of n1 and a split of the edge below it both wait on n1;
        // the removal goes first and the split is re-attempted on what is
        // left: n2 hangs under the root, one new node above it.
        let (mut sim, [n0, n1, n2, _]) = path();
        sim.create_agent(n2, crossing_holder(n1)).unwrap();
        let remove = TopologyChange::Remove { node: n1 };
        let split = TopologyChange::AddInternalAbove { below: n2 };
        sim.schedule_change(remove);
        sim.schedule_change(split);
        run_through(&mut sim, 3 * HOP - 1);
        assert_eq!(parked(&sim, n1), [remove, split]);
        sim.run_events(u64::MAX).unwrap();
        assert_eq!((resolved(&sim), sim.pending_change_count()), ((2, 0), 0));
        assert!(!sim.tree().contains(n1));
        let above = sim.tree().parent(n2).unwrap();
        assert_eq!(
            (sim.tree().parent(above), sim.tree().depth(n2)),
            (Some(n0), 2)
        );
    }

    /// `change` sits on `node` for a reason that still holds: exactly the
    /// condition under which `try_apply_change` names `node` as busy.
    fn gate_is_closed(sim: &Simulator<Walk>, node: NodeId, change: TopologyChange) -> bool {
        let Some(taxi) = sim.nodes.taxi(&sim.tree, node) else {
            return false;
        };
        match change {
            TopologyChange::Remove { node: target } => {
                target == node && (taxi.is_locked() || !taxi.queue.is_empty() || taxi.inbound > 0)
            }
            TopologyChange::AddInternalAbove { below } => {
                taxi.is_locked() && (below == node || taxi.down_child == Some(below))
            }
            _ => false,
        }
    }

    /// The twin of `tests/prop_sim.rs` with the taxi state in view: random
    /// agent traffic and churn, checked after every single event.
    #[test]
    fn parked_changes_wait_on_closed_gates_and_waiting_costs_no_event() {
        let (mut parks_on_target, mut parks_on_parent) = (0u32, 0u32);
        for case in 0..40u64 {
            let mut rng = DetRng::seed_from_u64(40_000 + case);
            let max = rng.gen_range(1u64..12);
            let config = SimConfig::new(case).with_delay(DelayModel::Uniform { min: 1, max });
            let n0 = rng.gen_range(1usize..20);
            let tree = if case % 2 == 0 {
                DynamicTree::with_initial_star(n0)
            } else {
                DynamicTree::with_initial_path(n0)
            };
            let mut sim = Simulator::with_tree(config, Walk, tree);
            let mut scheduled = 0u64;
            let mut check = |sim: &Simulator<Walk>| {
                for node in sim.tree().nodes() {
                    for &change in parked(sim, node) {
                        assert!(
                            gate_is_closed(sim, node, change),
                            "case {case}: {change:?} waits on {node}, whose gate is open"
                        );
                        match change {
                            TopologyChange::AddInternalAbove { below } if below != node => {
                                parks_on_parent += 1
                            }
                            _ => parks_on_target += 1,
                        }
                    }
                }
            };
            for _ in 0..rng.gen_range(1usize..20) {
                for _ in 0..3 {
                    let nodes: Vec<NodeId> = sim.tree().nodes().collect();
                    let at = nodes[rng.gen_range(0..nodes.len())];
                    let change = match rng.gen_range(0u32..10) {
                        0..=3 => {
                            let shy = rng.gen_range(0u32..3) == 0;
                            let descending = false;
                            sim.create_agent(at, Walker::Bouncer { descending, shy })
                                .unwrap();
                            continue;
                        }
                        4..=5 => TopologyChange::AddLeaf { parent: at },
                        6..=7 => TopologyChange::AddInternalAbove { below: at },
                        _ => TopologyChange::Remove { node: at },
                    };
                    sim.schedule_change(change);
                    scheduled += 1;
                }
                for _ in 0..12 {
                    if !sim.step().unwrap() {
                        break;
                    }
                    check(&sim);
                }
            }
            while sim.step().unwrap() {
                check(&sim);
            }
            // Quiescence: every gate has opened, so nothing is left waiting,
            // and the event law holds — one event per activation, one per
            // change ever scheduled, none for waiting.
            let m = *sim.metrics();
            assert_eq!(sim.pending_change_count(), 0, "case {case}");
            assert!(sim.tree().nodes().all(|n| parked(&sim, n).is_empty()));
            assert_eq!(
                m.topology_changes_applied + m.topology_changes_dropped,
                scheduled,
                "case {case}"
            );
            assert_eq!(m.events_processed, m.activations + scheduled, "case {case}");
            assert!(sim.tree().check_invariants().is_ok(), "case {case}");
        }
        // Not vacuous: changes did wait, on their target and on its parent.
        assert!(parks_on_target > 0 && parks_on_parent > 0);
    }
}
