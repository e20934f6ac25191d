//! The [`Protocol`] trait, agent actions and the per-activation [`NodeCtx`].

use crate::topology::TopologyChange;
use crate::NodeId;
use dcn_tree::Children;
use std::fmt;

/// Identifier of a mobile agent.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub(crate) u64);

impl AgentId {
    /// Raw numeric value (useful for logging and deterministic tie-breaking).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl dcn_collections::EntityKey for AgentId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        AgentId(index as u64)
    }
}

impl fmt::Debug for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The movement / lifecycle decision an agent returns from one activation.
///
/// One activation is atomic with respect to the node (paper §4.3.1: "the agent
/// handles an event atomically"); all whiteboard mutations and effects queued
/// through [`NodeCtx`] are applied, and then the returned action is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Move one hop towards the root. Must not be issued at the root.
    Up,
    /// Move one hop towards this agent's origin, along the locked path (to the
    /// child from which the lock-holding agent arrived). Must not be issued at
    /// the agent's origin.
    Down,
    /// Move to the named child of the current node (used by wave agents such
    /// as the reject broadcast). If the child no longer exists when the move
    /// is executed, the agent is dropped.
    MoveToChild(NodeId),
    /// Wait in this node's FIFO queue until the node becomes unlocked; the
    /// agent is then re-activated as if it had just arrived.
    WaitForUnlock,
    /// Re-activate this agent at the same node (after other already-scheduled
    /// events at the current instant).
    Again,
    /// The agent is done and is removed from the system.
    Terminate,
}

/// Deferred effects collected during one activation.
#[derive(Debug)]
pub(crate) enum Effect<P: Protocol> {
    Lock,
    Unlock,
    Spawn(P::Agent),
    Emit(P::Output),
    ScheduleChange(TopologyChange),
}

/// The view an agent has of the node it is activated at, plus its own taxi
/// counters, plus effect queues (locking, spawning, emitting, scheduling
/// topology changes).
///
/// The controller only ever accesses the whiteboard of the node the agent is
/// currently at, exactly as in the paper's model; `NodeCtx` enforces that by
/// construction.
pub struct NodeCtx<'a, P: Protocol> {
    pub(crate) node: NodeId,
    pub(crate) parent: Option<NodeId>,
    /// Walks the tree arena's sibling links — the hot loop never copies a
    /// child list.
    pub(crate) children: Children<'a>,
    pub(crate) time: u64,
    pub(crate) agent_id: AgentId,
    pub(crate) origin: NodeId,
    pub(crate) dist_from_origin: usize,
    pub(crate) locked_by: Option<AgentId>,
    pub(crate) whiteboard: &'a mut P::Whiteboard,
    pub(crate) effects: Vec<Effect<P>>,
}

impl<'a, P: Protocol> NodeCtx<'a, P> {
    /// The node the agent is activated at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Returns `true` if this node is the root of the spanning tree.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The parent of this node, or `None` at the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The children of this node (a node knows its ports to its children).
    /// The iterator borrows the tree, not the context, so an agent may spawn
    /// or emit while it walks them.
    pub fn children(&self) -> Children<'a> {
        self.children.clone()
    }

    /// The child-degree `deg(v)` of this node.
    pub fn child_degree(&self) -> usize {
        self.children.len()
    }

    /// Current simulated time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The id of the agent being activated.
    pub fn agent_id(&self) -> AgentId {
        self.agent_id
    }

    /// The node at which this agent was created.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Taxi `Distance` query: hop distance from the current node to the
    /// agent's origin.
    pub fn distance_from_origin(&self) -> usize {
        self.dist_from_origin
    }

    /// Returns `true` if the node is currently locked (by any agent).
    pub fn is_locked(&self) -> bool {
        self.locked_by.is_some()
    }

    /// The agent currently holding this node's lock, if any.
    pub fn locked_by(&self) -> Option<AgentId> {
        self.locked_by
    }

    /// Returns `true` if this node is locked by the agent being activated.
    pub fn locked_by_me(&self) -> bool {
        self.locked_by == Some(self.agent_id)
    }

    /// Shared access to this node's whiteboard.
    pub fn whiteboard(&self) -> &P::Whiteboard {
        self.whiteboard
    }

    /// Exclusive access to this node's whiteboard.
    pub fn whiteboard_mut(&mut self) -> &mut P::Whiteboard {
        self.whiteboard
    }

    /// Locks this node on behalf of the activated agent. The taxi records the
    /// child the agent arrived from so that later `Down` moves can retrace the
    /// path.
    pub fn lock(&mut self) {
        self.effects.push(Effect::Lock);
        self.locked_by = Some(self.agent_id);
    }

    /// Unlocks this node. If other agents wait in the node's queue, the first
    /// of them is re-activated.
    pub fn unlock(&mut self) {
        self.effects.push(Effect::Unlock);
        self.locked_by = None;
    }

    /// Spawns a new agent at the current node; it will be activated after the
    /// current activation completes (at the same simulated instant).
    pub fn spawn_agent(&mut self, state: P::Agent) {
        self.effects.push(Effect::Spawn(state));
    }

    /// Emits a protocol output (e.g. "request R was granted"), collected by
    /// the driver via [`Simulator::drain_outputs`](crate::Simulator::drain_outputs).
    pub fn emit(&mut self, output: P::Output) {
        self.effects.push(Effect::Emit(output));
    }

    /// Schedules a granted topological change for graceful application by the
    /// environment ("the requesting entity performs the change after finite
    /// time", paper §2.1.2).
    pub fn schedule_change(&mut self, change: TopologyChange) {
        self.effects.push(Effect::ScheduleChange(change));
    }
}

impl<P: Protocol> fmt::Debug for NodeCtx<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCtx")
            .field("node", &self.node)
            .field("agent", &self.agent_id)
            .field("origin", &self.origin)
            .field("dist_from_origin", &self.dist_from_origin)
            .field("locked_by", &self.locked_by)
            .finish()
    }
}

/// A distributed protocol executed by mobile agents over the simulated
/// network.
///
/// Implementations provide the per-node whiteboard, the agent state, the
/// output type reported to the driving harness, and the agent program itself
/// ([`Protocol::on_activate`]).
pub trait Protocol: Sized {
    /// Per-node protocol state (the paper's *whiteboard*).
    type Whiteboard: fmt::Debug;
    /// Mobile agent state (the paper's agent variables, e.g. its `Bag`).
    type Agent: fmt::Debug;
    /// Outputs reported to the driver (grants, rejects, terminations, …).
    type Output: fmt::Debug;

    /// Creates the whiteboard for a node joining the network. `parent` is
    /// `None` only for the root of the initial network; for nodes added later
    /// it carries the parent's whiteboard, modelling the paper's step in which
    /// a new node is told the protocol parameters (`M`, `W`, `U`) by its
    /// parent.
    fn make_whiteboard(
        &mut self,
        node: NodeId,
        parent: Option<&Self::Whiteboard>,
    ) -> Self::Whiteboard;

    /// Merges the whiteboard of a gracefully removed node into its parent's
    /// whiteboard and returns the number of `O(log N)`-bit messages the
    /// hand-off would cost (accounted as auxiliary messages).
    fn merge_whiteboard(&mut self, removed: Self::Whiteboard, parent: &mut Self::Whiteboard)
        -> u64;

    /// The agent program: invoked every time `agent` is activated at a node
    /// (on creation, on arrival after a hop, and on being dequeued when a
    /// locked node becomes unlocked).
    fn on_activate(&mut self, ctx: &mut NodeCtx<'_, Self>, agent: &mut Self::Agent) -> Action;
}
