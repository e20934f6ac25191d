//! Struct-of-arrays hot state for the simulator's event loop.
//!
//! PR 5 moved per-entity state out of hashed maps into dense
//! `SecondaryMap`s; this module goes one step further and fuses the four
//! parallel maps (whiteboards / node taxi / ports, and the agent table) into
//! two struct-of-arrays containers with a **single liveness discriminator**
//! each: a node exists iff its whiteboard slot is `Some`, an agent is
//! resident iff its state slot is `Some`. One `Activate` then pays one
//! presence check and direct indexing into plain `Vec`s, instead of four
//! separate `Vec<Option<_>>` probes with four redundant discriminants.
//!
//! Entity ids (`NodeId`, `AgentId`) are arena-dense and never reused, so
//! slots are written once and the arrays grow with `total_created` — the
//! same memory law the `SecondaryMap`s had.

use crate::ports::PortMap;
use crate::protocol::AgentId;
use crate::taxi::{AgentTaxi, NodeTaxi};
use crate::NodeId;
use dcn_collections::EntityKey;

/// Per-node hot state: parallel arrays indexed by the node's arena index.
/// The whiteboard slot doubles as the liveness discriminator — `taxi` and
/// `ports` entries of dead slots are default-valued and must only be reached
/// through the liveness-gated accessors.
pub(crate) struct HotNodeState<W> {
    whiteboards: Vec<Option<W>>,
    taxi: Vec<NodeTaxi>,
    ports: Vec<PortMap>,
}

impl<W> HotNodeState<W> {
    pub fn with_capacity(capacity: usize) -> Self {
        let mut state = HotNodeState {
            whiteboards: Vec::new(),
            taxi: Vec::new(),
            ports: Vec::new(),
        };
        state.ensure(capacity);
        state
    }

    /// Grows all three arrays to cover indices `0..len` with dead slots.
    fn ensure(&mut self, len: usize) {
        if self.whiteboards.len() < len {
            self.whiteboards.resize_with(len, || None);
            self.taxi.resize_with(len, NodeTaxi::new);
            self.ports.resize_with(len, PortMap::default);
        }
    }

    #[inline]
    fn slot(&self, node: NodeId) -> Option<usize> {
        let i = node.index();
        (i < self.whiteboards.len() && self.whiteboards[i].is_some()).then_some(i)
    }

    /// Marks `node` live with a fresh whiteboard and taxi state (ports keep
    /// whatever assignments they already accumulated — ids are never reused,
    /// so a fresh slot's port map is empty).
    pub fn insert(&mut self, node: NodeId, whiteboard: W) {
        let i = node.index();
        self.ensure(i + 1);
        self.whiteboards[i] = Some(whiteboard);
        self.taxi[i] = NodeTaxi::new();
    }

    /// Kills `node`, returning its whiteboard and resetting its taxi/port
    /// state (releasing the queue and port allocations).
    pub fn remove(&mut self, node: NodeId) -> Option<W> {
        let i = self.slot(node)?;
        self.taxi[i] = NodeTaxi::new();
        self.ports[i] = PortMap::default();
        self.whiteboards[i].take()
    }

    #[cfg(test)]
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot(node).is_some()
    }

    #[inline]
    pub fn whiteboard(&self, node: NodeId) -> Option<&W> {
        let i = node.index();
        self.whiteboards.get(i).and_then(Option::as_ref)
    }

    #[inline]
    pub fn whiteboard_mut(&mut self, node: NodeId) -> Option<&mut W> {
        let i = node.index();
        self.whiteboards.get_mut(i).and_then(Option::as_mut)
    }

    #[inline]
    pub fn taxi(&self, node: NodeId) -> Option<&NodeTaxi> {
        self.slot(node).map(|i| &self.taxi[i])
    }

    #[inline]
    pub fn taxi_mut(&mut self, node: NodeId) -> Option<&mut NodeTaxi> {
        self.slot(node).map(|i| &mut self.taxi[i])
    }

    #[inline]
    pub fn ports(&self, node: NodeId) -> Option<&PortMap> {
        self.slot(node).map(|i| &self.ports[i])
    }

    /// Ungated port access for topology rewiring: the caller has already
    /// established the node is part of the change, and a port map physically
    /// exists for every slot.
    #[inline]
    pub fn ports_raw_mut(&mut self, node: NodeId) -> &mut PortMap {
        let i = node.index();
        self.ensure(i + 1);
        &mut self.ports[i]
    }

    /// Live whiteboards in node-index order (the deterministic iteration
    /// order the sweep reports rely on).
    pub fn iter_whiteboards(&self) -> impl Iterator<Item = (NodeId, &W)> {
        self.whiteboards
            .iter()
            .enumerate()
            .filter_map(|(i, wb)| wb.as_ref().map(|w| (NodeId::from_index(i), w)))
    }
}

/// The agent table: agent program state and taxi counters in parallel
/// arrays indexed by the agent's id. Ids are handed out sequentially by
/// [`AgentTable::create`], so the state slot's index *is* the id.
///
/// During an activation the agent's program state is moved out
/// ([`AgentTable::take_state`]) and handed to the protocol by value, then
/// moved back in (or dropped on termination); the taxi counters always stay
/// in the table and are mutated in place. `len()` therefore counts agents
/// *excluding* one whose state is currently checked out.
pub(crate) struct AgentTable<A> {
    states: Vec<Option<A>>,
    taxi: Vec<AgentTaxi>,
    live: usize,
}

impl<A> AgentTable<A> {
    pub fn new() -> Self {
        AgentTable {
            states: Vec::new(),
            taxi: Vec::new(),
            live: 0,
        }
    }

    /// Number of agents currently resident (state present).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Registers a new agent at `origin` and returns its (sequential) id.
    pub fn create(&mut self, state: A, origin: NodeId) -> AgentId {
        let id = AgentId(self.states.len() as u64);
        self.states.push(Some(state));
        self.taxi.push(AgentTaxi::new(origin));
        self.live += 1;
        id
    }

    /// Checks the agent's program state out of the table (for an activation
    /// or a drop). Returns `None` if the agent never existed or is already
    /// gone.
    #[inline]
    pub fn take_state(&mut self, agent: AgentId) -> Option<A> {
        let state = self.states.get_mut(agent.index())?.take();
        if state.is_some() {
            self.live -= 1;
        }
        state
    }

    /// Checks a state back in after an activation.
    #[inline]
    pub fn put_state(&mut self, agent: AgentId, state: A) {
        debug_assert!(self.states[agent.index()].is_none());
        self.states[agent.index()] = Some(state);
        self.live += 1;
    }

    /// The taxi counters of `agent`. Valid for every id ever created (taxi
    /// state survives the state checkout).
    #[inline]
    pub fn taxi_mut(&mut self, agent: AgentId) -> &mut AgentTaxi {
        &mut self.taxi[agent.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn node_liveness_follows_the_whiteboard_slot() {
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(2);
        assert!(!hot.contains(n(0)));
        assert!(hot.taxi(n(0)).is_none());
        hot.insert(n(0), 7);
        assert!(hot.contains(n(0)));
        assert_eq!(hot.whiteboard(n(0)), Some(&7));
        hot.taxi_mut(n(0)).unwrap().inbound = 3;
        assert_eq!(hot.remove(n(0)), Some(7));
        assert!(!hot.contains(n(0)));
        assert!(hot.taxi(n(0)).is_none());
        // A dead slot's taxi state was reset, not leaked.
        hot.insert(n(0), 9);
        assert_eq!(hot.taxi(n(0)).unwrap().inbound, 0);
    }

    #[test]
    fn arrays_grow_on_demand_past_the_initial_capacity() {
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(1);
        hot.insert(n(5), 42);
        assert_eq!(hot.whiteboard(n(5)), Some(&42));
        assert!(!hot.contains(n(3)));
        hot.ports_raw_mut(n(8)).len(); // ungated access also grows
        assert!(!hot.contains(n(8)));
    }

    #[test]
    fn whiteboard_iteration_is_in_index_order() {
        let mut hot: HotNodeState<&str> = HotNodeState::with_capacity(4);
        hot.insert(n(3), "three");
        hot.insert(n(1), "one");
        let seen: Vec<(NodeId, &&str)> = hot.iter_whiteboards().collect();
        assert_eq!(seen, vec![(n(1), &"one"), (n(3), &"three")]);
    }

    #[test]
    fn agent_states_check_out_and_back_in() {
        let mut agents: AgentTable<&str> = AgentTable::new();
        let a = agents.create("walker", n(0));
        let b = agents.create("waver", n(1));
        assert_eq!(agents.len(), 2);
        assert_eq!(agents.take_state(a), Some("walker"));
        assert_eq!(agents.len(), 1);
        // Taxi state survives the checkout.
        agents.taxi_mut(a).hop_away(n(0), n(1));
        agents.put_state(a, "walker");
        assert_eq!(agents.len(), 2);
        // Terminating = never putting the state back.
        assert_eq!(agents.take_state(b), Some("waver"));
        assert_eq!(agents.take_state(b), None);
        assert_eq!(agents.len(), 1);
    }
}
