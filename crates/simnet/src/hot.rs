//! Struct-of-arrays hot state for the simulator's event loop.
//!
//! PR 5 moved per-entity state out of hashed maps into dense
//! `SecondaryMap`s; this module goes one step further and fuses the four
//! parallel maps (whiteboards / node taxi / ports, and the agent table) into
//! two containers with a **single liveness discriminator** each: a node
//! exists iff its whiteboard slot is `Some`, an agent is live iff it has a
//! slot. One `Activate` then pays one presence check per entity and direct
//! indexing, instead of four separate `Vec<Option<_>>` probes with four
//! redundant discriminants.
//!
//! Entity ids (`NodeId`, `AgentId`) are arena-dense and never reused. A
//! node's slots are written once and the node arrays (struct-of-arrays)
//! grow with `total_created`, the tree arena's own memory law; agents come
//! and go by the million, so the agent table keeps one slot (program state
//! and taxi counters together) for each live one only, in a [`SlidingMap`]
//! window over their ids.

use crate::ports::PortMap;
use crate::protocol::AgentId;
use crate::taxi::{AgentTaxi, NodeTaxi};
use crate::NodeId;
use dcn_collections::SlidingMap;

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

/// One live agent: its program state and its taxi counters.
pub(crate) struct AgentSlot<A> {
    pub state: A,
    pub taxi: AgentTaxi,
}

/// The agent table: one slot per *live* agent, in a window over the agent
/// ids. Ids are handed out sequentially by [`AgentTable::create`] and never
/// reused, and agents are short-lived, so the live ones are a narrow band
/// below the newest id and the table's memory follows them. One agent that
/// waits (queued behind a lock) while newer ones come and go pins the window
/// until it terminates — a span liveness bounds.
///
/// An activation works on the slot in place ([`AgentTable::get_mut`]); the
/// slot lives until the simulator drops it ([`AgentTable::retire`]) at the
/// end of the agent's last activation.
pub(crate) struct AgentTable<A> {
    slots: SlidingMap<AgentId, AgentSlot<A>>,
    next_id: u64,
}

impl<A> AgentTable<A> {
    pub fn new() -> Self {
        AgentTable {
            slots: SlidingMap::new(),
            next_id: 0,
        }
    }

    /// Number of live agents.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Width of the id window the table currently holds slots for.
    #[cfg(test)]
    pub fn span(&self) -> usize {
        self.slots.span()
    }

    /// Registers a new agent at `origin` and returns its (sequential) id.
    pub fn create(&mut self, state: A, origin: NodeId) -> AgentId {
        let id = AgentId(self.next_id);
        self.next_id += 1;
        let taxi = AgentTaxi::new(origin);
        self.slots.insert(id, AgentSlot { state, taxi });
        id
    }

    /// The slot of `agent`; `None` if the agent never existed or is gone.
    #[inline]
    pub fn get_mut(&mut self, agent: AgentId) -> Option<&mut AgentSlot<A>> {
        self.slots.get_mut(agent)
    }

    /// Drops the slot of an agent that terminated or was dropped; the window
    /// slides past it.
    pub fn retire(&mut self, agent: AgentId) {
        self.slots.remove(agent);
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

    /// (The name is from when an activation moved the state out of the
    /// table and back; the "check-out" is a `get_mut` borrow now.)
    #[test]
    fn agent_states_check_out_and_back_in() {
        let mut agents: AgentTable<&str> = AgentTable::new();
        let a = agents.create("walker", n(0));
        let b = agents.create("waver", n(1));
        assert_eq!(agents.len(), 2);
        let slot = agents.get_mut(a).unwrap();
        assert_eq!((slot.state, slot.taxi.origin), ("walker", n(0)));
        slot.state = "climber";
        slot.taxi.hop_away(n(0), n(1));
        let slot = agents.get_mut(a).unwrap();
        assert_eq!((slot.state, slot.taxi.dist_from_origin), ("climber", 1));
        agents.retire(b);
        assert!(agents.get_mut(b).is_none());
        assert_eq!(agents.len(), 1);
    }

    #[test]
    fn the_agent_window_slides_past_retired_agents_and_ids_stay_sequential() {
        let mut agents: AgentTable<u32> = AgentTable::new();
        let parked = agents.create(0, n(0));
        for i in 1..1000u64 {
            let a = agents.create(i as u32, n(0));
            assert_eq!(a.raw(), i);
            agents.retire(a);
            // The parked agent pins the window's front…
            assert_eq!((agents.len(), agents.span()), (1, 1));
        }
        let newest = agents.create(7, n(1));
        assert_eq!(agents.span(), 1001);
        // …until it is retired.
        agents.retire(parked);
        assert_eq!(agents.span(), 1);
        assert_eq!(agents.get_mut(newest).map(|s| s.taxi.origin), Some(n(1)));
        assert!(agents.get_mut(parked).is_none());
    }
}
