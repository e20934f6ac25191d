//! Hot state for the simulator's event loop: one record per live node, one
//! slot per live agent.
//!
//! Everything the loop keeps about a node — its whiteboard and its taxi
//! state, which is all §4.3.2 lets an agent read — sits in one heap record
//! behind one spine entry, and the entry is the **single liveness
//! discriminator**: a node exists iff its entry is `Some`. One `Activate`
//! pays one presence check and one pointer per node it touches, and a
//! removed node gives its whole record back.
//!
//! Entity ids (`NodeId`, `AgentId`) are arena-dense and never reused, so
//! both tables follow the live entities, not the ids: the node spine keeps a
//! vacant 8-byte entry per dead id (the tree arena's own memory law) and the
//! record only while the node lives; agents come and go by the million, so
//! the agent table keeps one slot (program state and taxi counters together)
//! for each live one only, in a [`SlidingMap`] window over their ids.

use crate::protocol::AgentId;
use crate::taxi::{AgentTaxi, NodeTaxi};
use crate::NodeId;
use dcn_collections::SlidingMap;

/// One live node: its whiteboard and its taxi state.
pub(crate) struct NodeSlot<W> {
    pub whiteboard: W,
    pub taxi: NodeTaxi,
}

/// Per-node hot state: a spine indexed by the node's arena index whose entry
/// is `Some` exactly while the node lives. Every accessor reads a dead or
/// never-minted id as `None`.
pub(crate) struct HotNodeState<W> {
    slots: Vec<Option<Box<NodeSlot<W>>>>,
}

impl<W> HotNodeState<W> {
    pub fn with_capacity(capacity: usize) -> Self {
        HotNodeState {
            slots: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn slot(&self, node: NodeId) -> Option<&NodeSlot<W>> {
        self.slots.get(node.index())?.as_deref()
    }

    /// The whole record of live `node`, for a caller that works on more than
    /// one part of it.
    #[inline]
    pub fn slot_mut(&mut self, node: NodeId) -> Option<&mut NodeSlot<W>> {
        self.slots.get_mut(node.index())?.as_deref_mut()
    }

    /// Marks `node` live with `whiteboard` and fresh taxi state.
    pub fn insert(&mut self, node: NodeId, whiteboard: W) {
        let i = node.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(Box::new(NodeSlot {
            whiteboard,
            taxi: NodeTaxi::new(),
        }));
    }

    /// Kills `node`, returning its whiteboard; its taxi state goes with the
    /// record.
    pub fn remove(&mut self, node: NodeId) -> Option<W> {
        let slot = self.slots.get_mut(node.index())?.take()?;
        Some(slot.whiteboard)
    }

    #[cfg(test)]
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot(node).is_some()
    }

    #[inline]
    pub fn whiteboard(&self, node: NodeId) -> Option<&W> {
        self.slot(node).map(|s| &s.whiteboard)
    }

    #[inline]
    pub fn whiteboard_mut(&mut self, node: NodeId) -> Option<&mut W> {
        self.slot_mut(node).map(|s| &mut s.whiteboard)
    }

    #[inline]
    pub fn taxi(&self, node: NodeId) -> Option<&NodeTaxi> {
        self.slot(node).map(|s| &s.taxi)
    }

    #[inline]
    pub fn taxi_mut(&mut self, node: NodeId) -> Option<&mut NodeTaxi> {
        self.slot_mut(node).map(|s| &mut s.taxi)
    }

    /// Live whiteboards in node-index order (the deterministic iteration
    /// order the sweep reports rely on).
    pub fn iter_whiteboards(&self) -> impl Iterator<Item = (NodeId, &W)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            let slot = slot.as_deref()?;
            Some((NodeId::from_index(i), &slot.whiteboard))
        })
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
    fn the_spine_grows_on_insert_and_never_on_read() {
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(1);
        hot.insert(n(5), 42);
        assert_eq!(hot.whiteboard(n(5)), Some(&42));
        assert!(!hot.contains(n(3)));
        // Reading past the spine neither grows it nor finds anything.
        assert!(hot.taxi(n(8)).is_none());
        assert_eq!(hot.slots.len(), 6);
    }

    /// What the simulator keeps per id ever minted and per live node
    /// (DESIGN.md §7 "Memory law"): a vacant 8-byte entry, one record.
    #[test]
    fn a_removed_node_leaves_one_vacant_spine_entry_and_no_record() {
        #[cfg(target_pointer_width = "64")]
        {
            use std::mem::size_of;
            assert_eq!(size_of::<Option<Box<NodeSlot<[u64; 18]>>>>(), 8);
            assert_eq!(size_of::<NodeTaxi>(), 88);
            assert_eq!(size_of::<NodeSlot<[u64; 18]>>(), 232);
        }
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(0);
        hot.insert(n(0), 0);
        // The churn shape: a leaf under node 0 comes, an older one goes.
        let mut live = vec![n(0)];
        for i in 1..=10_000usize {
            hot.insert(n(i), i as u64);
            hot.taxi_mut(n(i)).unwrap().inbound = 1;
            live.push(n(i));
            if live.len() > 8 {
                let gone = live.remove(1);
                assert_eq!(hot.remove(gone), Some(gone.index() as u64));
                assert!(hot.whiteboard(gone).is_none() && hot.whiteboard_mut(gone).is_none());
                assert!(hot.taxi(gone).is_none() && hot.taxi_mut(gone).is_none());
                assert_eq!(hot.remove(gone), None);
            }
            let records = hot.slots.iter().flatten().count();
            assert_eq!(records, live.len());
        }
        assert_eq!(hot.slots.len(), 10_001);
        let seen: Vec<NodeId> = hot.iter_whiteboards().map(|(id, _)| id).collect();
        assert_eq!(seen, live);
        // Ids far past the spine read as absent too.
        assert!(hot.taxi(n(u32::MAX as usize)).is_none());
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
    fn an_agent_slot_is_edited_in_place_until_it_is_retired() {
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
