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
//! both tables follow the live entities, not the ids. The node spine is
//! indexed by the tree's record slot ([`DynamicTree::record_slot`]), not by
//! the id: it is as long as the most nodes ever live at once, and a dead id
//! leaves nothing here (only the tree's own 4-byte spine entry). The record
//! stays boxed: an entry is 8 B, so the spine's spare capacity and the slots
//! freed since the peak cost 8 B each, not a whole record. Agents come and
//! go by the million, so the agent table keeps one
//! slot (program state and taxi counters together) for each live one only,
//! in a [`SlidingMap`] window over their ids.

use crate::protocol::AgentId;
use crate::taxi::{AgentTaxi, NodeTaxi};
use crate::{DynamicTree, NodeId};
use dcn_collections::SlidingMap;

/// One live node: its whiteboard and its taxi state.
pub(crate) struct NodeSlot<W> {
    pub whiteboard: W,
    pub taxi: NodeTaxi,
}

/// Per-node hot state: a spine indexed by the node's record slot in the
/// tree, whose entry is `Some` exactly while the node lives. Every accessor
/// takes the tree that maps ids to slots and reads a dead or never-minted id
/// as `None`. The simulator vacates a node's entry before the tree frees its
/// slot and fills it after the tree hands the slot out, so an entry never
/// outlives its node.
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
    fn slot(&self, tree: &DynamicTree, node: NodeId) -> Option<&NodeSlot<W>> {
        self.slots.get(tree.record_slot(node)?)?.as_deref()
    }

    /// The whole record of live `node`, for a caller that works on more than
    /// one part of it.
    #[inline]
    pub fn slot_mut(&mut self, tree: &DynamicTree, node: NodeId) -> Option<&mut NodeSlot<W>> {
        self.slots.get_mut(tree.record_slot(node)?)?.as_deref_mut()
    }

    /// Gives `node`, which `tree` holds, `whiteboard` and fresh taxi state.
    pub fn insert(&mut self, tree: &DynamicTree, node: NodeId, whiteboard: W) {
        debug_assert!(tree.contains(node), "{node} is not in the tree");
        let Some(i) = tree.record_slot(node) else {
            return;
        };
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        debug_assert!(self.slots[i].is_none(), "slot {i} is still held");
        self.slots[i] = Some(Box::new(NodeSlot {
            whiteboard,
            taxi: NodeTaxi::new(),
        }));
    }

    /// Vacates `node`'s entry, returning its whiteboard; its taxi state goes
    /// with the record. Called while `tree` still holds `node`.
    pub fn remove(&mut self, tree: &DynamicTree, node: NodeId) -> Option<W> {
        let slot = self.slots.get_mut(tree.record_slot(node)?)?.take()?;
        Some(slot.whiteboard)
    }

    #[inline]
    pub fn whiteboard(&self, tree: &DynamicTree, node: NodeId) -> Option<&W> {
        self.slot(tree, node).map(|s| &s.whiteboard)
    }

    #[inline]
    pub fn whiteboard_mut(&mut self, tree: &DynamicTree, node: NodeId) -> Option<&mut W> {
        self.slot_mut(tree, node).map(|s| &mut s.whiteboard)
    }

    #[inline]
    pub fn taxi(&self, tree: &DynamicTree, node: NodeId) -> Option<&NodeTaxi> {
        self.slot(tree, node).map(|s| &s.taxi)
    }

    #[inline]
    pub fn taxi_mut(&mut self, tree: &DynamicTree, node: NodeId) -> Option<&mut NodeTaxi> {
        self.slot_mut(tree, node).map(|s| &mut s.taxi)
    }

    /// Live whiteboards in node-id order (the deterministic iteration order
    /// the sweep reports rely on), read off the tree's spine.
    pub fn iter_whiteboards<'a>(
        &'a self,
        tree: &'a DynamicTree,
    ) -> impl Iterator<Item = (NodeId, &'a W)> {
        tree.nodes()
            .filter_map(|node| Some((node, self.whiteboard(tree, node)?)))
    }

    /// Length of the spine: one entry per record slot the tree ever used.
    #[cfg(test)]
    pub fn spine_len(&self) -> usize {
        self.slots.len()
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

    /// Adds a leaf under `parent` to the tree, then gives it `wb` — the
    /// simulator's order.
    fn add<W>(hot: &mut HotNodeState<W>, tree: &mut DynamicTree, parent: NodeId, wb: W) -> NodeId {
        let node = tree.add_leaf(parent).unwrap();
        hot.insert(tree, node, wb);
        node
    }

    /// Vacates `node`'s entry, then removes it from the tree — the
    /// simulator's order.
    fn kill<W>(hot: &mut HotNodeState<W>, tree: &mut DynamicTree, node: NodeId) -> Option<W> {
        let wb = hot.remove(tree, node);
        tree.remove(node).unwrap();
        wb
    }

    #[test]
    fn node_liveness_follows_the_whiteboard_slot() {
        let mut tree = DynamicTree::new();
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(2);
        let root = tree.root();
        // A node the tree holds but the table was not told about reads as
        // absent, and so does an id the tree never minted.
        assert!(hot.taxi(&tree, root).is_none());
        assert!(hot.whiteboard(&tree, n(1)).is_none());
        hot.insert(&tree, root, 1);
        let a = add(&mut hot, &mut tree, root, 7);
        assert_eq!(hot.whiteboard(&tree, a), Some(&7));
        hot.taxi_mut(&tree, a).unwrap().inbound = 3;
        assert_eq!(kill(&mut hot, &mut tree, a), Some(7));
        assert!(hot.whiteboard(&tree, a).is_none() && hot.taxi(&tree, a).is_none());
        assert_eq!(hot.remove(&tree, a), None);
        // The next node takes the dead one's slot with fresh taxi state.
        let b = add(&mut hot, &mut tree, root, 9);
        assert_eq!(tree.record_slot(b), Some(1));
        assert_eq!(hot.whiteboard(&tree, b), Some(&9));
        assert_eq!(hot.taxi(&tree, b).unwrap().inbound, 0);
        // The dead id still reads as absent though its slot is taken again.
        assert!(hot.whiteboard(&tree, a).is_none() && hot.taxi(&tree, a).is_none());
        assert_eq!(hot.spine_len(), 2);
    }

    #[test]
    fn the_spine_grows_on_insert_and_never_on_read() {
        let mut tree = DynamicTree::with_initial_star(5);
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(1);
        hot.insert(&tree, n(5), 42);
        assert_eq!(hot.whiteboard(&tree, n(5)), Some(&42));
        assert!(hot.taxi(&tree, n(3)).is_none());
        assert_eq!(hot.spine_len(), 6);
        // Reading ids past the tree's spine neither grows the table nor
        // finds anything.
        assert!(hot.taxi(&tree, n(8)).is_none());
        assert!(hot.taxi(&tree, n(u32::MAX as usize)).is_none());
        assert_eq!(hot.spine_len(), 6);
        // Nor does an insertion into a slot below the end.
        tree.remove(n(2)).unwrap();
        let c = tree.add_leaf(tree.root()).unwrap();
        hot.insert(&tree, c, 1);
        assert_eq!((tree.record_slot(c), hot.spine_len()), (Some(2), 6));
    }

    /// What the simulator keeps per live node and per dead id (DESIGN.md §7
    /// "Memory law"): one record behind an 8-byte entry per slot, nothing
    /// per dead id.
    #[test]
    fn a_removed_node_leaves_no_entry_and_the_spine_follows_the_live_nodes() {
        #[cfg(target_pointer_width = "64")]
        {
            use std::mem::size_of;
            assert_eq!(size_of::<Option<Box<NodeSlot<[u64; 18]>>>>(), 8);
            assert_eq!(size_of::<NodeTaxi>(), 88);
            assert_eq!(size_of::<NodeSlot<[u64; 18]>>(), 232);
        }
        let mut tree = DynamicTree::new();
        let mut hot: HotNodeState<u64> = HotNodeState::with_capacity(0);
        let root = tree.root();
        hot.insert(&tree, root, 0);
        // The churn shape: a leaf under the root comes, an older one goes.
        let mut live = vec![root];
        for i in 1..=10_000u64 {
            let leaf = add(&mut hot, &mut tree, root, i);
            hot.taxi_mut(&tree, leaf).unwrap().inbound = 1;
            live.push(leaf);
            if live.len() > 8 {
                let gone = live.remove(1);
                assert_eq!(kill(&mut hot, &mut tree, gone), Some(gone.index() as u64));
                assert!(hot.whiteboard(&tree, gone).is_none());
                assert!(hot.whiteboard_mut(&tree, gone).is_none());
                assert!(hot.taxi(&tree, gone).is_none() && hot.taxi_mut(&tree, gone).is_none());
                assert_eq!(hot.remove(&tree, gone), None);
            }
            let records = hot.slots.iter().flatten().count();
            assert_eq!(records, live.len());
        }
        assert_eq!(tree.total_created(), 10_001);
        // Nine nodes at most were ever live at once: nine entries, not one
        // per id ever minted.
        assert_eq!(hot.spine_len(), 9);
        let seen: Vec<NodeId> = hot.iter_whiteboards(&tree).map(|(id, _)| id).collect();
        assert_eq!(seen, live);
    }

    /// Node-index (id) order, whatever slots the tree handed out.
    #[test]
    fn whiteboard_iteration_is_in_index_order() {
        let mut tree = DynamicTree::with_initial_star(3);
        let mut hot: HotNodeState<&str> = HotNodeState::with_capacity(4);
        hot.insert(&tree, n(0), "root");
        hot.insert(&tree, n(2), "two");
        hot.insert(&tree, n(3), "three");
        // `n(1)` holds slot 1 in the tree but has no entry: skipped.
        kill(&mut hot, &mut tree, n(3));
        kill(&mut hot, &mut tree, n(1));
        // Slot 1 goes to the newest id, slot 3 to the one after it.
        let four = add(&mut hot, &mut tree, n(0), "four");
        let five = add(&mut hot, &mut tree, n(0), "five");
        assert_eq!(
            (tree.record_slot(four), tree.record_slot(five)),
            (Some(1), Some(3))
        );
        let seen: Vec<(NodeId, &&str)> = hot.iter_whiteboards(&tree).collect();
        assert_eq!(
            seen,
            vec![
                (n(0), &"root"),
                (n(2), &"two"),
                (four, &"four"),
                (five, &"five")
            ]
        );
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
