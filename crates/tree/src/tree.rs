//! The [`DynamicTree`] arena.

use crate::event::{ChangeLog, TopologyEvent};
use crate::traversal::{Ancestors, DfsIter};
use crate::{NodeId, TreeError};

/// Per-node payload stored in the arena.
#[derive(Clone, Debug)]
struct NodeData {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Cached hop distance to the root, maintained incrementally by every
    /// mutation (`add_internal_above` / `remove_internal` shift whole
    /// subtrees). Verified against a from-scratch recomputation by
    /// [`DynamicTree::check_invariants`].
    depth: usize,
}

/// A dynamic rooted tree supporting the four topological changes of the paper
/// (add/remove leaf, add/remove internal node).
///
/// The tree always contains a root that can never be deleted (paper §2.1.2:
/// "whose root r is never deleted"). Node ids are never reused; the number of
/// ids ever allocated is exposed as [`DynamicTree::total_created`] and plays
/// the role of the paper's quantity `U`.
///
/// ```
/// use dcn_tree::DynamicTree;
/// # fn main() -> Result<(), dcn_tree::TreeError> {
/// let mut t = DynamicTree::new();
/// let a = t.add_leaf(t.root())?;
/// let b = t.add_leaf(a)?;
/// assert_eq!(t.node_count(), 3);
/// assert!(t.is_ancestor(a, b));
/// assert_eq!(t.path_between(b, t.root())?.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DynamicTree {
    /// The spine: one entry per id ever minted, one heap record per live
    /// node. A removed node's record is dropped with it; what stays is the
    /// vacant 8-byte entry that keeps ids sequential and never reused.
    slots: Vec<Option<Box<NodeData>>>,
    root: NodeId,
    node_count: usize,
    /// Topological changes applied through the four mutators so far.
    changes: u64,
    /// Whether a reader asked for the history ([`DynamicTree::record_changes`]).
    recording: bool,
    /// The changes applied since then; empty (and unallocated) otherwise.
    log: ChangeLog,
}

impl Default for DynamicTree {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicTree {
    /// Creates a tree containing only the root node.
    pub fn new() -> Self {
        let root_data = NodeData {
            parent: None,
            children: Vec::new(),
            depth: 0,
        };
        DynamicTree {
            slots: vec![Some(Box::new(root_data))],
            root: NodeId(0),
            node_count: 1,
            changes: 0,
            recording: false,
            log: ChangeLog::default(),
        }
    }

    /// Creates a tree with `extra` leaves hanging directly off the root, for a
    /// total of `extra + 1` nodes (the initial network `n0`).
    pub fn with_initial_star(extra: usize) -> Self {
        let mut t = Self::new();
        for _ in 0..extra {
            #[expect(
                clippy::expect_used,
                reason = "an initial tree that outgrows the id space is a caller bug, like an allocation that outgrows memory"
            )]
            t.add_leaf(t.root).expect("the star fits the id space");
        }
        t
    }

    /// Creates a tree that is a path of `len + 1` nodes starting at the root;
    /// building it counts no [`changes`](Self::changes).
    pub fn with_initial_path(len: usize) -> Self {
        let mut t = Self::new();
        let mut tip = t.root;
        for _ in 0..len {
            #[expect(
                clippy::expect_used,
                reason = "an initial tree that outgrows the id space is a caller bug, like an allocation that outgrows memory"
            )]
            let child = t.attach_leaf(tip).expect("the path fits the id space");
            tip = child;
        }
        t
    }

    /// The root of the tree. The root always exists and is never deleted.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes currently in the tree (the paper's `n`).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Total number of node ids ever allocated, including deleted nodes (the
    /// paper's `U`).
    pub fn total_created(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if `id` currently exists in the tree.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slots.get(id.index()).is_some_and(Option::is_some)
    }

    /// Number of topological changes applied to this tree through
    /// [`add_leaf`](Self::add_leaf), [`remove_leaf`](Self::remove_leaf),
    /// [`add_internal_above`](Self::add_internal_above) and
    /// [`remove_internal`](Self::remove_internal) since it was created. `O(1)`;
    /// a reader that counts the changes of a period takes the difference.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Starts recording every change from now on in the
    /// [`change_log`](Self::change_log). A tree keeps no history until a
    /// reader of the events asks for it here; asking again changes nothing.
    pub fn record_changes(&mut self) {
        if !self.recording {
            self.recording = true;
            self.log = ChangeLog::starting_at(self.node_count);
        }
    }

    /// The changes applied since [`record_changes`](Self::record_changes)
    /// was called on this tree; empty if it never was.
    pub fn change_log(&self) -> &ChangeLog {
        &self.log
    }

    /// Takes the changes recorded so far and leaves an empty log starting at
    /// the current node count, so a reader that replays what it takes keeps
    /// the tree from holding any history (and `sizes_at_changes` stays right
    /// for what is recorded next). Recording, if on, goes on.
    pub fn take_change_log(&mut self) -> ChangeLog {
        std::mem::replace(&mut self.log, ChangeLog::starting_at(self.node_count))
    }

    /// Counts an applied change and records it if a reader asked.
    fn applied(&mut self, event: TopologyEvent) {
        self.changes += 1;
        if self.recording {
            self.log.push(event);
        }
    }

    fn data(&self, id: NodeId) -> Result<&NodeData, TreeError> {
        self.slots
            .get(id.index())
            .and_then(Option::as_deref)
            .ok_or(TreeError::UnknownNode(id))
    }

    /// The record of a node reached through a link of a live node — the
    /// root, a parent or child link, an id `dfs()` yielded, or one the caller
    /// validated with [`data`](Self::data) an instant ago. Such a link always
    /// points at a live slot, so a miss is a corrupted arena.
    #[expect(
        clippy::expect_used,
        reason = "a link of a live node points at a live slot; a miss is a corrupted arena"
    )]
    fn live_mut(&mut self, id: NodeId) -> &mut NodeData {
        self.slots[id.index()]
            .as_deref_mut()
            .expect("a link of a live node points at a live slot")
    }

    /// Puts `with` in `child`'s place in `parent`'s child list, keeping the
    /// order of the others.
    #[expect(
        clippy::expect_used,
        reason = "`parent` was read from `child`'s own parent link, so the back-edge exists"
    )]
    fn replace_child(&mut self, parent: NodeId, child: NodeId, with: &[NodeId]) {
        let children = &mut self.live_mut(parent).children;
        let pos = children
            .iter()
            .position(|&c| c == child)
            .expect("a parent link has its back-edge");
        children.splice(pos..=pos, with.iter().copied());
    }

    /// A cached depth moved by `delta`. The cache is load-bearing, so an
    /// underflow (a corrupted arena) fails loud rather than wraps.
    #[expect(
        clippy::expect_used,
        reason = "a cache below zero is a corrupted arena; fail loud rather than wrap"
    )]
    fn shifted(cached: usize, delta: isize) -> usize {
        cached.checked_add_signed(delta).expect("cache underflow")
    }

    /// The id the next node gets when `minted` ids exist: ids are sequential
    /// and never reused, so the 2³²-th has no id left to take.
    fn next_id(minted: usize) -> Result<NodeId, TreeError> {
        u32::try_from(minted)
            .map(NodeId)
            .map_err(|_| TreeError::IdSpaceExhausted)
    }

    fn alloc(&mut self, data: NodeData) -> Result<NodeId, TreeError> {
        let id = Self::next_id(self.slots.len())?;
        self.slots.push(Some(Box::new(data)));
        self.node_count += 1;
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Parent of `id`, or `None` for the root.
    ///
    /// Returns `None` also for unknown nodes; use [`DynamicTree::contains`]
    /// to distinguish.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).ok().and_then(|d| d.parent)
    }

    /// Children of `id` in insertion order.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if `id` does not exist.
    pub fn children(&self, id: NodeId) -> Result<&[NodeId], TreeError> {
        Ok(&self.data(id)?.children)
    }

    /// Number of children of `id` (the paper's child-degree `deg(v)`).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if `id` does not exist.
    pub fn child_degree(&self, id: NodeId) -> Result<usize, TreeError> {
        Ok(self.data(id)?.children.len())
    }

    /// Returns `true` if `id` is a leaf (no children). The root with no
    /// children counts as a leaf for degree purposes but can never be removed.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if `id` does not exist.
    pub fn is_leaf(&self, id: NodeId) -> Result<bool, TreeError> {
        Ok(self.data(id)?.children.is_empty())
    }

    /// Hop distance from `id` to the root (the paper's *depth*). The root has
    /// depth 0.
    ///
    /// `O(1)`: depths are cached per node and maintained incrementally by
    /// every mutation.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist; use [`DynamicTree::contains`] first when
    /// the id may be stale.
    pub fn depth(&self, id: NodeId) -> usize {
        match self.data(id) {
            Ok(d) => d.depth,
            Err(_) => panic!("depth() called on unknown node {id}"),
        }
    }

    /// Returns `true` if `anc` is an ancestor of `desc` (a node is its own
    /// ancestor, matching the paper's convention).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        if !self.contains(anc) || !self.contains(desc) {
            return false;
        }
        let mut cur = Some(desc);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Iterator over `id` and its ancestors up to and including the root.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(self, id)
    }

    /// The path from `from` up to its ancestor `to`, inclusive of both ends.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if either node does not exist or if
    /// `to` is not an ancestor of `from`.
    pub fn path_between(&self, from: NodeId, to: NodeId) -> Result<Vec<NodeId>, TreeError> {
        if !self.contains(from) {
            return Err(TreeError::UnknownNode(from));
        }
        if !self.contains(to) {
            return Err(TreeError::UnknownNode(to));
        }
        let mut path = Vec::new();
        let mut cur = Some(from);
        while let Some(c) = cur {
            path.push(c);
            if c == to {
                return Ok(path);
            }
            cur = self.parent(c);
        }
        Err(TreeError::UnknownNode(to))
    }

    /// The ancestor of `id` exactly `hops` edges above it, if it exists.
    pub fn ancestor_at_distance(&self, id: NodeId, hops: usize) -> Option<NodeId> {
        let mut cur = id;
        if !self.contains(id) {
            return None;
        }
        for _ in 0..hops {
            cur = self.parent(cur)?;
        }
        Some(cur)
    }

    /// Iterator over all currently existing nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            if s.is_some() {
                Some(NodeId(i as u32))
            } else {
                None
            }
        })
    }

    /// Depth-first (pre-order) traversal starting at `start`.
    pub fn dfs(&self, start: NodeId) -> DfsIter<'_> {
        DfsIter::new(self, start)
    }

    /// Checks internal structural invariants; used by tests and debug builds.
    ///
    /// Verified invariants: parent/child pointers are mutually consistent,
    /// every existing non-root node has an existing parent, the root has no
    /// parent, every node is reachable from the root, the node count matches
    /// the number of occupied slots, and the cached depths agree with a
    /// from-scratch recomputation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(data) = slot else { continue };
            seen += 1;
            let id = NodeId(i as u32);
            match data.parent {
                None => {
                    if id != self.root {
                        return Err(format!("non-root node {id} has no parent"));
                    }
                }
                Some(p) => {
                    let pd = self
                        .data(p)
                        .map_err(|_| format!("parent {p} of {id} does not exist"))?;
                    if !pd.children.contains(&id) {
                        return Err(format!("{p} does not list {id} as a child"));
                    }
                }
            }
            for &c in &data.children {
                let cd = self
                    .data(c)
                    .map_err(|_| format!("child {c} of {id} does not exist"))?;
                if cd.parent != Some(id) {
                    return Err(format!("child {c} of {id} has parent {:?}", cd.parent));
                }
            }
        }
        if seen != self.node_count {
            return Err(format!(
                "node_count {} != occupied slots {}",
                self.node_count, seen
            ));
        }
        let reachable = self.dfs(self.root).count();
        if reachable != self.node_count {
            return Err(format!(
                "only {reachable} of {} nodes reachable from root",
                self.node_count
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(data) = slot else { continue };
            let id = NodeId(i as u32);
            let true_depth = {
                let mut d = 0usize;
                let mut cur = id;
                while let Some(p) = self.parent(cur) {
                    d += 1;
                    cur = p;
                }
                d
            };
            if data.depth != true_depth {
                return Err(format!(
                    "cached depth {} of {id} != recomputed {true_depth}",
                    data.depth
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Adds `delta` to the cached depth of every node in the subtree of
    /// `top` (inclusive) — the whole subtree moves when an internal node is
    /// spliced in or out above it.
    fn shift_subtree_depths(&mut self, top: NodeId, delta: isize) {
        let ids: Vec<NodeId> = self.dfs(top).collect();
        for id in ids {
            let d = self.live_mut(id);
            d.depth = Self::shifted(d.depth, delta);
        }
    }

    /// Attaches a new leaf under `parent` without counting a change: the
    /// initial path and region carving build their trees with it.
    pub(crate) fn attach_leaf(&mut self, parent: NodeId) -> Result<NodeId, TreeError> {
        let depth = self.data(parent)?.depth + 1;
        let child = self.alloc(NodeData {
            parent: Some(parent),
            children: Vec::new(),
            depth,
        })?;
        self.live_mut(parent).children.push(child);
        Ok(child)
    }

    /// **add-leaf**: attaches a new leaf under `parent` and returns its id.
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownNode`] if `parent` does not exist;
    /// * [`TreeError::IdSpaceExhausted`] if every id has been handed out.
    pub fn add_leaf(&mut self, parent: NodeId) -> Result<NodeId, TreeError> {
        let child = self.attach_leaf(parent)?;
        self.applied(TopologyEvent::AddLeaf { parent, child });
        Ok(child)
    }

    /// **remove-leaf**: removes the non-root leaf `node`.
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootImmutable`] if `node` is the root;
    /// * [`TreeError::NotALeaf`] if `node` has children;
    /// * [`TreeError::UnknownNode`] if `node` does not exist.
    pub fn remove_leaf(&mut self, node: NodeId) -> Result<(), TreeError> {
        let data = self.data(node)?;
        // Only the root has no parent.
        let Some(parent) = data.parent else {
            return Err(TreeError::RootImmutable);
        };
        if !data.children.is_empty() {
            return Err(TreeError::NotALeaf(node));
        }
        self.replace_child(parent, node, &[]);
        self.slots[node.index()] = None;
        self.node_count -= 1;
        self.applied(TopologyEvent::RemoveLeaf { parent, node });
        Ok(())
    }

    /// **add-internal**: splits the edge between `below` and its parent with a
    /// new node, which becomes the parent of `below`. Returns the new node.
    ///
    /// # Errors
    ///
    /// * [`TreeError::NoParentEdge`] if `below` is the root;
    /// * [`TreeError::UnknownNode`] if `below` does not exist;
    /// * [`TreeError::IdSpaceExhausted`] if every id has been handed out.
    pub fn add_internal_above(&mut self, below: NodeId) -> Result<NodeId, TreeError> {
        let below_data = self.data(below)?;
        let parent = match below_data.parent {
            Some(p) => p,
            None => return Err(TreeError::NoParentEdge(below)),
        };
        // The new node takes `below`'s old depth.
        let depth = below_data.depth;
        let node = self.alloc(NodeData {
            parent: Some(parent),
            children: vec![below],
            depth,
        })?;
        self.replace_child(parent, below, &[node]);
        self.live_mut(below).parent = Some(node);
        self.shift_subtree_depths(below, 1);
        self.applied(TopologyEvent::AddInternal {
            parent,
            node,
            below,
        });
        Ok(node)
    }

    /// **remove-internal**: removes the non-root node `node`; its children are
    /// adopted by `node`'s parent (in place of `node`, preserving order).
    ///
    /// The paper restricts this operation to nodes of tree-degree larger than
    /// one (i.e. with at least one child); removing a childless node should go
    /// through [`DynamicTree::remove_leaf`].
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootImmutable`] if `node` is the root;
    /// * [`TreeError::NotInternal`] if `node` is a leaf;
    /// * [`TreeError::UnknownNode`] if `node` does not exist.
    pub fn remove_internal(&mut self, node: NodeId) -> Result<(), TreeError> {
        let data = self.data(node)?;
        // Only the root has no parent.
        let Some(parent) = data.parent else {
            return Err(TreeError::RootImmutable);
        };
        if data.children.is_empty() {
            return Err(TreeError::NotInternal(node));
        }
        let children = data.children.clone();
        self.replace_child(parent, node, &children);
        for &c in &children {
            self.live_mut(c).parent = Some(parent);
            self.shift_subtree_depths(c, -1);
        }
        self.slots[node.index()] = None;
        self.node_count -= 1;
        self.applied(TopologyEvent::RemoveInternal { parent, node });
        Ok(())
    }

    /// Removes `node` using whichever of remove-leaf / remove-internal applies.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicTree::remove_leaf`] / [`DynamicTree::remove_internal`].
    pub fn remove(&mut self, node: NodeId) -> Result<(), TreeError> {
        if self.is_leaf(node)? {
            self.remove_leaf(node)
        } else {
            self.remove_internal(node)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tree_has_only_root() {
        let t = DynamicTree::new();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.total_created(), 1);
        assert_eq!(t.depth(t.root()), 0);
        assert!(t.is_leaf(t.root()).unwrap());
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn add_leaf_builds_depths() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        let b = t.add_leaf(a).unwrap();
        let c = t.add_leaf(b).unwrap();
        assert_eq!(t.depth(a), 1);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.depth(c), 3);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.children(a).unwrap(), &[b]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn remove_leaf_rejects_root_and_internal() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        let _b = t.add_leaf(a).unwrap();
        assert_eq!(t.remove_leaf(t.root()), Err(TreeError::RootImmutable));
        assert_eq!(t.remove_leaf(a), Err(TreeError::NotALeaf(a)));
    }

    #[test]
    fn remove_leaf_then_id_is_gone_and_not_reused() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        t.remove_leaf(a).unwrap();
        assert!(!t.contains(a));
        assert_eq!(t.node_count(), 1);
        let b = t.add_leaf(t.root()).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.total_created(), 3);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn add_internal_splits_an_edge() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        let b = t.add_leaf(a).unwrap();
        let mid = t.add_internal_above(b).unwrap();
        assert_eq!(t.parent(mid), Some(a));
        assert_eq!(t.parent(b), Some(mid));
        assert_eq!(t.children(a).unwrap(), &[mid]);
        assert_eq!(t.children(mid).unwrap(), &[b]);
        assert_eq!(t.depth(b), 3);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn add_internal_above_root_is_rejected() {
        let mut t = DynamicTree::new();
        assert_eq!(
            t.add_internal_above(t.root()),
            Err(TreeError::NoParentEdge(t.root()))
        );
    }

    #[test]
    fn remove_internal_reattaches_children_in_place() {
        let mut t = DynamicTree::new();
        let r = t.root();
        let x = t.add_leaf(r).unwrap();
        let a = t.add_leaf(r).unwrap();
        let c1 = t.add_leaf(a).unwrap();
        let c2 = t.add_leaf(a).unwrap();
        let y = t.add_leaf(r).unwrap();
        assert_eq!(t.children(r).unwrap(), &[x, a, y]);
        t.remove_internal(a).unwrap();
        assert_eq!(t.children(r).unwrap(), &[x, c1, c2, y]);
        assert_eq!(t.parent(c1), Some(r));
        assert_eq!(t.parent(c2), Some(r));
        assert!(!t.contains(a));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn remove_internal_rejects_leaves_and_root() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        assert_eq!(t.remove_internal(a), Err(TreeError::NotInternal(a)));
        assert_eq!(t.remove_internal(t.root()), Err(TreeError::RootImmutable));
    }

    #[test]
    fn remove_dispatches_on_degree() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        let b = t.add_leaf(a).unwrap();
        t.remove(a).unwrap(); // internal
        assert_eq!(t.parent(b), Some(t.root()));
        t.remove(b).unwrap(); // leaf
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn ancestry_and_paths() {
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        let b = t.add_leaf(a).unwrap();
        let c = t.add_leaf(b).unwrap();
        let other = t.add_leaf(t.root()).unwrap();
        assert!(t.is_ancestor(t.root(), c));
        assert!(t.is_ancestor(c, c));
        assert!(!t.is_ancestor(other, c));
        assert_eq!(t.path_between(c, a).unwrap(), vec![c, b, a]);
        assert!(t.path_between(c, other).is_err());
        assert_eq!(t.ancestor_at_distance(c, 2), Some(a));
        assert_eq!(t.ancestor_at_distance(c, 9), None);
    }

    #[test]
    fn initial_constructions_do_not_pollute_the_log() {
        let star = DynamicTree::with_initial_star(10);
        assert_eq!(star.node_count(), 11);
        assert!(star.change_log().is_empty());
        let path = DynamicTree::with_initial_path(4);
        assert_eq!(path.node_count(), 5);
        assert_eq!(path.depth(NodeId::from_index(4)), 4);
        assert!(path.change_log().is_empty());
    }

    #[test]
    fn change_log_records_sizes() {
        let mut t = DynamicTree::with_initial_star(2);
        t.record_changes();
        let a = t.add_leaf(t.root()).unwrap();
        let b = t.add_leaf(a).unwrap();
        t.remove_leaf(b).unwrap();
        // Asking twice neither restarts the log nor moves its first size.
        t.record_changes();
        assert_eq!(t.change_log().sizes_at_changes(), vec![3, 4, 5]);
        assert_eq!(
            t.change_log().events()[2],
            TopologyEvent::RemoveLeaf { parent: a, node: b }
        );
        // The count covers the two construction leaves, the log does not.
        assert_eq!(t.changes(), 5);
    }

    #[test]
    fn a_tree_nobody_asked_to_record_holds_no_history() {
        let mut t = DynamicTree::new();
        let mut last = t.root();
        for i in 0..10_000 {
            match i % 4 {
                0 | 1 => last = t.add_leaf(last).unwrap(),
                2 => last = t.add_internal_above(last).unwrap(),
                _ => {
                    let parent = t.parent(last).unwrap();
                    t.remove(last).unwrap();
                    last = parent;
                }
            }
        }
        assert_eq!(t.changes(), 10_000);
        assert!(t.change_log().is_empty());
    }

    /// What a tree costs per id ever minted, per live node and per recorded
    /// change (DESIGN.md §7 "Memory law").
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_spine_entry_is_8_bytes_a_live_node_at_most_40_and_a_log_entry_16() {
        assert_eq!(std::mem::size_of::<Option<Box<NodeData>>>(), 8);
        assert!(std::mem::size_of::<NodeData>() <= 40);
        assert_eq!(std::mem::size_of::<TopologyEvent>(), 16);
    }

    /// The last id is `u32::MAX`; the one after it is an error, not id 0 again.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_id_after_the_last_is_an_error_not_an_alias() {
        let last = u32::MAX as usize;
        assert_eq!(DynamicTree::next_id(last), Ok(NodeId(u32::MAX)));
        assert_eq!(
            DynamicTree::next_id(last + 1),
            Err(TreeError::IdSpaceExhausted)
        );
        assert_eq!(
            DynamicTree::next_id(usize::MAX),
            Err(TreeError::IdSpaceExhausted)
        );
    }

    #[test]
    fn unknown_nodes_are_reported() {
        let mut t = DynamicTree::new();
        let ghost = NodeId::from_index(99);
        assert_eq!(t.add_leaf(ghost), Err(TreeError::UnknownNode(ghost)));
        assert_eq!(t.children(ghost), Err(TreeError::UnknownNode(ghost)));
        assert_eq!(t.remove_leaf(ghost), Err(TreeError::UnknownNode(ghost)));
        assert!(!t.is_ancestor(ghost, t.root()));
    }
}
