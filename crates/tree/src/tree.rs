//! The [`DynamicTree`] arena.

use crate::event::{ChangeLog, TopologyEvent};
use crate::traversal::{preorder_next, Ancestors, Children, DfsIter};
use crate::{NodeId, TreeError};

/// The "no link" mark of a record's links and the vacant mark of a spine
/// entry. Links name record indices, not ids, so the id `u32::MAX` stays an
/// id like any other; a record index never reaches this value.
pub(crate) const NIL: u32 = u32::MAX;

/// The flat record of one live node. Every link is the index of another
/// record (or [`NIL`]), so walking the tree never goes through the spine.
/// The children of a node form a doubly linked list in insertion order
/// through their `prev` / `next` links; a vacant record is on the free list
/// through its `next` link.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    /// The id this record belongs to.
    pub(crate) id: NodeId,
    pub(crate) parent: u32,
    pub(crate) first: u32,
    pub(crate) last: u32,
    pub(crate) prev: u32,
    pub(crate) next: u32,
    /// Number of children (the paper's child-degree).
    pub(crate) degree: u32,
    /// Cached hop distance to the root, maintained incrementally by every
    /// mutation (`add_internal_above` / `remove_internal` shift whole
    /// subtrees). Verified against a from-scratch recomputation by
    /// [`DynamicTree::check_invariants`].
    pub(crate) depth: u32,
}

impl Record {
    /// A childless record under `parent`, after the sibling `prev`. It
    /// carries the root's id until its maker ([`DynamicTree::alloc`] or
    /// [`DynamicTree::from_parents`]) gives it its own.
    fn leaf(parent: u32, prev: u32, depth: u32) -> Self {
        Record {
            id: NodeId(0),
            parent,
            first: NIL,
            last: NIL,
            prev,
            next: NIL,
            degree: 0,
            depth,
        }
    }
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
    /// The spine: one 4-byte entry per id ever minted, holding the index of
    /// the id's record, or [`NIL`] once the node is removed. The vacant entry
    /// is what keeps ids sequential and never reused.
    spine: Vec<u32>,
    /// One flat record per live node, no heap allocation of its own. A
    /// removed node's record goes on the free list headed by `free` and is
    /// the next one reused (last in, first out).
    records: Vec<Record>,
    free: u32,
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
        Self::from_parents(0, |_| 0)
    }

    /// Builds a tree of the root and `n` more nodes in one pass: node `i`
    /// (`1 ≤ i ≤ n`, in order) hangs under node `parent_of(i)`, after the
    /// siblings built before it. Both vectors are sized once, and each
    /// record and its sibling links are written in place. A built tree has
    /// made no [`changes`](Self::changes).
    ///
    /// # Panics
    ///
    /// Panics unless `parent_of(i) < i`, or if `n + 1` nodes do not fit the
    /// id space.
    pub fn from_parents(n: usize, mut parent_of: impl FnMut(usize) -> usize) -> Self {
        // Record indices stay below `NIL`, and a built node's index is its id.
        #[expect(
            clippy::expect_used,
            reason = "an initial tree that outgrows the id space is a caller bug, like an allocation that outgrows memory"
        )]
        let last = u32::try_from(n)
            .ok()
            .filter(|&r| r != NIL)
            .expect("the tree fits the id space");
        // A fresh tree keeps every id in the record of the same index.
        let (mut spine, mut records) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        spine.push(0);
        records.push(Record::leaf(NIL, NIL, 0));
        for i in 1..=last {
            spine.push(i);
            let p = parent_of(i as usize);
            // `records` holds nodes `0..i`, so a parent not below `i` panics here.
            let above = &mut records[p];
            let (prev, depth) = (above.last, above.depth + 1);
            above.last = i;
            above.degree += 1;
            match prev {
                NIL => above.first = i,
                prev => records[prev as usize].next = i,
            }
            records.push(Record {
                id: NodeId(i),
                ..Record::leaf(p as u32, prev, depth)
            });
        }
        DynamicTree {
            spine,
            records,
            free: NIL,
            root: NodeId(0),
            node_count: n + 1,
            changes: 0,
            recording: false,
            log: ChangeLog::default(),
        }
    }

    /// Creates a tree with `extra` leaves hanging directly off the root, for a
    /// total of `extra + 1` nodes (the initial network `n0`).
    pub fn with_initial_star(extra: usize) -> Self {
        Self::from_parents(extra, |_| 0)
    }

    /// Creates a tree that is a path of `len + 1` nodes starting at the root.
    pub fn with_initial_path(len: usize) -> Self {
        Self::from_parents(len, |i| i - 1)
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
        self.spine.len()
    }

    /// Returns `true` if `id` currently exists in the tree.
    pub fn contains(&self, id: NodeId) -> bool {
        self.slot(id).is_ok()
    }

    /// The index of live `id`'s record, or `None` if `id` does not exist. A
    /// side table keyed by it holds an entry per record, so it is as long as
    /// the most nodes ever live at once, not the ids ever minted: the index
    /// stays the same while the node lives, and a removed node's index is
    /// the next one a new node gets (last in, first out).
    pub fn record_slot(&self, id: NodeId) -> Option<usize> {
        self.slot(id).ok().map(|r| r as usize)
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

    /// The record index of a live node.
    fn slot(&self, id: NodeId) -> Result<u32, TreeError> {
        match self.spine.get(id.index()) {
            Some(&r) if r != NIL => Ok(r),
            _ => Err(TreeError::UnknownNode(id)),
        }
    }

    /// The record at index `r`, reached from the spine or through a link of
    /// a live record; either always points at a live record, so an index
    /// past the end is a corrupted arena (and panics).
    fn rec(&self, r: u32) -> &Record {
        &self.records[r as usize]
    }

    fn rec_mut(&mut self, r: u32) -> &mut Record {
        &mut self.records[r as usize]
    }

    /// The record of a live node.
    fn data(&self, id: NodeId) -> Result<&Record, TreeError> {
        Ok(self.rec(self.slot(id)?))
    }

    /// Points the link on `prev`'s side of a sibling list at `to`: `prev`'s
    /// `next`, or `parent`'s `first` when `prev` is [`NIL`].
    fn link_after(&mut self, parent: u32, prev: u32, to: u32) {
        if prev == NIL {
            self.rec_mut(parent).first = to;
        } else {
            self.rec_mut(prev).next = to;
        }
    }

    /// Points the link on `next`'s side of a sibling list at `to`: `next`'s
    /// `prev`, or `parent`'s `last` when `next` is [`NIL`].
    fn link_before(&mut self, parent: u32, next: u32, to: u32) {
        if next == NIL {
            self.rec_mut(parent).last = to;
        } else {
            self.rec_mut(next).prev = to;
        }
    }

    /// A cached depth moved by `delta`. The cache is load-bearing, so an
    /// underflow (a corrupted arena) fails loud rather than wraps.
    #[expect(
        clippy::expect_used,
        reason = "a cache below zero is a corrupted arena; fail loud rather than wrap"
    )]
    fn shifted(cached: u32, delta: i32) -> u32 {
        cached.checked_add_signed(delta).expect("cache underflow")
    }

    /// The id the next node gets when `minted` ids exist: ids are sequential
    /// and never reused, so the 2³²-th has no id left to take.
    fn next_id(minted: usize) -> Result<NodeId, TreeError> {
        u32::try_from(minted)
            .map(NodeId)
            .map_err(|_| TreeError::IdSpaceExhausted)
    }

    /// Mints the next id and gives it `record`, in the most recently freed
    /// record slot if there is one. Returns the id and its record index.
    fn alloc(&mut self, mut record: Record) -> Result<(NodeId, u32), TreeError> {
        let id = Self::next_id(self.spine.len())?;
        record.id = id;
        let r = if self.free == NIL {
            // Record indices stay below `NIL`: a tree holding 2³² − 1 live
            // nodes at once (128 GiB of records) has no room for another.
            let r = u32::try_from(self.records.len())
                .ok()
                .filter(|&r| r != NIL)
                .ok_or(TreeError::IdSpaceExhausted)?;
            self.records.push(record);
            r
        } else {
            let r = self.free;
            self.free = self.rec(r).next;
            *self.rec_mut(r) = record;
            r
        };
        self.spine.push(r);
        self.node_count += 1;
        Ok((id, r))
    }

    /// Vacates the spine entry of `id` and puts its record `r` on the free
    /// list.
    fn release(&mut self, id: NodeId, r: u32) {
        self.spine[id.index()] = NIL;
        self.rec_mut(r).next = self.free;
        self.free = r;
        self.node_count -= 1;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Parent of `id`, or `None` for the root.
    ///
    /// Returns `None` also for unknown nodes; use [`DynamicTree::contains`]
    /// to distinguish.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.data(id).ok()?.parent;
        (p != NIL).then(|| self.rec(p).id)
    }

    /// Children of `id` in insertion order, as a double-ended iterator that
    /// knows its length.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if `id` does not exist.
    pub fn children(&self, id: NodeId) -> Result<Children<'_>, TreeError> {
        Ok(Children::new(&self.records, self.data(id)?))
    }

    /// Number of children of `id` (the paper's child-degree `deg(v)`).
    /// `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if `id` does not exist.
    pub fn child_degree(&self, id: NodeId) -> Result<usize, TreeError> {
        Ok(self.data(id)?.degree as usize)
    }

    /// Returns `true` if `id` is a leaf (no children). The root with no
    /// children counts as a leaf for degree purposes but can never be removed.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if `id` does not exist.
    pub fn is_leaf(&self, id: NodeId) -> Result<bool, TreeError> {
        Ok(self.data(id)?.degree == 0)
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
            Ok(d) => d.depth as usize,
            Err(_) => panic!("depth() called on unknown node {id}"),
        }
    }

    /// Returns `true` if `anc` is an ancestor of `desc` (a node is its own
    /// ancestor, matching the paper's convention).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.contains(anc) && self.ancestors(desc).any(|c| c == anc)
    }

    /// Iterator over `id` and its ancestors up to and including the root.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(&self.records, self.slot(id).unwrap_or(NIL))
    }

    /// The path from `from` up to its ancestor `to`, inclusive of both ends.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownNode`] if either node does not exist or if
    /// `to` is not an ancestor of `from`.
    pub fn path_between(&self, from: NodeId, to: NodeId) -> Result<Vec<NodeId>, TreeError> {
        self.slot(from)?;
        self.slot(to)?;
        let mut path = Vec::new();
        for c in self.ancestors(from) {
            path.push(c);
            if c == to {
                return Ok(path);
            }
        }
        Err(TreeError::UnknownNode(to))
    }

    /// The ancestor of `id` exactly `hops` edges above it, if it exists.
    pub fn ancestor_at_distance(&self, id: NodeId, hops: usize) -> Option<NodeId> {
        self.ancestors(id).nth(hops)
    }

    /// Iterator over all currently existing nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.spine
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r != NIL)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Depth-first (pre-order) traversal starting at `start`.
    pub fn dfs(&self, start: NodeId) -> DfsIter<'_> {
        DfsIter::new(&self.records, self.slot(start).unwrap_or(NIL))
    }

    /// Checks internal structural invariants; used by tests and debug builds.
    ///
    /// Verified invariants: every spine entry points at a record owned by
    /// its id, parent/child links are mutually consistent (each child list
    /// is linked both ways and holds as many children as its count says),
    /// the root alone has no parent, every node is reachable from the root,
    /// the node count matches the occupied entries, every other record is on
    /// the free list, and the cached depths agree with a from-scratch
    /// recomputation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let records = self.records.len();
        let live =
            |r: u32| (r as usize) < records && self.spine.get(self.rec(r).id.index()) == Some(&r);
        let mut seen = 0usize;
        for (id, r) in self.nodes().map(|id| (id, self.spine[id.index()])) {
            seen += 1;
            if !live(r) {
                return Err(format!("spine entry {r} of {id} is not {id}'s record"));
            }
            let data = self.rec(r);
            if data.parent == NIL {
                if id != self.root {
                    return Err(format!("non-root node {id} has no parent"));
                }
            } else if !live(data.parent) {
                return Err(format!("parent of {id} does not exist"));
            }
            let (mut prev, mut c, mut count) = (NIL, data.first, 0u32);
            while c != NIL {
                if !live(c) || count > data.degree {
                    return Err(format!("child list of {id} is broken"));
                }
                let cd = self.rec(c);
                if cd.parent != r || cd.prev != prev {
                    return Err(format!("child {} of {id} is linked wrong", cd.id));
                }
                (prev, c, count) = (c, cd.next, count + 1);
            }
            if prev != data.last || count != data.degree {
                return Err(format!(
                    "{id} counts {} children and ends its list at {}, walked {count} ending at {prev}",
                    data.degree, data.last
                ));
            }
        }
        if seen != self.node_count {
            return Err(format!(
                "node_count {} != occupied slots {}",
                self.node_count, seen
            ));
        }
        let mut freed = 0usize;
        let mut f = self.free;
        while f != NIL && freed <= records {
            freed += 1;
            f = self.rec(f).next;
        }
        if seen + freed != records {
            return Err(format!(
                "{seen} live and {freed} free records, {records} in all"
            ));
        }
        let reachable = self.dfs(self.root).count();
        if reachable != self.node_count {
            return Err(format!(
                "only {reachable} of {} nodes reachable from root",
                self.node_count
            ));
        }
        for id in self.nodes() {
            let true_depth = self.ancestors(id).count() - 1;
            let cached = self.depth(id);
            if cached != true_depth {
                return Err(format!(
                    "cached depth {cached} of {id} != recomputed {true_depth}"
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Adds `delta` to the cached depth of every node in the subtree of
    /// record `top` (inclusive) — the whole subtree moves when an internal
    /// node is spliced in or out above it. Walks the links; allocates
    /// nothing.
    fn shift_subtree_depths(&mut self, top: u32, delta: i32) {
        let mut cur = top;
        while cur != NIL {
            let d = self.rec_mut(cur);
            d.depth = Self::shifted(d.depth, delta);
            cur = preorder_next(&self.records, top, cur);
        }
    }

    /// **add-leaf**: attaches a new leaf under `parent` and returns its id.
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownNode`] if `parent` does not exist;
    /// * [`TreeError::IdSpaceExhausted`] if every id has been handed out.
    pub fn add_leaf(&mut self, parent: NodeId) -> Result<NodeId, TreeError> {
        let p = self.slot(parent)?;
        let above = *self.rec(p);
        let (child, c) = self.alloc(Record::leaf(p, above.last, above.depth + 1))?;
        self.link_after(p, above.last, c);
        let pd = self.rec_mut(p);
        pd.last = c;
        pd.degree += 1;
        self.applied(TopologyEvent::AddLeaf { parent, child });
        Ok(child)
    }

    /// **remove-leaf**: removes the non-root leaf `node`. `O(1)`.
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootImmutable`] if `node` is the root;
    /// * [`TreeError::NotALeaf`] if `node` has children;
    /// * [`TreeError::UnknownNode`] if `node` does not exist.
    pub fn remove_leaf(&mut self, node: NodeId) -> Result<(), TreeError> {
        let r = self.slot(node)?;
        let data = *self.rec(r);
        // Only the root has no parent.
        if data.parent == NIL {
            return Err(TreeError::RootImmutable);
        }
        if data.degree != 0 {
            return Err(TreeError::NotALeaf(node));
        }
        let p = data.parent;
        self.link_after(p, data.prev, data.next);
        self.link_before(p, data.next, data.prev);
        self.rec_mut(p).degree -= 1;
        self.release(node, r);
        let parent = self.rec(p).id;
        self.applied(TopologyEvent::RemoveLeaf { parent, node });
        Ok(())
    }

    /// **add-internal**: splits the edge between `below` and its parent with a
    /// new node, which becomes the parent of `below`, in `below`'s place
    /// among its siblings. Returns the new node.
    ///
    /// # Errors
    ///
    /// * [`TreeError::NoParentEdge`] if `below` is the root;
    /// * [`TreeError::UnknownNode`] if `below` does not exist;
    /// * [`TreeError::IdSpaceExhausted`] if every id has been handed out.
    pub fn add_internal_above(&mut self, below: NodeId) -> Result<NodeId, TreeError> {
        let b = self.slot(below)?;
        let data = *self.rec(b);
        if data.parent == NIL {
            return Err(TreeError::NoParentEdge(below));
        }
        let p = data.parent;
        // The new node takes `below`'s old place and depth.
        let (node, n) = self.alloc(Record {
            first: b,
            last: b,
            next: data.next,
            degree: 1,
            ..Record::leaf(p, data.prev, data.depth)
        })?;
        self.link_after(p, data.prev, n);
        self.link_before(p, data.next, n);
        let bd = self.rec_mut(b);
        bd.parent = n;
        bd.prev = NIL;
        bd.next = NIL;
        self.shift_subtree_depths(b, 1);
        let parent = self.rec(p).id;
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
        let r = self.slot(node)?;
        let data = *self.rec(r);
        // Only the root has no parent.
        if data.parent == NIL {
            return Err(TreeError::RootImmutable);
        }
        if data.degree == 0 {
            return Err(TreeError::NotInternal(node));
        }
        let p = data.parent;
        // The whole subtree rises a level (`node`'s own record with it,
        // which is about to be freed anyway).
        self.shift_subtree_depths(r, -1);
        let mut c = data.first;
        while c != NIL {
            let cd = self.rec_mut(c);
            cd.parent = p;
            c = cd.next;
        }
        // Splice the child list, first to last, into `node`'s place.
        self.link_after(p, data.prev, data.first);
        self.rec_mut(data.first).prev = data.prev;
        self.link_before(p, data.next, data.last);
        self.rec_mut(data.last).next = data.next;
        self.rec_mut(p).degree += data.degree - 1;
        self.release(node, r);
        let parent = self.rec(p).id;
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
        assert!(t.children(a).unwrap().eq([b]));
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
        assert!(t.children(a).unwrap().eq([mid]));
        assert!(t.children(mid).unwrap().eq([b]));
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
        assert!(t.children(r).unwrap().eq([x, a, y]));
        t.remove_internal(a).unwrap();
        assert!(t.children(r).unwrap().eq([x, c1, c2, y]));
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
        assert_eq!((star.changes(), path.changes()), (0, 0));
    }

    /// A built tree is the tree its parent map names, with vectors sized
    /// once: the root's children in id order, each child linked both ways.
    #[test]
    fn from_parents_builds_the_named_tree_at_its_size() {
        let parents = [0, 0, 1, 0, 3, 3];
        let t = DynamicTree::from_parents(parents.len(), |i| parents[i - 1]);
        let n = NodeId::from_index;
        assert!(t.children(t.root()).unwrap().eq([n(1), n(2), n(4)]));
        assert!(t.children(n(3)).unwrap().eq([n(5), n(6)]));
        assert_eq!((t.depth(n(4)), t.depth(n(6))), (1, 3));
        assert_eq!((t.node_count(), t.total_created(), t.changes()), (7, 7, 0));
        assert_eq!((t.spine.capacity(), t.records.capacity()), (7, 7));
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    #[should_panic]
    fn from_parents_refuses_a_parent_not_built_yet() {
        DynamicTree::from_parents(2, |i| i);
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
        // A built tree has made no changes: the count is the log's length.
        assert_eq!(t.changes(), 3);
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

    #[test]
    fn a_removed_nodes_record_is_the_next_one_reused() {
        let mut t = DynamicTree::with_initial_star(3);
        let (a, b) = (NodeId(1), NodeId(2));
        let (ra, rb) = (t.spine[a.index()], t.spine[b.index()]);
        t.remove_leaf(a).unwrap();
        t.remove_leaf(b).unwrap();
        let c = t.add_leaf(t.root()).unwrap();
        let d = t.add_internal_above(c).unwrap();
        assert_eq!((t.spine[c.index()], t.spine[d.index()]), (rb, ra));
        assert_eq!(t.records.len(), 4);
        assert!(t.children(t.root()).unwrap().eq([NodeId(3), d]));
        assert!(t.check_invariants().is_ok());
    }

    /// What a tree costs per id ever minted, per live node and per recorded
    /// change (DESIGN.md §7 "Memory law"): a 4-byte spine entry, one flat
    /// record of at most 32 B that owns no heap (it is `Copy`), a 16-byte
    /// log entry.
    #[test]
    fn a_spine_entry_is_4_bytes_a_live_node_one_copy_record_of_at_most_32_and_a_log_entry_16() {
        fn owns_no_heap<T: Copy>() {}
        owns_no_heap::<Record>();
        let t = DynamicTree::new();
        assert_eq!(std::mem::size_of_val(&t.spine[0]), 4);
        assert!(std::mem::size_of::<Record>() <= 32);
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
        assert_eq!(t.children(ghost).err(), Some(TreeError::UnknownNode(ghost)));
        assert_eq!(t.remove_leaf(ghost), Err(TreeError::UnknownNode(ghost)));
        assert!(!t.is_ancestor(ghost, t.root()));
    }
}
