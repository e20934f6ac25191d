//! Tree traversal iterators. Each walks the arena's record links directly:
//! none allocates, and each step is one record load.

use crate::tree::{Record, NIL};
use crate::NodeId;

/// The record after `cur` in a pre-order walk of the subtree of `top`: the
/// first child, else the next sibling of the nearest node on the way back up
/// to `top` that has one, else [`NIL`] (the walk is over).
pub(crate) fn preorder_next(records: &[Record], top: u32, cur: u32) -> u32 {
    let first = records[cur as usize].first;
    if first != NIL {
        return first;
    }
    let mut at = cur;
    while at != top {
        let r = &records[at as usize];
        if r.next != NIL {
            return r.next;
        }
        at = r.parent;
    }
    NIL
}

/// Iterator over the children of a node in insertion order, produced by
/// [`DynamicTree::children`](crate::DynamicTree::children). It walks the
/// sibling links from either end and knows how many children are left.
///
/// ```
/// use dcn_tree::DynamicTree;
/// let mut t = DynamicTree::new();
/// let a = t.add_leaf(t.root()).unwrap();
/// let b = t.add_leaf(t.root()).unwrap();
/// let kids = t.children(t.root()).unwrap();
/// assert_eq!(kids.len(), 2);
/// assert_eq!(kids.clone().collect::<Vec<_>>(), vec![a, b]);
/// assert_eq!(kids.rev().collect::<Vec<_>>(), vec![b, a]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Children<'a> {
    records: &'a [Record],
    front: u32,
    back: u32,
    len: u32,
}

impl<'a> Children<'a> {
    pub(crate) fn new(records: &'a [Record], parent: &Record) -> Self {
        Children {
            records,
            front: parent.first,
            back: parent.last,
            len: parent.degree,
        }
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let r = &self.records[self.front as usize];
        self.front = r.next;
        Some(r.id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len as usize, Some(self.len as usize))
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let r = &self.records[self.back as usize];
        self.back = r.prev;
        Some(r.id)
    }
}

impl ExactSizeIterator for Children<'_> {}

/// Iterator over a node and its ancestors up to the root, produced by
/// [`DynamicTree::ancestors`](crate::DynamicTree::ancestors).
///
/// ```
/// use dcn_tree::DynamicTree;
/// let mut t = DynamicTree::new();
/// let a = t.add_leaf(t.root()).unwrap();
/// let b = t.add_leaf(a).unwrap();
/// let chain: Vec<_> = t.ancestors(b).collect();
/// assert_eq!(chain, vec![b, a, t.root()]);
/// ```
#[derive(Debug)]
pub struct Ancestors<'a> {
    records: &'a [Record],
    next: u32,
}

impl<'a> Ancestors<'a> {
    /// The walk up from record `start` ([`NIL`] for an empty walk).
    pub(crate) fn new(records: &'a [Record], start: u32) -> Self {
        Ancestors {
            records,
            next: start,
        }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            return None;
        }
        let r = &self.records[self.next as usize];
        self.next = r.parent;
        Some(r.id)
    }
}

/// Depth-first pre-order iterator over a subtree, produced by
/// [`DynamicTree::dfs`](crate::DynamicTree::dfs). Children are visited in
/// insertion order. It keeps no stack: it follows first-child and
/// next-sibling links down and parent links back up.
///
/// ```
/// use dcn_tree::DynamicTree;
/// let mut t = DynamicTree::new();
/// let a = t.add_leaf(t.root()).unwrap();
/// let b = t.add_leaf(a).unwrap();
/// let c = t.add_leaf(t.root()).unwrap();
/// let order: Vec<_> = t.dfs(t.root()).collect();
/// assert_eq!(order, vec![t.root(), a, b, c]);
/// ```
#[derive(Debug)]
pub struct DfsIter<'a> {
    records: &'a [Record],
    top: u32,
    next: u32,
}

impl<'a> DfsIter<'a> {
    /// The walk of the subtree of record `top` ([`NIL`] for an empty walk).
    pub(crate) fn new(records: &'a [Record], top: u32) -> Self {
        DfsIter {
            records,
            top,
            next: top,
        }
    }
}

impl Iterator for DfsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NIL {
            return None;
        }
        let cur = self.next;
        self.next = preorder_next(self.records, self.top, cur);
        Some(self.records[cur as usize].id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicTree;

    fn sample_tree() -> (DynamicTree, Vec<NodeId>) {
        // root -> a -> (b, c), root -> d
        let mut t = DynamicTree::new();
        let a = t.add_leaf(t.root()).unwrap();
        let b = t.add_leaf(a).unwrap();
        let c = t.add_leaf(a).unwrap();
        let d = t.add_leaf(t.root()).unwrap();
        (t, vec![a, b, c, d])
    }

    #[test]
    fn dfs_preorder_visits_children_in_insertion_order() {
        let (t, ids) = sample_tree();
        let order: Vec<_> = t.dfs(t.root()).collect();
        assert_eq!(order, vec![t.root(), ids[0], ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn dfs_of_subtree_only_visits_descendants() {
        let (t, ids) = sample_tree();
        let order: Vec<_> = t.dfs(ids[0]).collect();
        assert_eq!(order, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn dfs_of_unknown_node_is_empty() {
        let (t, _) = sample_tree();
        assert_eq!(t.dfs(NodeId::from_index(99)).count(), 0);
    }

    #[test]
    fn ancestors_include_self_and_root() {
        let (t, ids) = sample_tree();
        let chain: Vec<_> = t.ancestors(ids[1]).collect();
        assert_eq!(chain, vec![ids[1], ids[0], t.root()]);
    }

    #[test]
    fn ancestors_of_root_is_just_root() {
        let (t, _) = sample_tree();
        let chain: Vec<_> = t.ancestors(t.root()).collect();
        assert_eq!(chain, vec![t.root()]);
    }

    #[test]
    fn ancestors_of_unknown_node_is_empty() {
        let (t, _) = sample_tree();
        assert_eq!(t.ancestors(NodeId::from_index(42)).count(), 0);
    }
}
