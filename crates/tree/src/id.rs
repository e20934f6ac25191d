//! Node identifiers.

use std::fmt;

/// Identifier of a node in a [`DynamicTree`](crate::DynamicTree).
///
/// Identifiers are allocated sequentially and **never reused**, even after the
/// node is deleted. The total number of identifiers ever handed out by a tree
/// therefore equals the paper's quantity `U` — the number of nodes ever to
/// exist in the network, including deleted ones.
///
/// ```
/// use dcn_tree::DynamicTree;
/// let mut tree = DynamicTree::new();
/// let a = tree.add_leaf(tree.root()).unwrap();
/// assert_ne!(a, tree.root());
/// assert_eq!(a.index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests and when deserializing recorded scenarios; ids
    /// produced this way are only meaningful for the tree that allocated the
    /// underlying index.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the raw arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl dcn_collections::EntityKey for NodeId {
    fn index(self) -> usize {
        NodeId::index(self)
    }

    fn from_index(index: usize) -> Self {
        NodeId::from_index(index)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = NodeId::from_index(17);
        assert_eq!(id.index(), 17);
    }

    #[test]
    fn debug_and_display_are_compact() {
        let id = NodeId::from_index(3);
        assert_eq!(format!("{id:?}"), "n3");
        assert_eq!(format!("{id}"), "n3");
    }

    #[test]
    fn ordering_follows_allocation_order() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }
}
