//! Error type for tree operations.

use crate::NodeId;
use std::error::Error;
use std::fmt;

/// Error returned by [`DynamicTree`](crate::DynamicTree) operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// The node does not exist (it was never created or has been deleted).
    UnknownNode(NodeId),
    /// The operation is not allowed on the root (e.g. deleting it).
    RootImmutable,
    /// `remove_leaf` was called on a node that still has children.
    NotALeaf(NodeId),
    /// `remove_internal` was called on a leaf; use `remove_leaf` instead.
    NotInternal(NodeId),
    /// `add_internal_above` was called on the root, which has no parent edge.
    NoParentEdge(NodeId),
    /// All 2³² node ids have been handed out: ids are never reused, so the
    /// tree can take no further node.
    IdSpaceExhausted,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnknownNode(id) => write!(f, "node {id} does not exist"),
            TreeError::RootImmutable => write!(f, "the root cannot be removed"),
            TreeError::NotALeaf(id) => write!(f, "node {id} is not a leaf"),
            TreeError::NotInternal(id) => write!(f, "node {id} is not an internal node"),
            TreeError::NoParentEdge(id) => write!(f, "node {id} has no parent edge to split"),
            TreeError::IdSpaceExhausted => write!(f, "every node id has been handed out"),
        }
    }
}

impl Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let msgs = [
            TreeError::UnknownNode(NodeId::from_index(1)).to_string(),
            TreeError::RootImmutable.to_string(),
            TreeError::NotALeaf(NodeId::from_index(2)).to_string(),
            TreeError::NotInternal(NodeId::from_index(3)).to_string(),
            TreeError::NoParentEdge(NodeId::from_index(0)).to_string(),
            TreeError::IdSpaceExhausted.to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "message ends with punctuation: {m}");
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<TreeError>();
    }
}
