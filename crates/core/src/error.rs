//! Error type for controller operations.

use dcn_tree::NodeId;
use std::error::Error;
use std::fmt;

/// Errors returned by controller construction and request submission.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControllerError {
    /// The waste parameter `W` exceeds the permit budget `M`.
    WasteExceedsBudget {
        /// The permit budget.
        m: u64,
        /// The waste parameter.
        w: u64,
    },
    /// The base controller requires `W >= 1`; use the iterated controller
    /// (Observation 3.4) for `W = 0`.
    ZeroWasteUnsupported,
    /// The upper bound `U` on the number of nodes ever to exist must be at
    /// least the current number of nodes.
    BoundTooSmall {
        /// The supplied bound.
        u: usize,
        /// The current number of nodes.
        nodes: usize,
    },
    /// A request referenced a node that does not exist.
    UnknownNode(NodeId),
    /// An `AddInternalAbove(child)` request arrived at a node that is not the
    /// parent of `child` (the paper requires the request to arrive at the
    /// parent-to-be).
    NotParentOf {
        /// The node the request arrived at.
        at: NodeId,
        /// The child below the would-be new internal node.
        child: NodeId,
    },
    /// A `RemoveSelf` request targeted the root, which may never be deleted.
    CannotRemoveRoot,
    /// An error surfaced by the underlying network simulator.
    Sim(String),
    /// An error surfaced by the underlying tree.
    Tree(dcn_tree::TreeError),
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::WasteExceedsBudget { m, w } => {
                write!(f, "waste W={w} exceeds permit budget M={m}")
            }
            ControllerError::ZeroWasteUnsupported => write!(
                f,
                "the base controller requires W >= 1; use the iterated controller for W = 0"
            ),
            ControllerError::BoundTooSmall { u, nodes } => write!(
                f,
                "bound U={u} is smaller than the current number of nodes {nodes}"
            ),
            ControllerError::UnknownNode(id) => write!(f, "node {id} does not exist"),
            ControllerError::NotParentOf { at, child } => {
                write!(f, "node {at} is not the parent of {child}")
            }
            ControllerError::CannotRemoveRoot => write!(f, "the root cannot be removed"),
            ControllerError::Sim(msg) => write!(f, "simulator error: {msg}"),
            ControllerError::Tree(e) => write!(f, "tree error: {e}"),
        }
    }
}

impl Error for ControllerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControllerError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dcn_tree::TreeError> for ControllerError {
    fn from(e: dcn_tree::TreeError) -> Self {
        ControllerError::Tree(e)
    }
}

impl From<dcn_simnet::SimError> for ControllerError {
    fn from(e: dcn_simnet::SimError) -> Self {
        ControllerError::Sim(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            ControllerError::WasteExceedsBudget { m: 3, w: 5 }.to_string(),
            ControllerError::ZeroWasteUnsupported.to_string(),
            ControllerError::BoundTooSmall { u: 2, nodes: 5 }.to_string(),
            ControllerError::UnknownNode(NodeId::from_index(7)).to_string(),
            ControllerError::CannotRemoveRoot.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn tree_errors_convert_and_chain() {
        let err: ControllerError = dcn_tree::TreeError::RootImmutable.into();
        assert!(matches!(err, ControllerError::Tree(_)));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<ControllerError>();
    }
}
