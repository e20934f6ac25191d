//! Graceful topology changes.
//!
//! In the controlled dynamic model a topological change is performed by the
//! requesting entity only *after* its request has been granted, and it must be
//! performed "gracefully" (paper §4.2): no messages are lost and the deleted
//! node's protocol data is handed to its parent. The paper leaves the concrete
//! hand-shake out of scope; the simulator's is a wait list. A granted change
//! is attempted once, [`CHANGE_DELAY`] ticks after the grant. A removal goes
//! through only if its target is unlocked, has no queued agents and no
//! message inbound; an edge split only if its lower endpoint is unlocked and
//! no locked descent pointer crosses the edge. A change refused by one of
//! these gates is parked on the node whose state refused it and re-attempted
//! by the activation that changes that state, so it is applied in the step
//! that releases it — or dropped, if its target vanished meanwhile. See
//! DESIGN.md §6 for why this preserves what the controller relies on.

use crate::engine::Time;
use crate::NodeId;

/// A topological change scheduled for graceful application.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyChange {
    /// Attach a new leaf under `parent`.
    AddLeaf {
        /// The prospective parent.
        parent: NodeId,
    },
    /// Split the edge between `below` and its parent with a new internal node.
    AddInternalAbove {
        /// The lower endpoint of the edge to split.
        below: NodeId,
    },
    /// Remove `node` (leaf or internal; the appropriate variant is chosen at
    /// application time based on the node's current degree).
    Remove {
        /// The node to remove.
        node: NodeId,
    },
    /// Add a non-tree edge (a non-topological event for the controller, but
    /// part of the network graph).
    AddNonTreeEdge {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Remove a non-tree edge.
    RemoveNonTreeEdge {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl TopologyChange {
    /// The node whose quiescence gates the application of this change, if any
    /// (insertions of leaves and non-tree-edge events are ungated).
    pub fn gate_node(&self) -> Option<NodeId> {
        match *self {
            TopologyChange::AddLeaf { .. } => None,
            TopologyChange::AddInternalAbove { below } => Some(below),
            TopologyChange::Remove { node } => Some(node),
            TopologyChange::AddNonTreeEdge { .. } | TopologyChange::RemoveNonTreeEdge { .. } => {
                None
            }
        }
    }

    /// Returns `true` if this change inserts a node into the tree.
    pub fn is_insertion(&self) -> bool {
        matches!(
            self,
            TopologyChange::AddLeaf { .. } | TopologyChange::AddInternalAbove { .. }
        )
    }

    /// Returns `true` if this change removes a node from the tree.
    pub fn is_removal(&self) -> bool {
        matches!(self, TopologyChange::Remove { .. })
    }
}

/// Ticks between a change being granted and the environment's one timed
/// attempt to apply it ("after finite time", §2.1.2).
pub(crate) const CHANGE_DELAY: Time = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let add = TopologyChange::AddLeaf {
            parent: NodeId::from_index(0),
        };
        assert!(add.is_insertion());
        assert!(!add.is_removal());
        assert_eq!(add.gate_node(), None);

        let split = TopologyChange::AddInternalAbove {
            below: NodeId::from_index(3),
        };
        assert!(split.is_insertion());
        assert_eq!(split.gate_node(), Some(NodeId::from_index(3)));

        let rm = TopologyChange::Remove {
            node: NodeId::from_index(2),
        };
        assert!(rm.is_removal());
        assert_eq!(rm.gate_node(), Some(NodeId::from_index(2)));
    }
}
