//! Taxi-layer bookkeeping (paper §4.3.2).
//!
//! The taxi layer carries agents between nodes and maintains, per agent, the
//! `Distance` counter (hop distance to the agent's origin), and per node, the
//! lock owner, the FIFO queue of waiting agents and the pointer to the child
//! from which the lock-holding agent arrived (used to implement the `Down`
//! instruction along a locked path). The paper's `DistToTop` counter is not
//! kept: no protocol here returns to the top of its path (DESIGN.md §6,
//! "Lock release").

use crate::protocol::AgentId;
use crate::topology::TopologyChange;
use crate::NodeId;
use std::collections::VecDeque;

/// Per-agent taxi state.
#[derive(Clone, Debug)]
pub(crate) struct AgentTaxi {
    /// The node at which the agent was created.
    pub origin: NodeId,
    /// Hop distance from the agent's current node to its origin.
    pub dist_from_origin: usize,
    /// The node the agent was at immediately before its last hop, if any.
    pub arrived_from: Option<NodeId>,
    /// The node the agent currently resides at (or is in flight towards).
    pub location: NodeId,
}

impl AgentTaxi {
    pub fn new(origin: NodeId) -> Self {
        AgentTaxi {
            origin,
            dist_from_origin: 0,
            arrived_from: None,
            location: origin,
        }
    }

    /// Records a hop towards the origin.
    pub fn hop_down(&mut self, from: NodeId, to: NodeId) {
        self.dist_from_origin = self.dist_from_origin.saturating_sub(1);
        self.arrived_from = Some(from);
        self.location = to;
    }

    /// Records a hop away from the origin: towards the root for an agent
    /// climbing from its origin, to an explicit child for a wave agent.
    pub fn hop_away(&mut self, from: NodeId, to: NodeId) {
        self.dist_from_origin += 1;
        self.arrived_from = Some(from);
        self.location = to;
    }
}

/// Per-node taxi state: lock, descent pointer, waiting-agent queue and the
/// granted changes waiting for this node's gate to open.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeTaxi {
    /// The agent currently holding this node's lock, if any.
    pub locked_by: Option<AgentId>,
    /// The child from which the lock-holding agent arrived; the `Down`
    /// instruction moves to this child.
    pub down_child: Option<NodeId>,
    /// FIFO queue of agents waiting for the node to become unlocked.
    pub queue: VecDeque<AgentId>,
    /// Number of in-flight messages / scheduled activations targeting this
    /// node. A node with `inbound > 0` is never gracefully removed.
    pub inbound: usize,
    /// Granted topological changes this node's state refused, in arrival
    /// order; re-attempted at the end of every activation here.
    pub parked: Vec<TopologyChange>,
}

impl NodeTaxi {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_locked(&self) -> bool {
        self.locked_by.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_counters_follow_hops() {
        let origin = NodeId::from_index(5);
        let a = NodeId::from_index(4);
        let b = NodeId::from_index(3);
        let mut taxi = AgentTaxi::new(origin);
        assert_eq!(taxi.dist_from_origin, 0);

        taxi.hop_away(origin, a);
        taxi.hop_away(a, b);
        assert_eq!(taxi.dist_from_origin, 2);
        assert_eq!(taxi.arrived_from, Some(a));
        assert_eq!(taxi.location, b);

        taxi.hop_down(b, a);
        assert_eq!(taxi.dist_from_origin, 1);
        assert_eq!(taxi.arrived_from, Some(b));

        taxi.hop_away(a, b);
        assert_eq!(taxi.dist_from_origin, 2);
    }

    #[test]
    fn counters_saturate_at_zero() {
        let origin = NodeId::from_index(0);
        let a = NodeId::from_index(1);
        let mut taxi = AgentTaxi::new(origin);
        taxi.hop_down(origin, a);
        assert_eq!(taxi.dist_from_origin, 0);
    }

    #[test]
    fn child_hops_move_away_from_the_origin() {
        let mut taxi = AgentTaxi::new(NodeId::from_index(0));
        taxi.hop_away(NodeId::from_index(0), NodeId::from_index(1));
        assert_eq!(taxi.dist_from_origin, 1);
        assert_eq!(taxi.location, NodeId::from_index(1));
    }

    #[test]
    fn node_taxi_defaults_to_unlocked_and_empty() {
        let nt = NodeTaxi::new();
        assert!(!nt.is_locked());
        assert!(nt.queue.is_empty());
        assert_eq!(nt.inbound, 0);
        assert_eq!(nt.down_child, None);
        assert!(nt.parked.is_empty());
    }
}
