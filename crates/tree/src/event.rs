//! Topology-change events and the opt-in change log.
//!
//! The paper's complexity bounds are expressed per topological change: the
//! adaptive controller of Theorem 3.5 pays `O(log² n_j)` (amortized, times
//! `log(M/(W+1))`) for the *j*-th change, where `n_j` is the number of nodes
//! in the network when that change takes place. A tree keeps no history of
//! its own; a reader that needs one calls
//! [`DynamicTree::record_changes`](crate::DynamicTree::record_changes), and
//! from then on the [`ChangeLog`] holds every event in order. The series
//! `n_j` is not stored: every event moves the node count by exactly one, so
//! it follows from the count at the moment recording began.

use crate::NodeId;

/// A single topological change applied to a [`DynamicTree`](crate::DynamicTree):
/// one of the four tree changes of the paper's §2.1.2. (The insertion or
/// removal of a non-tree edge is a *non-topological* event there; to the
/// controller it is one more request and the tree never hears of it.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyEvent {
    /// A new leaf `child` was attached under `parent`.
    AddLeaf {
        /// The existing node the leaf was attached to.
        parent: NodeId,
        /// The newly created leaf.
        child: NodeId,
    },
    /// The leaf `node` (child of `parent`) was removed.
    RemoveLeaf {
        /// Parent of the removed leaf at the time of removal.
        parent: NodeId,
        /// The removed leaf.
        node: NodeId,
    },
    /// A new node `node` was spliced into the edge `(parent, below)`.
    AddInternal {
        /// Upper endpoint of the split edge.
        parent: NodeId,
        /// The newly created internal node.
        node: NodeId,
        /// Lower endpoint of the split edge (now a child of `node`).
        below: NodeId,
    },
    /// The internal node `node` was removed; its children were adopted by
    /// `parent`.
    RemoveInternal {
        /// Parent that adopted the children.
        parent: NodeId,
        /// The removed internal node.
        node: NodeId,
    },
}

impl TopologyEvent {
    /// Returns `true` if the event adds a node to the tree; every other
    /// event removes one.
    pub fn is_insertion(&self) -> bool {
        matches!(
            self,
            TopologyEvent::AddLeaf { .. } | TopologyEvent::AddInternal { .. }
        )
    }
}

/// The changes applied to a tree since a reader switched recording on, in
/// order of occurrence (an event's sequence number is its index).
///
/// The log supports computing the paper's bound terms: `n_j`, the number of
/// nodes when the j-th change takes place, and sums of the form
/// `Σ_j log² n_j`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangeLog {
    /// Node count when recording began (`n_0` of the series).
    nodes_at_start: usize,
    events: Vec<TopologyEvent>,
}

impl ChangeLog {
    /// An empty log over a tree that has `nodes` nodes right now.
    pub(crate) fn starting_at(nodes: usize) -> Self {
        ChangeLog {
            nodes_at_start: nodes,
            events: Vec::new(),
        }
    }

    /// Appends an event to the log.
    pub(crate) fn push(&mut self, event: TopologyEvent) {
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events in order of occurrence. Readers that follow the
    /// log keep a cursor and read `events()[cursor..]`, or take it as they go
    /// ([`DynamicTree::take_change_log`](crate::DynamicTree::take_change_log)).
    pub fn events(&self) -> &[TopologyEvent] {
        &self.events
    }

    /// The series `n_j`: for every change, the number of nodes in the
    /// network at the moment the change took place (i.e. just before it).
    pub fn sizes_at_changes(&self) -> Vec<usize> {
        let mut nodes = self.nodes_at_start;
        self.events
            .iter()
            .map(|event| {
                let before = nodes;
                if event.is_insertion() {
                    nodes += 1;
                } else {
                    nodes -= 1;
                }
                before
            })
            .collect()
    }

    /// Evaluates the paper's bound term `Σ_j log² n_j` over all changes.
    ///
    /// Uses natural binary logarithms of `max(n_j, 2)` so degenerate
    /// single-node instants do not contribute zero/negative terms.
    pub fn sum_log2_squared(&self) -> f64 {
        self.sizes_at_changes()
            .iter()
            .map(|&n| {
                let l = (n.max(2) as f64).log2();
                l * l
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_event(i: usize) -> TopologyEvent {
        TopologyEvent::AddLeaf {
            parent: NodeId::from_index(0),
            child: NodeId::from_index(i),
        }
    }

    #[test]
    fn classification_of_events() {
        assert!(leaf_event(1).is_insertion());
        let del = TopologyEvent::RemoveInternal {
            parent: NodeId::from_index(0),
            node: NodeId::from_index(1),
        };
        assert!(!del.is_insertion());
    }

    #[test]
    fn log_records_sequence_and_sizes() {
        let mut log = ChangeLog::starting_at(1);
        assert!(log.is_empty());
        log.push(leaf_event(1));
        log.push(leaf_event(2));
        log.push(TopologyEvent::RemoveLeaf {
            parent: NodeId::from_index(0),
            node: NodeId::from_index(1),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.sizes_at_changes(), vec![1, 2, 3]);
        assert_eq!(log.events()[1], leaf_event(2));
    }

    #[test]
    fn sum_log2_squared_matches_manual_computation() {
        let mut log = ChangeLog::starting_at(4);
        log.push(leaf_event(1));
        log.push(leaf_event(2));
        let expected = (4f64.log2()).powi(2) + (5f64.log2()).powi(2);
        assert!((log.sum_log2_squared() - expected).abs() < 1e-9);
    }

    #[test]
    fn sum_log2_squared_clamps_small_sizes() {
        let mut log = ChangeLog::starting_at(1);
        log.push(leaf_event(1));
        // log2(max(1,2)) = 1, squared = 1
        assert!((log.sum_log2_squared() - 1.0).abs() < 1e-9);
    }
}
