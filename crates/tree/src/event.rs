//! Topology-change events and the change log.
//!
//! The paper's complexity bounds are expressed per topological change: the
//! adaptive controller of Theorem 3.5 pays `O(log² n_j)` (amortized, times
//! `log(M/(W+1))`) for the *j*-th change, where `n_j` is the number of nodes
//! in the network when that change takes place. The [`ChangeLog`] records
//! exactly that series so experiment harnesses and tests can evaluate the
//! bound for a concrete execution.

use crate::NodeId;

/// A single topological change applied to a [`DynamicTree`](crate::DynamicTree).
///
/// Non-tree-edge events are also recorded even though the paper classifies
/// them as *non-topological* (the controller never routes messages over
/// non-tree edges), so that a complete trace of the network evolution is
/// available to replay tooling.
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
    /// A non-tree edge was added (non-topological for the controller).
    AddNonTreeEdge {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A non-tree edge was removed (non-topological for the controller).
    RemoveNonTreeEdge {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl TopologyEvent {
    /// Returns `true` for the four *tree* changes the controller must handle
    /// (leaf/internal insertions and deletions), and `false` for non-tree-edge
    /// events, which the paper treats as non-topological.
    pub fn is_tree_change(&self) -> bool {
        !matches!(
            self,
            TopologyEvent::AddNonTreeEdge { .. } | TopologyEvent::RemoveNonTreeEdge { .. }
        )
    }

    /// Returns `true` if the event removes a node from the tree.
    pub fn is_deletion(&self) -> bool {
        matches!(
            self,
            TopologyEvent::RemoveLeaf { .. } | TopologyEvent::RemoveInternal { .. }
        )
    }

    /// Returns `true` if the event adds a node to the tree.
    pub fn is_insertion(&self) -> bool {
        matches!(
            self,
            TopologyEvent::AddLeaf { .. } | TopologyEvent::AddInternal { .. }
        )
    }
}

/// One entry of the [`ChangeLog`]: the event plus the network size before and
/// after it was applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Sequence number of the change (0-based, tree changes and non-tree-edge
    /// events share the same sequence).
    pub seq: u64,
    /// The event itself.
    pub event: TopologyEvent,
    /// Number of nodes in the tree immediately before the event.
    pub nodes_before: usize,
    /// Number of nodes in the tree immediately after the event.
    pub nodes_after: usize,
}

/// Log of every topological change applied to a tree.
///
/// The log supports computing the paper's bound terms: `n_j`, the number of
/// nodes when the j-th change takes place, and sums of the form
/// `Σ_j log² n_j`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangeLog {
    records: Vec<ChangeRecord>,
}

impl ChangeLog {
    /// Creates an empty change log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record to the log.
    pub(crate) fn push(&mut self, event: TopologyEvent, nodes_before: usize, nodes_after: usize) {
        let seq = self.records.len() as u64;
        self.records.push(ChangeRecord {
            seq,
            event,
            nodes_before,
            nodes_after,
        });
    }

    /// Number of recorded events (both tree changes and non-tree-edge events).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over all records in order of occurrence.
    pub fn iter(&self) -> impl Iterator<Item = &ChangeRecord> {
        self.records.iter()
    }

    /// Number of recorded *tree* changes (the paper's topological changes).
    pub fn tree_change_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.event.is_tree_change())
            .count()
    }

    /// The series `n_j`: for every tree change, the number of nodes in the
    /// network at the moment the change took place (i.e. just before it).
    pub fn sizes_at_changes(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter(|r| r.event.is_tree_change())
            .map(|r| r.nodes_before)
            .collect()
    }

    /// Evaluates the paper's bound term `Σ_j log² n_j` over all tree changes.
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

    /// Clears the log.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

impl<'a> IntoIterator for &'a ChangeLog {
    type Item = &'a ChangeRecord;
    type IntoIter = std::slice::Iter<'a, ChangeRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
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
        let add = leaf_event(1);
        assert!(add.is_tree_change());
        assert!(add.is_insertion());
        assert!(!add.is_deletion());

        let del = TopologyEvent::RemoveInternal {
            parent: NodeId::from_index(0),
            node: NodeId::from_index(1),
        };
        assert!(del.is_tree_change());
        assert!(del.is_deletion());
        assert!(!del.is_insertion());

        let nte = TopologyEvent::AddNonTreeEdge {
            a: NodeId::from_index(0),
            b: NodeId::from_index(1),
        };
        assert!(!nte.is_tree_change());
        assert!(!nte.is_insertion());
        assert!(!nte.is_deletion());
    }

    #[test]
    fn log_records_sequence_and_sizes() {
        let mut log = ChangeLog::new();
        assert!(log.is_empty());
        log.push(leaf_event(1), 1, 2);
        log.push(leaf_event(2), 2, 3);
        log.push(
            TopologyEvent::AddNonTreeEdge {
                a: NodeId::from_index(1),
                b: NodeId::from_index(2),
            },
            3,
            3,
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.tree_change_count(), 2);
        assert_eq!(log.sizes_at_changes(), vec![1, 2]);
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn sum_log2_squared_matches_manual_computation() {
        let mut log = ChangeLog::new();
        log.push(leaf_event(1), 4, 5);
        log.push(leaf_event(2), 8, 9);
        let expected = (4f64.log2()).powi(2) + (8f64.log2()).powi(2);
        assert!((log.sum_log2_squared() - expected).abs() < 1e-9);
    }

    #[test]
    fn sum_log2_squared_clamps_small_sizes() {
        let mut log = ChangeLog::new();
        log.push(leaf_event(1), 1, 2);
        // log2(max(1,2)) = 1, squared = 1
        assert!((log.sum_log2_squared() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clear_empties_the_log() {
        let mut log = ChangeLog::new();
        log.push(leaf_event(1), 1, 2);
        log.clear();
        assert!(log.is_empty());
    }
}
