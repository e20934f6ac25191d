//! Requests, request identifiers and outcomes.

use crate::ControllerError;
use dcn_tree::{DynamicTree, NodeId};
use std::fmt;

/// Identifier of a request submitted to a controller.
///
/// Every [`Controller::submit`](crate::Controller::submit) call that reaches a
/// controller issues one — it is the *ticket* under which the request's
/// outcome is later reported (a [`RequestRecord`], and the
/// [`ControllerEvent`](crate::ControllerEvent)s derived from it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl dcn_collections::EntityKey for RequestId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        RequestId(index as u64)
    }
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The kind of event a request asks permission for.
///
/// Topological requests follow the paper's conventions on where they arrive
/// (§2.1.2): a request to add a node arrives at the parent-to-be, a request to
/// delete a node arrives at that node itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Add a new leaf as a child of the node the request arrives at.
    AddLeaf,
    /// Split the edge between the given child and the node the request
    /// arrives at (which must be the child's parent) with a new internal node.
    AddInternalAbove(NodeId),
    /// Remove the node the request arrives at (leaf or internal; never the
    /// root).
    RemoveSelf,
    /// A non-topological event (e.g. a resource allocation) at the node the
    /// request arrives at.
    NonTopological,
}

impl RequestKind {
    /// Returns `true` if granting this request changes the tree topology.
    pub fn is_topological(&self) -> bool {
        !matches!(self, RequestKind::NonTopological)
    }
}

/// The request preconditions of the dynamic model (§2.1.2), checked by every
/// family before a request enters it — and again by the epoch clients when a
/// parked request is retried, where a violation means the request went stale
/// while it waited.
///
/// # Errors
///
/// * [`ControllerError::UnknownNode`] if `at` does not exist;
/// * [`ControllerError::NotParentOf`] for an
///   [`RequestKind::AddInternalAbove`] whose child does not hang under `at`;
/// * [`ControllerError::CannotRemoveRoot`] for a [`RequestKind::RemoveSelf`]
///   at the root.
pub fn check_request(
    tree: &DynamicTree,
    at: NodeId,
    kind: RequestKind,
) -> Result<(), ControllerError> {
    if !tree.contains(at) {
        return Err(ControllerError::UnknownNode(at));
    }
    match kind {
        RequestKind::AddInternalAbove(child) if tree.parent(child) != Some(at) => {
            Err(ControllerError::NotParentOf { at, child })
        }
        RequestKind::RemoveSelf if at == tree.root() => Err(ControllerError::CannotRemoveRoot),
        _ => Ok(()),
    }
}

/// The answer a controller gives to a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The request received a permit; the event may now take place.
    Granted {
        /// The serial number of the consumed permit, when the controller runs
        /// in interval mode (used by the name-assignment protocol).
        serial: Option<u64>,
        /// For topological insertions handled synchronously (centralized
        /// controller), the id of the newly created node.
        new_node: Option<NodeId>,
    },
    /// The request was rejected.
    Rejected,
    /// The request's precondition failed when it was admitted: its kind is
    /// outside the controller's dynamic model (the AAPS baseline refuses
    /// deletions and internal insertions), or the tree no longer admits a
    /// request that waited (its origin vanished). No permit was consumed
    /// and the safety/liveness accounting is untouched.
    Refused,
}

impl Outcome {
    /// Returns `true` for granted outcomes.
    pub fn is_granted(&self) -> bool {
        matches!(self, Outcome::Granted { .. })
    }

    /// Returns `true` for refused outcomes (see [`Outcome::Refused`]).
    pub fn is_refused(&self) -> bool {
        matches!(self, Outcome::Refused)
    }
}

/// A fully resolved request, as recorded by every controller family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// The request's identifier.
    pub id: RequestId,
    /// The node the request arrived at.
    pub origin: NodeId,
    /// What the request asked for.
    pub kind: RequestKind,
    /// The controller's answer.
    pub outcome: Outcome,
    /// Virtual time at which the request was submitted (simulated network
    /// time for the distributed families; the submission serial number for
    /// the synchronous families, which answer inside `submit`).
    pub submitted_at: u64,
    /// Virtual time at which the answer was delivered (same clock as
    /// [`RequestRecord::submitted_at`]).
    pub answered_at: u64,
}

impl RequestRecord {
    /// The request's answer latency in virtual time units
    /// (`answered_at − submitted_at`; 0 for the synchronous families).
    pub fn latency(&self) -> u64 {
        self.answered_at.saturating_sub(self.submitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_formats_compactly() {
        assert_eq!(format!("{}", RequestId(4)), "r4");
        assert_eq!(format!("{:?}", RequestId(4)), "r4");
    }

    #[test]
    fn topological_classification() {
        assert!(RequestKind::AddLeaf.is_topological());
        assert!(RequestKind::RemoveSelf.is_topological());
        assert!(RequestKind::AddInternalAbove(NodeId::from_index(1)).is_topological());
        assert!(!RequestKind::NonTopological.is_topological());
    }

    #[test]
    fn preconditions_report_the_three_errors_unknown_node_first() {
        let mut tree = DynamicTree::new();
        let root = tree.root();
        let a = tree.add_leaf(root).unwrap();
        let b = tree.add_leaf(a).unwrap();
        let ghost = NodeId::from_index(99);
        assert!(check_request(&tree, a, RequestKind::AddInternalAbove(b)).is_ok());
        assert!(check_request(&tree, b, RequestKind::RemoveSelf).is_ok());
        // An unknown arrival node wins over a malformed kind.
        assert!(matches!(
            check_request(&tree, ghost, RequestKind::AddInternalAbove(b)),
            Err(ControllerError::UnknownNode(n)) if n == ghost
        ));
        assert!(matches!(
            check_request(&tree, root, RequestKind::AddInternalAbove(b)),
            Err(ControllerError::NotParentOf { at, child }) if at == root && child == b
        ));
        assert!(matches!(
            check_request(&tree, root, RequestKind::RemoveSelf),
            Err(ControllerError::CannotRemoveRoot)
        ));
    }

    #[test]
    fn outcome_grant_detection() {
        let g = Outcome::Granted {
            serial: Some(7),
            new_node: None,
        };
        assert!(g.is_granted());
        assert!(!Outcome::Rejected.is_granted());
        assert!(!Outcome::Refused.is_granted());
        assert!(Outcome::Refused.is_refused());
    }

    #[test]
    fn latency_is_the_answer_delay() {
        let rec = RequestRecord {
            id: RequestId(0),
            origin: NodeId::from_index(0),
            kind: RequestKind::NonTopological,
            outcome: Outcome::Rejected,
            submitted_at: 10,
            answered_at: 25,
        };
        assert_eq!(rec.latency(), 15);
    }
}
