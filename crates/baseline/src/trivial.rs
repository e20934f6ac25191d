//! The trivial root-walk controller.

use dcn_controller::{
    check_request, ControllerError, ControllerMetrics, Outcome, RequestKind, RequestLedger,
    SyncController,
};
use dcn_tree::{DynamicTree, NodeId};

/// The naive (M, W)-Controller: every request sends a message up to the root
/// and the root sends a permit (or a reject) back down the same path.
///
/// Its answer quality is perfect (`W = 0`: exactly `M` permits are granted
/// before the first reject), but each request costs `2·depth(u)` messages, so
/// the total message complexity is `Ω(n)` per request — the lower bound the
/// paper quotes for the strawman approach. It supports the full dynamic model
/// (the root always knows how many permits are left).
#[derive(Debug)]
pub struct TrivialController {
    tree: DynamicTree,
    remaining: u64,
    m: u64,
    messages: u64,
    moves: u64,
    ledger: RequestLedger,
}

impl TrivialController {
    /// Creates a trivial controller with budget `m` over `tree`.
    pub fn new(tree: DynamicTree, m: u64) -> Self {
        TrivialController {
            tree,
            remaining: m,
            m,
            messages: 0,
            moves: 0,
            ledger: RequestLedger::new(),
        }
    }

    /// Messages sent so far (`2·depth(u)` per request: the request walks up,
    /// the answer walks down).
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Move complexity so far (each granted permit travels `depth(u)` hops).
    pub fn moves(&self) -> u64 {
        self.moves
    }
}

impl SyncController for TrivialController {
    fn name(&self) -> &'static str {
        "trivial"
    }

    fn budget(&self) -> u64 {
        self.m
    }

    fn waste_bound(&self) -> u64 {
        // The root always knows the exact remaining budget, so nothing is
        // ever wasted.
        0
    }

    /// Sends the request to the root and the answer back, and applies the
    /// granted event.
    ///
    /// # Errors
    ///
    /// * [`ControllerError::UnknownNode`] for a request at a missing node;
    /// * [`ControllerError::CannotRemoveRoot`] /
    ///   [`ControllerError::NotParentOf`] for malformed topological requests.
    fn decide(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError> {
        check_request(&self.tree, at, kind)?;
        let depth = self.tree.depth(at) as u64;
        self.messages += 2 * depth;
        if self.remaining == 0 {
            return Ok(Outcome::Rejected);
        }
        self.remaining -= 1;
        self.moves += depth;
        let new_node = match kind {
            RequestKind::NonTopological => None,
            RequestKind::AddLeaf => Some(self.tree.add_leaf(at)?),
            RequestKind::AddInternalAbove(child) => Some(self.tree.add_internal_above(child)?),
            RequestKind::RemoveSelf => {
                self.tree.remove(at)?;
                None
            }
        };
        Ok(Outcome::Granted {
            serial: Some(self.m - self.remaining),
            new_node,
        })
    }

    fn tree(&self) -> &DynamicTree {
        &self.tree
    }

    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics {
            moves: self.moves,
            messages: self.messages,
            // The root stores the remaining-budget counter; other nodes are
            // stateless.
            peak_node_memory_bits: 64 - self.m.max(1).leading_zeros() as u64,
        }
    }

    fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut RequestLedger {
        &mut self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_exactly_m_then_rejects() {
        let tree = DynamicTree::with_initial_star(10);
        let mut ctrl = TrivialController::new(tree, 5);
        let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
        let mut granted = 0;
        for i in 0..12 {
            // The ticketed path: its ledger counts the answer.
            dcn_controller::Controller::submit(
                &mut ctrl,
                nodes[i % nodes.len()],
                RequestKind::NonTopological,
            )
            .unwrap();
            if ctrl.ledger().records()[i].outcome.is_granted() {
                granted += 1;
            }
        }
        assert_eq!(granted, 5);
        assert_eq!(ctrl.ledger().rejected(), 7);
    }

    #[test]
    fn messages_scale_with_depth() {
        let tree = DynamicTree::with_initial_path(100);
        let deep = NodeId::from_index(100);
        let mut ctrl = TrivialController::new(tree, 10);
        ctrl.decide(deep, RequestKind::NonTopological).unwrap();
        assert_eq!(ctrl.messages(), 200);
        assert_eq!(ctrl.moves(), 100);
    }

    #[test]
    fn supports_the_full_dynamic_model() {
        let tree = DynamicTree::with_initial_path(4);
        let mut ctrl = TrivialController::new(tree, 10);
        let leaf = NodeId::from_index(4);
        let out = ctrl.decide(leaf, RequestKind::AddLeaf).unwrap();
        let new = match out {
            Outcome::Granted { new_node, .. } => new_node.unwrap(),
            Outcome::Rejected | Outcome::Refused => panic!("should grant"),
        };
        ctrl.decide(leaf, RequestKind::AddInternalAbove(new))
            .unwrap();
        // `leaf` is now an internal node; the trivial controller can still
        // remove it (it supports the full dynamic model).
        ctrl.decide(leaf, RequestKind::RemoveSelf).unwrap();
        assert!(!ctrl.tree().contains(leaf));
        assert!(ctrl.tree().check_invariants().is_ok());
    }

    #[test]
    fn validation_mirrors_the_real_controller() {
        let tree = DynamicTree::with_initial_star(3);
        let mut ctrl = TrivialController::new(tree, 10);
        let root = ctrl.tree().root();
        assert!(matches!(
            ctrl.decide(root, RequestKind::RemoveSelf),
            Err(ControllerError::CannotRemoveRoot)
        ));
        assert!(matches!(
            ctrl.decide(NodeId::from_index(77), RequestKind::NonTopological),
            Err(ControllerError::UnknownNode(_))
        ));
    }
}
