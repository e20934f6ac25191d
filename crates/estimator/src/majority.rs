//! Majority commitment over a dynamic network (§1.3, §1.4).
//!
//! Bar-Yehuda and Kutten introduced asynchronous size estimation as the tool
//! for *majority commitment* (asynchronous two-phase commit in a network where
//! some nodes may never wake up): the coordinator may only commit once it is
//! certain that a majority of **all** nodes — not just of the nodes it has
//! heard from — voted to commit. The paper notes that its size-estimation
//! protocol generalizes majority commitment to networks that also undergo
//! controlled insertions and deletions of leaves and internal nodes.
//!
//! [`MajorityCommitment`] implements that generalization: votes travel to the
//! root along the tree (costing one message per hop, charged through the
//! shared driver), topological changes go through the size-estimation
//! protocol, and the coordinator commits only when the number of commit votes
//! reaches `⌈β·ñ/2⌉ + 1`, where `ñ` is the current size estimate. Since
//! `n ≤ β·ñ` at all times, this threshold guarantees a strict majority of the
//! *current* network, whatever the churn did.

use crate::size::SizeEstimator;
use dcn_collections::SlidingMap;
use dcn_controller::{Controller, ControllerError, InvariantError, Progress};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// The coordinator's decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// A guaranteed strict majority of the current network voted to commit.
    Commit,
    /// Too many nodes voted to abort for a commit majority to ever form among
    /// the nodes currently known.
    Abort,
}

/// Majority commitment driven by the β-size-estimation protocol.
///
/// ```
/// use dcn_controller::Controller;
/// use dcn_estimator::{Decision, MajorityCommitment};
/// use dcn_simnet::SimConfig;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(8);
/// let mut mc = MajorityCommitment::new(SimConfig::new(1), tree, 2.0)?;
/// for node in mc.tree().nodes().collect::<Vec<_>>() {
///     mc.cast_vote(node, true)?;
/// }
/// assert_eq!(mc.decision(), Some(Decision::Commit));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MajorityCommitment {
    pub(crate) size: SizeEstimator,
    // Vote sets are node-keyed, so they are dense slot maps (the unit
    // value makes them sets); membership is an O(1) slot probe.
    commit_votes: SlidingMap<NodeId, ()>,
    abort_votes: SlidingMap<NodeId, ()>,
    decision: Option<Decision>,
}

impl MajorityCommitment {
    /// Creates the protocol over `tree` with the given approximation factor
    /// for the underlying size estimator.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 1` (forwarded from the size estimator).
    pub fn new(config: SimConfig, tree: DynamicTree, beta: f64) -> Result<Self, ControllerError> {
        Ok(MajorityCommitment {
            size: SizeEstimator::new(config, tree, beta)?,
            commit_votes: SlidingMap::new(),
            abort_votes: SlidingMap::new(),
            decision: None,
        })
    }

    /// The commit threshold implied by the current size estimate: reaching it
    /// guarantees a strict majority of the current network.
    ///
    /// The size-estimation protocol guarantees (§5.1) that during an iteration
    /// with announced estimate `ñ = N_i`, the true size satisfies
    /// `n ≤ (2 − 1/β)·ñ`; any vote count strictly above half of that upper
    /// bound is therefore a strict majority of the current network.
    pub fn commit_threshold(&self) -> u64 {
        let beta = self.size.beta();
        let upper = (2.0 - 1.0 / beta) * self.size.estimate() as f64;
        (upper / 2.0).floor() as u64 + 1
    }

    /// The largest number of nodes the current network can possibly contain,
    /// given the estimate (the `(2 − 1/β)·ñ` bound of §5.1).
    fn size_upper_bound(&self) -> u64 {
        let beta = self.size.beta();
        ((2.0 - 1.0 / beta) * self.size.estimate() as f64).ceil() as u64
    }

    /// Number of commit votes received from nodes that still exist.
    pub fn commit_votes(&self) -> u64 {
        self.commit_votes
            .iter()
            .filter(|&(v, _)| self.tree().contains(v))
            .count() as u64
    }

    /// Number of abort votes received from nodes that still exist.
    pub fn abort_votes(&self) -> u64 {
        self.abort_votes
            .iter()
            .filter(|&(v, _)| self.tree().contains(v))
            .count() as u64
    }

    /// The coordinator's decision, once one has been reached.
    pub fn decision(&self) -> Option<Decision> {
        self.decision
    }

    /// Casts `node`'s vote (`true` = commit). The vote travels to the root,
    /// costing one message per hop. Re-votes are idempotent; votes after a
    /// decision are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::UnknownNode`] if `node` does not exist.
    pub fn cast_vote(&mut self, node: NodeId, commit: bool) -> Result<(), ControllerError> {
        if !self.tree().contains(node) {
            return Err(ControllerError::UnknownNode(node));
        }
        if self.decision.is_some() {
            return Ok(());
        }
        let hops = self.tree().depth(node) as u64;
        self.size.driver.charge_messages(hops);
        if commit {
            self.abort_votes.remove(node);
            self.commit_votes.insert(node, ());
        } else {
            self.commit_votes.remove(node);
            self.abort_votes.insert(node, ());
        }
        self.try_decide();
        Ok(())
    }

    /// Checks the safety property of the protocol: if the coordinator has
    /// committed, a strict majority of the *current* network did vote commit.
    ///
    /// # Errors
    ///
    /// Returns [`InvariantError::UnsafeCommit`] on violation.
    pub fn check_safety(&self) -> Result<(), InvariantError> {
        if self.decision == Some(Decision::Commit) {
            let nodes = self.tree().node_count();
            let commits = self.commit_votes();
            if 2 * commits <= nodes as u64 {
                return Err(InvariantError::UnsafeCommit { commits, nodes });
            }
        }
        Ok(())
    }

    fn try_decide(&mut self) {
        if self.decision.is_some() {
            return;
        }
        let threshold = self.commit_threshold();
        if self.commit_votes() >= threshold {
            self.decision = Some(Decision::Commit);
            return;
        }
        // Abort when so many existing nodes voted abort that even if every
        // other node (including future joiners within this iteration's budget)
        // voted commit, the guaranteed-majority threshold could not be met.
        let optimistic_commits =
            self.commit_votes() + self.size_upper_bound().saturating_sub(self.votes_cast());
        if self.abort_votes() > 0 && optimistic_commits < threshold {
            self.decision = Some(Decision::Abort);
        }
    }

    fn votes_cast(&self) -> u64 {
        self.commit_votes() + self.abort_votes()
    }

    /// Drops votes of departed nodes and re-checks whether a decision can be
    /// made.
    fn after_slice(&mut self, _progress: Progress) {
        // Probe the tree arena directly instead of materialising the full
        // node set on every slice — membership is an O(1) slot check.
        let tree = self.size.tree();
        self.commit_votes.retain(|v, _| tree.contains(v));
        self.abort_votes.retain(|v, _| tree.contains(v));
        self.try_decide();
    }
}

impl Controller for MajorityCommitment {
    engine_controller!("majority-commitment", size.driver, after_slice);

    fn check_invariants(&self) -> Result<(), InvariantError> {
        self.size.check_invariants()?;
        self.check_safety()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

    #[test]
    fn unanimous_commit_reaches_a_commit_decision() {
        let tree = DynamicTree::with_initial_star(9);
        let mut mc = MajorityCommitment::new(SimConfig::new(41), tree, 2.0).unwrap();
        for node in mc.tree().nodes().collect::<Vec<_>>() {
            mc.cast_vote(node, true).unwrap();
        }
        assert_eq!(mc.decision(), Some(Decision::Commit));
        mc.check_safety().unwrap();
        assert!(mc.metrics().messages > 0);
    }

    #[test]
    fn a_bare_plurality_is_not_enough_under_uncertainty() {
        // With beta = 2 the coordinator must see beta·n/2 + 1 votes, so just
        // over half of the nodes is not sufficient when the estimate is loose.
        let tree = DynamicTree::with_initial_star(9);
        let mut mc = MajorityCommitment::new(SimConfig::new(42), tree, 2.0).unwrap();
        let nodes: Vec<NodeId> = mc.tree().nodes().collect();
        for &node in nodes.iter().take(6) {
            mc.cast_vote(node, true).unwrap();
        }
        assert_eq!(mc.decision(), None);
        mc.check_safety().unwrap();
    }

    #[test]
    fn heavy_abort_vote_leads_to_abort() {
        let tree = DynamicTree::with_initial_star(7);
        let mut mc = MajorityCommitment::new(SimConfig::new(43), tree, 2.0).unwrap();
        for node in mc.tree().nodes().collect::<Vec<_>>() {
            mc.cast_vote(node, false).unwrap();
        }
        assert_eq!(mc.decision(), Some(Decision::Abort));
        mc.check_safety().unwrap();
    }

    #[test]
    fn commit_safety_survives_churn_between_votes() {
        let tree = DynamicTree::with_initial_star(11);
        let mut mc = MajorityCommitment::new(SimConfig::new(44), tree, 2.0).unwrap();
        // Half the nodes vote commit, then the network grows, then the rest
        // vote; the decision may only appear once a guaranteed majority of the
        // *current* network has committed.
        let nodes: Vec<NodeId> = mc.tree().nodes().collect();
        for &node in nodes.iter().take(6) {
            mc.cast_vote(node, true).unwrap();
        }
        let root = mc.tree().root();
        mc.run_batch(&[(root, RequestKind::AddLeaf); 6]).unwrap();
        mc.check_safety().unwrap();
        for node in mc.tree().nodes().collect::<Vec<_>>() {
            mc.cast_vote(node, true).unwrap();
            mc.check_safety().unwrap();
        }
        assert_eq!(mc.decision(), Some(Decision::Commit));
    }

    #[test]
    fn votes_from_unknown_nodes_are_rejected() {
        let tree = DynamicTree::with_initial_star(3);
        let mut mc = MajorityCommitment::new(SimConfig::new(45), tree, 2.0).unwrap();
        assert!(mc.cast_vote(NodeId::from_index(99), true).is_err());
    }
}
