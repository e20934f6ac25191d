//! The size-estimation protocol (Theorem 5.1).

use crate::invariant::InvariantError;
use crate::Application;
use dcn_controller::distributed::{IterationDriver, IterationPlan, IterationPolicy};
use dcn_controller::ControllerError;
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// The iteration policy of Theorem 5.1: iteration `i` announces `N_i` (one
/// broadcast) and runs an `(α·N_i, α·N_i/2)`-controller with `α = 1 − 1/β`,
/// capping the drift of `n` away from `N_i`.
#[derive(Debug)]
pub(crate) struct SizePolicy {
    beta: f64,
}

impl SizePolicy {
    pub(crate) fn new(beta: f64) -> Self {
        assert!(beta > 1.0, "the approximation factor must exceed 1");
        SizePolicy { beta }
    }

    pub(crate) fn beta(&self) -> f64 {
        self.beta
    }

    fn alpha(&self) -> f64 {
        1.0 - 1.0 / self.beta
    }
}

impl IterationPolicy for SizePolicy {
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan {
        let n = tree.node_count() as u64;
        let budget = ((self.alpha() * n as f64).floor() as u64).max(1);
        IterationPlan {
            budget,
            waste: (budget / 2).max(1),
            interval: None,
            // Announcing N_i to all nodes: one broadcast.
            announce_messages: n,
            u_bound: None,
        }
    }
}

/// The β-size-estimation protocol: all nodes maintain an estimate `ñ` with
/// `n/β ≤ ñ ≤ β·n` at all times, where `n` is the current number of nodes.
///
/// The protocol runs in iterations driven by the shared
/// [`IterationDriver`]: iteration `i` starts by announcing `N_i`, the exact
/// number of nodes at that moment, to every node (a broadcast, charged
/// `O(n)` messages); during the iteration every topological change must
/// obtain a permit from a terminating `(α·N_i, α·N_i/2)`-controller with
/// `α = 1 − 1/β`, which caps the drift of `n` away from `N_i`; when that
/// controller is exhausted a new iteration starts (counted by
/// [`Application::iterations`]).
///
/// ```
/// use dcn_estimator::{Application, SizeEstimator};
/// use dcn_controller::RequestKind;
/// use dcn_simnet::SimConfig;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(15);
/// let mut est = SizeEstimator::new(SimConfig::new(3), tree, 2.0)?;
/// let root = est.tree().root();
/// est.run_batch(&[(root, RequestKind::AddLeaf); 8])?;
/// est.check_invariants().unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SizeEstimator {
    driver: IterationDriver<SizePolicy>,
}

impl SizeEstimator {
    /// Creates the estimator over `tree` with approximation factor `beta > 1`.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors (the first iteration's
    /// controller is built immediately).
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 1`.
    pub fn new(config: SimConfig, tree: DynamicTree, beta: f64) -> Result<Self, ControllerError> {
        Ok(SizeEstimator {
            driver: IterationDriver::new(config, tree, SizePolicy::new(beta))?,
        })
    }

    /// The estimate `ñ = N_i` currently held by every node.
    pub fn estimate(&self) -> u64 {
        self.driver.estimate()
    }

    /// The approximation factor β.
    pub fn beta(&self) -> f64 {
        self.driver.policy().beta()
    }

    /// Amortized messages per topological change (the quantity Theorem 5.1
    /// bounds by `O(log² n)` when the number of changes is not too small).
    pub fn amortized_messages_per_change(&self) -> f64 {
        self.messages() as f64 / self.changes().max(1) as f64
    }

    /// `true` when the β-approximation invariant currently holds
    /// (convenience wrapper over [`Application::check_invariants`]).
    pub fn estimate_is_valid(&self) -> bool {
        self.check_invariants().is_ok()
    }

    /// The number of permits that have passed down through `node` in the
    /// current iteration (used by the subtree estimator).
    pub fn permits_passed_down(&self, node: NodeId) -> u64 {
        self.driver.permits_passed_down(node)
    }
}

impl Application for SizeEstimator {
    fn name(&self) -> &'static str {
        "size-estimator"
    }

    fn runtime(&self) -> &IterationDriver<dyn IterationPolicy> {
        &self.driver
    }

    fn runtime_mut(&mut self) -> &mut IterationDriver<dyn IterationPolicy> {
        &mut self.driver
    }

    /// Checks the β-approximation invariant `n/β ≤ ñ ≤ β·n` against the
    /// current network size ([`InvariantError::EstimateOutOfBand`]).
    fn check_invariants(&self) -> Result<(), InvariantError> {
        let nodes = self.tree().node_count();
        let n = nodes as f64;
        let e = self.estimate() as f64;
        let beta = self.beta();
        if e < n / beta - 1e-9 || e > n * beta + 1e-9 {
            return Err(InvariantError::EstimateOutOfBand {
                estimate: self.estimate(),
                nodes,
                beta,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

    #[test]
    fn estimate_stays_within_beta_during_heavy_growth() {
        let tree = DynamicTree::with_initial_star(7);
        let mut est = SizeEstimator::new(SimConfig::new(1), tree, 2.0).unwrap();
        for _ in 0..20 {
            let nodes: Vec<NodeId> = est.tree().nodes().collect();
            let batch: Vec<(NodeId, RequestKind)> = nodes
                .iter()
                .take(6)
                .map(|&n| (n, RequestKind::AddLeaf))
                .collect();
            est.run_batch(&batch).unwrap();
            est.check_invariants().unwrap_or_else(|e| {
                panic!("{e} (n = {})", est.tree().node_count());
            });
        }
        assert!(est.iterations() > 1, "growth must trigger new iterations");
        assert!(est.tree().node_count() > 50);
    }

    #[test]
    fn estimate_stays_within_beta_during_shrinkage() {
        let tree = DynamicTree::with_initial_star(120);
        let mut est = SizeEstimator::new(SimConfig::new(2), tree, 2.0).unwrap();
        for _ in 0..25 {
            let victims: Vec<(NodeId, RequestKind)> = est
                .tree()
                .nodes()
                .filter(|&n| n != est.tree().root())
                .take(5)
                .map(|n| (n, RequestKind::RemoveSelf))
                .collect();
            if victims.is_empty() {
                break;
            }
            est.run_batch(&victims).unwrap();
            est.check_invariants().unwrap_or_else(|e| {
                panic!("{e} (n = {})", est.tree().node_count());
            });
        }
        assert!(est.tree().node_count() < 60);
    }

    #[test]
    fn amortized_cost_is_moderate() {
        let tree = DynamicTree::with_initial_star(31);
        let mut est = SizeEstimator::new(SimConfig::new(3), tree, 2.0).unwrap();
        for _ in 0..30 {
            let nodes: Vec<NodeId> = est.tree().nodes().collect();
            let batch: Vec<(NodeId, RequestKind)> = nodes
                .iter()
                .step_by(3)
                .take(8)
                .map(|&n| (n, RequestKind::AddLeaf))
                .collect();
            est.run_batch(&batch).unwrap();
        }
        let n = est.tree().node_count() as f64;
        let log2n = n.log2();
        // Theorem 5.1: O(log² n) amortized; allow a generous constant.
        assert!(
            est.amortized_messages_per_change() < 60.0 * log2n * log2n,
            "amortized cost {} too high (n = {})",
            est.amortized_messages_per_change(),
            n
        );
    }

    #[test]
    fn answers_stream_through_the_ticketed_seam_across_iterations() {
        let tree = DynamicTree::with_initial_star(7);
        let mut est = SizeEstimator::new(SimConfig::new(4), tree, 2.0).unwrap();
        let root = est.tree().root();
        let mut ids = Vec::new();
        for _ in 0..12 {
            ids.push(est.submit(root, RequestKind::AddLeaf).unwrap());
        }
        est.run_to_quiescence().unwrap();
        assert!(est.iterations() > 1, "the growth spans iterations");
        let mut answered: Vec<_> = est.take_records().iter().map(|r| r.id).collect();
        answered.sort_unstable();
        assert_eq!(answered, ids, "each ticket answered once");
        assert!(est.records().is_empty());
        est.check_invariants().unwrap();
    }

    #[test]
    fn beta_flows_into_the_size_estimator() {
        let est =
            SizeEstimator::new(SimConfig::new(0), DynamicTree::with_initial_star(8), 3.0).unwrap();
        assert_eq!(est.beta(), 3.0);
        // β = 3 tolerates a 3× size mismatch: estimate 9 vs n up to 27.
        assert_eq!(est.estimate(), 9);
        assert!(est.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "approximation factor")]
    fn beta_must_exceed_one() {
        let _ = SizeEstimator::new(SimConfig::new(0), DynamicTree::new(), 1.0);
    }
}
