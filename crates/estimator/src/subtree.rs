//! The subtree (super-weight) estimator of Lemma 5.3.

use crate::invariant::InvariantError;
use crate::size::SizeEstimator;
use crate::{Application, IterationDriver, IterationPolicy};
use dcn_collections::SecondaryMap;
use dcn_controller::{ControllerError, Progress};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::{DynamicTree, TopologyEvent};

/// The subtree estimator: every node `v` maintains an estimate `ω̃(v)` that is
/// a β-approximation of its *super-weight* — the number of descendants of `v`
/// (including `v`) that existed at any point since the beginning of the
/// current size-estimation iteration.
///
/// The estimate is exactly the quantity a node can observe locally:
/// `ω̃(v) = ω₀(v) + S(v)`, where `ω₀(v)` is `v`'s subtree size at the start of
/// the iteration (computed by the iteration's broadcast/upcast and charged as
/// such through the shared [`IterationDriver`](crate::IterationDriver)) and
/// `S(v)` is the number of permits of the size-estimation controller that
/// travelled down the tree through `v` during the iteration — read off the
/// controller's whiteboards.
#[derive(Debug)]
pub struct SubtreeEstimator {
    size: SizeEstimator,
    /// ω₀: subtree sizes at the start of the current iteration.
    omega0: SecondaryMap<NodeId, u64>,
    /// True super-weights (reference tracker used for validation and
    /// experiments; the protocol itself never needs them).
    super_weight: SecondaryMap<NodeId, u64>,
    /// Shadow parent pointers replayed alongside the change log, so ancestor
    /// chains are resolved *as of each event* — a node inserted and removed
    /// within one sync window still credits the ancestors it had.
    shadow_parent: SecondaryMap<NodeId, NodeId>,
    /// The iteration for which `omega0` was computed.
    iteration_tag: u32,
}

impl SubtreeEstimator {
    /// Creates the estimator over `tree` with approximation factor `beta`
    /// (use `β = √3` when feeding the heavy-child decomposition). The
    /// reference super-weights are replayed from the tree's change log, so
    /// the tree records its changes from here on; each slice takes what it
    /// replays, so the tree keeps no history.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors.
    pub fn new(
        config: SimConfig,
        mut tree: DynamicTree,
        beta: f64,
    ) -> Result<Self, ControllerError> {
        tree.record_changes();
        let size = SizeEstimator::new(config, tree, beta)?;
        let mut est = SubtreeEstimator {
            size,
            omega0: SecondaryMap::new(),
            super_weight: SecondaryMap::new(),
            shadow_parent: SecondaryMap::new(),
            iteration_tag: 0,
        };
        est.refresh_omega0();
        Ok(est)
    }

    /// The estimate `ω̃(v) = ω₀(v) + S(v)` held by node `v`.
    pub fn estimate(&self, node: NodeId) -> u64 {
        let base = self.omega0.get(node).copied().unwrap_or(1);
        base + self.size.permits_passed_down(node)
    }

    /// The true super-weight of `v` (reference value, for validation).
    pub fn true_super_weight(&self, node: NodeId) -> u64 {
        self.super_weight.get(node).copied().unwrap_or(1)
    }

    /// Checks the β²-approximation of the estimates against the true
    /// super-weights for every existing node. (The single-sided guarantees of
    /// Lemma 5.3 combine into a factor-β² two-sided bound; the heavy-child
    /// construction only needs the comparison between siblings.)
    ///
    /// # Errors
    ///
    /// Returns the first node whose estimate is out of range.
    pub fn check_estimates(&self) -> Result<(), InvariantError> {
        let beta = self.size.beta();
        let tol = beta * beta;
        for node in self.tree().nodes() {
            let est = self.estimate(node);
            let truth = self.true_super_weight(node);
            let estf = est as f64;
            let truthf = truth as f64;
            if estf < truthf / tol - 1e-9 || estf > truthf * tol + 1e-9 {
                return Err(InvariantError::SuperWeightOutOfBand {
                    node,
                    estimate: est,
                    truth,
                    tolerance: tol,
                });
            }
        }
        Ok(())
    }

    /// Recomputes ω₀ (subtree sizes, summed up a post-order) for the current
    /// iteration and resets the super-weight reference and the shadow parent
    /// map (the changes logged before the rotation are dropped); charged as
    /// one broadcast/upcast wave through the driver.
    fn refresh_omega0(&mut self) {
        let tree = self.size.tree();
        self.omega0.clear();
        self.shadow_parent.clear();
        let order: Vec<NodeId> = tree.dfs(tree.root()).collect();
        for &node in order.iter().rev() {
            let size = *self.omega0.get_or_insert_with(node, || 1);
            if let Some(parent) = tree.parent(node) {
                *self.omega0.get_or_insert_with(parent, || 1) += size;
                self.shadow_parent.insert(node, parent);
            }
        }
        self.super_weight = self.omega0.clone();
        let charge = 2 * tree.node_count() as u64;
        let driver = self.runtime_mut();
        driver.take_change_log();
        driver.charge_messages(charge);
        self.iteration_tag = self.size.iterations();
    }

    /// Credits one new descendant to `from` and every shadow ancestor above
    /// it (walking the parent pointers as they were at event time).
    fn credit_chain(&mut self, from: NodeId) {
        let mut cur = Some(from);
        while let Some(node) = cur {
            *self.super_weight.get_or_insert_with(node, || 1) += 1;
            cur = self.shadow_parent.get(node).copied();
        }
    }

    /// Takes and replays the tree's change log to keep the reference
    /// super-weights current: every inserted node contributes 1 to all the
    /// ancestors it had *at insertion time* (and deletions do not subtract —
    /// the super-weight counts everything that existed at any point in the
    /// iteration). The shadow parent map is replayed alongside, so a node
    /// inserted and deleted within one sync window still credits the right
    /// chain even though the live tree no longer contains it.
    fn update_super_weights(&mut self) {
        let log = self.runtime_mut().take_change_log();
        for &event in log.events() {
            match event {
                TopologyEvent::AddLeaf { parent, child } => {
                    self.super_weight.insert(child, 1);
                    self.shadow_parent.insert(child, parent);
                    self.credit_chain(parent);
                }
                TopologyEvent::AddInternal {
                    parent,
                    node,
                    below,
                } => {
                    // The new internal node inherits the weight below it plus
                    // itself.
                    let below_weight = self.super_weight.get(below).copied().unwrap_or(1);
                    self.super_weight.insert(node, below_weight + 1);
                    self.shadow_parent.insert(node, parent);
                    self.shadow_parent.insert(below, node);
                    // Protocol side: at attach time the new node copies its
                    // child's current estimate (one message, part of the
                    // insertion handshake) — without this, a node spliced
                    // above a large subtree would observe only the permits
                    // that pass it *after* its insertion and undershoot its
                    // real super-weight arbitrarily.
                    let below_estimate = self.omega0.get(below).copied().unwrap_or(1)
                        + self.size.permits_passed_down(below);
                    self.omega0.insert(node, below_estimate + 1);
                    self.credit_chain(parent);
                }
                TopologyEvent::RemoveLeaf { node, .. } => {
                    self.shadow_parent.remove(node);
                }
                TopologyEvent::RemoveInternal { parent, node } => {
                    // The removed node's children were adopted by `parent`.
                    for (_, p) in self.shadow_parent.iter_mut().filter(|(_, p)| **p == node) {
                        *p = parent;
                    }
                    self.shadow_parent.remove(node);
                }
            }
        }
    }
}

impl Application for SubtreeEstimator {
    fn name(&self) -> &'static str {
        "subtree-estimator"
    }

    fn runtime(&self) -> &IterationDriver<dyn IterationPolicy> {
        self.size.runtime()
    }

    fn runtime_mut(&mut self) -> &mut IterationDriver<dyn IterationPolicy> {
        self.size.runtime_mut()
    }

    /// Brings ω₀ and the reference super-weights up to date after every
    /// execution slice: a fresh iteration resets them, otherwise the change
    /// log since the last slice is replayed.
    fn after_slice(&mut self, _progress: Progress) {
        if self.size.iterations() != self.iteration_tag {
            self.refresh_omega0();
        } else {
            self.update_super_weights();
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantError> {
        self.size.check_invariants()?;
        self.check_estimates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

    #[test]
    fn estimates_track_super_weights_under_growth() {
        let tree = DynamicTree::with_initial_path(12);
        let mut est = SubtreeEstimator::new(SimConfig::new(11), tree, f64::sqrt(3.0)).unwrap();
        for round in 0..10usize {
            let nodes: Vec<NodeId> = est.tree().nodes().collect();
            let batch: Vec<(NodeId, RequestKind)> = nodes
                .iter()
                .skip(round % 3)
                .step_by(4)
                .take(4)
                .map(|&n| (n, RequestKind::AddLeaf))
                .collect();
            est.run_batch(&batch).unwrap();
            est.check_estimates().unwrap();
        }
    }

    #[test]
    fn omega0_is_taken_at_the_rotation_not_at_the_end_of_the_slice() {
        // Path n0 – … – n15 with β = 2: an iteration's budget is n/2 = 8.
        let n = NodeId::from_index;
        let tree = DynamicTree::with_initial_path(15);
        let mut est = SubtreeEstimator::new(SimConfig::new(5), tree, 2.0).unwrap();
        let root = est.tree().root();
        // Spend iteration 1 exactly, without touching the tree.
        est.run_batch(&[(root, RequestKind::NonTopological); 8])
            .unwrap();
        assert_eq!(est.iterations(), 1);
        // One batch, one run: the exhausted iteration rejects every request,
        // the driver rotates, and the retries — four leaves under the
        // deepest node, the removal of the four nodes above it — all run in
        // iteration 2, right behind the rotation.
        let mut ops = vec![(n(15), RequestKind::AddLeaf); 4];
        ops.extend((11..15).map(|i| (n(i), RequestKind::RemoveSelf)));
        est.run_batch(&ops).unwrap();
        assert_eq!(est.iterations(), 2);
        assert_eq!(est.tree().node_count(), 16);
        // n10's super-weight counts everything that existed below it at any
        // point of iteration 2: itself, the five nodes it had at the
        // rotation (four of them gone by now) and the four new leaves. A
        // snapshot taken after the retries ran would have lost the four.
        assert_eq!(est.true_super_weight(n(10)), 10);
        est.check_estimates().unwrap();
    }

    #[test]
    fn the_tree_keeps_no_change_history() {
        let tree = DynamicTree::with_initial_star(6);
        let mut est = SubtreeEstimator::new(SimConfig::new(13), tree, 2.0).unwrap();
        for _ in 0..12 {
            let newest = est.tree().nodes().last().unwrap();
            est.run_batch(&[(newest, RequestKind::AddLeaf); 3]).unwrap();
            // Every slice takes what it replays, rotation slices included.
            assert_eq!(est.tree().change_log().len(), 0);
            est.check_estimates().unwrap();
        }
        assert!(est.iterations() > 1, "the growth spans iterations");
        assert_eq!(est.changes(), 36);
    }

    #[test]
    fn root_estimate_is_at_least_the_node_count_contribution() {
        let tree = DynamicTree::with_initial_star(20);
        let est = SubtreeEstimator::new(SimConfig::new(12), tree, 2.0).unwrap();
        let root = est.tree().root();
        assert_eq!(est.estimate(root), 21);
        assert_eq!(est.true_super_weight(root), 21);
    }
}
