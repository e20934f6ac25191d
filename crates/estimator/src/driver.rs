//! The [`Application`] seam: an application names the epoch engine at the
//! bottom of its stack (the `dcn-controller` [`IterationDriver`] it owns or
//! is layered on, its policy type erased), hooks the end of every execution
//! slice, checks its own invariant — and inherits the whole ticket surface.

use crate::invariant::InvariantError;
use dcn_controller::distributed::{IterationDriver, IterationPolicy};
use dcn_controller::{ControllerError, Progress, RequestId, RequestKind, RequestRecord};
use dcn_simnet::NodeId;
use dcn_tree::DynamicTree;

/// One of the six §5 applications, as every driver sees it: the scenario
/// runner and sweep engine in `dcn-workload` program against
/// `dyn Application` exactly as the controller drivers program against
/// `dyn Controller`.
///
/// An application supplies four things — its name, the [`IterationDriver`]
/// at the bottom of its stack, what it does after every execution slice, and
/// its invariant check. The ticket surface is provided over the driver.
pub trait Application {
    /// A short application name (used in report rows and sweep grids).
    fn name(&self) -> &'static str;

    /// The iteration driver at the bottom of this application's stack (its
    /// own, or that of the application it is layered on), its policy type
    /// erased: `&self.driver` coerces.
    fn runtime(&self) -> &IterationDriver<dyn IterationPolicy>;

    /// Mutable access to the iteration driver at the bottom of the stack.
    fn runtime_mut(&mut self) -> &mut IterationDriver<dyn IterationPolicy>;

    /// Called after every execution slice (each [`Application::step`], hence
    /// also at the end of [`Application::run_to_quiescence`] /
    /// [`Application::run_batch`]) with that slice's progress: the place to
    /// bring the application's own state up to date and charge the messages
    /// that costs. An application layered on one that has a hook of its own
    /// runs that hook first (heavy-child over subtree). The default does
    /// nothing.
    fn after_slice(&mut self, progress: Progress) {
        let _ = progress;
    }

    /// Checks the application's §5 guarantee against its current state.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn check_invariants(&self) -> Result<(), InvariantError>;

    /// Submits a request under a stable ticket (see
    /// [`IterationDriver::submit`]).
    ///
    /// # Errors
    ///
    /// Returns validation errors against the current tree.
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        self.runtime_mut().submit(at, kind)
    }

    /// Advances execution by at most `budget` simulator events (see
    /// [`IterationDriver::step`]), then runs [`Application::after_slice`].
    ///
    /// # Errors
    ///
    /// Propagates simulator and iteration-rotation errors.
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        let progress = self.runtime_mut().step(budget)?;
        self.after_slice(progress);
        Ok(progress)
    }

    /// Runs until every ticket is answered.
    ///
    /// # Errors
    ///
    /// Propagates simulator and iteration-rotation errors.
    fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
        while !self.step(u64::MAX)?.quiescent {}
        Ok(())
    }

    /// Submits a batch of requests and runs to quiescence — the convenience
    /// shim over the ticketed lifecycle. Operations that fail validation
    /// against the current tree (an earlier grant removed their target) are
    /// skipped; the returned records cover exactly this batch's tickets, in
    /// answer order. Requests rejected because an iteration's budget ran out
    /// are retried in the next iteration under the same ticket.
    ///
    /// # Errors
    ///
    /// Propagates simulator and rotation errors.
    fn run_batch(
        &mut self,
        ops: &[(NodeId, RequestKind)],
    ) -> Result<Vec<RequestRecord>, ControllerError> {
        let before = self.records().len();
        for &(at, kind) in ops {
            // Stale intra-batch operations are dropped.
            let _ = self.submit(at, kind);
        }
        self.run_to_quiescence()?;
        Ok(self.records()[before..].to_vec())
    }

    /// Removes and returns the answers given since the last take, in answer
    /// order (see [`IterationDriver::take_records`]).
    fn take_records(&mut self) -> Vec<RequestRecord> {
        self.runtime_mut().take_records()
    }

    /// The answers not yet taken, in answer order.
    fn records(&self) -> &[RequestRecord] {
        self.runtime().records()
    }

    /// The current spanning tree.
    fn tree(&self) -> &DynamicTree {
        self.runtime().tree()
    }

    /// Iterations (epochs) started so far.
    fn iterations(&self) -> u32 {
        self.runtime().iterations()
    }

    /// Topological changes granted so far.
    fn changes(&self) -> u64 {
        self.runtime().changes()
    }

    /// Total messages so far (controller messages plus every charged wave).
    fn messages(&self) -> u64 {
        self.runtime().messages()
    }

    /// Charges `messages` protocol messages of this application (see
    /// [`IterationDriver::charge_messages`]).
    fn charge_messages(&mut self, messages: u64) {
        self.runtime_mut().charge_messages(messages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::distributed::IterationPlan;
    use dcn_simnet::SimConfig;

    /// A minimal policy: budget n/2, no interval, one broadcast per
    /// iteration.
    struct HalfPolicy;

    impl IterationPolicy for HalfPolicy {
        fn plan(&mut self, tree: &DynamicTree) -> IterationPlan {
            let n = tree.node_count() as u64;
            IterationPlan {
                budget: (n / 2).max(1),
                waste: (n / 4).max(1),
                interval: None,
                announce_messages: n,
                u_bound: None,
            }
        }
    }

    /// The thinnest application: nothing but the driver beneath it, so the
    /// provided ticket surface is what the tests exercise.
    struct Bare {
        driver: IterationDriver<HalfPolicy>,
    }

    impl Application for Bare {
        fn name(&self) -> &'static str {
            "bare"
        }

        fn runtime(&self) -> &IterationDriver<dyn IterationPolicy> {
            &self.driver
        }

        fn runtime_mut(&mut self) -> &mut IterationDriver<dyn IterationPolicy> {
            &mut self.driver
        }

        fn check_invariants(&self) -> Result<(), InvariantError> {
            Ok(())
        }
    }

    fn bare(tree: DynamicTree, seed: u64) -> Bare {
        Bare {
            driver: IterationDriver::new(SimConfig::new(seed), tree, HalfPolicy).unwrap(),
        }
    }

    fn driver(n: usize, seed: u64) -> Bare {
        bare(DynamicTree::with_initial_star(n), seed)
    }

    #[test]
    fn construction_starts_the_first_iteration() {
        let mut d = driver(10, 1);
        assert_eq!(d.iterations(), 1);
        assert_eq!(d.driver.estimate(), 11);
        // Announcing N_1 is charged; no ticket has been answered.
        assert_eq!(d.messages(), 11);
        assert!(d.take_records().is_empty());
    }

    #[test]
    fn tickets_survive_iteration_rotations() {
        let mut d = driver(7, 2);
        // Budget 4: submitting 10 leaf requests forces at least one
        // exhaustion + rotation, yet every ticket resolves.
        let root = d.tree().root();
        let ids: Vec<RequestId> = (0..10)
            .map(|_| d.submit(root, RequestKind::AddLeaf).unwrap())
            .collect();
        d.run_to_quiescence().unwrap();
        assert!(d.iterations() > 1, "rotation expected");
        for id in &ids {
            assert!(
                d.records()
                    .iter()
                    .any(|r| r.id == *id && r.outcome.is_granted()),
                "{id} unresolved"
            );
        }
        // Ticket ids are unique and stable.
        let mut sorted: Vec<_> = ids.iter().map(|r| r.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        // Taking hands out exactly one answer per ticket, once.
        assert_eq!(d.take_records().len(), 10);
        assert!(d.take_records().is_empty());
    }

    #[test]
    fn a_slice_ends_at_the_rotation() {
        let mut d = driver(7, 2);
        // Budget 4 against six requests: the first iteration runs dry.
        let root = d.tree().root();
        for _ in 0..6 {
            d.submit(root, RequestKind::AddLeaf).unwrap();
        }
        let p = d.step(u64::MAX).unwrap();
        // The unbounded slice stopped right behind the rotation: iteration 2
        // is installed, and the rejected requests have not been retried yet.
        assert!(!p.quiescent);
        assert_eq!(d.iterations(), 2);
        let answered = d.records().len();
        assert!(answered < 6);
        assert_eq!(d.tree().node_count(), 8 + answered);
        d.run_to_quiescence().unwrap();
        assert_eq!(d.records().len(), 6);
    }

    #[test]
    fn bounded_steps_interleave_submission_with_execution() {
        let mut d = bare(DynamicTree::with_initial_path(20), 3);
        let deep = d.tree().nodes().max_by_key(|&n| d.tree().depth(n)).unwrap();
        d.submit(deep, RequestKind::AddLeaf).unwrap();
        // A tiny slice leaves the request's agent in flight…
        let p = d.step(2).unwrap();
        assert_eq!(p.processed, 2);
        assert!(!p.quiescent);
        // …while a second request arrives mid-flight.
        d.submit(deep, RequestKind::AddLeaf).unwrap();
        let mut total = p.processed;
        loop {
            let p = d.step(64).unwrap();
            total += p.processed;
            if p.quiescent {
                break;
            }
        }
        assert!(total > 2);
        assert_eq!(d.changes(), 2);
        assert_eq!(d.records().len(), 2);
    }

    #[test]
    fn wave_charges_accumulate_across_rotations() {
        let mut d = driver(9, 4);
        let root = d.tree().root();
        for _ in 0..12 {
            d.submit(root, RequestKind::AddLeaf).unwrap();
        }
        d.run_to_quiescence().unwrap();
        assert!(d.iterations() >= 2);
        // Announce (n per iteration) + closing waves (2n per rotation, over
        // the tree the next iteration announces) are charged on top of
        // controller messages; the tree only grows from its 10 nodes.
        let charged = 10 + 3 * 10 * u64::from(d.iterations() - 1);
        assert!(d.messages() >= charged);
        let before = d.messages();
        d.charge_messages(5);
        assert_eq!(d.messages(), before + 5);
    }

    #[test]
    fn submit_validates_against_the_current_tree() {
        let mut d = driver(4, 5);
        let root = d.tree().root();
        assert!(matches!(
            d.submit(NodeId::from_index(999), RequestKind::AddLeaf),
            Err(ControllerError::UnknownNode(_))
        ));
        assert!(matches!(
            d.submit(root, RequestKind::RemoveSelf),
            Err(ControllerError::CannotRemoveRoot)
        ));
    }

    #[test]
    fn duplicate_and_dependent_requests_all_resolve() {
        let mut d = driver(6, 6);
        let leaf = d.tree().nodes().find(|&n| n != d.tree().root()).unwrap();
        // Queue a removal of the leaf twice plus an insertion below it: every
        // ticket must resolve to a final outcome — none may hang — and the
        // tree must end up consistent with the leaf gone.
        let ids = vec![
            d.submit(leaf, RequestKind::RemoveSelf).unwrap(),
            d.submit(leaf, RequestKind::RemoveSelf).unwrap(),
            d.submit(leaf, RequestKind::AddLeaf).unwrap(),
        ];
        d.run_to_quiescence().unwrap();
        for id in &ids {
            assert!(d.records().iter().any(|r| r.id == *id), "{id} unresolved");
        }
        assert!(!d.tree().contains(leaf));
        assert!(d.tree().check_invariants().is_ok());
    }

    #[test]
    fn run_batch_returns_exactly_this_batch_in_answer_order() {
        let mut d = driver(8, 7);
        let root = d.tree().root();
        let first = d.run_batch(&[(root, RequestKind::AddLeaf); 3]).unwrap();
        assert_eq!(first.len(), 3);
        let second = d.run_batch(&[(root, RequestKind::AddLeaf); 2]).unwrap();
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|r| r.outcome.is_granted()));
        assert_eq!(d.records().len(), 5);
    }
}
