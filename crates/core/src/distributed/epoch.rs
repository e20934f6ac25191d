//! The [`EpochShell`]: the paper's one construction past the fixed-`U`
//! controller, as a mechanism.
//!
//! Korman & Kutten build the unknown-`U` controller (Thm 4.9 / App. A) and
//! every §5 protocol the same way: run an `(M_i, W_i)`-controller until it is
//! exhausted, count what is left with a broadcast/upcast, start the next one.
//! The shell owns what every such driver shares — the live-or-parked inner
//! [`DistributedController`], the global clock, the retired-epoch cost
//! accumulators, and the table that carries a caller's *outer* tickets
//! across rebuilds. What differs stays with the three clients as policy
//! ([`AdaptiveDistributedController`](super::AdaptiveDistributedController),
//! the §5 `IterationDriver` in `dcn-estimator`,
//! [`ShardedController`](crate::ShardedController)): seed derivation, the `U`
//! bound, budget and waste, when to rotate, what a local reject means, and
//! the wave messages charged at a boundary.

use super::driver::DistributedController;
use crate::api::{Controller, ControllerMetrics, Progress};
use crate::package::PermitInterval;
use crate::request::{Outcome, RequestId, RequestKind, RequestRecord};
use crate::ControllerError;
use dcn_simnet::{DynamicTree, NodeId, SimConfig};

/// One not-yet-answered outer request, as the epoch clients queue it while it
/// waits for the next epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pending {
    /// The outer ticket.
    pub id: RequestId,
    /// The node the request arrived at.
    pub origin: NodeId,
    /// What the request asks for.
    pub kind: RequestKind,
    /// Global virtual time of the first submission.
    pub submitted_at: u64,
}

impl Pending {
    /// The request of a collected record, to queue it for another epoch.
    pub fn of(record: &RequestRecord) -> Self {
        Pending {
            id: record.id,
            origin: record.origin,
            kind: record.kind,
            submitted_at: record.submitted_at,
        }
    }

    /// The finished record of this request answered with a reject at global
    /// time `at` (the only answer a client gives without an inner controller:
    /// the request went stale while it waited, or the budget is spent).
    pub fn rejected_at(self, at: u64) -> RequestRecord {
        RequestRecord {
            id: self.id,
            origin: self.origin,
            kind: self.kind,
            outcome: Outcome::Rejected,
            submitted_at: self.submitted_at,
            answered_at: at,
        }
    }
}

/// A sequence of fixed-bound distributed controllers over one tree, seen from
/// outside as one clock, one set of tickets and one cost total.
///
/// The shell is either *live* (an inner controller runs the current epoch) or
/// *parked* (the tree waits between epochs). [`EpochShell::retire`] folds the
/// live controller's clock and costs into the accumulators and parks the
/// tree; [`EpochShell::install`] starts the next epoch over it.
#[derive(Debug)]
pub struct EpochShell {
    /// The running epoch's controller; `None` while parked.
    live: Option<DistributedController>,
    /// The tree between epochs; `Some` exactly when `live` is `None`.
    parked: Option<DynamicTree>,
    /// Virtual time accumulated by retired epochs; the global clock is
    /// `time_base + live simulator time`.
    time_base: u64,
    /// Agent hops, messages and peak node memory over retired epochs.
    retired: ControllerMetrics,
    /// `(outer ticket, first submission time)` per inner ticket of the
    /// running epoch (inner ids restart densely from 0 at every install).
    outer_of: Vec<(RequestId, u64)>,
}

impl EpochShell {
    /// A parked shell over `tree`: no epoch has run yet.
    pub fn parked(tree: DynamicTree) -> Self {
        EpochShell {
            live: None,
            parked: Some(tree),
            time_base: 0,
            retired: ControllerMetrics::default(),
            outer_of: Vec::new(),
        }
    }

    /// Starts the next epoch over the parked tree: an `(m, w)`-controller
    /// with node bound `u_bound` on a network configured by `config`
    /// (optionally in interval mode, see
    /// [`DistributedController::with_interval`]).
    ///
    /// # Errors
    ///
    /// Returns the parameter validation errors of
    /// [`DistributedController::new`]; the shell is unusable afterwards, so
    /// callers propagate the error.
    ///
    /// # Panics
    ///
    /// Panics if the shell is live — retire the running epoch first.
    pub fn install(
        &mut self,
        config: SimConfig,
        m: u64,
        w: u64,
        u_bound: usize,
        interval: Option<PermitInterval>,
    ) -> Result<(), ControllerError> {
        // lint: allow(unwrap) a live shell here is a bug in the calling
        // client (every client retires before it installs)
        let tree = self.parked.take().expect("install needs a parked shell");
        self.live = Some(DistributedController::with_interval(
            config, tree, m, w, u_bound, interval,
        )?);
        Ok(())
    }

    /// Ends the running epoch: folds its clock, agent hops, messages and peak
    /// node memory into the accumulators, forgets its inner tickets and parks
    /// the tree. Answers not yet collected are lost — collect first. A no-op
    /// on a parked shell.
    pub fn retire(&mut self) {
        let Some(ctrl) = self.live.take() else {
            return;
        };
        self.time_base += ctrl.sim().time();
        self.retired = self.totals_with(&ctrl);
        self.outer_of.clear();
        self.parked = Some(ctrl.into_tree());
    }

    /// The running epoch's controller, for the reads that are policy
    /// (uncommitted permits, grants, whiteboards); `None` while parked.
    pub fn live(&self) -> Option<&DistributedController> {
        self.live.as_ref()
    }

    /// The tree, live or parked.
    pub fn tree(&self) -> &DynamicTree {
        match &self.live {
            Some(ctrl) => ctrl.tree(),
            // lint: allow(unwrap) exactly one of live/parked is Some (a
            // failed install is terminal, see its docs)
            None => self.parked.as_ref().expect("a parked shell holds the tree"),
        }
    }

    /// The global virtual time: retired epochs' clocks plus the running one.
    pub fn now(&self) -> u64 {
        self.time_base + self.live.as_ref().map_or(0, |c| c.sim().time())
    }

    /// `true` when nothing is in flight (always, while parked).
    pub fn is_quiescent(&self) -> bool {
        self.live.as_ref().map_or(true, |c| c.sim().is_quiescent())
    }

    /// Agent hops (`moves`), messages and peak node memory over every epoch
    /// so far, the running one included.
    pub fn totals(&self) -> ControllerMetrics {
        match &self.live {
            Some(ctrl) => self.totals_with(ctrl),
            None => self.retired,
        }
    }

    /// Messages over every epoch so far (the `messages` of
    /// [`EpochShell::totals`] without its per-node memory scan).
    pub fn messages(&self) -> u64 {
        self.retired.messages + self.live.as_ref().map_or(0, |c| c.messages())
    }

    fn totals_with(&self, ctrl: &DistributedController) -> ControllerMetrics {
        let now = Controller::metrics(ctrl);
        ControllerMetrics {
            moves: self.retired.moves + now.moves,
            messages: self.retired.messages + now.messages,
            peak_node_memory_bits: self
                .retired
                .peak_node_memory_bits
                .max(now.peak_node_memory_bits),
        }
    }

    /// Hands `request` to the running epoch (`origin` and `kind` in the inner
    /// controller's addressing); its answer comes back from
    /// [`EpochShell::collect`] keyed by `request.id` and stamped with
    /// `request.submitted_at`.
    ///
    /// # Errors
    ///
    /// Returns [`Controller::submit`]'s validation errors against the current
    /// tree, and an error on a parked shell.
    pub fn submit(&mut self, request: Pending) -> Result<(), ControllerError> {
        let Some(ctrl) = self.live.as_mut() else {
            return Err(ControllerError::Sim(
                "request submitted to a parked epoch shell".to_string(),
            ));
        };
        let inner = ctrl.submit(request.origin, request.kind)?;
        debug_assert_eq!(inner.0 as usize, self.outer_of.len());
        self.outer_of.push((request.id, request.submitted_at));
        Ok(())
    }

    /// Advances the running epoch by at most `budget` simulator events (see
    /// [`Controller::step`]); a parked shell is quiescent.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        match self.live.as_mut() {
            Some(ctrl) => ctrl.step(budget),
            None => Ok(Progress::quiescent()),
        }
    }

    /// Runs the running epoch to quiescence under the configured
    /// `max_events` valve (see [`Controller::run_to_quiescence`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&mut self) -> Result<(), ControllerError> {
        match self.live.as_mut() {
            Some(ctrl) => ctrl.run_to_quiescence(),
            None => Ok(()),
        }
    }

    /// Takes the running epoch's fresh answers out of the inner controller
    /// (nothing stays behind: no second copy of records, index or events) and
    /// re-keys each to its outer ticket, original submission time and the
    /// global clock. Origin, kind and any granted node stay in the inner
    /// controller's addressing.
    pub fn collect(&mut self) -> Vec<RequestRecord> {
        let Some(ctrl) = self.live.as_mut() else {
            return Vec::new();
        };
        let mut records = ctrl.take_records();
        for rec in &mut records {
            let (outer, submitted_at) = self.outer_of[rec.id.0 as usize];
            rec.id = outer;
            rec.submitted_at = submitted_at;
            rec.answered_at += self.time_base;
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_shell(seed: u64, tree: DynamicTree, m: u64) -> EpochShell {
        let mut shell = EpochShell::parked(tree);
        install(&mut shell, seed, m);
        shell
    }

    fn request(id: u64, submitted_at: u64, origin: NodeId, kind: RequestKind) -> Pending {
        Pending {
            id: RequestId(id),
            origin,
            kind,
            submitted_at,
        }
    }

    fn install(shell: &mut EpochShell, seed: u64, m: u64) {
        let u = shell.tree().node_count() + m as usize + 1;
        shell
            .install(SimConfig::new(seed), m, (m / 2).max(1), u, None)
            .unwrap();
    }

    #[test]
    fn clock_and_tickets_survive_three_retire_install_cycles() {
        let mut shell = live_shell(1, DynamicTree::with_initial_path(6), 4);
        let mut next_ticket = 100u64;
        let mut last_now = 0;
        let mut answered: Vec<RequestRecord> = Vec::new();
        for epoch in 0..4u64 {
            let deep = shell.tree().nodes().last().unwrap();
            let submitted_at = shell.now();
            assert!(submitted_at >= last_now, "clock went backwards");
            let ids = [RequestId(next_ticket), RequestId(next_ticket + 1)];
            next_ticket += 2;
            for id in ids {
                shell
                    .submit(request(id.0, submitted_at, deep, RequestKind::AddLeaf))
                    .unwrap();
            }
            shell.run().unwrap();
            let round = shell.collect();
            assert_eq!(round.len(), 2);
            for rec in &round {
                // Re-keyed to the outer ticket, the original submission time
                // and the global clock.
                assert!(ids.contains(&rec.id), "epoch {epoch}: {rec:?}");
                assert_eq!(rec.submitted_at, submitted_at);
                assert!(rec.answered_at > submitted_at);
                assert!(rec.answered_at <= shell.now());
                assert!(rec.outcome.is_granted());
            }
            answered.extend(round);
            last_now = shell.now();
            shell.retire();
            // Parked: the clock holds and the tree stays readable.
            assert_eq!(shell.now(), last_now);
            assert!(shell.live().is_none());
            assert!(shell.is_quiescent());
            assert_eq!(shell.tree().node_count(), 7 + 2 * (epoch as usize + 1));
            if epoch < 3 {
                install(&mut shell, 10 + epoch, 4);
                assert_eq!(shell.now(), last_now, "a fresh epoch starts at the base");
            }
        }
        let mut ids: Vec<u64> = answered.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (100..108).collect::<Vec<u64>>());
    }

    #[test]
    fn totals_equal_the_sum_over_epochs() {
        let mut shell = live_shell(2, DynamicTree::with_initial_path(10), 6);
        let (mut moves, mut messages, mut peak) = (0, 0, 0);
        for epoch in 0..3u64 {
            let deep = shell.tree().nodes().last().unwrap();
            for i in 0..3 {
                shell
                    .submit(request(i, 0, deep, RequestKind::NonTopological))
                    .unwrap();
            }
            shell.run().unwrap();
            let this_epoch = Controller::metrics(shell.live().unwrap());
            assert!(this_epoch.moves > 0 && this_epoch.messages > 0);
            moves += this_epoch.moves;
            messages += this_epoch.messages;
            peak = peak.max(this_epoch.peak_node_memory_bits);
            // Live and parked totals agree: retiring moves, it does not add.
            let live_totals = shell.totals();
            shell.retire();
            assert_eq!(shell.totals(), live_totals);
            assert_eq!(
                shell.totals(),
                ControllerMetrics {
                    moves,
                    messages,
                    peak_node_memory_bits: peak
                }
            );
            install(&mut shell, 20 + epoch, 6);
        }
    }

    #[test]
    fn collection_leaves_nothing_behind_in_the_inner_controller() {
        let mut shell = live_shell(3, DynamicTree::with_initial_star(5), 8);
        let root = shell.tree().root();
        for i in 0..4 {
            shell
                .submit(request(i, 0, root, RequestKind::AddLeaf))
                .unwrap();
        }
        shell.run().unwrap();
        assert_eq!(shell.live().unwrap().records().len(), 4);
        assert_eq!(shell.collect().len(), 4);
        let inner = shell.live.as_mut().unwrap();
        assert!(inner.records().is_empty());
        assert!(inner.outcome(RequestId(0)).is_none());
        assert!(inner.drain_events().is_empty());
        // A second collection finds nothing new.
        assert!(shell.collect().is_empty());
    }

    #[test]
    fn a_parked_shell_answers_reads_and_refuses_requests() {
        let mut shell = EpochShell::parked(DynamicTree::with_initial_star(3));
        assert_eq!(shell.now(), 0);
        assert_eq!(shell.tree().node_count(), 4);
        assert!(shell.is_quiescent());
        assert_eq!(shell.totals(), ControllerMetrics::default());
        assert!(shell.step(10).unwrap().quiescent);
        assert!(shell.collect().is_empty());
        let root = shell.tree().root();
        assert!(shell
            .submit(request(0, 0, root, RequestKind::NonTopological))
            .is_err());
        // Validation errors of a live shell leave the ticket table untouched.
        install(&mut shell, 4, 2);
        assert!(matches!(
            shell.submit(request(0, 0, root, RequestKind::RemoveSelf)),
            Err(ControllerError::CannotRemoveRoot)
        ));
        shell
            .submit(request(7, 0, root, RequestKind::NonTopological))
            .unwrap();
        shell.run().unwrap();
        assert_eq!(shell.collect()[0].id, RequestId(7));
    }
}
