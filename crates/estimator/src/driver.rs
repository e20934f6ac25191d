//! The shared [`IterationDriver`]: one epoch engine for every §5 application.
//!
//! Each §5 protocol runs in *iterations*: an iteration opens with an
//! announcement wave (charged `O(n)` messages), runs a fresh terminating
//! distributed controller whose budget caps the drift of the network away
//! from the iteration-start size, and rotates to a new iteration when that
//! controller is exhausted (charging the closing count wave). The mechanism
//! under that — inner controller, global clock, retired-epoch totals, outer
//! tickets that survive rebuilds — is the [`EpochShell`] of
//! `dcn-controller`; the driver is its §5 *policy*: seeds `seed, seed+1, …`,
//! `U = n + budget + 1`, budget and waste from the application's
//! [`IterationPolicy`], rotate when an iteration rejects, retry the rejected
//! requests in the next one, charge `2n` at every close.
//!
//! The driver exposes the same ticket/event/step seam as the controller
//! runtime through the object-safe [`Runtime`] trait (one implementation,
//! whatever the policy type): `submit` returns a stable [`RequestId`] ticket
//! that survives iteration rebuilds, bounded `step` slices interleave
//! execution with new arrivals, `drain_events` streams [`AppEvent`]s (the
//! controller's per-request events plus [`AppEvent::IterationStarted`] at
//! every iteration boundary) and `records` keeps the resolved history.
//! Requests rejected by an exhausted iteration are retried transparently in
//! the next one; their ticket resolves only when a final answer exists.
//!
//! An [`Application`] names the runtime at the bottom of its stack, hooks the
//! end of every execution slice, checks its own invariant — and inherits the
//! whole ticket surface.

use crate::invariant::InvariantError;
use dcn_controller::distributed::{EpochShell, Pending};
use dcn_controller::{
    check_request, ControllerError, ControllerEvent, Outcome, PermitInterval, Progress, RequestId,
    RequestKind, RequestLedger, RequestRecord,
};
use dcn_simnet::{NodeId, SimConfig};
use dcn_tree::DynamicTree;

/// The parameters an [`IterationPolicy`] chooses for one iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationPlan {
    /// The inner controller's permit budget `M` for this iteration.
    pub budget: u64,
    /// The inner controller's waste bound `W`.
    pub waste: u64,
    /// Serial-number interval for interval mode (the name assigner hands the
    /// permits out as identities); `None` for anonymous permits.
    pub interval: Option<PermitInterval>,
    /// Messages charged for the iteration-opening announcement wave(s) — one
    /// broadcast (`n`) for the size estimator's `N_i` announcement, two DFS
    /// renaming traversals (`4n`) for the name assigner.
    pub announce_messages: u64,
}

/// The per-application hook of the [`IterationDriver`]: picks each
/// iteration's controller parameters and absorbs answered requests into the
/// application's own state.
pub trait IterationPolicy {
    /// Plans the iteration about to start over `tree` (called once at
    /// construction and again at every rotation, before the inner controller
    /// is rebuilt). State the application refreshes per iteration — the name
    /// assigner's DFS renaming, the subtree estimator's `ω₀` snapshot —
    /// belongs here.
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan;

    /// Absorbs a round of final answers (called after every answer
    /// collection, before any rotation; `tree` reflects all granted changes
    /// of the round). The default does nothing.
    fn absorb(&mut self, tree: &DynamicTree, records: &[RequestRecord]) {
        let _ = (tree, records);
    }
}

/// An event drained from an [`IterationDriver`] (or any [`Application`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// A per-request controller event (grant / reject / refusal / topology
    /// application), with the driver's stable outer ticket.
    Controller(ControllerEvent),
    /// A new iteration started: the epoch announcement of the §5 protocols.
    IterationStarted {
        /// The 1-based iteration index.
        index: u32,
        /// The iteration-start network size `N_i` (the estimate announced to
        /// every node).
        estimate: u64,
    },
}

impl AppEvent {
    /// The ticket this event belongs to, for per-request events.
    pub fn id(&self) -> Option<RequestId> {
        match self {
            AppEvent::Controller(e) => Some(e.id()),
            AppEvent::IterationStarted { .. } => None,
        }
    }

    /// Returns `true` for the answer events that resolve a ticket.
    pub fn is_answer(&self) -> bool {
        matches!(self, AppEvent::Controller(e) if e.is_answer())
    }
}

/// Consecutive grant-free rotations after which the driver stops retrying
/// and rejects the stragglers (a fresh iteration normally grants at least
/// one request; this is the safety valve the old per-app loops capped at 64
/// rounds).
const MAX_STALLED_ROTATIONS: u32 = 64;

/// The ticket runtime at the bottom of every [`Application`] stack: the
/// [`IterationDriver`] with its policy type erased.
pub trait Runtime {
    /// Submits a request arriving at `at` under a stable ticket; execution
    /// happens in the next [`Runtime::step`].
    ///
    /// # Errors
    ///
    /// Returns validation errors against the *current* tree (unknown node,
    /// malformed topological request); such a request never entered the
    /// driver and resolves to no event.
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError>;

    /// Advances execution by at most `budget` inner simulator events.
    /// `Progress::quiescent` is `true` once no ticket is unanswered. A slice
    /// never spans an iteration boundary: it ends (not quiescent) right
    /// after a rotation, before any retried request runs.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors and rotation-time construction errors.
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError>;

    /// Removes and returns the events produced since the last drain, in
    /// emission order.
    fn drain_events(&mut self) -> Vec<AppEvent>;

    /// All resolved requests so far, in answer order.
    fn records(&self) -> &[RequestRecord];

    /// The current spanning tree.
    fn tree(&self) -> &DynamicTree;

    /// Iterations (epochs) started so far.
    fn iterations(&self) -> u32;

    /// Topological changes granted so far.
    fn changes(&self) -> u64;

    /// Total messages so far: inner controller messages plus every charged
    /// wave.
    fn messages(&self) -> u64;

    /// Charges `messages` application-level protocol messages (re-labelings,
    /// pointer flips, vote deliveries) to the driver's counter —
    /// applications declare costs, they do not own counters.
    fn charge_messages(&mut self, messages: u64);
}

/// The shared iteration engine of the §5 applications: the §5 policy over an
/// [`EpochShell`] — seeds `seed, seed+1, …`, `U = n + budget + 1`, rotate when
/// an iteration rejects and retry in the next one, `2n` charged at every
/// close — parameterised by the application's [`IterationPolicy`].
#[derive(Debug)]
pub struct IterationDriver<P> {
    config: SimConfig,
    policy: P,
    shell: EpochShell,
    ledger: RequestLedger,
    /// Drained events, in emission order; per-request events wait in the
    /// ledger until an iteration boundary or a drain moves them here.
    events: Vec<AppEvent>,
    /// The iteration-start size `N_i` announced to every node.
    estimate: u64,
    iterations: u32,
    /// Charged waves: announcements, closing counts, application charges.
    aux_messages: u64,
    changes_total: u64,
    seed_counter: u64,
    /// Outer tickets submitted but not yet handed to the inner controller.
    queued: Vec<Pending>,
    /// Requests rejected by an exhausted iteration, waiting for the rotation
    /// that retries them.
    retry: Vec<Pending>,
    stalled_rotations: u32,
}

impl<P: IterationPolicy> IterationDriver<P> {
    /// Creates the driver over `tree`, planning and starting the first
    /// iteration through `policy`.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors (invalid plan parameters).
    pub fn new(config: SimConfig, tree: DynamicTree, policy: P) -> Result<Self, ControllerError> {
        let mut driver = IterationDriver {
            config,
            policy,
            shell: EpochShell::parked(tree),
            ledger: RequestLedger::new(),
            events: Vec::new(),
            estimate: 0,
            iterations: 0,
            aux_messages: 0,
            changes_total: 0,
            seed_counter: config.seed,
            queued: Vec::new(),
            retry: Vec::new(),
            stalled_rotations: 0,
        };
        driver.start_iteration()?;
        Ok(driver)
    }

    /// The iteration policy (the application's own state lives here).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The iteration-start size `N_i` held by every node (the estimate `ñ`
    /// of the size-estimation protocol).
    pub fn estimate(&self) -> u64 {
        self.estimate
    }

    /// The number of permits that travelled down through `node` in the
    /// current iteration (read off the inner controller's whiteboard; used
    /// by the subtree estimator).
    pub fn permits_passed_down(&self, node: NodeId) -> u64 {
        self.shell
            .live()
            .and_then(|inner| inner.whiteboard(node))
            .map_or(0, |wb| wb.permits_passed_down)
    }

    /// The outcome of a specific ticket, if it has been answered.
    pub fn outcome(&self, id: RequestId) -> Option<Outcome> {
        self.ledger.outcome(id)
    }

    /// Hands queued and retried requests to the inner controller under their
    /// outer tickets. Requests whose origin vanished (or whose topological
    /// precondition broke) while they waited are answered with a final
    /// reject.
    fn flush_queued(&mut self) -> Result<(), ControllerError> {
        let mut waiting = std::mem::take(&mut self.retry);
        waiting.append(&mut self.queued);
        for request in waiting {
            if check_request(self.shell.tree(), request.origin, request.kind).is_err() {
                self.ledger.push(request.rejected_at(self.shell.now()));
                continue;
            }
            self.shell.submit(request)?;
        }
        Ok(())
    }

    /// Moves the inner controller's fresh answers into the outer history:
    /// grants become final records/events, rejects join the retry queue for
    /// the next iteration.
    fn collect_answers(&mut self) {
        let before = self.ledger.records().len();
        for rec in self.shell.collect() {
            match rec.outcome {
                Outcome::Granted { .. } => {
                    if rec.kind.is_topological() {
                        self.changes_total += 1;
                    }
                    self.stalled_rotations = 0;
                    self.ledger.push(rec);
                }
                Outcome::Rejected => self.retry.push(Pending::of(&rec)),
                // The fixed-bound distributed family supports the full
                // dynamic model and never refuses.
                Outcome::Refused => unreachable!("distributed controller never refuses"),
            }
        }
        let granted = &self.ledger.records()[before..];
        if !granted.is_empty() {
            self.policy.absorb(self.shell.tree(), granted);
        }
    }

    /// Moves the ledger's per-request events behind everything already
    /// emitted (called before an iteration announcement and before a drain,
    /// which keeps the stream in emission order).
    fn flush_events(&mut self) {
        let fresh = self.ledger.drain_events();
        self.events
            .extend(fresh.into_iter().map(AppEvent::Controller));
    }

    /// Closes the exhausted iteration — the shell folds its messages and
    /// clock into the totals, the closing count wave (broadcast + upcast,
    /// `2n`) is charged — and starts the next one.
    fn rotate(&mut self) -> Result<(), ControllerError> {
        self.shell.retire();
        self.aux_messages += 2 * self.shell.tree().node_count() as u64;
        self.stalled_rotations += 1;
        self.start_iteration()
    }

    /// Plans and starts an iteration over the parked tree: charges the
    /// announcement wave, derives the iteration seed, installs the inner
    /// controller and emits [`AppEvent::IterationStarted`].
    fn start_iteration(&mut self) -> Result<(), ControllerError> {
        let tree = self.shell.tree();
        let nodes = tree.node_count();
        self.iterations += 1;
        self.estimate = nodes as u64;
        let plan = self.policy.plan(tree);
        self.aux_messages += plan.announce_messages;
        let budget = plan.budget.max(1);
        let waste = plan.waste.min(budget);
        let u_bound = nodes + budget as usize + 1;
        let mut cfg = self.config;
        cfg.seed = self.seed_counter;
        self.seed_counter = self.seed_counter.wrapping_add(1);
        self.shell
            .install(cfg, budget, waste, u_bound, plan.interval)?;
        self.flush_events();
        self.events.push(AppEvent::IterationStarted {
            index: self.iterations,
            estimate: self.estimate,
        });
        Ok(())
    }
}

impl<P: IterationPolicy> Runtime for IterationDriver<P> {
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        check_request(self.shell.tree(), at, kind)?;
        let request = Pending {
            id: self.ledger.issue(),
            origin: at,
            kind,
            submitted_at: self.shell.now(),
        };
        self.queued.push(request);
        Ok(request.id)
    }

    /// Hands queued submissions to the inner controller, collects final
    /// answers, and rotates iterations when the current one is exhausted —
    /// which ends the slice.
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        let mut processed = 0u64;
        loop {
            self.flush_queued()?;
            let slice = self.shell.step(budget - processed)?;
            processed += slice.processed;
            self.collect_answers();
            if !slice.quiescent {
                // Budget exhausted with agents still in flight.
                return Ok(Progress {
                    processed,
                    quiescent: false,
                });
            }
            // The inner controller is quiescent; are we done, or did an
            // exhausted iteration leave rejected requests to retry?
            if self.retry.is_empty() && self.queued.is_empty() {
                // Settle the policy against the fully-applied tree: grants
                // are answered slightly before the simulator applies their
                // topological change, so bookkeeping keyed on tree contents
                // (identity assignment) needs one final absorb.
                self.policy.absorb(self.shell.tree(), &[]);
                return Ok(Progress {
                    processed,
                    quiescent: true,
                });
            }
            if !self.retry.is_empty() {
                if self.stalled_rotations >= MAX_STALLED_ROTATIONS {
                    // Safety valve: iterations keep exhausting without
                    // granting anything; answer the stragglers with final
                    // rejects rather than looping forever.
                    let now = self.shell.now();
                    for request in std::mem::take(&mut self.retry) {
                        self.ledger.push(request.rejected_at(now));
                    }
                    continue;
                }
                self.rotate()?;
                // The slice ends at the rotation, so `after_slice` sees the
                // freshly installed iteration over the tree exactly as it
                // was parked: per-iteration snapshots (the subtree
                // estimator's ω₀) are the iteration-start broadcast/upcast,
                // not whatever the retried requests leave behind.
                return Ok(Progress {
                    processed,
                    quiescent: false,
                });
            }
        }
    }

    fn drain_events(&mut self) -> Vec<AppEvent> {
        self.flush_events();
        std::mem::take(&mut self.events)
    }

    fn records(&self) -> &[RequestRecord] {
        self.ledger.records()
    }

    fn tree(&self) -> &DynamicTree {
        self.shell.tree()
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn changes(&self) -> u64 {
        self.changes_total
    }

    fn messages(&self) -> u64 {
        self.shell.messages() + self.aux_messages
    }

    fn charge_messages(&mut self, messages: u64) {
        self.aux_messages += messages;
    }
}

/// One of the six §5 applications, as every driver sees it: the scenario
/// runner and sweep engine in `dcn-workload` program against
/// `dyn Application` exactly as the controller drivers program against
/// `dyn Controller`.
///
/// An application supplies four things — its name, the [`Runtime`] at the
/// bottom of its stack, what it does after every execution slice, and its
/// invariant check. The ticket surface is provided over the runtime.
pub trait Application {
    /// A short application name (used in report rows and sweep grids).
    fn name(&self) -> &'static str;

    /// The iteration driver at the bottom of this application's stack (its
    /// own, or that of the application it is layered on).
    fn runtime(&self) -> &dyn Runtime;

    /// Mutable access to the iteration driver at the bottom of the stack.
    fn runtime_mut(&mut self) -> &mut dyn Runtime;

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

    /// Submits a request under a stable ticket (see [`Runtime::submit`]).
    ///
    /// # Errors
    ///
    /// Returns validation errors against the current tree.
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        self.runtime_mut().submit(at, kind)
    }

    /// Advances execution by at most `budget` simulator events (see
    /// [`Runtime::step`]), then runs [`Application::after_slice`].
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

    /// Removes and returns the events produced since the last drain.
    fn drain_events(&mut self) -> Vec<AppEvent> {
        self.runtime_mut().drain_events()
    }

    /// All resolved requests so far, in answer order.
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
    /// [`Runtime::charge_messages`]).
    fn charge_messages(&mut self, messages: u64) {
        self.runtime_mut().charge_messages(messages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        fn runtime(&self) -> &dyn Runtime {
            &self.driver
        }

        fn runtime_mut(&mut self) -> &mut dyn Runtime {
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
    fn construction_emits_the_first_iteration_event() {
        let mut d = driver(10, 1);
        assert_eq!(d.iterations(), 1);
        assert_eq!(d.driver.estimate(), 11);
        let events = d.drain_events();
        assert_eq!(
            events,
            vec![AppEvent::IterationStarted {
                index: 1,
                estimate: 11
            }]
        );
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
                d.driver.outcome(*id).is_some_and(|o| o.is_granted()),
                "{id} unresolved"
            );
        }
        // Ticket ids are unique and stable.
        let mut sorted: Vec<_> = ids.iter().map(|r| r.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        // The event stream contains the rotation announcements and exactly
        // one answer per ticket.
        let events = d.drain_events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, AppEvent::IterationStarted { .. }))
            .count();
        assert_eq!(starts as u32, d.iterations());
        assert_eq!(events.iter().filter(|e| e.is_answer()).count(), 10);
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
        let controller_only = d.driver.shell.messages();
        assert!(d.iterations() >= 2);
        // Announce (n per iteration) + closing waves (2n per rotation) are
        // charged on top of controller messages.
        assert!(d.messages() > controller_only);
        d.charge_messages(5);
        assert_eq!(d.messages(), controller_only + d.driver.aux_messages);
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
            assert!(d.driver.outcome(*id).is_some(), "{id} unresolved");
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
