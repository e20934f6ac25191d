//! The one epoch engine. Korman & Kutten build the iterated and unknown-`U`
//! controllers (Obs. 3.4, Thm 3.5, Thm 4.9 / App. A) and every §5 protocol
//! the same way: run an `(M_i, W_i)`-controller until it is exhausted, count
//! what is left with a broadcast/upcast, start the next one. The
//! [`EpochShell`] is the mechanism (inner controller, global clock, cost
//! totals, outer tickets in flight); the [`IterationDriver`] is the loop over
//! it, with every choice that differs between the §5 applications and the
//! iterated controllers ([`Iterated`](crate::Iterated)) an
//! [`IterationPolicy`] hook. The inner controller is an [`InnerController`]:
//! the distributed one of §4, or the centralized one of §3. The
//! [`ShardedController`](crate::ShardedController) drives bare shells: its
//! k-shell exchange wave is not this loop.

use super::driver::DistributedController;
use crate::api::{Controller, ControllerMetrics, Progress};
use crate::ledger::RequestLedger;
use crate::package::PermitInterval;
use crate::request::{check_request, Outcome, RequestId, RequestKind, RequestRecord};
use crate::ControllerError;
use dcn_collections::SlidingMap;
use dcn_simnet::{DynamicTree, NodeId, SimConfig};
use dcn_tree::ChangeLog;

/// The controller that runs one iteration: what the [`EpochShell`] and the
/// [`IterationPolicy`] hooks read of it beyond [`Controller`] (`step`,
/// `take_records`, `rejected`, `tree`, `metrics`). Public in name only — no
/// module exports it — so that the engine's public signatures may bound on
/// it.
pub trait InnerController: Controller + Sized {
    /// `true` for the §3 model: a request is answered inside `submit`, on
    /// the synchronous clock (tickets issued, see [`RequestLedger::record`]),
    /// and every cost is a move, charged waves included.
    const CENTRALIZED: bool = false;

    /// An `(m, w)`-controller with node bound `u_bound` over `tree`, its
    /// permits the serial numbers of `interval` in interval mode.
    fn start(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
        u_bound: usize,
        interval: Option<PermitInterval>,
    ) -> Result<Self, ControllerError>;

    /// Takes a request under a fresh inner ticket (the default is
    /// [`Controller::submit`]).
    fn enter(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        self.submit(at, kind)
    }

    /// Permits not yet granted: the root's storage plus every package.
    fn uncommitted_permits(&self) -> u64;

    /// Consumes the controller and returns the tree.
    fn into_tree(self) -> DynamicTree;

    /// The controller's own clock.
    fn time(&self) -> u64;

    /// The `messages` of [`Controller::metrics`] without its per-node
    /// memory scan.
    fn messages(&self) -> u64;

    /// Answers the run's final rejects: the centralized model delivers a
    /// reject package to every node, once (`n − 1` moves); the default
    /// charges nothing.
    fn broadcast_reject(&mut self) {}

    /// The nodes whose whiteboard holds no reject package: those a closing
    /// count must start with a message of its own, because no reject wave
    /// reached them. The default is every node (no wave is simulated).
    fn missed_by_reject_wave(&self) -> u64 {
        self.tree().node_count() as u64
    }
}

/// One not-yet-answered request under its outer ticket, with the global
/// virtual time of its first submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pending {
    pub(crate) id: RequestId,
    pub(crate) origin: NodeId,
    pub(crate) kind: RequestKind,
    pub(crate) submitted_at: u64,
}

/// A sequence of fixed-bound controllers over one tree, seen from outside as
/// one clock, one set of tickets and one cost total.
///
/// The shell is either *live* (an inner controller runs the current epoch) or
/// *parked* (the tree waits between epochs). [`EpochShell::retire`] folds the
/// live controller's clock and costs into the accumulators and parks the
/// tree; [`EpochShell::install`] starts the next epoch over it.
#[derive(Debug)]
pub(crate) struct EpochShell<C = DistributedController> {
    /// The running epoch's controller; `None` while parked.
    live: Option<C>,
    /// The tree between epochs; an empty placeholder while `live` runs.
    parked: DynamicTree,
    /// Virtual time accumulated by retired epochs; the global clock is
    /// `time_base + live simulator time`.
    time_base: u64,
    /// Moves, messages and peak node memory over retired epochs.
    retired: ControllerMetrics,
    /// Inner ticket → `(outer ticket, first submission time)`, for the
    /// running epoch's requests still in flight: [`EpochShell::collect`]
    /// removes each answered entry, so the window spans what is unanswered.
    outer_of: SlidingMap<RequestId, (RequestId, u64)>,
}

impl<C: InnerController> EpochShell<C> {
    /// A parked shell over `tree`: no epoch has run yet.
    pub(crate) fn parked(tree: DynamicTree) -> Self {
        EpochShell {
            live: None,
            parked: tree,
            time_base: 0,
            retired: ControllerMetrics::default(),
            outer_of: SlidingMap::new(),
        }
    }

    /// Starts the next epoch over the parked tree (see
    /// [`InnerController::start`]). A validation error loses the tree and
    /// leaves the shell unusable, so callers propagate it.
    pub(crate) fn install(
        &mut self,
        config: SimConfig,
        m: u64,
        w: u64,
        u_bound: usize,
        interval: Option<PermitInterval>,
    ) -> Result<(), ControllerError> {
        // Every client retires before it installs.
        debug_assert!(self.live.is_none(), "install needs a parked shell");
        let tree = std::mem::take(&mut self.parked);
        self.live = Some(C::start(config, tree, m, w, u_bound, interval)?);
        Ok(())
    }

    /// Ends the running epoch: folds its clock, moves, messages and peak
    /// node memory into the accumulators, forgets its inner tickets and parks
    /// the tree. Answers not yet collected are lost — collect first. A no-op
    /// on a parked shell.
    pub(crate) fn retire(&mut self) {
        let Some(ctrl) = self.live.take() else {
            return;
        };
        self.time_base += ctrl.time();
        self.retired = self.totals_with(&ctrl);
        self.outer_of.clear();
        self.parked = ctrl.into_tree();
    }

    /// The running epoch's controller, for the reads that are policy
    /// (uncommitted permits, grants, whiteboards); `None` while parked.
    pub(crate) fn live(&self) -> Option<&C> {
        self.live.as_ref()
    }

    /// The tree, live or parked.
    pub(crate) fn tree(&self) -> &DynamicTree {
        match &self.live {
            Some(ctrl) => ctrl.tree(),
            None => &self.parked,
        }
    }

    /// The global virtual time: retired epochs' clocks plus the running one.
    pub(crate) fn now(&self) -> u64 {
        self.time_base + self.live.as_ref().map_or(0, C::time)
    }

    /// Moves, messages and peak node memory over every epoch so far, the
    /// running one included.
    pub(crate) fn totals(&self) -> ControllerMetrics {
        match &self.live {
            Some(ctrl) => self.totals_with(ctrl),
            None => self.retired,
        }
    }

    /// Messages over every epoch so far (the `messages` of
    /// [`EpochShell::totals`] without its per-node memory scan).
    pub(crate) fn messages(&self) -> u64 {
        self.retired.messages + self.live.as_ref().map_or(0, C::messages)
    }

    fn totals_with(&self, ctrl: &C) -> ControllerMetrics {
        let now = ctrl.metrics();
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
    /// controller's addressing); [`EpochShell::collect`] returns its answer
    /// under `request.id` and `request.submitted_at`. Fails with
    /// [`Controller::submit`]'s validation errors, or on a parked shell.
    pub(crate) fn submit(&mut self, request: Pending) -> Result<(), ControllerError> {
        let Some(ctrl) = self.live.as_mut() else {
            return Err(ControllerError::Sim(
                "request submitted to a parked epoch shell".to_string(),
            ));
        };
        let inner = ctrl.enter(request.origin, request.kind)?;
        self.outer_of
            .insert(inner, (request.id, request.submitted_at));
        Ok(())
    }

    /// Advances the running epoch by at most `budget` simulator events (see
    /// [`Controller::step`]); a parked shell is quiescent.
    pub(crate) fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        match self.live.as_mut() {
            Some(ctrl) => ctrl.step(budget),
            None => Ok(Progress::quiescent()),
        }
    }

    /// Takes the running epoch's fresh answers out of the inner controller
    /// (nothing stays behind) and re-keys each to its outer ticket, original
    /// submission time and the global clock. Origin, kind and any granted
    /// node stay in the inner controller's addressing.
    pub(crate) fn collect(&mut self) -> Vec<RequestRecord> {
        let Some(ctrl) = self.live.as_mut() else {
            return Vec::new();
        };
        let mut records = ctrl.take_records();
        for rec in &mut records {
            #[expect(
                clippy::expect_used,
                reason = "every inner ticket is entered by submit and answered once"
            )]
            let (outer, submitted_at) = self
                .outer_of
                .remove(rec.id)
                .expect("answered tickets were submitted here");
            rec.id = outer;
            rec.submitted_at = submitted_at;
            rec.answered_at += self.time_base;
        }
        records
    }
}

impl EpochShell {
    /// `true` when nothing is in flight (always, while parked).
    pub(crate) fn is_quiescent(&self) -> bool {
        self.live.as_ref().map_or(true, |c| c.sim().is_quiescent())
    }

    /// Takes the changes the tree, live or parked, recorded so far (see
    /// [`DynamicTree::take_change_log`]).
    pub(crate) fn take_change_log(&mut self) -> ChangeLog {
        match &mut self.live {
            Some(ctrl) => ctrl.take_change_log(),
            None => self.parked.take_change_log(),
        }
    }
}

/// The parameters an [`IterationPolicy`] chooses for one iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationPlan {
    /// The inner controller's permit budget `M` for this iteration. A budget
    /// of 0 means the run's budget is spent: the iteration still starts, but
    /// every request from then on is answered with a final reject.
    pub budget: u64,
    /// The inner controller's waste bound `W` (capped at the budget).
    pub waste: u64,
    /// Serial-number interval for interval mode (the name assigner hands the
    /// permits out as identities); `None` for anonymous permits.
    pub interval: Option<PermitInterval>,
    /// Messages charged for the iteration-opening announcement wave(s) — one
    /// broadcast (`n`) for the size estimator's `N_i` announcement, two
    /// broadcasts of DFS offsets (`2n`, `4n` at construction) for the name
    /// assigner's renaming.
    pub announce_messages: u64,
    /// The inner controller's node bound `U`; `None` for the §5 bound
    /// `n + budget + 1` (every grant adds at most one node).
    pub u_bound: Option<usize>,
}

/// The hooks of the [`IterationDriver`] whose iterations `C` runs; every one
/// but [`IterationPolicy::plan`] defaults to the §5 behaviour.
pub trait IterationPolicy<C = DistributedController> {
    /// Plans the iteration about to start over `tree` (called once at
    /// construction and again at every rotation, before the inner controller
    /// is rebuilt). State the application refreshes per iteration — the name
    /// assigner's DFS renaming, the subtree estimator's `ω₀` snapshot —
    /// belongs here.
    fn plan(&mut self, tree: &DynamicTree) -> IterationPlan;

    /// Absorbs a round of grants (called after every answer collection that
    /// granted something, before any rotation, and once with no records at
    /// every quiescent end of a slice; `tree` reflects all granted changes
    /// of the round). The default does nothing.
    fn absorb(&mut self, tree: &DynamicTree, records: &[RequestRecord]) {
        let _ = (tree, records);
    }

    /// Asked at a quiescent point where `iteration` rejected requests: `true`
    /// makes those rejects, and every later answer, final; the default
    /// retries them in the next iteration.
    fn rejects_are_final(&self, iteration: &C) -> bool {
        let _ = iteration;
        false
    }

    /// Messages charged when an iteration closes over `nodes` nodes, of
    /// which `missed` hold no reject package. The default is the §5 closing
    /// count: the reject wave that closed the iteration is its broadcast,
    /// so it costs one upcast (`n − 1`) and one start message per node the
    /// wave missed — `2n − 1` where no wave ran.
    fn closing_messages(&self, nodes: u64, missed: u64) -> u64 {
        nodes - 1 + missed
    }

    /// Asked at every slice: `true` ends the running `iteration` — it admits
    /// nothing more, and its next quiescent point rotates. An iteration that
    /// has rejected ends whatever this says; the default ends no other.
    fn ends_iteration(&self, iteration: &C) -> bool {
        let _ = iteration;
        false
    }
}

/// Consecutive grant-free rotations after which the driver stops retrying
/// and rejects the stragglers (a fresh iteration normally grants at least
/// one request; this is the safety valve).
const MAX_STALLED_ROTATIONS: u32 = 64;

/// The epoch engine: a sequence of inner controllers `C` over one epoch
/// shell (the clock, cost totals and ticket table they share) behind stable
/// outer tickets, parameterised by an [`IterationPolicy`].
///
/// `submit` queues a request under a ticket that survives rotations; `step`
/// hands the queue — new requests and the last iteration's rejects — to the
/// running iteration, advances it by a bounded slice and collects the
/// answers. Grants are final. An iteration admits nothing more after its
/// first reject (or once the policy ends it): what it has in flight drains,
/// and at its quiescent point the policy says whether to rotate and retry
/// the rejects or answer them for good. Seeds run `seed, seed+1, …` over the
/// rotations.
#[derive(Debug)]
pub struct IterationDriver<P, C = DistributedController> {
    config: SimConfig,
    shell: EpochShell<C>,
    ledger: RequestLedger,
    /// The iteration-start size `N_i` announced to every node.
    estimate: u64,
    iterations: u32,
    /// Charged iteration boundaries: announcements and closing counts.
    boundary_messages: u64,
    /// Charged application waves (see [`IterationDriver::charge_messages`]).
    aux_messages: u64,
    changes_total: u64,
    seed_counter: u64,
    /// Outer tickets submitted but not yet handed to the inner controller.
    queued: Vec<Pending>,
    /// Requests rejected by the running iteration, retried by the next one.
    retry: Vec<Pending>,
    stalled_rotations: u32,
    /// Set once the run's budget is spent (a zero-budget plan, or
    /// [`IterationPolicy::rejects_are_final`]): every request from then on
    /// is answered with a final reject.
    spent: bool,
    policy: P,
}

impl<P: IterationPolicy<C>, C: InnerController> IterationDriver<P, C> {
    /// Creates the driver over `tree`, planning and starting the first
    /// iteration through `policy`.
    ///
    /// # Errors
    ///
    /// Returns controller construction errors (invalid plan parameters).
    pub fn new(config: SimConfig, tree: DynamicTree, policy: P) -> Result<Self, ControllerError> {
        let mut driver = IterationDriver {
            config,
            shell: EpochShell::parked(tree),
            ledger: RequestLedger::new(),
            estimate: 0,
            iterations: 0,
            boundary_messages: 0,
            aux_messages: 0,
            changes_total: 0,
            seed_counter: config.seed,
            queued: Vec::new(),
            retry: Vec::new(),
            stalled_rotations: 0,
            spent: false,
            policy,
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

    /// Submits a request arriving at `at` under a stable ticket; execution
    /// happens in the next [`IterationDriver::step`].
    ///
    /// # Errors
    ///
    /// Returns validation errors against the *current* tree (unknown node,
    /// malformed topological request); such a request never entered the
    /// driver and resolves to no event.
    pub fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        // A spent centralized run answers any request from the reject
        // packages of its reject wave, unchecked.
        if !(C::CENTRALIZED && self.spent) {
            check_request(self.shell.tree(), at, kind)?;
        }
        let request = Pending {
            id: self.ledger.issue(),
            origin: at,
            kind,
            submitted_at: self.shell.now(),
        };
        self.queued.push(request);
        Ok(request.id)
    }

    /// Removes and returns the answers given since the last take, in answer
    /// order (see [`Controller::take_records`]).
    pub fn take_records(&mut self) -> Vec<RequestRecord> {
        self.ledger.take_records()
    }

    /// The outer tickets, the answers not yet taken and the tally of every
    /// final answer (see [`Controller::ledger`]).
    pub fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    /// The current spanning tree.
    pub fn tree(&self) -> &DynamicTree {
        self.shell.tree()
    }

    /// Iterations (epochs) started so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Topological changes granted so far.
    pub fn changes(&self) -> u64 {
        self.changes_total
    }

    /// Total messages so far: inner controller messages plus every charged
    /// wave.
    pub fn messages(&self) -> u64 {
        self.shell.messages() + self.boundary_messages + self.aux_messages
    }

    /// The messages charged for iteration boundaries so far: every
    /// announcement ([`IterationPlan::announce_messages`]) and closing count
    /// ([`IterationPolicy::closing_messages`]).
    pub fn boundary_messages(&self) -> u64 {
        self.boundary_messages
    }

    /// Charges `messages` application-level protocol messages (re-labelings,
    /// pointer flips, vote deliveries) to the driver's counter —
    /// applications declare costs, they do not own counters.
    pub fn charge_messages(&mut self, messages: u64) {
        self.aux_messages += messages;
    }

    /// Advances execution by at most `budget` inner simulator events: one
    /// [`Controller::step`] of the running iteration, under its `max_events`
    /// valve. `Progress::quiescent` is `true` once no ticket is unanswered.
    /// A slice never spans an iteration boundary: it ends (not quiescent)
    /// right after a rotation, before any retried request runs.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors and rotation-time construction errors.
    pub fn step(&mut self, budget: u64) -> Result<Progress, ControllerError> {
        // A closing iteration admits nothing: what it has in flight drains,
        // its rejects and the queue wait for the next one.
        if !self.ends_iteration() {
            self.flush_queued()?;
        }
        let progress = self.shell.step(budget)?;
        self.collect_answers();
        if !progress.quiescent {
            return Ok(progress);
        }
        if !self.retry.is_empty() {
            self.spent = self.spent
                || self
                    .shell
                    .live()
                    .is_some_and(|iteration| self.policy.rejects_are_final(iteration));
            if self.spent || self.stalled_rotations >= MAX_STALLED_ROTATIONS {
                // Final rejects: the budget is spent, or — the safety valve —
                // iterations keep exhausting without granting anything.
                for request in std::mem::take(&mut self.retry) {
                    self.reject(request);
                }
            }
        }
        if self.spent {
            // Rejects what a closing iteration held back.
            self.flush_queued()?;
        } else if self.ends_iteration() {
            // The slice ends at the rotation, so a hook that runs after it
            // sees the freshly installed iteration over the tree exactly as
            // it was parked (the subtree estimator's ω₀ snapshot is the
            // closing count's per-node sums).
            self.rotate()?;
            return Ok(Progress {
                processed: progress.processed,
                quiescent: false,
            });
        }
        // Settle the policy against the fully-applied tree: grants are
        // answered slightly before the simulator applies their topological
        // change, so bookkeeping keyed on tree contents (identity
        // assignment) needs one final absorb.
        self.policy.absorb(self.shell.tree(), &[]);
        Ok(Progress {
            processed: progress.processed,
            quiescent: true,
        })
    }

    /// `true` once the running iteration has rejected or the policy ends it
    /// ([`IterationPolicy::ends_iteration`]), until the budget is spent.
    fn ends_iteration(&self) -> bool {
        !self.spent
            && self.shell.live().is_some_and(|iteration| {
                iteration.rejected() > 0 || self.policy.ends_iteration(iteration)
            })
    }

    /// Hands queued and retried requests to the inner controller under their
    /// outer tickets. Once the budget is spent every request is answered
    /// with a final reject; before that, a request whose precondition broke
    /// while it waited (its origin vanished, say) is refused — the one
    /// refusal rule of DESIGN §2.1.
    fn flush_queued(&mut self) -> Result<(), ControllerError> {
        let mut waiting = std::mem::take(&mut self.retry);
        waiting.append(&mut self.queued);
        for request in waiting {
            if self.spent {
                self.reject(request);
            } else if check_request(self.shell.tree(), request.origin, request.kind).is_err() {
                self.close(request, Outcome::Refused);
            } else {
                self.shell.submit(request)?;
            }
        }
        Ok(())
    }

    /// Answers `request` with a final reject at the current global time.
    fn reject(&mut self, request: Pending) {
        if self.spent {
            if let Some(iteration) = self.shell.live.as_mut() {
                iteration.broadcast_reject();
            }
        }
        self.close(request, Outcome::Rejected);
    }

    /// Answers `request` with `outcome` at the current global time.
    fn close(&mut self, request: Pending, outcome: Outcome) {
        self.answer(RequestRecord {
            id: request.id,
            origin: request.origin,
            kind: request.kind,
            outcome,
            submitted_at: request.submitted_at,
            answered_at: self.shell.now(),
        });
    }

    /// Enters a final answer in the outer history: at its own times, or —
    /// under a centralized inner controller, which answers before `submit`
    /// returns — at the synchronous clock.
    fn answer(&mut self, rec: RequestRecord) {
        if C::CENTRALIZED {
            self.ledger
                .record(rec.id, rec.origin, rec.kind, rec.outcome);
        } else {
            self.ledger.push(rec);
        }
    }

    /// Moves the inner controller's fresh answers into the outer history:
    /// grants become final records, rejects join the retry queue.
    fn collect_answers(&mut self) {
        let before = self.ledger.records().len();
        for rec in self.shell.collect() {
            match rec.outcome {
                Outcome::Granted { .. } => {
                    if rec.kind.is_topological() {
                        self.changes_total += 1;
                    }
                    self.stalled_rotations = 0;
                    self.answer(rec);
                }
                Outcome::Rejected => self.retry.push(Pending {
                    id: rec.id,
                    origin: rec.origin,
                    kind: rec.kind,
                    submitted_at: rec.submitted_at,
                }),
                // Both inner controllers support the full dynamic model and
                // never refuse.
                Outcome::Refused => unreachable!("an inner controller never refuses"),
            }
        }
        let granted = &self.ledger.records()[before..];
        if !granted.is_empty() {
            self.policy.absorb(self.shell.tree(), granted);
        }
    }

    /// Closes the running iteration, charges its closing count and starts
    /// the next one.
    fn rotate(&mut self) -> Result<(), ControllerError> {
        let nodes = self.shell.tree().node_count() as u64;
        let missed = self.shell.live().map_or(nodes, C::missed_by_reject_wave);
        self.shell.retire();
        self.boundary_messages += self.policy.closing_messages(nodes, missed);
        self.stalled_rotations += 1;
        self.start_iteration()
    }

    /// Plans and starts an iteration over the parked tree: charges the
    /// announcement wave, derives the iteration seed and installs the inner
    /// controller.
    fn start_iteration(&mut self) -> Result<(), ControllerError> {
        let tree = self.shell.tree();
        let nodes = tree.node_count();
        self.iterations += 1;
        self.estimate = nodes as u64;
        let plan = self.policy.plan(tree);
        self.boundary_messages += plan.announce_messages;
        self.spent |= plan.budget == 0;
        let budget = plan.budget.max(1);
        let waste = plan.waste.min(budget);
        let u_bound = plan.u_bound.unwrap_or(nodes + budget as usize + 1);
        let mut cfg = self.config;
        cfg.seed = self.seed_counter;
        self.seed_counter = self.seed_counter.wrapping_add(1);
        self.shell
            .install(cfg, budget, waste, u_bound, plan.interval)
    }

    pub(crate) fn is_spent(&self) -> bool {
        self.spent
    }

    /// The cost counters over every iteration so far, charged waves
    /// included in `messages` (see [`Controller::metrics`]).
    pub fn metrics(&self) -> ControllerMetrics {
        let totals = self.shell.totals();
        let messages = totals.messages + self.boundary_messages + self.aux_messages;
        ControllerMetrics {
            // The centralized model has one cost: a charged wave is a move.
            moves: if C::CENTRALIZED {
                messages
            } else {
                totals.moves
            },
            messages,
            ..totals
        }
    }
}

impl<P> IterationDriver<P> {
    /// The number of permits that travelled down through `node` in the
    /// current iteration (read off the inner controller's whiteboard; used
    /// by the subtree estimator).
    pub fn permits_passed_down(&self, node: NodeId) -> u64 {
        self.shell
            .live()
            .and_then(|inner| inner.whiteboard(node))
            .map_or(0, |wb| wb.permits_passed_down)
    }

    /// Takes the changes the tree recorded so far (see
    /// [`DynamicTree::take_change_log`]).
    pub fn take_change_log(&mut self) -> ChangeLog {
        self.shell.take_change_log()
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
            shell.step(u64::MAX).unwrap();
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
            shell.step(u64::MAX).unwrap();
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
        shell.step(u64::MAX).unwrap();
        assert_eq!(shell.live().unwrap().records().len(), 4);
        assert_eq!(shell.collect().len(), 4);
        let inner = shell.live.as_mut().unwrap();
        assert!(inner.records().is_empty());
        assert!(inner.take_records().is_empty());
        // A second collection finds nothing new, and no ticket is held.
        assert!(shell.collect().is_empty());
        assert!(shell.outer_of.is_empty());
    }

    /// The ticket table spans the requests in flight, not the epoch's
    /// history: a served controller whose epoch never ends (events only)
    /// would otherwise keep 16 B per request for ever.
    #[test]
    fn the_ticket_table_spans_the_requests_in_flight_not_the_epoch() {
        let mut shell = live_shell(5, DynamicTree::with_initial_star(3), 200_000);
        let root = shell.tree().root();
        let (mut submitted, mut answered) = (0u64, 0u64);
        while answered < 100_000 {
            while submitted < 100_000 && submitted - answered < 64 {
                shell
                    .submit(request(submitted, 0, root, RequestKind::NonTopological))
                    .unwrap();
                submitted += 1;
            }
            shell.step(16).unwrap();
            answered += shell.collect().len() as u64;
            assert!(
                shell.outer_of.span() <= 65,
                "span {} with {} in flight",
                shell.outer_of.span(),
                submitted - answered
            );
        }
        assert!(shell.is_quiescent());
        assert_eq!(shell.outer_of.span(), 0);
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
        shell.step(u64::MAX).unwrap();
        assert_eq!(shell.collect()[0].id, RequestId(7));
    }

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

    /// The bare engine: nothing but the driver, so its ticket surface is
    /// what the tests exercise.
    fn bare(tree: DynamicTree, seed: u64) -> IterationDriver<HalfPolicy> {
        IterationDriver::new(SimConfig::new(seed), tree, HalfPolicy).unwrap()
    }

    fn driver(n: usize, seed: u64) -> IterationDriver<HalfPolicy> {
        bare(DynamicTree::with_initial_star(n), seed)
    }

    /// Unbounded slices until every ticket is answered, as
    /// [`Controller::run_to_quiescence`] runs its families.
    fn settle(d: &mut IterationDriver<HalfPolicy>) {
        while !d.step(u64::MAX).unwrap().quiescent {}
    }

    #[test]
    fn construction_starts_the_first_iteration() {
        let mut d = driver(10, 1);
        assert_eq!(d.iterations(), 1);
        assert_eq!(d.estimate(), 11);
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
        settle(&mut d);
        assert!(d.iterations() > 1, "rotation expected");
        for id in &ids {
            assert!(
                d.ledger()
                    .records()
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
        let answered = d.ledger().records().len();
        assert!(answered < 6);
        assert_eq!(d.tree().node_count(), 8 + answered);
        settle(&mut d);
        assert_eq!(d.ledger().records().len(), 6);
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
        assert_eq!(d.ledger().records().len(), 2);
    }

    #[test]
    fn wave_charges_accumulate_across_rotations() {
        let mut d = driver(9, 4);
        let root = d.tree().root();
        for _ in 0..12 {
            d.submit(root, RequestKind::AddLeaf).unwrap();
        }
        settle(&mut d);
        assert!(d.iterations() >= 2);
        // Announce (n per iteration) + closing counts (at least n − 1 per
        // rotation, over the tree the next iteration announces) are charged
        // on top of controller messages; the tree only grows from its 10
        // nodes.
        let charged = 10 + (2 * 10 - 1) * u64::from(d.iterations() - 1);
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
        settle(&mut d);
        for id in &ids {
            assert!(
                d.ledger().records().iter().any(|r| r.id == *id),
                "{id} unresolved"
            );
        }
        assert!(!d.tree().contains(leaf));
        assert!(d.tree().check_invariants().is_ok());
    }
}
