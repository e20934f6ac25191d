//! The shared [`Controller`] runtime abstraction: tickets, events and
//! incremental execution.
//!
//! The workspace grows several controller families — the paper's centralized
//! and distributed (M, W)-Controllers plus the comparison baselines — and they
//! all answer the same kind of question: *may this event take place?* This
//! module is the architectural seam between those implementations and every
//! driver that wants to exercise one of them (the scenario runner and sweep
//! engine in `dcn-workload`, the experiment binaries in `dcn-bench`, the
//! examples and the end-to-end tests): a driver programs against
//! `dyn Controller` and never needs to know which family it is driving.
//!
//! The lifecycle is **ticket-based**, mirroring the paper's online setting
//! where requests arrive at arbitrary nodes at arbitrary times and are
//! answered individually:
//!
//! 1. [`Controller::submit`] hands a request to the controller and returns a
//!    [`RequestId`] *ticket*. Synchronous families answer on the spot; the
//!    distributed family only enqueues a mobile agent.
//! 2. Execution advances either all the way ([`Controller::run_to_quiescence`])
//!    or in bounded slices ([`Controller::step`]), so a driver can interleave
//!    new submissions with in-flight execution (open-loop workloads).
//! 3. Each ticket is answered once, with one [`RequestRecord`], which the
//!    controller keeps in answer order until a driver takes it
//!    ([`Controller::take_records`]); [`Controller::records`] reads the
//!    answers not yet taken, and `drain_events` (on `dyn Controller`)
//!    takes them as [`ControllerEvent`]s.
//!
//! Every family embeds one [`RequestLedger`], which issues the tickets,
//! holds the answers and counts them: [`Controller::granted`],
//! [`Controller::rejected`], [`Controller::refused`] and the §2.2
//! [`Controller::summary`] are reads of it ([`Controller::ledger`]). Cost
//! counters are exposed uniformly through [`ControllerMetrics`].

use crate::ledger::RequestLedger;
use crate::request::{Outcome, RequestId, RequestKind, RequestRecord};
use crate::verify::ExecutionSummary;
use crate::{ControllerError, InvariantError};
use dcn_tree::DynamicTree;
use dcn_tree::NodeId;

/// A uniform snapshot of a controller's cost counters.
///
/// Each family reports in its own cost model — the centralized controllers
/// count permit *moves* (§3), the distributed controller counts *messages*
/// (§4) — so both columns are present and a family fills in what it measures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerMetrics {
    /// Permit/package movement cost (the centralized move complexity; agent
    /// hops for the distributed controller).
    pub moves: u64,
    /// Total messages sent (agent hops plus auxiliary waves for the
    /// distributed family; request travel plus permit travel for baselines;
    /// equal to `moves` for the purely centralized families, whose model does
    /// not charge request travel).
    pub messages: u64,
    /// The largest per-node state footprint, in bits, under the compressed
    /// representation of Claim 4.8, as sampled at quiescence (plus round
    /// boundaries for the iterated family). This is a lower bound on the
    /// true mid-run peak — per-submission sampling would be quadratic — and
    /// 0 when the family does not track memory at all.
    pub peak_node_memory_bits: u64,
}

/// A per-request outcome notification, drained from
/// [`drain_events`](trait.Controller.html#method.drain_events): every event
/// is derived from one [`RequestRecord`] by
/// [`ControllerEvent::push_for_record`].
///
/// Events are emitted in answer order. Every ticket issued by
/// [`Controller::submit`] resolves to exactly one of
/// [`ControllerEvent::Granted`], [`ControllerEvent::Rejected`] or
/// [`ControllerEvent::Refused`]; granted *topological* requests additionally
/// emit one [`ControllerEvent::TopologyApplied`] once the change has taken
/// effect on the controller's tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerEvent {
    /// The request received a permit.
    Granted {
        /// The request's ticket.
        id: RequestId,
        /// Virtual time at which the answer was delivered (same clock as
        /// [`RequestRecord::answered_at`]).
        at: u64,
        /// What the request asked for.
        kind: RequestKind,
    },
    /// The request was rejected (the budget is spent up to the waste bound).
    Rejected {
        /// The request's ticket.
        id: RequestId,
    },
    /// The request's kind lies outside the controller's dynamic model (see
    /// [`Controller::supports`]); no permit was consumed.
    Refused {
        /// The request's ticket.
        id: RequestId,
    },
    /// A granted topological change has been applied to the controller's
    /// tree.
    TopologyApplied {
        /// The granting request's ticket.
        id: RequestId,
        /// The topological request kind that was applied.
        kind: RequestKind,
        /// The newly created node, for insertions answered synchronously
        /// (`None` for deletions and for the distributed family, whose node
        /// identities are assigned inside the simulator).
        node: Option<NodeId>,
    },
}

impl ControllerEvent {
    /// Appends the events a resolved request produces, in emission order: the
    /// answer event matching the record's outcome (stamped with the record's
    /// answer time), plus one [`ControllerEvent::TopologyApplied`] for a
    /// granted topological request. The one source of events, so the
    /// event/record contract cannot drift per family.
    pub fn push_for_record(record: &RequestRecord, events: &mut Vec<ControllerEvent>) {
        match record.outcome {
            Outcome::Granted { new_node, .. } => {
                events.push(ControllerEvent::Granted {
                    id: record.id,
                    at: record.answered_at,
                    kind: record.kind,
                });
                if record.kind.is_topological() {
                    events.push(ControllerEvent::TopologyApplied {
                        id: record.id,
                        kind: record.kind,
                        node: new_node,
                    });
                }
            }
            Outcome::Rejected => events.push(ControllerEvent::Rejected { id: record.id }),
            Outcome::Refused => events.push(ControllerEvent::Refused { id: record.id }),
        }
    }

    /// The ticket this event belongs to.
    pub fn id(&self) -> RequestId {
        match *self {
            ControllerEvent::Granted { id, .. }
            | ControllerEvent::Rejected { id }
            | ControllerEvent::Refused { id }
            | ControllerEvent::TopologyApplied { id, .. } => id,
        }
    }

    /// Returns `true` for the three *answer* events (granted / rejected /
    /// refused) that resolve a ticket; `false` for
    /// [`ControllerEvent::TopologyApplied`] notifications.
    pub fn is_answer(&self) -> bool {
        !matches!(self, ControllerEvent::TopologyApplied { .. })
    }
}

/// The result of one bounded execution slice ([`Controller::step`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Simulator events processed during this slice (0 for synchronous
    /// families, which answer inside `submit`).
    pub processed: u64,
    /// `true` when every submitted request has been answered and every
    /// granted topological change has been applied — calling
    /// [`Controller::step`] again without new submissions will do nothing.
    pub quiescent: bool,
}

impl Progress {
    /// A slice that found the controller already quiescent.
    pub fn quiescent() -> Self {
        Progress {
            processed: 0,
            quiescent: true,
        }
    }
}

/// The shared behaviour of every (M, W)-controller in the workspace.
///
/// Implemented directly by
/// [`DistributedController`](crate::distributed::DistributedController),
/// [`ShardedController`](crate::sharded::ShardedController) and
/// [`Iterated`](crate::Iterated) — the asynchronous
/// [`AdaptiveDistributedController`](crate::distributed::AdaptiveDistributedController),
/// and the [`IteratedController`](crate::centralized::IteratedController),
/// which runs the epoch engine to quiescence inside `submit`; and, through the one
/// blanket impl over [`SyncController`], by
/// [`CentralizedController`](crate::centralized::CentralizedController) and
/// the `TrivialController` / `AapsController` baselines in `dcn-baseline`.
/// The six §5 applications of `dcn-estimator` implement it too: each runs
/// the epoch engine and adds [`Controller::check_invariants`].
///
/// Synchronous families answer inside [`Controller::submit`]; the
/// distributed families defer execution to
/// [`Controller::run_to_quiescence`] / [`Controller::step`]. A driver that
/// runs without end takes the answers after every execution call; one that
/// reads the whole history back — every sweep and experiment — never takes
/// them, and one that only wants aggregates reads the tally
/// ([`Controller::granted`], [`Controller::rejected`],
/// [`Controller::refused`], [`Controller::summary`]), which taking leaves
/// whole.
pub trait Controller {
    /// A short human-readable family name (used in experiment rows).
    fn name(&self) -> &'static str;

    /// The permit budget `M`.
    fn budget(&self) -> u64;

    /// The waste bound `W`.
    fn waste_bound(&self) -> u64;

    /// Returns `true` if this controller's dynamic model covers `kind`.
    ///
    /// The AAPS baseline only supports the grow-only model; submitting an
    /// unsupported kind is not an error — the request is *refused*: it gets a
    /// ticket, a [`ControllerEvent::Refused`] event and an
    /// [`Outcome::Refused`] record, and the safety/liveness accounting is
    /// untouched.
    fn supports(&self, kind: RequestKind) -> bool {
        let _ = kind;
        true
    }

    /// Submits a request arriving at `at` and returns its ticket.
    ///
    /// # Errors
    ///
    /// Returns validation errors (unknown node, malformed topological
    /// request); such a request never entered the controller and resolves to
    /// no event. The *answer* is not part of the return value — it is a
    /// record (see [`Controller::take_records`]) once the execution has
    /// progressed far enough (immediately for synchronous families).
    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError>;

    /// Runs until every submitted request is answered and every granted
    /// topological change has been applied: unbounded [`Controller::step`]
    /// slices until one reports quiescence. A no-op for synchronous
    /// families.
    ///
    /// It stays out of the `dyn Controller` vtable (`Self: Sized`), so a
    /// server that only steps carries no copy of it per family; a trait
    /// object runs the same body as the function [`run_to_quiescence`].
    ///
    /// # Errors
    ///
    /// Same as [`Controller::step`]; an unbounded slice is the one that can
    /// trip the `max_events` valve.
    fn run_to_quiescence(&mut self) -> Result<(), ControllerError>
    where
        Self: Sized,
    {
        run_to_quiescence(self)
    }

    /// Advances execution by at most `budget` simulator events and reports
    /// how far it got, so drivers can interleave new submissions with
    /// in-flight execution (open-loop workloads). `u64::MAX` is the
    /// unbounded slice [`Controller::run_to_quiescence`] repeats.
    ///
    /// Synchronous families answer inside [`Controller::submit`] and are
    /// always quiescent (the [`SyncController`] blanket impl); every
    /// asynchronous family simulates incrementally, each simulator slice
    /// under its configured `max_events` valve
    /// ([`Simulator::run_events`](dcn_simnet::Simulator::run_events)), so a
    /// `budget` of at most `max_events` never trips it.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors: protocol violations, and
    /// `EventBudgetExceeded` when a slice passes `max_events` events (a
    /// livelock).
    fn step(&mut self, budget: u64) -> Result<Progress, ControllerError>;

    /// Removes and returns the answers given since the last take, in answer
    /// order (grants, rejects and refusals alike), with submit/answer
    /// virtual times: each ticket's record is handed out once. The tally and
    /// the tree are unaffected.
    fn take_records(&mut self) -> Vec<RequestRecord>;

    /// The family's embedded ledger: its tickets, the answers not yet taken
    /// and the tally of every answer given.
    fn ledger(&self) -> &RequestLedger;

    /// The answers not yet taken, in answer order — the whole history for a
    /// driver that never takes.
    fn records(&self) -> &[RequestRecord] {
        self.ledger().records()
    }

    /// Number of permits granted so far.
    fn granted(&self) -> u64 {
        self.ledger().granted()
    }

    /// Number of requests rejected so far.
    fn rejected(&self) -> u64 {
        self.ledger().rejected()
    }

    /// Number of requests refused so far: neither granted nor rejected (see
    /// [`Outcome::Refused`]).
    fn refused(&self) -> u64 {
        self.ledger().refused()
    }

    /// The §2.2 correctness summary of the execution so far: the tally
    /// against `M` and `W`, every ticket issued and not yet answered counted
    /// as `unanswered` (0 at a quiescent point). A refusal is an answer.
    fn summary(&self) -> ExecutionSummary {
        let ledger = self.ledger();
        let answered = ledger.granted() + ledger.rejected() + ledger.refused();
        ExecutionSummary {
            m: self.budget(),
            w: self.waste_bound(),
            granted: ledger.granted(),
            rejected: ledger.rejected(),
            unanswered: ledger.issued().saturating_sub(answered),
        }
    }

    /// The spanning tree as currently maintained by the controller.
    fn tree(&self) -> &DynamicTree;

    /// A snapshot of the cost counters.
    fn metrics(&self) -> ControllerMetrics;

    /// Checks the controller's own guarantee against its current state —
    /// a §5 application's theorem; drivers call it at quiescent points.
    /// The default has nothing to check.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    fn check_invariants(&self) -> Result<(), InvariantError> {
        Ok(())
    }

    /// Iterations (epochs, rounds) started so far: 1 for a controller that
    /// never rebuilds.
    fn iterations(&self) -> u32 {
        1
    }

    /// Submits a batch of requests and runs to quiescence — the convenience
    /// shim over the ticketed lifecycle. Operations that fail validation
    /// against the current tree (an earlier grant removed their target) are
    /// skipped; the returned records cover exactly this batch's tickets, in
    /// answer order. Requests rejected because an iteration's budget ran out
    /// are retried in the next iteration under the same ticket.
    ///
    /// A shim for a controller of known type (`Self: Sized`): it stays out
    /// of the `dyn Controller` vtable, so a driver that holds a trait object
    /// does not carry one copy of it per family.
    ///
    /// # Errors
    ///
    /// Propagates simulator and rotation errors.
    fn run_batch(
        &mut self,
        ops: &[(NodeId, RequestKind)],
    ) -> Result<Vec<RequestRecord>, ControllerError>
    where
        Self: Sized,
    {
        let before = self.records().len();
        for &(at, kind) in ops {
            // Stale intra-batch operations are dropped.
            let _ = self.submit(at, kind);
        }
        self.run_to_quiescence()?;
        Ok(self.records()[before..].to_vec())
    }
}

/// The core of a *synchronous* family — one that decides a request on the
/// spot. Implementing it is all the centralized, trivial and AAPS families
/// do: the ticket lifecycle of [`Controller`] (issue, record, take) is
/// supplied once by the blanket impl below over the family's embedded
/// [`RequestLedger`], which also keeps the tally: a decision made without a
/// ticket (a bare [`SyncController::decide`]) is not counted.
pub trait SyncController {
    /// See [`Controller::name`].
    fn name(&self) -> &'static str;

    /// See [`Controller::budget`].
    fn budget(&self) -> u64;

    /// See [`Controller::waste_bound`].
    fn waste_bound(&self) -> u64;

    /// See [`Controller::supports`].
    fn supports(&self, kind: RequestKind) -> bool {
        let _ = kind;
        true
    }

    /// Decides a request of a supported kind arriving at `at`, applying the
    /// granted event to the tree before returning.
    ///
    /// # Errors
    ///
    /// Returns [`check_request`](crate::check_request)'s validation errors;
    /// such a request never entered the controller.
    fn decide(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError>;

    /// See [`Controller::tree`].
    fn tree(&self) -> &DynamicTree;

    /// See [`Controller::metrics`].
    fn metrics(&self) -> ControllerMetrics;

    /// See [`Controller::ledger`].
    fn ledger(&self) -> &RequestLedger;

    /// Mutable access to the family's embedded ledger.
    fn ledger_mut(&mut self) -> &mut RequestLedger;
}

impl<T: SyncController> Controller for T {
    fn name(&self) -> &'static str {
        SyncController::name(self)
    }

    fn budget(&self) -> u64 {
        SyncController::budget(self)
    }

    fn waste_bound(&self) -> u64 {
        SyncController::waste_bound(self)
    }

    fn supports(&self, kind: RequestKind) -> bool {
        SyncController::supports(self, kind)
    }

    fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<RequestId, ControllerError> {
        if !SyncController::supports(self, kind) {
            // Outside the family's dynamic model: a request at a live node
            // gets a ticket that resolves to a refusal, not an error.
            if !SyncController::tree(self).contains(at) {
                return Err(ControllerError::UnknownNode(at));
            }
            return Ok(self.ledger_mut().refuse(at, kind));
        }
        let outcome = self.decide(at, kind)?;
        let ledger = self.ledger_mut();
        let id = ledger.issue();
        ledger.record(id, at, kind, outcome);
        Ok(id)
    }

    fn step(&mut self, _budget: u64) -> Result<Progress, ControllerError> {
        Ok(Progress::quiescent())
    }

    fn take_records(&mut self) -> Vec<RequestRecord> {
        self.ledger_mut().take_records()
    }

    fn ledger(&self) -> &RequestLedger {
        SyncController::ledger(self)
    }

    fn tree(&self) -> &DynamicTree {
        SyncController::tree(self)
    }

    fn metrics(&self) -> ControllerMetrics {
        SyncController::metrics(self)
    }
}

/// [`Controller::run_to_quiescence`] for a trait object, and the one body
/// of it: unbounded [`Controller::step`] slices until one reports
/// quiescence.
///
/// # Errors
///
/// Same as [`Controller::step`].
pub fn run_to_quiescence(ctrl: &mut dyn Controller) -> Result<(), ControllerError> {
    while !ctrl.step(u64::MAX)?.quiescent {}
    Ok(())
}

impl dyn Controller + '_ {
    /// Takes the answers ([`Controller::take_records`]) as events, in answer
    /// order: [`ControllerEvent::push_for_record`] over each record. One
    /// copy for every family, outside the vtable; a controller of known type
    /// calls it through `&mut dyn Controller`.
    pub fn drain_events(&mut self) -> Vec<ControllerEvent> {
        let records = self.take_records();
        // Sized exactly: a grown buffer would hold both copies at once.
        let applied = records
            .iter()
            .filter(|r| r.outcome.is_granted() && r.kind.is_topological())
            .count();
        let mut events = Vec::with_capacity(records.len() + applied);
        for record in &records {
            ControllerEvent::push_for_record(record, &mut events);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::{CentralizedController, IteratedController};
    use crate::distributed::DistributedController;
    use dcn_simnet::SimConfig;

    fn drive(ctrl: &mut dyn Controller, requests: usize) -> Vec<RequestId> {
        let mut ids = Vec::new();
        for i in 0..requests {
            let nodes: Vec<NodeId> = ctrl.tree().nodes().collect();
            let at = nodes[(i * 7) % nodes.len()];
            ids.push(ctrl.submit(at, RequestKind::NonTopological).unwrap());
        }
        run_to_quiescence(ctrl).unwrap();
        ids
    }

    #[test]
    fn all_core_families_drive_uniformly_through_dyn_controller() {
        let mut controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(
                CentralizedController::new(DynamicTree::with_initial_star(15), 8, 4, 64).unwrap(),
            ),
            Box::new(
                IteratedController::new(DynamicTree::with_initial_star(15), 8, 0, 64).unwrap(),
            ),
            Box::new(
                DistributedController::new(
                    SimConfig::new(3),
                    DynamicTree::with_initial_star(15),
                    8,
                    4,
                    64,
                )
                .unwrap(),
            ),
        ];
        for ctrl in &mut controllers {
            let ids = drive(ctrl.as_mut(), 20);
            assert!(ctrl.granted() <= ctrl.budget(), "{}", ctrl.name());
            assert!(ctrl.granted() + ctrl.rejected() == 20, "{}", ctrl.name());
            assert!(ctrl.granted() >= ctrl.budget() - ctrl.waste_bound());
            assert!(ctrl.metrics().messages > 0 || ctrl.metrics().moves > 0);
            assert!(ctrl.supports(RequestKind::RemoveSelf));
            // Tickets are unique and every one resolves to one record.
            assert_eq!(ids.len(), 20);
            let answered: Vec<RequestId> = ctrl.records().iter().map(|r| r.id).collect();
            for &id in &ids {
                let once = answered.iter().filter(|&&a| a == id).count();
                assert_eq!(once, 1, "{}: {id}", ctrl.name());
            }
            // Event totals mirror the tally exactly.
            let events = ctrl.drain_events();
            let granted = events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::Granted { .. }))
                .count() as u64;
            let rejected = events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::Rejected { .. }))
                .count() as u64;
            assert_eq!(granted, ctrl.granted(), "{}", ctrl.name());
            assert_eq!(rejected, ctrl.rejected(), "{}", ctrl.name());
            // Draining takes the records.
            assert!(ctrl.records().is_empty());
            assert!(ctrl.drain_events().is_empty());
        }
    }

    #[test]
    fn stepping_interleaves_submission_with_execution() {
        let mut ctrl = DistributedController::new(
            SimConfig::new(11),
            DynamicTree::with_initial_path(20),
            16,
            8,
            128,
        )
        .unwrap();
        let nodes: Vec<NodeId> = Controller::tree(&ctrl).nodes().collect();
        Controller::submit(&mut ctrl, nodes[15], RequestKind::NonTopological).unwrap();
        // A tiny slice leaves the agent in flight…
        let progress = Controller::step(&mut ctrl, 2).unwrap();
        assert_eq!(progress.processed, 2);
        assert!(!progress.quiescent);
        // …while a second request arrives mid-flight.
        Controller::submit(&mut ctrl, nodes[9], RequestKind::NonTopological).unwrap();
        let mut total = progress.processed;
        loop {
            let p = Controller::step(&mut ctrl, 64).unwrap();
            total += p.processed;
            if p.quiescent {
                break;
            }
        }
        assert!(total > 2);
        assert_eq!(ctrl.granted(), 2);
        let events = (&mut ctrl as &mut dyn Controller).drain_events();
        assert_eq!(events.iter().filter(|e| e.is_answer()).count(), 2);
    }

    #[test]
    fn metrics_snapshot_reports_memory_for_the_distributed_family() {
        let mut ctrl = DistributedController::new(
            SimConfig::new(5),
            DynamicTree::with_initial_path(40),
            16,
            8,
            128,
        )
        .unwrap();
        let deep = ctrl.tree().nodes().last().unwrap();
        ctrl.submit(deep, RequestKind::NonTopological).unwrap();
        ctrl.run_to_quiescence().unwrap();
        assert!(ctrl.peak_node_memory_bits() > 0);
    }
}
