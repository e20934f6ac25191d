//! The [`ScenarioRunner`]: one driver loop for every controller family.
//!
//! Before this layer existed, every experiment binary and example carried its
//! own submit/run loop, one per controller family. The runner replaces all of
//! them: it takes a seeded [`Scenario`] (shape × churn × placement × arrival ×
//! budget) and drives **any** [`dyn Controller`](Controller) through it,
//! returning a uniform [`RunReport`]. Two runs with the same scenario are
//! identical request-for-request, so families can be compared row by row.
//!
//! The runner is ticket-based: every submission yields a
//! [`RequestId`](dcn_controller::RequestId), and outcomes and per-request
//! answer latencies are read from the run's
//! [`RequestRecord`](dcn_controller::RequestRecord)s. Under
//! [`ArrivalMode::Interleaved`] the runner advances execution in bounded
//! [`Controller::step`] slices between batches, so new requests arrive while
//! the distributed family's agents are still in flight (the paper's online
//! setting); a final [`Controller::run_to_quiescence`] answers everything.
//! At every quiescent point the runner asks
//! [`Controller::check_invariants`] — a §5 application's theorem — and
//! tallies the answers into the report.

use crate::churn::{ChurnGenerator, ChurnOp};
use crate::placement::Placement;
use crate::scenario::{ArrivalMode, Scenario};
use crate::shape::build_tree;
use dcn_controller::verify::{ExecutionSummary, Violation};
use dcn_controller::{run_to_quiescence, Controller, ControllerError, RequestKind};
use dcn_rng::{DetRng, SeedableRng};
use dcn_tree::{DynamicTree, NodeId};
use std::sync::Arc;

/// The uniform result of driving one controller through one scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// The controller family ([`Controller::name`]).
    pub controller: String,
    /// The scenario name, shared with the scenario.
    pub scenario: Arc<str>,
    /// The permit budget `M` ([`Controller::budget`]; `u64::MAX` for a §5
    /// application, which has no run-wide budget).
    pub m: u64,
    /// The waste bound `W` ([`Controller::waste_bound`]; `u64::MAX` for a
    /// §5 application, whose iterations each size their own).
    pub w: u64,
    /// Requests actually processed by the controller's machinery (tickets
    /// issued minus refusals).
    pub submitted: u64,
    /// Tickets that resolved to
    /// [`Outcome::Refused`](dcn_controller::Outcome::Refused): operations the
    /// controller's dynamic model does not support (the AAPS baseline refuses
    /// deletions and internal insertions), and waiting requests the tree no
    /// longer admitted (their origin vanished).
    pub refused: u64,
    /// Operations that went stale before submission: an earlier grant in the
    /// same batch removed or re-parented the node they referenced
    /// (synchronous families apply changes immediately).
    pub dropped: u64,
    /// Permits granted.
    pub granted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Permits that can no longer be granted (`M − granted` once a reject has
    /// been issued; 0 while no reject happened). A §5 application's is 0
    /// unless its epoch engine's stalled-rotation valve rejected a request;
    /// it then reads `u64::MAX − granted`.
    pub wasted: u64,
    /// Permit/package movement cost (the centralized cost measure).
    pub moves: u64,
    /// Total messages (the distributed cost measure).
    pub messages: u64,
    /// Median answer latency in virtual time units (`answered_at −
    /// submitted_at` over this run's grants and rejects; 0 for synchronous
    /// families, which answer inside `submit`).
    pub p50_answer_latency: u64,
    /// 95th-percentile answer latency in virtual time units.
    pub p95_answer_latency: u64,
    /// Largest per-node state footprint observed, in bits.
    pub peak_node_memory_bits: u64,
    /// Network size when the run finished.
    pub final_nodes: usize,
    /// Largest child-degree in the final tree (the `deg(v)` input of the
    /// Claim 4.8 memory bound, measured where the memory was measured).
    pub final_max_degree: usize,
    /// Iterations (epochs, rounds, renamings) the controller ran
    /// ([`Controller::iterations`]).
    pub iterations: u32,
    /// Topological changes granted during this run — the denominator of the
    /// §5 amortized bounds.
    pub changes: u64,
    /// Invariant checks made during the run (at every quiescent point).
    pub invariant_checks: u64,
    /// How many of those checks failed. The §5 theorems say this must be 0.
    pub invariant_violations: u64,
    /// The first violated invariant, rendered, if any check failed.
    pub first_violation: Option<String>,
}

impl RunReport {
    /// The execution summary used by the §2.2 safety/liveness checkers.
    ///
    /// `unanswered` saturates at 0; use [`RunReport::check`], which reports
    /// an over-count (`granted + rejected > submitted`) as a hard
    /// [`Violation::OverAnswered`] instead of letting the saturation hide it.
    pub fn summary(&self) -> ExecutionSummary {
        ExecutionSummary {
            m: self.m,
            w: self.w,
            granted: self.granted,
            rejected: self.rejected,
            unanswered: self.submitted.saturating_sub(self.granted + self.rejected),
        }
    }

    /// Checks the (M, W)-Controller correctness conditions over this run.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition. On top of the §2.2 conditions,
    /// a run that *over*-answers — more grants plus rejects than requests
    /// submitted, i.e. a controller double-answered or a driver lost count —
    /// fails with [`Violation::OverAnswered`] rather than being silently
    /// clamped to `unanswered = 0`, and a failed invariant check fails with
    /// [`Violation::Invariant`].
    pub fn check(&self) -> Result<(), Violation> {
        let answered = self.granted.saturating_add(self.rejected);
        if answered > self.submitted {
            return Err(Violation::OverAnswered {
                granted: self.granted,
                rejected: self.rejected,
                submitted: self.submitted,
            });
        }
        self.summary().check()?;
        if self.invariant_violations > 0 {
            return Err(Violation::Invariant(
                self.first_violation.clone().unwrap_or_else(|| {
                    format!("{} invariant violations", self.invariant_violations)
                }),
            ));
        }
        Ok(())
    }

    /// Amortized messages per granted topological change (the quantity the
    /// §5 theorems bound, e.g. `O(log² n)` for size estimation).
    pub fn amortized_messages_per_change(&self) -> f64 {
        self.messages as f64 / self.changes.max(1) as f64
    }
}

/// Nearest-rank p50/p95 of a value stream (0 for an empty stream). Shared by
/// the runner's latency columns and the sweep engine's family summaries.
pub(crate) fn percentiles(values: impl Iterator<Item = u64>) -> (u64, u64) {
    let mut sorted: Vec<u64> = values.collect();
    if sorted.is_empty() {
        return (0, 0);
    }
    sorted.sort_unstable();
    let rank = |q: usize| sorted[(q * sorted.len()).div_ceil(100).clamp(1, sorted.len()) - 1];
    (rank(50), rank(95))
}

/// Drives a [`dyn Controller`](Controller) through a seeded [`Scenario`].
///
/// The runner generates churn operations against the controller's *current*
/// tree, redraws the arrival node of non-topological events from the
/// scenario's placement distribution, submits every operation as a ticket
/// (unsupported kinds resolve to refusal events instead of being filtered at
/// the driver), and advances execution according to the scenario's
/// [`ArrivalMode`] — to quiescence after every batch in the controlled
/// closed-loop model of §2.1.2, or in bounded [`Controller::step`] slices in
/// the open-loop interleaved model.
///
/// ```
/// use dcn_controller::centralized::IteratedController;
/// use dcn_workload::{Scenario, ScenarioRunner};
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let runner = ScenarioRunner::new(Scenario::smoke());
/// let mut ctrl = IteratedController::new(
///     runner.initial_tree(),
///     runner.scenario().m,
///     runner.scenario().w,
///     runner.suggested_u_bound(),
/// )?;
/// let report = runner.run(&mut ctrl)?;
/// assert!(report.granted <= report.m);
/// report.check().expect("safety and liveness hold");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioRunner {
    scenario: Scenario,
    batch: usize,
}

/// The deterministic request stream a [`ScenarioRunner`] submits: the
/// scenario's churn generator plus the placement redraw for non-topological
/// events, seeded exactly as [`ScenarioRunner::run`] seeds them.
///
/// This is the runner's submission seam made public so *other* drivers — the
/// `dcn-serve` loopback transport's parity tests in particular — can replay
/// the identical `(node, kind)` sequence against the identical tree states
/// without duplicating the seed-derivation constants. Any change to the
/// stream derivation here changes every consumer in lockstep, keeping
/// "same scenario ⇒ same requests" a structural property rather than a
/// convention.
pub struct OpStream {
    churn: ChurnGenerator,
    placement: Placement,
    placement_rng: DetRng,
}

impl OpStream {
    /// The next batch of up to `want` raw churn operations against the
    /// current `tree`. An empty batch means the generator has run dry (e.g.
    /// a grow-only model with nothing left to insert under). Placement is
    /// *not* drawn here: resolve each op with [`OpStream::place`] right
    /// before submitting it, so event placement sees the tree as it stands
    /// at submit time — synchronous families apply grants mid-batch, and
    /// drawing against the batch-start tree would change every placement
    /// after the first mid-batch grant (and with it the pinned sweep bytes).
    pub fn next_batch(&mut self, tree: &DynamicTree, want: usize) -> Vec<ChurnOp> {
        self.churn.batch(tree, want)
    }

    /// Resolves one churn op to the `(node, kind)` actually submitted,
    /// drawing the scenario's placement distribution against the tree at
    /// submit time for non-topological events — the request arrives where
    /// the placement says, not where the churn generator happened to land.
    pub fn place(&mut self, tree: &DynamicTree, op: &ChurnOp) -> (NodeId, RequestKind) {
        match op {
            ChurnOp::Event { .. } => (
                self.placement.draw(tree, &mut self.placement_rng),
                RequestKind::NonTopological,
            ),
            other => other.to_request(),
        }
    }
}

impl ScenarioRunner {
    /// Creates a runner for `scenario` with the default batch size of 16
    /// concurrent requests.
    pub fn new(scenario: Scenario) -> Self {
        ScenarioRunner {
            scenario,
            batch: 16,
        }
    }

    /// Sets the number of requests submitted per batch (1 serialises the
    /// workload completely; larger batches exercise concurrency in the
    /// distributed family).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// The scenario this runner drives.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The number of requests submitted per batch (see
    /// [`ScenarioRunner::with_batch`]).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The deterministic submission stream this runner will drive — the
    /// exact `(node, kind)` sequence of [`ScenarioRunner::run`], freshly
    /// seeded. Each call returns an
    /// independent stream starting from the beginning.
    pub fn op_stream(&self) -> OpStream {
        OpStream {
            churn: ChurnGenerator::new(self.scenario.churn, self.scenario.seed.wrapping_add(17)),
            placement: self.scenario.placement,
            placement_rng: DetRng::seed_from_u64(
                self.scenario
                    .seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(71),
            ),
        }
    }

    /// Builds the scenario's initial tree (construct the controller over
    /// this).
    pub fn initial_tree(&self) -> DynamicTree {
        build_tree(self.scenario.shape)
    }

    /// A node bound `U` that is always sufficient for this scenario: the
    /// initial nodes plus one per request (every request could be an
    /// insertion).
    pub fn suggested_u_bound(&self) -> usize {
        self.scenario.shape.node_budget() + 1 + self.scenario.requests + 1
    }

    /// Drives `ctrl` through the scenario and reports the outcome.
    ///
    /// The runner submits the scenario's operation stream in batches,
    /// executing between batches as the arrival mode says, and checks the
    /// controller's invariants wherever it has just run to quiescence —
    /// after each batch in the closed loop, and once at the end in either
    /// mode.
    ///
    /// The controller should be freshly constructed: the report reads the
    /// controller's cumulative tally (grants, rejects, refusals), and the
    /// change and latency columns cover the records produced during this run
    /// only (nothing may take them while it runs).
    ///
    /// # Errors
    ///
    /// Propagates submission validation errors for operations the model
    /// supports, and simulator errors from [`Controller::step`] /
    /// [`Controller::run_to_quiescence`].
    pub fn run(&self, ctrl: &mut dyn Controller) -> Result<RunReport, ControllerError> {
        let scenario = &self.scenario;
        // Records from earlier runs over the same controller are not this
        // run's outcomes.
        let before = ctrl.records().len();
        let mut stream = self.op_stream();
        let mut issued = 0u64;
        let mut dropped = 0u64;
        let mut stalled_batches = 0u32;
        let (mut invariant_checks, mut invariant_violations) = (0u64, 0u64);
        let mut first_violation: Option<String> = None;
        // A quiescent point: the controller's guarantees must hold.
        let mut check = |ctrl: &dyn Controller| {
            invariant_checks += 1;
            if let Err(e) = ctrl.check_invariants() {
                invariant_violations += 1;
                first_violation.get_or_insert_with(|| e.to_string());
            }
        };

        while (issued as usize) < scenario.requests {
            let want = self.batch.min(scenario.requests - issued as usize);
            let ops = stream.next_batch(ctrl.tree(), want);
            if ops.is_empty() {
                break;
            }
            let mut sent_this_batch = 0u64;
            for op in &ops {
                let (at, kind) = stream.place(ctrl.tree(), op);
                // Synchronous families apply granted changes immediately, so
                // a later op of the same batch may reference a node an
                // earlier grant just removed; such stale ops are dropped.
                // (Unsupported kinds are NOT dropped — they get a ticket and
                // resolve to a refusal event.)
                if ctrl.submit(at, kind).is_err() {
                    dropped += 1;
                    continue;
                }
                issued += 1;
                sent_this_batch += 1;
            }
            match scenario.arrival {
                ArrivalMode::Batch => {
                    run_to_quiescence(ctrl)?;
                    check(ctrl);
                }
                ArrivalMode::Interleaved { quantum } => {
                    // A bounded slice: agents stay in flight while the next
                    // batch is generated and submitted.
                    ctrl.step(quantum)?;
                }
            }
            // A model that refuses everything the generator produces must
            // still terminate even if the generator runs dry of novel ops.
            if sent_this_batch == 0 {
                stalled_batches += 1;
                if stalled_batches > 8 {
                    break;
                }
            } else {
                stalled_batches = 0;
            }
        }
        run_to_quiescence(ctrl)?;
        check(ctrl);

        let records = &ctrl.records()[before..];
        let changes = records
            .iter()
            .filter(|r| r.outcome.is_granted() && r.kind.is_topological())
            .count() as u64;
        let (p50_answer_latency, p95_answer_latency) = percentiles(
            records
                .iter()
                .filter(|r| !r.outcome.is_refused())
                .map(|r| r.latency()),
        );
        let metrics = ctrl.metrics();
        let (granted, rejected, refused) = (ctrl.granted(), ctrl.rejected(), ctrl.refused());
        Ok(RunReport {
            controller: ctrl.name().to_string(),
            scenario: scenario.name.clone(),
            m: ctrl.budget(),
            w: ctrl.waste_bound(),
            submitted: issued - refused,
            refused,
            dropped,
            granted,
            rejected,
            wasted: if rejected > 0 {
                ctrl.budget().saturating_sub(granted)
            } else {
                0
            },
            moves: metrics.moves,
            messages: metrics.messages,
            p50_answer_latency,
            p95_answer_latency,
            peak_node_memory_bits: metrics.peak_node_memory_bits,
            final_nodes: ctrl.tree().node_count(),
            final_max_degree: ctrl
                .tree()
                .nodes()
                .map(|v| ctrl.tree().child_degree(v).unwrap_or(0))
                .max()
                .unwrap_or(0),
            iterations: ctrl.iterations(),
            changes,
            invariant_checks,
            invariant_violations,
            first_violation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::placement::Placement;
    use crate::shape::TreeShape;
    use dcn_controller::centralized::IteratedController;
    use dcn_controller::distributed::DistributedController;
    use dcn_simnet::SimConfig;

    fn scenario(requests: usize, m: u64, w: u64, seed: u64) -> Scenario {
        Scenario {
            name: "runner-test".into(),
            shape: TreeShape::RandomRecursive { nodes: 23, seed: 5 },
            churn: ChurnModel::default_mixed(),
            placement: Placement::Uniform,
            arrival: ArrivalMode::Batch,
            requests,
            m,
            w,
            seed,
        }
    }

    #[test]
    fn runner_drives_the_iterated_controller_to_a_consistent_report() {
        let runner = ScenarioRunner::new(scenario(80, 40, 10, 3));
        let mut ctrl = IteratedController::new(
            runner.initial_tree(),
            runner.scenario().m,
            runner.scenario().w,
            runner.suggested_u_bound(),
        )
        .unwrap();
        let report = runner.run(&mut ctrl).unwrap();
        assert_eq!(report.controller, "iterated");
        assert_eq!(report.submitted, 80);
        assert_eq!(report.refused, 0);
        assert_eq!(report.granted + report.rejected, report.submitted);
        assert!(report.moves > 0);
        // Synchronous families answer inside submit: zero latency.
        assert_eq!(report.p95_answer_latency, 0);
        report.check().unwrap();
    }

    #[test]
    fn runner_drives_the_distributed_controller_identically_seeded() {
        let s = scenario(40, 30, 10, 9);
        let runner = ScenarioRunner::new(s);
        let mut reports = Vec::new();
        for _ in 0..2 {
            let mut ctrl = DistributedController::new(
                SimConfig::new(runner.scenario().seed),
                runner.initial_tree(),
                runner.scenario().m,
                runner.scenario().w,
                runner.suggested_u_bound(),
            )
            .unwrap();
            reports.push(runner.run(&mut ctrl).unwrap());
        }
        assert_eq!(reports[0], reports[1], "runs must be reproducible");
        assert!(reports[0].messages > 0);
        // Answers travel over the simulated network: non-zero latency.
        assert!(reports[0].p95_answer_latency > 0);
        reports[0].check().unwrap();
    }

    #[test]
    fn interleaved_arrivals_submit_while_agents_are_in_flight() {
        let mut s = scenario(48, 40, 10, 21);
        s.arrival = ArrivalMode::Interleaved { quantum: 8 };
        let runner = ScenarioRunner::new(s);
        let build = |runner: &ScenarioRunner| {
            DistributedController::new(
                SimConfig::new(runner.scenario().seed),
                runner.initial_tree(),
                runner.scenario().m,
                runner.scenario().w,
                runner.suggested_u_bound(),
            )
            .unwrap()
        };
        let mut ctrl = build(&runner);
        let report = runner.run(&mut ctrl).unwrap();
        assert_eq!(report.granted + report.rejected, report.submitted);
        report.check().unwrap();
        // Reproducible like every other mode.
        let mut again = build(&runner);
        assert_eq!(runner.run(&mut again).unwrap(), report);
        // The open-loop schedule differs observably from the closed loop:
        // under it, later requests contend with in-flight agents.
        let mut closed = runner.scenario().clone();
        closed.arrival = ArrivalMode::Batch;
        let closed_runner = ScenarioRunner::new(closed);
        let mut closed_ctrl = build(&closed_runner);
        let closed_report = closed_runner.run(&mut closed_ctrl).unwrap();
        assert_ne!(
            (report.messages, report.p95_answer_latency),
            (closed_report.messages, closed_report.p95_answer_latency),
            "interleaved arrivals should change the execution schedule"
        );
    }

    #[test]
    fn over_answering_is_a_hard_violation_not_a_silent_clamp() {
        let runner = ScenarioRunner::new(scenario(30, 20, 5, 11));
        let mut ctrl =
            IteratedController::new(runner.initial_tree(), 20, 5, runner.suggested_u_bound())
                .unwrap();
        let mut report = runner.run(&mut ctrl).unwrap();
        report.check().unwrap();
        // Forge the double-answer bug the check is for: more answers than
        // submissions used to clamp `unanswered` to 0 and pass.
        report.granted = report.submitted;
        report.rejected = 1;
        assert!(
            matches!(
                report.check(),
                Err(dcn_controller::verify::Violation::OverAnswered { rejected: 1, .. })
            ),
            "got {:?}",
            report.check()
        );
        // The summary itself still saturates (documented), which is exactly
        // why check() must look at the raw counters.
        assert_eq!(report.summary().unanswered, 0);
    }

    #[test]
    fn wasted_is_only_counted_after_a_reject() {
        // A scenario far below the budget never rejects: wasted must be 0.
        let runner = ScenarioRunner::new(scenario(10, 100, 50, 4));
        let mut ctrl =
            IteratedController::new(runner.initial_tree(), 100, 50, runner.suggested_u_bound())
                .unwrap();
        let report = runner.run(&mut ctrl).unwrap();
        assert_eq!(report.rejected, 0);
        assert_eq!(report.wasted, 0);
    }

    #[test]
    fn deepest_placement_is_respected() {
        // Events-only churn on a path with Deepest placement: every granted
        // request pulls permits the whole depth, so moves per request are at
        // least the depth for the trivial-free iterated controller.
        let s = Scenario {
            name: "deep".into(),
            shape: TreeShape::Path { nodes: 30 },
            churn: ChurnModel::EventsOnly,
            placement: Placement::Deepest,
            arrival: ArrivalMode::Batch,
            requests: 5,
            m: 10,
            w: 5,
            seed: 2,
        };
        let runner = ScenarioRunner::new(s);
        let mut ctrl =
            IteratedController::new(runner.initial_tree(), 10, 5, runner.suggested_u_bound())
                .unwrap();
        let report = runner.run(&mut ctrl).unwrap();
        assert!(
            report.moves >= 30,
            "moves {} too low for depth-30 requests",
            report.moves
        );
    }

    #[test]
    fn runner_drives_an_application_to_a_consistent_report() {
        use crate::spec::family_factory;
        let runner = ScenarioRunner::new(scenario(60, 40, 10, 13));
        let mut app = family_factory("size-estimator", runner.scenario()).unwrap();
        let report = runner.run(app.as_mut()).unwrap();
        assert_eq!(report.controller, "size-estimator");
        // A request whose origin vanished while it waited is refused.
        assert_eq!(report.submitted + report.refused, 60);
        assert_eq!(report.granted + report.rejected, report.submitted);
        assert!(report.messages > 0);
        assert!(report.invariant_checks > 0);
        assert_eq!(report.invariant_violations, 0);
        assert_eq!(report.first_violation, None);
        // The inner controllers run on the simulated network: latency > 0.
        assert!(report.p95_answer_latency > 0);
        report.check().unwrap();
        // Identically-seeded reruns reproduce the report exactly.
        let mut again = family_factory("size-estimator", runner.scenario()).unwrap();
        assert_eq!(runner.run(again.as_mut()).unwrap(), report);
    }

    #[test]
    fn interleaved_arrivals_drive_applications_too() {
        use crate::spec::family_factory;
        let mut s = scenario(48, 40, 10, 23);
        s.arrival = ArrivalMode::Interleaved { quantum: 12 };
        let runner = ScenarioRunner::new(s);
        let mut app = family_factory("name-assigner", runner.scenario()).unwrap();
        let report = runner.run(app.as_mut()).unwrap();
        assert_eq!(report.granted + report.rejected, report.submitted);
        report.check().unwrap();
        // Reproducible like the closed loop.
        let mut again = family_factory("name-assigner", runner.scenario()).unwrap();
        assert_eq!(runner.run(again.as_mut()).unwrap(), report);
    }

    #[test]
    fn app_report_check_flags_violations_and_unanswered_tickets() {
        use crate::spec::family_factory;
        use dcn_controller::verify::Violation;
        let runner = ScenarioRunner::new(scenario(20, 30, 10, 31));
        let mut app = family_factory("heavy-child", runner.scenario()).unwrap();
        let mut report = runner.run(app.as_mut()).unwrap();
        report.check().unwrap();
        let clean = report.clone();
        // A failed check renders as the invariant's own text, verbatim: a
        // sweep's status cell reads `violation: <text>`. This is the Lemma
        // 5.3 finding of grid base seed 405.
        let lemma = dcn_controller::InvariantError::SuperWeightOutOfBand {
            node: NodeId::from_index(482),
            estimate: 21,
            truth: 4,
            tolerance: 4.0,
        }
        .to_string();
        assert_eq!(
            lemma,
            "super-weight estimate 21 for n482 outside [1.00, 16.00] (true super-weight 4)"
        );
        report.invariant_violations = 1;
        report.first_violation = Some(lemma.clone());
        let violation = report.check().unwrap_err();
        assert_eq!(violation.to_string(), lemma);
        assert_eq!(violation, Violation::Invariant(lemma));
        let mut unanswered = clean;
        unanswered.granted -= 1;
        assert!(matches!(
            unanswered.check(),
            Err(Violation::Unanswered { count: 1 })
        ));
    }

    #[test]
    fn percentile_helper_computes_nearest_rank() {
        assert_eq!(percentiles([].into_iter()), (0, 0));
        assert_eq!(percentiles([7].into_iter()), (7, 7));
        let (p50, p95) = percentiles((1..=100).rev());
        assert_eq!(p50, 50);
        assert_eq!(p95, 95);
    }
}
