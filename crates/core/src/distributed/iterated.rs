//! The adaptive distributed controller: epochs for unknown `U` (Appendix A)
//! and within-epoch permit recycling (the distributed counterpart of
//! Observations 2.1 / 3.4 and Theorem 4.9).
//!
//! The driver runs the fixed-bound distributed controller in *epochs*. Epoch
//! `i` assumes `U_i = 2·N_i` where `N_i` is the number of nodes at the start
//! of the epoch, and carries the unspent budget `M_i = M − granted`. An epoch
//! is refreshed after `U_i / 4` topological changes; inside an epoch, when the
//! controller exhausts its storage while many permits are still parked in
//! packages, the data structure is cleared and the permits recycled (the
//! halving trick), and the requests that were rejected by the reject wave are
//! resubmitted — this is exactly the queue-and-retry behaviour of the paper's
//! terminating controller.
//!
//! **Modelling note.** The paper detects epoch boundaries with a second
//! controller counting topological changes, and counts `N_{i+1}`, `Y_i` and
//! the unused permits with broadcast-and-upcast waves. This driver performs
//! that bookkeeping directly at the driver (root) level and charges the
//! corresponding wave cost — `O(n)` messages per epoch boundary — to the
//! message counter (`aux`), which keeps the measured totals asymptotically
//! faithful while avoiding a second interleaved protocol instance. DESIGN.md
//! records this substitution.

use super::epoch::{EpochShell, Pending};
use crate::api::{Controller, ControllerEvent, ControllerMetrics};
use crate::ledger::RequestLedger;
use crate::request::{check_request, Outcome, RequestId, RequestKind, RequestRecord};
use crate::verify::ExecutionSummary;
use crate::ControllerError;
use dcn_simnet::{DynamicTree, NodeId, SimConfig};

/// The adaptive distributed (M, W)-Controller: no a-priori bound on the number
/// of nodes is needed (Theorem 4.9).
///
/// A policy over the [`EpochShell`]: seeds run `seed, seed+1, …`; epoch `i`
/// assumes `U_i = 2·N_i`; every rebuild carries the unspent budget with the
/// halving waste target and is charged a `4n` counting/clearing wave; a local
/// reject recycles the parked permits and retries, until at most `W` permits
/// are uncommitted.
#[derive(Debug)]
pub struct AdaptiveDistributedController {
    config: SimConfig,
    shell: EpochShell,
    ledger: RequestLedger,
    m: u64,
    w: u64,
    /// Permits granted by retired inner controllers.
    granted_retired: u64,
    rejected_total: u64,
    submitted_total: u64,
    /// Messages charged for the boundary waves (`4n` per rebuild).
    wave_messages: u64,
    epochs: u32,
    recycles: u32,
    epoch_u: u64,
    /// [`DynamicTree::changes`] when the current epoch began.
    epoch_changes_at_start: u64,
    exhausted: bool,
    next_seed: u64,
    /// Requests accepted through [`Controller::submit`], drained by the next
    /// `run_to_quiescence`.
    queued: Vec<Pending>,
}

impl AdaptiveDistributedController {
    /// Creates an adaptive distributed (m, w)-controller over `tree`.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::WasteExceedsBudget`] if `w > m`.
    pub fn new(
        config: SimConfig,
        tree: DynamicTree,
        m: u64,
        w: u64,
    ) -> Result<Self, ControllerError> {
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        let mut ctrl = AdaptiveDistributedController {
            config,
            epoch_u: (2 * tree.node_count() as u64).max(2),
            epoch_changes_at_start: tree.changes(),
            shell: EpochShell::parked(tree),
            ledger: RequestLedger::new(),
            m,
            w,
            granted_retired: 0,
            rejected_total: 0,
            submitted_total: 0,
            wave_messages: 0,
            epochs: 1,
            recycles: 0,
            exhausted: false,
            next_seed: config.seed,
            queued: Vec::new(),
        };
        ctrl.install(m)?;
        Ok(ctrl)
    }

    /// Starts an inner controller over the parked tree with the given budget
    /// and the next seed of the `seed, seed+1, …` sequence.
    fn install(&mut self, budget: u64) -> Result<(), ControllerError> {
        let mut cfg = self.config;
        cfg.seed = self.next_seed;
        self.next_seed = self.next_seed.wrapping_add(1);
        let u_bound = (self.epoch_u as usize).max(self.shell.tree().node_count());
        // The inner controller's waste target: at least half its budget (the
        // halving trick) but never below the real waste bound, and never above
        // the budget itself.
        let inner_w = (budget / 2).max(self.w).max(1).min(budget.max(1));
        self.shell
            .install(cfg, budget.max(1), inner_w, u_bound, None)
    }

    /// Permits granted by the running inner controller.
    fn granted_live(&self) -> u64 {
        self.shell.live().map_or(0, Controller::granted)
    }

    /// Total messages so far (all epochs, including the modelled waves).
    pub fn messages(&self) -> u64 {
        self.shell.messages() + self.wave_messages
    }

    /// Number of epochs started.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Number of within-epoch recycling rounds performed.
    pub fn recycles(&self) -> u32 {
        self.recycles
    }

    /// Returns `true` once the whole budget has been spent (up to the waste
    /// bound) and the controller rejects every further request.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// A correctness summary over the whole execution.
    pub fn summary(&self) -> ExecutionSummary {
        ExecutionSummary {
            m: self.m,
            w: self.w,
            granted: self.granted(),
            rejected: self.rejected(),
            unanswered: self
                .submitted_total
                .saturating_sub(self.granted() + self.rejected()),
        }
    }

    /// Submits a batch of requests (each a `(origin, kind)` pair, validated
    /// against the current tree), runs the network to quiescence — recycling
    /// permits and refreshing epochs as needed — and returns the final answer
    /// for every request in the batch.
    ///
    /// # Errors
    ///
    /// Propagates validation and simulator errors; requests whose origin
    /// disappears while they are being retried are answered with a reject.
    pub fn run_batch(
        &mut self,
        requests: &[(NodeId, RequestKind)],
    ) -> Result<Vec<RequestRecord>, ControllerError> {
        let submitted_at = self.shell.now();
        let pending = requests
            .iter()
            .map(|&(origin, kind)| Pending {
                id: self.ledger.issue(),
                origin,
                kind,
                submitted_at,
            })
            .collect();
        let before = self.ledger.records().len();
        self.run_pending(pending)?;
        Ok(self.ledger.records()[before..].to_vec())
    }

    /// The multi-epoch execution engine behind [`run_batch`] and
    /// [`Controller::run_to_quiescence`]: answers every pending outer ticket,
    /// recycling permits and refreshing epochs as needed.
    ///
    /// [`run_batch`]: AdaptiveDistributedController::run_batch
    fn run_pending(&mut self, mut pending: Vec<Pending>) -> Result<(), ControllerError> {
        self.submitted_total += pending.len() as u64;

        while !pending.is_empty() {
            if self.exhausted {
                for request in pending {
                    self.reject(request);
                }
                break;
            }
            let mut skipped: Vec<Pending> = Vec::new();
            for &request in &pending {
                if !self.shell.tree().contains(request.origin) {
                    // The origin vanished while the request was waiting to be
                    // retried; answer it with a reject.
                    skipped.push(request);
                    continue;
                }
                self.shell.submit(request)?;
            }
            self.shell.run()?;
            let round = self.shell.collect();
            for request in skipped {
                self.reject(request);
            }

            let mut retry: Vec<Pending> = Vec::new();
            for rec in round {
                match rec.outcome {
                    Outcome::Granted { .. } => self.ledger.push(rec),
                    Outcome::Rejected | Outcome::Refused => retry.push(Pending::of(&rec)),
                }
            }

            if !retry.is_empty() {
                let uncommitted = self
                    .shell
                    .live()
                    .map_or(0, |inner| inner.uncommitted_permits());
                if uncommitted <= self.w {
                    // Truly exhausted: the rejects are final (liveness holds:
                    // granted = M − uncommitted ≥ M − W).
                    self.exhausted = true;
                    for request in retry.drain(..) {
                        self.reject(request);
                    }
                } else {
                    // Recycle the parked permits and retry the queued requests
                    // (the terminating-controller behaviour of Obs. 2.1).
                    self.recycles += 1;
                    self.rebuild(false)?;
                }
            }
            pending = retry;

            // Epoch refresh: after U_i / 4 topological changes, re-estimate U.
            let changes = self.shell.tree().changes() - self.epoch_changes_at_start;
            if changes >= (self.epoch_u / 4).max(1) && !self.exhausted {
                self.epochs += 1;
                self.rebuild(true)?;
            }
        }
        Ok(())
    }

    /// Answers `request` with a final reject at the current global time.
    fn reject(&mut self, request: Pending) {
        self.rejected_total += 1;
        self.ledger.push(request.rejected_at(self.shell.now()));
    }

    /// Retires the current inner controller, charges the boundary waves, and
    /// installs a fresh one over the same tree with the unspent budget. When
    /// `new_epoch` is true the bound `U` is re-estimated from the current
    /// network size.
    fn rebuild(&mut self, new_epoch: bool) -> Result<(), ControllerError> {
        self.granted_retired += self.granted_live();
        self.shell.retire();
        let tree = self.shell.tree();
        let n = tree.node_count() as u64;
        // Counting / clearing waves at the boundary: broadcast + upcast to
        // count the granted permits and the current size, plus the wave that
        // clears the package data structure.
        self.wave_messages += 4 * n;
        if new_epoch {
            self.epoch_u = (2 * n).max(2);
            self.epoch_changes_at_start = tree.changes();
        }
        let budget = self.m.saturating_sub(self.granted_retired);
        if budget == 0 {
            self.exhausted = true;
        }
        self.install(budget)
    }
}

impl Controller for AdaptiveDistributedController {
    fn name(&self) -> &'static str {
        "adaptive-distributed"
    }

    fn budget(&self) -> u64 {
        self.m
    }

    fn waste_bound(&self) -> u64 {
        self.w
    }

    /// Validates against the current tree; execution happens at the next
    /// `run_to_quiescence` (the adaptive driver works in batches so that it
    /// can recycle permits and refresh epochs between rounds).
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

    fn run_to_quiescence(&mut self) -> Result<(), ControllerError> {
        let queued = std::mem::take(&mut self.queued);
        self.run_pending(queued)
    }

    fn drain_events(&mut self) -> Vec<ControllerEvent> {
        self.ledger.drain_events()
    }

    fn records(&self) -> &[RequestRecord] {
        self.ledger.records()
    }

    fn record(&self, id: RequestId) -> Option<&RequestRecord> {
        self.ledger.get(id)
    }

    fn trim_records(&mut self, keep: usize) {
        self.ledger.trim(keep);
    }

    /// Permits granted so far (all epochs).
    fn granted(&self) -> u64 {
        self.granted_retired + self.granted_live()
    }

    /// Requests rejected with a final answer so far.
    fn rejected(&self) -> u64 {
        self.rejected_total
    }

    fn tree(&self) -> &DynamicTree {
        self.shell.tree()
    }

    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics {
            messages: self.messages(),
            ..self.shell.totals()
        }
    }
}
