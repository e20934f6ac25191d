//! The iterated controller of Observation 3.4.
//!
//! Running the base `(M, W)`-controller directly costs
//! `O(U · (M/W) · log² U)` moves. The iteration trick halves the "waste"
//! target every round: start with an `(M, M/2)`-controller; whenever the
//! current round would reject, count the `L` still-uncommitted permits, clear
//! the data structure and start an `(L, L/2)`-controller, until `L` is within
//! a constant factor of the real waste bound `W`, at which point one final
//! `(L, W)` round runs. This brings the cost down to
//! `O(U · log² U · log(M/(W+1)))` and also yields a controller for `W = 0`.

use super::base::{Attempt, CentralizedController};
use crate::api::{ControllerMetrics, SyncController};
use crate::ledger::RequestLedger;
use crate::request::{Outcome, RequestKind};
use crate::ControllerError;
use dcn_tree::{DynamicTree, NodeId};

/// Which stage of the iteration schedule the controller is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Halving rounds: the inner controller runs with waste target `M_i / 2`.
    Halving,
    /// The final round with the real waste bound `W`.
    Final,
    /// `W = 0` only: exactly one permit remains and is granted directly from
    /// the root to the next request (the trivial `(1, 0)`-controller).
    LastPermit,
    /// All permits accounted for; every further request is rejected.
    Rejecting,
}

/// The iterated centralized `(M, W)`-controller (Observation 3.4). Unlike the
/// base controller it supports `W = 0`.
///
/// ```
/// use dcn_controller::centralized::IteratedController;
/// use dcn_controller::RequestKind;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(15);
/// // W = 0: exactly 5 permits must be granted before any reject.
/// let mut ctrl = IteratedController::new(tree, 5, 0, 64)?;
/// let node = ctrl.tree().root();
/// for _ in 0..5 {
///     assert!(ctrl.submit(node, RequestKind::NonTopological)?.is_granted());
/// }
/// assert!(!ctrl.submit(node, RequestKind::NonTopological)?.is_granted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IteratedController {
    inner: CentralizedController,
    m: u64,
    w_target: u64,
    stage: Stage,
    iterations: u32,
    rejected: u64,
    reject_wave_charged: bool,
    /// Largest per-node footprint observed at round boundaries (the restart
    /// clears every store, so the end-of-run snapshot alone would miss
    /// earlier rounds' peaks).
    peak_memory_bits: u64,
    /// Ticket/event/record bookkeeping for submissions through the
    /// [`Controller`](crate::Controller) trait.
    ledger: RequestLedger,
}

impl IteratedController {
    /// Creates an iterated `(m, w)`-controller over `tree` with node bound
    /// `u_bound`. `w = 0` is allowed.
    ///
    /// # Errors
    ///
    /// Same as [`CentralizedController::new`] except that `w = 0` is accepted.
    pub fn new(tree: DynamicTree, m: u64, w: u64, u_bound: usize) -> Result<Self, ControllerError> {
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        // First halving round: an (M, max(M/2, 1))-controller. A zero budget
        // degenerates to a controller that rejects everything.
        let w0 = (m / 2).max(1);
        let inner = CentralizedController::new(tree, m.max(1), w0.min(m.max(1)), u_bound)?;
        Ok(IteratedController {
            inner,
            m,
            w_target: w,
            stage: if m == 0 {
                Stage::Rejecting
            } else {
                Stage::Halving
            },
            iterations: 1,
            rejected: 0,
            reject_wave_charged: false,
            peak_memory_bits: 0,
            ledger: RequestLedger::new(),
        })
    }

    /// The spanning tree as currently maintained by the controller.
    pub fn tree(&self) -> &DynamicTree {
        self.inner.tree()
    }

    /// Consumes the controller and returns the tree.
    pub fn into_tree(self) -> DynamicTree {
        self.inner.into_tree()
    }

    /// The largest per-node package-store footprint in bits observed at any
    /// round boundary or at the current instant (see
    /// [`CentralizedController::peak_node_memory_bits`]).
    pub fn peak_node_memory_bits(&self) -> u64 {
        self.peak_memory_bits
            .max(self.inner.peak_node_memory_bits())
    }

    /// Total number of permits granted so far (across all rounds).
    pub fn granted(&self) -> u64 {
        self.inner.granted()
    }

    /// Total number of rejects issued so far.
    pub fn rejected(&self) -> u64 {
        self.rejected + self.inner.rejected()
    }

    /// Move complexity accumulated so far (across all rounds, including the
    /// per-round reset waves).
    pub fn moves(&self) -> u64 {
        self.inner.moves()
    }

    /// Number of iteration rounds started so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Returns `true` once the controller has started rejecting requests.
    pub fn is_exhausted(&self) -> bool {
        self.stage == Stage::Rejecting
    }

    /// Number of permits not yet granted.
    pub fn uncommitted_permits(&self) -> u64 {
        self.inner.uncommitted_permits()
    }

    /// Submits a request; see [`CentralizedController::submit`]. The iterated
    /// controller recycles uncommitted permits between rounds, so rejects only
    /// start once at most `W` permits can remain ungranted.
    ///
    /// # Errors
    ///
    /// Same as [`CentralizedController::try_submit`].
    pub fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError> {
        match self.try_submit(at, kind)? {
            Attempt::Granted { serial, new_node } => Ok(Outcome::Granted { serial, new_node }),
            Attempt::Exhausted => {
                self.rejected += 1;
                Ok(Outcome::Rejected)
            }
            Attempt::LocallyRejected => Ok(Outcome::Rejected),
        }
    }

    /// Attempts to serve a request without issuing a reject, recycling permits
    /// across rounds as needed. Returns [`Attempt::Exhausted`] only when the
    /// whole iterated schedule is out of permits (at which point at most `W`
    /// permits remain ungranted).
    ///
    /// # Errors
    ///
    /// Same as [`CentralizedController::try_submit`].
    pub fn try_submit(
        &mut self,
        at: NodeId,
        kind: RequestKind,
    ) -> Result<Attempt, ControllerError> {
        loop {
            match self.stage {
                Stage::Rejecting => {
                    self.charge_reject_wave();
                    return Ok(Attempt::Exhausted);
                }
                Stage::LastPermit => {
                    // The trivial (1, 0)-controller: the root hands the single
                    // remaining permit directly to the requesting node.
                    let attempt = self.inner.grant_directly_from_root(at, kind)?;
                    self.stage = Stage::Rejecting;
                    return Ok(attempt);
                }
                Stage::Halving | Stage::Final => {
                    match self.inner.try_submit(at, kind)? {
                        Attempt::Granted { serial, new_node } => {
                            return Ok(Attempt::Granted { serial, new_node });
                        }
                        Attempt::LocallyRejected => return Ok(Attempt::LocallyRejected),
                        Attempt::Exhausted => {
                            if self.stage == Stage::Final {
                                self.stage = Stage::Rejecting;
                                self.charge_reject_wave();
                                return Ok(Attempt::Exhausted);
                            }
                            self.advance_round()?;
                            // Retry the same request in the new round.
                        }
                    }
                }
            }
        }
    }

    /// Moves from the current halving round to the next stage, recycling the
    /// uncommitted permits.
    fn advance_round(&mut self) -> Result<(), ControllerError> {
        // The restart below clears every package store; sample the memory
        // footprint first so the reported peak covers earlier rounds.
        self.peak_memory_bits = self
            .peak_memory_bits
            .max(self.inner.peak_node_memory_bits());
        let remaining = self.inner.uncommitted_permits();
        if remaining == 0 {
            self.stage = Stage::Rejecting;
            return Ok(());
        }
        if self.w_target >= 1 && remaining <= 2 * self.w_target {
            // Final round: an (L, min(W, L))-controller.
            self.inner
                .restart(remaining, self.w_target.min(remaining))?;
            self.iterations += 1;
            self.stage = Stage::Final;
            return Ok(());
        }
        if remaining == 1 {
            // Only reachable when W = 0: the very last permit is handed out by
            // the trivial controller.
            self.stage = Stage::LastPermit;
            return Ok(());
        }
        // Next halving round: an (L, L/2)-controller.
        self.inner.restart(remaining, (remaining / 2).max(1))?;
        self.iterations += 1;
        Ok(())
    }

    fn charge_reject_wave(&mut self) {
        if self.reject_wave_charged {
            return;
        }
        self.reject_wave_charged = true;
        // Delivering a reject package to every node costs n - 1 moves;
        // subsequent requests are then answered locally by those packages.
        self.inner.broadcast_reject_wave();
    }
}

impl SyncController for IteratedController {
    fn name(&self) -> &'static str {
        "iterated"
    }

    fn budget(&self) -> u64 {
        self.m
    }

    fn waste_bound(&self) -> u64 {
        self.w_target
    }

    fn decide(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError> {
        self.submit(at, kind)
    }

    fn granted(&self) -> u64 {
        self.inner.granted()
    }

    fn rejected(&self) -> u64 {
        self.rejected + self.inner.rejected()
    }

    fn tree(&self) -> &DynamicTree {
        self.inner.tree()
    }

    fn metrics(&self) -> ControllerMetrics {
        ControllerMetrics {
            moves: self.inner.moves(),
            messages: self.inner.moves(),
            peak_node_memory_bits: self.peak_node_memory_bits(),
        }
    }

    fn ledger(&self) -> &RequestLedger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut RequestLedger {
        &mut self.ledger
    }
}
