//! The adaptive (unknown-`U`) controllers of Theorem 3.5.
//!
//! When no fixed bound on the number of nodes ever to exist is known, the
//! controller runs in *epochs*. Epoch `i` assumes `U_i = 2·N_i` (twice the
//! number of nodes at the start of the epoch) and runs a terminating
//! `(M_i, W)`-controller, where `M_i = M − (permits granted in earlier
//! epochs)`. The epoch ends — and the data structure is re-initialised with a
//! fresh estimate — according to a [`RefreshPolicy`]:
//!
//! * [`RefreshPolicy::ChangesQuarterU`] (Theorem 3.5, first part): after
//!   `U_i / 4` topological changes, giving move complexity
//!   `O(n₀ log² n₀ · log(M/(W+1)) + Σ_j log² n_j · log(M/(W+1)))`;
//! * [`RefreshPolicy::SizeDoubling`] (second part): when the number of nodes
//!   doubles relative to the maximum seen before the epoch, giving
//!   `O(N log² N · log(M/(W+1)))` where `N` is the maximum number of nodes
//!   ever alive simultaneously.

use super::iterated::IteratedController;
use crate::centralized::base::Attempt;
use crate::request::{Outcome, RequestKind};
use crate::ControllerError;
use dcn_tree::{DynamicTree, NodeId};

/// When an epoch of the adaptive controller ends and the bound `U` is
/// re-estimated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshPolicy {
    /// End the epoch after `U_i / 4` topological changes (Theorem 3.5, part 1).
    ChangesQuarterU,
    /// End the epoch when the node count reaches twice the maximum number of
    /// nodes alive before the epoch started (Theorem 3.5, part 2).
    SizeDoubling,
}

/// The adaptive centralized (M, W)-Controller for the case where no bound on
/// the number of nodes is known in advance (Theorem 3.5).
///
/// ```
/// use dcn_controller::centralized::{AdaptiveController, RefreshPolicy};
/// use dcn_controller::RequestKind;
/// use dcn_tree::DynamicTree;
///
/// # fn main() -> Result<(), dcn_controller::ControllerError> {
/// let tree = DynamicTree::with_initial_star(3);
/// let mut ctrl = AdaptiveController::new(tree, 100, 10, RefreshPolicy::ChangesQuarterU)?;
/// // Grow the network well past the initial size: the controller re-estimates
/// // U at every epoch boundary, so no a-priori bound is needed.
/// for _ in 0..50 {
///     let leaf = ctrl.tree().nodes().last().unwrap();
///     ctrl.submit(leaf, RequestKind::AddLeaf)?;
/// }
/// assert!(ctrl.epochs() > 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdaptiveController {
    inner: Option<IteratedController>,
    policy: RefreshPolicy,
    m_total: u64,
    w: u64,
    /// Permits granted in completed epochs.
    granted_previous_epochs: u64,
    /// Moves accumulated in completed epochs (incl. reset waves).
    moves_previous_epochs: u64,
    rejected: u64,
    epochs: u32,
    /// Epoch-local bookkeeping.
    epoch_u: u64,
    epoch_changes: u64,
    epoch_size_threshold: usize,
    exhausted: bool,
}

impl AdaptiveController {
    /// Creates an adaptive (m, w)-controller over `tree`. No bound on the
    /// number of nodes is required; `w = 0` is allowed.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerError::WasteExceedsBudget`] if `w > m`.
    pub fn new(
        tree: DynamicTree,
        m: u64,
        w: u64,
        policy: RefreshPolicy,
    ) -> Result<Self, ControllerError> {
        if w > m {
            return Err(ControllerError::WasteExceedsBudget { m, w });
        }
        let n0 = tree.node_count();
        let epoch_u = 2 * n0 as u64;
        let inner = IteratedController::new(tree, m, w, epoch_u as usize)?;
        Ok(AdaptiveController {
            inner: Some(inner),
            policy,
            m_total: m,
            w,
            granted_previous_epochs: 0,
            moves_previous_epochs: 0,
            rejected: 0,
            epochs: 1,
            epoch_u,
            epoch_changes: 0,
            epoch_size_threshold: 2 * n0,
            exhausted: false,
        })
    }

    #[expect(
        clippy::expect_used,
        reason = "the Option is None only inside maybe_refresh(), which restores it"
    )]
    fn inner(&self) -> &IteratedController {
        self.inner
            .as_ref()
            .expect("inner controller always present")
    }

    #[expect(
        clippy::expect_used,
        reason = "the Option is None only inside maybe_refresh(), which restores it"
    )]
    fn inner_mut(&mut self) -> &mut IteratedController {
        self.inner
            .as_mut()
            .expect("inner controller always present")
    }

    /// The spanning tree as currently maintained by the controller.
    pub fn tree(&self) -> &DynamicTree {
        self.inner().tree()
    }

    /// Total number of permits granted so far.
    pub fn granted(&self) -> u64 {
        self.granted_previous_epochs + self.inner().granted()
    }

    /// Total number of rejects issued so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total move complexity so far (all epochs, including reset waves).
    pub fn moves(&self) -> u64 {
        self.moves_previous_epochs + self.inner().moves()
    }

    /// Number of epochs started so far.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Returns `true` once the controller has started rejecting requests.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The permit budget `M` of the controller.
    pub fn budget(&self) -> u64 {
        self.m_total
    }

    /// The waste bound `W` of the controller.
    pub fn waste(&self) -> u64 {
        self.w
    }

    /// Submits a request at node `at`.
    ///
    /// # Errors
    ///
    /// Same as [`IteratedController::try_submit`].
    pub fn submit(&mut self, at: NodeId, kind: RequestKind) -> Result<Outcome, ControllerError> {
        if self.exhausted {
            self.rejected += 1;
            return Ok(Outcome::Rejected);
        }
        match self.inner_mut().try_submit(at, kind)? {
            Attempt::Granted { serial, new_node } => {
                if kind.is_topological() {
                    self.epoch_changes += 1;
                }
                self.maybe_refresh()?;
                Ok(Outcome::Granted { serial, new_node })
            }
            Attempt::Exhausted | Attempt::LocallyRejected => {
                // The whole budget is spent up to the waste bound; from now on
                // the adaptive controller rejects.
                self.exhausted = true;
                self.rejected += 1;
                Ok(Outcome::Rejected)
            }
        }
    }

    /// Ends the current epoch if the refresh policy says so, carrying the
    /// unspent budget into a fresh inner controller sized for the current
    /// network.
    fn maybe_refresh(&mut self) -> Result<(), ControllerError> {
        let due = match self.policy {
            RefreshPolicy::ChangesQuarterU => self.epoch_changes >= (self.epoch_u / 4).max(1),
            RefreshPolicy::SizeDoubling => {
                self.inner().tree().node_count() >= self.epoch_size_threshold
            }
        };
        if !due {
            return Ok(());
        }
        #[expect(
            clippy::expect_used,
            reason = "the only take() of the Option; a fresh controller is installed below"
        )]
        let inner = self.inner.take().expect("inner controller present");
        let granted_this_epoch = inner.granted();
        let moves_this_epoch = inner.moves();
        let m_next = self.m_total - self.granted_previous_epochs - granted_this_epoch;
        self.granted_previous_epochs += granted_this_epoch;
        self.moves_previous_epochs += moves_this_epoch;
        let tree = inner.into_tree();
        let n_next = tree.node_count();
        // Re-initialising the data structure costs a wave over the tree.
        self.moves_previous_epochs += n_next as u64;
        self.epoch_u = (2 * n_next as u64).max(2);
        self.epoch_changes = 0;
        self.epoch_size_threshold = (2 * n_next).max(2);
        self.epochs += 1;
        if m_next == 0 {
            // Nothing left to hand out: the next request will be rejected.
            self.exhausted = true;
        }
        let w_next = self.w.min(m_next);
        let inner = IteratedController::new(tree, m_next, w_next, self.epoch_u as usize)?;
        self.inner = Some(inner);
        Ok(())
    }
}
