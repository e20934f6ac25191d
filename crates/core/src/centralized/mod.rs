//! The centralized (sequential) controllers of §3.
//!
//! The centralized setting is the stepping stone towards the distributed
//! implementation: requests are handled one at a time, and the cost measure is
//! the **move complexity** — the total number of moves of sets of permits or
//! rejects between neighbouring nodes. This module contains:
//!
//! * [`CentralizedController`] — the fixed-bound base construction
//!   (`GrantOrReject` + `Proc`, §3.1), whose move complexity is
//!   `O(U · (M/W) · log² U)` (Lemma 3.3);
//! * [`IteratedController`] — the iteration trick of Observation 3.4 that
//!   improves the factor `M/W` to `log(M/(W+1))` and also handles `W = 0`,
//!   and with [`IteratedController::adaptive`] the unknown-`U` controllers
//!   of Theorem 3.5 (both [`RefreshPolicy`] values). It is the one iterated
//!   wrapper, [`Iterated`](crate::Iterated), over base-controller rounds;
//!   over distributed rounds the same wrapper is the
//!   [`AdaptiveDistributedController`](crate::distributed::AdaptiveDistributedController).

mod base;

pub use crate::iterated::{IteratedController, RefreshPolicy};
pub use base::CentralizedController;
