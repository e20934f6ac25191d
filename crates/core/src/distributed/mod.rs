//! The distributed (mobile-agent) implementation of the controller (§4).
//!
//! The distributed controller runs on the asynchronous network simulator of
//! [`dcn_simnet`]: a request arriving at a node creates an agent that climbs
//! the spanning tree (locking every node on its way) until it finds a *filler
//! node* or the root, carries the package it found down the locked path,
//! depositing exactly as the centralized `Proc` does and releasing every node
//! as it leaves it, and answers the request at its origin: two walks of the
//! path, up and down. Concurrent requests are serialised by the locks and
//! FIFO queues, which is precisely the mechanism the paper uses to reduce the
//! distributed execution to a centralized one (Lemmas 4.2–4.5).
//!
//! The agent program as printed in §4.3.1 keeps the whole path locked until
//! the request is answered and then walks it twice more only to unlock. The
//! reduction needs less: an agent that never acquires a lock after it has
//! released one (two-phase locking — growing phase the climb, lock point the
//! filler node or the root, shrinking phase the descent) touches every
//! whiteboard under that node's lock, so any two agents' conflicting accesses
//! are ordered the same way at every node they share, and the execution is
//! equivalent to the centralized one that serves the requests in lock-point
//! order. The nodes below a descending agent stay locked until it passes
//! them, which is all the taxi's `Down`/`Distance` services and the graceful
//! topology gates rely on. DESIGN.md §6 ("Lock release") has the details.
//!
//! Past the fixed-`U` controller, [`IterationDriver`] is the one epoch
//! engine: a sequence of such controllers — or of the centralized ones of §3
//! — behind stable tickets, rotated at quiescent points by an
//! [`IterationPolicy`]. It has two kinds of users: the §5 applications of
//! `dcn-estimator`, and the one iterated wrapper,
//! [`Iterated`](crate::Iterated), whose schedule is the
//! [`AdaptiveDistributedController`] (Theorem 4.9 / Appendix A) over these
//! controllers and the
//! [`IteratedController`](crate::centralized::IteratedController)
//! (Observation 3.4 / Theorem 3.5) over the centralized ones.

mod agent;
mod driver;
mod epoch;
mod protocol;

pub use crate::iterated::AdaptiveDistributedController;
pub use agent::{CtrlAgent, RequestAgent};
pub use driver::DistributedController;
pub(crate) use epoch::{EpochShell, InnerController, Pending};
pub use epoch::{IterationDriver, IterationPlan, IterationPolicy};
pub use protocol::{ControllerProtocol, CtrlOutput, CtrlWhiteboard, PackageEvent};
