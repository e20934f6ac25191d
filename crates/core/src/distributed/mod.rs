//! The distributed (mobile-agent) implementation of the controller (§4).
//!
//! The distributed controller runs on the asynchronous network simulator of
//! [`dcn_simnet`]: a request arriving at a node creates an agent that climbs
//! the spanning tree (locking every node on its way) until it finds a *filler
//! node* or the root, distributes the package it found along the locked path
//! exactly as the centralized `Proc` does, answers the request, and walks the
//! path again to release the locks. Concurrent requests are serialised by the
//! locks and FIFO queues, which is precisely the mechanism the paper uses to
//! reduce the distributed execution to a centralized one (Lemmas 4.2–4.5).

mod agent;
mod driver;
mod epoch;
mod iterated;
mod protocol;

pub use agent::{CtrlAgent, RequestAgent};
pub use driver::DistributedController;
pub use epoch::{EpochShell, Pending};
pub use iterated::AdaptiveDistributedController;
pub use protocol::{ControllerProtocol, CtrlOutput, CtrlWhiteboard};
