//! # dcn-simnet — asynchronous network and mobile-agent simulator
//!
//! The distributed controller of Korman & Kutten (§4 of the paper) is written
//! in the *mobile agent* style of Korach–Kutten–Moran: a request arriving at a
//! node creates an agent that travels along the spanning tree (carried by
//! messages), reads and writes per-node *whiteboards*, locks and unlocks
//! nodes, and is queued FIFO at locked nodes. The underlying network is the
//! standard asynchronous point-to-point message passing model: every message
//! (every agent hop) suffers an arbitrary but finite delay.
//!
//! This crate provides that substrate as a deterministic discrete-event
//! simulator:
//!
//! * [`Simulator`] — the event engine, parameterised by a [`Protocol`] that
//!   supplies the whiteboard type, the agent state and the agent program;
//! * the *taxi* services of the paper (§4.3.2): `Up`, `Down`, `Distance`,
//!   per-node locks, FIFO agent queues and the "child I arrived from" pointer
//!   used to descend along a locked path — all exposed through [`NodeCtx`];
//! * *graceful* topological changes (§4.2): a granted change is scheduled via
//!   [`TopologyChange`] and is physically applied only when its target node is
//!   unlocked, has no queued agents and no in-flight messages, at which point
//!   whiteboard contents are merged into the parent; until then it waits on
//!   that node, and the activation that frees the node applies it. This is a
//!   concrete implementation of the handshake-style graceful-deletion
//!   protocols the paper leaves out of scope;
//! * message accounting and a seeded random delay model — the seed's one
//!   consumer — so that every experiment is reproducible and many
//!   asynchronous schedules can be explored by sweeping the seed. The
//!   adversary's port numbers (§2.1.2) are not stored: [`NodeCtx`] offers
//!   `parent()` / `children()` and no number, so no protocol can lean on one.
//!
//! The simulator is protocol-agnostic: the controller crate implements
//! [`Protocol`] for the (M, W)-controller, and the estimator crate reuses the
//! same machinery for the size-estimation / name-assignment protocols.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod config;
mod engine;
mod hot;
mod metrics;
mod protocol;
mod sim;
mod taxi;
mod topology;

pub use config::{DelayModel, SimConfig};
pub use metrics::Metrics;
pub use protocol::{Action, AgentId, NodeCtx, Protocol};
pub use sim::{SimError, Simulator};
pub use topology::TopologyChange;

pub use dcn_tree::{DynamicTree, NodeId, TreeError};
