//! # dcn-server — the (M,W)-controller as an admission-control service
//!
//! Everything else in the workspace is a batch binary: build a controller,
//! drive a scenario, print a report. This crate puts the paper's controller
//! behind a long-running network front-end — the (M,W)-permit system as an
//! actual admission-control service, which is what it operationally *is*:
//! clients ask for permits, the controller grants or rejects them under the
//! global budget `M` with waste bound `W`.
//!
//! The ticketed runtime API (PR 3) maps 1:1 onto a service:
//!
//! | service verb | runtime call |
//! |---|---|
//! | accept a request | [`Controller::submit`](dcn_controller::Controller::submit) → ticket |
//! | make progress | [`Controller::step`](dcn_controller::Controller::step)`(budget)` |
//! | push outcomes | [`Controller::take_records`](dcn_controller::Controller::take_records) |
//!
//! Three layers, strictly separated:
//!
//! * [`protocol`] — the line-delimited JSON frame grammar (DESIGN.md §9),
//!   hardened against untrusted input via `dcn_workload::json`'s typed
//!   errors, depth limit and length cap;
//! * [`EngineCore`] — the deterministic single-writer protocol state
//!   machine: one controller, per-ticket routing, no sockets, no wall
//!   clock;
//! * transports — the real TCP server ([`serve`], threads + bounded mpsc
//!   channels) and the deterministic in-process [`Loopback`] used by the
//!   byte-identical protocol tests.
//!
//! Binary: `dcn-serve` (the server). Load comes from `benchmark/`'s client,
//! the repository's one load generator.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod engine;
mod loopback;
mod net;
pub mod protocol;

pub use engine::{ClientId, EngineCore, Outgoing, ServeConfig};
pub use loopback::Loopback;
pub use net::{serve, ServerHandle};
