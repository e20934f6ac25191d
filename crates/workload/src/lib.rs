//! # dcn-workload — workload, churn and topology generators
//!
//! The evaluation of the dynamic-network controller needs three ingredients
//! that the paper assumes but does not specify concretely:
//!
//! * **initial topologies** — the spanning tree the network starts from
//!   ([`TreeShape`] / [`build_tree`]);
//! * **churn models** — which topological changes are requested over time
//!   ([`ChurnModel`] / [`ChurnGenerator`]);
//! * **request placement** — where non-topological requests arrive
//!   ([`Placement`]).
//!
//! All generators are seeded and deterministic, produce *abstract* operations
//! ([`ChurnOp`]) that reference concrete nodes of the current tree, and are
//! consumed by the controller drivers and the benchmark harness. A complete
//! parameter set is captured by [`Scenario`], which is (de)serialisable so
//! experiments can be recorded and replayed.
//!
//! On top of the generators sits the [`ScenarioRunner`]: the single driver
//! loop that pushes a seeded scenario through **any** [`Controller`]
//! implementation — the paper's centralized and distributed controllers, the
//! baselines and the §5 applications — and returns a uniform [`RunReport`]
//! with per-request answer-latency percentiles, iteration and change counts,
//! and the invariant checks made at every quiescent point. Scenarios choose an
//! [`ArrivalMode`]: closed-loop batches, or open-loop *interleaved* arrivals
//! in which new requests are submitted through bounded
//! [`Controller::step`] slices while distributed agents are still in flight.
//!
//! Concrete controllers are built through the uniform [`ControllerSpec`]
//! factory ([`Family`] × `M` × `W` × sim-config), which replaces the
//! per-driver construction match arms. An application is a controller with
//! invariants, so a [`Family`] names the six §5 applications too
//! (`Family::App(`[`AppFamily`]`)`); [`family_factory`] adapts the spec to
//! the sweep engine's factory hook.
//!
//! Above the runner sits the [`SweepEngine`]: a declarative [`SweepGrid`]
//! (families + apps × shapes × churn × placement × arrivals × budgets ×
//! replicates) expanded into deterministically-seeded cells, executed over a
//! worker-thread pool, and aggregated into a [`SweepReport`] whose CSV/JSON
//! output is byte-identical regardless of the worker count.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod churn;
pub mod json;
mod placement;
mod runner;
mod scenario;
mod shape;
mod spec;
mod sweep;

pub use churn::{ChurnGenerator, ChurnModel, ChurnOp};
pub use json::quote as json_quote;
pub use placement::Placement;
pub use runner::{OpStream, RunReport, ScenarioRunner};
pub use scenario::{ArrivalMode, Scenario};
pub use shape::{build_tree, TreeShape};
pub use spec::{
    family_factory, parse_shard_family, shard_family_name, AppFamily, ControllerSpec, Family,
};
pub use sweep::{
    arrival_label, churn_label, placement_label, shape_label, CellReport, CellResult,
    ControllerFactory, FamilySummary, MwBudget, SweepCell, SweepEngine, SweepGrid, SweepReport,
};

pub use dcn_controller::InvariantError;
pub use dcn_controller::{
    Controller, ControllerEvent, Progress, RequestId, RequestKind, RequestRecord,
};
pub use dcn_tree::{DynamicTree, NodeId};
