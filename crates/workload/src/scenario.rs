//! Serialisable experiment scenarios.

use crate::churn::ChurnModel;
use crate::json;
use crate::placement::Placement;
use crate::shape::TreeShape;
use std::sync::Arc;

/// When execution advances relative to request arrivals.
///
/// The paper's (M, W)-Controller is an *online* object: requests arrive at
/// arbitrary nodes at arbitrary times, including while earlier requests are
/// still being served. The arrival mode controls how faithfully a scenario
/// reproduces that:
///
/// * [`ArrivalMode::Batch`] is the closed-loop schedule (submit a batch, run
///   to quiescence, repeat) every driver used before the ticket/event API;
/// * [`ArrivalMode::Interleaved`] is the open-loop schedule: after each batch
///   only a bounded [`Controller::step`](dcn_controller::Controller::step)
///   slice runs, so the next batch arrives while the distributed family's
///   agents are still in flight. Synchronous families answer inside `submit`
///   and behave identically in both modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Closed-loop: run to quiescence between request batches.
    #[default]
    Batch,
    /// Open-loop: advance execution by at most `quantum` simulator events
    /// between batches, then run to quiescence once all requests are in.
    Interleaved {
        /// Simulator-event budget granted between consecutive batches.
        quantum: u64,
    },
}

impl ArrivalMode {
    /// Returns `true` for the open-loop (mid-flight submission) mode.
    pub fn is_interleaved(&self) -> bool {
        matches!(self, ArrivalMode::Interleaved { .. })
    }
}

/// A complete, reproducible description of one experiment run: the initial
/// topology, the churn model, the request placement, the controller
/// parameters and the random seed.
///
/// Scenarios serialise to JSON (via the dependency-free encoder in this
/// crate) so that the benchmark harness can record exactly what was measured
/// (see EXPERIMENTS.md).
///
/// ```
/// use dcn_workload::{ArrivalMode, ChurnModel, Placement, Scenario, TreeShape};
///
/// let scenario = Scenario {
///     name: "quarter-churn".into(),
///     shape: TreeShape::Balanced { nodes: 255, arity: 2 },
///     churn: ChurnModel::default_mixed(),
///     placement: Placement::Uniform,
///     arrival: ArrivalMode::Interleaved { quantum: 48 },
///     requests: 1_000,
///     m: 1_000,
///     w: 100,
///     seed: 7,
/// };
/// let json = scenario.to_json();
/// assert!(json.starts_with(r#"{"name": "quarter-churn", "shape": {"type": "balanced""#));
/// assert!(json.ends_with(r#""requests": 1000, "m": 1000, "w": 100, "seed": 7}"#));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Human-readable name (used in experiment output rows), shared by
    /// every clone: a sweep's cells at one scenario point hold one copy.
    pub name: Arc<str>,
    /// Initial tree shape.
    pub shape: TreeShape,
    /// Churn model for topological requests.
    pub churn: ChurnModel,
    /// Placement of non-topological requests.
    pub placement: Placement,
    /// How request arrivals interleave with execution.
    pub arrival: ArrivalMode,
    /// Total number of requests to submit.
    pub requests: usize,
    /// Permit budget `M`.
    pub m: u64,
    /// Waste bound `W`.
    pub w: u64,
    /// Random seed (workload and network delays).
    pub seed: u64,
}

impl Scenario {
    /// A small smoke-test scenario, handy as a starting point.
    pub fn smoke() -> Self {
        Scenario {
            name: "smoke".into(),
            shape: TreeShape::Star { nodes: 31 },
            churn: ChurnModel::default_mixed(),
            placement: Placement::Uniform,
            arrival: ArrivalMode::Batch,
            requests: 64,
            m: 64,
            w: 16,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed (for seed sweeps over one
    /// otherwise fixed scenario).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Serialises the scenario to a single-line JSON document.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"name": {}, "shape": {}, "churn": {}, "placement": {}, "arrival": {}, "requests": {}, "m": {}, "w": {}, "seed": {}}}"#,
            json::quote(&self.name),
            shape_to_json(self.shape),
            churn_to_json(self.churn),
            placement_to_json(self.placement),
            arrival_to_json(self.arrival),
            self.requests,
            self.m,
            self.w,
            self.seed,
        )
    }
}

fn shape_to_json(shape: TreeShape) -> String {
    match shape {
        TreeShape::Path { nodes } => format!(r#"{{"type": "path", "nodes": {nodes}}}"#),
        TreeShape::Star { nodes } => format!(r#"{{"type": "star", "nodes": {nodes}}}"#),
        TreeShape::Balanced { nodes, arity } => {
            format!(r#"{{"type": "balanced", "nodes": {nodes}, "arity": {arity}}}"#)
        }
        TreeShape::RandomRecursive { nodes, seed } => {
            format!(r#"{{"type": "random-recursive", "nodes": {nodes}, "seed": {seed}}}"#)
        }
        TreeShape::Caterpillar { spine, legs } => {
            format!(r#"{{"type": "caterpillar", "spine": {spine}, "legs": {legs}}}"#)
        }
        TreeShape::PreferentialAttachment { nodes, seed } => {
            format!(r#"{{"type": "preferential-attachment", "nodes": {nodes}, "seed": {seed}}}"#)
        }
        TreeShape::Spider { legs, leg_length } => {
            format!(r#"{{"type": "spider", "legs": {legs}, "leg_length": {leg_length}}}"#)
        }
    }
}

fn churn_to_json(churn: ChurnModel) -> String {
    match churn {
        ChurnModel::GrowOnly => r#"{"type": "grow-only"}"#.to_string(),
        ChurnModel::EventsOnly => r#"{"type": "events-only"}"#.to_string(),
        ChurnModel::LeafChurn { insert_percent } => {
            format!(r#"{{"type": "leaf-churn", "insert_percent": {insert_percent}}}"#)
        }
        ChurnModel::FullChurn {
            add_leaf,
            add_internal,
            remove,
        } => format!(
            r#"{{"type": "full-churn", "add_leaf": {add_leaf}, "add_internal": {add_internal}, "remove": {remove}}}"#
        ),
        ChurnModel::BurstyDeepLeaf { burst } => {
            format!(r#"{{"type": "bursty-deep-leaf", "burst": {burst}}}"#)
        }
    }
}

fn arrival_to_json(arrival: ArrivalMode) -> String {
    match arrival {
        ArrivalMode::Batch => r#"{"type": "batch"}"#.to_string(),
        ArrivalMode::Interleaved { quantum } => {
            format!(r#"{{"type": "interleaved", "quantum": {quantum}}}"#)
        }
    }
}

fn placement_to_json(placement: Placement) -> String {
    match placement {
        Placement::Uniform => r#"{"type": "uniform"}"#.to_string(),
        Placement::Deepest => r#"{"type": "deepest"}"#.to_string(),
        Placement::Leaves => r#"{"type": "leaves"}"#.to_string(),
        Placement::Skewed {
            hot_set,
            hot_percent,
        } => format!(r#"{{"type": "skewed", "hot_set": {hot_set}, "hot_percent": {hot_percent}}}"#),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Parses `s.to_json()` back with the crate's JSON reader and checks
    /// that every scalar field reads back as the scenario holds it and that
    /// each nested model is an object tagged with its variant. Returns the
    /// document.
    fn read_back(s: &Scenario) -> String {
        let json = s.to_json();
        let v = json::parse(&json).unwrap();
        assert_eq!(v.get("name").unwrap().as_str().unwrap(), &*s.name);
        assert_eq!(
            v.get("requests").unwrap().as_u64().unwrap(),
            s.requests as u64
        );
        assert_eq!(v.get("m").unwrap().as_u64().unwrap(), s.m);
        assert_eq!(v.get("w").unwrap().as_u64().unwrap(), s.w);
        assert_eq!(v.get("seed").unwrap().as_u64().unwrap(), s.seed);
        for model in ["shape", "churn", "placement", "arrival"] {
            let tag = v.get(model).unwrap().get("type").unwrap();
            assert!(!tag.as_str().unwrap().is_empty(), "{model} has no tag");
        }
        json
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        let s = Scenario::smoke();
        let json = read_back(&s);
        assert_ne!(json, s.clone().with_seed(s.seed + 1).to_json());
    }

    #[test]
    fn every_shape_churn_and_placement_variant_round_trips() {
        let shapes = [
            TreeShape::Path { nodes: 5 },
            TreeShape::Star { nodes: 6 },
            TreeShape::Balanced { nodes: 7, arity: 3 },
            TreeShape::RandomRecursive { nodes: 8, seed: 9 },
            TreeShape::Caterpillar { spine: 2, legs: 3 },
            TreeShape::PreferentialAttachment { nodes: 9, seed: 2 },
            TreeShape::Spider {
                legs: 2,
                leg_length: 4,
            },
        ];
        let churns = [
            ChurnModel::GrowOnly,
            ChurnModel::EventsOnly,
            ChurnModel::LeafChurn { insert_percent: 70 },
            ChurnModel::default_mixed(),
            ChurnModel::BurstyDeepLeaf { burst: 6 },
        ];
        let placements = [
            Placement::Uniform,
            Placement::Deepest,
            Placement::Leaves,
            Placement::Skewed {
                hot_set: 4,
                hot_percent: 80,
            },
        ];
        let arrivals = [ArrivalMode::Batch, ArrivalMode::Interleaved { quantum: 16 }];
        let mut documents = BTreeSet::new();
        for &shape in &shapes {
            for &churn in &churns {
                for &placement in &placements {
                    for &arrival in &arrivals {
                        let s = Scenario {
                            name: "sweep \"quoted\"".into(),
                            shape,
                            churn,
                            placement,
                            arrival,
                            requests: 10,
                            m: 20,
                            w: 5,
                            seed: 3,
                        };
                        // Distinct scenarios give distinct documents.
                        assert!(documents.insert(read_back(&s)));
                    }
                }
            }
        }
    }

    #[test]
    fn smoke_scenario_is_consistent() {
        let s = Scenario::smoke();
        assert!(s.w <= s.m);
        assert!(s.requests > 0);
    }

    #[test]
    fn seeds_above_f64_precision_replay_exactly() {
        let s = Scenario::smoke().with_seed((1 << 53) + 1);
        let json = read_back(&s);
        assert!(json.contains(r#""seed": 9007199254740993"#));
    }

    #[test]
    fn with_seed_only_changes_the_seed() {
        let s = Scenario::smoke();
        let t = s.clone().with_seed(99);
        assert_eq!(t.seed, 99);
        assert_eq!(t.name, s.name);
        assert_eq!(t.shape, s.shape);
    }
}
