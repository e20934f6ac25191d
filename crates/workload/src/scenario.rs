//! Serialisable experiment scenarios.

use crate::churn::ChurnModel;
use crate::json::{self, Value};
use crate::placement::Placement;
use crate::shape::TreeShape;

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
///     name: "quarter-churn".to_string(),
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
/// let back = Scenario::from_json(&json).unwrap();
/// assert_eq!(back, scenario);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Human-readable name (used in experiment output rows).
    pub name: String,
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
            name: "smoke".to_string(),
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

    /// Parses a scenario previously produced by [`Scenario::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let v = json::parse(input)?;
        Ok(Scenario {
            name: v.get("name")?.as_str()?.to_string(),
            shape: shape_from_json(v.get("shape")?)?,
            churn: churn_from_json(v.get("churn")?)?,
            placement: placement_from_json(v.get("placement")?)?,
            // Scenarios recorded before the ticket/event redesign have no
            // arrival field; they replay in the original closed-loop mode.
            arrival: match v.get("arrival") {
                Ok(a) => arrival_from_json(a)?,
                Err(_) => ArrivalMode::Batch,
            },
            requests: v.get("requests")?.as_usize()?,
            m: v.get("m")?.as_u64()?,
            w: v.get("w")?.as_u64()?,
            seed: v.get("seed")?.as_u64()?,
        })
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

fn shape_from_json(v: &Value) -> Result<TreeShape, String> {
    match v.get("type")?.as_str()? {
        "path" => Ok(TreeShape::Path {
            nodes: v.get("nodes")?.as_usize()?,
        }),
        "star" => Ok(TreeShape::Star {
            nodes: v.get("nodes")?.as_usize()?,
        }),
        "balanced" => Ok(TreeShape::Balanced {
            nodes: v.get("nodes")?.as_usize()?,
            arity: v.get("arity")?.as_usize()?,
        }),
        "random-recursive" => Ok(TreeShape::RandomRecursive {
            nodes: v.get("nodes")?.as_usize()?,
            seed: v.get("seed")?.as_u64()?,
        }),
        "caterpillar" => Ok(TreeShape::Caterpillar {
            spine: v.get("spine")?.as_usize()?,
            legs: v.get("legs")?.as_usize()?,
        }),
        "preferential-attachment" => Ok(TreeShape::PreferentialAttachment {
            nodes: v.get("nodes")?.as_usize()?,
            seed: v.get("seed")?.as_u64()?,
        }),
        "spider" => Ok(TreeShape::Spider {
            legs: v.get("legs")?.as_usize()?,
            leg_length: v.get("leg_length")?.as_usize()?,
        }),
        other => Err(format!("unknown tree shape {other:?}")),
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

fn churn_from_json(v: &Value) -> Result<ChurnModel, String> {
    match v.get("type")?.as_str()? {
        "grow-only" => Ok(ChurnModel::GrowOnly),
        "events-only" => Ok(ChurnModel::EventsOnly),
        "leaf-churn" => Ok(ChurnModel::LeafChurn {
            insert_percent: v.get("insert_percent")?.as_u8()?,
        }),
        "full-churn" => Ok(ChurnModel::FullChurn {
            add_leaf: v.get("add_leaf")?.as_u8()?,
            add_internal: v.get("add_internal")?.as_u8()?,
            remove: v.get("remove")?.as_u8()?,
        }),
        "bursty-deep-leaf" => Ok(ChurnModel::BurstyDeepLeaf {
            burst: v.get("burst")?.as_u8()?,
        }),
        other => Err(format!("unknown churn model {other:?}")),
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

fn arrival_from_json(v: &Value) -> Result<ArrivalMode, String> {
    match v.get("type")?.as_str()? {
        "batch" => Ok(ArrivalMode::Batch),
        "interleaved" => Ok(ArrivalMode::Interleaved {
            quantum: v.get("quantum")?.as_u64()?,
        }),
        other => Err(format!("unknown arrival mode {other:?}")),
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

fn placement_from_json(v: &Value) -> Result<Placement, String> {
    match v.get("type")?.as_str()? {
        "uniform" => Ok(Placement::Uniform),
        "deepest" => Ok(Placement::Deepest),
        "leaves" => Ok(Placement::Leaves),
        "skewed" => Ok(Placement::Skewed {
            hot_set: v.get("hot_set")?.as_usize()?,
            hot_percent: v.get("hot_percent")?.as_u8()?,
        }),
        other => Err(format!("unknown placement {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_round_trip_through_json() {
        let s = Scenario::smoke();
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back, s);
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
        for &shape in &shapes {
            for &churn in &churns {
                for &placement in &placements {
                    for &arrival in &arrivals {
                        let s = Scenario {
                            name: "sweep \"quoted\"".to_string(),
                            shape,
                            churn,
                            placement,
                            arrival,
                            requests: 10,
                            m: 20,
                            w: 5,
                            seed: 3,
                        };
                        let back = Scenario::from_json(&s.to_json()).unwrap();
                        assert_eq!(back, s);
                    }
                }
            }
        }
    }

    #[test]
    fn scenarios_recorded_before_the_arrival_field_replay_in_batch_mode() {
        // A pre-redesign recording has no "arrival" key.
        let legacy = Scenario::smoke()
            .to_json()
            .replace(r#""arrival": {"type": "batch"}, "#, "");
        assert!(!legacy.contains("arrival"));
        let back = Scenario::from_json(&legacy).unwrap();
        assert_eq!(back.arrival, ArrivalMode::Batch);
    }

    #[test]
    fn malformed_scenarios_are_rejected() {
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("not json").is_err());
        let bad_shape = Scenario::smoke().to_json().replace("star", "blob");
        assert!(Scenario::from_json(&bad_shape).is_err());
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
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.seed, s.seed);
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
