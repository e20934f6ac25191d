//! [`ControllerSpec`]: the uniform factory for every controller family.
//!
//! A [`ControllerSpec`] captures the *family* plus the shared parameters
//! (budget `M`, waste bound `W`, simulator configuration for the
//! distributed families) and builds any of the twelve families — six
//! controllers and six §5 applications — behind a `Box<dyn Controller>`.
//!
//! The sweep engine's [`ControllerFactory`](crate::ControllerFactory) hook is
//! covered by [`family_factory`], which resolves a grid's family *string* —
//! a [`Family`] name or a sharded driver — and builds it over the cell's
//! scenario through the same spec.

use crate::runner::ScenarioRunner;
use crate::scenario::Scenario;
use dcn_baseline::{AapsController, TrivialController};
use dcn_controller::centralized::{CentralizedController, IteratedController};
use dcn_controller::distributed::{AdaptiveDistributedController, DistributedController};
use dcn_controller::{Controller, ControllerError, ShardedController};
use dcn_estimator::{
    AncestryLabeling, HeavyChildDecomposition, MajorityCommitment, NameAssigner, SizeEstimator,
    SubtreeEstimator,
};
use dcn_simnet::SimConfig;
use dcn_tree::DynamicTree;

/// The families the workspace can build and compare: six controllers and,
/// under [`Family::App`], the six §5 applications. All of them implement the
/// shared [`Controller`] trait, so every driver exercises them through the
/// same ticket/event code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The fixed-bound centralized controller of §3.1 (requires `W ≥ 1`).
    Centralized,
    /// The iterated centralized controller of Observation 3.4 (`W = 0` ok).
    Iterated,
    /// The distributed mobile-agent controller of §4 on the simulator.
    Distributed,
    /// The adaptive distributed controller of Theorem 4.9 / Appendix A: no
    /// a-priori bound on the number of nodes, epochs plus permit recycling.
    AdaptiveDistributed,
    /// The trivial every-request-walks-to-the-root strawman.
    Trivial,
    /// The AAPS-style bin-hierarchy baseline (grow-only dynamic model).
    Aaps,
    /// A §5 application: a controller with invariants, which sizes every
    /// iteration from the live network and so uses neither `M`, `W` nor `U`.
    App(AppFamily),
}

impl Family {
    /// The six controller families, in comparison order (the applications
    /// are [`AppFamily::ALL`]).
    pub const ALL: [Family; 6] = [
        Family::Centralized,
        Family::Iterated,
        Family::Distributed,
        Family::AdaptiveDistributed,
        Family::Trivial,
        Family::Aaps,
    ];

    /// The family's display name (matches [`Controller::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Family::Centralized => "centralized",
            Family::Iterated => "iterated",
            Family::Distributed => "distributed",
            Family::AdaptiveDistributed => "adaptive-distributed",
            Family::Trivial => "trivial",
            Family::Aaps => "aaps",
            Family::App(app) => app.name(),
        }
    }

    /// The family for any of the twelve display names (the inverse of
    /// [`Family::name`]; used to resolve the family strings of a
    /// [`SweepGrid`](crate::SweepGrid) and `dcn-serve --family`).
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .or_else(|| AppFamily::from_name(name).map(Family::App))
    }
}

/// The §5 application families the workspace can build and sweep. Each is
/// a [`Controller`] with invariants, so every driver exercises them through
/// the same ticket/event code path as the controller families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppFamily {
    /// The β-size-estimation protocol (Theorem 5.1).
    SizeEstimator,
    /// The name-assignment protocol (Theorem 5.2).
    NameAssigner,
    /// The subtree / super-weight estimator (Lemma 5.3).
    SubtreeEstimator,
    /// The heavy-child decomposition (Theorem 5.4).
    HeavyChild,
    /// The dynamic ancestry labeling (Corollary 5.7).
    AncestryLabeling,
    /// Majority commitment over a churning network (§1.3, §1.4).
    MajorityCommitment,
}

impl AppFamily {
    /// All six applications, in paper order.
    pub const ALL: [AppFamily; 6] = [
        AppFamily::SizeEstimator,
        AppFamily::NameAssigner,
        AppFamily::SubtreeEstimator,
        AppFamily::HeavyChild,
        AppFamily::AncestryLabeling,
        AppFamily::MajorityCommitment,
    ];

    /// The application's display name (matches [`Controller::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AppFamily::SizeEstimator => "size-estimator",
            AppFamily::NameAssigner => "name-assigner",
            AppFamily::SubtreeEstimator => "subtree-estimator",
            AppFamily::HeavyChild => "heavy-child",
            AppFamily::AncestryLabeling => "ancestry-labeling",
            AppFamily::MajorityCommitment => "majority-commitment",
        }
    }

    /// The family for a display name (the inverse of [`AppFamily::name`];
    /// a sweep cell whose name resolves here is an application cell).
    pub fn from_name(name: &str) -> Option<AppFamily> {
        AppFamily::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// A complete recipe for one controller: family × `M` × `W` × simulator
/// configuration. Build it over any tree with [`ControllerSpec::build`], or
/// over a scenario's initial tree with [`ControllerSpec::build_for`].
///
/// ```
/// use dcn_workload::{ControllerSpec, Family, Scenario, ScenarioRunner};
///
/// let scenario = Scenario::smoke();
/// let runner = ScenarioRunner::new(scenario.clone());
/// for family in Family::ALL {
///     let mut ctrl = ControllerSpec::for_scenario(family, &scenario)
///         .build_for(&runner)
///         .unwrap();
///     let report = runner.run(ctrl.as_mut()).unwrap();
///     assert_eq!(report.controller, family.name());
///     report.check().unwrap();
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerSpec {
    /// Which controller family to build.
    pub family: Family,
    /// The permit budget `M` (ignored by the applications).
    pub m: u64,
    /// The waste bound `W` (ignored by the applications and by the trivial
    /// family, whose root always knows the exact remaining budget).
    pub w: u64,
    /// Simulator configuration (seed, delay model, event budget) for the
    /// distributed families and the applications; ignored by the
    /// synchronous ones.
    pub sim: SimConfig,
}

impl ControllerSpec {
    /// The spec matching a scenario's budget, waste bound and seed (the
    /// simulator is seeded with the scenario seed so distributed delay
    /// schedules replay with the workload).
    pub fn for_scenario(family: Family, scenario: &Scenario) -> Self {
        ControllerSpec {
            family,
            m: scenario.m,
            w: scenario.w,
            sim: SimConfig::new(scenario.seed),
        }
    }

    /// Builds the controller over `tree` with node bound `u_bound`.
    ///
    /// An application is built over `tree` with the simulator `sim` alone.
    /// The families that take an approximation factor (size estimation,
    /// subtree estimation, majority commitment) get `β = 2`; the
    /// heavy-child decomposition fixes `β = √3` and the name assigner and
    /// ancestry labeling fix their own factors, as the paper prescribes.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors (e.g. `W = 0` for families that
    /// require `W ≥ 1`, or a bound below the current node count).
    pub fn build(
        &self,
        tree: DynamicTree,
        u_bound: usize,
    ) -> Result<Box<dyn Controller>, ControllerError> {
        Ok(match self.family {
            Family::Centralized => {
                Box::new(CentralizedController::new(tree, self.m, self.w, u_bound)?)
            }
            Family::Iterated => Box::new(IteratedController::new(tree, self.m, self.w, u_bound)?),
            Family::Distributed => Box::new(DistributedController::new(
                self.sim, tree, self.m, self.w, u_bound,
            )?),
            Family::AdaptiveDistributed => Box::new(AdaptiveDistributedController::new(
                self.sim, tree, self.m, self.w,
            )?),
            Family::Trivial => Box::new(TrivialController::new(tree, self.m)),
            Family::Aaps => Box::new(AapsController::new(tree, self.m, self.w, u_bound)?),
            Family::App(AppFamily::SizeEstimator) => {
                Box::new(SizeEstimator::new(self.sim, tree, 2.0)?)
            }
            Family::App(AppFamily::NameAssigner) => Box::new(NameAssigner::new(self.sim, tree)?),
            Family::App(AppFamily::SubtreeEstimator) => {
                Box::new(SubtreeEstimator::new(self.sim, tree, 2.0)?)
            }
            Family::App(AppFamily::HeavyChild) => {
                Box::new(HeavyChildDecomposition::new(self.sim, tree)?)
            }
            Family::App(AppFamily::AncestryLabeling) => {
                Box::new(AncestryLabeling::new(self.sim, tree)?)
            }
            Family::App(AppFamily::MajorityCommitment) => {
                Box::new(MajorityCommitment::new(self.sim, tree, 2.0)?)
            }
        })
    }

    /// Builds the controller over a runner's initial tree, sized with the
    /// runner's suggested node bound.
    ///
    /// # Errors
    ///
    /// Same as [`ControllerSpec::build`].
    pub fn build_for(
        &self,
        runner: &ScenarioRunner,
    ) -> Result<Box<dyn Controller>, ControllerError> {
        self.build(runner.initial_tree(), runner.suggested_u_bound())
    }
}

/// The [`ControllerFactory`](crate::ControllerFactory) covering every family:
/// resolves a [`SweepGrid`](crate::SweepGrid) family or shard string and
/// builds the controller over the cell's scenario with
/// [`ControllerSpec::for_scenario`]. One shard is the distributed family
/// itself, so `sharded:k1` builds a
/// [`DistributedController`](dcn_controller::distributed::DistributedController).
///
/// ```
/// use dcn_workload::{family_factory, AppFamily, Family, Scenario, ScenarioRunner};
///
/// let scenario = Scenario::smoke();
/// let runner = ScenarioRunner::new(scenario.clone());
/// let families = Family::ALL.map(|f| f.name());
/// for name in families.into_iter().chain(AppFamily::ALL.map(|a| a.name())) {
///     let mut ctrl = family_factory(name, &scenario).unwrap();
///     let report = runner.run(ctrl.as_mut()).unwrap();
///     assert_eq!(report.controller, name);
///     assert_eq!(report.invariant_violations, 0);
///     report.check().unwrap();
/// }
/// ```
///
/// # Errors
///
/// Returns a description for unknown family names and invalid parameter
/// combinations (reported per cell by the engine, never propagated).
pub fn family_factory(family: &str, scenario: &Scenario) -> Result<Box<dyn Controller>, String> {
    let runner = ScenarioRunner::new(scenario.clone());
    let family = match parse_shard_family(family) {
        Some(1) => Family::Distributed,
        Some(k) => {
            return ShardedController::new(
                SimConfig::new(scenario.seed),
                runner.initial_tree(),
                scenario.m,
                scenario.w,
                runner.suggested_u_bound(),
                k,
            )
            .map(|c| Box::new(c) as Box<dyn Controller>)
            .map_err(|e| e.to_string());
        }
        None => Family::from_name(family).ok_or_else(|| format!("unknown family {family:?}"))?,
    };
    ControllerSpec::for_scenario(family, scenario)
        .build_for(&runner)
        .map_err(|e| e.to_string())
}

/// Parses a sharded-controller driver name of the form `sharded:k<N>`
/// (e.g. `sharded:k4`), as produced by the sweep grid's `shards` axis.
/// Returns the shard count, or `None` when `family` is not a sharded name.
pub fn parse_shard_family(family: &str) -> Option<usize> {
    family.strip_prefix("sharded:k")?.parse().ok()
}

/// Formats the sharded-controller driver name for a shard count (the inverse
/// of [`parse_shard_family`]).
pub fn shard_family_name(k: usize) -> String {
    format!("sharded:k{k}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

    /// The twelve families: the six controllers, then the six applications.
    fn every_family() -> impl Iterator<Item = Family> {
        Family::ALL
            .into_iter()
            .chain(AppFamily::ALL.map(Family::App))
    }

    #[test]
    fn family_names_round_trip() {
        for family in every_family() {
            assert_eq!(Family::from_name(family.name()), Some(family));
        }
        assert_eq!(Family::from_name("bogus"), None);
    }

    #[test]
    fn every_family_builds_and_reports_its_own_name() {
        let scenario = Scenario::smoke();
        let runner = ScenarioRunner::new(scenario.clone());
        for family in every_family() {
            let ctrl = ControllerSpec::for_scenario(family, &scenario)
                .build_for(&runner)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(ctrl.name(), family.name());
            // An application has no run-wide budget.
            let budget = match family {
                Family::App(_) => u64::MAX,
                _ => scenario.m,
            };
            assert_eq!(ctrl.budget(), budget, "{}", family.name());
            assert!(ctrl.tree().node_count() > 0);
            ctrl.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    fn built_controllers_answer_tickets_uniformly() {
        let scenario = Scenario::smoke();
        let runner = ScenarioRunner::new(scenario.clone());
        for family in every_family() {
            let mut ctrl = ControllerSpec::for_scenario(family, &scenario)
                .build_for(&runner)
                .unwrap();
            let at = ctrl.tree().root();
            let id = ctrl.submit(at, RequestKind::AddLeaf).unwrap();
            ctrl.run_to_quiescence().unwrap();
            let answers = ctrl.take_records();
            assert!(
                answers.len() == 1 && answers[0].id == id && answers[0].outcome.is_granted(),
                "{}: {answers:?}",
                family.name()
            );
            ctrl.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    fn a_served_tree_holds_no_history() {
        // No family reads the tree's events, so none pays for a log: the
        // churn batch changes the tree and leaves nothing behind but it.
        let scenario = Scenario::smoke();
        let runner = ScenarioRunner::new(scenario.clone());
        let built = runner.initial_tree().changes();
        for family in Family::ALL {
            let mut ctrl = ControllerSpec::for_scenario(family, &scenario)
                .build_for(&runner)
                .unwrap();
            runner.run(ctrl.as_mut()).unwrap();
            assert!(ctrl.tree().changes() > built, "{}", family.name());
            assert!(ctrl.tree().change_log().is_empty(), "{}", family.name());
        }
    }

    #[test]
    fn app_names_round_trip() {
        for family in AppFamily::ALL {
            assert_eq!(AppFamily::from_name(family.name()), Some(family));
        }
        assert_eq!(AppFamily::from_name("bogus"), None);
    }

    #[test]
    fn every_app_builds_and_reports_its_own_name() {
        let scenario = Scenario::smoke();
        for family in AppFamily::ALL {
            let app = family_factory(family.name(), &scenario)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(app.name(), family.name());
            assert!(app.tree().node_count() > 0);
            app.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    fn built_apps_answer_tickets_uniformly() {
        let scenario = Scenario::smoke();
        for family in AppFamily::ALL {
            let mut app = family_factory(family.name(), &scenario).unwrap();
            let at = app.tree().root();
            let id = app.submit(at, RequestKind::AddLeaf).unwrap();
            app.run_to_quiescence().unwrap();
            let answers: Vec<_> = app.take_records().iter().map(|r| r.id).collect();
            assert_eq!(answers, [id], "{}", family.name());
            app.check_invariants().unwrap();
        }
    }

    #[test]
    fn every_app_runs_through_the_one_runner_entry() {
        let scenario = Scenario::smoke();
        let runner = ScenarioRunner::new(scenario.clone());
        for family in AppFamily::ALL {
            let mut app: Box<dyn Controller> = family_factory(family.name(), &scenario).unwrap();
            assert_eq!(app.name(), family.name());
            let report = runner.run(app.as_mut()).unwrap();
            assert!(report.iterations >= 1, "{}", family.name());
            assert!(report.invariant_checks > 0, "{}", family.name());
            report
                .check()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }

    #[test]
    fn factory_rejects_unknown_apps_with_a_description() {
        let err = family_factory("martian-estimator", &Scenario::smoke())
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("martian-estimator"));
    }

    #[test]
    fn factory_rejects_unknown_families_with_a_description() {
        let err = family_factory("martian", &Scenario::smoke())
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("martian"));
    }

    #[test]
    fn factory_builds_sharded_controllers_from_axis_names() {
        let scenario = Scenario::smoke();
        for (k, family) in [(1usize, "distributed"), (2, "sharded"), (4, "sharded")] {
            let name = shard_family_name(k);
            let mut ctrl =
                family_factory(&name, &scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(ctrl.name(), family);
            let at = ctrl.tree().root();
            let id = ctrl.submit(at, RequestKind::NonTopological).unwrap();
            ctrl.run_to_quiescence().unwrap();
            let answer = ctrl.records()[0];
            assert!(answer.id == id && answer.outcome.is_granted(), "{name}");
        }
    }

    #[test]
    fn factory_rejects_malformed_shard_names() {
        for name in ["sharded:k0", "sharded:kX", "sharded:", "sharded:k-1"] {
            assert!(family_factory(name, &Scenario::smoke()).is_err(), "{name}");
        }
        assert_eq!(parse_shard_family("sharded:k16"), Some(16));
        assert_eq!(parse_shard_family("distributed"), None);
    }
}
