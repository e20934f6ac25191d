//! [`AppSpec`]: the uniform factory for every §5 application, parallel to
//! [`ControllerSpec`](crate::ControllerSpec).
//!
//! Before this module, every driver that needed a §5 application — the F1–F3
//! experiment binaries, the examples — constructed it by hand and drove it
//! through a bespoke batch loop. An [`AppSpec`] captures the *application
//! family* plus the shared parameters (approximation factor β where the
//! family takes one, simulator configuration) and builds any of the six
//! applications behind a `Box<dyn Application>`, so the scenario runner
//! ([`ScenarioRunner::run_app`](crate::ScenarioRunner::run_app)) and the
//! sweep engine's apps axis drive them all through the ticketed
//! submit/step/records seam.

use crate::runner::ScenarioRunner;
use crate::scenario::Scenario;
use dcn_controller::ControllerError;
use dcn_estimator::{
    AncestryLabeling, Application, HeavyChildDecomposition, MajorityCommitment, NameAssigner,
    SizeEstimator, SubtreeEstimator,
};
use dcn_simnet::SimConfig;
use dcn_tree::DynamicTree;

/// The §5 application families the workspace can build and sweep. All of
/// them implement the shared [`Application`] trait, so every driver exercises
/// them through the same ticket/event code path the controllers use.
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

    /// The application's display name (matches [`Application::name`]).
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
    /// used to resolve the app strings of a [`SweepGrid`](crate::SweepGrid)'s
    /// apps axis).
    pub fn from_name(name: &str) -> Option<AppFamily> {
        AppFamily::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// A complete recipe for one §5 application: family × β × simulator
/// configuration. Build it over any tree with [`AppSpec::build`], or over a
/// scenario's initial tree with [`AppSpec::build_for`].
///
/// ```
/// use dcn_workload::{AppFamily, AppSpec, Scenario, ScenarioRunner};
///
/// let scenario = Scenario::smoke();
/// let runner = ScenarioRunner::new(scenario.clone());
/// for family in AppFamily::ALL {
///     let mut app = AppSpec::for_scenario(family, &scenario)
///         .build_for(&runner)
///         .unwrap();
///     let report = runner.run_app(app.as_mut()).unwrap();
///     assert_eq!(report.app, family.name());
///     assert_eq!(report.invariant_violations, 0);
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppSpec {
    /// Which application family to build.
    pub family: AppFamily,
    /// The approximation factor β for the families that take one (size
    /// estimation, subtree estimation, majority commitment); the heavy-child
    /// decomposition fixes `β = √3` and the name assigner / ancestry
    /// labeling fix their own factors, as the paper prescribes.
    pub beta: f64,
    /// Simulator configuration (seed, delay model, event budget) for the
    /// inner distributed controllers.
    pub sim: SimConfig,
}

impl AppSpec {
    /// A spec with the default `β = 2` and a default simulator configuration
    /// (seed 0).
    pub fn new(family: AppFamily) -> Self {
        AppSpec {
            family,
            beta: 2.0,
            sim: SimConfig::new(0),
        }
    }

    /// Replaces the approximation factor β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Replaces the simulator configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// The spec matching a scenario: the simulator is seeded with the
    /// scenario seed so the inner controllers' delay schedules replay with
    /// the workload.
    pub fn for_scenario(family: AppFamily, scenario: &Scenario) -> Self {
        AppSpec::new(family).with_sim(SimConfig::new(scenario.seed))
    }

    /// Builds the application over `tree`.
    ///
    /// # Errors
    ///
    /// Propagates controller construction errors.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 1` for a family that takes the factor.
    pub fn build(&self, tree: DynamicTree) -> Result<Box<dyn Application>, ControllerError> {
        Ok(match self.family {
            AppFamily::SizeEstimator => Box::new(SizeEstimator::new(self.sim, tree, self.beta)?),
            AppFamily::NameAssigner => Box::new(NameAssigner::new(self.sim, tree)?),
            AppFamily::SubtreeEstimator => {
                Box::new(SubtreeEstimator::new(self.sim, tree, self.beta)?)
            }
            AppFamily::HeavyChild => Box::new(HeavyChildDecomposition::new(self.sim, tree)?),
            AppFamily::AncestryLabeling => Box::new(AncestryLabeling::new(self.sim, tree)?),
            AppFamily::MajorityCommitment => {
                Box::new(MajorityCommitment::new(self.sim, tree, self.beta)?)
            }
        })
    }

    /// Builds the application over a runner's initial tree.
    ///
    /// # Errors
    ///
    /// Same as [`AppSpec::build`].
    pub fn build_for(
        &self,
        runner: &ScenarioRunner,
    ) -> Result<Box<dyn Application>, ControllerError> {
        self.build(runner.initial_tree())
    }
}

/// The application factory covering every §5 family: resolves a
/// [`SweepGrid`](crate::SweepGrid) apps-axis string and builds the
/// application over the cell's scenario.
///
/// # Errors
///
/// Returns a description for unknown application names and construction
/// failures (reported per cell by the engine, never propagated).
pub fn app_factory(family: &str, scenario: &Scenario) -> Result<Box<dyn Application>, String> {
    let family = AppFamily::from_name(family)
        .ok_or_else(|| format!("unknown application family {family:?}"))?;
    AppSpec::for_scenario(family, scenario)
        .build(crate::shape::build_tree(scenario.shape))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_controller::RequestKind;

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
            let app = AppSpec::for_scenario(family, &scenario)
                .build_for(&ScenarioRunner::new(scenario.clone()))
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
            let mut app = AppSpec::for_scenario(family, &scenario)
                .build_for(&ScenarioRunner::new(scenario.clone()))
                .unwrap();
            let at = app.tree().root();
            let id = app.submit(at, RequestKind::AddLeaf).unwrap();
            app.run_to_quiescence().unwrap();
            let answers: Vec<_> = app.take_records().iter().map(|r| r.id).collect();
            assert_eq!(answers, [id], "{}", family.name());
            app.check_invariants().unwrap();
        }
    }

    #[test]
    fn factory_rejects_unknown_apps_with_a_description() {
        let err = app_factory("martian", &Scenario::smoke())
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("martian"));
    }

    #[test]
    fn beta_flows_into_the_size_estimator() {
        let spec = AppSpec::new(AppFamily::SizeEstimator).with_beta(3.0);
        let app = spec.build(DynamicTree::with_initial_star(8)).unwrap();
        // β = 3 tolerates a 3× size mismatch: estimate 9 vs n up to 27.
        assert!(app.check_invariants().is_ok());
    }
}
