//! [`app_factory`]: the one factory for every §5 application, beside
//! [`family_factory`](crate::family_factory) for the controllers.
//!
//! It resolves an [`AppFamily`] name and builds that application over a
//! scenario's initial tree behind a `Box<dyn Application>`, so the scenario
//! runner ([`ScenarioRunner::run_app`](crate::ScenarioRunner::run_app)) and
//! the sweep engine's apps axis drive all six through the ticketed
//! submit/step/records seam.

use crate::scenario::Scenario;
use crate::shape::build_tree;
use dcn_controller::ControllerError;
use dcn_estimator::{
    AncestryLabeling, Application, HeavyChildDecomposition, MajorityCommitment, NameAssigner,
    SizeEstimator, SubtreeEstimator,
};
use dcn_simnet::SimConfig;

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

/// The application factory covering every §5 family: resolves a
/// [`SweepGrid`](crate::SweepGrid) apps-axis string and builds the
/// application over the scenario's initial tree, its simulator seeded with
/// the scenario seed so the inner controllers' delay schedules replay with
/// the workload. The families that take an approximation factor (size
/// estimation, subtree estimation, majority commitment) get `β = 2`; the
/// heavy-child decomposition fixes `β = √3` and the name assigner and
/// ancestry labeling fix their own factors, as the paper prescribes.
///
/// ```
/// use dcn_workload::{app_factory, AppFamily, Scenario, ScenarioRunner};
///
/// let scenario = Scenario::smoke();
/// let runner = ScenarioRunner::new(scenario.clone());
/// for family in AppFamily::ALL {
///     let mut app = app_factory(family.name(), &scenario).unwrap();
///     let report = runner.run_app(app.as_mut()).unwrap();
///     assert_eq!(report.app, family.name());
///     assert_eq!(report.invariant_violations, 0);
/// }
/// ```
///
/// # Errors
///
/// Returns a description for unknown application names and construction
/// failures (reported per cell by the engine, never propagated).
pub fn app_factory(family: &str, scenario: &Scenario) -> Result<Box<dyn Application>, String> {
    let family = AppFamily::from_name(family)
        .ok_or_else(|| format!("unknown application family {family:?}"))?;
    let (sim, tree) = (SimConfig::new(scenario.seed), build_tree(scenario.shape));
    let build = || -> Result<Box<dyn Application>, ControllerError> {
        Ok(match family {
            AppFamily::SizeEstimator => Box::new(SizeEstimator::new(sim, tree, 2.0)?),
            AppFamily::NameAssigner => Box::new(NameAssigner::new(sim, tree)?),
            AppFamily::SubtreeEstimator => Box::new(SubtreeEstimator::new(sim, tree, 2.0)?),
            AppFamily::HeavyChild => Box::new(HeavyChildDecomposition::new(sim, tree)?),
            AppFamily::AncestryLabeling => Box::new(AncestryLabeling::new(sim, tree)?),
            AppFamily::MajorityCommitment => Box::new(MajorityCommitment::new(sim, tree, 2.0)?),
        })
    };
    build().map_err(|e| e.to_string())
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
            let app = app_factory(family.name(), &scenario)
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
            let mut app = app_factory(family.name(), &scenario).unwrap();
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
}
