//! The scenario registry: named non-stationary scenarios and scenario-aware
//! session/checkpoint helpers.
//!
//! A [`NamedScenario`] pairs a stable name with a [`ScenarioSpec`]; the registry
//! ([`named_scenarios`]) derives every spec deterministically from the dataset's shape
//! (horizon, worker count), so the same dataset always yields the same scenarios at any
//! scale. `scenario_table` replays the full policy line-up across the registry, and
//! `tests/scenario_equivalence.rs` fences every scenario's bit-identity across thread
//! counts, shard counts and checkpoint/resume.
//!
//! Checkpoints of scenario replays carry the spec itself in an extra `scenario` section
//! ([`scenario_checkpoint`]); [`resume_scenario_session`] refuses to resume a snapshot
//! under a different scenario (the replayed dataset would silently diverge from the
//! checkpointed state). Layout: `docs/CHECKPOINT_FORMAT.md`.

use crate::runner::RunnerConfig;
use crate::session::Session;
use crowd_ckpt::{CkptError, Snapshot, SnapshotFile};
use crowd_sim::{
    Dataset, DayNightCycle, Env, Platform, Policy, ScenarioSpec, ShardSpec, MINUTES_PER_MONTH,
};

/// Name of the snapshot section holding the [`ScenarioSpec`] (prefixed like the session
/// sections, so batched snapshots can carry one per member).
pub const SCENARIO_SECTION: &str = "scenario";

/// A registered scenario: a stable name, a one-line description for tables and a
/// deterministic spec.
#[derive(Debug, Clone)]
pub struct NamedScenario {
    /// Stable registry name (used in tables, CI logs and snapshot metadata).
    pub name: &'static str,
    /// One-line description shown by `scenario_table`.
    pub description: &'static str,
    /// The compiled perturbation.
    pub spec: ScenarioSpec,
}

impl NamedScenario {
    /// The perturbed dataset this scenario replays.
    pub fn dataset(&self, dataset: &Dataset) -> Dataset {
        self.spec.apply(dataset)
    }
}

/// The built-in scenario registry, derived deterministically from the dataset's shape.
///
/// * `stationary` — the no-op spec; replays the baseline dataset bit-identically.
/// * `flash-crowd` — a 2.5× demand surge over the middle month, 0.7× elsewhere after
///   warm-up (a burst against a mildly quiet background).
/// * `worker-exodus` — every third worker retires at the horizon's midpoint, and every
///   seventh only comes online then (churn in both directions).
/// * `day-night` — arrivals concentrate in a 08:00–20:00 band (1.6× day, 0.4× night).
/// * `category-drift` — from month 1 the task mix rotates one category and pays 0.8×;
///   from the midpoint a second rotation pays 1.5× (composing epochs).
pub fn named_scenarios(dataset: &Dataset) -> Vec<NamedScenario> {
    let horizon = dataset.horizon();
    let midpoint = horizon / 2;
    let mid_month_start = (dataset.months as u64 / 2) * MINUTES_PER_MONTH;
    let mid_month_end = (mid_month_start + MINUTES_PER_MONTH).min(horizon);

    let mut exodus = ScenarioSpec::new(0xE0D5);
    for worker in &dataset.workers {
        if worker.id.0 % 3 == 0 {
            exodus = exodus.with_window(worker.id, 0, midpoint);
        } else if worker.id.0 % 7 == 0 {
            exodus = exodus.with_window(worker.id, midpoint, horizon);
        }
    }

    vec![
        NamedScenario {
            name: "stationary",
            description: "baseline replay, unperturbed",
            spec: ScenarioSpec::new(0),
        },
        NamedScenario {
            name: "flash-crowd",
            description: "2.5x surge over the middle month, 0.7x elsewhere post-warmup",
            spec: ScenarioSpec::new(0xF1A5)
                .with_surge(
                    MINUTES_PER_MONTH,
                    mid_month_start.max(MINUTES_PER_MONTH),
                    0.7,
                )
                .with_surge(mid_month_start, mid_month_end, 2.5)
                .with_surge(mid_month_end, horizon, 0.7),
        },
        NamedScenario {
            name: "worker-exodus",
            description: "every 3rd worker retires at midpoint; every 7th joins then",
            spec: exodus,
        },
        NamedScenario {
            name: "day-night",
            description: "08:00-20:00 band at 1.6x, nights at 0.4x",
            spec: ScenarioSpec::new(0xDA41).with_day_night(DayNightCycle {
                day_from: 8 * 60,
                day_until: 20 * 60,
                day_rate: 1.6,
                night_rate: 0.4,
            }),
        },
        NamedScenario {
            name: "category-drift",
            description: "category rotation +1 at month 1 (0.8x pay), +1 at midpoint (1.5x)",
            spec: ScenarioSpec::new(0xD81F)
                .with_drift(MINUTES_PER_MONTH, 1, 0.8)
                .with_drift(midpoint, 1, 1.5),
        },
    ]
}

/// The perturbed dataset of one scenario (convenience wrapper over
/// [`ScenarioSpec::apply`]).
pub fn scenario_dataset(dataset: &Dataset, scenario: &NamedScenario) -> Dataset {
    scenario.spec.apply(dataset)
}

/// A [`Platform`] session replaying `scenario` over `dataset`.
pub fn scenario_session(
    dataset: &Dataset,
    scenario: &NamedScenario,
    config: &RunnerConfig,
) -> Session<Platform> {
    Session::for_dataset(&scenario.spec.apply(dataset), config)
}

/// A sharded [`Platform`] session replaying `scenario` over `dataset`. Because the spec
/// is applied to the dataset *before* the environment is built, every shard count
/// replays the identical event stream: bit-identity across shard counts is inherited
/// from the stationary proof, and `scenario_equivalence` re-fences it per scenario.
pub fn scenario_session_sharded(
    dataset: &Dataset,
    scenario: &NamedScenario,
    config: &RunnerConfig,
    shards: ShardSpec,
) -> Session<Platform> {
    Session::for_dataset_sharded(&scenario.spec.apply(dataset), config, shards)
}

/// Checkpoints a scenario session: the usual `session` / `env` / `policy` sections plus
/// a [`SCENARIO_SECTION`] carrying the spec, so a resume can verify it is replaying the
/// same scenario.
pub fn scenario_checkpoint<E>(
    session: &mut Session<E>,
    policy: &dyn Policy,
    spec: &ScenarioSpec,
) -> crowd_ckpt::Result<Snapshot>
where
    E: Env + crowd_ckpt::SaveState,
{
    let mut snapshot = session.checkpoint(policy)?;
    snapshot.put(SCENARIO_SECTION, spec);
    Ok(snapshot)
}

/// Resumes a scenario session, first checking the snapshot's [`SCENARIO_SECTION`]
/// against `spec` by fingerprint. A missing section (a stationary snapshot) or a
/// mismatched spec yields [`CkptError::Corrupt`] — resuming state produced under a
/// different perturbation would silently diverge from the replayed event stream.
pub fn resume_scenario_session<E>(
    session: &mut Session<E>,
    policy: &mut dyn Policy,
    file: &SnapshotFile,
    spec: &ScenarioSpec,
) -> crowd_ckpt::Result<()>
where
    E: Env + crowd_ckpt::LoadState,
{
    let stored: ScenarioSpec = file.decode(SCENARIO_SECTION)?;
    if stored.fingerprint() != spec.fingerprint() {
        return Err(CkptError::Corrupt {
            what: "scenario section",
            detail: format!(
                "snapshot was taken under a different scenario (stored fingerprint \
                 {:#010x}, expected {:#010x})",
                stored.fingerprint(),
                spec.fingerprint()
            ),
        });
    }
    session.resume(policy, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_baselines::{Benefit, LinUcb, ListMode};
    use crowd_sim::SimConfig;

    #[test]
    fn registry_has_stationary_plus_four_scenarios() {
        let dataset = SimConfig::tiny().generate();
        let scenarios = named_scenarios(&dataset);
        assert!(scenarios.len() >= 5);
        assert_eq!(scenarios[0].name, "stationary");
        assert!(scenarios[0].spec.is_noop());
        for scenario in &scenarios[1..] {
            assert!(!scenario.spec.is_noop(), "{} is a no-op", scenario.name);
        }
        // Names are unique and stable.
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scenarios.len());
    }

    #[test]
    fn registry_is_deterministic_in_the_dataset() {
        let dataset = SimConfig::tiny().generate();
        let a = named_scenarios(&dataset);
        let b = named_scenarios(&dataset);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.spec.fingerprint(), y.spec.fingerprint());
        }
    }

    #[test]
    fn scenario_checkpoint_rejects_cross_scenario_resume() {
        let dataset = SimConfig::tiny().generate();
        let cfg = RunnerConfig::default();
        let scenarios = named_scenarios(&dataset);
        let surge = scenarios.iter().find(|s| s.name == "flash-crowd").unwrap();
        let drift = scenarios
            .iter()
            .find(|s| s.name == "category-drift")
            .unwrap();

        let mut policy = LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);
        let mut session = scenario_session(&dataset, surge, &cfg);
        for _ in 0..10 {
            session.step(&mut policy);
        }
        let snapshot = scenario_checkpoint(&mut session, &policy, &surge.spec).expect("checkpoint");
        let file = SnapshotFile::from_bytes(snapshot.to_bytes()).expect("parse");

        // Same scenario: resumes fine.
        let mut resumed = scenario_session(&dataset, surge, &cfg);
        let mut resumed_policy = LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);
        resume_scenario_session(&mut resumed, &mut resumed_policy, &file, &surge.spec)
            .expect("same-scenario resume");

        // Different scenario: refused.
        let mut wrong = scenario_session(&dataset, drift, &cfg);
        let mut wrong_policy = LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);
        let err = resume_scenario_session(&mut wrong, &mut wrong_policy, &file, &drift.spec)
            .expect_err("cross-scenario resume must fail");
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err:?}");
    }
}
