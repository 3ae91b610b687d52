//! Suite #14 — scenario conformance fence for `crowd_sim::dynamics`.
//!
//! A [`crowd_sim::ScenarioSpec`] compiles worker churn, demand surges and task-mix
//! drift into a perturbed dataset *before* the replay; everything downstream runs the
//! unchanged zero-copy hot loop. This suite proves the scenario layer does not erode
//! any prior bit-identity proof:
//!
//! * a **no-op spec reproduces the baseline replay's canonical fingerprint exactly**
//!   (no RNG draws, no event churn);
//! * every **named registry scenario replays bit-identically** across shard counts
//!   {1, 2, 8} and the CI `CROWD_THREADS` {1, 4} matrix (the pool comes from
//!   `ThreadPool::from_env`) — for Random, LinUCB and DDQN, against replay probes frozen
//!   from the original flat single-arena platform, so its behaviour stays pinned after
//!   its deletion — and across mid-scenario checkpoint/resume, including the
//!   scenario-section validation that refuses cross-scenario resumes;
//! * the scenario **properties hold over seeded sweeps**: no decision ever shows an
//!   offline worker a pool, and surge thinning preserves the arrival subsequence order;
//! * the edge cases ride the same sweeps: a worker retiring while tasks it completed
//!   are still pooled, a surge boundary landing exactly on an arrival, an empty
//!   availability window, and a drift epoch with zero remaining tasks.

use crowd_baselines::{Benefit, LinUcb, ListMode, RandomPolicy};
use crowd_experiments::{
    named_scenarios, resume_scenario_session, scenario_checkpoint, scenario_session,
    scenario_session_sharded, RunnerConfig, Session,
};
use crowd_rl_core::{DdqnAgent, DdqnConfig};
use crowd_sim::{
    Dataset, Env, Event, EventKind, Platform, Policy, ScenarioSpec, ShardSpec, SimConfig, WorkerId,
    MINUTES_PER_MONTH,
};
use crowd_tensor::{Rng, ThreadPool};

/// Everything one replay leaves behind, compared bitwise between environments.
#[derive(Debug, PartialEq)]
struct ReplayProbe {
    /// `MetricsSummary` bits: cr, k_cr, ndcg_cr, qg, k_qg, ndcg_qg.
    summary: [u32; 6],
    evaluated: usize,
    completions: usize,
    /// Raw bits of the total-quality f32 reduction.
    quality_bits: u32,
    fingerprint: u32,
    rng_probe: u64,
}

/// The policies the frozen probes were recorded with.
#[derive(Debug, Clone, Copy)]
enum Frozen {
    Random,
    LinUcb,
    Ddqn,
}

impl Frozen {
    fn policy(self, dataset: &Dataset) -> Box<dyn Policy> {
        match self {
            Frozen::Random => Box::new(RandomPolicy::new(ListMode::RankAll, 5)),
            Frozen::LinUcb => Box::new(LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5)),
            Frozen::Ddqn => {
                let features = Platform::default_feature_space(dataset);
                let config = DdqnConfig {
                    hidden_dim: 16,
                    num_heads: 2,
                    batch_size: 8,
                    learn_every: 4,
                    max_tasks: 32,
                    buffer_size: 128,
                    ..DdqnConfig::default()
                };
                Box::new(DdqnAgent::new(
                    config,
                    features.task_dim(),
                    features.worker_dim(),
                ))
            }
        }
    }
}

/// A probe from its fields in declaration order (keeps the frozen table one row per
/// probe).
const fn frozen(
    summary: [u32; 6],
    evaluated: usize,
    completions: usize,
    quality_bits: u32,
    fingerprint: u32,
    rng_probe: u64,
) -> ReplayProbe {
    ReplayProbe {
        summary,
        evaluated,
        completions,
        quality_bits,
        fingerprint,
        rng_probe,
    }
}

/// Replay probes of the original flat single-arena `Platform` (the implementation the
/// sharded layout replaced), recorded at `SimConfig::tiny()` with
/// `RunnerConfig::default()` for every registry scenario × {Random, LinUCB, DDQN}.
/// Every shard count must reproduce them exactly.
#[rustfmt::skip]
const FROZEN: [(&str, Frozen, ReplayProbe); 15] = [
    ("stationary", Frozen::Random, frozen([0x3e989531, 0x3f0fdec0, 0x3f107958, 0x414c7eb9, 0x41c1643f, 0x41c1bb55], 151, 171, 0x4244eed8, 0xf9e70bae, 70776609)),
    ("stationary", Frozen::LinUcb, frozen([0x3ebde17c, 0x3f15c54d, 0x3f179519, 0x4110950b, 0x419b52d5, 0x419f15ec], 151, 171, 0x423b4e6d, 0xf26c8796, 988543470)),
    ("stationary", Frozen::Ddqn, frozen([0x3e9bf938, 0x3f0f5eaf, 0x3f11248e, 0x4138f7e8, 0x41b7a917, 0x41ba6e7b], 151, 172, 0x4245108a, 0xcdf6cebc, 1511688009)),
    ("flash-crowd", Frozen::Random, frozen([0x3e8104c1, 0x3f0235d9, 0x3f03a961, 0x417fa20e, 0x420a0a8a, 0x420ba5d8], 377, 336, 0x42890838, 0x7e073c15, 1851723243)),
    ("flash-crowd", Frozen::LinUcb, frozen([0x3ed94b60, 0x3f20b027, 0x3f2259a6, 0x418cd3c2, 0x4206f500, 0x420aadcc], 377, 363, 0x42874ebd, 0xfc30e514, 2501141289)),
    ("flash-crowd", Frozen::Ddqn, frozen([0x3ea9c2e3, 0x3f0c7bd3, 0x3f0ee70b, 0x419a52dd, 0x420a41fd, 0x420ce7b5], 377, 341, 0x4283d195, 0xe3e39e23, 622294571)),
    ("worker-exodus", Frozen::Random, frozen([0x3e8d0fac, 0x3eff5677, 0x3f062eb0, 0x40d52ef6, 0x416584a7, 0x4173598d], 98, 123, 0x421fd167, 0xf742de95, 1467683916)),
    ("worker-exodus", Frozen::LinUcb, frozen([0x3ea1f58d, 0x3f037fc2, 0x3f062f23, 0x40aa1d1b, 0x413b2e1e, 0x4148c325], 98, 116, 0x4210c3e6, 0xeead3c37, 449966957)),
    ("worker-exodus", Frozen::Ddqn, frozen([0x3e5b6db7, 0x3ef34f81, 0x3ef70856, 0x40ca6ac3, 0x4158779e, 0x415ebcb5], 98, 118, 0x42144c9f, 0x5ca52fcb, 3933153915)),
    ("day-night", Frozen::Random, frozen([0x3ea71c72, 0x3f169574, 0x3f17d9ad, 0x4148e37a, 0x41b408f8, 0x41b6b6dd], 144, 173, 0x42423e94, 0x04822f45, 272931186)),
    ("day-night", Frozen::LinUcb, frozen([0x3ece38e4, 0x3f224889, 0x3f242ee1, 0x4126a67b, 0x419cc88c, 0x41a2eeea], 144, 179, 0x423e1782, 0xb0a6c94e, 2052504033)),
    ("day-night", Frozen::Ddqn, frozen([0x3ee00000, 0x3f237418, 0x3f2547e4, 0x414377a8, 0x41a86ba1, 0x41aba2d4], 144, 176, 0x423a30b2, 0x6c7da673, 106229565)),
    ("category-drift", Frozen::Random, frozen([0x3e95312a, 0x3f0a0484, 0x3f0bd450, 0x413fc9ee, 0x41b5b7aa, 0x41b7de96], 151, 168, 0x4241675e, 0x4189bbb1, 2102053534)),
    ("category-drift", Frozen::LinUcb, frozen([0x3ec80d90, 0x3f16f703, 0x3f18c6cf, 0x414bd976, 0x41a6693d, 0x41ab7d79], 151, 168, 0x4235d984, 0x05e92583, 299907695)),
    ("category-drift", Frozen::Ddqn, frozen([0x3e9bf938, 0x3f0eac41, 0x3f107c0e, 0x4130a240, 0x41b33231, 0x41b676d9], 151, 172, 0x4245fe6a, 0x3a76ed12, 1760596868)),
];

fn config() -> RunnerConfig {
    RunnerConfig::default()
}

/// The environment-side pool honours the CI thread matrix (`CROWD_THREADS` 1 / 4).
fn env_pool() -> ThreadPool {
    ThreadPool::from_env()
}

fn probe_platform(dataset: &Dataset, policy: &mut dyn Policy) -> ReplayProbe {
    probe_sharded(dataset, policy, ShardSpec::default())
}

fn probe_sharded(dataset: &Dataset, policy: &mut dyn Policy, spec: ShardSpec) -> ReplayProbe {
    let mut session = Session::for_dataset_sharded(dataset, &config(), spec);
    session.run(policy);
    let evaluated = session.evaluated_arrivals();
    let s = session.metrics().summary();
    assert_eq!(s.timestamps, evaluated);
    let env = session.env_mut();
    env.flush();
    ReplayProbe {
        summary: [s.cr, s.k_cr, s.ndcg_cr, s.qg, s.k_qg, s.ndcg_qg].map(f32::to_bits),
        evaluated,
        completions: env.total_completions(),
        quality_bits: env.total_task_quality().to_bits(),
        fingerprint: env.canonical_fingerprint(),
        rng_probe: env.rng_probe(),
    }
}

fn arrivals(dataset: &Dataset) -> Vec<Event> {
    dataset
        .events
        .iter()
        .copied()
        .filter(Event::is_arrival)
        .collect()
}

/// Kept arrivals must match the original stream front to back without reordering.
fn assert_subsequence(kept: &[Event], original: &[Event], label: &str) {
    let mut cursor = 0;
    for event in kept {
        while cursor < original.len() && original[cursor] != *event {
            cursor += 1;
        }
        assert!(
            cursor < original.len(),
            "{label}: kept arrival at t={} out of original order",
            event.time
        );
        cursor += 1;
    }
}

#[test]
fn noop_scenario_reproduces_the_baseline_canonical_fingerprint() {
    let dataset = SimConfig::tiny().generate();
    let noop = ScenarioSpec::new(12345);
    assert!(noop.is_noop());
    let perturbed = noop.apply(&dataset);
    assert_eq!(perturbed.events, dataset.events);

    let baseline = probe_platform(&dataset, &mut RandomPolicy::new(ListMode::RankAll, 5));
    let scenario = probe_platform(&perturbed, &mut RandomPolicy::new(ListMode::RankAll, 5));
    assert_eq!(scenario, baseline, "no-op scenario must be exact identity");

    // The registry's `stationary` entry is that no-op.
    let stationary = &named_scenarios(&dataset)[0];
    assert!(stationary.spec.is_noop());
    let registry = probe_platform(
        &stationary.spec.apply(&dataset),
        &mut RandomPolicy::new(ListMode::RankAll, 5),
    );
    assert_eq!(registry, baseline);
}

#[test]
fn every_named_scenario_is_bit_identical_across_shard_counts() {
    let dataset = SimConfig::tiny().generate();
    let scenarios = named_scenarios(&dataset);
    assert_eq!(FROZEN.len(), scenarios.len() * 3);
    for (name, policy, expected) in &FROZEN {
        let scenario = scenarios
            .iter()
            .find(|s| s.name == *name)
            .unwrap_or_else(|| panic!("no registry scenario named {name}"));
        let perturbed = scenario.spec.apply(&dataset);
        for n_shards in [1, 2, 8] {
            let spec = ShardSpec::new(n_shards).with_pool(env_pool());
            let probe = probe_sharded(&perturbed, policy.policy(&perturbed).as_mut(), spec);
            assert_eq!(
                &probe,
                expected,
                "{name} / {policy:?} diverged from the frozen probe at {n_shards} shard(s), {} thread(s)",
                env_pool().threads()
            );
        }
    }
}

#[test]
fn every_named_scenario_survives_mid_scenario_checkpoint_resume() {
    let dataset = SimConfig::tiny().generate();
    let make_policy = || LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);
    for scenario in named_scenarios(&dataset) {
        // Uninterrupted run: step partway, checkpoint (with the scenario section),
        // keep going to completion.
        let shards = ShardSpec::new(2).with_pool(env_pool());
        let mut original = scenario_session_sharded(&dataset, &scenario, &config(), shards);
        let mut original_policy = make_policy();
        for _ in 0..20 {
            assert!(original.step(&mut original_policy), "{}", scenario.name);
        }
        let snapshot = scenario_checkpoint(&mut original, &original_policy, &scenario.spec)
            .expect("checkpoint");
        let file = crowd_ckpt::SnapshotFile::from_bytes(snapshot.to_bytes()).unwrap();
        original.run(&mut original_policy);

        // Resumed twin: fresh session + policy restored from the snapshot, run to end.
        let mut resumed = scenario_session_sharded(&dataset, &scenario, &config(), shards);
        let mut resumed_policy = make_policy();
        resume_scenario_session(&mut resumed, &mut resumed_policy, &file, &scenario.spec)
            .expect("same-scenario resume");
        resumed.run(&mut resumed_policy);

        Env::flush(original.env_mut());
        Env::flush(resumed.env_mut());
        assert_eq!(
            original.metrics().summary(),
            resumed.metrics().summary(),
            "{}",
            scenario.name
        );
        assert_eq!(
            original.env_mut().canonical_fingerprint(),
            resumed.env_mut().canonical_fingerprint(),
            "{}",
            scenario.name
        );
        assert_eq!(
            original.env_mut().rng_probe(),
            resumed.env_mut().rng_probe(),
            "{}",
            scenario.name
        );
    }
}

#[test]
fn cross_scenario_resume_is_refused() {
    let dataset = SimConfig::tiny().generate();
    let scenarios = named_scenarios(&dataset);
    let surge = &scenarios[1];
    let other = &scenarios[2];
    let mut session = scenario_session(&dataset, surge, &config());
    let mut policy = LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);
    for _ in 0..5 {
        session.step(&mut policy);
    }
    let snapshot = scenario_checkpoint(&mut session, &policy, &surge.spec).unwrap();
    let file = crowd_ckpt::SnapshotFile::from_bytes(snapshot.to_bytes()).unwrap();
    let mut wrong = scenario_session(&dataset, other, &config());
    let err = resume_scenario_session(&mut wrong, &mut policy, &file, &other.spec)
        .expect_err("resuming under a different scenario must fail");
    assert!(
        matches!(err, crowd_ckpt::CkptError::Corrupt { .. }),
        "{err:?}"
    );
}

#[test]
fn offline_workers_never_see_a_pool() {
    // Seeded sweep: random churn specs (retire / late-join / empty windows), replayed
    // end to end — every decision the platform asks for must belong to a worker that is
    // online under the spec at that arrival's time.
    const CASES: usize = 12;
    let dataset = SimConfig::tiny().generate();
    let horizon = dataset.horizon();
    let n_workers = dataset.workers.len();
    let mut rng = Rng::seed_from(71_005);
    for case in 0..CASES {
        let mut spec = ScenarioSpec::new(900 + case as u64);
        for w in 0..n_workers {
            match rng.below(4) {
                0 => {
                    // Retires mid-horizon.
                    let at = rng.range(1, horizon as usize) as u64;
                    spec = spec.with_window(WorkerId(w as u32), 0, at);
                }
                1 => {
                    // Joins mid-horizon.
                    let at = rng.range(1, horizon as usize) as u64;
                    spec = spec.with_window(WorkerId(w as u32), at, horizon);
                }
                2 => {
                    // Empty window: never online.
                    let at = rng.range(0, horizon as usize) as u64;
                    spec = spec.with_window(WorkerId(w as u32), at, at);
                }
                _ => {} // always online
            }
        }
        let perturbed = spec.apply(&dataset);
        let mut session = Session::for_dataset(&perturbed, &config());
        loop {
            let env = session.env_mut();
            if !env.next_arrival() {
                break;
            }
            let view = env.arrival();
            assert!(
                spec.worker_online(view.worker_id, view.time),
                "case {case}: offline worker {:?} shown a pool at t={}",
                view.worker_id,
                view.time
            );
        }
        // The perturbed replay stays shard-count invariant.
        let reference = probe_platform(&perturbed, &mut RandomPolicy::new(ListMode::RankAll, 5));
        let sharded = probe_sharded(
            &perturbed,
            &mut RandomPolicy::new(ListMode::RankAll, 5),
            ShardSpec::new(8).with_pool(env_pool()),
        );
        assert_eq!(sharded, reference, "case {case}");
    }
}

#[test]
fn surge_thinning_preserves_arrival_subsequence_order() {
    // Seeded sweep over random thinning/densifying phase stacks: the kept arrivals are
    // always an ordered subsequence of the original stream (densified copies are
    // adjacent duplicates, which the matcher consumes in place), and non-arrival events
    // survive verbatim.
    const CASES: usize = 16;
    let dataset = SimConfig::tiny().generate();
    let original = arrivals(&dataset);
    let horizon = dataset.horizon();
    let mut rng = Rng::seed_from(71_006);
    for case in 0..CASES {
        let mut spec = ScenarioSpec::new(1_000 + case as u64);
        for _ in 0..rng.range(1, 4) {
            let from = rng.range(0, horizon as usize) as u64;
            let until = (from + rng.range(1, horizon as usize) as u64).min(horizon);
            // Mostly thinning; the order property must hold either way.
            let rate = if rng.chance(0.7) {
                rng.uniform(0.1, 0.9)
            } else {
                rng.uniform(1.1, 2.5)
            };
            spec = spec.with_surge(from, until, rate);
        }
        let perturbed = spec.apply(&dataset);
        // Collapse densified adjacent duplicates; the remainder must be a subsequence.
        let mut deduped: Vec<Event> = Vec::new();
        for event in arrivals(&perturbed) {
            if deduped.last() != Some(&event) {
                deduped.push(event);
            }
        }
        assert_subsequence(&deduped, &original, &format!("case {case}"));
        let count_non = |d: &Dataset| d.events.iter().filter(|e| !e.is_arrival()).count();
        assert_eq!(count_non(&perturbed), count_non(&dataset), "case {case}");
    }
}

#[test]
fn retired_workers_completed_tasks_stay_pooled_until_expiry() {
    // Edge case: a worker completes tasks and then retires while those tasks are still
    // pooled. The pool must keep serving them to other workers, and the replay must
    // stay shard-count invariant. Swept over retirement months.
    let dataset = SimConfig::tiny().generate();
    let mut rng = Rng::seed_from(71_007);
    let mut exercised = false;
    for case in 0..8 {
        let retire_at = MINUTES_PER_MONTH + rng.range(1, MINUTES_PER_MONTH as usize) as u64;
        let victim = WorkerId(rng.below(dataset.workers.len()) as u32);
        let spec = ScenarioSpec::new(1_100 + case as u64).with_window(victim, 0, retire_at);
        let perturbed = spec.apply(&dataset);

        // Replay on the platform, recording which tasks the victim completed and
        // asserting they remain reachable through later arrivals' pools.
        let mut session = Session::for_dataset(&perturbed, &config());
        let mut victim_tasks: Vec<crowd_sim::TaskId> = Vec::new();
        let mut seen_later = false;
        loop {
            if !session.env_mut().next_arrival() {
                break;
            }
            let view = session.env_mut().arrival();
            let (worker, time) = (view.worker_id, view.time);
            if time >= retire_at {
                assert_ne!(worker, victim, "case {case}: victim arrived after retiring");
                for task in view.tasks() {
                    if victim_tasks.contains(&task.id) {
                        seen_later = true;
                    }
                }
            }
            if view.is_empty() {
                continue;
            }
            let mut decision = crowd_sim::Decision::new();
            decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
            let env = session.env_mut();
            env.apply(&decision);
            let feedback = env.feedback();
            if worker == victim {
                if let Some((task, _)) = feedback.completed {
                    victim_tasks.push(task);
                }
            }
        }
        if seen_later {
            exercised = true;
        }
        let reference = probe_platform(&perturbed, &mut RandomPolicy::new(ListMode::RankAll, 5));
        let sharded = probe_sharded(
            &perturbed,
            &mut RandomPolicy::new(ListMode::RankAll, 5),
            ShardSpec::new(2).with_pool(env_pool()),
        );
        assert_eq!(sharded, reference, "case {case}");
    }
    assert!(
        exercised,
        "sweep never saw a retired worker's completed task still pooled"
    );
}

#[test]
fn surge_boundary_landing_exactly_on_an_arrival_is_inside_the_phase() {
    // Edge case: `from` is inclusive and `until` exclusive, so an arrival exactly at
    // `from` is surged and one exactly at `until` is not. Swept over real arrival times
    // from the dataset, using an integer densify rate so the effect is deterministic.
    let dataset = SimConfig::tiny().generate();
    let original = arrivals(&dataset);
    let mut rng = Rng::seed_from(71_008);
    for case in 0..8 {
        let pivot = original[rng.below(original.len())].time;
        let spec = ScenarioSpec::new(1_200 + case as u64).with_surge(pivot, pivot + 1, 2.0);
        let perturbed = spec.apply(&dataset);
        let at_pivot_before = original.iter().filter(|e| e.time == pivot).count();
        let at_pivot_after = arrivals(&perturbed)
            .iter()
            .filter(|e| e.time == pivot)
            .count();
        assert_eq!(
            at_pivot_after,
            2 * at_pivot_before,
            "case {case}: boundary arrival at t={pivot} must be densified"
        );
        // Everything off the pivot minute is untouched.
        let off_pivot = |d: &Dataset| {
            arrivals(d)
                .into_iter()
                .filter(|e| e.time != pivot)
                .collect::<Vec<_>>()
        };
        assert_eq!(off_pivot(&perturbed), off_pivot(&dataset), "case {case}");
        // And `until` is exclusive: surging [t, t) is a no-op on the stream.
        let empty = ScenarioSpec::new(1_300 + case as u64).with_surge(pivot, pivot, 3.0);
        assert_eq!(empty.apply(&dataset).events, dataset.events, "case {case}");
    }
}

#[test]
fn drift_epoch_with_zero_remaining_tasks_matches_the_baseline_replay() {
    // Edge case: a drift epoch scheduled after the last task creation rewrites nothing —
    // the spec is non-noop, but the replay must reproduce the baseline fingerprint.
    let dataset = SimConfig::tiny().generate();
    let last_creation = dataset
        .tasks
        .iter()
        .map(|t| t.created_at)
        .max()
        .unwrap_or(0);
    let mut rng = Rng::seed_from(71_009);
    let baseline = probe_platform(&dataset, &mut RandomPolicy::new(ListMode::RankAll, 5));
    for case in 0..8 {
        let at = last_creation + 1 + rng.range(0, MINUTES_PER_MONTH as usize) as u64;
        let step = rng.range(1, dataset.n_categories.max(2)) as u16;
        let spec = ScenarioSpec::new(1_400 + case as u64).with_drift(at, step, 1.5);
        assert!(!spec.is_noop());
        let perturbed = spec.apply(&dataset);
        assert_eq!(perturbed.tasks, dataset.tasks, "case {case}");
        assert_eq!(perturbed.events, dataset.events, "case {case}");
        let probe = probe_platform(&perturbed, &mut RandomPolicy::new(ListMode::RankAll, 5));
        assert_eq!(probe, baseline, "case {case}");
    }
}

#[test]
fn empty_availability_window_silences_a_worker_for_the_whole_replay() {
    // Edge case sweep: a worker with an empty window never arrives, every other worker
    // is untouched, and the replay stays shard-count invariant.
    let dataset = SimConfig::tiny().generate();
    let mut rng = Rng::seed_from(71_010);
    for case in 0..8 {
        let silenced = WorkerId(rng.below(dataset.workers.len()) as u32);
        let at = rng.range(0, dataset.horizon() as usize) as u64;
        let spec = ScenarioSpec::new(1_500 + case as u64).with_window(silenced, at, at);
        let perturbed = spec.apply(&dataset);
        assert!(perturbed
            .events
            .iter()
            .all(|e| e.kind != EventKind::WorkerArrival(silenced)));
        let others = |d: &Dataset| {
            arrivals(d)
                .into_iter()
                .filter(|e| e.kind != EventKind::WorkerArrival(silenced))
                .collect::<Vec<_>>()
        };
        assert_eq!(others(&perturbed), others(&dataset), "case {case}");
        let reference = probe_platform(&perturbed, &mut RandomPolicy::new(ListMode::RankAll, 5));
        let sharded = probe_sharded(
            &perturbed,
            &mut RandomPolicy::new(ListMode::RankAll, 5),
            ShardSpec::new(8).with_pool(env_pool()),
        );
        assert_eq!(sharded, reference, "case {case}");
    }
}
