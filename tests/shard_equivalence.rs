//! Equivalence fence for the sharded platform (`crowd_sim::Platform` with a
//! `ShardSpec`): with full-precision (f32) arenas, a sharded session replay must be
//! **bit-identical** to the default one-shard serial replay at every shard count and
//! every `CROWD_THREADS` setting — metrics, completions, final qualities, the behaviour
//! RNG stream and the canonical fingerprint all compared exactly. Checkpoint/resume of
//! a sharded run must continue bit-identically, and the compact (f16) opt-in must honour
//! its documented quantisation contract (lossless one-hot task features, f16-idempotent
//! committed worker rows) while staying deterministic and shard-count invariant.
//!
//! CI runs this suite as a named step at `CROWD_THREADS` 1 and 4; the environments pick
//! the pool up via `ThreadPool::from_env`, so both advance paths (serial and sharded)
//! are exercised by the same tests.

use crowd_baselines::{Benefit, LinUcb, ListMode, RandomPolicy};
use crowd_experiments::{RunnerConfig, Session, SessionBatch};
use crowd_metrics::MetricsSummary;
use crowd_rl_core::{DdqnAgent, DdqnConfig};
use crowd_sim::{f16_round_trip, Dataset, Env, Platform, Policy, ShardSpec, SimConfig};
use crowd_tensor::ThreadPool;

/// Everything one replay leaves behind, compared bitwise between two layouts.
#[derive(Debug, PartialEq)]
struct ReplayProbe {
    summary: MetricsSummary,
    evaluated: usize,
    completions: usize,
    /// Raw bits of the total-quality f32 reduction (iteration order matters; the sum
    /// runs in global id order at every shard count for exactly this comparison).
    quality_bits: u32,
    /// CRC-32 of the committed dynamic state in the canonical (global id order) layout.
    fingerprint: u32,
    /// One draw off the behaviour RNG after the replay — proves stream positions match.
    rng_probe: u64,
}

fn config() -> RunnerConfig {
    RunnerConfig::default()
}

/// The reference: the default one-shard platform on a serial pool.
fn probe_platform(dataset: &Dataset, policy: &mut dyn Policy) -> ReplayProbe {
    probe_sharded(dataset, policy, ShardSpec::default())
}

fn probe_sharded(dataset: &Dataset, policy: &mut dyn Policy, spec: ShardSpec) -> ReplayProbe {
    let mut session = Session::for_dataset_sharded(dataset, &config(), spec);
    session.run(policy);
    let evaluated = session.evaluated_arrivals();
    let summary = session.metrics().summary();
    let env = session.env_mut();
    env.flush();
    ReplayProbe {
        summary,
        evaluated,
        completions: env.total_completions(),
        quality_bits: env.total_task_quality().to_bits(),
        fingerprint: env.canonical_fingerprint(),
        rng_probe: env.rng_probe(),
    }
}

/// The environment-side pool honours the CI thread matrix (`CROWD_THREADS` 1 / 4).
fn env_pool() -> ThreadPool {
    ThreadPool::from_env()
}

#[test]
fn sharded_session_replay_is_bit_identical_to_platform_across_shard_counts() {
    let dataset = SimConfig::tiny().generate();
    type MakePolicy = fn() -> Box<dyn Policy>;
    let policies: Vec<(&str, MakePolicy)> = vec![
        ("random", || {
            Box::new(RandomPolicy::new(ListMode::RankAll, 5))
        }),
        ("linucb", || {
            Box::new(LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5))
        }),
    ];
    for (name, make_policy) in policies {
        let reference = probe_platform(&dataset, make_policy().as_mut());
        for n_shards in [1, 2, 8] {
            let spec = ShardSpec::new(n_shards).with_pool(env_pool());
            let probe = probe_sharded(&dataset, make_policy().as_mut(), spec);
            assert_eq!(
                probe,
                reference,
                "{name} diverged at {n_shards} shard(s), {} thread(s)",
                env_pool().threads()
            );
        }
    }
}

#[test]
fn ddqn_sharded_replay_is_bit_identical_to_platform() {
    // The deep agent consumes every feature bit and draws from its own RNG per decision,
    // so any divergence in view content, pool order or feedback compounds immediately.
    let dataset = SimConfig::tiny().generate();
    let make_agent = || {
        let features = Platform::default_feature_space(&dataset);
        let config = DdqnConfig {
            hidden_dim: 16,
            num_heads: 2,
            batch_size: 8,
            learn_every: 4,
            max_tasks: 32,
            buffer_size: 128,
            ..DdqnConfig::default()
        };
        DdqnAgent::new(config, features.task_dim(), features.worker_dim())
    };
    let reference = probe_platform(&dataset, &mut make_agent());
    for n_shards in [1, 8] {
        let spec = ShardSpec::new(n_shards).with_pool(env_pool());
        let probe = probe_sharded(&dataset, &mut make_agent(), spec);
        assert_eq!(probe, reference, "DDQN diverged at {n_shards} shard(s)");
    }
}

#[test]
fn sharded_checkpoint_resume_continues_bit_identically() {
    let dataset = SimConfig::tiny().generate();
    for compact in [false, true] {
        let spec = ShardSpec::new(2).compact(compact).with_pool(env_pool());
        let make_policy = || LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);

        // Uninterrupted run: step partway, checkpoint, keep going to completion.
        let mut original = Session::for_dataset_sharded(&dataset, &config(), spec);
        let mut original_policy = make_policy();
        for _ in 0..25 {
            assert!(original.step(&mut original_policy));
        }
        let snapshot = original
            .checkpoint(&original_policy)
            .expect("LinUcb checkpoints");
        let file = crowd_ckpt::SnapshotFile::from_bytes(snapshot.to_bytes()).unwrap();
        original.run(&mut original_policy);

        // Resumed twin: fresh session + policy restored from the snapshot, run to end.
        let mut resumed = Session::for_dataset_sharded(&dataset, &config(), spec);
        let mut resumed_policy = make_policy();
        resumed.resume(&mut resumed_policy, &file).unwrap();
        resumed.run(&mut resumed_policy);

        for (label, session) in [("original", &mut original), ("resumed", &mut resumed)] {
            Env::flush(session.env_mut());
            let _ = label;
        }
        assert_eq!(
            original.metrics().summary(),
            resumed.metrics().summary(),
            "compact={compact}"
        );
        assert_eq!(original.evaluated_arrivals(), resumed.evaluated_arrivals());
        assert_eq!(
            original.env_mut().canonical_fingerprint(),
            resumed.env_mut().canonical_fingerprint(),
            "compact={compact}"
        );
        assert_eq!(
            original.env_mut().rng_probe(),
            resumed.env_mut().rng_probe()
        );
    }
}

#[test]
fn compact_task_features_decode_losslessly_at_first_arrival() {
    // Task features are one-hot 0/1 components (plus small discretised award weights),
    // all exactly representable in binary16 — the f16 pool a policy sees must be
    // byte-identical to the f32 pool before any worker feature has been committed.
    let dataset = SimConfig::tiny().generate();
    let features = Platform::default_feature_space(&dataset);
    let mut full = Platform::sharded(dataset.clone(), features.clone(), 7, ShardSpec::new(2));
    let mut compact = Platform::sharded(dataset, features, 7, ShardSpec::new(2).compact(true));
    loop {
        assert_eq!(
            Env::next_arrival(&mut full),
            Env::next_arrival(&mut compact)
        );
        let (a, b) = (full.arrival(), compact.arrival());
        assert_eq!(a.n_tasks(), b.n_tasks());
        if a.is_empty() {
            continue;
        }
        for i in 0..a.n_tasks() {
            let (ta, tb) = (a.task(i), b.task(i));
            assert_eq!(ta.id, tb.id);
            assert_eq!(ta.feature, tb.feature, "task {i} decoded differently");
        }
        break;
    }
}

#[test]
fn compact_worker_rows_honour_the_quantisation_contract() {
    // Every committed worker row in a compact replay is stored as f16 bits, so each
    // decoded component must be a f16 fixed point (round-tripping it changes nothing).
    let dataset = SimConfig::tiny().generate();
    let features = Platform::default_feature_space(&dataset);
    let mut env = Platform::sharded(
        dataset.clone(),
        features,
        11,
        ShardSpec::new(4).compact(true),
    );
    let mut decision = crowd_sim::Decision::new();
    while Env::next_arrival(&mut env) {
        let view = env.arrival();
        if view.is_empty() {
            continue;
        }
        decision.clear();
        decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
        env.apply(&decision);
    }
    Env::flush(&mut env);
    assert!(
        env.total_completions() > 0,
        "replay produced no completions"
    );
    for worker in &dataset.workers {
        for &v in &env.worker_feature_owned(worker.id) {
            assert_eq!(
                f16_round_trip(v),
                v,
                "worker {:?} row is not f16-exact",
                worker.id
            );
        }
    }
}

#[test]
fn compact_replay_is_shard_count_invariant() {
    // The f16 path differs from f32 (that is the documented trade), but it must still be
    // deterministic and identical across shard counts and thread counts.
    let dataset = SimConfig::tiny().generate();
    let reference = probe_sharded(
        &dataset,
        &mut RandomPolicy::new(ListMode::RankAll, 5),
        ShardSpec::new(1).compact(true),
    );
    for n_shards in [2, 8] {
        let spec = ShardSpec::new(n_shards).compact(true).with_pool(env_pool());
        let probe = probe_sharded(&dataset, &mut RandomPolicy::new(ListMode::RankAll, 5), spec);
        assert_eq!(probe, reference, "compact diverged at {n_shards} shard(s)");
    }
}

#[test]
fn batched_sharded_sessions_match_batched_platform_sessions() {
    // `SessionBatch::step_batched` phase 1 advances environments in parallel; with
    // sharded members their per-shard advance nests underneath. Both batches run the
    // same shared policy, so every session's outcome and final environment must agree
    // with the one-shard serial batch bit for bit.
    let dataset = SimConfig::tiny().generate();
    let n_sessions = 6;
    let member_config = |i: usize| RunnerConfig {
        platform_seed: 424_242 + i as u64,
        ..RunnerConfig::default()
    };

    let mut platform_batch: SessionBatch<Platform> = SessionBatch::new();
    for i in 0..n_sessions {
        platform_batch.push(Session::for_dataset(&dataset, &member_config(i)));
    }
    let mut platform_policy = RandomPolicy::new(ListMode::RankAll, 5);
    platform_batch.run_batched(&mut platform_policy);

    let mut sharded_batch: SessionBatch<Platform> = SessionBatch::new().with_pool(env_pool());
    for i in 0..n_sessions {
        let spec = ShardSpec::new(4).with_pool(env_pool());
        sharded_batch.push(Session::for_dataset_sharded(
            &dataset,
            &member_config(i),
            spec,
        ));
    }
    let mut sharded_policy = RandomPolicy::new(ListMode::RankAll, 5);
    sharded_batch.run_batched(&mut sharded_policy);

    let platform_prints: Vec<u32> = platform_batch
        .sessions()
        .iter()
        .map(|s| s.env().canonical_fingerprint())
        .collect();
    let sharded_prints: Vec<u32> = sharded_batch
        .sessions()
        .iter()
        .map(|s| s.env().canonical_fingerprint())
        .collect();
    assert_eq!(platform_prints, sharded_prints);

    let platform_outcomes = platform_batch.finish_shared("Random");
    let sharded_outcomes = sharded_batch.finish_shared("Random");
    assert_eq!(platform_outcomes.len(), sharded_outcomes.len());
    for (a, b) in platform_outcomes.iter().zip(&sharded_outcomes) {
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.total_completions, b.total_completions);
        assert_eq!(
            a.final_total_quality.to_bits(),
            b.final_total_quality.to_bits()
        );
    }
}
