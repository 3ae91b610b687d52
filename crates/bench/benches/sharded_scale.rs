//! Demand-scale sharded-platform benchmark: full replays of the `SimConfig::massive`
//! tier (~1M workers, ~240k tasks — two orders of magnitude over the paper's
//! CrowdSpring trace) through `Platform` at several shard counts (one shard is the
//! default layout), reporting arrivals/second and process peak RSS.
//!
//! Two kinds of measurements:
//!
//! - **Full-replay rates** (`record_value`, also in the `--json` report): one timed
//!   end-to-end replay per configuration — the honest number for "how fast does a
//!   demand-scale month replay", where per-shard event application fans out over the
//!   worker pool.
//! - **Timed windows** (`bench_function`): consecutive stretches of a few thousand
//!   arrivals, so the harness can report a median/min/max like every other group. Each
//!   group builds its environment once, outside the timed closure, and every sample
//!   continues the replay where the previous one stopped — the samples time the replay,
//!   not dataset cloning or arena construction.
//!
//! Memory discipline: `VmHWM` (peak RSS) is monotonic for the process lifetime, so the
//! compact (f16) phase runs **first** — its peak is recorded before any f32 arena has a
//! chance to raise the high-water mark — and the f32 phases follow. The per-environment
//! `feature_arena_bytes` probes give the layout-level comparison independent of
//! allocator noise.
//!
//! `--smoke` (CI) shrinks to the tiny dataset and a bounded window; the full tier runs
//! with `cargo bench -p crowd-bench --bench sharded_scale`.

use std::time::Instant;

use crowd_bench::{
    criterion_group, criterion_main, peak_rss_bytes, record_value, smoke_mode, Criterion,
};
use crowd_sim::{Dataset, Decision, Env, Platform, ShardSpec, SimConfig};
use crowd_tensor::ThreadPool;

/// Rank the first `SHOWN` pool tasks per arrival — a constant-work stand-in policy, so
/// the numbers isolate the environment (event replay, arenas, routing), not a learner.
const SHOWN: usize = 64;

fn replay<E: Env>(env: &mut E) -> (usize, usize) {
    let mut decision = Decision::new();
    let mut arrivals = 0usize;
    let mut completions = 0usize;
    while env.next_arrival() {
        arrivals += 1;
        let view = env.arrival();
        if view.is_empty() {
            continue;
        }
        decision.clear();
        decision.extend((0..view.n_tasks().min(SHOWN)).map(|i| view.task_id(i)));
        env.apply(&decision);
        if env.feedback().completed.is_some() {
            completions += 1;
        }
    }
    env.flush();
    (arrivals, completions)
}

/// A bounded replay window (the next `limit` arrivals) for the repeatable timed samples.
fn replay_window<E: Env>(env: &mut E, limit: usize) -> usize {
    let mut decision = Decision::new();
    let mut arrivals = 0usize;
    while arrivals < limit && env.next_arrival() {
        arrivals += 1;
        let view = env.arrival();
        if view.is_empty() {
            continue;
        }
        decision.clear();
        decision.extend((0..view.n_tasks().min(SHOWN)).map(|i| view.task_id(i)));
        env.apply(&decision);
    }
    arrivals
}

fn sharded(dataset: &Dataset, spec: ShardSpec) -> Platform {
    let features = Platform::default_feature_space(dataset);
    Platform::sharded(dataset.clone(), features, 1, spec)
}

fn timed_replay(label: &str, env: &mut impl Env) {
    let start = Instant::now();
    let (arrivals, completions) = replay(env);
    let elapsed = start.elapsed().as_secs_f64();
    record_value(
        "sharded_scale",
        &format!("{label}/arrivals_per_sec"),
        arrivals as f64 / elapsed.max(1e-9),
        "arrivals/s",
    );
    record_value(
        "sharded_scale",
        &format!("{label}/completions"),
        completions as f64,
        "completions",
    );
}

fn record_peak(label: &str) {
    if let Some(peak) = peak_rss_bytes() {
        record_value("sharded_scale", label, peak as f64, "bytes");
    }
}

fn bench_sharded_scale(c: &mut Criterion) {
    let smoke = smoke_mode();
    // The smoke tier keeps CI fast; the full tier is the demand-scale claim
    // (~590x the paper's worker count, ~102x its task count).
    let config = if smoke {
        SimConfig::tiny()
    } else {
        SimConfig::massive()
    };
    let pool = ThreadPool::from_env();
    let dataset = config.generate();
    record_value(
        "sharded_scale",
        "dataset/workers",
        dataset.workers.len() as f64,
        "workers",
    );
    record_value(
        "sharded_scale",
        "dataset/tasks",
        dataset.tasks.len() as f64,
        "tasks",
    );
    record_peak("rss/after_generate");

    // Cold feature-arena footprint: the f16 arenas store task features at half width.
    let f32_env = sharded(&dataset, ShardSpec::new(8).with_pool(pool));
    let f16_env = sharded(&dataset, ShardSpec::new(8).compact(true).with_pool(pool));
    record_value(
        "sharded_scale",
        "arena_bytes/f32_fresh",
        f32_env.feature_arena_bytes() as f64,
        "bytes",
    );
    record_value(
        "sharded_scale",
        "arena_bytes/f16_fresh",
        f16_env.feature_arena_bytes() as f64,
        "bytes",
    );
    drop((f32_env, f16_env));

    // Phase 1 — compact arenas FIRST (VmHWM is monotonic; see module doc).
    {
        let mut env = sharded(&dataset, ShardSpec::new(8).compact(true).with_pool(pool));
        timed_replay("f16_shards8", &mut env);
        record_value(
            "sharded_scale",
            "arena_bytes/f16_after_replay",
            env.feature_arena_bytes() as f64,
            "bytes",
        );
    }
    record_peak("rss/peak_after_f16");

    // Phase 2 — full-precision: the shard-count sweep (one shard is the default layout).
    for n_shards in [1usize, 2, 4, 8] {
        let mut env = sharded(&dataset, ShardSpec::new(n_shards).with_pool(pool));
        timed_replay(&format!("f32_shards{n_shards}"), &mut env);
        if n_shards == 8 {
            record_value(
                "sharded_scale",
                "arena_bytes/f32_after_replay",
                env.feature_arena_bytes() as f64,
                "bytes",
            );
        }
    }
    record_peak("rss/peak_after_f32");

    // Timed windows: consecutive stretches of one replay per group. The harness takes
    // two warm-up windows plus the samples, so the window is sized for all of them to
    // fit in the stream.
    let samples = 10;
    let window = (dataset.n_arrivals() / (samples + 2)).min(4_000);
    let mut group = c.benchmark_group("sharded_scale");
    group.sample_size(samples);
    let specs = [
        ("window_f32_shards1", ShardSpec::new(1)),
        ("window_f32_shards8", ShardSpec::new(8)),
        ("window_f16_shards8", ShardSpec::new(8).compact(true)),
    ];
    for (label, spec) in specs {
        let mut env = sharded(&dataset, spec.with_pool(pool));
        group.bench_function(label, |b| b.iter(|| replay_window(&mut env, window)));
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_scale);
criterion_main!(benches);
