//! Demand-scale replay benchmark: one full replay of the `SimConfig::massive` tier
//! (~1M workers, ~240k tasks — two orders of magnitude over the paper's CrowdSpring
//! trace) through `Platform::new`, reporting arrivals/second, the feature-arena bytes
//! and the process peak RSS after each phase.
//!
//! The dataset is moved into the platform, never cloned, so the RSS readings are the
//! replay's own: `rss/peak_after_generate` is the dataset, `rss/peak_after_build` adds
//! the platform's arenas (`arena_bytes`), and `rss/peak_after_replay` is whatever the
//! replay itself grows (completer lists, the routed pool). `VmHWM` only ever grows, so
//! each reading is the peak up to that point.
//!
//! `--smoke` (CI) shrinks to the tiny dataset; the full tier runs with
//! `cargo bench -p crowd-bench --bench replay_scale`.

use std::time::Instant;

use crowd_bench::{
    criterion_group, criterion_main, peak_rss_bytes, record_value, smoke_mode, Criterion,
};
use crowd_sim::{Decision, Env, Platform, SimConfig};

const GROUP: &str = "replay_scale";

/// Rank the first `SHOWN` pool tasks per arrival — a constant-work stand-in policy, so
/// the numbers isolate the environment (event replay, arenas, pool upkeep), not a learner.
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

fn record_peak(label: &str) {
    if let Some(peak) = peak_rss_bytes() {
        record_value(GROUP, label, peak as f64, "bytes");
    }
}

fn bench_replay_scale(_: &mut Criterion) {
    // The smoke tier keeps CI fast; the full tier is the demand-scale replay
    // (~590x the paper's worker count, ~102x its task count).
    let config = if smoke_mode() {
        SimConfig::tiny()
    } else {
        SimConfig::massive()
    };
    let dataset = config.generate();
    record_value(
        GROUP,
        "dataset/workers",
        dataset.workers.len() as f64,
        "workers",
    );
    record_value(GROUP, "dataset/tasks", dataset.tasks.len() as f64, "tasks");
    record_peak("rss/peak_after_generate");

    let features = Platform::default_feature_space(&dataset);
    let mut env = Platform::new(dataset, features, 1);
    record_value(
        GROUP,
        "arena_bytes",
        env.feature_arena_bytes() as f64,
        "bytes",
    );
    record_peak("rss/peak_after_build");

    let start = Instant::now();
    let (arrivals, completions) = replay(&mut env);
    let elapsed = start.elapsed().as_secs_f64();
    record_value(
        GROUP,
        "replay/arrivals_per_sec",
        arrivals as f64 / elapsed.max(1e-9),
        "arrivals/s",
    );
    record_value(
        GROUP,
        "replay/completions",
        completions as f64,
        "completions",
    );
    record_peak("rss/peak_after_replay");
}

criterion_group!(benches, bench_replay_scale);
criterion_main!(benches);
