//! Sharded replay: the same policy run on a one-shard `Platform` and on sharded
//! platforms at several shard counts, demonstrating the sharding contract — **sharding is
//! a layout and parallelism decision, never a semantics decision**. Every run below
//! produces bit-identical metrics, completions and final platform state (compare the
//! canonical fingerprints it prints).
//!
//! The example also opts one run into the compact (f16) feature arenas, the explicit
//! memory/precision trade for demand-scale replays: task features quantise losslessly
//! (one-hot components are f16-exact), worker features round to the nearest binary16 on
//! every commit, so the compact run's metrics drift slightly while its cold feature
//! storage is half the size.
//!
//! Run with: `cargo run --release -p crowd-experiments --example sharded_replay [-- --threads N]`

use crowd_baselines::{Benefit, LinUcb, ListMode};
use crowd_experiments::{experiment_thread_pool, RunnerConfig, Session};
use crowd_sim::{Env, ShardSpec, SimConfig};

fn main() {
    let pool = experiment_thread_pool();
    let dataset = SimConfig::tiny().generate();
    let config = RunnerConfig::default();
    let make_policy = || LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);

    // 1. Reference: the default one-shard platform.
    let mut reference = Session::for_dataset(&dataset, &config);
    reference.run(&mut make_policy());
    let summary = reference.metrics().summary();
    let env = reference.env_mut();
    env.flush();
    println!(
        "platform      : CR {:.3}  completions {:>4}  fingerprint {:08x}",
        summary.cr,
        env.total_completions(),
        env.canonical_fingerprint(),
    );

    // 2. Sharded runs: entity state partitioned across shards, per-shard event
    //    application fanned out over the worker pool. Identical output at every count.
    for n_shards in [1, 2, 8] {
        let spec = ShardSpec::new(n_shards).with_pool(pool);
        let mut session = Session::for_dataset_sharded(&dataset, &config, spec);
        session.run(&mut make_policy());
        let summary = session.metrics().summary();
        let env = session.env_mut();
        Env::flush(env);
        println!(
            "{n_shards} shard(s)    : CR {:.3}  completions {:>4}  fingerprint {:08x}  ({} thread(s))",
            summary.cr,
            Env::total_completions(env),
            env.canonical_fingerprint(),
            pool.threads(),
        );
    }

    // 3. Compact arenas: same replay, f16 feature storage. Deterministic (and
    //    shard-count invariant, see tests/shard_equivalence.rs) but intentionally not
    //    bit-identical to f32 — the fingerprint differs while metrics stay close.
    let spec = ShardSpec::new(8).compact(true).with_pool(pool);
    let mut compact = Session::for_dataset_sharded(&dataset, &config, spec);
    compact.run(&mut make_policy());
    let summary = compact.metrics().summary();
    let env = compact.env_mut();
    Env::flush(env);
    println!(
        "8 shards (f16): CR {:.3}  completions {:>4}  fingerprint {:08x}  arenas {} B",
        summary.cr,
        Env::total_completions(env),
        env.canonical_fingerprint(),
        env.feature_arena_bytes(),
    );
}
