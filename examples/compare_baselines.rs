//! Runs the full worker-benefit policy line-up of the paper (Random, Taskrec, Greedy CS,
//! Greedy NN, LinUCB, DDQN) on a small synthetic dataset and prints a comparison table —
//! a miniature version of the Fig. 7 experiment.
//!
//! All six policies are driven as one `SessionBatch`: every call steps each live
//! simulation by one arrival (the vectorized-env shape that batched Q-network inference
//! plugs into later). The session/policy pairs are sharded across a worker pool —
//! `--threads N` (or `CROWD_THREADS`) controls the width, defaulting to the machine's
//! available parallelism; results are bit-identical at any thread count.
//!
//! Run with: `cargo run --release -p crowd-experiments --example compare_baselines [-- --threads N]`

use crowd_baselines::Benefit;
use crowd_experiments::{
    experiment_thread_pool, f3, policies_for_benefit, print_table, run_policies_lockstep,
    RunnerConfig, Scale,
};

fn main() {
    let scale = Scale::Tiny;
    let pool = experiment_thread_pool();
    let dataset = scale.sim_config().generate();
    let cfg = RunnerConfig::default();

    let policies = policies_for_benefit(&dataset, Benefit::Worker, scale);
    eprintln!(
        "stepping {} policies in lock-step on {} thread(s) ...",
        policies.len(),
        pool.threads()
    );
    let outcomes = run_policies_lockstep(&dataset, policies, &cfg, pool);

    let mut rows = Vec::new();
    for outcome in &outcomes {
        let s = outcome.summary();
        rows.push(vec![
            outcome.policy.clone(),
            f3(s.cr),
            f3(s.k_cr),
            f3(s.ndcg_cr),
            format!("{:.5}", outcome.update_timer.mean_seconds()),
        ]);
    }
    print_table(
        "Worker-benefit comparison (tiny synthetic dataset)",
        &["method", "CR", "kCR", "nDCG-CR", "update (s)"],
        &rows,
    );
    println!("\nFor the full experiment use: cargo run --release -p crowd-experiments --bin fig7_worker_benefit");
}
