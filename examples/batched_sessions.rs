//! Batched sessions: step 8 independent simulations with one shared DDQN agent, letting
//! every round's arrivals share a single Q-network forward pass via
//! `SessionBatch::step_batched`.
//!
//! Each session replays the same dataset under a different behaviour-model seed — the
//! scenario-sweep shape (N replicas of one policy) that batched inference makes cheap.
//! With learning frozen the batched rounds are bit-identical to stepping the sessions one
//! `act` at a time (see `tests/batched_equivalence.rs`); here we train for a while first,
//! then freeze and sweep.
//!
//! A worker pool (`--threads N`, `CROWD_THREADS`, or the machine default) parallelises
//! the agent's training (the two learners and their packed kernels) and the row-sharded
//! kernels of the shared forward pass; the batched round itself is serial. Results are
//! bit-identical at any thread count.
//!
//! Run with: `cargo run --release -p crowd-experiments --example batched_sessions [-- --threads N]`

use crowd_experiments::{experiment_thread_pool, run_policy, RunnerConfig, Session, SessionBatch};
use crowd_rl_core::{DdqnAgent, DdqnConfig};
use crowd_sim::{Platform, SimConfig};

const N_SESSIONS: usize = 8;

fn main() {
    let pool = experiment_thread_pool();
    // 1. Generate a synthetic CrowdSpring-like dataset and a DDQN agent for its feature
    //    dimensions.
    let dataset = SimConfig::tiny().generate();
    let features = Platform::default_feature_space(&dataset);
    let mut agent = DdqnAgent::new(
        DdqnConfig {
            hidden_dim: 16,
            num_heads: 2,
            batch_size: 8,
            learn_every: 4,
            ..DdqnConfig::default()
        },
        features.task_dim(),
        features.worker_dim(),
    );

    // 2. Train online over one replay (the pool lets the agent's packed kernels and
    //    two-learner dispatch parallelise), then freeze the policy for evaluation.
    agent.set_thread_pool(pool);
    run_policy(&dataset, &mut agent, &RunnerConfig::default());
    agent.freeze_exploration();
    agent.freeze_learning();

    // 3. Build 8 sessions over the same dataset with different behaviour seeds: the same
    //    frozen policy faces 8 different realisations of worker behaviour.
    let mut batch = SessionBatch::new();
    for i in 0..N_SESSIONS {
        let config = RunnerConfig {
            platform_seed: 10_000 + i as u64,
            ..RunnerConfig::default()
        };
        batch.push(Session::for_dataset(&dataset, &config));
    }

    // 4. Step every live session once per round; each round packs all pending arrivals'
    //    state rows into one Q-network forward pass.
    let mut rounds = 0;
    while batch.step_batched(&mut agent) > 0 {
        rounds += 1;
    }
    println!(
        "{N_SESSIONS} sessions finished in {rounds} batched rounds on {} thread(s)",
        pool.threads()
    );

    // 5. One outcome per replica: the spread over behaviour seeds is the error bar a
    //    single sequential run cannot give you.
    let outcomes = batch.finish_shared("DDQN (frozen)");
    for (i, outcome) in outcomes.iter().enumerate() {
        let summary = outcome.summary();
        println!(
            "seed {:>5}: CR {:.3}  nDCG-CR {:.3}  completions {:>4}  mean act {:.1} µs",
            10_000 + i,
            summary.cr,
            summary.ndcg_cr,
            outcome.total_completions,
            outcome.act_timer.mean_seconds() * 1e6,
        );
    }
    let mean_cr =
        outcomes.iter().map(|o| o.summary().cr).sum::<f32>() / outcomes.len().max(1) as f32;
    println!("mean completion rate over {N_SESSIONS} behaviour seeds: {mean_cr:.3}");
}
