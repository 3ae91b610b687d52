//! Parallel session stepping and the concurrent two-learner update — the wall-clock side
//! of the `threads=1 ≡ threads=k` bit-identity contract (`tests/parallel_equivalence.rs`
//! proves the results never change; this bench measures what the threads buy).
//!
//! * `session_stepping/<sessions>s/<threads>t` — a full tiny-dataset replay of N
//!   independent sessions, each paired with its own *training* DDQN agent, driven by
//!   `SessionBatch::run_all` on a `threads`-wide pool. Sessions are
//!   embarrassingly parallel (each owns its environment, policy and RNG streams), so on
//!   real multi-core hardware the 32-session row should scale to ≥ 2× at 8 threads; on a
//!   single-core container every thread count collapses to roughly the serial time.
//! * `two_learner_update/serial|par_join/<B>` — one DDQN update round of both benefit
//!   branches (worker + requester) at minibatch size B: back-to-back `learn` calls vs the
//!   `ThreadPool::par_join` dispatch `DdqnAgent::observe` uses. The branches share
//!   nothing, so par_join's win is the full overlap minus one scoped-thread spawn.
//!
//! Smoke mode (`--smoke` / `CROWD_BENCH_SMOKE=1`) shrinks the grid and the sample count
//! so CI can build and run the bench without measuring anything meaningful.

use crowd_bench::{criterion_group, criterion_main, synthetic_state, BenchmarkId, Criterion};
use crowd_experiments::{RunnerConfig, Session, SessionBatch};
use crowd_rl_core::{
    DdqnAgent, DdqnConfig, DqnLearner, FutureBranch, StateKind, StateTransformer, Transition,
};
use crowd_sim::{BoxedPolicy, Dataset, Platform, SimConfig};
use crowd_tensor::{Rng, ThreadPool};
use std::sync::Arc;

fn agent_config() -> DdqnConfig {
    DdqnConfig {
        max_tasks: 24,
        hidden_dim: 16,
        num_heads: 2,
        batch_size: 8,
        buffer_size: 128,
        learn_every: 8,
        ..DdqnConfig::default()
    }
}

/// One full replay of `n_sessions` training DDQN agents on `pool`; returns the total
/// evaluated arrivals (the throughput denominator, and a value the optimizer can't drop).
fn run_session_grid(dataset: &Dataset, n_sessions: usize, pool: ThreadPool) -> usize {
    let features = Platform::default_feature_space(dataset);
    let cfg = RunnerConfig::default();
    let mut batch = SessionBatch::new().with_pool(pool);
    let mut policies: Vec<BoxedPolicy> = Vec::new();
    for i in 0..n_sessions {
        // Agents keep their default serial internal pool: the outer session sharding is
        // what this bench measures, and nesting pools would oversubscribe the cores.
        let agent = DdqnAgent::new(
            DdqnConfig {
                seed: 1000 + i as u64,
                ..agent_config().worker_only()
            },
            features.task_dim(),
            features.worker_dim(),
        );
        policies.push(Box::new(agent));
        batch.push(Session::for_dataset(
            dataset,
            &RunnerConfig {
                platform_seed: 9_000 + i as u64,
                ..cfg.clone()
            },
        ));
    }
    batch.run_all(&mut policies);
    batch
        .finish(&policies)
        .iter()
        .map(|o| o.evaluated_arrivals)
        .sum()
}

fn bench_session_stepping(c: &mut Criterion) {
    let dataset = SimConfig::tiny().generate();
    let (session_counts, thread_counts): (&[usize], &[usize]) = if crowd_bench::smoke_mode() {
        (&[4], &[1, 2])
    } else {
        (&[8, 32], &[1, 2, 4, 8])
    };
    let mut group = c.benchmark_group("session_stepping");
    group.sample_size(3);
    for &sessions in session_counts {
        for &threads in thread_counts {
            group.bench_with_input(
                BenchmarkId::new(format!("{sessions}s"), format!("{threads}t")),
                &threads,
                |b, &threads| {
                    b.iter(|| run_session_grid(&dataset, sessions, ThreadPool::new(threads)))
                },
            );
        }
    }
    group.finish();
}

/// A learner with a pre-filled replay memory of mixed pool sizes and 2 future branches
/// per transition (same fixture shape as `batched_training.rs`).
fn prepared_learner(kind: StateKind, batch_size: usize, seed: u64) -> DqnLearner {
    const MAX_TASKS: usize = 16;
    const TASK_DIM: usize = 8;
    const WORKER_DIM: usize = 8;
    let config = DdqnConfig {
        max_tasks: MAX_TASKS,
        hidden_dim: 32,
        num_heads: 4,
        batch_size,
        buffer_size: 256,
        ..DdqnConfig::default()
    };
    let tf = StateTransformer::new(kind, MAX_TASKS, TASK_DIM, WORKER_DIM);
    let mut rng = Rng::seed_from(seed);
    let mut learner = DqnLearner::new(&config, tf.row_dim(), 0.3, &mut rng);
    let mut fill_rng = Rng::seed_from(seed ^ 0xABCD);
    let n_fill = if crowd_bench::smoke_mode() {
        batch_size + 8
    } else {
        192
    };
    for _ in 0..n_fill {
        let pool = 4 + fill_rng.below(MAX_TASKS - 3);
        let state = synthetic_state(&tf, pool, TASK_DIM, WORKER_DIM, &mut fill_rng);
        let branches: Vec<FutureBranch> = (0..2)
            .map(|_| FutureBranch {
                probability: fill_rng.uniform(0.1, 0.5),
                state: synthetic_state(
                    &tf,
                    1 + fill_rng.below(MAX_TASKS),
                    TASK_DIM,
                    WORKER_DIM,
                    &mut fill_rng,
                ),
            })
            .collect();
        learner.store_transition(Transition {
            action_row: fill_rng.below(pool),
            reward: if fill_rng.unit() < 0.5 { 1.0 } else { 0.0 },
            state,
            branches: Arc::new(branches),
        });
    }
    learner
}

fn bench_two_learner_update(c: &mut Criterion) {
    let batches: &[usize] = if crowd_bench::smoke_mode() {
        &[16]
    } else {
        &[16, 32, 64]
    };
    let mut group = c.benchmark_group("two_learner_update");
    group.sample_size(10);
    for &batch in batches {
        group.bench_with_input(BenchmarkId::new("serial", batch), &batch, |b, &batch| {
            let mut worker = prepared_learner(StateKind::Worker, batch, 11);
            let mut requester = prepared_learner(StateKind::Requester, batch, 22);
            b.iter(|| {
                let w = worker.learn().unwrap().unwrap().loss;
                let r = requester.learn().unwrap().unwrap().loss;
                w + r
            })
        });
        group.bench_with_input(BenchmarkId::new("par_join", batch), &batch, |b, &batch| {
            let mut worker = prepared_learner(StateKind::Worker, batch, 11);
            let mut requester = prepared_learner(StateKind::Requester, batch, 22);
            let pool = ThreadPool::new(2);
            b.iter(|| {
                let (w, r) = pool.par_join(|| worker.learn(), || requester.learn());
                w.unwrap().unwrap().loss + r.unwrap().unwrap().loss
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_session_stepping, bench_two_learner_update);
criterion_main!(benches);
