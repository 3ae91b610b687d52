//! Packed vs sequential DDQN learning step — the training-side counterpart of
//! `batched_inference.rs`.
//!
//! `DqnLearner::learn` differentiates the whole minibatch as one autograd graph
//! (`SetQNetwork::forward_batch` + one in-graph weighted masked MSE) and computes all
//! double-DQN targets with at most two packed `infer_batch` passes (the θ̃ one only over
//! branch lists its cache has not scored since the last target sync); `learn_sequential` is the
//! retained pre-packing reference (B separate graphs per update, per-branch single-state
//! target inference). Both run the same prioritized sampling on identically seeded
//! learners, so the measured gap is the packing win: no padded-row compute, one
//! forward/backward sweep instead of B, and two target passes instead of
//! `2 · Σ branches`.

use crowd_bench::{criterion_group, criterion_main, synthetic_state, BenchmarkId, Criterion};
use crowd_rl_core::{
    DdqnConfig, DqnLearner, FutureBranch, StateKind, StateTransformer, Transition,
};
use crowd_tensor::Rng;
use std::sync::Arc;

const MAX_TASKS: usize = 16;
const TASK_DIM: usize = 8;
const WORKER_DIM: usize = 8;

/// Builds an identically seeded learner with a pre-filled replay memory: mixed pool sizes
/// (the packed path's unequal segments) and 2 future branches per transition (the target
/// batching win). The learner owns its minibatch-sampling RNG, so identically seeded
/// learners draw identical minibatch sequences.
fn prepared_learner(batch_size: usize) -> DqnLearner {
    let config = DdqnConfig {
        max_tasks: MAX_TASKS,
        hidden_dim: 32,
        num_heads: 4,
        batch_size,
        buffer_size: 256,
        ..DdqnConfig::default()
    };
    let tf = StateTransformer::new(StateKind::Worker, MAX_TASKS, TASK_DIM, WORKER_DIM);
    let mut rng = Rng::seed_from(4242);
    let mut learner = DqnLearner::new(&config, tf.row_dim(), 0.3, &mut rng);
    let mut fill_rng = Rng::seed_from(99);
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

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_training");
    group.sample_size(10);

    for &batch in &[16usize, 32, 64] {
        group.bench_with_input(BenchmarkId::new("packed", batch), &batch, |b, &batch| {
            let mut learner = prepared_learner(batch);
            b.iter(|| learner.learn().unwrap().unwrap().loss)
        });
        group.bench_with_input(
            BenchmarkId::new("sequential", batch),
            &batch,
            |b, &batch| {
                let mut learner = prepared_learner(batch);
                b.iter(|| learner.learn_sequential().unwrap().unwrap().loss)
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
