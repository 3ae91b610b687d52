//! Shared helpers for the Criterion micro-benchmarks.
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `qnetwork_forward` — Q-network inference latency vs pool size;
//! * `batched_inference` — per-arrival vs batched decision latency at `N ∈ {1, 8, 32,
//!   128}` simultaneous simulations (the `SessionBatch::step_batched` hot path);
//! * `attention` — multi-head self-attention forward/backward latency;
//! * `update_latency` — one full model update (LinUCB vs DDQN) vs pool size, the
//!   micro-benchmark version of Table I and Fig. 10(d);
//! * `replay_buffer` — prioritized replay push/sample throughput;
//! * `simulator_throughput` — platform event replay throughput;
//! * `batched_training` — packed (one autograd graph per minibatch) vs sequential
//!   (per-transition, [`reference::SequentialLearner`]) DDQN learning step at
//!   `B ∈ {16, 32, 64}`;
//! * `parallel_throughput` — full-replay session stepping across a sessions × threads
//!   grid (`SessionBatch::run_all`) and the serial vs `par_join` two-learner
//!   update round;
//! * `serve_latency` — end-to-end decision latency (p50/p99/p999) and max sustained
//!   throughput of the `crowd-serve` micro-batching service under Poisson and bursty
//!   open-loop load at several client counts (uses [`latency::LatencyHistogram`]),
//!   plus durable-backend cells: a real decision log (fsync per batch) and the same
//!   log behind `Fs::faulty` with a deterministic 2 ms `SyncData` latency — the
//!   tail-latency cost of a degraded flush path, reproducible on any machine;
//! * `kernel_throughput` — the vectorised matmul kernels against the scalar
//!   references in [`reference`](mod@reference) at every benchmarked shape (the speed half of the
//!   `tests/kernel_equivalence.rs` fence: the blocked kernels must be strictly
//!   faster), plus the serial-vs-persistent-pool dispatch edge on large products;
//! * `replay_scale` — one `Platform` replay of the massive tier (~100× the paper's
//!   dataset scale): arrivals/sec, feature-arena bytes, and peak RSS
//!   ([`rss::peak_rss_bytes`]) after generation, after build and after the replay.
//!
//! Every bench supports `--json <path>` / `CROWD_BENCH_JSON` for machine-readable
//! results (see [`harness`]).

use crowd_rl_core::{Experience, FutureBranch, StateTensor, StateTransformer};
use crowd_sim::{ArrivalContext, TaskId, TaskSnapshot, WorkerId};
use crowd_tensor::{Matrix, Rng};
use std::sync::Arc;

pub mod ckpt_fixtures;
pub mod harness;
pub mod latency;
pub mod reference;
pub mod rss;
pub mod serve_fixtures;

pub use harness::{
    json_report_path, record_value, smoke_mode, write_json_report, Bencher, BenchmarkGroup,
    BenchmarkId, Criterion,
};
pub use latency::{format_latency, LatencyHistogram, LatencySummary};
pub use rss::peak_rss_bytes;

/// Builds a synthetic arrival context with `n_tasks` available tasks and `feature_dim`-wide
/// features, used by several benches.
pub fn synthetic_context(n_tasks: usize, feature_dim: usize, seed: u64) -> ArrivalContext {
    let mut rng = Rng::seed_from(seed);
    ArrivalContext {
        time: 1_000,
        worker_id: WorkerId(0),
        worker_feature: (0..feature_dim).map(|_| rng.unit()).collect(),
        worker_quality: 0.7,
        is_new_worker: false,
        available: (0..n_tasks as u32)
            .map(|i| TaskSnapshot {
                id: TaskId(i),
                feature: (0..feature_dim).map(|_| rng.unit()).collect(),
                quality: rng.unit(),
                award: 50.0,
                category: (i % 5) as u16,
                domain: (i % 7) as u16,
                deadline: 2_000 + 250 * i as u64,
                completions: 0,
            })
            .collect(),
    }
}

/// One random task snapshot with `task_dim`-wide features, for learner fixtures (states,
/// transitions). Shared by `benches/batched_training.rs` and
/// `tests/packed_learning_equivalence.rs` so the fixtures cannot drift apart.
pub fn synthetic_snapshot(id: u32, task_dim: usize, rng: &mut Rng) -> TaskSnapshot {
    TaskSnapshot {
        id: TaskId(id),
        feature: (0..task_dim).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        quality: rng.uniform(0.0, 1.0),
        award: rng.uniform(1.0, 20.0),
        category: 0,
        domain: 0,
        deadline: 1_000 + rng.below(5_000) as u64,
        completions: 0,
    }
}

/// A random state over `pool` tasks built through `tf` (worker feature and quality drawn
/// from `rng`; `pool` may be 0 for an empty-pool state). `worker_dim` must match the
/// transformer's worker dimension.
pub fn synthetic_state(
    tf: &StateTransformer,
    pool: usize,
    task_dim: usize,
    worker_dim: usize,
    rng: &mut Rng,
) -> StateTensor {
    let snaps: Vec<TaskSnapshot> = (0..pool as u32)
        .map(|i| synthetic_snapshot(i, task_dim, rng))
        .collect();
    let worker: Vec<f32> = (0..worker_dim).map(|_| rng.uniform(0.0, 1.0)).collect();
    tf.build(&snaps, &worker, rng.uniform(0.0, 1.0))
}

/// An experience over `state` whose branches are `(probability, branch state)` in order,
/// stored as disjoint windows of one future tensor: the branch states concatenated.
/// Shared by the learner benches and `tests/packed_learning_equivalence.rs`.
pub fn synthetic_experience(
    state: StateTensor,
    branch_states: Vec<(f32, StateTensor)>,
) -> Arc<Experience> {
    let row_dim = state.features().cols();
    let mut features = Vec::new();
    let mut task_ids = Vec::new();
    let mut branches = Vec::with_capacity(branch_states.len());
    for (probability, branch) in branch_states {
        branches.push(FutureBranch {
            probability,
            first_row: task_ids.len(),
            rows: branch.real_tasks(),
        });
        features.extend_from_slice(branch.features().as_slice());
        task_ids.extend_from_slice(branch.task_ids());
    }
    let rows = task_ids.len();
    let future = StateTensor::new(
        Matrix::from_vec(rows, row_dim, features).expect("whole rows of the state's width"),
        task_ids,
    )
    .expect("one task id per row");
    Arc::new(Experience {
        state,
        future,
        branches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_state_has_requested_pool() {
        use crowd_rl_core::StateKind;
        let tf = StateTransformer::new(StateKind::Worker, 8, 4, 3);
        let mut rng = Rng::seed_from(5);
        let st = synthetic_state(&tf, 5, 4, 3, &mut rng);
        assert_eq!(st.real_tasks(), 5);
        // Exactly the requested rows, no padding up to max_tasks = 8.
        assert_eq!(st.features().shape(), (5, 7));
        assert_eq!(synthetic_state(&tf, 0, 4, 3, &mut rng).real_tasks(), 0);
    }

    #[test]
    fn synthetic_experience_windows_its_branch_states() {
        use crowd_rl_core::StateKind;
        let tf = StateTransformer::new(StateKind::Worker, 8, 4, 3);
        let mut rng = Rng::seed_from(6);
        let state = synthetic_state(&tf, 3, 4, 3, &mut rng);
        let branches: Vec<(f32, StateTensor)> = [2, 0, 5]
            .iter()
            .map(|&pool| (0.25, synthetic_state(&tf, pool, 4, 3, &mut rng)))
            .collect();
        let experience = synthetic_experience(state, branches.clone());
        assert_eq!(experience.future.real_tasks(), 7);
        for (branch, (_, expected)) in experience.branches.iter().zip(&branches) {
            assert_eq!(experience.branch_rows(branch), expected.as_rows());
        }
    }

    #[test]
    fn synthetic_context_has_requested_shape() {
        let ctx = synthetic_context(12, 6, 1);
        assert_eq!(ctx.available.len(), 12);
        assert_eq!(ctx.worker_feature.len(), 6);
        assert!(ctx.available.iter().all(|t| t.feature.len() == 6));
    }

    #[test]
    fn synthetic_context_is_deterministic() {
        assert_eq!(synthetic_context(4, 3, 9), synthetic_context(4, 3, 9));
    }
}
