//! Per-arrival vs batched decision latency across `N` simultaneous simulations — the
//! micro-benchmark behind `SessionBatch::step_batched`.
//!
//! Two levels are measured at `N ∈ {1, 8, 32, 128}`:
//!
//! * `qnetwork_batched_inference` — one single-state `SetQNetwork::infer_batch` per state
//!   vs one `SetQNetwork::infer_batch` over the packed `[Σ pool sizes, row_dim]` buffer;
//! * `ddqn_decision_latency` — the full frozen-agent decision path (state build, combined
//!   Q, explorer, ranking) via `N` `act` calls vs one `act_batch` call.
//!
//! Compare `sequential/N` against `batched/N` (both closures process all `N` arrivals, so
//! the printed totals divide by the same `N`). Both paths score only real task rows; the
//! batched one wins by amortising one matmul dispatch and one output allocation per layer
//! over the whole batch. Per-arrival latency should sit strictly below the sequential path
//! from `N = 8` up.
//!
//! Pool sizes vary per simulation (as they do across a real `SessionBatch` round); the
//! state capacity is the agent's `max_tasks` = 32, the paper's production setting.

use crowd_bench::{criterion_group, criterion_main, synthetic_context, BenchmarkId, Criterion};
use crowd_nn::ParamStore;
use crowd_rl_core::{DdqnAgent, DdqnConfig, SetQNetwork, StateKind, StateTensor, StateTransformer};
use crowd_sim::{ArrivalContext, BatchedPolicy, Decision, Policy};
use crowd_tensor::Rng;

const BATCH_SIZES: &[usize] = &[1, 8, 32, 128];
const MAX_TASKS: usize = 32;
const FEATURE_DIM: usize = 20;

/// Pool size of the `i`-th simulation in a batch: 12..=30 available tasks, varying across
/// the batch the way independent replicas' pools do.
fn pool_size(i: usize) -> usize {
    12 + (i * 7) % 19
}

fn bench_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("qnetwork_batched_inference");
    group.sample_size(30);
    let mut rng = Rng::seed_from(0);
    let mut store = ParamStore::new();
    let net = SetQNetwork::new(&mut store, "q", 2 * FEATURE_DIM, 32, 4, &mut rng);
    let transformer = StateTransformer::new(StateKind::Worker, MAX_TASKS, FEATURE_DIM, FEATURE_DIM);
    for &n in BATCH_SIZES {
        let states: Vec<StateTensor> = (0..n)
            .map(|i| {
                transformer.from_context(&synthetic_context(pool_size(i), FEATURE_DIM, i as u64))
            })
            .collect();
        let refs: Vec<&StateTensor> = states.iter().collect();
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| {
                refs.iter()
                    .map(|&state| net.infer_batch(&store, &[state]).unwrap()[0].len())
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| net.infer_batch(&store, &refs).unwrap().len())
        });
    }
    group.finish();
}

fn bench_agent_decisions(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddqn_decision_latency");
    group.sample_size(20);
    for &n in BATCH_SIZES {
        let contexts: Vec<ArrivalContext> = (0..n)
            .map(|i| synthetic_context(pool_size(i), FEATURE_DIM, 100 + i as u64))
            .collect();
        let config = DdqnConfig {
            max_tasks: MAX_TASKS,
            hidden_dim: 32,
            num_heads: 4,
            ..DdqnConfig::default()
        };
        let mut agent = DdqnAgent::new(config, FEATURE_DIM, FEATURE_DIM);
        agent.freeze_exploration();
        agent.freeze_learning();
        let views: Vec<_> = contexts.iter().map(|ctx| ctx.view()).collect();
        let mut decisions: Vec<Decision> = (0..n).map(|_| Decision::new()).collect();
        group.bench_with_input(BenchmarkId::new("per_arrival", n), &n, |b, _| {
            b.iter(|| {
                for (view, decision) in views.iter().zip(decisions.iter_mut()) {
                    agent.act(view, decision);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, _| {
            b.iter(|| agent.act_batch(&views, &mut decisions))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_network, bench_agent_decisions);
criterion_main!(benches);
