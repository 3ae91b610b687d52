//! Q-network inference latency as the available-task pool grows (the decision-time half of
//! the paper's efficiency story): one `SetQNetwork::infer_batch` over a single state, the
//! pass `DdqnAgent::act` runs per active network for every arrival.

use crowd_bench::synthetic_context;
use crowd_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_nn::ParamStore;
use crowd_rl_core::{SetQNetwork, StateKind, StateTransformer};
use crowd_tensor::Rng;

fn bench_forward(c: &mut Criterion) {
    let feature_dim = 20;
    let hidden = 32;
    let mut group = c.benchmark_group("qnetwork_forward");
    group.sample_size(20);
    for &pool in &[10usize, 50, 100] {
        let mut rng = Rng::seed_from(0);
        let mut store = ParamStore::new();
        let net = SetQNetwork::new(&mut store, "q", 2 * feature_dim, hidden, 4, &mut rng);
        let transformer = StateTransformer::new(StateKind::Worker, pool, feature_dim, feature_dim);
        let ctx = synthetic_context(pool, feature_dim, 7);
        let state = transformer.from_context(&ctx);
        group.bench_with_input(BenchmarkId::from_parameter(pool), &pool, |b, _| {
            b.iter(|| net.infer_batch(&store, &[&state]).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
