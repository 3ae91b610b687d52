//! Platform event-replay throughput: how fast the simulator itself runs when a trivial
//! full-pool policy is attached (shows the experiment harness is not the bottleneck).
//! Every replay goes through the zero-copy `Env` path: borrowed views over the
//! platform's arenas and one reusable `Decision` buffer.

use crowd_bench::{criterion_group, criterion_main, Criterion};
use crowd_sim::{Dataset, Decision, Env, Platform, SimConfig};

/// One full replay showing the whole pool at every arrival; returns the completions.
fn replay_full_pool(dataset: &Dataset) -> usize {
    let features = Platform::default_feature_space(dataset);
    let mut platform = Platform::new(dataset.clone(), features, 1);
    let mut decision = Decision::new();
    let mut completions = 0usize;
    while platform.next_arrival() {
        let view = platform.arrival();
        if view.is_empty() {
            continue;
        }
        decision.clear();
        decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
        platform.apply(&decision);
        if platform.feedback().completed.is_some() {
            completions += 1;
        }
    }
    completions
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_throughput");
    group.sample_size(10);

    let tiny = SimConfig::tiny().generate();
    group.bench_function("replay_tiny_full_pool", |b| {
        b.iter(|| replay_full_pool(&tiny))
    });

    // The larger dataset, where pools are deeper.
    let small = SimConfig::small().generate();
    group.bench_function("replay_small_full_pool", |b| {
        b.iter(|| replay_full_pool(&small))
    });

    group.bench_function("generate_small_dataset", |b| {
        b.iter(|| SimConfig::small().generate().events.len())
    });

    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
