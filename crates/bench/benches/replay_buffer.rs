//! Prioritized replay push/sample/update throughput (Sec. IV-D uses prioritized experience
//! replay; this bench shows its overhead is negligible next to the network update).

use crowd_bench::{criterion_group, criterion_main, Criterion};
use crowd_rl_kit::PrioritizedReplay;
use crowd_tensor::Rng;

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_buffer");
    group.sample_size(30);

    group.bench_function("prioritized_push_sample_update_1000", |b| {
        b.iter(|| {
            let mut buf = PrioritizedReplay::new(1000);
            let mut rng = Rng::seed_from(0);
            for i in 0..1000u32 {
                buf.push(i);
            }
            let samples = buf.sample(64, &mut rng);
            for s in &samples {
                buf.update_priority(s.index, 0.5);
            }
            samples.len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
