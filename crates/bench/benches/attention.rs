//! Multi-head self-attention forward and backward latency — the dominant cost inside the
//! Q-network (ablation support for the architecture choice of Fig. 3).
//!
//! Two groups at the Small tier's shape (model width 32, 4 heads): `attention` times one
//! pool — `infer_packed` and taped `forward_packed` + backward over a single segment, as
//! an act pass and a one-state graph run them; `attention_packed` times the packed paths
//! the learner runs — `infer_packed` over 64 pools, as in a target pass over a
//! minibatch's future branches, and `forward_packed` + backward over 16 pools, as in one
//! minibatch's training graph. Pool sizes are drawn around 16 rows.

use crowd_autograd::Graph;
use crowd_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_nn::{GraphBinding, MultiHeadSelfAttention, ParamStore, PoolSegment};
use crowd_tensor::{Matrix, Rng};

/// Back-to-back segments of 8–24 rows (mean 16).
fn packed_segments(count: usize, rng: &mut Rng) -> Vec<PoolSegment> {
    let mut start = 0;
    (0..count)
        .map(|_| {
            let rows = rng.range(8, 25);
            let seg = PoolSegment { start, rows };
            start += rows;
            seg
        })
        .collect()
}

fn bench_attention_packed(c: &mut Criterion) {
    let dim = 32;
    let mut group = c.benchmark_group("attention_packed");
    group.sample_size(20);
    let mut rng = Rng::seed_from(2);
    let mut store = ParamStore::new();
    let attn = MultiHeadSelfAttention::new(&mut store, "attn", dim, 4, &mut rng);

    let segments = packed_segments(64, &mut rng);
    let x = Matrix::randn(segments.last().unwrap().end(), dim, &mut rng);
    group.bench_with_input(BenchmarkId::new("infer_packed", 64), &64, |b, _| {
        b.iter(|| attn.infer_packed(&store, &x, &segments).unwrap())
    });

    let segments = packed_segments(16, &mut rng);
    let x = Matrix::randn(segments.last().unwrap().end(), dim, &mut rng);
    group.bench_with_input(
        BenchmarkId::new("forward_backward_packed", 16),
        &16,
        |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let mut binding = GraphBinding::new();
                let xv = g.constant(x.clone());
                let out = attn
                    .forward_packed(&mut g, &store, &mut binding, xv, &segments)
                    .unwrap();
                let loss = g.squared_sum(out);
                g.backward(loss).unwrap();
                binding.gradients(&g).len()
            })
        },
    );
    group.finish();
}

fn bench_attention(c: &mut Criterion) {
    let dim = 32;
    let mut group = c.benchmark_group("attention");
    group.sample_size(20);
    for &rows in &[16usize, 64] {
        let mut rng = Rng::seed_from(1);
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, "attn", dim, 4, &mut rng);
        let x = Matrix::randn(rows, dim, &mut rng);
        let whole = [PoolSegment { start: 0, rows }];

        group.bench_with_input(BenchmarkId::new("infer", rows), &rows, |b, _| {
            b.iter(|| attn.infer_packed(&store, &x, &whole).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("forward_backward", rows), &rows, |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let mut binding = GraphBinding::new();
                let xv = g.constant(x.clone());
                let out = attn
                    .forward_packed(&mut g, &store, &mut binding, xv, &whole)
                    .unwrap();
                let loss = g.squared_sum(out);
                g.backward(loss).unwrap();
                binding.gradients(&g).len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attention, bench_attention_packed);
criterion_main!(benches);
