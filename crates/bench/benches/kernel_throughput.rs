//! Vectorised kernels vs their scalar references — the PR 7 raw-speed floor.
//!
//! `Matrix::matmul` / `Matrix::matmul_transpose` are the register-blocked, 8-lane
//! production kernels every `Linear`, `RowwiseFF` and attention projection flows
//! through; `crowd_bench::reference::{matmul_ref, matmul_transpose_ref}` are the textbook
//! scalar loops the differential suite holds them to (`tests/kernel_equivalence.rs`). This benchmark pins the
//! *performance* half of that relationship: the vectorised kernels must be strictly
//! faster than the references at every shape below, or the blocking is buying
//! nothing and the PR 7 acceptance bar is broken.
//!
//! Shapes cover the stack's real work:
//!
//! * `32x40x64` / `128x64x64` — packed set-Q-network projections (a
//!   `SessionBatch`/`crowd-serve` round's `[Σ pool sizes, dim] × [dim, hidden]`);
//! * `8x64x1` — the per-head attention score column and the MLP head;
//! * `64x64x64` — a square mid-size layer (the blocked kernel's best case);
//! * `5x7x9` — a deliberately lane-hostile remainder shape: small, odd, with `n`
//!   just past the 8-lane boundary — the vectorised path must not *lose* here.
//!
//! `matmul_par` at the same shapes shows where the persistent pool's row-sharding
//! takes over (only above the ~128k multiply-add gate; the small shapes stay serial
//! by design and should match the serial kernel).

use crowd_bench::reference::{matmul_ref, matmul_transpose_ref};
use crowd_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_tensor::{Matrix, Rng, ThreadPool};

/// (m, k, n) shapes benchmarked for all kernels; see the module docs for provenance.
const SHAPES: &[(usize, usize, usize)] = &[
    (32, 40, 64),
    (128, 64, 64),
    (8, 64, 1),
    (64, 64, 64),
    (5, 7, 9),
];

fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let mut rng = Rng::seed_from(seed);
    let a = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut rng);
    let b = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
    let bt = Matrix::rand_uniform(n, k, -1.0, 1.0, &mut rng);
    (a, b, bt)
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(40);
    for &(m, k, n) in SHAPES {
        let label = format!("{m}x{k}x{n}");
        let (a, b, _) = operands(m, k, n, 11);
        group.bench_with_input(
            BenchmarkId::new("scalar_ref", &label),
            &label,
            |bench, _| bench.iter(|| matmul_ref(&a, &b).unwrap().len()),
        );
        group.bench_with_input(
            BenchmarkId::new("vectorised", &label),
            &label,
            |bench, _| bench.iter(|| a.matmul(&b).unwrap().len()),
        );
    }
    group.finish();
}

fn bench_matmul_transpose(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_transpose_kernels");
    group.sample_size(40);
    for &(m, k, n) in SHAPES {
        let label = format!("{m}x{k}x{n}");
        let (a, _, bt) = operands(m, k, n, 12);
        group.bench_with_input(
            BenchmarkId::new("scalar_ref", &label),
            &label,
            |bench, _| bench.iter(|| matmul_transpose_ref(&a, &bt).unwrap().len()),
        );
        group.bench_with_input(
            BenchmarkId::new("vectorised", &label),
            &label,
            |bench, _| bench.iter(|| a.matmul_transpose(&bt).unwrap().len()),
        );
    }
    group.finish();
}

fn bench_parallel_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_persistent_pool");
    group.sample_size(30);
    let pool = ThreadPool::from_env();
    // Large enough to clear the ~128k multiply-add parallel gate; the persistent pool's
    // dispatch cost (channel send + wake, no thread spawn) is what is on trial here.
    for &(m, k, n) in &[(128usize, 64usize, 64usize), (256, 128, 128)] {
        let label = format!("{m}x{k}x{n}");
        let (a, b, _) = operands(m, k, n, 13);
        group.bench_with_input(BenchmarkId::new("serial", &label), &label, |bench, _| {
            bench.iter(|| a.matmul(&b).unwrap().len())
        });
        group.bench_with_input(
            BenchmarkId::new(format!("pool_{}", pool.threads()), &label),
            &label,
            |bench, _| bench.iter(|| a.matmul_par(&b, pool).unwrap().len()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_transpose,
    bench_parallel_dispatch
);
criterion_main!(benches);
