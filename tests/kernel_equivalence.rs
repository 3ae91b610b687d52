//! Kernel differential equivalence (the PR 7 regression fence).
//!
//! The vectorised, register-blocked matmul kernels in `crowd-tensor` are the *only*
//! production path — every `Linear`, `RowwiseFF` and attention projection in the stack
//! flows through them — and the whole workspace's bit-identity story (parallel-,
//! checkpoint-, batched- and serve-equivalence) rests on their accumulation order never
//! moving. This suite pins that order differentially: every kernel output is compared
//! `to_bits`-for-`to_bits` against the scalar references
//! `crowd_bench::reference::{matmul_ref, matmul_transpose_ref}`, over
//!
//! * **seeded sweeps** of random shapes and values (xoshiro-seeded, reproducible);
//! * **adversarial shapes**: 1×1, every lane-remainder width 1..=9 around the 8-wide
//!   register block, tall/skinny, and empty (zero rows, zero cols, zero inner dim);
//! * **adversarial values**: NaN, ±0.0, subnormals, and mixed magnitudes that make
//!   floating-point addition maximally order-sensitive;
//! * **the parallel twins** (`matmul_par`, `matmul_transpose_par`) at threads
//!   {1, 2, 8}, which must agree with the same scalar references — shard boundaries
//!   pick the computing thread, never the summation order;
//! * **the transposed-left product** `transpose_matmul` (and its `_par` twin), fed an
//!   explicitly transposed left operand, against the same `matmul` reference;
//! * **the fused per-segment attention** (`crowd_tensor::segment_attention`, the tape's
//!   `Graph::segment_attention` node and the layer-level `forward_packed` built on it),
//!   compared against the unfused slice / transpose / matmul / scale / softmax / matmul
//!   chain of `crowd_bench::reference`, whose gradients apply each primitive's VJP in a
//!   tape's reverse-sweep order — values and every gradient, over 1-row segments, head
//!   widths off the 8-lane grid, 64+ segments and saturated softmax rows;
//! * **the fused leaky rectifier** (`Graph::leaky_relu`, the activation of every
//!   row-wise block on the tape) against its five-primitive chain in
//!   `crowd_bench::reference`, over adversarial values.
//!
//! The documented contract (ARCHITECTURE.md, "Vectorised kernels"): every output
//! element is the sequential sum over the inner dimension in increasing index order,
//! one multiply-then-add per step starting from +0.0 — no FMA, no split partial sums,
//! no zero-skipping. The `accumulation_order_is_the_documented_left_to_right_fold`
//! test below fails if the kernels ever switch to any other order; the sweeps fail if
//! vectorisation ever changes a single bit.

use crowd_autograd::Graph;
use crowd_bench::reference::{
    attention_layer_ref, attention_ref, attention_ref_backward, leaky_relu_ref,
    leaky_relu_ref_backward, matmul_ref, matmul_transpose_ref,
};
use crowd_nn::{GraphBinding, MultiHeadSelfAttention, ParamStore};
use crowd_tensor::{
    segment_attention, AttentionScratch, ColumnBlock, Matrix, PoolSegment, Rng, ThreadPool,
};

/// Asserts bit-exact equality, which is stricter than `==` (NaN payloads and the sign
/// of zero must survive the kernels unchanged).
fn assert_bits_eq(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(
        got.shape(),
        want.shape(),
        "{label}: shape mismatch ({:?} vs {:?})",
        got.shape(),
        want.shape()
    );
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: element {i} diverged ({g:?} vs {w:?})"
        );
    }
}

/// Checks both kernels (and their parallel twins at several widths) against the scalar
/// references for one (a, b) pair, where `b` is shaped for `matmul` and `bt` — its
/// transpose-layout sibling — for `matmul_transpose`.
fn check_pair(label: &str, a: &Matrix, b: &Matrix, bt: &Matrix) {
    let want = matmul_ref(a, b).expect("reference matmul");
    let got = a.matmul(b).expect("vectorised matmul");
    assert_bits_eq(&format!("{label}/matmul"), &got, &want);

    let want_t = matmul_transpose_ref(a, bt).expect("reference matmul_transpose");
    let got_t = a.matmul_transpose(bt).expect("vectorised matmul_transpose");
    assert_bits_eq(&format!("{label}/matmul_transpose"), &got_t, &want_t);

    // `aᵀ` laid out explicitly, so `transpose_matmul` computes the same product `a · b`.
    let at = a.transpose();
    let got_tn = at.transpose_matmul(b).expect("transpose_matmul");
    assert_bits_eq(&format!("{label}/transpose_matmul"), &got_tn, &want);

    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let par_tn = at
            .transpose_matmul_par(b, pool)
            .expect("parallel transpose_matmul");
        assert_bits_eq(
            &format!("{label}/transpose_matmul_par@{threads}"),
            &par_tn,
            &want,
        );
        let par = a.matmul_par(b, pool).expect("parallel matmul");
        assert_bits_eq(&format!("{label}/matmul_par@{threads}"), &par, &want);
        let par_t = a
            .matmul_transpose_par(bt, pool)
            .expect("parallel matmul_transpose");
        assert_bits_eq(
            &format!("{label}/matmul_transpose_par@{threads}"),
            &par_t,
            &want_t,
        );
    }
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

/// A matrix whose entries cycle through adversarial values, jittered by the RNG so no
/// two sweeps see the same placement.
fn adversarial_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    // NaN, signed zeros, subnormals, magnitude cliffs: the values most likely to expose
    // a reordered sum, a skipped term, or a flushed denormal.
    const PALETTE: [f32; 10] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 2.0, // subnormal
        -1.0e-40,                // subnormal, negative
        1.0e30,
        -1.0e30,
        1.0e-30,
        1.0,
        -3.5,
    ];
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.chance(0.35) {
                PALETTE[rng.below(PALETTE.len())]
            } else {
                rng.uniform(-4.0, 4.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

#[test]
fn seeded_sweep_of_random_shapes_matches_the_references_bit_for_bit() {
    let mut rng = Rng::seed_from(71_001);
    for case in 0..60 {
        let m = rng.range(1, 24);
        let k = rng.range(1, 24);
        let n = rng.range(1, 40); // crosses the 8-wide lane boundary repeatedly
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let bt = random_matrix(n, k, &mut rng);
        check_pair(&format!("sweep[{case}] {m}x{k}x{n}"), &a, &b, &bt);
    }
}

#[test]
fn lane_remainder_widths_one_through_nine_match_the_references() {
    // n = 1..=9 brackets the LANES = 8 register block: pure-remainder (n < 8), exactly
    // one block (n = 8), and block-plus-remainder (n = 9).
    let mut rng = Rng::seed_from(71_002);
    for n in 1..=9usize {
        for &(m, k) in &[(1usize, 1usize), (3, 5), (4, 8), (7, 13)] {
            let a = adversarial_matrix(m, k, &mut rng);
            let b = adversarial_matrix(k, n, &mut rng);
            let bt = adversarial_matrix(n, k, &mut rng);
            check_pair(&format!("width {n} ({m}x{k})"), &a, &b, &bt);
        }
    }
}

#[test]
fn tall_skinny_and_one_by_one_shapes_match_the_references() {
    let mut rng = Rng::seed_from(71_003);
    // (m, k, n): single element, tall-skinny, short-fat, deep inner dimension — the
    // row-tile ladder (4/2/1) and both remainder paths all get exercised.
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (257, 3, 2),
        (2, 3, 257),
        (3, 511, 5),
        (9, 9, 9),
        (64, 16, 24),
    ] {
        let a = adversarial_matrix(m, k, &mut rng);
        let b = adversarial_matrix(k, n, &mut rng);
        let bt = adversarial_matrix(n, k, &mut rng);
        check_pair(&format!("shape {m}x{k}x{n}"), &a, &b, &bt);
    }
}

#[test]
fn empty_operands_produce_empty_or_zero_results_like_the_references() {
    // Zero rows, zero columns and a zero inner dimension: the kernels must agree with
    // the references on shape *and* contents (a k = 0 product is all +0.0 — the
    // documented accumulator start — not garbage).
    for &(m, k, n) in &[(0usize, 4usize, 3usize), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
        let a = Matrix::zeros(m, k);
        let b = Matrix::zeros(k, n);
        let bt = Matrix::zeros(n, k);
        check_pair(&format!("empty {m}x{k}x{n}"), &a, &b, &bt);
        let got = a.matmul(&b).unwrap();
        assert_eq!(got.shape(), (m, n));
        assert!(got
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == 0.0f32.to_bits()));
    }
}

#[test]
fn adversarial_value_sweep_preserves_nan_payloads_and_signed_zeros() {
    let mut rng = Rng::seed_from(71_004);
    for case in 0..40 {
        let m = rng.range(1, 12);
        let k = rng.range(1, 12);
        let n = rng.range(1, 20);
        let a = adversarial_matrix(m, k, &mut rng);
        let b = adversarial_matrix(k, n, &mut rng);
        let bt = adversarial_matrix(n, k, &mut rng);
        check_pair(&format!("adversarial[{case}] {m}x{k}x{n}"), &a, &b, &bt);
    }
}

#[test]
fn accumulation_order_is_the_documented_left_to_right_fold() {
    // [1e8, 1, -1e8] · [1, 1, 1] is maximally order-sensitive: the documented
    // left-to-right fold absorbs the 1.0 into 1e8 (1e8 + 1 == 1e8 in f32) and then
    // cancels, giving exactly +0.0. Any other association — (1 + -1e8) first, or a
    // split partial sum such as (1e8) + (1 + -1e8) — gives 1.0 instead. This pins the
    // ARCHITECTURE.md contract independently of the reference implementation.
    let a = Matrix::from_vec(1, 3, vec![1.0e8, 1.0, -1.0e8]).unwrap();
    let ones_col = Matrix::from_vec(3, 1, vec![1.0; 3]).unwrap();
    let ones_row = Matrix::from_vec(1, 3, vec![1.0; 3]).unwrap();

    let spec: f32 = a.as_slice().iter().fold(0.0f32, |acc, &v| acc + v * 1.0);
    assert_eq!(spec.to_bits(), 0.0f32.to_bits(), "spec fold itself");

    for (label, result) in [
        ("matmul", a.matmul(&ones_col).unwrap()),
        ("matmul_ref", matmul_ref(&a, &ones_col).unwrap()),
        ("matmul_transpose", a.matmul_transpose(&ones_row).unwrap()),
        (
            "matmul_transpose_ref",
            matmul_transpose_ref(&a, &ones_row).unwrap(),
        ),
    ] {
        assert_eq!(
            result.get(0, 0).to_bits(),
            spec.to_bits(),
            "{label} does not use the documented left-to-right accumulation order"
        );
    }

    // The same probe embedded past the lane boundary: column 10 of a 1×3 · 3×16
    // product exercises the blocked kernel (not just the remainder path).
    let mut wide = Matrix::zeros(3, 16);
    for r in 0..3 {
        wide.set(r, 10, 1.0);
    }
    let blocked = a.matmul(&wide).unwrap();
    assert_eq!(blocked.get(0, 10).to_bits(), spec.to_bits());
}

#[test]
fn zero_rows_are_not_skipped() {
    // A row of exact zeros must still run the documented fold (0 * b summed over k),
    // because 0.0 * NaN is NaN: "skip zero terms" is an *observable* optimisation, and
    // the kernels must not take it. (The sign of an output zero, by contrast, is
    // always + here: the fold starts at +0.0 and +0.0 + -0.0 rounds to +0.0.)
    let a = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]).unwrap();
    let b = Matrix::from_vec(2, 2, vec![f32::NAN, -1.0, 1.0, -1.0]).unwrap();
    let got = a.matmul(&b).unwrap();
    let want = matmul_ref(&a, &b).unwrap();
    assert_bits_eq("zero-row", &got, &want);
    assert!(
        got.get(0, 0).is_nan(),
        "0 * NaN must stay NaN, not be skipped"
    );
    assert_eq!(
        got.get(0, 1).to_bits(),
        0.0f32.to_bits(),
        "the zero row's fold lands on +0.0 exactly"
    );
}

#[test]
fn shape_mismatches_error_identically_on_kernels_and_references() {
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(4, 2);
    assert!(a.matmul(&b).is_err());
    assert!(matmul_ref(&a, &b).is_err());
    let bt = Matrix::zeros(2, 4);
    assert!(a.matmul_transpose(&bt).is_err());
    assert!(matmul_transpose_ref(&a, &bt).is_err());
}

// ---------------------------------------------------------------------------------------
// Fused per-segment attention vs the unfused chain it replaced.
// ---------------------------------------------------------------------------------------

/// Segments tiling `[0, Σ rows)` back to back, one per pool size.
fn tiled_segments(pools: &[usize]) -> Vec<PoolSegment> {
    let mut start = 0;
    pools
        .iter()
        .map(|&rows| {
            let seg = PoolSegment { start, rows };
            start += rows;
            seg
        })
        .collect()
}

/// One attention case: pool sizes, head width `d`, value width `dv`, and a multiplier on
/// Q/K (large values saturate the softmax rows).
struct AttentionCase {
    label: &'static str,
    pools: Vec<usize>,
    d: usize,
    dv: usize,
    qk_gain: f32,
}

fn attention_cases(rng: &mut Rng) -> Vec<AttentionCase> {
    let many: Vec<usize> = (0..70).map(|_| rng.range(1, 20)).collect();
    vec![
        AttentionCase {
            label: "one-row segments",
            pools: vec![1; 9],
            d: 8,
            dv: 8,
            qk_gain: 1.0,
        },
        AttentionCase {
            label: "head width off the lane grid",
            pools: vec![5, 12, 3, 17],
            d: 5,
            dv: 11,
            qk_gain: 1.0,
        },
        AttentionCase {
            label: "70 segments",
            pools: many,
            d: 13,
            dv: 8,
            qk_gain: 1.0,
        },
        AttentionCase {
            label: "saturated softmax rows",
            pools: vec![10, 16, 4],
            d: 9,
            dv: 16,
            qk_gain: 40.0,
        },
    ]
}

fn case_operands(
    case: &AttentionCase,
    rng: &mut Rng,
) -> (Vec<PoolSegment>, Matrix, Matrix, Matrix) {
    let segments = tiled_segments(&case.pools);
    let n = segments.last().map_or(0, |s| s.end());
    let q = random_matrix(n, case.d, rng).scale(case.qk_gain);
    let k = random_matrix(n, case.d, rng).scale(case.qk_gain);
    let v = random_matrix(n, case.dv, rng);
    (segments, q, k, v)
}

#[test]
fn fused_attention_block_matches_the_unfused_matrix_chain_bit_for_bit() {
    let mut rng = Rng::seed_from(71_101);
    for case in attention_cases(&mut rng) {
        let (segments, q, k, v) = case_operands(&case, &mut rng);
        let scale = 1.0 / (case.d as f32).sqrt();
        let want = attention_ref(&q, &k, &v, &segments, scale).unwrap();

        // The fused kernel reads Q/K/V as column windows of one wide buffer and writes
        // into a column window of a wider output, the way the packed inference path
        // uses it.
        let (d, dv) = (case.d, case.dv);
        let mut wide = Matrix::zeros(q.rows(), 2 * d + dv + 3);
        for r in 0..q.rows() {
            let row = wide.row_mut(r);
            row[1..1 + d].copy_from_slice(q.row(r));
            row[1 + d..1 + 2 * d].copy_from_slice(k.row(r));
            row[1 + 2 * d..1 + 2 * d + dv].copy_from_slice(v.row(r));
        }
        let mut out = Matrix::zeros(q.rows(), dv + 5);
        segment_attention(
            ColumnBlock::new(&wide, 1, d).unwrap(),
            ColumnBlock::new(&wide, 1 + d, d).unwrap(),
            ColumnBlock::new(&wide, 1 + 2 * d, dv).unwrap(),
            &segments,
            scale,
            &mut out,
            3,
            None,
            &mut AttentionScratch::default(),
        )
        .unwrap();
        let got = out.slice_cols(3, 3 + dv).unwrap();
        assert_bits_eq(&format!("fused block / {}", case.label), &got, &want);
        for c in (0..3).chain(3 + dv..dv + 5) {
            assert!(
                out.col(c).iter().all(|&x| x.to_bits() == 0),
                "{}: column {c} outside the window was written",
                case.label
            );
        }
    }
}

#[test]
fn fused_attention_tape_node_matches_the_unfused_chain_values_and_gradients() {
    let mut rng = Rng::seed_from(71_102);
    for case in attention_cases(&mut rng) {
        let (segments, q, k, v) = case_operands(&case, &mut rng);
        let scale = 1.0 / (case.d as f32).sqrt();
        // A random upstream weighting, so every output element has its own gradient.
        let w = random_matrix(q.rows(), case.dv, &mut rng);
        let mut g = Graph::new();
        let (qv, kv, vv) = (g.leaf(q.clone()), g.leaf(k.clone()), g.leaf(v.clone()));
        let out = g.segment_attention(qv, kv, vv, &segments, scale).unwrap();
        let wv = g.constant(w.clone());
        let weighted = g.hadamard(out, wv).unwrap();
        let loss = g.sum(weighted);
        g.backward(loss).unwrap();

        let value = attention_ref(&q, &k, &v, &segments, scale).unwrap();
        let (dq, dk, dv) = attention_ref_backward(&q, &k, &v, &segments, scale, &w).unwrap();
        let label = case.label;
        assert_bits_eq(&format!("tape value / {label}"), g.value(out), &value);
        assert_bits_eq(&format!("dQ / {label}"), g.grad(qv).unwrap(), &dq);
        assert_bits_eq(&format!("dK / {label}"), g.grad(kv).unwrap(), &dk);
        assert_bits_eq(&format!("dV / {label}"), g.grad(vv).unwrap(), &dv);
    }
}

#[test]
fn forward_packed_gradients_match_the_unfused_layer_composition() {
    // The whole layer: the fused forward_packed against the same layer written out with
    // the unfused per-segment chain and explicit VJPs — output values, the input's
    // gradient and every parameter's gradient, to the bit.
    let mut rng = Rng::seed_from(71_103);
    for (model_dim, heads, pools) in [
        (32usize, 4usize, vec![16usize, 1, 23, 9]),
        (20, 2, vec![7, 12, 3]),
    ] {
        let mut store = ParamStore::new();
        let layer = MultiHeadSelfAttention::new(&mut store, "attn", model_dim, heads, &mut rng);
        let segments = tiled_segments(&pools);
        let n = segments.last().unwrap().end();
        let x = random_matrix(n, model_dim, &mut rng);
        let w = random_matrix(n, model_dim, &mut rng);

        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let mut binding = GraphBinding::new();
        let out = layer
            .forward_packed(&mut g, &store, &mut binding, xv, &segments)
            .unwrap();
        let wv = g.constant(w.clone());
        let weighted = g.hadamard(out, wv).unwrap();
        let loss = g.sum(weighted);
        g.backward(loss).unwrap();
        let fused_grads: Vec<Matrix> = binding.gradients(&g).into_iter().map(|(_, m)| m).collect();

        let reference = attention_layer_ref(&store, "attn", heads, &x, &segments, &w).unwrap();
        let label = format!("layer {model_dim}/{heads}");
        assert_bits_eq(&format!("{label} value"), g.value(out), &reference.value);
        assert_bits_eq(&format!("{label} dx"), g.grad(xv).unwrap(), &reference.dx);
        assert_eq!(fused_grads.len(), reference.params.len());
        for (i, (got, want)) in fused_grads.iter().zip(&reference.params).enumerate() {
            assert_bits_eq(&format!("{label} param {i}"), got, want);
        }
    }
}

#[test]
fn fused_leaky_relu_matches_the_composed_chain_values_and_gradients() {
    let mut rng = Rng::seed_from(71_104);
    let slope = 0.01;
    for case in 0..20 {
        let (rows, cols) = (rng.range(1, 40), rng.range(1, 40));
        let x = adversarial_matrix(rows, cols, &mut rng);
        let w = adversarial_matrix(rows, cols, &mut rng);
        let mut g = Graph::new();
        let xv = g.leaf(x.clone());
        let out = g.leaky_relu(xv, slope);
        let wv = g.constant(w.clone());
        let weighted = g.hadamard(out, wv).unwrap();
        let loss = g.sum(weighted);
        g.backward(loss).unwrap();
        assert_bits_eq(
            &format!("leaky value [{case}]"),
            g.value(out),
            &leaky_relu_ref(&x, slope),
        );
        assert_bits_eq(
            &format!("leaky grad [{case}]"),
            g.grad(xv).unwrap(),
            &leaky_relu_ref_backward(&x, slope, &w),
        );
    }
}
