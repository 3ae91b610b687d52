//! Kernel differential equivalence (the PR 7 regression fence).
//!
//! The vectorised, register-blocked matmul kernels in `crowd-tensor` are the *only*
//! production path — every `Linear`, `RowwiseFF` and attention projection in the stack
//! flows through them — and the whole workspace's bit-identity story (parallel-,
//! checkpoint-, batched- and serve-equivalence) rests on their accumulation order never
//! moving. This suite pins that order differentially: every kernel output is compared
//! `to_bits`-for-`to_bits` against the retained scalar references
//! [`Matrix::matmul_ref`] / [`Matrix::matmul_transpose_ref`] (kept precisely as
//! oracles, like `learn_sequential`), over
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
//!   compared against the unfused slice / transpose / matmul / scale / mask / softmax /
//!   matmul chain composed *here* from public `Matrix` and `Graph` ops — values and every
//!   gradient, over 1-row segments, head widths off the 8-lane grid, padded segments
//!   with masks, 64+ segments and saturated softmax rows;
//! * **the fused leaky rectifier** (`Graph::leaky_relu`, the activation of every
//!   row-wise block on the tape) against its five-node composition, over adversarial
//!   values.
//!
//! The documented contract (ARCHITECTURE.md, "Vectorised kernels"): every output
//! element is the sequential sum over the inner dimension in increasing index order,
//! one multiply-then-add per step starting from +0.0 — no FMA, no split partial sums,
//! no zero-skipping. The `accumulation_order_is_the_documented_left_to_right_fold`
//! test below fails if the kernels ever switch to any other order; the sweeps fail if
//! vectorisation ever changes a single bit.

use crowd_autograd::{Graph, VarId};
use crowd_nn::{GraphBinding, MultiHeadSelfAttention, ParamStore};
use crowd_tensor::{
    segment_attention, AttentionScratch, ColumnBlock, Matrix, PoolSegment, Rng, ThreadPool,
    MASKED_SCORE,
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
    let want = a.matmul_ref(b).expect("reference matmul");
    let got = a.matmul(b).expect("vectorised matmul");
    assert_bits_eq(&format!("{label}/matmul"), &got, &want);

    let want_t = a
        .matmul_transpose_ref(bt)
        .expect("reference matmul_transpose");
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
        ("matmul_ref", a.matmul_ref(&ones_col).unwrap()),
        ("matmul_transpose", a.matmul_transpose(&ones_row).unwrap()),
        (
            "matmul_transpose_ref",
            a.matmul_transpose_ref(&ones_row).unwrap(),
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
    let want = a.matmul_ref(&b).unwrap();
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
    assert!(a.matmul_ref(&b).is_err());
    let bt = Matrix::zeros(2, 4);
    assert!(a.matmul_transpose(&bt).is_err());
    assert!(a.matmul_transpose_ref(&bt).is_err());
}

// ---------------------------------------------------------------------------------------
// Fused per-segment attention vs the unfused chain it replaced.
// ---------------------------------------------------------------------------------------

/// Segments tiling `[0, Σ rows)` back to back, one per `(rows, real_rows)` pair.
fn tiled_segments(pools: &[(usize, usize)]) -> Vec<PoolSegment> {
    let mut start = 0;
    pools
        .iter()
        .map(|&(rows, real_rows)| {
            let seg = PoolSegment {
                start,
                rows,
                real_rows,
            };
            start += rows;
            seg
        })
        .collect()
}

/// The additive padding mask of one segment: `MASKED_SCORE` on padded key columns.
fn padding_mask(seg: &PoolSegment) -> Matrix {
    let mut mask = Matrix::zeros(seg.rows, seg.rows);
    for r in 0..seg.rows {
        for c in seg.real_rows..seg.rows {
            mask.set(r, c, MASKED_SCORE);
        }
    }
    mask
}

/// The unfused inference block: per segment, slice → `q·kᵀ` → scale → mask (padded
/// segments only) → softmax → `·v`, pasted back into a packed output.
fn unfused_attention(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[PoolSegment],
    scale: f32,
) -> Matrix {
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for seg in segments {
        let qb = q.slice_rows(seg.start, seg.end()).unwrap();
        let kb = k.slice_rows(seg.start, seg.end()).unwrap();
        let vb = v.slice_rows(seg.start, seg.end()).unwrap();
        let mut scores = qb.matmul_transpose(&kb).unwrap().scale(scale);
        if seg.real_rows < seg.rows {
            scores = scores.add(&padding_mask(seg)).unwrap();
        }
        let attn = scores.softmax_rows();
        out.paste_rows(seg.start, &attn.matmul(&vb).unwrap())
            .unwrap();
    }
    out
}

/// The unfused tape chain, node for node what `forward_packed` built per head before
/// the fused op: slice_rows / transpose / matmul / scale / add(mask) / softmax_rows /
/// matmul per segment, re-packed with vstack.
fn unfused_tape(
    g: &mut Graph,
    q: VarId,
    k: VarId,
    v: VarId,
    segments: &[PoolSegment],
    scale: f32,
) -> VarId {
    let masks: Vec<Option<VarId>> = segments
        .iter()
        .map(|seg| (seg.real_rows < seg.rows).then(|| g.constant(padding_mask(seg))))
        .collect();
    let mut outs = Vec::with_capacity(segments.len());
    for (seg, mask) in segments.iter().zip(&masks) {
        let qb = g.slice_rows(q, seg.start, seg.end()).unwrap();
        let kb = g.slice_rows(k, seg.start, seg.end()).unwrap();
        let vb = g.slice_rows(v, seg.start, seg.end()).unwrap();
        let kt = g.transpose(kb);
        let scores = g.matmul(qb, kt).unwrap();
        let scaled = g.scale(scores, scale);
        let masked = match mask {
            Some(m) => g.add(scaled, *m).unwrap(),
            None => scaled,
        };
        let attn = g.softmax_rows(masked);
        outs.push(g.matmul(attn, vb).unwrap());
    }
    g.vstack(&outs).unwrap()
}

/// One attention case: `pools` as `(rows, real_rows)`, head width `d`, value width `dv`,
/// and a multiplier on Q/K (large values saturate the softmax rows).
struct AttentionCase {
    label: &'static str,
    pools: Vec<(usize, usize)>,
    d: usize,
    dv: usize,
    qk_gain: f32,
}

fn attention_cases(rng: &mut Rng) -> Vec<AttentionCase> {
    let many: Vec<(usize, usize)> = (0..70)
        .map(|_| {
            let rows = rng.range(1, 20);
            (
                rows,
                if rng.chance(0.25) {
                    rng.range(1, rows + 1)
                } else {
                    rows
                },
            )
        })
        .collect();
    vec![
        AttentionCase {
            label: "one-row segments",
            pools: vec![(1, 1); 9],
            d: 8,
            dv: 8,
            qk_gain: 1.0,
        },
        AttentionCase {
            label: "head width off the lane grid",
            pools: vec![(5, 5), (12, 12), (3, 3), (17, 17)],
            d: 5,
            dv: 11,
            qk_gain: 1.0,
        },
        AttentionCase {
            label: "padded segments with masks",
            pools: vec![(6, 4), (9, 9), (16, 3), (1, 1), (8, 1)],
            d: 8,
            dv: 8,
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
            pools: vec![(10, 10), (16, 12), (4, 4)],
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
        let want = unfused_attention(&q, &k, &v, &segments, scale);

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
        let run = |fused: bool| {
            let mut g = Graph::new();
            let (qv, kv, vv) = (g.leaf(q.clone()), g.leaf(k.clone()), g.leaf(v.clone()));
            let out = if fused {
                g.segment_attention(qv, kv, vv, &segments, scale).unwrap()
            } else {
                unfused_tape(&mut g, qv, kv, vv, &segments, scale)
            };
            let wv = g.constant(w.clone());
            let weighted = g.hadamard(out, wv).unwrap();
            let loss = g.sum(weighted);
            g.backward(loss).unwrap();
            let grad = |id| g.grad(id).expect("operand gradient").clone();
            (g.value(out).clone(), grad(qv), grad(kv), grad(vv))
        };
        let fused = run(true);
        let unfused = run(false);
        let label = case.label;
        assert_bits_eq(&format!("tape value / {label}"), &fused.0, &unfused.0);
        assert_bits_eq(&format!("dQ / {label}"), &fused.1, &unfused.1);
        assert_bits_eq(&format!("dK / {label}"), &fused.2, &unfused.2);
        assert_bits_eq(&format!("dV / {label}"), &fused.3, &unfused.3);
    }
}

#[test]
fn forward_packed_gradients_match_the_unfused_layer_composition() {
    // The whole layer: the fused forward_packed against the same layer composed from
    // public Graph ops with the unfused per-segment chain — output values, the input's
    // gradient and every parameter's gradient, to the bit.
    let mut rng = Rng::seed_from(71_103);
    for (model_dim, heads, pools) in [
        (
            32usize,
            4usize,
            vec![(16usize, 16usize), (1, 1), (23, 23), (9, 9)],
        ),
        (20, 2, vec![(7, 7), (12, 12), (3, 3)]),
    ] {
        let mut store = ParamStore::new();
        let layer = MultiHeadSelfAttention::new(&mut store, "attn", model_dim, heads, &mut rng);
        let segments = tiled_segments(&pools);
        let n = segments.last().unwrap().end();
        let x = random_matrix(n, model_dim, &mut rng);
        let w = random_matrix(n, model_dim, &mut rng);
        let param = |name: String| {
            store
                .iter()
                .find(|(_, n, _)| *n == name)
                .map(|(_, _, m)| m.clone())
                .expect("registered parameter")
        };

        let finish = |g: &mut Graph, out: VarId| {
            let wv = g.constant(w.clone());
            let weighted = g.hadamard(out, wv).unwrap();
            let loss = g.sum(weighted);
            g.backward(loss).unwrap();
        };

        let mut fused = Graph::new();
        let xf = fused.leaf(x.clone());
        let mut binding = GraphBinding::new();
        let out_f = layer
            .forward_packed(&mut fused, &store, &mut binding, xf, &segments)
            .unwrap();
        finish(&mut fused, out_f);
        let fused_grads: Vec<Matrix> = binding
            .gradients(&fused)
            .into_iter()
            .map(|(_, g)| g)
            .collect();

        let mut plain = Graph::new();
        let xp = plain.leaf(x.clone());
        let scale = 1.0 / ((model_dim / heads) as f32).sqrt();
        let mut leaves = Vec::new();
        let mut concat: Option<VarId> = None;
        for h in 0..heads {
            let wq = plain.leaf(param(format!("attn.head{h}.wq")));
            let wk = plain.leaf(param(format!("attn.head{h}.wk")));
            let wv = plain.leaf(param(format!("attn.head{h}.wv")));
            leaves.extend([wq, wk, wv]);
            let q = plain.matmul(xp, wq).unwrap();
            let k = plain.matmul(xp, wk).unwrap();
            let v = plain.matmul(xp, wv).unwrap();
            let head_out = unfused_tape(&mut plain, q, k, v, &segments, scale);
            concat = Some(match concat {
                None => head_out,
                Some(prev) => plain.concat_cols(prev, head_out).unwrap(),
            });
        }
        let ow = plain.leaf(param("attn.out.weight".into()));
        let ob = plain.leaf(param("attn.out.bias".into()));
        leaves.extend([ow, ob]);
        let projected = plain.matmul(concat.unwrap(), ow).unwrap();
        let out_p = plain.add_row_broadcast(projected, ob).unwrap();
        finish(&mut plain, out_p);

        let label = format!("layer {model_dim}/{heads}");
        assert_bits_eq(
            &format!("{label} value"),
            fused.value(out_f),
            plain.value(out_p),
        );
        assert_bits_eq(
            &format!("{label} dx"),
            fused.grad(xf).unwrap(),
            plain.grad(xp).unwrap(),
        );
        assert_eq!(fused_grads.len(), leaves.len());
        for (i, (got, leaf)) in fused_grads.iter().zip(&leaves).enumerate() {
            assert_bits_eq(
                &format!("{label} param {i}"),
                got,
                plain.grad(*leaf).unwrap(),
            );
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
        let run = |fused: bool| {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let out = if fused {
                g.leaky_relu(xv, slope)
            } else {
                let pos = g.relu(xv);
                let negated = g.scale(xv, -1.0);
                let neg = g.relu(negated);
                let leak = g.scale(neg, slope);
                g.sub(pos, leak).unwrap()
            };
            let wv = g.constant(w.clone());
            let weighted = g.hadamard(out, wv).unwrap();
            let loss = g.sum(weighted);
            g.backward(loss).unwrap();
            (g.value(out).clone(), g.grad(xv).unwrap().clone())
        };
        let (fused, composed) = (run(true), run(false));
        assert_bits_eq(&format!("leaky value [{case}]"), &fused.0, &composed.0);
        assert_bits_eq(&format!("leaky grad [{case}]"), &fused.1, &composed.1);
    }
}
