//! Fused per-segment scaled dot-product attention over packed row buffers.
//!
//! Batched Q-network passes stack `N` pools' rows into one `[Σ pool sizes, dim]`
//! buffer; attention must never cross pools, so it runs block by block over
//! [`PoolSegment`]s. For one segment of `r` rows with query/key blocks `Q`, `K` and value
//! block `V`, the forward kernel computes
//!
//! ```text
//! S = Q·Kᵀ · scale (+ mask)      A = softmax_rows(S)      O = A·V
//! ```
//!
//! and writes `O` straight into the rows of the segment (and a column window of the
//! caller's choosing) of one packed output, reusing an [`AttentionScratch`] across
//! segments and heads. [`segment_attention_backward`] applies, per segment, the
//! vector-Jacobian products of that chain.
//!
//! # Same bits as the unfused chain
//!
//! Every product here runs through the crate's strided product kernels, so every
//! element is the sequential inner-index sum of the [accumulation-order
//! contract](crate::ops) — the very value `Matrix::matmul_transpose`,
//! `Matrix::matmul` and the tape's matmul VJPs produce for the same block. The scale
//! is one multiply per score, the padding mask one add per score of a padded
//! segment, the softmax and its VJP the shared row rules behind
//! [`Matrix::softmax_rows`] and [`Matrix::softmax_rows_vjp`]. So the fused kernels
//! return, element for element, the bits of the unfused slice / transpose / matmul /
//! scale / mask / softmax / matmul chain they replace; `tests/kernel_equivalence.rs`
//! holds them to `to_bits` equality with that chain built from public `Matrix` ops.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::ops::{gemm_nn, gemm_nt, gemm_tn, softmax_row_in_place, softmax_row_vjp_in_place};
use crate::Result;

/// Additive score a padding mask puts on a padded key column: large enough that its
/// softmax weight underflows to exactly `0.0` after the row-max subtraction.
pub const MASKED_SCORE: f32 = -1e9;

/// One pool's row block inside a packed `[Σ pool sizes, dim]` buffer: the block starts at
/// row `start`, spans `rows` rows, and only the first `real_rows` of them are real tasks
/// (the rest is padding, masked out of every attention row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSegment {
    /// First row of the block inside the packed buffer.
    pub start: usize,
    /// Number of rows in the block (padding included).
    pub rows: usize,
    /// Number of real (non-padding) rows at the top of the block.
    pub real_rows: usize,
}

impl PoolSegment {
    /// One past the last row of the block.
    pub fn end(&self) -> usize {
        self.start + self.rows
    }
}

/// A read-only column window `[col0, col0 + cols)` over every row of a row-major
/// matrix — how the fused kernels read one head's Q, K or V block out of a wider
/// projection buffer without copying it.
#[derive(Debug, Clone, Copy)]
pub struct ColumnBlock<'a> {
    data: &'a [f32],
    ld: usize,
    rows: usize,
    col0: usize,
    cols: usize,
}

impl<'a> ColumnBlock<'a> {
    /// The window of columns `[col0, col0 + cols)` of `m`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the window does not fit in `m`.
    pub fn new(m: &'a Matrix, col0: usize, cols: usize) -> Result<Self> {
        if col0 + cols > m.cols() {
            return Err(TensorError::IndexOutOfBounds {
                op: "ColumnBlock::new",
                index: col0 + cols,
                bound: m.cols() + 1,
            });
        }
        Ok(ColumnBlock {
            data: m.as_slice(),
            ld: m.cols(),
            rows: m.rows(),
            col0,
            cols,
        })
    }

    /// Every column of `m`.
    pub fn whole(m: &'a Matrix) -> Self {
        ColumnBlock {
            data: m.as_slice(),
            ld: m.cols(),
            rows: m.rows(),
            col0: 0,
            cols: m.cols(),
        }
    }

    /// The window from row `start` on, as a strided slice (row `r` of the result is
    /// `[r * ld..][..cols]`).
    fn rows_from(&self, start: usize) -> &'a [f32] {
        &self.data[start * self.ld + self.col0..]
    }
}

/// Reusable buffers of the fused attention kernels, so a sweep over many segments and
/// heads allocates once instead of once per block.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    /// Score / softmax block of the current segment (forward without kept weights), or
    /// its `d_A` → `d_S` gradient block (backward).
    scores: Vec<f32>,
    /// Packed right-operand panel of the `a · bᵀ` products.
    panel: Vec<f32>,
}

/// Total length of the kept softmax blocks of `segments`: `Σ rows²`.
fn attention_weights_len(segments: &[PoolSegment]) -> usize {
    segments.iter().map(|seg| seg.rows * seg.rows).sum()
}

/// Checks that `segments` fit in `rows` rows and are sorted and disjoint: each segment
/// owns its rows, which the backward kernel relies on when it writes a segment's
/// gradient rows without summing across segments. Gaps between segments are allowed.
fn check_segments(op: &'static str, segments: &[PoolSegment], rows: usize) -> Result<()> {
    let mut previous_end = 0;
    for seg in segments {
        if seg.start < previous_end {
            return Err(TensorError::UnorderedSegments {
                op,
                start: seg.start,
                previous_end,
            });
        }
        previous_end = seg.end();
        if seg.end() > rows {
            return Err(TensorError::IndexOutOfBounds {
                op,
                index: seg.end(),
                bound: rows + 1,
            });
        }
        if seg.real_rows > seg.rows {
            return Err(TensorError::IndexOutOfBounds {
                op,
                index: seg.real_rows,
                bound: seg.rows + 1,
            });
        }
    }
    Ok(())
}

/// Fused forward attention of every segment: for each segment, `softmax(Q·Kᵀ·scale +
/// mask)·V` over its own rows, written into the same rows of `out` at columns
/// `[out_col0, out_col0 + v.cols)`. A padded segment (`real_rows < rows`) adds
/// [`MASKED_SCORE`] to the scores of its padded key columns and `0.0` to the others,
/// exactly as the additive padding mask does; a padding-free segment adds nothing.
/// Rows of `out` outside every segment are left untouched.
///
/// With `weights`, the softmax blocks are kept: the buffer is resized to `Σ rows²` and
/// holds each segment's row-major `rows × rows` block back to back, in segment order —
/// what [`segment_attention_backward`] consumes.
///
/// # Errors
///
/// Returns a shape error when Q and K differ in width or a segment, the output window
/// or an operand's rows do not fit, and [`TensorError::UnorderedSegments`] when the
/// segments are not sorted by start row or overlap.
#[allow(clippy::too_many_arguments)] // one fused kernel, every operand explicit
pub fn segment_attention(
    q: ColumnBlock<'_>,
    k: ColumnBlock<'_>,
    v: ColumnBlock<'_>,
    segments: &[PoolSegment],
    scale: f32,
    out: &mut Matrix,
    out_col0: usize,
    mut weights: Option<&mut Vec<f32>>,
    scratch: &mut AttentionScratch,
) -> Result<()> {
    const OP: &str = "segment_attention";
    if q.cols != k.cols {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: (q.rows, q.cols),
            rhs: (k.rows, k.cols),
        });
    }
    if out_col0 + v.cols > out.cols() {
        return Err(TensorError::IndexOutOfBounds {
            op: OP,
            index: out_col0 + v.cols,
            bound: out.cols() + 1,
        });
    }
    let rows = q.rows.min(k.rows).min(v.rows).min(out.rows());
    check_segments(OP, segments, rows)?;
    if let Some(w) = weights.as_deref_mut() {
        w.resize(attention_weights_len(segments), 0.0);
    }
    let (d, dv) = (q.cols, v.cols);
    let ldo = out.cols();
    let mut offset = 0;
    for seg in segments {
        let r = seg.rows;
        if r == 0 {
            continue;
        }
        let attn: &mut [f32] = match weights.as_deref_mut() {
            Some(w) => &mut w[offset..offset + r * r],
            None => {
                scratch.scores.resize(r * r, 0.0);
                &mut scratch.scores[..]
            }
        };
        offset += r * r;
        gemm_nt(
            r,
            r,
            d,
            q.rows_from(seg.start),
            q.ld,
            k.rows_from(seg.start),
            k.ld,
            attn,
            r,
            &mut scratch.panel,
        );
        let padded = seg.real_rows < r;
        for row in attn.chunks_exact_mut(r) {
            for s in row.iter_mut() {
                *s *= scale;
            }
            if padded {
                let (real, pad) = row.split_at_mut(seg.real_rows);
                for s in real {
                    *s += 0.0;
                }
                for s in pad {
                    *s += MASKED_SCORE;
                }
            }
            softmax_row_in_place(row);
        }
        let out_block = &mut out.as_mut_slice()[seg.start * ldo + out_col0..];
        gemm_nn(
            r,
            dv,
            r,
            attn,
            r,
            v.rows_from(seg.start),
            v.ld,
            out_block,
            ldo,
        );
    }
    Ok(())
}

/// The gradients [`segment_attention_backward`] returns for Q, K and V (each shaped like
/// its operand; rows outside every segment are zero). A gradient that was not asked
/// for is `None`.
#[derive(Debug)]
pub struct AttentionGrads {
    /// Gradient with respect to Q.
    pub dq: Option<Matrix>,
    /// Gradient with respect to K.
    pub dk: Option<Matrix>,
    /// Gradient with respect to V.
    pub dv: Option<Matrix>,
}

/// Reverse mode of [`segment_attention`] for whole-matrix operands (`out_col0 = 0`):
/// given Q, K, V, the kept softmax blocks `weights` and the upstream gradient `up` of
/// the output, returns the gradients of the inputs selected by `need = [q, k, v]`.
///
/// Per segment it applies the VJPs of the chain the forward fuses, each in the
/// per-element order of the tape op it replaces:
///
/// * `d_A = up·Vᵀ` and `dV = Aᵀ·up` (the `A·V` matmul);
/// * `d_M = A ∘ (d_A − ⟨d_A, A⟩)` per row (the softmax; the mask add passes it on);
/// * `d_S = d_M · scale` (the scale);
/// * `dQ = d_S·K` and `dK = d_Sᵀ·Q` (the `Q·Kᵀ` matmul and the transpose of K).
///
/// Segments own disjoint rows, so no gradient element sums across segments.
///
/// # Errors
///
/// Returns a shape error when the operands, `up`, `weights` or the segments disagree,
/// and [`TensorError::UnorderedSegments`] when the segments are not sorted by start row
/// or overlap.
#[allow(clippy::too_many_arguments)] // one fused kernel, every operand explicit
pub fn segment_attention_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    weights: &[f32],
    segments: &[PoolSegment],
    scale: f32,
    up: &Matrix,
    need: [bool; 3],
    scratch: &mut AttentionScratch,
) -> Result<AttentionGrads> {
    const OP: &str = "segment_attention_backward";
    let n = q.rows();
    if k.shape() != q.shape() || v.rows() != n || up.shape() != (n, v.cols()) {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: q.shape(),
            rhs: if k.shape() != q.shape() {
                k.shape()
            } else if v.rows() != n {
                v.shape()
            } else {
                up.shape()
            },
        });
    }
    check_segments(OP, segments, n)?;
    if weights.len() != attention_weights_len(segments) {
        return Err(TensorError::InvalidBuffer {
            rows: attention_weights_len(segments),
            cols: 1,
            len: weights.len(),
        });
    }
    let (d, dvw) = (q.cols(), v.cols());
    let [need_q, need_k, need_v] = need;
    let mut dq = need_q.then(|| Matrix::zeros(n, d));
    let mut dk = need_k.then(|| Matrix::zeros(n, d));
    let mut dv = need_v.then(|| Matrix::zeros(n, dvw));
    let mut offset = 0;
    for seg in segments {
        let r = seg.rows;
        let attn = &weights[offset..offset + r * r];
        offset += r * r;
        if r == 0 {
            continue;
        }
        let s0 = seg.start;
        let (q_s, k_s) = (&q.as_slice()[s0 * d..], &k.as_slice()[s0 * d..]);
        let (v_s, up_s) = (&v.as_slice()[s0 * dvw..], &up.as_slice()[s0 * dvw..]);
        if let Some(dv) = dv.as_mut() {
            let dst = &mut dv.as_mut_slice()[s0 * dvw..];
            gemm_tn(r, dvw, r, attn, r, up_s, dvw, dst, dvw);
        }
        if !(need_q || need_k) {
            continue;
        }
        scratch.scores.resize(r * r, 0.0);
        let grad = &mut scratch.scores[..];
        gemm_nt(r, r, dvw, up_s, dvw, v_s, dvw, grad, r, &mut scratch.panel);
        for (g_row, a_row) in grad.chunks_exact_mut(r).zip(attn.chunks_exact(r)) {
            softmax_row_vjp_in_place(a_row, g_row);
            for g in g_row.iter_mut() {
                *g *= scale;
            }
        }
        if let Some(dq) = dq.as_mut() {
            let dst = &mut dq.as_mut_slice()[s0 * d..];
            gemm_nn(r, d, r, grad, r, k_s, d, dst, d);
        }
        if let Some(dk) = dk.as_mut() {
            let dst = &mut dk.as_mut_slice()[s0 * d..];
            gemm_tn(r, d, r, grad, r, q_s, d, dst, d);
        }
    }
    Ok(AttentionGrads { dq, dk, dv })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::Rng;

    fn segments(pools: &[(usize, usize)]) -> Vec<PoolSegment> {
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

    #[test]
    fn fused_forward_matches_the_matrix_chain_per_segment() {
        let mut rng = Rng::seed_from(1);
        let segs = segments(&[(3, 3), (5, 2), (1, 1)]);
        let (q, k, v) = (
            Matrix::randn(9, 4, &mut rng),
            Matrix::randn(9, 4, &mut rng),
            Matrix::randn(9, 3, &mut rng),
        );
        let scale = 0.5;
        let mut out = Matrix::zeros(9, 5);
        let mut weights = Vec::new();
        segment_attention(
            ColumnBlock::whole(&q),
            ColumnBlock::whole(&k),
            ColumnBlock::whole(&v),
            &segs,
            scale,
            &mut out,
            2,
            Some(&mut weights),
            &mut AttentionScratch::default(),
        )
        .unwrap();
        assert_eq!(weights.len(), 9 + 25 + 1);
        for seg in &segs {
            let qb = q.slice_rows(seg.start, seg.end()).unwrap();
            let kb = k.slice_rows(seg.start, seg.end()).unwrap();
            let vb = v.slice_rows(seg.start, seg.end()).unwrap();
            let mut s = qb.matmul_transpose(&kb).unwrap().scale(scale);
            for r in 0..seg.rows {
                for c in seg.real_rows..seg.rows {
                    s.set(r, c, s.get(r, c) + MASKED_SCORE);
                }
            }
            let want = s.softmax_rows().matmul(&vb).unwrap();
            for r in 0..seg.rows {
                assert_eq!(&out.row(seg.start + r)[2..5], want.row(r));
                assert_eq!(&out.row(seg.start + r)[..2], &[0.0, 0.0]);
            }
        }
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        let q = Matrix::zeros(4, 2);
        let k3 = Matrix::zeros(4, 3);
        let mut out = Matrix::zeros(4, 2);
        let seg = [PoolSegment {
            start: 2,
            rows: 3,
            real_rows: 3,
        }];
        let mut scratch = AttentionScratch::default();
        let whole = ColumnBlock::whole(&q);
        assert!(segment_attention(
            whole,
            ColumnBlock::whole(&k3),
            whole,
            &[],
            1.0,
            &mut out,
            0,
            None,
            &mut scratch
        )
        .is_err());
        assert!(segment_attention(
            whole,
            whole,
            whole,
            &seg,
            1.0,
            &mut out,
            0,
            None,
            &mut scratch
        )
        .is_err());
        assert!(segment_attention(
            whole,
            whole,
            whole,
            &[],
            1.0,
            &mut out,
            1,
            None,
            &mut scratch
        )
        .is_err());
        // Overlapping or unsorted segments would make the backward overwrite one
        // segment's gradient rows with another's, so both directions refuse them.
        let overlapping = [
            PoolSegment {
                start: 0,
                rows: 3,
                real_rows: 3,
            },
            PoolSegment {
                start: 2,
                rows: 2,
                real_rows: 2,
            },
        ];
        let unsorted = [overlapping[1], overlapping[0]];
        for segs in [&overlapping, &unsorted] {
            let err = segment_attention(
                whole,
                whole,
                whole,
                segs,
                1.0,
                &mut out,
                0,
                None,
                &mut scratch,
            )
            .unwrap_err();
            assert!(
                matches!(err, TensorError::UnorderedSegments { .. }),
                "{err}"
            );
            let err = segment_attention_backward(
                &q,
                &q,
                &q,
                &[0.0; 13],
                segs,
                1.0,
                &q,
                [true; 3],
                &mut scratch,
            )
            .unwrap_err();
            assert!(
                matches!(err, TensorError::UnorderedSegments { .. }),
                "{err}"
            );
        }
        assert!(ColumnBlock::new(&q, 1, 2).is_err());
        assert!(segment_attention_backward(
            &q,
            &q,
            &q,
            &[0.0],
            &[],
            1.0,
            &q,
            [true; 3],
            &mut scratch
        )
        .is_err());
    }
}
