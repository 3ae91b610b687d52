//! Multi-head self-attention (paper Fig. 4 and Sec. IV-B2).
//!
//! `Att(X1, X2, X3) = softmax(X1 X2ᵀ / √d) X3`, with `h` heads whose outputs are concatenated
//! and linearly recombined. Padded rows of the state matrix are excluded by an additive mask
//! (−1e9 on the scores of padded *columns*), so padding never influences real tasks'
//! representations, and the whole block stays permutation-invariant over the real rows
//! (Appendix, Proof 2).

use crate::linear::Linear;
use crate::param::{GraphBinding, ParamId, ParamStore};
use crate::Result;
use crowd_autograd::{Graph, VarId};
use crowd_tensor::{
    segment_attention, AttentionScratch, ColumnBlock, Matrix, Rng, ThreadPool, MASKED_SCORE,
};

/// One session's row block inside a packed `[Σ pool sizes, dim]` buffer used by
/// [`MultiHeadSelfAttention::infer_packed`] and
/// [`MultiHeadSelfAttention::forward_packed`] (defined next to the fused attention
/// kernels in `crowd-tensor`).
pub use crowd_tensor::PoolSegment;

/// Multi-head self-attention layer with `h` heads of dimension `model_dim / h`.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    /// Per-head projection matrices for queries, keys and values (no bias, as in the paper).
    heads: Vec<HeadParams>,
    /// Output projection `W^O`.
    output: Linear,
    model_dim: usize,
    head_dim: usize,
}

#[derive(Debug, Clone)]
struct HeadParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
}

impl MultiHeadSelfAttention {
    /// Registers a new attention layer. `model_dim` must be divisible by `num_heads`.
    ///
    /// # Panics
    ///
    /// Panics when `num_heads == 0` or `model_dim % num_heads != 0`; layer shapes are fixed
    /// at construction time and a mismatch is a programming error.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        model_dim: usize,
        num_heads: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(num_heads > 0, "attention needs at least one head");
        assert_eq!(
            model_dim % num_heads,
            0,
            "model_dim {model_dim} must be divisible by num_heads {num_heads}"
        );
        let head_dim = model_dim / num_heads;
        let heads = (0..num_heads)
            .map(|h| HeadParams {
                wq: store.register(
                    format!("{name}.head{h}.wq"),
                    Matrix::xavier(model_dim, head_dim, rng),
                ),
                wk: store.register(
                    format!("{name}.head{h}.wk"),
                    Matrix::xavier(model_dim, head_dim, rng),
                ),
                wv: store.register(
                    format!("{name}.head{h}.wv"),
                    Matrix::xavier(model_dim, head_dim, rng),
                ),
            })
            .collect();
        let output = Linear::new(store, &format!("{name}.out"), model_dim, model_dim, rng);
        MultiHeadSelfAttention {
            heads,
            output,
            model_dim,
            head_dim,
        }
    }

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Model (input/output) dimension.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Builds the additive attention mask for a pool where only the first `real_rows` of
    /// `total_rows` are real tasks: scores towards padded keys get −1e9 so their softmax
    /// weight is effectively zero.
    pub fn padding_mask(total_rows: usize, real_rows: usize) -> Matrix {
        let mut mask = Matrix::zeros(total_rows, total_rows);
        for r in 0..total_rows {
            for c in real_rows..total_rows {
                mask.set(r, c, MASKED_SCORE);
            }
        }
        mask
    }

    /// Applies multi-head self-attention on the tape.
    ///
    /// `x` is `n x model_dim`; `mask` (if provided) is an `n x n` additive score mask.
    pub fn forward(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        binding: &mut GraphBinding,
        x: VarId,
        mask: Option<&Matrix>,
    ) -> Result<VarId> {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mask_var = mask.map(|m| graph.constant(m.clone()));
        let mut concat: Option<VarId> = None;
        for head in &self.heads {
            let wq = binding.bind(graph, store, head.wq);
            let wk = binding.bind(graph, store, head.wk);
            let wv = binding.bind(graph, store, head.wv);
            let q = graph.matmul(x, wq)?;
            let k = graph.matmul(x, wk)?;
            let v = graph.matmul(x, wv)?;
            let kt = graph.transpose(k);
            let scores = graph.matmul(q, kt)?;
            let scaled = graph.scale(scores, scale);
            let masked = match mask_var {
                Some(m) => graph.add(scaled, m)?,
                None => scaled,
            };
            let attn = graph.softmax_rows(masked);
            let head_out = graph.matmul(attn, v)?;
            concat = Some(match concat {
                None => head_out,
                Some(prev) => graph.concat_cols(prev, head_out)?,
            });
        }
        let concat = concat.expect("at least one head");
        self.output.forward(graph, store, binding, concat)
    }

    /// Gradient-free forward pass over one pool of `x.rows()` rows whose first
    /// `real_rows` rows are real tasks; the rest is padding, masked out of every
    /// attention row exactly as [`MultiHeadSelfAttention::padding_mask`] masks it on the
    /// tape (pass `x.rows()` for an unpadded pool).
    ///
    /// This is [`MultiHeadSelfAttention::infer_packed`] over a single segment, so it runs
    /// the same fused kernel and returns the bits the unfused tape chain of
    /// [`MultiHeadSelfAttention::forward`] computes with that mask.
    pub fn infer(&self, store: &ParamStore, x: &Matrix, real_rows: usize) -> Result<Matrix> {
        let segment = PoolSegment {
            start: 0,
            rows: x.rows(),
            real_rows,
        };
        self.infer_packed(store, x, &[segment])
    }

    /// Differentiable twin of [`MultiHeadSelfAttention::infer_packed`]: multi-head
    /// self-attention over a packed `[Σ pool sizes, model_dim]` buffer **on the tape**, so
    /// one backward pass differentiates `N` sessions'/transitions' attention at once — the
    /// training-side counterpart of the batched-inference hot path.
    ///
    /// Per head, the Q/K/V projections run as single stacked matmuls over the whole buffer
    /// (one tape node each), and the per-segment scores, padding mask, softmax and value
    /// aggregation are **one** fused node, `crowd_autograd::Graph::segment_attention`:
    /// attention never crosses segments, the node keeps its softmax blocks, and its
    /// backward applies the per-segment VJPs of the chain it replaces. The heads'
    /// outputs are concatenated and go through the stacked output projection, whose
    /// matmuls accumulate all segments' parameter gradients in one sweep.
    ///
    /// The segments must *tile* the buffer: contiguous, in row order, starting at row 0
    /// and covering every row of `x`. That is exactly the layout
    /// `SetQNetwork::forward_batch` builds; debug assertions enforce it.
    ///
    /// The stacked tape matmuls run on the **graph's** thread pool
    /// (`crowd_autograd::Graph::with_pool`), so building the training graph on a pooled
    /// tape shards the same projections `infer_packed_par` shards at inference time —
    /// with the same bit-identity guarantee, forward and backward.
    ///
    /// The forward *values* are the same bits [`MultiHeadSelfAttention::infer_packed`]
    /// produces (both run the same fused kernel over the same projection bits;
    /// `crowd-rl-core`'s packed-learning equivalence suite leans on this), per-segment
    /// rows match a per-segment [`MultiHeadSelfAttention::forward`] with the matching
    /// padding mask, and the gradients are the bits of the unfused per-segment chain
    /// (`tests/kernel_equivalence.rs`).
    pub fn forward_packed(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        binding: &mut GraphBinding,
        x: VarId,
        segments: &[PoolSegment],
    ) -> Result<VarId> {
        debug_assert!(
            {
                let mut expected_start = 0;
                segments.iter().all(|seg| {
                    let contiguous = seg.start == expected_start;
                    expected_start = seg.end();
                    contiguous
                }) && expected_start == graph.value(x).rows()
            },
            "forward_packed segments must tile the packed buffer contiguously from row 0"
        );
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut concat: Option<VarId> = None;
        for head in &self.heads {
            let wq = binding.bind(graph, store, head.wq);
            let wk = binding.bind(graph, store, head.wk);
            let wv = binding.bind(graph, store, head.wv);
            let q = graph.matmul(x, wq)?;
            let k = graph.matmul(x, wk)?;
            let v = graph.matmul(x, wv)?;
            let head_out = graph.segment_attention(q, k, v, segments, scale)?;
            concat = Some(match concat {
                None => head_out,
                Some(prev) => graph.concat_cols(prev, head_out)?,
            });
        }
        let concat = concat.expect("at least one head");
        self.output.forward(graph, store, binding, concat)
    }

    /// Gradient-free forward pass over a packed `[Σ pool sizes, model_dim]` buffer holding
    /// `N` sessions' state rows back to back — the batched-inference hot path.
    ///
    /// The Q/K/V and output projections are row-wise, so they run as single stacked matmuls
    /// over the whole buffer; scores and softmax never cross sessions, so they run block by
    /// block, fused per segment, with each segment's own padding mask. The rows of the
    /// result are bit-identical to calling [`MultiHeadSelfAttention::infer`] once per
    /// segment with its `real_rows` (row-wise matmul rows depend only on their own input
    /// row), and to the unfused tape chain of [`MultiHeadSelfAttention::forward`] with
    /// [`MultiHeadSelfAttention::padding_mask`]`(rows, real_rows)` — the fused block
    /// computes every element with the same operations in the same order as that chain.
    ///
    /// Rows not covered by any segment come back as bias-shifted zeros and must be ignored
    /// by the caller; segments must be sorted by start row and may not overlap (a typed
    /// error otherwise).
    pub fn infer_packed(
        &self,
        store: &ParamStore,
        x: &Matrix,
        segments: &[PoolSegment],
    ) -> Result<Matrix> {
        self.infer_packed_par(store, x, segments, ThreadPool::serial())
    }

    /// [`MultiHeadSelfAttention::infer_packed`] with its stacked matmuls row-sharded over
    /// `pool` — the parallel batched-inference path, with the pool handle threaded down
    /// from the session layer (`SessionBatch` → `DdqnAgent::act_batch` →
    /// `SetQNetwork::infer_batch_par`).
    ///
    /// Every head's Q, K and V come out of **one** stacked projection (the heads' weights
    /// side by side, each output element the same inner-dimension sum as a per-head
    /// matmul). Each segment's score / softmax / value block then runs through the fused
    /// kernel `crowd_tensor::segment_attention`, which writes the head's result straight
    /// into its column block of the packed concat buffer with scratch reused across
    /// segments and heads; the output projection is one stacked matmul again. Only the
    /// stacked projections shard; the per-segment blocks are small (`rows × rows` with
    /// `rows` the pool size) and stay on the calling thread. Row sharding keeps every
    /// output row's f32 accumulation order unchanged, so the result is
    /// **bit-identical** to [`MultiHeadSelfAttention::infer_packed`] at any thread count.
    pub fn infer_packed_par(
        &self,
        store: &ParamStore,
        x: &Matrix,
        segments: &[PoolSegment],
        pool: ThreadPool,
    ) -> Result<Matrix> {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let hd = self.head_dim;
        let qkv = x.matmul_par(&self.stacked_qkv(store), pool)?;
        let mut concat = Matrix::zeros(x.rows(), self.model_dim);
        let mut scratch = AttentionScratch::default();
        for h in 0..self.heads.len() {
            let base = 3 * h * hd;
            segment_attention(
                ColumnBlock::new(&qkv, base, hd)?,
                ColumnBlock::new(&qkv, base + hd, hd)?,
                ColumnBlock::new(&qkv, base + 2 * hd, hd)?,
                segments,
                scale,
                &mut concat,
                h * hd,
                None,
                &mut scratch,
            )?;
        }
        self.output.infer_par(store, &concat, pool)
    }

    /// Every head's projection weights side by side, `[W_q0 | W_k0 | W_v0 | W_q1 | …]`
    /// (`model_dim × 3·model_dim`), so one matmul yields every head's Q, K and V.
    fn stacked_qkv(&self, store: &ParamStore) -> Matrix {
        let hd = self.head_dim;
        let width = 3 * self.model_dim;
        let mut stacked = Matrix::zeros(self.model_dim, width);
        for (h, head) in self.heads.iter().enumerate() {
            for (part, id) in [head.wq, head.wk, head.wv].into_iter().enumerate() {
                let w = store.get(id);
                let col0 = (3 * h + part) * hd;
                for r in 0..self.model_dim {
                    stacked.row_mut(r)[col0..col0 + hd].copy_from_slice(w.row(r));
                }
            }
        }
        stacked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_autograd::Graph;

    fn setup(
        model_dim: usize,
        heads: usize,
        seed: u64,
    ) -> (ParamStore, MultiHeadSelfAttention, Rng) {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, "attn", model_dim, heads, &mut rng);
        (store, attn, rng)
    }

    #[test]
    fn output_shape_matches_input() {
        let (store, attn, mut rng) = setup(8, 4, 0);
        let x = Matrix::randn(6, 8, &mut rng);
        let out = attn.infer(&store, &x, 6).unwrap();
        assert_eq!(out.shape(), (6, 8));
    }

    #[test]
    fn tape_and_inference_agree() {
        let (store, attn, mut rng) = setup(8, 2, 1);
        let x = Matrix::randn(5, 8, &mut rng);
        let mask = MultiHeadSelfAttention::padding_mask(5, 3);

        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(x.clone());
        let y = attn
            .forward(&mut g, &store, &mut binding, xv, Some(&mask))
            .unwrap();
        let inferred = attn.infer(&store, &x, 3).unwrap();
        assert_eq!(
            g.value(y),
            &inferred,
            "fused inference diverged from the tape chain"
        );
    }

    #[test]
    fn permutation_equivariance_over_rows() {
        // Swapping two input rows swaps the corresponding output rows (self-attention is
        // permutation-equivariant; combined with a final row-wise reduction this gives the
        // permutation-invariant Q values claimed in the paper).
        let (store, attn, mut rng) = setup(4, 2, 2);
        let a = Matrix::randn(1, 4, &mut rng);
        let b = Matrix::randn(1, 4, &mut rng);
        let c = Matrix::randn(1, 4, &mut rng);
        let abc = a.concat_rows(&b).unwrap().concat_rows(&c).unwrap();
        let cba = c.concat_rows(&b).unwrap().concat_rows(&a).unwrap();
        let out1 = attn.infer(&store, &abc, 3).unwrap();
        let out2 = attn.infer(&store, &cba, 3).unwrap();
        for col in 0..4 {
            assert!((out1.get(0, col) - out2.get(2, col)).abs() < 1e-5);
            assert!((out1.get(1, col) - out2.get(1, col)).abs() < 1e-5);
            assert!((out1.get(2, col) - out2.get(0, col)).abs() < 1e-5);
        }
    }

    #[test]
    fn padding_mask_blocks_padded_rows() {
        // The representation of real rows must be identical whether padded rows contain
        // zeros or garbage, as long as the mask hides them.
        let (store, attn, mut rng) = setup(4, 2, 3);
        let real = Matrix::randn(3, 4, &mut rng);
        let zeros_pad = real.concat_rows(&Matrix::zeros(2, 4)).unwrap();
        let garbage_pad = real
            .concat_rows(&Matrix::randn(2, 4, &mut rng).scale(50.0))
            .unwrap();
        let out_zero = attn.infer(&store, &zeros_pad, 3).unwrap();
        let out_garbage = attn.infer(&store, &garbage_pad, 3).unwrap();
        for r in 0..3 {
            for c in 0..4 {
                assert!(
                    (out_zero.get(r, c) - out_garbage.get(r, c)).abs() < 1e-4,
                    "row {r} col {c} differs"
                );
            }
        }
    }

    #[test]
    fn gradients_flow_to_all_heads() {
        let (store, attn, mut rng) = setup(8, 4, 4);
        let x = Matrix::randn(4, 8, &mut rng);
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(x);
        let y = attn
            .forward(&mut g, &store, &mut binding, xv, None)
            .unwrap();
        let loss = g.squared_sum(y);
        g.backward(loss).unwrap();
        let grads = binding.gradients(&g);
        // 4 heads * 3 projections + output weight + output bias.
        assert_eq!(grads.len(), 14);
        let nonzero = grads.iter().filter(|(_, m)| m.norm() > 0.0).count();
        assert!(nonzero >= 13, "only {nonzero} params received gradient");
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_head_dim_panics() {
        let mut rng = Rng::seed_from(5);
        let mut store = ParamStore::new();
        let _ = MultiHeadSelfAttention::new(&mut store, "bad", 7, 2, &mut rng);
    }

    #[test]
    fn packed_inference_is_bit_identical_to_per_segment_inference() {
        // The guarantee the batched Q-network path is built on: one packed forward pass
        // over N sessions' rows produces exactly the bits of N independent passes.
        let (store, attn, mut rng) = setup(8, 2, 6);
        let pools = [(5usize, 3usize), (4, 4), (6, 1)];
        let blocks: Vec<Matrix> = pools
            .iter()
            .map(|&(rows, _)| Matrix::randn(rows, 8, &mut rng))
            .collect();
        let block_refs: Vec<&Matrix> = blocks.iter().collect();
        let packed = Matrix::vstack(&block_refs).unwrap();
        let mut segments = Vec::new();
        let mut start = 0;
        for &(rows, real) in &pools {
            segments.push(PoolSegment {
                start,
                rows,
                real_rows: real,
            });
            start += rows;
        }
        let out = attn.infer_packed(&store, &packed, &segments).unwrap();
        for (block, seg) in blocks.iter().zip(&segments) {
            let solo = attn.infer(&store, block, seg.real_rows).unwrap();
            assert_eq!(
                out.slice_rows(seg.start, seg.end()).unwrap(),
                solo,
                "segment starting at {} differs from the per-session pass",
                seg.start
            );
        }
    }

    #[test]
    fn forward_packed_matches_infer_packed_bit_for_bit() {
        // The training-side guarantee: the packed tape values are the very bits the packed
        // inference path produces, including a padded segment in the middle.
        let (store, attn, mut rng) = setup(8, 2, 8);
        let pools = [(4usize, 4usize), (5, 2), (3, 3)];
        let total: usize = pools.iter().map(|&(rows, _)| rows).sum();
        let x = Matrix::randn(total, 8, &mut rng);
        let mut segments = Vec::new();
        let mut start = 0;
        for &(rows, real) in &pools {
            segments.push(PoolSegment {
                start,
                rows,
                real_rows: real,
            });
            start += rows;
        }
        let inferred = attn.infer_packed(&store, &x, &segments).unwrap();

        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(x);
        let y = attn
            .forward_packed(&mut g, &store, &mut binding, xv, &segments)
            .unwrap();
        assert_eq!(
            g.value(y),
            &inferred,
            "tape forward_packed diverged from infer_packed"
        );
    }

    #[test]
    fn forward_packed_segments_match_per_segment_forward() {
        // Each segment's rows on the packed tape equal a standalone per-segment forward
        // with the matching padding mask — the property the packed learner's per-transition
        // Q values rest on.
        let (store, attn, mut rng) = setup(4, 2, 9);
        let blocks = [Matrix::randn(3, 4, &mut rng), Matrix::randn(5, 4, &mut rng)];
        let packed = Matrix::vstack(&[&blocks[0], &blocks[1]]).unwrap();
        let segments = [
            PoolSegment {
                start: 0,
                rows: 3,
                real_rows: 2,
            },
            PoolSegment {
                start: 3,
                rows: 5,
                real_rows: 5,
            },
        ];
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(packed);
        let y = attn
            .forward_packed(&mut g, &store, &mut binding, xv, &segments)
            .unwrap();
        for (block, seg) in blocks.iter().zip(&segments) {
            let mask = MultiHeadSelfAttention::padding_mask(seg.rows, seg.real_rows);
            let mut g_solo = Graph::new();
            let mut binding_solo = GraphBinding::new();
            let x_solo = g_solo.constant(block.clone());
            let y_solo = attn
                .forward(&mut g_solo, &store, &mut binding_solo, x_solo, Some(&mask))
                .unwrap();
            for r in 0..seg.rows {
                assert_eq!(
                    g.value(y).row(seg.start + r),
                    g_solo.value(y_solo).row(r),
                    "segment at {} row {r} differs from the standalone forward",
                    seg.start
                );
            }
        }
    }

    #[test]
    fn forward_packed_gradients_flow_to_all_heads() {
        let (store, attn, mut rng) = setup(8, 4, 10);
        let x = Matrix::randn(7, 8, &mut rng);
        let segments = [
            PoolSegment {
                start: 0,
                rows: 4,
                real_rows: 4,
            },
            PoolSegment {
                start: 4,
                rows: 3,
                real_rows: 3,
            },
        ];
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let xv = g.constant(x);
        let y = attn
            .forward_packed(&mut g, &store, &mut binding, xv, &segments)
            .unwrap();
        let loss = g.squared_sum(y);
        g.backward(loss).unwrap();
        let grads = binding.gradients(&g);
        // 4 heads * 3 projections + output weight + output bias.
        assert_eq!(grads.len(), 14);
        let nonzero = grads.iter().filter(|(_, m)| m.norm() > 0.0).count();
        assert!(nonzero >= 13, "only {nonzero} params received gradient");
    }

    #[test]
    fn gradcheck_forward_packed_two_unequal_segments() {
        // Finite-difference check of the packed backward across a 2-segment pack with
        // unequal pool sizes — the case a wrong row offset in the fused SegmentAttention
        // VJP would corrupt. Every parameter is tied to a gradcheck leaf through
        // GraphBinding::preset, so the check runs through forward_packed itself.
        use crowd_autograd::gradcheck::{check_gradient, ScalarFn};

        let (store, attn, mut rng) = setup(4, 2, 11);
        let segments = [
            PoolSegment {
                start: 0,
                rows: 2,
                real_rows: 2,
            },
            PoolSegment {
                start: 2,
                rows: 5,
                real_rows: 5,
            },
        ];
        let param_ids: Vec<ParamId> = store.iter().map(|(id, _, _)| id).collect();
        let mut inputs = vec![Matrix::randn(7, 4, &mut rng)];
        inputs.extend(store.iter().map(|(_, _, value)| value.clone()));

        let store_for_closure = store.clone();
        let attn_for_closure = attn.clone();
        let ids_for_closure = param_ids.clone();
        let f: Box<ScalarFn> = Box::new(move |g, leaf_ids| {
            let mut binding = GraphBinding::new();
            for (pid, leaf) in ids_for_closure.iter().zip(&leaf_ids[1..]) {
                binding.preset(*pid, *leaf);
            }
            let y = attn_for_closure
                .forward_packed(g, &store_for_closure, &mut binding, leaf_ids[0], &segments)
                .unwrap();
            g.squared_sum(y)
        });
        for idx in 0..inputs.len() {
            let report = check_gradient(&f, &inputs, idx, 1e-2);
            assert!(
                report.passes(5e-2),
                "forward_packed input {idx} ({}): {report:?}",
                if idx == 0 {
                    "x"
                } else {
                    store.name(param_ids[idx - 1])
                }
            );
        }
    }

    #[test]
    fn infer_packed_par_is_bit_identical_at_any_thread_count() {
        // A packed buffer tall enough that the stacked projections would shard on a real
        // multi-thread pool; the pooled result must be the exact serial bits regardless.
        let (store, attn, mut rng) = setup(8, 2, 12);
        let x = Matrix::randn(96, 8, &mut rng);
        let segments: Vec<PoolSegment> = (0..12)
            .map(|i| PoolSegment {
                start: i * 8,
                rows: 8,
                real_rows: if i % 3 == 0 { 5 } else { 8 },
            })
            .collect();
        let serial = attn.infer_packed(&store, &x, &segments).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = ThreadPool::new(threads);
            let pooled = attn.infer_packed_par(&store, &x, &segments, pool).unwrap();
            assert_eq!(pooled, serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn packed_inference_with_empty_segment_list_ignores_every_row() {
        let (store, attn, mut rng) = setup(4, 2, 7);
        let x = Matrix::randn(3, 4, &mut rng);
        // No segments: nothing to attend over; the result only carries the output bias.
        let out = attn.infer_packed(&store, &x, &[]).unwrap();
        assert_eq!(out.shape(), (3, 4));
    }
}
