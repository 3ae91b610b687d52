//! The tape ([`Graph`]) and its forward (eager) op-insertion API.

use crate::op::Op;
use crate::Result;
use crowd_tensor::{
    segment_attention, AttentionScratch, ColumnBlock, Matrix, PoolSegment, TensorError, ThreadPool,
};

/// Handle to a node on a [`Graph`] tape.
///
/// `VarId`s are only meaningful for the graph that produced them; using one with a different
/// graph is a logic error (caught by debug assertions on index bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index on the tape; exposed for debugging / diagnostics only.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) inputs: Vec<VarId>,
    pub(crate) value: Matrix,
    pub(crate) requires_grad: bool,
    /// Values the op's backward needs besides its operands and output (the softmax
    /// blocks of a `SegmentAttention` node); empty for every other op.
    pub(crate) saved: Vec<f32>,
}

/// A define-by-run tape: ops are evaluated eagerly on insertion, and
/// [`backward`](Graph::backward) replays the tape in reverse to accumulate gradients.
///
/// Graphs are cheap to create and are intended to be rebuilt per forward pass; trainable
/// parameters live outside the graph (see `crowd-nn::ParamStore`) and are injected as
/// gradient-tracking leaves each time.
#[derive(Debug, Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) grads: Vec<Option<Matrix>>,
    /// Pool used by the matmul forward kernels and the MatMul backward VJPs. The serial
    /// default keeps every existing caller single-threaded; the packed-training path
    /// ([`Graph::with_pool`]) opts large stacked tapes into row-sharded kernels, which
    /// are bit-identical to the serial ones (see `crowd_tensor::Matrix::matmul_par`).
    pub(crate) pool: ThreadPool,
    /// Buffers reused by every fused-attention node's forward and backward.
    pub(crate) attention_scratch: AttentionScratch,
}

impl Graph {
    /// Creates an empty tape with serial (single-threaded) kernels.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty tape whose matmul kernels (forward and backward) may shard rows
    /// across `pool`. Values and gradients are bit-identical to a serial tape at any
    /// thread count; only wall clock changes.
    pub fn with_pool(pool: ThreadPool) -> Self {
        Graph {
            pool,
            ..Graph::default()
        }
    }

    /// The pool the tape's matmul kernels run on.
    pub fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, inputs: Vec<VarId>, value: Matrix, requires_grad: bool) -> VarId {
        self.push_saved(op, inputs, value, requires_grad, Vec::new())
    }

    fn push_saved(
        &mut self,
        op: Op,
        inputs: Vec<VarId>,
        value: Matrix,
        requires_grad: bool,
        saved: Vec<f32>,
    ) -> VarId {
        debug_assert_eq!(
            op.arity(),
            inputs.len(),
            "op arity mismatch for {}",
            op.name()
        );
        let id = VarId(self.nodes.len());
        self.nodes.push(Node {
            op,
            inputs,
            value,
            requires_grad,
            saved,
        });
        self.grads.push(None);
        id
    }

    fn value_of(&self, id: VarId) -> &Matrix {
        &self.nodes[id.0].value
    }

    fn needs_grad(&self, ids: &[VarId]) -> bool {
        ids.iter().any(|id| self.nodes[id.0].requires_grad)
    }

    /// Inserts a differentiable leaf (an input with respect to which gradients will be
    /// computed — typically a trainable parameter).
    pub fn leaf(&mut self, value: Matrix) -> VarId {
        self.push(Op::Leaf, vec![], value, true)
    }

    /// Inserts a constant leaf (no gradient will be accumulated for it — network inputs,
    /// masks, targets).
    pub fn constant(&mut self, value: Matrix) -> VarId {
        self.push(Op::Leaf, vec![], value, false)
    }

    /// Matrix product. Runs on the tape's [`ThreadPool`] (serial by default); the pooled
    /// kernel is bit-identical to the serial one.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value_of(a).matmul_par(self.value_of(b), self.pool)?;
        let rg = self.needs_grad(&[a, b]);
        Ok(self.push(Op::MatMul, vec![a, b], value, rg))
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value_of(a).add(self.value_of(b))?;
        let rg = self.needs_grad(&[a, b]);
        Ok(self.push(Op::Add, vec![a, b], value, rg))
    }

    /// Broadcast-adds a `1 x d` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: VarId, bias: VarId) -> Result<VarId> {
        let value = self.value_of(a).add_row_broadcast(self.value_of(bias))?;
        let rg = self.needs_grad(&[a, bias]);
        Ok(self.push(Op::AddRowBroadcast, vec![a, bias], value, rg))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value_of(a).sub(self.value_of(b))?;
        let rg = self.needs_grad(&[a, b]);
        Ok(self.push(Op::Sub, vec![a, b], value, rg))
    }

    /// Element-wise product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value_of(a).hadamard(self.value_of(b))?;
        let rg = self.needs_grad(&[a, b]);
        Ok(self.push(Op::Hadamard, vec![a, b], value, rg))
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, a: VarId, alpha: f32) -> VarId {
        let value = self.value_of(a).scale(alpha);
        let rg = self.needs_grad(&[a]);
        self.push(Op::Scale(alpha), vec![a], value, rg)
    }

    /// Adds `delta` to every element.
    pub fn shift(&mut self, a: VarId, delta: f32) -> VarId {
        let value = self.value_of(a).shift(delta);
        let rg = self.needs_grad(&[a]);
        self.push(Op::Shift(delta), vec![a], value, rg)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let value = self.value_of(a).relu();
        let rg = self.needs_grad(&[a]);
        self.push(Op::Relu, vec![a], value, rg)
    }

    /// Leaky rectifier `relu(a) − slope · relu(−a)`, as one node. Its value and its
    /// gradient are, element for element, the bits of composing
    /// `sub(relu(a), scale(relu(scale(a, −1)), slope))` from the primitive ops — the
    /// forward evaluates that expression per element, and the backward applies the five
    /// VJPs in the order the reverse sweep would (see `crate::backward`).
    // `v * -1.0` rather than `-v`: the chain's scale(-1) multiplies, and the two differ
    // on a NaN's sign bit.
    #[allow(clippy::neg_multiply)]
    pub fn leaky_relu(&mut self, a: VarId, slope: f32) -> VarId {
        let value = self.value_of(a).map(|v| {
            let pos = if v > 0.0 { v } else { 0.0 };
            let negated = v * -1.0;
            let neg = if negated > 0.0 { negated } else { 0.0 };
            pos - neg * slope
        });
        let rg = self.needs_grad(&[a]);
        self.push(Op::LeakyRelu(slope), vec![a], value, rg)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let value = self.value_of(a).softmax_rows();
        let rg = self.needs_grad(&[a]);
        self.push(Op::SoftmaxRows, vec![a], value, rg)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let value = self.value_of(a).transpose();
        let rg = self.needs_grad(&[a]);
        self.push(Op::Transpose, vec![a], value, rg)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value_of(a).concat_cols(self.value_of(b))?;
        let rg = self.needs_grad(&[a, b]);
        Ok(self.push(Op::ConcatCols, vec![a, b], value, rg))
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> Result<VarId> {
        let value = self.value_of(a).slice_cols(start, end)?;
        let rg = self.needs_grad(&[a]);
        Ok(self.push(Op::SliceCols { start, end }, vec![a], value, rg))
    }

    /// Row slice `a[start..end, :]` — gathers one segment's rows out of a packed buffer.
    /// The backward pass scatters the upstream gradient back into the matching rows of a
    /// zero matrix shaped like `a`.
    pub fn slice_rows(&mut self, a: VarId, start: usize, end: usize) -> Result<VarId> {
        let value = self.value_of(a).slice_rows(start, end)?;
        let rg = self.needs_grad(&[a]);
        Ok(self.push(Op::SliceRows { start, end }, vec![a], value, rg))
    }

    /// Vertical stack `[a0; a1; …]` of same-width nodes — scatters per-segment results back
    /// into one packed buffer. The backward pass routes each operand its own row block of
    /// the upstream gradient.
    pub fn vstack(&mut self, parts: &[VarId]) -> Result<VarId> {
        let values: Vec<&Matrix> = parts.iter().map(|&p| self.value_of(p)).collect();
        let value = Matrix::vstack(&values)?;
        let rows: Vec<usize> = values.iter().map(|m| m.rows()).collect();
        let rg = self.needs_grad(parts);
        Ok(self.push(Op::Vstack { parts: rows }, parts.to_vec(), value, rg))
    }

    /// Fused per-segment attention, one node per head: for every segment,
    /// `softmax(q·kᵀ·scale + mask)·v` over the segment's own rows (a padded segment masks
    /// its padded key columns), computed by `crowd_tensor::segment_attention` into one
    /// `[q.rows, v.cols]` output. Rows outside every segment are zero.
    ///
    /// The node keeps its softmax blocks for the backward pass, which applies per segment
    /// the VJPs of the unfused slice / transpose / matmul / scale / mask / softmax /
    /// matmul chain in that chain's per-element order — so values *and* gradients are the
    /// bits the chain produces, from one node instead of about eight per segment.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the operands disagree or a segment does not fit, and
    /// `TensorError::UnorderedSegments` when the segments are not sorted by start row or
    /// overlap (the backward writes each segment's gradient rows on their own).
    pub fn segment_attention(
        &mut self,
        q: VarId,
        k: VarId,
        v: VarId,
        segments: &[PoolSegment],
        scale: f32,
    ) -> Result<VarId> {
        let node = |id: VarId| &self.nodes[id.0].value;
        let (qv, kv, vv) = (node(q), node(k), node(v));
        if kv.shape() != qv.shape() || vv.rows() != qv.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "segment_attention",
                lhs: qv.shape(),
                rhs: if kv.shape() != qv.shape() {
                    kv.shape()
                } else {
                    vv.shape()
                },
            });
        }
        let mut value = Matrix::zeros(qv.rows(), vv.cols());
        let mut weights = Vec::new();
        segment_attention(
            ColumnBlock::whole(qv),
            ColumnBlock::whole(kv),
            ColumnBlock::whole(vv),
            segments,
            scale,
            &mut value,
            0,
            Some(&mut weights),
            &mut self.attention_scratch,
        )?;
        let rg = self.needs_grad(&[q, k, v]);
        let op = Op::SegmentAttention {
            segments: segments.to_vec(),
            scale,
        };
        Ok(self.push_saved(op, vec![q, k, v], value, rg, weights))
    }

    /// Sum of all elements (`1 x 1` result).
    pub fn sum(&mut self, a: VarId) -> VarId {
        let value = Matrix::filled(1, 1, self.value_of(a).sum());
        let rg = self.needs_grad(&[a]);
        self.push(Op::Sum, vec![a], value, rg)
    }

    /// Mean of all elements (`1 x 1` result).
    pub fn mean(&mut self, a: VarId) -> VarId {
        let value = Matrix::filled(1, 1, self.value_of(a).mean());
        let rg = self.needs_grad(&[a]);
        self.push(Op::Mean, vec![a], value, rg)
    }

    /// Sum of squared elements (`1 x 1` result).
    pub fn squared_sum(&mut self, a: VarId) -> VarId {
        let value = Matrix::filled(1, 1, self.value_of(a).squared_norm());
        let rg = self.needs_grad(&[a]);
        self.push(Op::SquaredSum, vec![a], value, rg)
    }

    /// Convenience: masked mean-squared error `sum(((pred - target) ∘ mask)^2) / max(1, Σ mask)`.
    ///
    /// `target` and `mask` are inserted as constants, so gradients flow only into `pred`.
    /// This is exactly the per-batch DQN loss of Eq. 1/3/6 where `mask` selects the entries
    /// corresponding to the taken actions.
    pub fn masked_mse(&mut self, pred: VarId, target: &Matrix, mask: &Matrix) -> Result<VarId> {
        let denom = mask.sum().max(1.0);
        let t = self.constant(target.clone());
        let m = self.constant(mask.clone());
        let diff = self.sub(pred, t)?;
        let masked = self.hadamard(diff, m)?;
        let sq = self.squared_sum(masked);
        Ok(self.scale(sq, 1.0 / denom))
    }

    /// The packed-minibatch DQN loss: importance-weighted masked mean-squared error
    /// `Σ_r w_r · (mask_r ∘ (pred_r − target_r))² / denom`, evaluated in one graph over a
    /// packed prediction column whose segments each carry one selected (masked-in) row.
    ///
    /// `target`, `mask` and `weights` are inserted as constants, so gradients flow only
    /// into `pred`; `weights` applies each transition's importance-sampling weight
    /// *in-graph*, and `denom` (the minibatch size) turns the weighted sum into the batch
    /// mean. The per-row evaluation order — square the masked difference, then multiply by
    /// the weight, then accumulate row by row — is chosen to reproduce bit for bit the
    /// value the sequential reference loop computes as
    /// `Σ_i masked_mse(pred_i, …) · w_i / B` (see `crowd-rl-core`'s learner): masked-out
    /// rows contribute exact `0.0` terms, and `f32` addition of `0.0` onto a non-negative
    /// accumulator is bit-exact.
    pub fn weighted_masked_mse(
        &mut self,
        pred: VarId,
        target: &Matrix,
        mask: &Matrix,
        weights: &Matrix,
        denom: f32,
    ) -> Result<VarId> {
        let t = self.constant(target.clone());
        let m = self.constant(mask.clone());
        let w = self.constant(weights.clone());
        let diff = self.sub(pred, t)?;
        let masked = self.hadamard(diff, m)?;
        let sq = self.hadamard(masked, masked)?;
        let weighted = self.hadamard(sq, w)?;
        let total = self.sum(weighted);
        Ok(self.scale(total, 1.0 / denom.max(1.0)))
    }

    /// Value of a node.
    pub fn value(&self, id: VarId) -> &Matrix {
        self.value_of(id)
    }

    /// Gradient accumulated for a node by the last [`backward`](Graph::backward) call, if any.
    pub fn grad(&self, id: VarId) -> Option<&Matrix> {
        self.grads[id.0].as_ref()
    }

    /// Whether a node participates in gradient computation.
    pub fn requires_grad(&self, id: VarId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Clears all accumulated gradients (the tape itself is retained).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            *g = None;
        }
    }

    /// Runs the backward pass from `output`, which must be a `1 x 1` scalar node, seeding its
    /// gradient with 1.0 and accumulating gradients for every differentiable ancestor.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `output` is not scalar.
    pub fn backward(&mut self, output: VarId) -> Result<()> {
        let shape = self.value_of(output).shape();
        if shape != (1, 1) {
            return Err(TensorError::ShapeMismatch {
                op: "backward (output must be 1x1 scalar)",
                lhs: shape,
                rhs: (1, 1),
            });
        }
        self.zero_grads();
        self.grads[output.0] = Some(Matrix::ones(1, 1));
        crate::backward::run(self, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).unwrap()
    }

    #[test]
    fn eager_forward_values() {
        let mut g = Graph::new();
        let a = g.constant(mat(1, 2, &[1.0, 2.0]));
        let b = g.constant(mat(2, 1, &[3.0, 4.0]));
        let c = g.matmul(a, b).unwrap();
        assert_eq!(g.value(c).get(0, 0), 11.0);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn requires_grad_propagates() {
        let mut g = Graph::new();
        let c = g.constant(Matrix::ones(2, 2));
        let p = g.leaf(Matrix::ones(2, 2));
        let s1 = g.add(c, c).unwrap();
        let s2 = g.add(c, p).unwrap();
        assert!(!g.requires_grad(s1));
        assert!(g.requires_grad(s2));
    }

    #[test]
    fn backward_requires_scalar_output() {
        let mut g = Graph::new();
        let p = g.leaf(Matrix::ones(2, 2));
        let r = g.relu(p);
        assert!(g.backward(r).is_err());
        let s = g.sum(r);
        assert!(g.backward(s).is_ok());
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut g = Graph::new();
        let c = g.constant(Matrix::ones(1, 2));
        let p = g.leaf(Matrix::ones(2, 1));
        let y = g.matmul(c, p).unwrap();
        let loss = g.squared_sum(y);
        g.backward(loss).unwrap();
        assert!(g.grad(c).is_none());
        assert!(g.grad(p).is_some());
    }

    #[test]
    fn masked_mse_matches_manual_computation() {
        let mut g = Graph::new();
        let pred = g.leaf(mat(1, 3, &[1.0, 2.0, 3.0]));
        let target = mat(1, 3, &[0.0, 5.0, 0.0]);
        let mask = mat(1, 3, &[0.0, 1.0, 0.0]);
        let loss = g.masked_mse(pred, &target, &mask).unwrap();
        // Only the middle entry counts: (2 - 5)^2 / 1 = 9.
        assert!((g.value(loss).get(0, 0) - 9.0).abs() < 1e-5);
        g.backward(loss).unwrap();
        let gp = g.grad(pred).unwrap();
        // d/dpred_1 = 2 * (2 - 5) = -6; masked-out entries get zero gradient.
        assert!((gp.get(0, 1) + 6.0).abs() < 1e-4);
        assert_eq!(gp.get(0, 0), 0.0);
        assert_eq!(gp.get(0, 2), 0.0);
    }

    #[test]
    fn weighted_masked_mse_matches_sequential_accumulation() {
        // Two "transitions" packed into one column: rows 1 and 3 are the selected action
        // rows with weights 0.5 and 1.0; denom 2 is the batch mean.
        let mut g = Graph::new();
        let pred = g.leaf(mat(4, 1, &[9.0, 2.0, 9.0, 4.0]));
        let target = mat(4, 1, &[0.0, 5.0, 0.0, 1.0]);
        let mask = mat(4, 1, &[0.0, 1.0, 0.0, 1.0]);
        let weights = mat(4, 1, &[0.0, 0.5, 0.0, 1.0]);
        let loss = g
            .weighted_masked_mse(pred, &target, &mask, &weights, 2.0)
            .unwrap();
        // ((2-5)^2 * 0.5 + (4-1)^2 * 1.0) / 2 = (4.5 + 9) / 2 = 6.75.
        assert!((g.value(loss).get(0, 0) - 6.75).abs() < 1e-5);
        g.backward(loss).unwrap();
        let gp = g.grad(pred).unwrap();
        // d/dpred_1 = 2 * (2 - 5) * 0.5 / 2 = -1.5; masked-out rows get zero gradient.
        assert!((gp.get(1, 0) + 1.5).abs() < 1e-4);
        assert!((gp.get(3, 0) - 3.0).abs() < 1e-4);
        assert_eq!(gp.get(0, 0), 0.0);
        assert_eq!(gp.get(2, 0), 0.0);
    }

    #[test]
    fn pooled_tape_matches_serial_tape_bit_for_bit() {
        // Forward values and backward gradients of a large matmul chain must be the exact
        // bits of the serial tape at any thread count (the row-sharded kernels' contract).
        use crowd_tensor::Rng;
        let mut rng = Rng::seed_from(7);
        let x = Matrix::randn(256, 48, &mut rng);
        let w1 = Matrix::randn(48, 64, &mut rng);
        let w2 = Matrix::randn(64, 32, &mut rng);
        let run = |pool: ThreadPool| {
            let mut g = Graph::with_pool(pool);
            let xv = g.constant(x.clone());
            let w1v = g.leaf(w1.clone());
            let w2v = g.leaf(w2.clone());
            let h = g.matmul(xv, w1v).unwrap();
            let y = g.matmul(h, w2v).unwrap();
            let loss = g.squared_sum(y);
            g.backward(loss).unwrap();
            (
                g.value(y).clone(),
                g.grad(w1v).unwrap().clone(),
                g.grad(w2v).unwrap().clone(),
            )
        };
        let serial = run(ThreadPool::serial());
        for threads in [2usize, 8] {
            let pooled = run(ThreadPool::new(threads));
            assert_eq!(pooled.0, serial.0, "forward diverged at {threads} threads");
            assert_eq!(pooled.1, serial.1, "grad(w1) diverged at {threads} threads");
            assert_eq!(pooled.2, serial.2, "grad(w2) diverged at {threads} threads");
        }
        assert_eq!(Graph::new().pool(), ThreadPool::serial());
        assert_eq!(Graph::with_pool(ThreadPool::new(4)).pool().threads(), 4);
    }

    #[test]
    fn zero_grads_resets() {
        let mut g = Graph::new();
        let p = g.leaf(Matrix::ones(1, 1));
        let loss = g.squared_sum(p);
        g.backward(loss).unwrap();
        assert!(g.grad(p).is_some());
        g.zero_grads();
        assert!(g.grad(p).is_none());
    }
}
