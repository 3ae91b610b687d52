//! Reference oracles: the plain, unfused computations the production kernels, tape ops and
//! learner are held to, bit for bit, by the differential suites (`tests/kernel_equivalence.rs`,
//! `tests/packed_learning_equivalence.rs`) and timed against by the benches
//! (`benches/kernel_throughput.rs`, `benches/batched_training.rs`).
//!
//! Nothing here runs in production, and nothing here needs private access to the library:
//!
//! * [`matmul_ref`] / [`matmul_transpose_ref`] — textbook scalar products realising the
//!   accumulation-order contract of `crowd_tensor::ops`;
//! * [`attention_ref`] / [`attention_ref_backward`] — per-segment attention as the chain
//!   of `Matrix` primitives it fuses (slice, transpose, matmul, scale, softmax, matmul),
//!   with each primitive's vector-Jacobian product applied in the order a tape's reverse
//!   sweep over that chain applies it; [`attention_layer_ref`] does the same for a whole
//!   `MultiHeadSelfAttention` layer;
//! * [`leaky_relu_ref`] / [`leaky_relu_ref_backward`] — the five-primitive leaky
//!   rectifier chain the fused `Graph::leaky_relu` node replaces;
//! * [`SequentialLearner`] — the pre-packing double-DQN update loop, rebuilt from a
//!   `DqnLearner`'s checkpoint bytes.

use crowd_autograd::Graph;
use crowd_ckpt::{LoadState, StateReader};
use crowd_nn::{Adam, GraphBinding, Optimizer, ParamId, ParamStore, PoolSegment};
use crowd_rl_core::{
    load_replay, DdqnConfig, Experience, FutureBranch, LearnReport, SetQNetwork, StateTensor,
    Transition,
};
use crowd_rl_kit::PrioritizedReplay;
use crowd_tensor::{Matrix, Result, Rng, TensorError};

/// Scalar reference for `Matrix::matmul`: the textbook `i-k-j` loop, no blocking, no lane
/// unrolling. Every element is the sequential `p`-ordered sum of the accumulation-order
/// contract, so the result is bit-identical to the blocked kernel.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] (op `matmul_ref`) unless `a.cols() == b.rows()`.
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_ref",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (k, n) = (a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), n);
    for (i, c_row) in out.as_mut_slice().chunks_exact_mut(n.max(1)).enumerate() {
        for (p, &a_ip) in a.as_slice()[i * k..(i + 1) * k].iter().enumerate() {
            for (c, &b_pj) in c_row.iter_mut().zip(&b.as_slice()[p * n..(p + 1) * n]) {
                *c += a_ip * b_pj;
            }
        }
    }
    Ok(out)
}

/// Scalar reference for `Matrix::matmul_transpose` (`a · bᵀ`): one sequential dot product
/// per output element.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] (op `matmul_transpose_ref`) unless
/// `a.cols() == b.cols()`.
pub fn matmul_transpose_ref(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transpose_ref",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    Ok(out)
}

/// One segment's forward chain: `softmax(q·kᵀ · scale)` (kept for the backward) and
/// `softmax(…)·v`, over the segment's rows of the packed operands.
fn segment_forward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    seg: &PoolSegment,
    scale: f32,
) -> Result<(Matrix, Matrix)> {
    let qb = q.slice_rows(seg.start, seg.end())?;
    let kt = k.slice_rows(seg.start, seg.end())?.transpose();
    let vb = v.slice_rows(seg.start, seg.end())?;
    let attn = qb.matmul(&kt)?.scale(scale).softmax_rows();
    let out = attn.matmul(&vb)?;
    Ok((attn, out))
}

/// Per-segment attention over packed `[n, d]` operands, as the unfused chain of `Matrix`
/// primitives: for every segment, slice the rows of Q, K and V, then
/// `softmax((Q_s · K_sᵀ) · scale) · V_s`, pasted into the segment's rows of an
/// `[n, v.cols]` output. Rows outside every segment stay zero.
///
/// # Errors
///
/// Shape errors from the primitives when the operands or segments disagree.
pub fn attention_ref(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[PoolSegment],
    scale: f32,
) -> Result<Matrix> {
    let mut out = Matrix::zeros(q.rows(), v.cols());
    for seg in segments {
        out.paste_rows(seg.start, &segment_forward(q, k, v, seg, scale)?.1)?;
    }
    Ok(out)
}

/// Reverse mode of [`attention_ref`]: given the upstream gradient `up` of its output,
/// returns `(dQ, dK, dV)`. Segments are visited last to first and, inside a segment, the
/// primitives' VJPs run in reverse creation order, exactly as a tape's reverse sweep over
/// the chain runs them:
///
/// 1. `A·V_s`: `d_A = up_s · V_sᵀ`, `dV_s = Aᵀ · up_s`;
/// 2. softmax: `d_S' = A ∘ (d_A − ⟨d_A, A⟩)` per row;
/// 3. scale: `d_S = d_S' · scale`;
/// 4. `Q_s · K_sᵀ` (the transposed key block is its own node): `dQ_s = d_S · (K_sᵀ)ᵀ`,
///    `d(K_sᵀ) = Q_sᵀ · d_S`;
/// 5. transpose: `dK_s = (d(K_sᵀ))ᵀ`;
/// 6. the row slices: paste each block into its segment's rows.
///
/// # Errors
///
/// Shape errors from the primitives when the operands, `up` or the segments disagree.
pub fn attention_ref_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    segments: &[PoolSegment],
    scale: f32,
    up: &Matrix,
) -> Result<(Matrix, Matrix, Matrix)> {
    let mut dq = Matrix::zeros(q.rows(), q.cols());
    let mut dk = Matrix::zeros(k.rows(), k.cols());
    let mut dv = Matrix::zeros(v.rows(), v.cols());
    for seg in segments.iter().rev() {
        let (attn, _) = segment_forward(q, k, v, seg, scale)?;
        let qb = q.slice_rows(seg.start, seg.end())?;
        let kt = k.slice_rows(seg.start, seg.end())?.transpose();
        let vb = v.slice_rows(seg.start, seg.end())?;
        let up_s = up.slice_rows(seg.start, seg.end())?;
        let d_attn = up_s.matmul_transpose(&vb)?;
        let dv_s = attn.transpose_matmul(&up_s)?;
        let d_scores = attn.softmax_rows_vjp(&d_attn)?.scale(scale);
        let dq_s = d_scores.matmul_transpose(&kt)?;
        let dk_s = qb.transpose_matmul(&d_scores)?.transpose();
        dv.paste_rows(seg.start, &dv_s)?;
        dk.paste_rows(seg.start, &dk_s)?;
        dq.paste_rows(seg.start, &dq_s)?;
    }
    Ok((dq, dk, dv))
}

/// Value and gradients of one `MultiHeadSelfAttention` layer from [`attention_layer_ref`].
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// The layer's output.
    pub value: Matrix,
    /// Gradient with respect to the layer input.
    pub dx: Matrix,
    /// Parameter gradients in the order the layer binds its parameters: `wq`, `wk`, `wv`
    /// of every head, then the output projection's weight and bias.
    pub params: Vec<Matrix>,
}

/// A whole `MultiHeadSelfAttention` layer registered as `name` in `store` with `heads`
/// heads, run over the packed input `x` with unfused per-segment attention
/// ([`attention_ref`]), and differentiated for the upstream gradient `up` with explicit
/// VJPs in a tape's reverse-sweep order: the output projection first, then the heads from
/// last to first, each head's V, K and Q projection in that order. The input gradient
/// accumulates across those projections in exactly that order.
///
/// # Errors
///
/// Shape errors from the primitives; a missing parameter is a panic.
pub fn attention_layer_ref(
    store: &ParamStore,
    name: &str,
    heads: usize,
    x: &Matrix,
    segments: &[PoolSegment],
    up: &Matrix,
) -> Result<LayerGrads> {
    let param = |suffix: String| {
        let full = format!("{name}.{suffix}");
        store
            .iter()
            .find(|(_, n, _)| *n == full)
            .map(|(_, _, m)| m.clone())
            .unwrap_or_else(|| panic!("parameter {full} is not registered"))
    };
    let projections: Vec<[Matrix; 3]> = (0..heads)
        .map(|h| ["wq", "wk", "wv"].map(|w| param(format!("head{h}.{w}"))))
        .collect();
    let (out_w, out_b) = (param("out.weight".into()), param("out.bias".into()));
    let head_dim = x.cols() / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();

    let mut qkv = Vec::with_capacity(heads);
    let mut concat: Option<Matrix> = None;
    for [wq, wk, wv] in &projections {
        let (q, k, v) = (x.matmul(wq)?, x.matmul(wk)?, x.matmul(wv)?);
        let head_out = attention_ref(&q, &k, &v, segments, scale)?;
        concat = Some(match concat {
            None => head_out,
            Some(prev) => prev.concat_cols(&head_out)?,
        });
        qkv.push((q, k, v));
    }
    let concat = concat.expect("at least one head");
    let value = concat.matmul(&out_w)?.add_row_broadcast(&out_b)?;

    let d_out_b = up.col_sums();
    let d_concat = up.matmul_transpose(&out_w)?;
    let d_out_w = concat.transpose_matmul(up)?;
    let mut dx: Option<Matrix> = None;
    let mut head_grads = vec![Vec::new(); heads];
    for (h, ([wq, wk, wv], (q, k, v))) in projections.iter().zip(&qkv).enumerate().rev() {
        let d_head = d_concat.slice_cols(h * head_dim, (h + 1) * head_dim)?;
        let (dq, dk, dv) = attention_ref_backward(q, k, v, segments, scale, &d_head)?;
        for (d, w) in [(&dv, wv), (&dk, wk), (&dq, wq)] {
            let delta = d.matmul_transpose(w)?;
            match dx.as_mut() {
                Some(acc) => acc.add_assign(&delta)?,
                None => dx = Some(delta),
            }
        }
        head_grads[h] = vec![
            x.transpose_matmul(&dq)?,
            x.transpose_matmul(&dk)?,
            x.transpose_matmul(&dv)?,
        ];
    }
    let mut params: Vec<Matrix> = head_grads.into_iter().flatten().collect();
    params.extend([d_out_w, d_out_b]);
    Ok(LayerGrads {
        value,
        dx: dx.expect("at least one head"),
        params,
    })
}

/// The leaky rectifier as its five-primitive chain:
/// `relu(x) − scale(relu(scale(x, −1)), slope)`.
pub fn leaky_relu_ref(x: &Matrix, slope: f32) -> Matrix {
    let pos = x.relu();
    let leak = x.scale(-1.0).relu().scale(slope);
    pos.sub(&leak).expect("same shape")
}

/// Reverse mode of [`leaky_relu_ref`] for the upstream gradient `up`, in a tape's
/// reverse-sweep order over the chain: the subtraction hands `up` to the positive branch
/// and `up · −1` to the leak; the leak's scale, relu gate and `−1` scale reach the input
/// first, and the positive relu's gated `up` is added to it after.
pub fn leaky_relu_ref_backward(x: &Matrix, slope: f32, up: &Matrix) -> Matrix {
    let gate = |m: &Matrix| m.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    let negated = x.scale(-1.0);
    let d_leak = up.scale(-1.0);
    let d_neg = d_leak.scale(slope);
    let d_negated = d_neg.hadamard(&gate(&negated)).expect("same shape");
    let mut dx = d_negated.scale(-1.0);
    dx.add_assign(&up.hadamard(&gate(x)).expect("same shape"))
        .expect("same shape");
    dx
}

/// A standalone copy of `branch`'s state: rows `first_row..first_row + rows` of the
/// experience's future tensor, features and task ids.
fn branch_state(experience: &Experience, branch: &FutureBranch) -> StateTensor {
    let future = &experience.future;
    let (first, end) = (branch.first_row, branch.first_row + branch.rows);
    let row_dim = future.features().cols();
    let features = Matrix::from_vec(
        branch.rows,
        row_dim,
        future.features().as_slice()[first * row_dim..end * row_dim].to_vec(),
    )
    .expect("a window of rows is a matrix");
    StateTensor::new(features, future.task_ids()[first..end].to_vec()).expect("one task id per row")
}

/// The pre-packing double-DQN update loop: per sampled transition one single-state
/// `SetQNetwork::forward_batch` graph with its own backward, per-branch single-state
/// target passes with no cache, and the importance weight applied as `masked_mse × w`
/// with gradients summed over the minibatch and then scaled.
///
/// It is rebuilt from a `DqnLearner`'s checkpoint bytes (the `DqnLearner` layout of
/// `docs/CHECKPOINT_FORMAT.md`) into public kit types, so it starts from exactly the
/// learner's state and draws the same minibatch from the same sampling RNG.
#[derive(Debug)]
pub struct SequentialLearner {
    net: SetQNetwork,
    store: ParamStore,
    target_store: ParamStore,
    optimizer: Adam,
    memory: PrioritizedReplay<Transition>,
    rng: Rng,
    gamma: f32,
    batch_size: usize,
    target_sync_every: u64,
    updates: u64,
    losses: Vec<f32>,
}

impl SequentialLearner {
    /// Decodes the bytes a `DqnLearner` built with `config`, `input_dim` and `gamma`
    /// writes for itself (`StateWriter::save(&learner)`).
    ///
    /// # Errors
    ///
    /// A checkpoint error when the bytes are not such a learner's state, or carry
    /// trailing bytes.
    pub fn from_checkpoint(
        config: &DdqnConfig,
        input_dim: usize,
        gamma: f32,
        bytes: &[u8],
    ) -> crowd_ckpt::Result<Self> {
        let mut store = ParamStore::new();
        let net = SetQNetwork::new(
            &mut store,
            "qnet",
            input_dim,
            config.hidden_dim,
            config.num_heads,
            &mut Rng::seed_from(0),
        );
        let mut target_store = store.clone();
        let mut rng = Rng::seed_from(0);
        let mut optimizer = Adam::new(config.learning_rate);
        let mut memory = PrioritizedReplay::new(config.buffer_size);

        let mut r = StateReader::new(bytes);
        rng.load_state(&mut r)?;
        let updates = r.take_u64()?;
        let losses = r.take_f32_vec()?;
        store.load_state(&mut r)?;
        target_store.load_state(&mut r)?;
        optimizer.load_state(&mut r)?;
        load_replay(&mut memory, &mut r)?;
        r.finish("DqnLearner")?;
        Ok(SequentialLearner {
            net,
            store,
            target_store,
            optimizer,
            memory,
            rng,
            gamma,
            batch_size: config.batch_size,
            target_sync_every: config.target_sync_every,
            updates,
            losses,
        })
    }

    /// Q values of one state under `store`: a packed pass over a batch of one.
    fn q_values(&self, store: &ParamStore, state: &StateTensor) -> Result<Vec<f32>> {
        Ok(self.net.infer_batch(store, &[state])?.remove(0))
    }

    /// Double-DQN target of one transition, branch by branch: the action is selected by
    /// θ and evaluated by θ̃, over the branches with a task and a probability that is not
    /// `<= 0`. Each branch's window is first copied out of the experience's future
    /// tensor into a standalone state.
    fn target_for(&self, transition: &Transition) -> Result<f32> {
        let live =
            |b: &&FutureBranch| b.rows > 0 && (b.probability > 0.0 || b.probability.is_nan());
        let mut future = 0.0f32;
        for branch in transition.branches().iter().filter(live) {
            let state = branch_state(&transition.experience, branch);
            let online = self.q_values(&self.store, &state)?;
            // Greatest Q, ties to the earlier row; a NaN takes the lead, as in `learn`.
            let best_row =
                (1..online.len()).fold(
                    0,
                    |best, i| {
                        if online[i] <= online[best] {
                            best
                        } else {
                            i
                        }
                    },
                );
            let target_q = self.q_values(&self.target_store, &state)?;
            future += branch.probability * target_q[best_row];
        }
        Ok(transition.reward + self.gamma * future)
    }

    /// One prioritized minibatch update, transition by transition; `None` while the
    /// memory holds fewer transitions than the batch size.
    ///
    /// # Errors
    ///
    /// Shape errors from the network passes.
    pub fn learn(&mut self) -> Result<Option<LearnReport>> {
        if self.memory.len() < self.batch_size {
            return Ok(None);
        }
        let samples = self.memory.sample(self.batch_size, &mut self.rng);
        let mut grad_sums: Vec<Option<(ParamId, Matrix)>> = Vec::new();
        let mut total_loss = 0.0f32;
        let mut total_abs_td = 0.0f32;
        let mut priorities = Vec::with_capacity(samples.len());
        for sample in &samples {
            let transition = self
                .memory
                .get(sample.index)
                .expect("sampled slot must be occupied");
            let target_value = self.target_for(transition)?;

            let mut graph = Graph::new();
            let mut binding = GraphBinding::new();
            let (q_column, _) = self.net.forward_batch(
                &mut graph,
                &self.store,
                &mut binding,
                &[transition.state()],
            )?;
            let row = transition.action_row;
            let td_error = target_value - graph.value(q_column).get(row, 0);
            let mut mask = Matrix::zeros(transition.state().real_tasks(), 1);
            let mut target = Matrix::zeros(transition.state().real_tasks(), 1);
            mask.set(row, 0, 1.0);
            target.set(row, 0, target_value);
            let loss = graph.masked_mse(q_column, &target, &mask)?;
            let weighted_loss = graph.scale(loss, sample.weight);
            total_loss += graph.value(weighted_loss).get(0, 0);
            total_abs_td += td_error.abs();
            graph.backward(weighted_loss)?;

            for (pid, grad) in binding.gradients(&graph) {
                let idx = pid.index();
                if grad_sums.len() <= idx {
                    grad_sums.resize_with(idx + 1, || None);
                }
                match &mut grad_sums[idx] {
                    Some((_, sum)) => sum.add_assign(&grad)?,
                    slot @ None => *slot = Some((pid, grad)),
                }
            }
            priorities.push((sample.index, td_error));
        }

        let batch = samples.len();
        let scale = 1.0 / batch as f32;
        let grads: Vec<(ParamId, Matrix)> = grad_sums
            .into_iter()
            .flatten()
            .map(|(pid, grad)| (pid, grad.scale(scale)))
            .collect();
        self.optimizer.step(&mut self.store, &grads)?;
        for (slot, td_error) in priorities {
            self.memory.update_priority(slot, td_error);
        }
        let report = LearnReport {
            loss: total_loss * scale,
            mean_td_error: total_abs_td * scale,
            batch,
        };
        self.losses.push(report.loss);
        self.updates += 1;
        if self.updates.is_multiple_of(self.target_sync_every) {
            self.target_store.copy_from(&self.store);
        }
        Ok(Some(report))
    }

    /// Online parameters θ.
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Number of updates, the decoded count included.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Every update's loss, the decoded stream included.
    pub fn loss_history(&self) -> &[f32] {
        &self.losses
    }

    /// Current sampling priority of replay `slot`.
    pub fn replay_priority(&self, slot: usize) -> f64 {
        self.memory.priority(slot)
    }

    /// The next `u64` the sampling RNG would produce, without advancing it.
    pub fn rng_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }
}
