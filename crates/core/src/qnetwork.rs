//! The set-based Q-network (paper Fig. 3 and Fig. 4).
//!
//! Architecture, following Sec. IV-B2:
//!
//! 1. two row-wise feed-forward blocks lift each `[f_tj | f_wi]` row to the hidden width;
//! 2. a multi-head self-attention layer computes pairwise interactions among the available
//!    tasks, followed by a residual row-wise block that keeps the network stable;
//! 3. a second self-attention layer captures higher-order interactions, with a residual
//!    connection so each row keeps its own identity (without it the head would see only a
//!    convex combination of rows, and training can collapse the Q function to a
//!    row-independent constant);
//! 4. a final row-wise linear layer reduces every row to a single value `Q(s_i, t_j)`.
//!
//! Every block is row-wise or self-attention, so the Q value of a task does not depend on
//! the order of the other tasks — only on *which* tasks are present (the
//! permutation-invariance argument of the paper's appendix). The final reduction is a plain
//! linear layer rather than a ReLU'd one so Q values are not constrained to be non-negative;
//! this is the only deviation from the figure and is noted in DESIGN.md.
//!
//! The network scores only real tasks: both passes pack the real rows of `N` states back
//! to back into one `[Σ pool sizes, row_dim]` buffer, one [`PoolSegment`] per non-empty
//! state. A [`StateTensor`] holds only real rows, so each state — or a window of one, a
//! [`StateRows`] block — is one contiguous copy.
//! [`SetQNetwork::forward_batch`] is the taped pass (training) and
//! [`SetQNetwork::infer_batch`] / [`SetQNetwork::infer_batch_par`] the tape-free one
//! (acting and double-DQN targets); a single state is a batch of one.

use crate::state::{StateRows, StateTensor};
use crowd_autograd::{Graph, VarId};
use crowd_nn::{GraphBinding, Linear, MultiHeadSelfAttention, ParamStore, PoolSegment, RowwiseFF};
use crowd_tensor::{Matrix, Rng};

/// Greatest-Q row index; ties break towards the earlier row, `None` on an empty slice.
pub(crate) fn argmax_of(q: &[f32]) -> Option<usize> {
    q.iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f32)>, (i, &v)| match best {
            Some((_, bv)) if v <= bv => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// Result alias from the numeric substrate.
pub type Result<T> = crowd_tensor::Result<T>;

/// The permutation-invariant Q-network.
#[derive(Debug, Clone)]
pub struct SetQNetwork {
    ff1: RowwiseFF,
    ff2: RowwiseFF,
    attention1: MultiHeadSelfAttention,
    residual_ff: RowwiseFF,
    attention2: MultiHeadSelfAttention,
    head: Linear,
    input_dim: usize,
    hidden_dim: usize,
}

impl SetQNetwork {
    /// Registers all layers into `store`. Constructing a second network over a *cloned* store
    /// yields a parameter-compatible target network (same [`crowd_nn::ParamId`] layout).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        num_heads: usize,
        rng: &mut Rng,
    ) -> Self {
        let ff1 = RowwiseFF::new(store, &format!("{name}.ff1"), input_dim, hidden_dim, rng);
        let ff2 = RowwiseFF::new(store, &format!("{name}.ff2"), hidden_dim, hidden_dim, rng);
        let attention1 = MultiHeadSelfAttention::new(
            store,
            &format!("{name}.attn1"),
            hidden_dim,
            num_heads,
            rng,
        );
        let residual_ff =
            RowwiseFF::new(store, &format!("{name}.resff"), hidden_dim, hidden_dim, rng);
        let attention2 = MultiHeadSelfAttention::new(
            store,
            &format!("{name}.attn2"),
            hidden_dim,
            num_heads,
            rng,
        );
        let head = Linear::new(store, &format!("{name}.head"), hidden_dim, 1, rng);
        SetQNetwork {
            ff1,
            ff2,
            attention1,
            residual_ff,
            attention2,
            head,
            input_dim,
            hidden_dim,
        }
    }

    /// Input row dimension expected by the network.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden width of the internal layers.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Packs the row blocks back to back into one `[Σ block rows, row_dim]` buffer with
    /// one padding-free segment per *non-empty* block (empty blocks contribute no rows
    /// and no segment). Returns `None` when every block is empty. Each block is one
    /// contiguous copy, borrowed from a whole state or a window of one; all blocks must
    /// agree on the row width, and a mismatch is reported against the first non-empty
    /// block's shape so the diagnostic names the actual disagreement.
    fn pack_rows(
        op: &'static str,
        blocks: &[StateRows<'_>],
    ) -> Result<Option<(Matrix, Vec<PoolSegment>)>> {
        let mut segments: Vec<PoolSegment> = Vec::with_capacity(blocks.len());
        let mut first_shape = None;
        let mut total_rows = 0;
        for block in blocks.iter().filter(|b| b.rows() > 0) {
            let first = *first_shape.get_or_insert((block.rows(), block.row_dim()));
            if block.row_dim() != first.1 {
                return Err(crowd_tensor::TensorError::ShapeMismatch {
                    op,
                    lhs: first,
                    rhs: (block.rows(), block.row_dim()),
                });
            }
            segments.push(PoolSegment {
                start: total_rows,
                rows: block.rows(),
            });
            total_rows += block.rows();
        }
        let Some((_, row_dim)) = first_shape else {
            return Ok(None);
        };
        let mut x = Matrix::zeros(total_rows, row_dim);
        {
            let dst = x.as_mut_slice();
            for (block, seg) in blocks.iter().filter(|b| b.rows() > 0).zip(&segments) {
                dst[seg.start * row_dim..seg.end() * row_dim].copy_from_slice(block.features());
            }
        }
        Ok(Some((x, segments)))
    }

    /// Differentiable twin of [`SetQNetwork::infer_batch`]: `N` states through **one**
    /// packed graph on the tape, producing a single `[Σ pool sizes, 1]` Q column — the
    /// packed-minibatch training path that lets `DqnLearner::learn` differentiate a whole
    /// minibatch with one forward + one backward sweep.
    ///
    /// Only the *real* task rows are packed (same layout as the inference path); the
    /// row-wise blocks run as stacked tape matmuls over the whole buffer and the two
    /// attention layers run per-segment via
    /// [`MultiHeadSelfAttention::forward_packed`]. Returns the Q-column node plus the
    /// segments, one per state in order, so callers can map each state's `action_row` to
    /// `segments[i].start + action_row` in the packed column. The packed values are
    /// **bit-identical** to a `forward_batch` over each state alone and to
    /// [`SetQNetwork::infer_batch`] — same argument as the inference path, proven by the
    /// unit tests below and `tests/packed_learning_equivalence.rs`.
    ///
    /// # Errors
    ///
    /// Every state must hold at least one real task (a learner minibatch always does:
    /// every stored transition's `action_row` indexes a real row); an empty pool or an
    /// empty `states` slice yields [`crowd_tensor::TensorError::EmptyInput`] because a
    /// zero-row segment has no Q entries to select.
    ///
    /// The stacked tape matmuls run on the **graph's** thread pool — build the graph with
    /// `crowd_autograd::Graph::with_pool` to shard them (bit-identical to a serial tape).
    pub fn forward_batch(
        &self,
        graph: &mut Graph,
        store: &ParamStore,
        binding: &mut GraphBinding,
        states: &[&StateTensor],
    ) -> Result<(VarId, Vec<PoolSegment>)> {
        if states.is_empty() || states.iter().any(|s| s.real_tasks() == 0) {
            return Err(crowd_tensor::TensorError::EmptyInput {
                op: "forward_batch",
            });
        }
        let blocks: Vec<StateRows<'_>> = states.iter().map(|s| s.as_rows()).collect();
        let (x, segments) = Self::pack_rows("forward_batch", &blocks)?
            .expect("non-empty states always produce a packed buffer");
        let xv = graph.constant(x);
        let h1 = self.ff1.forward(graph, store, binding, xv)?;
        let h2 = self.ff2.forward(graph, store, binding, h1)?;
        let a1 = self
            .attention1
            .forward_packed(graph, store, binding, h2, &segments)?;
        let r1 = self.residual_ff.forward(graph, store, binding, a1)?;
        let h3 = graph.add(h2, r1)?;
        let a2 = self
            .attention2
            .forward_packed(graph, store, binding, h3, &segments)?;
        let h4 = graph.add(h3, a2)?;
        let q = self.head.forward(graph, store, binding, h4)?;
        Ok((q, segments))
    }

    /// Gradient-free forward pass over `N` states in **one** packed graph — the batched
    /// inference path that lets a `SessionBatch`'s arrivals (see `crowd-experiments` and
    /// `ARCHITECTURE.md` at the repository root) share a single forward pass.
    ///
    /// Only the *real* task rows of every state are stacked, into one
    /// `[Σ pool sizes, row_dim]` buffer with per-session row offsets; the row-wise blocks
    /// (`ff1`, `ff2`, the residual block and the head) run as stacked matmuls over the
    /// whole buffer, and the two attention layers run per-session over the packed rows via
    /// [`MultiHeadSelfAttention::infer_packed`]. Every returned Q vector is
    /// **bit-identical** to what `infer_batch` returns for that state alone: each row-wise
    /// output row depends only on its own input row, and attention never leaves its
    /// segment. (See the equivalence tests below and `tests/batched_equivalence.rs` for
    /// the end-to-end proof.) Only real task rows are scored, so a pass costs what the
    /// pools hold.
    ///
    /// Empty pools are short-circuited: their entry is an empty vector and they contribute
    /// no rows to the packed buffer.
    pub fn infer_batch(
        &self,
        store: &ParamStore,
        states: &[&StateTensor],
    ) -> Result<Vec<Vec<f32>>> {
        self.infer_batch_par(store, states, crowd_tensor::ThreadPool::serial())
    }

    /// [`SetQNetwork::infer_batch`] with every stacked matmul (the row-wise blocks, the
    /// attention projections, the head) row-sharded over `pool` — the parallel inference
    /// path, with the pool handle threaded down from the session layer. **Bit-identical**
    /// to `infer_batch` at any thread count: row sharding never changes a row's f32
    /// accumulation order (see `crowd_tensor::Matrix::matmul_par`), and everything else
    /// is unchanged serial code.
    pub fn infer_batch_par(
        &self,
        store: &ParamStore,
        states: &[&StateTensor],
        pool: crowd_tensor::ThreadPool,
    ) -> Result<Vec<Vec<f32>>> {
        let blocks: Vec<StateRows<'_>> = states.iter().map(|s| s.as_rows()).collect();
        self.infer_rows_par(store, &blocks, pool)
    }

    /// [`SetQNetwork::infer_batch_par`] over borrowed row blocks — whole states or
    /// windows of one ([`StateTensor::window`]), each scored as the state it holds, so a
    /// window gives the bits of the standalone state with the same rows. The one
    /// gradient-free pass: the state-slice entry points above delegate here.
    pub fn infer_rows_par(
        &self,
        store: &ParamStore,
        blocks: &[StateRows<'_>],
        pool: crowd_tensor::ThreadPool,
    ) -> Result<Vec<Vec<f32>>> {
        let Some((x, segments)) = Self::pack_rows("infer_batch", blocks)? else {
            return Ok(vec![Vec::new(); blocks.len()]);
        };
        let h1 = self.ff1.infer_par(store, &x, pool)?;
        let h2 = self.ff2.infer_par(store, &h1, pool)?;
        let a1 = self
            .attention1
            .infer_packed_par(store, &h2, &segments, pool)?;
        let r1 = self.residual_ff.infer_par(store, &a1, pool)?;
        let h3 = h2.add(&r1)?;
        let a2 = self
            .attention2
            .infer_packed_par(store, &h3, &segments, pool)?;
        let h4 = h3.add(&a2)?;
        let q = self.head.infer_par(store, &h4, pool)?;
        let col = q.col(0);
        let mut out = Vec::with_capacity(blocks.len());
        let mut seg_iter = segments.iter();
        for block in blocks {
            if block.rows() == 0 {
                out.push(Vec::new());
                continue;
            }
            let seg = seg_iter.next().expect("one segment per non-empty block");
            out.push(col[seg.start..seg.end()].to_vec());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{StateKind, StateTransformer};
    use crowd_sim::{TaskId, TaskSnapshot};

    fn snapshot(id: u32, seed: f32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![seed, 1.0 - seed, 0.5 * seed, 0.2],
            quality: 0.0,
            award: 10.0,
            category: 0,
            domain: 0,
            deadline: 1000 + id as u64,
            completions: 0,
        }
    }

    fn state(n: u32, max_tasks: usize) -> StateTensor {
        let tf = StateTransformer::new(StateKind::Worker, max_tasks, 4, 3);
        let snaps: Vec<TaskSnapshot> = (0..n).map(|i| snapshot(i, i as f32 * 0.1)).collect();
        tf.build(&snaps, &[0.3, 0.6, 0.1], 0.5)
    }

    fn network(input_dim: usize, seed: u64) -> (ParamStore, SetQNetwork) {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        let net = SetQNetwork::new(&mut store, "q", input_dim, 16, 4, &mut rng);
        (store, net)
    }

    /// Q values of one state: a packed pass over a batch of one.
    fn infer(net: &SetQNetwork, store: &ParamStore, st: &StateTensor) -> Vec<f32> {
        net.infer_batch(store, &[st]).unwrap().remove(0)
    }

    #[test]
    fn infer_returns_one_q_per_real_task() {
        let (store, net) = network(7, 0);
        let st = state(5, 8);
        let q = infer(&net, &store, &st);
        assert_eq!(q.len(), 5);
        assert!(q.iter().all(|v| v.is_finite()));
        assert!(infer(&net, &store, &state(0, 8)).is_empty());
    }

    #[test]
    fn tape_forward_matches_inference() {
        let (store, net) = network(7, 1);
        let st = state(4, 6);
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let (out, _) = net
            .forward_batch(&mut g, &store, &mut binding, &[&st])
            .unwrap();
        assert_eq!(g.value(out).col(0), infer(&net, &store, &st));
    }

    #[test]
    fn q_values_are_permutation_invariant() {
        // Reversing the task order must permute Q values identically (paper appendix).
        let (store, net) = network(7, 2);
        let tf = StateTransformer::new(StateKind::Worker, 6, 4, 3);
        let snaps: Vec<TaskSnapshot> = (0..5).map(|i| snapshot(i, i as f32 * 0.17)).collect();
        let mut reversed = snaps.clone();
        reversed.reverse();
        let wf = [0.3, 0.6, 0.1];
        let q_fwd = infer(&net, &store, &tf.build(&snaps, &wf, 0.5));
        let q_rev = infer(&net, &store, &tf.build(&reversed, &wf, 0.5));
        for i in 0..5 {
            assert!(
                (q_fwd[i] - q_rev[4 - i]).abs() < 1e-4,
                "row {i}: {} vs {}",
                q_fwd[i],
                q_rev[4 - i]
            );
        }
    }

    #[test]
    fn q_depends_on_the_other_available_tasks() {
        // The same (worker, task) pair gets a different value when the competing pool
        // changes — the contextual effect the paper argues per-task scoring models miss.
        let (store, net) = network(7, 3);
        let tf = StateTransformer::new(StateKind::Worker, 6, 4, 3);
        let wf = [0.3, 0.6, 0.1];
        let solo = tf.build(&[snapshot(0, 0.1)], &wf, 0.5);
        let crowded: Vec<TaskSnapshot> = (0..5)
            .map(|i| snapshot(i, if i == 0 { 0.1 } else { 0.9 }))
            .collect();
        let crowded_state = tf.build(&crowded, &wf, 0.5);
        let q_solo = infer(&net, &store, &solo)[0];
        let q_crowded = infer(&net, &store, &crowded_state)[0];
        assert!(
            (q_solo - q_crowded).abs() > 1e-6,
            "pool context had no effect on Q"
        );
    }

    #[test]
    fn padding_does_not_change_real_q_values() {
        // The same pool under a larger maxT builds the same rows, so it gives the same Qs.
        let (store, net) = network(7, 4);
        let small_tf = StateTransformer::new(StateKind::Worker, 5, 4, 3);
        let large_tf = StateTransformer::new(StateKind::Worker, 12, 4, 3);
        let snaps: Vec<TaskSnapshot> = (0..4).map(|i| snapshot(i, i as f32 * 0.2)).collect();
        let wf = [0.3, 0.6, 0.1];
        let q_small = infer(&net, &store, &small_tf.build(&snaps, &wf, 0.5));
        let q_large = infer(&net, &store, &large_tf.build(&snaps, &wf, 0.5));
        assert_eq!(q_small, q_large);
    }

    #[test]
    fn argmax_and_max_agree() {
        let (store, net) = network(7, 5);
        let q = infer(&net, &store, &state(6, 8));
        let max = q.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let arg = argmax_of(&q).unwrap();
        assert_eq!(q[arg], max);
        // Ties break towards the earlier row; an empty pool has no best row.
        assert_eq!(argmax_of(&[1.0, 3.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax_of(&[]), None);
    }

    #[test]
    fn cloned_store_is_a_compatible_target_network() {
        let (store, net) = network(7, 6);
        let mut target = store.clone();
        let st = state(3, 8);
        // Initially identical.
        assert_eq!(infer(&net, &store, &st), infer(&net, &target, &st));
        // Diverge the target, then hard-sync back.
        let first_param = target.iter().next().map(|(id, _, _)| id).unwrap();
        target.get_mut(first_param).fill(0.0);
        target.copy_from(&store);
        assert_eq!(infer(&net, &store, &st), infer(&net, &target, &st));
    }

    #[test]
    fn infer_batch_is_bit_identical_to_sequential_infer() {
        // N states through one packed forward pass yield exactly the bits of N one-state
        // passes — including empty pools and mixed pool sizes.
        let (store, net) = network(7, 8);
        let states = [state(5, 8), state(0, 8), state(3, 8), state(8, 8)];
        let refs: Vec<&StateTensor> = states.iter().collect();
        let batched = net.infer_batch(&store, &refs).unwrap();
        assert_eq!(batched.len(), states.len());
        for (st, q_batch) in states.iter().zip(&batched) {
            assert_eq!(
                q_batch,
                &infer(&net, &store, st),
                "batched Q diverged from sequential Q"
            );
        }
    }

    #[test]
    fn infer_batch_par_is_bit_identical_at_any_thread_count() {
        let (store, net) = network(7, 15);
        let states = [state(5, 8), state(0, 8), state(3, 6), state(8, 8)];
        let refs: Vec<&StateTensor> = states.iter().collect();
        let serial = net.infer_batch(&store, &refs).unwrap();
        for threads in [1usize, 2, 8] {
            let pool = crowd_tensor::ThreadPool::new(threads);
            let pooled = net.infer_batch_par(&store, &refs, pool).unwrap();
            assert_eq!(pooled, serial, "diverged at {threads} threads");
        }
    }

    #[test]
    fn pooled_forward_batch_matches_serial_tape_bit_for_bit() {
        // The packed training graph on a pooled tape must produce the serial tape's bits
        // (forward values; gradients are covered by the autograd-level test).
        let (store, net) = network(7, 16);
        let states = [state(5, 8), state(3, 6), state(8, 8)];
        let refs: Vec<&StateTensor> = states.iter().collect();
        let run = |pool: crowd_tensor::ThreadPool| {
            let mut g = Graph::with_pool(pool);
            let mut binding = GraphBinding::new();
            let (q, _) = net
                .forward_batch(&mut g, &store, &mut binding, &refs)
                .unwrap();
            g.value(q).clone()
        };
        let serial = run(crowd_tensor::ThreadPool::serial());
        for threads in [2usize, 8] {
            assert_eq!(
                run(crowd_tensor::ThreadPool::new(threads)),
                serial,
                "pooled tape diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn windows_score_like_the_standalone_states_they_hold() {
        // Suffix windows of one state (the shape of a stored experience's branches),
        // mixed with a whole state and an empty window, give the bits of each window
        // copied out into a state of its own.
        let (store, net) = network(7, 17);
        let tf = StateTransformer::new(StateKind::Worker, 8, 4, 3);
        let snaps: Vec<TaskSnapshot> = (0..6).map(|i| snapshot(i, i as f32 * 0.13)).collect();
        let wf = [0.3, 0.6, 0.1];
        let future = tf.build(&snaps, &wf, 0.5);
        let other = state(3, 8);
        let blocks = [
            future.window(0, 6),
            other.as_rows(),
            future.window(2, 4),
            future.window(6, 0),
            future.window(5, 1),
        ];
        let packed = net
            .infer_rows_par(&store, &blocks, crowd_tensor::ThreadPool::serial())
            .unwrap();
        let standalone = [
            future.clone(),
            other.clone(),
            tf.build(&snaps[2..], &wf, 0.5),
            tf.build(&[], &wf, 0.5),
            tf.build(&snaps[5..], &wf, 0.5),
        ];
        for (i, (q, st)) in packed.iter().zip(&standalone).enumerate() {
            assert_eq!(q, &infer(&net, &store, st), "block {i}");
        }
    }

    #[test]
    fn infer_batch_handles_mixed_max_tasks() {
        // Sessions with different pool capacities pack into one buffer of unequal blocks.
        let (store, net) = network(7, 9);
        let a = state(4, 6);
        let b = state(7, 12);
        let batched = net.infer_batch(&store, &[&a, &b]).unwrap();
        assert_eq!(batched[0], infer(&net, &store, &a));
        assert_eq!(batched[1], infer(&net, &store, &b));
    }

    #[test]
    fn infer_batch_of_empty_pools_skips_the_forward_pass() {
        let (store, net) = network(7, 11);
        let empty = state(0, 8);
        let out = net.infer_batch(&store, &[&empty, &empty]).unwrap();
        assert_eq!(out, vec![Vec::<f32>::new(), Vec::new()]);
        assert!(net.infer_batch(&store, &[]).unwrap().is_empty());
    }

    #[test]
    fn forward_batch_is_bit_identical_to_per_state_forward_and_infer_batch() {
        // The packed-training guarantee: one tape for N states produces exactly the bits of
        // N one-state tapes, and exactly the bits of the gradient-free packed inference
        // path.
        let (store, net) = network(7, 12);
        let states = [state(5, 8), state(3, 6), state(8, 8)];
        let refs: Vec<&StateTensor> = states.iter().collect();

        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        let (q, segments) = net
            .forward_batch(&mut g, &store, &mut binding, &refs)
            .unwrap();
        assert_eq!(segments.len(), states.len());
        let packed_col = g.value(q).col(0);
        assert_eq!(packed_col.len(), 5 + 3 + 8);

        let inferred = net.infer_batch(&store, &refs).unwrap();
        for (st, seg) in states.iter().zip(&segments) {
            // vs the one-state tape.
            let mut g_solo = Graph::new();
            let mut binding_solo = GraphBinding::new();
            let (q_solo, _) = net
                .forward_batch(&mut g_solo, &store, &mut binding_solo, &[st])
                .unwrap();
            let solo_col = g_solo.value(q_solo).col(0);
            for row in 0..st.real_tasks() {
                assert_eq!(
                    packed_col[seg.start + row].to_bits(),
                    solo_col[row].to_bits(),
                    "packed tape Q diverged from the one-state tape at row {row}"
                );
            }
        }
        // vs the packed inference path: same bits across the whole column.
        let flattened: Vec<f32> = inferred.into_iter().flatten().collect();
        assert_eq!(
            packed_col, flattened,
            "tape values diverged from infer_batch"
        );
    }

    #[test]
    fn forward_batch_gradient_trains_all_selected_rows() {
        use crowd_nn::{Adam, Optimizer};
        // One packed update per step moves two different states' selected Q values towards
        // their targets simultaneously.
        let (mut store, net) = network(7, 13);
        let states = [state(4, 6), state(6, 8)];
        let refs: Vec<&StateTensor> = states.iter().collect();
        let initial = net.infer_batch(&store, &refs).unwrap();
        let targets = [initial[0][1] + 2.0, initial[1][3] - 1.5];
        let mut opt = Adam::new(0.01);
        for _ in 0..80 {
            let mut g = Graph::new();
            let mut binding = GraphBinding::new();
            let (q, segments) = net
                .forward_batch(&mut g, &store, &mut binding, &refs)
                .unwrap();
            let total_rows = segments.last().unwrap().end();
            let mut target = Matrix::zeros(total_rows, 1);
            let mut mask = Matrix::zeros(total_rows, 1);
            let mut weights = Matrix::zeros(total_rows, 1);
            for (seg, (&row, &y)) in segments.iter().zip([1usize, 3].iter().zip(&targets)) {
                mask.set(seg.start + row, 0, 1.0);
                target.set(seg.start + row, 0, y);
                weights.set(seg.start + row, 0, 1.0);
            }
            let loss = g
                .weighted_masked_mse(q, &target, &mask, &weights, 2.0)
                .unwrap();
            g.backward(loss).unwrap();
            opt.step(&mut store, &binding.gradients(&g)).unwrap();
        }
        let trained = net.infer_batch(&store, &refs).unwrap();
        assert!(
            (trained[0][1] - targets[0]).abs() < 0.2,
            "state 0 Q moved to {} target {}",
            trained[0][1],
            targets[0]
        );
        assert!(
            (trained[1][3] - targets[1]).abs() < 0.2,
            "state 1 Q moved to {} target {}",
            trained[1][3],
            targets[1]
        );
    }

    #[test]
    fn forward_batch_rejects_empty_pools() {
        let (store, net) = network(7, 14);
        let full = state(3, 6);
        let empty = state(0, 6);
        let mut g = Graph::new();
        let mut binding = GraphBinding::new();
        assert!(net
            .forward_batch(&mut g, &store, &mut binding, &[&full, &empty])
            .is_err());
        assert!(net
            .forward_batch(&mut g, &store, &mut binding, &[])
            .is_err());
    }

    #[test]
    fn gradient_step_moves_q_towards_target() {
        use crowd_nn::{Adam, Optimizer};
        let (mut store, net) = network(7, 7);
        let st = state(4, 6);
        let mut opt = Adam::new(0.01);
        let initial_q = infer(&net, &store, &st)[1];
        let target_value = initial_q + 2.0;
        let mut mask = Matrix::zeros(4, 1);
        let mut target = Matrix::zeros(4, 1);
        mask.set(1, 0, 1.0);
        target.set(1, 0, target_value);
        for _ in 0..60 {
            let mut g = Graph::new();
            let mut binding = GraphBinding::new();
            let (out, _) = net
                .forward_batch(&mut g, &store, &mut binding, &[&st])
                .unwrap();
            let loss = g.masked_mse(out, &target, &mask).unwrap();
            g.backward(loss).unwrap();
            opt.step(&mut store, &binding.gradients(&g)).unwrap();
        }
        let trained_q = infer(&net, &store, &st)[1];
        assert!(
            (trained_q - target_value).abs() < 0.2,
            "Q moved from {initial_q} to {trained_q}, target {target_value}"
        );
    }
}
