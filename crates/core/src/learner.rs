//! The double-DQN learner with the revised expected-future-state target (paper Eq. 3/4 for
//! MDP(w) and Eq. 6/7 for MDP(r)).
//!
//! For every sampled transition the target is
//!
//! ```text
//! y_i = r_i + γ · Σ_b Pr(branch b) · Q̃(s_b, argmax_a Q(s_b, a; θ); θ̃)
//! ```
//!
//! i.e. the action in each predicted future branch is *selected* by the online network θ and
//! *evaluated* by the target network θ̃ (double Q-learning, van Hasselt et al.), and the
//! expectation runs over the explicit future-state branches produced by the predictors
//! instead of a single observed next state. Sampling uses prioritized experience replay with
//! importance-sampling weights.
//!
//! # One autograd graph per update
//!
//! [`DqnLearner::learn`] is *packed*: the whole minibatch is one graph. The sampled
//! transitions' states go through [`SetQNetwork::forward_batch`] (one `[Σ pool sizes, 1]`
//! Q column on the tape), the loss is one in-graph importance-weighted masked MSE
//! (`crowd_autograd::Graph::weighted_masked_mse`), and all double-DQN targets come from
//! **two** packed passes — one [`SetQNetwork::infer_batch`] over every live future branch
//! of every sampled transition for the online argmax, one over the same branches for the
//! target-network evaluation. One `backward` then yields every parameter's minibatch
//! gradient.
//!
//! [`DqnLearner::learn_sequential`] retains the original per-transition loop (B separate
//! graphs, per-branch single-state inference) as the frozen reference path — it exists
//! only for the equivalence suite (`tests/packed_learning_equivalence.rs`) and the
//! training benchmark (`crates/bench/benches/batched_training.rs`). The equivalence
//! contract: from identical learner state, both paths report bit-identical loss / TD
//! errors and write bit-identical replay priorities (packed forward values equal
//! per-state forward values bit for bit, and the loss is accumulated in the same f32
//! order); post-update *parameters* agree only to documented f32 tolerance, because the
//! packed backward legitimately sums gradient contributions across the minibatch in a
//! different association order than the per-transition accumulation loop.

use crate::config::DdqnConfig;
use crate::memory::Transition;
use crate::qnetwork::{argmax_of, SetQNetwork};
use crate::state::StateTensor;
use crowd_autograd::Graph;
use crowd_nn::{Adam, GraphBinding, Optimizer, ParamStore};
use crowd_rl_kit::PrioritizedReplay;
use crowd_tensor::{Matrix, Rng, ThreadPool};
use std::time::{Duration, Instant};

/// Result alias from the numeric substrate.
pub type Result<T> = crowd_tensor::Result<T>;

/// Summary of one learning step.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnReport {
    /// Mean squared TD error over the minibatch (importance-weighted).
    pub loss: f32,
    /// Mean absolute TD error.
    pub mean_td_error: f32,
    /// Number of transitions in the minibatch.
    pub batch: usize,
}

/// A self-contained double-DQN learner for one of the two MDPs.
///
/// The learner **owns everything a gradient update touches**: networks, optimizer
/// moments, replay memory with priorities, *and its own minibatch-sampling RNG stream*
/// (seeded from the constructor RNG). That self-containment is what makes the dual
/// agent's two learners safe to run on two pool workers concurrently
/// (`DdqnAgent::observe` dispatches them via `crowd_parallel::ThreadPool::par_join`): no
/// state is shared, each learner's `sample_refs` borrow of its replay memory stays on its
/// own worker, and the update is deterministic at any thread count.
///
/// `Clone` duplicates the complete learner state — including the sampling RNG — which is
/// how the equivalence suite runs the packed and the sequential path from bit-identical
/// starting points.
#[derive(Debug, Clone)]
pub struct DqnLearner {
    net: SetQNetwork,
    store: ParamStore,
    target_store: ParamStore,
    optimizer: Adam,
    memory: PrioritizedReplay<Transition>,
    /// Minibatch-sampling RNG — owned so two learners never contend for one stream.
    rng: Rng,
    /// Pool for the packed forward/backward kernels inside `learn` (serial by default).
    pool: ThreadPool,
    gamma: f32,
    batch_size: usize,
    target_sync_every: u64,
    updates: u64,
    max_tasks: usize,
    learn_time: Duration,
    /// Every update's reported loss, in update order — the "loss stream" the parallel
    /// equivalence suite compares bit for bit across thread counts (4 bytes per update).
    losses: Vec<f32>,
}

impl DqnLearner {
    /// Creates a learner whose Q-network takes `input_dim`-wide state rows. `rng` seeds
    /// the network initialisation and the learner's own minibatch-sampling stream.
    pub fn new(config: &DdqnConfig, input_dim: usize, gamma: f32, rng: &mut Rng) -> Self {
        let mut store = ParamStore::new();
        let net = SetQNetwork::new(
            &mut store,
            "qnet",
            input_dim,
            config.hidden_dim,
            config.num_heads,
            rng,
        );
        let sample_rng = Rng::seed_from(rng.next_u64());
        let target_store = store.clone();
        DqnLearner {
            net,
            store,
            target_store,
            optimizer: Adam::new(config.learning_rate).with_grad_clip(config.grad_clip),
            memory: PrioritizedReplay::new(config.buffer_size),
            rng: sample_rng,
            pool: ThreadPool::serial(),
            gamma,
            batch_size: config.batch_size,
            target_sync_every: config.target_sync_every,
            updates: 0,
            max_tasks: config.max_tasks,
            learn_time: Duration::ZERO,
            losses: Vec::new(),
        }
    }

    /// Hands the learner a pool for the packed kernels inside [`DqnLearner::learn`] (the
    /// two target `infer_batch` passes and the training graph). Results stay
    /// bit-identical at any thread count; only wall clock changes.
    pub fn set_thread_pool(&mut self, pool: ThreadPool) {
        self.pool = pool;
    }

    /// The underlying Q-network (read-only access for diagnostics and benches).
    pub fn network(&self) -> &SetQNetwork {
        &self.net
    }

    /// Online parameters θ.
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Number of learning steps performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Wall time spent inside [`DqnLearner::learn`] / [`DqnLearner::learn_sequential`] so
    /// far (the gradient-update slice of the agent's `observe`), paired with the update
    /// count. Surfaced per policy through `crowd_sim::Policy::learner_timing` so the
    /// efficiency binaries can report per-update learner latency alongside decision time.
    pub fn learn_timing(&self) -> (u64, Duration) {
        (self.updates, self.learn_time)
    }

    /// Current sampling priority of replay `slot` (see
    /// `crowd_rl_kit::PrioritizedReplay::priority`); exposed so the packed-vs-sequential
    /// equivalence suite can compare two learners' replay state bit for bit.
    pub fn replay_priority(&self, slot: usize) -> f64 {
        self.memory.priority(slot)
    }

    /// Every update's reported loss so far, in update order — the loss stream the
    /// parallel equivalence suite (`tests/parallel_equivalence.rs`) asserts bit-identical
    /// across thread counts.
    pub fn loss_history(&self) -> &[f32] {
        &self.losses
    }

    /// Non-destructive probe of the minibatch-sampling RNG: the next `u64` the stream
    /// *would* produce, without advancing it. Two learners that consumed their RNGs
    /// identically probe identically — the post-run check of the equivalence suites.
    pub fn rng_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Number of transitions currently stored.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// Q values of the online network for a state (one per real task row).
    pub fn q_values(&self, state: &crate::state::StateTensor) -> Result<Vec<f32>> {
        self.net.infer(&self.store, state)
    }

    /// Q values of the online network for `N` states in one packed forward pass
    /// ([`SetQNetwork::infer_batch_par`] on the learner's pool); each entry is
    /// bit-identical to [`DqnLearner::q_values`] on that state alone, at any thread
    /// count.
    pub fn q_values_batch(&self, states: &[&crate::state::StateTensor]) -> Result<Vec<Vec<f32>>> {
        self.net.infer_batch_par(&self.store, states, self.pool)
    }

    /// Stores a transition with maximal priority.
    pub fn store_transition(&mut self, transition: Transition) {
        self.memory.push(transition);
    }

    /// Double-DQN target for one transition, branch by branch (the sequential reference;
    /// the packed path batches this across the whole minibatch).
    fn target_for(&self, transition: &Transition) -> Result<f32> {
        let mut future = 0.0f32;
        for branch in transition.branches.iter() {
            if branch.state.real_tasks == 0 || branch.probability <= 0.0 {
                continue;
            }
            // Action selection by the online network, evaluation by the target network.
            if let Some(best_row) = self.net.argmax_q(&self.store, &branch.state)? {
                let target_q = self.net.infer(&self.target_store, &branch.state)?;
                future += branch.probability * target_q[best_row];
            }
        }
        Ok(transition.reward + self.gamma * future)
    }

    /// Runs one prioritized minibatch update as **one** autograd graph; returns `None` when
    /// the memory holds fewer transitions than the batch size.
    ///
    /// One `learn` call performs exactly three network passes regardless of the batch size
    /// or the number of future branches:
    ///
    /// 1. one [`SetQNetwork::infer_batch`] over every live future branch of every sampled
    ///    transition with the online parameters θ — the double-DQN action *selection*;
    /// 2. one `infer_batch` over the same branches with the target parameters θ̃ — the
    ///    action *evaluation*; the targets
    ///    `y_i = r_i + γ · Σ_b Pr(b) · Q̃(s_b, argmax_a Q(s_b, a))` are then assembled
    ///    branch-by-branch in the sequential path's exact accumulation order;
    /// 3. one [`SetQNetwork::forward_batch`] packing all sampled states' real task rows
    ///    into a single `[Σ pool sizes, 1]` Q column on the tape, followed by one in-graph
    ///    importance-weighted masked MSE and one backward sweep.
    ///
    /// The sampled transitions are *borrowed* from the replay memory
    /// (`PrioritizedReplay::sample_refs`) — no per-update clones of state tensors or
    /// branch distributions; the minibatch is drawn from the learner's **own** sampling
    /// RNG, so two learners can update concurrently without sharing a stream. The packed
    /// kernels run on the learner's pool ([`DqnLearner::set_thread_pool`]) and are
    /// bit-identical at any thread count. Reported loss / TD errors and the written
    /// replay priorities are bit-identical to [`DqnLearner::learn_sequential`] from the
    /// same learner state; updated parameters match to f32 tolerance (see the module docs
    /// for why).
    pub fn learn(&mut self) -> Result<Option<LearnReport>> {
        if self.memory.len() < self.batch_size {
            return Ok(None);
        }
        let start = Instant::now();
        let (grads, priorities, report) = {
            let sampled = self.memory.sample_refs(self.batch_size, &mut self.rng);
            let batch = sampled.len();

            // Double-DQN targets: flatten every live branch of every sampled transition
            // into one state list, score it once per network, then fold the expectation
            // per transition in branch order (the sequential path's order).
            let mut branch_states: Vec<&StateTensor> = Vec::new();
            let mut branch_spans: Vec<(usize, usize)> = Vec::with_capacity(batch);
            let mut branch_probs: Vec<f32> = Vec::new();
            for (_, transition) in &sampled {
                let span_start = branch_states.len();
                for branch in transition.branches.iter() {
                    if branch.state.real_tasks == 0 || branch.probability <= 0.0 {
                        continue;
                    }
                    branch_states.push(&branch.state);
                    branch_probs.push(branch.probability);
                }
                branch_spans.push((span_start, branch_states.len()));
            }
            let online_q = self
                .net
                .infer_batch_par(&self.store, &branch_states, self.pool)?;
            let target_q =
                self.net
                    .infer_batch_par(&self.target_store, &branch_states, self.pool)?;
            let targets: Vec<f32> = sampled
                .iter()
                .zip(&branch_spans)
                .map(|((_, transition), &(lo, hi))| {
                    let mut future = 0.0f32;
                    for b in lo..hi {
                        if let Some(best_row) = argmax_of(&online_q[b]) {
                            future += branch_probs[b] * target_q[b][best_row];
                        }
                    }
                    transition.reward + self.gamma * future
                })
                .collect();

            // One packed graph for the whole minibatch, on the learner's pool.
            let mut graph = Graph::with_pool(self.pool);
            let mut binding = GraphBinding::new();
            let states: Vec<&StateTensor> = sampled.iter().map(|(_, t)| &t.state).collect();
            let (q_column, segments) =
                self.net
                    .forward_batch(&mut graph, &self.store, &mut binding, &states)?;
            let total_rows = segments.last().map_or(0, |seg| seg.end());
            let mut mask = Matrix::zeros(total_rows, 1);
            let mut target = Matrix::zeros(total_rows, 1);
            let mut weights = Matrix::zeros(total_rows, 1);
            let mut total_abs_td = 0.0f32;
            let mut priorities = Vec::with_capacity(batch);
            for (((sample, transition), seg), &target_value) in
                sampled.iter().zip(&segments).zip(&targets)
            {
                // A stored transition's action row always indexes a real task row; fail
                // loudly (in release too) rather than silently train a neighbouring
                // segment's row on out-of-contract data.
                if transition.action_row >= seg.rows {
                    return Err(crowd_tensor::TensorError::IndexOutOfBounds {
                        op: "learn (action_row past its packed segment)",
                        index: transition.action_row,
                        bound: seg.rows,
                    });
                }
                let row = seg.start + transition.action_row;
                mask.set(row, 0, 1.0);
                target.set(row, 0, target_value);
                weights.set(row, 0, sample.weight);
                let td_error = target_value - graph.value(q_column).get(row, 0);
                total_abs_td += td_error.abs();
                priorities.push((sample.index, td_error));
            }

            let loss =
                graph.weighted_masked_mse(q_column, &target, &mask, &weights, batch as f32)?;
            let loss_value = graph.value(loss).get(0, 0);
            graph.backward(loss)?;
            let grads = binding.gradients(&graph);
            let report = LearnReport {
                loss: loss_value,
                mean_td_error: total_abs_td * (1.0 / batch as f32),
                batch,
            };
            (grads, priorities, report)
        };

        self.optimizer.step(&mut self.store, &grads)?;
        for (slot, td_error) in priorities {
            self.memory.update_priority(slot, td_error);
        }
        self.losses.push(report.loss);
        self.finish_update();
        self.learn_time += start.elapsed();
        Ok(Some(report))
    }

    /// The pre-packing per-transition update loop: `B` separate graphs per minibatch, one
    /// forward + backward each, and per-branch single-state target inference. Retained
    /// **only** as the reference for `tests/packed_learning_equivalence.rs` and the
    /// old-vs-new comparison in `crates/bench/benches/batched_training.rs`; new code must
    /// call [`DqnLearner::learn`]. Samples from the same owned RNG stream as `learn` (so a
    /// cloned learner running this path consumes the stream identically) and always runs
    /// serial kernels — it is the single-threaded reference.
    pub fn learn_sequential(&mut self) -> Result<Option<LearnReport>> {
        if self.memory.len() < self.batch_size {
            return Ok(None);
        }
        let start = Instant::now();
        let samples = self.memory.sample(self.batch_size, &mut self.rng);
        let mut grad_accumulator: Vec<Option<(crowd_nn::ParamId, Matrix)>> = Vec::new();
        let mut total_loss = 0.0f32;
        let mut total_abs_td = 0.0f32;
        let mut priorities = Vec::with_capacity(samples.len());

        for sample in &samples {
            let transition = self
                .memory
                .get(sample.index)
                .expect("sampled slot must be occupied")
                .clone();
            let target_value = self.target_for(&transition)?;

            let mut graph = Graph::new();
            let mut binding = GraphBinding::new();
            let q_column =
                self.net
                    .forward(&mut graph, &self.store, &mut binding, &transition.state)?;
            let current_q = graph.value(q_column).get(transition.action_row, 0);
            let td_error = target_value - current_q;

            let (mask, target) =
                SetQNetwork::action_target(self.max_tasks, transition.action_row, target_value);
            let loss = graph.masked_mse(q_column, &target, &mask)?;
            // Importance-sampling weight scales the loss (and therefore the gradient).
            let weighted_loss = graph.scale(loss, sample.weight);
            total_loss += graph.value(weighted_loss).get(0, 0);
            total_abs_td += td_error.abs();
            graph.backward(weighted_loss)?;

            for (pid, grad) in binding.gradients(&graph) {
                let idx = pid.index();
                if grad_accumulator.len() <= idx {
                    grad_accumulator.resize_with(idx + 1, || None);
                }
                match &mut grad_accumulator[idx] {
                    Some((_, acc)) => acc.add_assign(&grad)?,
                    slot @ None => *slot = Some((pid, grad)),
                }
            }
            priorities.push((sample.index, td_error));
        }

        let batch = samples.len();
        let scale = 1.0 / batch as f32;
        let grads: Vec<(crowd_nn::ParamId, Matrix)> = grad_accumulator
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
        self.finish_update();
        self.learn_time += start.elapsed();

        Ok(Some(report))
    }

    /// Shared epilogue of both update paths: bump the counter and hard-sync the target
    /// network on schedule.
    fn finish_update(&mut self) {
        self.updates += 1;
        if self.updates.is_multiple_of(self.target_sync_every) {
            self.sync_target();
        }
    }

    /// Hard-copies θ̃ ← θ.
    pub fn sync_target(&mut self) {
        self.target_store.copy_from(&self.store);
    }
}

/// Checkpoint format: sampling RNG, update counter (`u64`), accumulated learn wall time,
/// the loss stream, online parameters θ, target parameters θ̃, the Adam state (moments +
/// step), and the prioritized replay memory (transitions, priorities, sum tree, β).
///
/// Together these are *everything* `learn` reads, so a restored learner's next update —
/// which minibatch it samples, the targets, the loss bits, the priority writes, the
/// post-step parameters — is bit-identical to the uninterrupted learner's. Network
/// architecture and hyper-parameters come from the construction config; the parameter
/// stores and replay capacity validate the snapshot against them on load.
impl crowd_ckpt::SaveState for DqnLearner {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.rng);
        w.put_u64(self.updates);
        w.put_duration(self.learn_time);
        w.put_f32_slice(&self.losses);
        w.save(&self.store);
        w.save(&self.target_store);
        w.save(&self.optimizer);
        w.save(&self.memory);
    }
}

impl crowd_ckpt::LoadState for DqnLearner {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        r.load(&mut self.rng)?;
        self.updates = r.take_u64()?;
        self.learn_time = r.take_duration()?;
        self.losses = r.take_f32_vec()?;
        r.load(&mut self.store)?;
        r.load(&mut self.target_store)?;
        r.load(&mut self.optimizer)?;
        r.load(&mut self.memory)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::FutureBranch;
    use crate::state::{StateKind, StateTransformer};
    use crowd_sim::{TaskId, TaskSnapshot};
    use std::sync::Arc;

    fn snapshot(id: u32, value: f32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![value, 1.0 - value, 0.3],
            quality: 0.0,
            award: 10.0,
            category: 0,
            domain: 0,
            deadline: 10_000,
            completions: 0,
        }
    }

    fn config() -> DdqnConfig {
        DdqnConfig {
            max_tasks: 6,
            hidden_dim: 16,
            num_heads: 2,
            batch_size: 8,
            buffer_size: 64,
            target_sync_every: 10,
            // A larger learning rate than the paper's 0.001 keeps these unit tests fast.
            learning_rate: 0.02,
            ..DdqnConfig::default()
        }
    }

    fn transformer() -> StateTransformer {
        StateTransformer::new(StateKind::Worker, 6, 3, 2)
    }

    /// A deterministic bandit-like dataset: action row 0 always pays 1, row 1 pays 0.
    fn fill_memory(learner: &mut DqnLearner, tf: &StateTransformer) {
        let snaps = vec![snapshot(0, 0.9), snapshot(1, 0.1)];
        let state = tf.build(&snaps, &[0.5, 0.5], 0.5);
        let branches = Arc::new(vec![FutureBranch {
            probability: 1.0,
            state: state.clone(),
        }]);
        for _ in 0..16 {
            learner.store_transition(Transition {
                state: state.clone(),
                action_row: 0,
                reward: 1.0,
                branches: Arc::clone(&branches),
            });
            learner.store_transition(Transition {
                state: state.clone(),
                action_row: 1,
                reward: 0.0,
                branches: Arc::clone(&branches),
            });
        }
    }

    #[test]
    fn learn_requires_enough_transitions() {
        let cfg = config();
        let mut rng = Rng::seed_from(0);
        let mut learner = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        assert!(learner.learn().unwrap().is_none());
        assert_eq!(learner.memory_len(), 0);
    }

    #[test]
    fn learning_orders_actions_by_reward() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(1);
        let mut learner = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        fill_memory(&mut learner, &tf);
        for _ in 0..400 {
            learner.learn().unwrap();
        }
        let snaps = vec![snapshot(0, 0.9), snapshot(1, 0.1)];
        let state = tf.build(&snaps, &[0.5, 0.5], 0.5);
        let q = learner.q_values(&state).unwrap();
        assert!(
            q[0] > q[1] + 0.2,
            "rewarded action should have clearly higher Q: {q:?}"
        );
        assert!(learner.updates() >= 100);
    }

    #[test]
    fn discount_propagates_future_value() {
        // A transition with reward 0 whose future branch always pays 1 (because the future
        // state's best action was trained to be worth ~1/(1-γ)) ends up with positive Q.
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(2);
        let mut learner = DqnLearner::new(&cfg, 5, 0.5, &mut rng);
        fill_memory(&mut learner, &tf);
        for _ in 0..600 {
            learner.learn().unwrap();
        }
        let snaps = vec![snapshot(0, 0.9), snapshot(1, 0.1)];
        let state = tf.build(&snaps, &[0.5, 0.5], 0.5);
        let q = learner.q_values(&state).unwrap();
        // Q(s, a_rewarded) should exceed the immediate reward of 1 thanks to bootstrapping:
        // with γ = 0.5 the fixed point is around 1 / (1 - 0.5·1) ≈ 1.3–2 depending on the
        // failed action's value. We only require it to clearly exceed 1.
        assert!(
            q[0] > 1.05,
            "bootstrapped Q should exceed immediate reward, got {q:?}"
        );
    }

    #[test]
    fn report_reflects_batch_and_loss_decreases() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(3);
        let mut learner = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        fill_memory(&mut learner, &tf);
        let first = learner.learn().unwrap().unwrap();
        assert_eq!(first.batch, cfg.batch_size);
        for _ in 0..100 {
            learner.learn().unwrap();
        }
        let later = learner.learn().unwrap().unwrap();
        assert!(
            later.mean_td_error < first.mean_td_error,
            "TD error should shrink: {} -> {}",
            first.mean_td_error,
            later.mean_td_error
        );
    }

    #[test]
    fn packed_learn_matches_sequential_from_identical_state() {
        // One update from bit-identical learner state: the packed path must report the
        // same loss / TD error bits and write the same replay priorities as the
        // per-transition loop. (The 50-update sweep across both MDPs lives in
        // tests/packed_learning_equivalence.rs.)
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(5);
        let mut packed = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        fill_memory(&mut packed, &tf);
        // The clone carries the sampling RNG, so both paths draw the same minibatch.
        let mut sequential = packed.clone();
        let packed_report = packed.learn().unwrap().unwrap();
        let seq_report = sequential.learn_sequential().unwrap().unwrap();
        assert_eq!(packed_report.batch, seq_report.batch);
        assert_eq!(
            packed_report.loss.to_bits(),
            seq_report.loss.to_bits(),
            "loss diverged: {} vs {}",
            packed_report.loss,
            seq_report.loss
        );
        assert_eq!(
            packed_report.mean_td_error.to_bits(),
            seq_report.mean_td_error.to_bits(),
            "TD error diverged"
        );
        for slot in 0..cfg.buffer_size {
            assert_eq!(
                packed.replay_priority(slot).to_bits(),
                sequential.replay_priority(slot).to_bits(),
                "replay priority diverged at slot {slot}"
            );
        }
        // Both paths consumed their sampling RNG identically.
        assert_eq!(packed.rng_probe(), sequential.rng_probe());
        // And both recorded the same loss stream entry.
        assert_eq!(packed.loss_history().len(), 1);
        assert_eq!(
            packed.loss_history()[0].to_bits(),
            sequential.loss_history()[0].to_bits()
        );
        // Parameters agree to f32 tolerance (gradient summation order differs).
        for ((_, name, a), (_, _, b)) in packed.params().iter().zip(sequential.params().iter()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-4_f32.max(x.abs() * 1e-3),
                    "param {name} diverged beyond tolerance: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn pooled_learn_is_bit_identical_to_serial_learn() {
        // Unlike packed-vs-sequential (parameters only within tolerance), pooled-vs-serial
        // is the SAME algorithm on row-sharded kernels: everything — loss stream, replay
        // priorities, post-update parameters, RNG stream — must match to the bit.
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(7);
        let mut serial = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        fill_memory(&mut serial, &tf);
        let mut pooled = serial.clone();
        pooled.set_thread_pool(ThreadPool::new(8));
        for update in 0..5 {
            let a = serial.learn().unwrap().unwrap();
            let b = pooled.learn().unwrap().unwrap();
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "pooled loss diverged at update {update}"
            );
        }
        for slot in 0..cfg.buffer_size {
            assert_eq!(
                serial.replay_priority(slot).to_bits(),
                pooled.replay_priority(slot).to_bits()
            );
        }
        for ((_, name, a), (_, _, b)) in serial.params().iter().zip(pooled.params().iter()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "param {name} not bit-identical under the pool"
                );
            }
        }
        assert_eq!(serial.rng_probe(), pooled.rng_probe());
        assert_eq!(serial.loss_history(), pooled.loss_history());
    }

    #[test]
    fn learn_timing_accumulates_wall_time() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(6);
        let mut learner = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        assert_eq!(learner.learn_timing(), (0, std::time::Duration::ZERO));
        fill_memory(&mut learner, &tf);
        learner.learn().unwrap().unwrap();
        let (updates, total) = learner.learn_timing();
        assert_eq!(updates, 1);
        assert!(total > std::time::Duration::ZERO);
    }

    #[test]
    fn empty_future_branches_reduce_to_supervised_regression() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(4);
        let mut learner = DqnLearner::new(&cfg, 5, 0.9, &mut rng);
        let state = tf.build(&[snapshot(0, 0.7)], &[0.2, 0.8], 0.5);
        for _ in 0..16 {
            learner.store_transition(Transition {
                state: state.clone(),
                action_row: 0,
                reward: 0.5,
                branches: Arc::new(Vec::new()),
            });
        }
        for _ in 0..150 {
            learner.learn().unwrap();
        }
        let q = learner.q_values(&state).unwrap()[0];
        assert!(
            (q - 0.5).abs() < 0.1,
            "Q should converge to the reward, got {q}"
        );
    }
}
