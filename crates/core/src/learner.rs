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
//! Q column on the tape, each attention head one fused per-segment node), the loss is one
//! in-graph importance-weighted masked MSE
//! (`crowd_autograd::Graph::weighted_masked_mse`), and the double-DQN targets need at
//! most **two** packed passes: one [`SetQNetwork::infer_rows_par`] over every live future
//! branch of every distinct sampled experience for the online argmax, and one θ̃ pass
//! over only the branch lists not yet scored since the last target sync. One `backward` then
//! yields every parameter's minibatch gradient. A branch is a window of its experience's
//! future tensor, copied into the packed buffer straight from there.
//!
//! # The θ̃ branch cache
//!
//! θ̃ changes only at a target sync, and a transition's branch list is immutable and
//! shared — it lives in the [`Experience`] that every transition generated from one
//! feedback holds one `Arc` to, and prioritized replay samples those transitions again
//! and again. So the learner memoises θ̃'s Q-values per experience, keyed on the
//! identity of that `Arc`. Each entry holds a `Weak` to it, so the allocation — and with
//! it the address the key is made of — cannot be reused by another experience while the
//! entry lives. The cache is cleared by [`DqnLearner::sync_target`] and on checkpoint
//! load, and never serialised: it is derived state, and a cached value is the very bits
//! a fresh pass computes (a packed pass gives every state the bits of a pass over that
//! state alone). Decoding a checkpoint rebuilds the sharing ([`load_replay`]), so a
//! resumed learner caches per feedback just as the uninterrupted one does.
//!
//! # The sequential reference
//!
//! `crowd_bench::reference::SequentialLearner` is the pre-packing update loop (B one-state
//! graphs, per-branch one-state target passes, no cache), rebuilt from this learner's
//! checkpoint bytes; `tests/packed_learning_equivalence.rs` runs it next to `learn`. The
//! contract: from identical learner state, both report bit-identical loss / TD errors and
//! write bit-identical replay priorities (a packed pass gives every state the bits of a
//! pass over that state alone, and the loss is accumulated in the same f32 order);
//! post-update *parameters* agree only to documented f32 tolerance, because the packed
//! backward legitimately sums gradient contributions across the minibatch in a different
//! association order than a per-transition accumulation loop.

use crate::config::DdqnConfig;
use crate::memory::{load_replay, replay_bytes, save_replay, Experience, FutureBranch, Transition};
use crate::qnetwork::{argmax_of, SetQNetwork};
use crate::state::{StateRows, StateTensor};
use crowd_autograd::Graph;
use crowd_nn::{Adam, GraphBinding, Optimizer, ParamStore};
use crowd_rl_kit::PrioritizedReplay;
use crowd_tensor::{Matrix, Rng, TensorError, ThreadPool};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Result alias from the numeric substrate.
pub type Result<T> = crowd_tensor::Result<T>;

/// Why [`DqnLearner::learn`] refused an update. A refused update changes no parameter,
/// optimizer moment, replay priority or loss-history entry.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// A shape or index error from the numeric substrate.
    Tensor(TensorError),
    /// The double-DQN target of the transition in replay slot `slot` is NaN or infinite.
    NonFiniteTarget {
        /// Replay slot of the offending transition.
        slot: usize,
    },
    /// The TD error of the transition in replay slot `slot` is NaN or infinite.
    NonFiniteTdError {
        /// Replay slot of the offending transition.
        slot: usize,
    },
    /// The minibatch loss is NaN or infinite.
    NonFiniteLoss,
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::Tensor(e) => write!(f, "{e}"),
            LearnError::NonFiniteTarget { slot } => {
                write!(f, "non-finite double-DQN target for replay slot {slot}")
            }
            LearnError::NonFiniteTdError { slot } => {
                write!(f, "non-finite TD error for replay slot {slot}")
            }
            LearnError::NonFiniteLoss => write!(f, "non-finite minibatch loss"),
        }
    }
}

impl std::error::Error for LearnError {}

impl From<TensorError> for LearnError {
    fn from(e: TensorError) -> Self {
        LearnError::Tensor(e)
    }
}

/// θ̃ Q-values of one experience's branch list: one vector per live branch, in branch
/// order.
#[derive(Debug, Clone)]
struct CachedTargets {
    /// Pins the experience's allocation, so its address — the cache key — cannot be
    /// reused by another experience while this entry lives.
    _pin: Weak<Experience>,
    values: Vec<Vec<f32>>,
}

/// Cache key of a transition's branch list: the address of its shared experience.
fn branch_key(experience: &Arc<Experience>) -> usize {
    Arc::as_ptr(experience) as usize
}

/// Whether a future branch enters the double-DQN target: its window has a task row to
/// act on and its probability is not `<= 0` (a NaN one stays in, so the target guard
/// sees it).
fn is_live(branch: &FutureBranch) -> bool {
    branch.rows > 0 && (branch.probability > 0.0 || branch.probability.is_nan())
}

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
/// `Clone` duplicates the complete learner state — including the sampling RNG — so a
/// clone continues bit-identically to the original.
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
    /// Wall time inside [`DqnLearner::learn`] and the number of updates it covers, both
    /// counted in this process only: measurements, never checkpointed.
    learn_time: Duration,
    timed_updates: u64,
    /// Every update's reported loss, in update order — the "loss stream" the parallel
    /// equivalence suite compares bit for bit across thread counts (4 bytes per update).
    losses: Vec<f32>,
    /// θ̃ Q-values per experience since the last target sync, keyed by
    /// [`branch_key`] (see the module docs). Derived state: never serialised.
    target_cache: HashMap<usize, CachedTargets>,
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
            learn_time: Duration::ZERO,
            timed_updates: 0,
            losses: Vec::new(),
            target_cache: HashMap::new(),
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

    /// Wall time spent inside [`DqnLearner::learn`] by this process, paired with the
    /// number of updates it timed: not checkpointed, so after a resume the ratio stays a
    /// true mean ([`DqnLearner::updates`] counts the whole run). Surfaced per policy
    /// through `crowd_sim::Policy::learner_timing` for the efficiency binaries.
    pub fn learn_timing(&self) -> (u64, Duration) {
        (self.timed_updates, self.learn_time)
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

    /// The stored transitions, in slot order (read-only; diagnostics and the replay
    /// layout fence).
    pub fn transitions(&self) -> impl Iterator<Item = &Transition> + '_ {
        self.memory.iter()
    }

    /// Heap bytes of the replay memory: its slot array and sum tree, plus every stored
    /// experience once however many transitions share it.
    pub fn replay_bytes(&self) -> usize {
        replay_bytes(&self.memory)
    }

    /// Q values of the online network for `N` states in one packed forward pass
    /// ([`SetQNetwork::infer_batch_par`] on the learner's pool), one per real task row of
    /// each state; each entry is bit-identical to a batch of that state alone, at any
    /// thread count.
    pub fn q_values_batch(&self, states: &[&StateTensor]) -> Result<Vec<Vec<f32>>> {
        self.net.infer_batch_par(&self.store, states, self.pool)
    }

    /// Stores a transition with maximal priority.
    pub fn store_transition(&mut self, transition: Transition) {
        self.memory.push(transition);
    }

    /// Runs one prioritized minibatch update as **one** autograd graph; returns `None` when
    /// the memory holds fewer transitions than the batch size.
    ///
    /// One `learn` call runs at most three network passes regardless of the batch size or
    /// the number of future branches:
    ///
    /// 1. one [`SetQNetwork::infer_rows_par`] with the online parameters θ over every
    ///    live future branch window of every distinct experience in the minibatch (a
    ///    repeated experience is scored once) — the double-DQN action *selection*;
    /// 2. the action *evaluation* by the target parameters θ̃, read from the θ̃ branch
    ///    cache (module docs); the branch lists it misses are scored together in one
    ///    `infer_rows_par` and cached until the next target sync. The targets
    ///    `y_i = r_i + γ · Σ_b Pr(b) · Q̃(s_b, argmax_a Q(s_b, a))` are then assembled
    ///    branch by branch, in branch order;
    /// 3. one [`SetQNetwork::forward_batch`] packing all sampled states' real task rows
    ///    into a single `[Σ pool sizes, 1]` Q column on the tape (one fused attention node
    ///    per head and layer), followed by one in-graph importance-weighted masked MSE and
    ///    one backward sweep.
    ///
    /// The sampled transitions are *borrowed* from the replay memory
    /// (`PrioritizedReplay::sample_refs`) — no per-update clones of state tensors or
    /// branch distributions; the minibatch is drawn from the learner's **own** sampling
    /// RNG, so two learners can update concurrently without sharing a stream. The packed
    /// kernels run on the learner's pool ([`DqnLearner::set_thread_pool`]) and are
    /// bit-identical at any thread count. Reported loss / TD errors and the written
    /// replay priorities are bit-identical to the sequential reference from the same
    /// learner state; updated parameters match to f32 tolerance (see the module docs for
    /// why).
    ///
    /// # Errors
    ///
    /// A NaN or infinite target, TD error or loss is refused with a typed [`LearnError`]
    /// before the optimizer steps and before any replay priority is written, so the
    /// parameters, Adam state, priorities and loss history stay as they were (the
    /// sampling RNG has advanced, and the θ̃ cache may hold new, valid entries).
    pub fn learn(&mut self) -> std::result::Result<Option<LearnReport>, LearnError> {
        if self.memory.len() < self.batch_size {
            return Ok(None);
        }
        let start = Instant::now();
        let (grads, priorities, report) = {
            let sampled = self.memory.sample_refs(self.batch_size, &mut self.rng);
            let batch = sampled.len();

            // Double-DQN targets: flatten the live branches of every sampled experience
            // into one state list and score it once with θ, then fold the expectation per
            // transition in branch order. A transition whose experience the minibatch
            // already holds reuses that occurrence's span: same branch list, same bits.
            let mut branch_states: Vec<StateRows<'_>> = Vec::new();
            let mut branch_spans: Vec<(usize, usize)> = Vec::with_capacity(batch);
            let mut branch_probs: Vec<f32> = Vec::new();
            for (i, (_, transition)) in sampled.iter().enumerate() {
                let key = branch_key(&transition.experience);
                if let Some(first) = sampled[..i]
                    .iter()
                    .position(|(_, t)| branch_key(&t.experience) == key)
                {
                    branch_spans.push(branch_spans[first]);
                    continue;
                }
                let span_start = branch_states.len();
                let experience = &transition.experience;
                for branch in experience.branches.iter().filter(|b| is_live(b)) {
                    branch_states.push(experience.branch_rows(branch));
                    branch_probs.push(branch.probability);
                }
                branch_spans.push((span_start, branch_states.len()));
            }
            let online_q = self
                .net
                .infer_rows_par(&self.store, &branch_states, self.pool)?;

            // θ̃ values: every branch list this sync period has not scored yet goes into
            // one packed pass (each list once, however often the minibatch holds it).
            let cache = &mut self.target_cache;
            let mut misses: Vec<(&Arc<Experience>, usize)> = Vec::new();
            let mut miss_states: Vec<StateRows<'_>> = Vec::new();
            for ((_, transition), &(lo, hi)) in sampled.iter().zip(&branch_spans) {
                let key = branch_key(&transition.experience);
                if lo == hi
                    || cache.contains_key(&key)
                    || misses.iter().any(|(b, _)| branch_key(b) == key)
                {
                    continue;
                }
                misses.push((&transition.experience, hi - lo));
                miss_states.extend_from_slice(&branch_states[lo..hi]);
            }
            if !miss_states.is_empty() {
                let mut miss_q = self
                    .net
                    .infer_rows_par(&self.target_store, &miss_states, self.pool)?
                    .into_iter();
                for (experience, live) in misses {
                    let values = miss_q.by_ref().take(live).collect();
                    cache.insert(
                        branch_key(experience),
                        CachedTargets {
                            _pin: Arc::downgrade(experience),
                            values,
                        },
                    );
                }
            }

            let mut targets: Vec<f32> = Vec::with_capacity(batch);
            for ((sample, transition), &(lo, hi)) in sampled.iter().zip(&branch_spans) {
                let mut future = 0.0f32;
                if lo < hi {
                    let target_q = &cache[&branch_key(&transition.experience)].values;
                    for (b, target_row) in (lo..hi).zip(target_q) {
                        if let Some(best_row) = argmax_of(&online_q[b]) {
                            future += branch_probs[b] * target_row[best_row];
                        }
                    }
                }
                let target = transition.reward + self.gamma * future;
                if !target.is_finite() {
                    return Err(LearnError::NonFiniteTarget { slot: sample.index });
                }
                targets.push(target);
            }

            // One packed graph for the whole minibatch, on the learner's pool.
            let mut graph = Graph::with_pool(self.pool);
            let mut binding = GraphBinding::new();
            let states: Vec<&StateTensor> = sampled.iter().map(|(_, t)| t.state()).collect();
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
                    return Err(TensorError::IndexOutOfBounds {
                        op: "learn (action_row past its packed segment)",
                        index: transition.action_row,
                        bound: seg.rows,
                    }
                    .into());
                }
                let row = seg.start + transition.action_row;
                mask.set(row, 0, 1.0);
                target.set(row, 0, target_value);
                weights.set(row, 0, sample.weight);
                let td_error = target_value - graph.value(q_column).get(row, 0);
                if !td_error.is_finite() {
                    return Err(LearnError::NonFiniteTdError { slot: sample.index });
                }
                total_abs_td += td_error.abs();
                priorities.push((sample.index, td_error));
            }

            let loss =
                graph.weighted_masked_mse(q_column, &target, &mask, &weights, batch as f32)?;
            let loss_value = graph.value(loss).get(0, 0);
            if !loss_value.is_finite() {
                return Err(LearnError::NonFiniteLoss);
            }
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
        self.updates += 1;
        if self.updates.is_multiple_of(self.target_sync_every) {
            self.sync_target();
        }
        self.learn_time += start.elapsed();
        self.timed_updates += 1;
        Ok(Some(report))
    }

    /// Hard-copies θ̃ ← θ, and drops the θ̃ branch cache that held the old θ̃'s values.
    pub fn sync_target(&mut self) {
        self.target_store.copy_from(&self.store);
        self.target_cache.clear();
    }
}

/// Checkpoint format: sampling RNG, update counter (`u64`), the loss stream, online
/// parameters θ, target parameters θ̃, the Adam state (moments + step), and the
/// prioritized replay memory with each shared experience once ([`save_replay`]: the
/// experience table, then transitions, priorities, sum tree, β). The θ̃ branch cache
/// is derived state: it is not written, and loading clears it. The learn timing is a
/// measurement: it is not written, and loading leaves it as it was.
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
        w.put_f32_slice(&self.losses);
        w.save(&self.store);
        w.save(&self.target_store);
        w.save(&self.optimizer);
        save_replay(&self.memory, w);
    }
}

impl crowd_ckpt::LoadState for DqnLearner {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        r.load(&mut self.rng)?;
        self.updates = r.take_u64()?;
        self.losses = r.take_f32_vec()?;
        r.load(&mut self.store)?;
        r.load(&mut self.target_store)?;
        r.load(&mut self.optimizer)?;
        load_replay(&mut self.memory, r)?;
        // Derived from θ̃ and the old experience allocations; rebuilt by the next updates.
        self.target_cache.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let experience = Arc::new(Experience {
            branches: vec![FutureBranch {
                probability: 1.0,
                first_row: 0,
                rows: state.real_tasks(),
            }],
            future: state.clone(),
            state,
        });
        for _ in 0..16 {
            learner.store_transition(Transition {
                experience: Arc::clone(&experience),
                action_row: 0,
                reward: 1.0,
            });
            learner.store_transition(Transition {
                experience: Arc::clone(&experience),
                action_row: 1,
                reward: 0.0,
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
        let q = learner.q_values_batch(&[&state]).unwrap().remove(0);
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
        let q = learner.q_values_batch(&[&state]).unwrap().remove(0);
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
    fn pooled_learn_is_bit_identical_to_serial_learn() {
        // Pooled-vs-serial is the SAME algorithm on row-sharded kernels: everything —
        // loss stream, replay priorities, post-update parameters, RNG stream — must match
        // to the bit.
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

        // Timing is not checkpointed: a restored learner keeps the run's update count
        // but times only the updates it runs itself.
        use crowd_ckpt::{LoadState, SaveState, StateReader, StateWriter};
        let mut w = StateWriter::new();
        learner.save_state(&mut w);
        let mut restored = DqnLearner::new(&cfg, 5, 0.3, &mut Rng::seed_from(6));
        restored
            .load_state(&mut StateReader::new(w.as_bytes()))
            .unwrap();
        assert_eq!(restored.updates(), 1);
        assert_eq!(restored.learn_timing(), (0, std::time::Duration::ZERO));
        restored.learn().unwrap().unwrap();
        assert_eq!(restored.updates(), 2);
        assert_eq!(restored.learn_timing().0, 1);
    }

    #[test]
    fn non_finite_target_is_refused_before_any_state_changes() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(8);
        let mut learner = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        fill_memory(&mut learner, &tf);
        // A few healthy updates first, so moments, priorities and the loss stream hold
        // real values the refused update could corrupt.
        for _ in 0..3 {
            learner.learn().unwrap().unwrap();
        }
        let experience = Arc::new(Experience {
            state: tf.build(&[snapshot(0, 0.4)], &[0.5, 0.5], 0.5),
            future: StateTensor::empty(tf.row_dim()),
            branches: Vec::new(),
        });
        for _ in 0..cfg.batch_size {
            learner.store_transition(Transition {
                experience: Arc::clone(&experience),
                action_row: 0,
                reward: f32::NAN,
            });
        }
        let params = learner.params().clone();
        let adam_steps = learner.optimizer.steps();
        let priorities: Vec<u64> = (0..cfg.buffer_size)
            .map(|slot| learner.replay_priority(slot).to_bits())
            .collect();
        let losses = learner.loss_history().to_vec();

        let err = learner
            .learn()
            .expect_err("a NaN reward must refuse the update");
        assert!(
            matches!(err, LearnError::NonFiniteTarget { .. }),
            "unexpected error {err}"
        );
        for ((_, name, before), (_, _, after)) in params.iter().zip(learner.params().iter()) {
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(before), bits(after), "param {name} moved");
        }
        assert_eq!(learner.optimizer.steps(), adam_steps);
        for (slot, &before) in priorities.iter().enumerate() {
            assert_eq!(
                learner.replay_priority(slot).to_bits(),
                before,
                "priority of slot {slot} was written"
            );
        }
        assert_eq!(learner.loss_history(), &losses[..]);
        assert_eq!(learner.updates(), 3);
    }

    #[test]
    fn target_cache_lives_one_sync_period_and_is_not_checkpointed() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(9);
        let mut learner = DqnLearner::new(&cfg, 5, 0.3, &mut rng);
        // fill_memory shares one experience across all 32 transitions.
        fill_memory(&mut learner, &tf);
        learner.learn().unwrap().unwrap();
        assert_eq!(learner.target_cache.len(), 1);
        let mut bytes = crowd_ckpt::StateWriter::new();
        bytes.save(&learner);
        let mut resumed = learner.clone();
        let mut reader = crowd_ckpt::StateReader::new(bytes.as_bytes());
        crowd_ckpt::LoadState::load_state(&mut resumed, &mut reader).unwrap();
        assert!(resumed.target_cache.is_empty(), "load must drop the cache");
        // Loading rebuilds the shared experience, so the resumed learner scores it once.
        resumed.learn().unwrap().unwrap();
        assert_eq!(resumed.target_cache.len(), 1);
        learner.sync_target();
        assert!(learner.target_cache.is_empty(), "sync must drop the cache");
    }

    #[test]
    fn empty_future_branches_reduce_to_supervised_regression() {
        let cfg = config();
        let tf = transformer();
        let mut rng = Rng::seed_from(4);
        let mut learner = DqnLearner::new(&cfg, 5, 0.9, &mut rng);
        let state = tf.build(&[snapshot(0, 0.7)], &[0.2, 0.8], 0.5);
        let experience = Arc::new(Experience {
            state: state.clone(),
            future: StateTensor::empty(tf.row_dim()),
            branches: Vec::new(),
        });
        for _ in 0..16 {
            learner.store_transition(Transition {
                experience: Arc::clone(&experience),
                action_row: 0,
                reward: 0.5,
            });
        }
        for _ in 0..150 {
            learner.learn().unwrap();
        }
        let q = learner.q_values_batch(&[&state]).unwrap()[0][0];
        assert!(
            (q - 0.5).abs() < 0.1,
            "Q should converge to the reward, got {q}"
        );
    }
}
