//! The end-to-end DDQN task-arrangement agent (the "DDQN" method of the paper's
//! experiments): two Q-networks for the two benefits, the state transformer, online arrival
//! statistics, the future-state predictors, the feedback transformers, the aggregator and
//! the explorer — wired together behind the [`crowd_sim::Policy`] interface.

use crate::aggregator;
use crate::arrival_stats::ArrivalStats;
use crate::config::{DdqnConfig, RecommendationMode};
use crate::explorer::Explorer;
use crate::learner::DqnLearner;
use crate::memory::{FutureBranch, Transition};
use crate::predictor::{requester_future_branches, worker_future_branches};
use crate::state::{StateKind, StateTensor, StateTransformer};
use crowd_sim::{
    ArrivalContext, ArrivalView, BatchedPolicy, Decision, FeedbackView, LearnerBranchTiming,
    LearnerTiming, Policy, PolicyFeedback, TaskId,
};
use crowd_tensor::{Rng, ThreadPool};
use std::sync::Arc;

/// Upper bound on the number of failed (reward-0) transitions stored per feedback. Under the
/// cascade model only the tasks ranked above the completed one are certain negatives; when
/// nothing was completed we cap the negatives at a typical attention budget.
const MAX_NEGATIVE_TRANSITIONS: usize = 8;

/// The dual-DQN task arrangement agent.
#[derive(Debug)]
pub struct DdqnAgent {
    config: DdqnConfig,
    transformer_worker: StateTransformer,
    transformer_requester: StateTransformer,
    learner_worker: DqnLearner,
    learner_requester: DqnLearner,
    stats: ArrivalStats,
    explorer: Explorer,
    rng: Rng,
    observations: u64,
    mean_worker_quality: f32,
    quality_samples: u64,
    name: String,
    /// Generation-stamped membership scratch (indexed by task id) used by the ranked-list
    /// tail fill in `act`; reused across arrivals so the hot path stays allocation-free.
    ranked_stamps: Vec<u64>,
    ranked_stamp_gen: u64,
    /// When true, `observe` skips the gradient updates (evaluation mode). Statistics and
    /// replay memory keep accumulating so learning can resume seamlessly.
    learning_frozen: bool,
    /// Refusals per branch (worker, requester): learner updates refused with a
    /// `LearnError` plus transitions refused at storage for a non-finite reward.
    /// Telemetry: never checkpointed.
    refused_updates: (u64, u64),
    /// Decisions whose combined Q-values held a NaN or infinity. Telemetry: never
    /// checkpointed.
    nonfinite_q_decisions: u64,
    /// Worker pool for the agent's internal parallelism: parallel state packing in
    /// `act_batch` and the concurrent two-learner dispatch in `observe`. Serial by
    /// default; set via [`DdqnAgent::set_thread_pool`] (also reachable through
    /// [`Policy::set_thread_pool`]). Results are bit-identical at any thread count.
    pool: ThreadPool,
}

impl DdqnAgent {
    /// Creates an agent for a platform whose task and worker features have the given
    /// dimensions (see [`crowd_sim::FeatureSpace`]).
    pub fn new(config: DdqnConfig, task_dim: usize, worker_dim: usize) -> Self {
        config.validate();
        let mut rng = Rng::seed_from(config.seed);
        let transformer_worker =
            StateTransformer::new(StateKind::Worker, config.max_tasks, task_dim, worker_dim);
        let transformer_requester =
            StateTransformer::new(StateKind::Requester, config.max_tasks, task_dim, worker_dim);
        let learner_worker = DqnLearner::new(
            &config,
            transformer_worker.row_dim(),
            config.gamma_worker,
            &mut rng,
        );
        let learner_requester = DqnLearner::new(
            &config,
            transformer_requester.row_dim(),
            config.gamma_requester,
            &mut rng,
        );
        let stats = ArrivalStats::new(
            worker_dim,
            config.same_worker_horizon,
            config.consecutive_horizon,
        );
        let explorer = Explorer::new(&config);
        let name = match (config.balance_weight, config.mode) {
            (w, _) if w >= 1.0 => "DDQN(w)".to_string(),
            (w, _) if w <= 0.0 => "DDQN(r)".to_string(),
            (w, _) => format!("DDQN(w={w:.2})"),
        };
        DdqnAgent {
            config,
            transformer_worker,
            transformer_requester,
            learner_worker,
            learner_requester,
            stats,
            explorer,
            rng,
            observations: 0,
            mean_worker_quality: 0.5,
            quality_samples: 0,
            name,
            ranked_stamps: Vec::new(),
            ranked_stamp_gen: 0,
            learning_frozen: false,
            refused_updates: (0, 0),
            nonfinite_q_decisions: 0,
            pool: ThreadPool::serial(),
        }
    }

    /// Hands the agent (and both of its learners) a worker pool. With more than one
    /// thread:
    ///
    /// * `act_batch` builds the per-view state tensors in parallel shards and runs its
    ///   packed forward passes on row-sharded kernels;
    /// * `observe` runs the worker- and requester-branch `DqnLearner::learn` calls on two
    ///   pool workers via `par_join` (each learner owns its replay memory, parameters and
    ///   sampling RNG, so the branches share nothing);
    /// * each learner's packed training graph shards its stacked matmuls.
    ///
    /// All of it is deterministic: results are **bit-identical** to the serial agent at
    /// any thread count (`tests/parallel_equivalence.rs`).
    pub fn set_thread_pool(&mut self, pool: ThreadPool) {
        self.pool = pool;
        self.learner_worker.set_thread_pool(pool);
        self.learner_requester.set_thread_pool(pool);
    }

    /// The agent configuration.
    pub fn config(&self) -> &DdqnConfig {
        &self.config
    }

    /// Number of feedbacks observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Total learning steps performed by the two learners.
    pub fn total_updates(&self) -> u64 {
        self.learner_worker.updates() + self.learner_requester.updates()
    }

    /// Refusals by this process, per branch: `(worker, requester)`. Two things count: a
    /// transition whose reward is NaN or infinite, which is never stored (so it is never
    /// sampled, let alone resampled), and a learner update refused with a `LearnError`.
    /// Either way the learner is left untouched and the agent carries on.
    pub fn refused_updates(&self) -> (u64, u64) {
        self.refused_updates
    }

    /// Decisions by this process whose combined Q-values held a NaN or infinity. The
    /// ranking still completes (NaN ranks last, see `crowd_tensor::ops::best_first`);
    /// this counts how often it had to.
    pub fn nonfinite_q_decisions(&self) -> u64 {
        self.nonfinite_q_decisions
    }

    /// Online arrival statistics (exposed for diagnostics and experiments).
    pub fn arrival_stats(&self) -> &ArrivalStats {
        &self.stats
    }

    /// The worker-benefit learner (read-only; diagnostics and the equivalence suites).
    pub fn worker_learner(&self) -> &DqnLearner {
        &self.learner_worker
    }

    /// The requester-benefit learner (read-only; diagnostics and the equivalence suites).
    pub fn requester_learner(&self) -> &DqnLearner {
        &self.learner_requester
    }

    /// Non-destructive probe of the agent's exploration/decision RNG: the next `u64` the
    /// stream *would* produce, without advancing it. Two agents that consumed their RNGs
    /// identically probe identically — the post-run check of the equivalence suites.
    pub fn rng_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Disables exploration (used once the evaluation phase starts measuring a frozen
    /// policy, and by the efficiency benchmarks).
    pub fn freeze_exploration(&mut self) {
        self.explorer.freeze();
    }

    /// Pauses gradient updates: `observe` keeps recording statistics and transitions but
    /// runs no learner step, so the Q-networks stay fixed. This makes `act` a pure function
    /// of the entry parameters — the precondition under which a batched round
    /// ([`BatchedPolicy::act_batch`]) is bit-identical to sequential stepping.
    pub fn freeze_learning(&mut self) {
        self.learning_frozen = true;
    }

    /// Resumes gradient updates after [`DdqnAgent::freeze_learning`].
    pub fn unfreeze_learning(&mut self) {
        self.learning_frozen = false;
    }

    fn uses_worker_network(&self) -> bool {
        self.config.balance_weight > 0.0
    }

    fn uses_requester_network(&self) -> bool {
        self.config.balance_weight < 1.0
    }

    /// Turns combined Q values into a decision: exploration, mode dispatch and — in ranked
    /// mode — the tail fill for tasks truncated out of the state. Called per view, in
    /// view order, by [`BatchedPolicy::act_batch`] (and so by [`Policy::act`], a batch of
    /// one).
    fn decide_from_q(
        &mut self,
        combined: &[f32],
        task_ids: &[TaskId],
        view: &ArrivalView<'_>,
        decision: &mut Decision,
    ) {
        let order = self.explorer.decide(combined, &mut self.rng);
        match self.config.mode {
            RecommendationMode::AssignOne => {
                if let Some(&idx) = order.first() {
                    decision.assign(task_ids[idx]);
                }
            }
            RecommendationMode::RankList => {
                decision.extend(order.iter().map(|&i| task_ids[i]));
                // Tasks beyond max_tasks (truncated out of the state) go to the bottom of the
                // list in their original order so the decision still covers the whole pool.
                // Membership is tracked with a generation-stamped scratch table so the fill
                // stays O(pool) instead of O(pool²) on deep pools.
                self.ranked_stamp_gen += 1;
                let generation = self.ranked_stamp_gen;
                for &id in decision.shown() {
                    let slot = id.index();
                    if slot >= self.ranked_stamps.len() {
                        self.ranked_stamps.resize(slot + 1, 0);
                    }
                    self.ranked_stamps[slot] = generation;
                }
                for i in 0..view.n_tasks() {
                    let id = view.task_id(i);
                    let in_ranking = self.ranked_stamps.get(id.index()) == Some(&generation);
                    if !in_ranking {
                        decision.push(id);
                    }
                }
            }
        }
    }

    fn store_transitions_for(&mut self, view: &ArrivalView<'_>, feedback: &FeedbackView<'_>) {
        // Which shown tasks become transitions: the completed one (positive) plus the tasks
        // ranked above it (certain negatives under the cascade assumption).
        let negatives_end = match feedback.completed {
            Some((_, position)) => position,
            None => feedback.shown.len().min(MAX_NEGATIVE_TRANSITIONS),
        };

        if self.uses_worker_network() {
            let state = self.transformer_worker.from_view(view);
            let branches = Arc::new(worker_future_branches(
                &self.transformer_worker,
                &self.stats,
                view,
                feedback,
                self.config.same_worker_horizon,
                self.config.max_future_breakpoints,
            ));
            self.push_transitions(&state, &branches, feedback, negatives_end, true);
        }
        if self.uses_requester_network() {
            let state = self.transformer_requester.from_view(view);
            let branches = Arc::new(requester_future_branches(
                &self.transformer_requester,
                &self.stats,
                view,
                feedback,
                self.mean_worker_quality,
                self.config.consecutive_horizon,
                self.config.max_future_breakpoints,
            ));
            self.push_transitions(&state, &branches, feedback, negatives_end, false);
        }
    }

    fn push_transitions(
        &mut self,
        state: &StateTensor,
        branches: &Arc<Vec<FutureBranch>>,
        feedback: &FeedbackView<'_>,
        negatives_end: usize,
        worker_side: bool,
    ) {
        let mut push = |task: TaskId, reward: f32| {
            if !reward.is_finite() {
                if worker_side {
                    self.refused_updates.0 += 1;
                } else {
                    self.refused_updates.1 += 1;
                }
                return;
            }
            if let Some(row) = state.task_ids.iter().position(|&t| t == task) {
                let transition = Transition {
                    state: state.clone(),
                    action_row: row,
                    reward,
                    branches: Arc::clone(branches),
                };
                if worker_side {
                    self.learner_worker.store_transition(transition);
                } else {
                    self.learner_requester.store_transition(transition);
                }
            }
        };
        if let Some((task, _)) = feedback.completed {
            let reward = if worker_side {
                feedback.completion_reward()
            } else {
                feedback.quality_reward()
            };
            push(task, reward);
        }
        for &task in feedback.shown.iter().take(negatives_end) {
            push(task, 0.0);
        }
    }
}

/// Checkpoint format: both learners (worker first), the arrival statistics, the
/// explorer, the exploration/decision RNG, the observation counter, the running mean
/// worker quality with its sample count, and the learning-frozen flag.
///
/// Not stored (derived or scratch): the config and the transformers (reconstructed at
/// construction), the display name, the thread pool (an execution resource, set via
/// [`DdqnAgent::set_thread_pool`] after resume), the refused-update counts (telemetry),
/// and the generation-stamped ranked-list scratch — every `act` bumps the generation
/// before stamping, so a reset scratch produces bit-identical decisions.
impl crowd_ckpt::SaveState for DdqnAgent {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.learner_worker);
        w.save(&self.learner_requester);
        w.save(&self.stats);
        w.save(&self.explorer);
        w.save(&self.rng);
        w.put_u64(self.observations);
        w.put_f32(self.mean_worker_quality);
        w.put_u64(self.quality_samples);
        w.put_bool(self.learning_frozen);
    }
}

impl crowd_ckpt::LoadState for DdqnAgent {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        r.load(&mut self.learner_worker)?;
        r.load(&mut self.learner_requester)?;
        r.load(&mut self.stats)?;
        r.load(&mut self.explorer)?;
        r.load(&mut self.rng)?;
        self.observations = r.take_u64()?;
        self.mean_worker_quality = r.take_f32()?;
        self.quality_samples = r.take_u64()?;
        self.learning_frozen = r.take_bool()?;
        Ok(())
    }
}

impl Policy for DdqnAgent {
    fn name(&self) -> &str {
        &self.name
    }

    /// A batch of one: [`BatchedPolicy::act_batch`] over this view alone.
    fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
        self.act_batch(std::slice::from_ref(view), std::slice::from_mut(decision));
    }

    fn observe(&mut self, view: &ArrivalView<'_>, feedback: &FeedbackView<'_>) {
        // 1. Online statistics (φ, ϕ, p_new, mean features) update first so the predictors
        //    see the newest arrival.
        self.stats
            .record_arrival(view.worker_id, view.time, view.worker_feature);
        self.quality_samples += 1;
        let n = self.quality_samples as f32;
        self.mean_worker_quality += (view.worker_quality - self.mean_worker_quality) / n;

        // 2. Feedback transformers + future-state predictors → transitions into the memories.
        if !view.is_empty() && !feedback.shown.is_empty() {
            self.store_transitions_for(view, feedback);
        }

        // 3. Learners run after every `learn_every` feedbacks (the paper updates after every
        //    feedback; `learn_every` > 1 trades fidelity for CPU time), unless learning is
        //    frozen (evaluation / batched-equivalence mode). The two branches are fully
        //    independent — separate replay memories, parameter stores and sampling RNG
        //    streams — so when both are active and the pool has more than one thread they
        //    update concurrently on two pool workers; each learner's `sample_refs` borrow
        //    of its own replay memory stays on its own worker. Results are bit-identical
        //    to the sequential worker-then-requester order. A refused update is counted
        //    and skipped.
        self.observations += 1;
        if !self.learning_frozen
            && self
                .observations
                .is_multiple_of(self.config.learn_every as u64)
        {
            let branches = (self.uses_worker_network(), self.uses_requester_network());
            let (refused_w, refused_r) = &mut self.refused_updates;
            match branches {
                (true, true) => {
                    let worker = &mut self.learner_worker;
                    let requester = &mut self.learner_requester;
                    let (w, r) = self
                        .pool
                        .par_join(move || worker.learn(), move || requester.learn());
                    *refused_w += w.is_err() as u64;
                    *refused_r += r.is_err() as u64;
                }
                (true, false) => *refused_w += self.learner_worker.learn().is_err() as u64,
                (false, true) => *refused_r += self.learner_requester.learn().is_err() as u64,
                (false, false) => unreachable!("balance weight always enables a network"),
            }
        }
    }

    fn warm_start(&mut self, history: &[(ArrivalContext, PolicyFeedback)]) {
        for (ctx, feedback) in history {
            self.observe(&ctx.view(), &feedback.view());
        }
    }

    /// Learner wall time, **per branch**: every `DqnLearner::learn` call is timed inside
    /// its own learner, so the report stays correct when the two branches run
    /// concurrently — the efficiency binaries take latency from
    /// [`LearnerTiming::critical_path`] (the slower branch, which is what `observe`
    /// actually waited for) instead of a double-counting sum, and can still show each
    /// branch's own wall time.
    fn learner_timing(&self) -> Option<LearnerTiming> {
        let mut branches = Vec::with_capacity(2);
        if self.uses_worker_network() {
            let (updates, total) = self.learner_worker.learn_timing();
            branches.push(LearnerBranchTiming {
                name: "worker",
                updates,
                total,
            });
        }
        if self.uses_requester_network() {
            let (updates, total) = self.learner_requester.learn_timing();
            branches.push(LearnerBranchTiming {
                name: "requester",
                updates,
                total,
            });
        }
        Some(LearnerTiming { branches })
    }

    fn set_thread_pool(&mut self, pool: ThreadPool) {
        DdqnAgent::set_thread_pool(self, pool);
    }

    /// The DDQN agent is fully checkpointable: delegates to its
    /// [`crowd_ckpt::SaveState`] impl.
    fn checkpoint_state(&self, w: &mut crowd_ckpt::StateWriter) -> crowd_ckpt::Result<()> {
        crowd_ckpt::SaveState::save_state(self, w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        crowd_ckpt::LoadState::load_state(self, r)
    }
}

impl BatchedPolicy for DdqnAgent {
    /// Decides on `N` arrivals with **one Q-network forward pass per active network**: all
    /// views' state rows are packed into a single `[Σ max_tasks, row_dim]` buffer (built
    /// straight from the borrowed views, no cloning of feature vectors beyond the state
    /// tensors the sequential path builds too) and evaluated through
    /// [`DqnLearner::q_values_batch`](crate::DqnLearner::q_values_batch). Exploration then
    /// runs per view in view order, so the RNG stream matches sequential `act` calls
    /// exactly.
    ///
    /// With a multi-thread pool ([`DdqnAgent::set_thread_pool`]) the per-view state
    /// tensors are built in parallel shards (each state is a pure function of its own
    /// view and the shared transformer) and the packed forward pass runs on row-sharded
    /// kernels — the "parallel pack" stage around the single shared forward. Exploration
    /// and decision assembly stay sequential in view order, so the decisions and the RNG
    /// stream are bit-identical at any thread count.
    fn act_batch(&mut self, views: &[ArrivalView<'_>], decisions: &mut [Decision]) {
        assert_eq!(
            views.len(),
            decisions.len(),
            "one decision buffer per view required"
        );
        // Empty pools skip state construction just like the sequential `act` short-circuit;
        // a zero-row placeholder keeps the index alignment with `views` and contributes no
        // rows to the packed buffer. Parallel packing only pays once there are enough
        // views to amortise the pool dispatch (a per-view state build is microseconds;
        // the persistent pool's warm dispatch is cheaper than a thread spawn but not
        // free); small batches shard to nothing — bit-identical either way, so this gate
        // is pure wall clock.
        let pool = if views.len() >= self.pool.threads() * 4 {
            self.pool
        } else {
            ThreadPool::serial()
        };
        let build_states = |transformer: &StateTransformer| {
            let mut states: Vec<StateTensor> = views
                .iter()
                .map(|_| StateTensor {
                    features: crowd_tensor::Matrix::zeros(0, transformer.row_dim()),
                    row_mask: crowd_tensor::Matrix::zeros(0, 1),
                    task_ids: Vec::new(),
                    real_tasks: 0,
                })
                .collect();
            pool.par_chunks(&mut states, 1, |offset, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    let view = &views[offset + k];
                    if !view.is_empty() {
                        *slot = transformer.from_view(view);
                    }
                }
            });
            states
        };
        let states_w = self
            .uses_worker_network()
            .then(|| build_states(&self.transformer_worker));
        let states_r = self
            .uses_requester_network()
            .then(|| build_states(&self.transformer_requester));
        let q_w = states_w.as_ref().map(|states| {
            let refs: Vec<&StateTensor> = states.iter().collect();
            self.learner_worker
                .q_values_batch(&refs)
                .expect("worker Q batch inference failed")
        });
        let q_r = states_r.as_ref().map(|states| {
            let refs: Vec<&StateTensor> = states.iter().collect();
            self.learner_requester
                .q_values_batch(&refs)
                .expect("requester Q batch inference failed")
        });
        let states = states_w
            .as_ref()
            .or(states_r.as_ref())
            .expect("balance weight always enables at least one network");
        for (i, (view, decision)) in views.iter().zip(decisions.iter_mut()).enumerate() {
            decision.clear();
            if view.is_empty() {
                continue;
            }
            let combined = aggregator::combine(
                q_w.as_ref().map(|q| q[i].as_slice()),
                q_r.as_ref().map(|q| q[i].as_slice()),
                self.config.balance_weight,
            );
            if combined.iter().any(|q| !q.is_finite()) {
                self.nonfinite_q_decisions += 1;
            }
            self.decide_from_q(&combined, &states[i].task_ids, view, decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::{Env, Platform, SimConfig};

    fn agent_for(platform: &Platform, config: DdqnConfig) -> DdqnAgent {
        let fs = platform.feature_space();
        DdqnAgent::new(config, fs.task_dim(), fs.worker_dim())
    }

    fn small_config() -> DdqnConfig {
        DdqnConfig {
            max_tasks: 32,
            hidden_dim: 16,
            num_heads: 2,
            batch_size: 8,
            buffer_size: 128,
            learn_every: 4,
            exploration_anneal_steps: 200,
            ..DdqnConfig::default()
        }
    }

    #[test]
    fn checkpointed_agent_continues_bit_identically() {
        use crowd_ckpt::{Snapshot, SnapshotFile};
        // Train an agent (both MDPs, exploration + learning active) for a while, save,
        // restore into a FRESH agent built from the same config, and drive both over
        // the same remaining arrivals: decisions, loss streams, RNG probes and every
        // parameter must stay bit-identical.
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds.clone(), fs.clone(), 11);
        let config = small_config().with_balance(0.5);
        let mut agent = agent_for(&platform, config.clone());
        let mut decision = Decision::new();
        let mut steps = 0;
        while platform.next_arrival() {
            if platform.arrival().is_empty() {
                continue;
            }
            agent.act(&platform.arrival(), &mut decision);
            platform.apply(&decision);
            agent.observe(&platform.arrival(), &platform.feedback());
            steps += 1;
            if steps >= 80 {
                break;
            }
        }
        assert!(agent.total_updates() > 0, "no learning before the snapshot");

        let mut snap = Snapshot::new();
        snap.put("agent", &agent);
        let file = SnapshotFile::from_bytes(snap.to_bytes()).unwrap();
        let mut resumed = agent_for(&platform, config);
        file.load_into("agent", &mut resumed).unwrap();

        // Both platforms continue from an identical committed state.
        let mut platform_b = platform.clone();
        let mut decision_b = Decision::new();
        for _ in 0..60 {
            if !platform.next_arrival() {
                break;
            }
            assert!(platform_b.next_arrival());
            if platform.arrival().is_empty() {
                continue;
            }
            agent.act(&platform.arrival(), &mut decision);
            resumed.act(&platform_b.arrival(), &mut decision_b);
            assert_eq!(decision, decision_b, "decisions diverged after resume");
            platform.apply(&decision);
            platform_b.apply(&decision_b);
            agent.observe(&platform.arrival(), &platform.feedback());
            resumed.observe(&platform_b.arrival(), &platform_b.feedback());
        }
        assert_eq!(agent.total_updates(), resumed.total_updates());
        assert_eq!(agent.rng_probe(), resumed.rng_probe());
        assert_eq!(
            agent.worker_learner().loss_history(),
            resumed.worker_learner().loss_history()
        );
        assert_eq!(
            agent.requester_learner().rng_probe(),
            resumed.requester_learner().rng_probe()
        );
        for (learner_a, learner_b) in [
            (agent.worker_learner(), resumed.worker_learner()),
            (agent.requester_learner(), resumed.requester_learner()),
        ] {
            for ((_, name, a), (_, _, b)) in
                learner_a.params().iter().zip(learner_b.params().iter())
            {
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "param {name} diverged");
                }
            }
        }
    }

    #[test]
    fn names_reflect_configuration() {
        let ds = SimConfig::tiny().generate();
        let platform = Platform::new(ds.clone(), Platform::default_feature_space(&ds), 0);
        assert_eq!(
            agent_for(&platform, small_config().worker_only()).name(),
            "DDQN(w)"
        );
        assert_eq!(
            agent_for(&platform, small_config().requester_only()).name(),
            "DDQN(r)"
        );
        assert_eq!(
            agent_for(&platform, small_config().with_balance(0.25)).name(),
            "DDQN(w=0.25)"
        );
    }

    #[test]
    fn act_produces_valid_decisions_in_both_modes() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 1);
        let mut ranker = agent_for(&platform, small_config());
        let mut assigner = agent_for(
            &platform,
            small_config().with_mode(RecommendationMode::AssignOne),
        );
        let mut decision = Decision::new();
        let mut checked = 0;
        while platform.next_arrival() {
            let view = platform.arrival();
            if view.is_empty() {
                continue;
            }
            ranker.act(&view, &mut decision);
            // Complete permutation of the pool, no duplicates.
            assert_eq!(decision.len(), view.n_tasks());
            assert!(!decision.is_assignment());
            let mut dedup = decision.shown().to_vec();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), decision.len());

            assigner.act(&view, &mut decision);
            assert!(decision.is_assignment());
            assert_eq!(decision.len(), 1);
            assert!(view.position_of(decision.shown()[0]).is_some());
            checked += 1;
            if checked > 30 {
                break;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn observe_accumulates_transitions_and_learns() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 2);
        let mut agent = agent_for(&platform, small_config());
        let mut decision = Decision::new();
        let mut steps = 0;
        while platform.next_arrival() {
            if platform.arrival().is_empty() {
                continue;
            }
            agent.act(&platform.arrival(), &mut decision);
            platform.apply(&decision);
            agent.observe(&platform.arrival(), &platform.feedback());
            steps += 1;
            if steps >= 120 {
                break;
            }
        }
        assert!(agent.observations() >= 100);
        assert!(agent.arrival_stats().arrivals_seen() >= 100);
        assert!(agent.total_updates() > 0, "learners never ran");
        let timing = agent
            .learner_timing()
            .expect("the DDQN agent tracks timing");
        assert_eq!(timing.updates(), agent.total_updates());
        assert!(timing.total_cpu() > std::time::Duration::ZERO);
        assert!(timing.critical_path() <= timing.total_cpu());
        assert!(timing.mean_seconds() > 0.0);
    }

    #[test]
    fn agent_and_learner_are_send() {
        // The parallel split moves `&mut DqnLearner` (par_join) and boxed policies
        // (`SessionBatch::step_all`) across pool worker threads; this is the compile-time fence.
        fn assert_send<T: Send>() {}
        assert_send::<DdqnAgent>();
        assert_send::<crate::DqnLearner>();
    }

    #[test]
    fn pooled_agent_replays_bit_identically_to_serial_agent() {
        // A *training* agent (both exploration and learning active) driven over the same
        // arrivals must end in a bit-identical state whether its internal pool has 1 or
        // 8 threads: par_join learner dispatch, parallel act_batch packing and pooled
        // kernels may only change wall clock.
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let run = |threads: usize| {
            let mut platform = Platform::new(ds.clone(), fs.clone(), 7);
            // Balanced config so BOTH learners are active and the par_join path runs.
            let mut agent = agent_for(&platform, small_config().with_balance(0.5));
            agent.set_thread_pool(ThreadPool::new(threads));
            let mut decision = Decision::new();
            let mut steps = 0;
            while platform.next_arrival() {
                if platform.arrival().is_empty() {
                    continue;
                }
                agent.act(&platform.arrival(), &mut decision);
                platform.apply(&decision);
                agent.observe(&platform.arrival(), &platform.feedback());
                steps += 1;
                if steps >= 100 {
                    break;
                }
            }
            agent
        };
        let serial = run(1);
        let pooled = run(8);
        assert!(serial.total_updates() > 0, "learners never ran");
        assert_eq!(serial.total_updates(), pooled.total_updates());
        assert_eq!(
            serial.learner_worker.loss_history(),
            pooled.learner_worker.loss_history()
        );
        assert_eq!(
            serial.learner_requester.loss_history(),
            pooled.learner_requester.loss_history()
        );
        assert_eq!(
            serial.learner_worker.rng_probe(),
            pooled.learner_worker.rng_probe()
        );
        for ((_, name, a), (_, _, b)) in serial
            .learner_worker
            .params()
            .iter()
            .zip(pooled.learner_worker.params().iter())
        {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "worker param {name} diverged");
            }
        }
    }

    #[test]
    fn worker_only_agent_never_touches_requester_learner() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 3);
        let mut agent = agent_for(&platform, small_config().worker_only());
        let mut decision = Decision::new();
        let mut steps = 0;
        while platform.next_arrival() {
            if platform.arrival().is_empty() {
                continue;
            }
            agent.act(&platform.arrival(), &mut decision);
            platform.apply(&decision);
            agent.observe(&platform.arrival(), &platform.feedback());
            steps += 1;
            if steps >= 60 {
                break;
            }
        }
        assert_eq!(agent.learner_requester.updates(), 0);
        assert_eq!(agent.learner_requester.memory_len(), 0);
        assert!(agent.learner_worker.memory_len() > 0);
    }

    #[test]
    fn nan_reward_update_is_refused_counted_and_skipped() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 6);
        // Batch size 1, learning after every feedback: the first feedback's lone
        // transition per branch is the whole minibatch.
        let config = DdqnConfig {
            batch_size: 1,
            learn_every: 1,
            ..small_config()
        }
        .with_balance(0.5);
        let mut agent = agent_for(&platform, config);
        while platform.next_arrival() && platform.arrival().is_empty() {}
        let mut decision = Decision::new();
        agent.act(&platform.arrival(), &mut decision);
        platform.apply(&decision);
        // The first shown task completed with a NaN quality gain: a NaN requester reward.
        let mut feedback = platform.feedback().to_feedback();
        feedback.completed = Some((feedback.shown[0], 0));
        feedback.quality_gain = f32::NAN;

        let param_bits = |learner: &DqnLearner| -> Vec<u32> {
            learner
                .params()
                .iter()
                .flat_map(|(_, _, m)| m.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        let requester_before = param_bits(agent.requester_learner());
        agent.observe(&platform.arrival(), &feedback.view());

        assert_eq!(agent.refused_updates(), (0, 1));
        assert_eq!(agent.requester_learner().updates(), 0);
        assert_eq!(param_bits(agent.requester_learner()), requester_before);
        // The healthy branch learned as usual.
        assert_eq!(agent.worker_learner().updates(), 1);

        // The poisoned transition never entered replay, so healthy traffic never
        // samples it again: the count stays put while both branches keep learning.
        for _ in 0..200 {
            if !platform.next_arrival() {
                break;
            }
            let mut decision = Decision::new();
            agent.act(&platform.arrival(), &mut decision);
            platform.apply(&decision);
            agent.observe(&platform.arrival(), &platform.feedback());
        }
        assert_eq!(agent.refused_updates(), (0, 1));
        assert!(agent.requester_learner().updates() > 0);
    }

    #[test]
    fn nonfinite_q_values_still_rank_the_whole_pool_and_are_counted() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 7);
        let mut agent = agent_for(&platform, small_config());
        while platform.next_arrival() && platform.arrival().is_empty() {}
        let mut context = platform.arrival().to_context();
        let mut pool: Vec<TaskId> = context.available.iter().map(|t| t.id).collect();
        pool.sort_unstable();
        let mut decision = Decision::new();
        agent.act(&context.view(), &mut decision);
        assert_eq!(agent.nonfinite_q_decisions(), 0);

        // A NaN feature poisons the Q-values; exploring and greedy ranking both still
        // return every task once.
        context.available[0].feature[0] = f32::NAN;
        for greedy in [false, true] {
            if greedy {
                agent.freeze_exploration();
            }
            agent.act(&context.view(), &mut decision);
            let mut shown = decision.shown().to_vec();
            shown.sort_unstable();
            assert_eq!(shown, pool, "greedy = {greedy}");
        }
        assert_eq!(agent.nonfinite_q_decisions(), 2);
    }

    #[test]
    fn act_batch_matches_sequential_act_and_skips_empty_views() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 5);
        let mut batch_agent = agent_for(&platform, small_config());
        let mut seq_agent = agent_for(&platform, small_config());
        let mut contexts = Vec::new();
        while contexts.len() < 4 && platform.next_arrival() {
            if !platform.arrival().is_empty() {
                contexts.push(platform.arrival().to_context());
            }
        }
        assert_eq!(contexts.len(), 4, "tiny dataset should yield 4 pools");
        // An empty pool in the middle of the batch must be skipped exactly like the
        // sequential path skips it (no state build, no RNG draw, cleared decision).
        let mut empty = contexts[0].clone();
        empty.available.clear();
        contexts.insert(2, empty);
        let views: Vec<ArrivalView<'_>> = contexts.iter().map(|ctx| ctx.view()).collect();
        let mut batched: Vec<Decision> = (0..views.len()).map(|_| Decision::new()).collect();
        batch_agent.act_batch(&views, &mut batched);
        for (view, batch_decision) in views.iter().zip(&batched) {
            let mut expected = Decision::new();
            seq_agent.act(view, &mut expected);
            assert_eq!(&expected, batch_decision, "batched decision diverged");
        }
        assert!(batched[2].is_empty());
    }

    #[test]
    fn frozen_agent_is_deterministic_given_view() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut platform = Platform::new(ds, fs, 4);
        let mut agent = agent_for(&platform, small_config());
        agent.freeze_exploration();
        loop {
            assert!(platform.next_arrival());
            if !platform.arrival().is_empty() {
                break;
            }
        }
        let view = platform.arrival();
        let mut first = Decision::new();
        let mut second = Decision::new();
        agent.act(&view, &mut first);
        agent.act(&view, &mut second);
        assert_eq!(first, second);
    }
}
