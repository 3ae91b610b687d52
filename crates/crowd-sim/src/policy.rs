//! The [`Policy`] trait — the interface between the platform environment and every task
//! arrangement method (the DDQN agent and all baselines) — plus the owned *record* types
//! ([`ArrivalContext`], [`Action`], [`PolicyFeedback`]).
//!
//! The hot decision loop operates on borrowed views ([`ArrivalView`], [`FeedbackView`])
//! and the reusable [`Decision`] buffer from [`crate::env`]; the owned types here are used
//! for warm-start history, synthetic test harnesses and anywhere a record must outlive the
//! environment step that produced it. Bridge in both directions with
//! [`ArrivalContext::view`] / [`ArrivalView::to_context`](crate::ArrivalView::to_context)
//! and the feedback equivalents.

use crate::env::{ArrivalView, Decision, FeedbackView};
use crate::task::TaskId;
use crate::worker::WorkerId;
use crowd_tensor::ThreadPool;
use std::time::Duration;

/// Update count and wall time of **one** learner branch (e.g. the worker-benefit or the
/// requester-benefit DQN of the dual agent). See [`LearnerTiming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnerBranchTiming {
    /// Branch label for reports (e.g. `"worker"` / `"requester"`).
    pub name: &'static str,
    /// Number of gradient updates this branch performed and timed in this process.
    pub updates: u64,
    /// Wall time this branch spent inside those updates.
    pub total: Duration,
}

impl LearnerBranchTiming {
    /// Average seconds per gradient update of this branch (0 when no update ran).
    pub fn mean_seconds(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.total.as_secs_f64() / self.updates as f64
        }
    }
}

/// Wall time a policy has spent in its gradient/model-update steps — the *learner* slice
/// of `observe`, separated from transition construction and statistics bookkeeping —
/// broken down **per learner branch**.
///
/// Reported by [`Policy::learner_timing`] for policies that track it (the DDQN agent
/// times every `learn` call of each of its two DQNs). The per-branch breakdown exists
/// because the two learners may run **concurrently** (`DdqnAgent` dispatches them on two
/// pool workers): summing their wall times would double-count the overlapped span, so
/// latency reports must use [`LearnerTiming::critical_path`] — the slowest branch, which
/// is what the caller actually waited — while [`LearnerTiming::total_cpu`] remains the
/// summed per-branch time (CPU cost, not latency).
///
/// Timings are measurements of the current process and are never checkpointed. After a
/// resume each branch's update count and wall time cover only the updates this process
/// ran, so [`LearnerTiming::mean_seconds`] stays a true per-update mean.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LearnerTiming {
    /// Per-branch update counts and wall times, in a stable branch order.
    pub branches: Vec<LearnerBranchTiming>,
}

impl LearnerTiming {
    /// Timing of a single-branch learner.
    pub fn single(name: &'static str, updates: u64, total: Duration) -> Self {
        LearnerTiming {
            branches: vec![LearnerBranchTiming {
                name,
                updates,
                total,
            }],
        }
    }

    /// Total gradient updates across every branch.
    pub fn updates(&self) -> u64 {
        self.branches.iter().map(|b| b.updates).sum()
    }

    /// Summed per-branch wall time — the CPU cost of learning. When branches run
    /// concurrently this **exceeds** the time the caller waited; use
    /// [`LearnerTiming::critical_path`] for latency.
    pub fn total_cpu(&self) -> Duration {
        self.branches.iter().map(|b| b.total).sum()
    }

    /// The slowest branch's wall time — the learning latency on the critical path when
    /// branches run concurrently (equal to [`LearnerTiming::total_cpu`] for a
    /// single-branch learner).
    pub fn critical_path(&self) -> Duration {
        self.branches
            .iter()
            .map(|b| b.total)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Average critical-path seconds per update *round* (the branches of one round run
    /// concurrently, so a round's updates count once): `critical_path / max branch update
    /// count`. 0 when no update ran.
    pub fn mean_seconds(&self) -> f64 {
        let rounds = self.branches.iter().map(|b| b.updates).max().unwrap_or(0);
        if rounds == 0 {
            0.0
        } else {
            self.critical_path().as_secs_f64() / rounds as f64
        }
    }
}

/// Snapshot of one available task as shown to a policy at decision time (owned record; the
/// hot loop uses [`crate::TaskRef`] instead).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSnapshot {
    /// Task identifier.
    pub id: TaskId,
    /// Task feature vector (Sec. IV-A1).
    pub feature: Vec<f32>,
    /// Current Dixit–Stiglitz quality of the task (Sec. V-A).
    pub quality: f32,
    /// Raw award value.
    pub award: f32,
    /// Category index.
    pub category: u16,
    /// Domain index.
    pub domain: u16,
    /// Expiration time (minutes since horizon start).
    pub deadline: u64,
    /// Number of completions so far.
    pub completions: usize,
}

/// Everything a policy sees when a worker arrives (owned record of the observable part of
/// the MDP state `s_i = [f_wi, f_Ti, q_wi, q_Ti]`; the hot loop uses
/// [`ArrivalView`] instead).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalContext {
    /// Arrival time in minutes since the start of the horizon.
    pub time: u64,
    /// The arriving worker.
    pub worker_id: WorkerId,
    /// The worker's observable feature vector (distribution of recent completions).
    pub worker_feature: Vec<f32>,
    /// The worker's known quality `q_wi ∈ [0, 1]`.
    pub worker_quality: f32,
    /// Whether this worker has been seen before by the platform.
    pub is_new_worker: bool,
    /// Snapshots of the currently available tasks `T_i`.
    pub available: Vec<TaskSnapshot>,
}

impl ArrivalContext {
    /// Position of a task inside [`ArrivalContext::available`], if present.
    pub fn position_of(&self, task: TaskId) -> Option<usize> {
        self.available.iter().position(|t| t.id == task)
    }
}

/// A policy's decision as an owned record (compatibility path; the hot loop writes into a
/// reusable [`Decision`] buffer instead).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Assign exactly one task (the paper's "recommend one task" setting).
    Assign(TaskId),
    /// Show a ranked list of tasks, best first (the paper's "recommend a sorted list").
    Rank(Vec<TaskId>),
}

impl Action {
    /// The shown tasks in display order (a single assignment is a one-element list).
    /// Allocates; prefer [`Decision::shown`] in anything performance-sensitive.
    pub fn shown_order(&self) -> Vec<TaskId> {
        match self {
            Action::Assign(t) => vec![*t],
            Action::Rank(list) => list.clone(),
        }
    }

    /// Number of shown tasks, without materialising the list.
    pub fn shown_len(&self) -> usize {
        match self {
            Action::Assign(_) => 1,
            Action::Rank(list) => list.len(),
        }
    }
}

/// Outcome of showing an action to the arriving worker (owned record; the hot loop uses
/// [`FeedbackView`] instead). Produced by [`FeedbackView::to_feedback`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyFeedback {
    /// Arrival time of the decision this feedback refers to.
    pub time: u64,
    /// The worker who made the decision.
    pub worker_id: WorkerId,
    /// The worker's quality.
    pub worker_quality: f32,
    /// Tasks shown, in the order they were shown.
    pub shown: Vec<TaskId>,
    /// Completed task and its 0-based position in `shown`, if any task was completed.
    pub completed: Option<(TaskId, usize)>,
    /// Quality gain `q_new - q_old` of the completed task (0 when nothing was completed).
    pub quality_gain: f32,
    /// Worker feature before the completion was applied.
    pub worker_feature_before: Vec<f32>,
    /// Worker feature after the completion was applied (equal to `before` when nothing was
    /// completed).
    pub worker_feature_after: Vec<f32>,
}

impl PolicyFeedback {
    /// MDP(w) immediate reward: 1 when a task was completed, else 0 (Sec. IV-C).
    pub fn completion_reward(&self) -> f32 {
        if self.completed.is_some() {
            1.0
        } else {
            0.0
        }
    }

    /// MDP(r) immediate reward: the quality gain of the completed task (Sec. V-C).
    pub fn quality_reward(&self) -> f32 {
        self.quality_gain
    }
}

/// Checkpoint format: id, feature (f32 slice), quality, award, category, domain (`u16`),
/// deadline (`u64`), completions (`u64`). Owned records appear in snapshots only inside
/// a pre-warm-start session's history; their floats roundtrip as raw bits so a resumed
/// warm start replays the exact same values.
impl crowd_ckpt::SaveState for TaskSnapshot {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.id);
        w.put_f32_slice(&self.feature);
        w.put_f32(self.quality);
        w.put_f32(self.award);
        w.put_u16(self.category);
        w.put_u16(self.domain);
        w.put_u64(self.deadline);
        w.put_usize(self.completions);
    }
}

impl crowd_ckpt::DecodeState for TaskSnapshot {
    fn decode_state(r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<Self> {
        Ok(TaskSnapshot {
            id: r.decode()?,
            feature: r.take_f32_vec()?,
            quality: r.take_f32()?,
            award: r.take_f32()?,
            category: r.take_u16()?,
            domain: r.take_u16()?,
            deadline: r.take_u64()?,
            completions: r.take_usize()?,
        })
    }
}

/// Checkpoint format: time, worker id, worker feature (f32 slice), worker quality,
/// new-worker flag, then the available-task snapshots.
impl crowd_ckpt::SaveState for ArrivalContext {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_u64(self.time);
        w.save(&self.worker_id);
        w.put_f32_slice(&self.worker_feature);
        w.put_f32(self.worker_quality);
        w.put_bool(self.is_new_worker);
        w.save(&self.available);
    }
}

impl crowd_ckpt::DecodeState for ArrivalContext {
    fn decode_state(r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<Self> {
        Ok(ArrivalContext {
            time: r.take_u64()?,
            worker_id: r.decode()?,
            worker_feature: r.take_f32_vec()?,
            worker_quality: r.take_f32()?,
            is_new_worker: r.take_bool()?,
            available: r.decode()?,
        })
    }
}

/// Checkpoint format: time, worker id + quality, shown task ids, completed
/// `Option<(TaskId, u64)>`, quality gain, worker features before/after.
impl crowd_ckpt::SaveState for PolicyFeedback {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_u64(self.time);
        w.save(&self.worker_id);
        w.put_f32(self.worker_quality);
        w.save(&self.shown);
        match self.completed {
            None => w.put_bool(false),
            Some((task, position)) => {
                w.put_bool(true);
                w.save(&task);
                w.put_usize(position);
            }
        }
        w.put_f32(self.quality_gain);
        w.put_f32_slice(&self.worker_feature_before);
        w.put_f32_slice(&self.worker_feature_after);
    }
}

impl crowd_ckpt::DecodeState for PolicyFeedback {
    fn decode_state(r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<Self> {
        Ok(PolicyFeedback {
            time: r.take_u64()?,
            worker_id: r.decode()?,
            worker_quality: r.take_f32()?,
            shown: r.decode()?,
            completed: if r.take_bool()? {
                Some((r.decode()?, r.take_usize()?))
            } else {
                None
            },
            quality_gain: r.take_f32()?,
            worker_feature_before: r.take_f32_vec()?,
            worker_feature_after: r.take_f32_vec()?,
        })
    }
}

/// A task-arrangement policy over the zero-copy view interface.
///
/// The session calls [`Policy::act`] for every worker arrival with a borrowed
/// [`ArrivalView`] and a reusable [`Decision`] buffer to write the ranking into, applies
/// the decision to the environment, then calls [`Policy::observe`] with the same view and
/// the borrowed [`FeedbackView`]. Supervised baselines retrain inside
/// [`Policy::end_of_day`]; RL methods update inside `observe` (Sec. VII-A3's update
/// regimes).
pub trait Policy {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// Decides what to show to the arriving worker, writing the ranking (or single
    /// assignment) into `decision`. The buffer may hold a previous arrival's decision:
    /// implementations must overwrite it (start with [`Decision::clear`] or
    /// [`Decision::assign`]) rather than append.
    fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision);

    /// Receives the worker's feedback for the decision just applied. `view` is identical
    /// to the one `act` saw (environment effects are committed only after this call).
    fn observe(&mut self, view: &ArrivalView<'_>, feedback: &FeedbackView<'_>);

    /// Called at the end of each simulated day (supervised baselines retrain here).
    fn end_of_day(&mut self, _day: usize) {}

    /// Called once after the initialisation month with all historical feedback, so models
    /// can warm-start exactly like the paper initialises from the first month of data.
    /// History records are owned; replay them through views via
    /// [`ArrivalContext::view`] / [`PolicyFeedback::view`].
    fn warm_start(&mut self, _history: &[(ArrivalContext, PolicyFeedback)]) {}

    /// Wall time this policy has spent in gradient/model-update steps, when it tracks
    /// that separately from the rest of `observe` — `None` for policies without a
    /// learner (the default). See [`LearnerTiming`].
    fn learner_timing(&self) -> Option<LearnerTiming> {
        None
    }

    /// Hands the policy a worker pool for its internal parallelism (packed forward
    /// passes, concurrent learner branches). The default ignores it — most policies have
    /// nothing to parallelise; the DDQN agent overrides it. Policies must stay
    /// **deterministic at any thread count**: the pool may only change wall clock, never
    /// results (the workspace-wide bit-identity contract,
    /// `tests/parallel_equivalence.rs`).
    fn set_thread_pool(&mut self, _pool: ThreadPool) {}

    /// Serialises the policy's complete dynamic state (model parameters, optimizer
    /// moments, replay memories, RNG streams, schedule positions) into `w` so a resumed
    /// run continues **bit-identically** to an uninterrupted one. The default returns
    /// [`crowd_ckpt::CkptError::Unsupported`] — policies without checkpoint support are
    /// skipped, not crashed, by checkpointing drivers. Overriders must pair this with
    /// [`Policy::restore_state`] reading the exact same layout.
    ///
    /// (Named `checkpoint_state`/`restore_state` rather than reusing the
    /// `crowd_ckpt::SaveState`/`LoadState` method names so a policy can implement both
    /// traits without method-resolution ambiguity.)
    fn checkpoint_state(&self, _w: &mut crowd_ckpt::StateWriter) -> crowd_ckpt::Result<()> {
        Err(crowd_ckpt::CkptError::Unsupported {
            what: "this policy",
        })
    }

    /// Restores the state written by [`Policy::checkpoint_state`] into a freshly
    /// constructed policy (built from the same configuration). On error the policy is
    /// left in an unspecified (but memory-safe) state and must be discarded.
    fn restore_state(&mut self, _r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        Err(crowd_ckpt::CkptError::Unsupported {
            what: "this policy",
        })
    }
}

/// The canonical boxed policy used by session batches and the experiment line-ups.
///
/// `Send` is part of the contract so `SessionBatch::step_all` can shard
/// session/policy pairs across pool workers; every policy in the workspace is a plain
/// data structure (matrices, replay buffers, deterministic RNGs), so the bound costs
/// nothing.
pub type BoxedPolicy = Box<dyn Policy + Send>;

/// An owned, thread-movable batched policy — the handle the `crowd-serve` batch worker
/// holds behind its serving loop (the server thread owns the policy outright; clients
/// only ever talk to it through the ingress queue, so no lock is involved).
pub type BoxedBatchedPolicy = Box<dyn BatchedPolicy + Send>;

/// A policy that can decide on `N` arrivals (one per live simulation) in a single call —
/// the entry point batched Q-network inference plugs into.
///
/// # Contract
///
/// `act_batch` must behave exactly like calling [`Policy::act`] once per view, **in view
/// order, with the model parameters the policy holds on entry**. Anything consumed per
/// decision (exploration RNG draws, annealing schedules) must be consumed in the same view
/// order, so a batched round and the equivalent sequence of `act` calls leave the policy —
/// including its RNG stream — in bit-identical states. Each `decisions[i]` buffer may hold
/// a previous round's ranking and must be overwritten, never appended to (same rule as
/// [`Policy::act`]).
///
/// The default implementation simply loops `act`, which satisfies the contract trivially;
/// policies with a real batched path (the DDQN agent packs every view's state rows into
/// one Q-network forward pass) override it. For a *learning* policy the batched round and
/// the sequential round can still diverge: sequential stepping may update parameters
/// between two acts of the same round, while `act_batch` evaluates every view against the
/// entry parameters. With learning paused (e.g. `DdqnAgent::freeze_learning`) the two are
/// bit-identical — `tests/batched_equivalence.rs` proves it end to end.
pub trait BatchedPolicy: Policy {
    /// Decides on every view in one call, writing into the aligned `decisions` buffers.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `views.len() != decisions.len()`.
    fn act_batch(&mut self, views: &[ArrivalView<'_>], decisions: &mut [Decision]) {
        assert_eq!(
            views.len(),
            decisions.len(),
            "one decision buffer per view required"
        );
        for (view, decision) in views.iter().zip(decisions.iter_mut()) {
            self.act(view, decision);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(id: u32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![0.0; 3],
            quality: 0.0,
            award: 1.0,
            category: 0,
            domain: 0,
            deadline: 100,
            completions: 0,
        }
    }

    #[test]
    fn position_lookup() {
        let ctx = ArrivalContext {
            time: 0,
            worker_id: WorkerId(0),
            worker_feature: vec![],
            worker_quality: 0.5,
            is_new_worker: false,
            available: vec![snapshot(5), snapshot(9)],
        };
        assert_eq!(ctx.position_of(TaskId(9)), Some(1));
        assert_eq!(ctx.position_of(TaskId(1)), None);
        assert_eq!(ctx.view().position_of(TaskId(9)), Some(1));
    }

    #[test]
    fn action_shown_order() {
        assert_eq!(Action::Assign(TaskId(3)).shown_order(), vec![TaskId(3)]);
        assert_eq!(Action::Assign(TaskId(3)).shown_len(), 1);
        assert_eq!(
            Action::Rank(vec![TaskId(1), TaskId(2)]).shown_order(),
            vec![TaskId(1), TaskId(2)]
        );
        assert_eq!(Action::Rank(vec![TaskId(1), TaskId(2)]).shown_len(), 2);
    }

    #[test]
    fn feedback_rewards() {
        let fb = PolicyFeedback {
            time: 0,
            worker_id: WorkerId(0),
            worker_quality: 0.7,
            shown: vec![TaskId(1)],
            completed: Some((TaskId(1), 0)),
            quality_gain: 0.4,
            worker_feature_before: vec![],
            worker_feature_after: vec![],
        };
        assert_eq!(fb.completion_reward(), 1.0);
        assert_eq!(fb.quality_reward(), 0.4);
        assert_eq!(fb.view().completion_reward(), 1.0);

        let skipped = PolicyFeedback {
            completed: None,
            quality_gain: 0.0,
            ..fb
        };
        assert_eq!(skipped.completion_reward(), 0.0);
        assert_eq!(skipped.quality_reward(), 0.0);
    }
}
