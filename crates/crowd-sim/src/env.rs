//! The zero-copy environment layer: borrowed arrival views, the reusable [`Decision`]
//! buffer and the [`Env`] trait that [`Platform`](crate::Platform) implements.
//!
//! The original Policy↔Platform interface materialised an owned
//! [`ArrivalContext`] for every worker arrival, cloning every task feature vector in the
//! pool plus the worker feature — per-arrival allocation that dominates the decision loop
//! at scale. This module replaces that hot path:
//!
//! * [`ArrivalView`] borrows task features straight out of the platform's task-feature
//!   arenas (filled once at construction) and the worker feature out of the
//!   worker-feature arena — **no per-arrival clones**;
//! * [`Decision`] is a reusable ranking buffer the policy writes into — no allocation per
//!   decision once its capacity has grown to the pool size;
//! * [`FeedbackView`] borrows the shown list and worker features from the platform's
//!   per-step scratch state;
//! * [`Env`] is the minimal stepping interface (`next_arrival` → `arrival`/`apply` →
//!   `feedback`) that the `Session` facade in `crowd-experiments` drives, for one
//!   simulation or for `N` of them in lock-step.
//!
//! The owned types ([`ArrivalContext`], [`PolicyFeedback`]) remain as *record* types — for
//! warm-start history, synthetic test harnesses and serialization-ish uses — and can be
//! bridged both ways: [`ArrivalContext::view`] / [`PolicyFeedback::view`] produce borrowed
//! views over owned storage, [`ArrivalView::to_context`] / [`FeedbackView::to_feedback`]
//! gather owned copies.

use crate::policy::{Action, ArrivalContext, PolicyFeedback, TaskSnapshot};
use crate::task::{Task, TaskId};
use crate::worker::WorkerId;

/// One available task, borrowed from platform storage (or from an owned snapshot list).
///
/// `feature` points into the platform's task-feature arena; copying a `TaskRef` copies only
/// the reference, never the feature data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRef<'a> {
    /// Task identifier.
    pub id: TaskId,
    /// Task feature vector (Sec. IV-A1), borrowed.
    pub feature: &'a [f32],
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

impl TaskRef<'_> {
    /// Gathers an owned [`TaskSnapshot`] (clones the feature vector).
    pub fn to_snapshot(&self) -> TaskSnapshot {
        TaskSnapshot {
            id: self.id,
            feature: self.feature.to_vec(),
            quality: self.quality,
            award: self.award,
            category: self.category,
            domain: self.domain,
            deadline: self.deadline,
            completions: self.completions,
        }
    }
}

impl TaskSnapshot {
    /// Borrowed view of this snapshot.
    pub fn as_ref(&self) -> TaskRef<'_> {
        TaskRef {
            id: self.id,
            feature: &self.feature,
            quality: self.quality,
            award: self.award,
            category: self.category,
            domain: self.domain,
            deadline: self.deadline,
            completions: self.completions,
        }
    }
}

/// Borrowed view over the platform's per-shard committed state: the routed id list plus
/// the shards that own the candidate rows, resolved through the platform's striping rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlatformPool<'a> {
    /// Ids of the available tasks, in pool order (global creation order).
    pub ids: &'a [TaskId],
    /// The shards owning committed task state.
    pub shards: &'a [crate::platform::Shard],
    /// Entity → (shard, local row) mapping.
    pub stripe: crate::platform::Stripe,
    /// Width of one task feature row.
    pub feature_dim: usize,
    /// Static task attributes, indexed by global `TaskId`.
    pub tasks: &'a [Task],
}

impl<'a> PlatformPool<'a> {
    fn task(&self, index: usize) -> TaskRef<'a> {
        let id = self.ids[index];
        let (s, local) = self.stripe.locate(id.index());
        let shard = &self.shards[s];
        let task = &self.tasks[id.index()];
        TaskRef {
            id,
            feature: shard.pooled_task_feature(local, self.feature_dim),
            quality: shard.task_qualities[local],
            award: task.award,
            category: task.category,
            domain: task.domain,
            deadline: task.deadline,
            completions: shard.task_completions[local] as usize,
        }
    }
}

/// How an [`ArrivalView`] resolves task rows: state borrowed from a live platform, or an
/// owned snapshot list (record types, tests, synthetic harnesses).
#[derive(Debug, Clone, Copy)]
enum PoolBacking<'a> {
    Platform(PlatformPool<'a>),
    Snapshots(&'a [TaskSnapshot]),
}

/// Everything a policy sees when a worker arrives — the observable part of the MDP state
/// `s_i = [f_wi, f_Ti, q_wi, q_Ti]` — borrowing from platform storage instead of cloning.
///
/// The view is `Copy`; it stays valid until the environment is advanced (the platform
/// defers state commits until the next [`Env::next_arrival`], so the view a policy decided
/// on is byte-identical when `observe` runs after [`Env::apply`]).
#[derive(Debug, Clone, Copy)]
pub struct ArrivalView<'a> {
    /// Arrival time in minutes since the start of the horizon.
    pub time: u64,
    /// The arriving worker.
    pub worker_id: WorkerId,
    /// The worker's observable feature vector (distribution of recent completions).
    pub worker_feature: &'a [f32],
    /// The worker's known quality `q_wi ∈ [0, 1]`.
    pub worker_quality: f32,
    /// Whether this worker is seen for the first time.
    pub is_new_worker: bool,
    pool: PoolBacking<'a>,
}

impl<'a> ArrivalView<'a> {
    pub(crate) fn from_platform(
        time: u64,
        worker_id: WorkerId,
        worker_feature: &'a [f32],
        worker_quality: f32,
        is_new_worker: bool,
        pool: PlatformPool<'a>,
    ) -> Self {
        ArrivalView {
            time,
            worker_id,
            worker_feature,
            worker_quality,
            is_new_worker,
            pool: PoolBacking::Platform(pool),
        }
    }

    /// Number of available tasks.
    pub fn n_tasks(&self) -> usize {
        match self.pool {
            PoolBacking::Platform(p) => p.ids.len(),
            PoolBacking::Snapshots(s) => s.len(),
        }
    }

    /// True when no task is available.
    pub fn is_empty(&self) -> bool {
        self.n_tasks() == 0
    }

    /// The task at pool position `index`, borrowed.
    pub fn task(&self, index: usize) -> TaskRef<'a> {
        match self.pool {
            PoolBacking::Platform(p) => p.task(index),
            PoolBacking::Snapshots(s) => s[index].as_ref(),
        }
    }

    /// Id of the task at pool position `index`.
    pub fn task_id(&self, index: usize) -> TaskId {
        match self.pool {
            PoolBacking::Platform(p) => p.ids[index],
            PoolBacking::Snapshots(s) => s[index].id,
        }
    }

    /// Iterator over the available tasks, in pool order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskRef<'a>> + '_ {
        let view = *self;
        (0..self.n_tasks()).map(move |i| view.task(i))
    }

    /// Position of a task inside the pool, if present.
    pub fn position_of(&self, task: TaskId) -> Option<usize> {
        match self.pool {
            PoolBacking::Platform(p) => p.ids.iter().position(|&t| t == task),
            PoolBacking::Snapshots(s) => s.iter().position(|t| t.id == task),
        }
    }

    /// Gathers an owned [`ArrivalContext`] (clones every feature vector — warm-start history
    /// and diagnostics only, never the hot loop).
    pub fn to_context(&self) -> ArrivalContext {
        ArrivalContext {
            time: self.time,
            worker_id: self.worker_id,
            worker_feature: self.worker_feature.to_vec(),
            worker_quality: self.worker_quality,
            is_new_worker: self.is_new_worker,
            available: self.tasks().map(|t| t.to_snapshot()).collect(),
        }
    }
}

impl ArrivalContext {
    /// Borrowed view over this owned context, for driving the view-based [`Policy`]
    /// interface from owned records (warm-start replay, tests, synthetic harnesses).
    ///
    /// [`Policy`]: crate::Policy
    pub fn view(&self) -> ArrivalView<'_> {
        ArrivalView {
            time: self.time,
            worker_id: self.worker_id,
            worker_feature: &self.worker_feature,
            worker_quality: self.worker_quality,
            is_new_worker: self.is_new_worker,
            pool: PoolBacking::Snapshots(&self.available),
        }
    }
}

/// Outcome of showing a decision to the arriving worker, borrowed from the environment's
/// per-step scratch state. Valid until the next [`Env::next_arrival`].
#[derive(Debug, Clone, Copy)]
pub struct FeedbackView<'a> {
    /// Arrival time of the decision this feedback refers to.
    pub time: u64,
    /// The worker who made the decision.
    pub worker_id: WorkerId,
    /// The worker's quality.
    pub worker_quality: f32,
    /// Tasks shown, in the order they were shown (unavailable tasks already filtered out).
    pub shown: &'a [TaskId],
    /// Completed task and its 0-based position in `shown`, if any task was completed.
    pub completed: Option<(TaskId, usize)>,
    /// Quality gain `q_new - q_old` of the completed task (0 when nothing was completed).
    pub quality_gain: f32,
    /// Worker feature before the completion was applied.
    pub worker_feature_before: &'a [f32],
    /// Worker feature after the completion (equal to `before` when nothing was completed).
    pub worker_feature_after: &'a [f32],
}

impl FeedbackView<'_> {
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

    /// Gathers an owned [`PolicyFeedback`] record (clones the borrowed slices).
    pub fn to_feedback(&self) -> PolicyFeedback {
        PolicyFeedback {
            time: self.time,
            worker_id: self.worker_id,
            worker_quality: self.worker_quality,
            shown: self.shown.to_vec(),
            completed: self.completed,
            quality_gain: self.quality_gain,
            worker_feature_before: self.worker_feature_before.to_vec(),
            worker_feature_after: self.worker_feature_after.to_vec(),
        }
    }
}

impl PolicyFeedback {
    /// Borrowed view over this owned record.
    pub fn view(&self) -> FeedbackView<'_> {
        FeedbackView {
            time: self.time,
            worker_id: self.worker_id,
            worker_quality: self.worker_quality,
            shown: &self.shown,
            completed: self.completed,
            quality_gain: self.quality_gain,
            worker_feature_before: &self.worker_feature_before,
            worker_feature_after: &self.worker_feature_after,
        }
    }
}

/// A policy's decision for one arrival: an ordered list of task ids written into a
/// reusable buffer. Clearing and refilling the buffer performs no allocation once its
/// capacity has grown to the pool size. The owned [`Action`] record is the deprecated
/// equivalent, kept for history and tests; bridge with [`Decision::set_action`] /
/// [`Decision::to_action`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decision {
    ranking: Vec<TaskId>,
    assignment: bool,
}

impl Decision {
    /// An empty decision buffer.
    pub fn new() -> Self {
        Decision::default()
    }

    /// An empty buffer pre-sized for pools of up to `capacity` tasks.
    pub fn with_capacity(capacity: usize) -> Self {
        Decision {
            ranking: Vec::with_capacity(capacity),
            assignment: false,
        }
    }

    /// Empties the buffer (keeps its capacity).
    pub fn clear(&mut self) {
        self.ranking.clear();
        self.assignment = false;
    }

    /// Records a single-assignment decision (the paper's "recommend one task" setting).
    pub fn assign(&mut self, task: TaskId) {
        self.ranking.clear();
        self.ranking.push(task);
        self.assignment = true;
    }

    /// Appends the next task of a ranked list (best first).
    pub fn push(&mut self, task: TaskId) {
        self.ranking.push(task);
        self.assignment = false;
    }

    /// Appends several ranked tasks at once.
    pub fn extend(&mut self, tasks: impl IntoIterator<Item = TaskId>) {
        self.ranking.extend(tasks);
        self.assignment = false;
    }

    /// The shown tasks in display order (a single assignment is a one-element list).
    pub fn shown(&self) -> &[TaskId] {
        &self.ranking
    }

    /// Number of tasks in the decision.
    pub fn len(&self) -> usize {
        self.ranking.len()
    }

    /// True when nothing is shown.
    pub fn is_empty(&self) -> bool {
        self.ranking.is_empty()
    }

    /// True when the decision was recorded through [`Decision::assign`].
    pub fn is_assignment(&self) -> bool {
        self.assignment
    }

    /// Overwrites the buffer from an owned [`Action`] (compatibility path).
    pub fn set_action(&mut self, action: &Action) {
        self.clear();
        match action {
            Action::Assign(t) => self.assign(*t),
            Action::Rank(list) => self.extend(list.iter().copied()),
        }
    }

    /// Gathers an owned [`Action`] (compatibility path; allocates).
    pub fn to_action(&self) -> Action {
        if self.assignment {
            Action::Assign(self.ranking[0])
        } else {
            Action::Rank(self.ranking.clone())
        }
    }
}

/// A steppable environment: the interface between the replay loop and a simulation.
///
/// The canonical hot loop — no per-arrival clones of task or worker feature vectors:
///
/// ```text
/// let mut decision = Decision::new();
/// while env.next_arrival() {
///     policy.act(&env.arrival(), &mut decision);
///     env.apply(&decision);
///     policy.observe(&env.arrival(), &env.feedback());
/// }
/// ```
///
/// State mutations from [`Env::apply`] are deferred until the next
/// [`Env::next_arrival`], so the views handed to `observe` are identical to the ones the
/// policy decided on.
pub trait Env {
    /// Advances to the next worker arrival (committing any staged feedback effects).
    /// Returns `false` when the event stream is exhausted.
    fn next_arrival(&mut self) -> bool;

    /// Borrowed view of the current arrival. Panics when no arrival is pending.
    fn arrival(&self) -> ArrivalView<'_>;

    /// Simulates the worker's response to `decision` and stages the resulting state
    /// updates (committed on the next [`Env::next_arrival`]).
    fn apply(&mut self, decision: &Decision);

    /// Borrowed feedback of the last [`Env::apply`]. Panics before the first apply of the
    /// current arrival.
    fn feedback(&self) -> FeedbackView<'_>;

    /// Commits any staged feedback effects without advancing the event stream, and
    /// invalidates the current feedback view. [`Env::next_arrival`] does this implicitly;
    /// call `flush` when reading aggregate state after the *last* apply of a run.
    fn flush(&mut self);

    /// True when the whole event stream has been consumed.
    fn finished(&self) -> bool;

    /// Current simulation time (minutes since horizon start).
    fn current_time(&self) -> u64;

    /// Sum of all task qualities so far (the requester-side objective).
    fn total_task_quality(&self) -> f32;

    /// Total number of committed completions so far.
    fn total_completions(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(id: u32, quality: f32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![id as f32, 1.0],
            quality,
            award: 5.0,
            category: 1,
            domain: 2,
            deadline: 77,
            completions: 3,
        }
    }

    fn context(n: u32) -> ArrivalContext {
        ArrivalContext {
            time: 9,
            worker_id: WorkerId(4),
            worker_feature: vec![0.25, 0.75],
            worker_quality: 0.6,
            is_new_worker: true,
            available: (0..n).map(|i| snapshot(i, 0.1 * i as f32)).collect(),
        }
    }

    #[test]
    fn view_roundtrips_through_owned_context() {
        let ctx = context(3);
        let view = ctx.view();
        assert_eq!(view.n_tasks(), 3);
        assert_eq!(view.worker_feature, &[0.25, 0.75]);
        assert_eq!(view.task(1).id, TaskId(1));
        assert_eq!(view.task(1).feature, &[1.0, 1.0]);
        assert_eq!(view.position_of(TaskId(2)), Some(2));
        assert_eq!(view.position_of(TaskId(9)), None);
        let back = view.to_context();
        assert_eq!(back, ctx);
    }

    #[test]
    fn task_refs_convert_to_snapshots() {
        let ctx = context(1);
        let task = ctx.view().task(0);
        assert_eq!(task.to_snapshot(), ctx.available[0]);
        assert_eq!(ctx.available[0].as_ref(), task);
    }

    #[test]
    fn tasks_iterator_matches_indexing() {
        let ctx = context(4);
        let view = ctx.view();
        let ids: Vec<TaskId> = view.tasks().map(|t| t.id).collect();
        assert_eq!(ids, vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)]);
        assert_eq!(view.tasks().len(), 4);
    }

    #[test]
    fn decision_buffer_reuses_capacity() {
        let mut d = Decision::with_capacity(8);
        d.push(TaskId(1));
        d.push(TaskId(2));
        assert_eq!(d.shown(), &[TaskId(1), TaskId(2)]);
        assert!(!d.is_assignment());
        let cap = d.ranking.capacity();
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.ranking.capacity(), cap);
        d.assign(TaskId(7));
        assert!(d.is_assignment());
        assert_eq!(d.shown(), &[TaskId(7)]);
    }

    #[test]
    fn decision_action_roundtrip() {
        let mut d = Decision::new();
        d.set_action(&Action::Assign(TaskId(3)));
        assert_eq!(d.to_action(), Action::Assign(TaskId(3)));
        d.set_action(&Action::Rank(vec![TaskId(1), TaskId(2)]));
        assert_eq!(d.to_action(), Action::Rank(vec![TaskId(1), TaskId(2)]));
        assert_eq!(d.shown(), &[TaskId(1), TaskId(2)]);
    }

    #[test]
    fn feedback_view_roundtrip_and_rewards() {
        let fb = PolicyFeedback {
            time: 1,
            worker_id: WorkerId(0),
            worker_quality: 0.7,
            shown: vec![TaskId(1), TaskId(2)],
            completed: Some((TaskId(2), 1)),
            quality_gain: 0.4,
            worker_feature_before: vec![0.0],
            worker_feature_after: vec![1.0],
        };
        let view = fb.view();
        assert_eq!(view.completion_reward(), 1.0);
        assert_eq!(view.quality_reward(), 0.4);
        assert_eq!(view.shown, &[TaskId(1), TaskId(2)]);
        assert_eq!(view.to_feedback(), fb);
    }
}
