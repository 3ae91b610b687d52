//! Future-state predictors (paper Sec. IV-D2 and V-D2).
//!
//! After a feedback is received for `(s_i, a_i)`, the framework does not wait to observe the
//! realised `s_{i+1}` (which for MDP(w) may be days away, and for MDP(r) would make
//! transitions extremely sparse). Instead it predicts the distribution of the future state
//! explicitly from the arrival statistics:
//!
//! * the next timestamp follows the φ(g) (same worker, MDP(w)) or ϕ(g) (any worker, MDP(r))
//!   gap histogram;
//! * the pool `T_{i+1}` differs from `T_i` only through the tasks that expire before the
//!   next timestamp, so breakpoints are placed at the deadlines of the currently available
//!   tasks;
//! * the worker feature is the worker's updated feature (MDP(w)) or the expectation of the
//!   next worker's feature under the arrival mixture (MDP(r), the paper's speed-up);
//! * the completed task's quality is bumped by the observed quality gain (MDP(r)).
//!
//! So every branch is a row suffix of one deadline-sorted pool ([`FuturePool`], sorted
//! once per feedback and borrowed from the view). Each network's predictor builds the
//! rows some branch covers once, as one future tensor, and returns the branches as
//! windows into it.

use crate::arrival_stats::ArrivalStats;
use crate::memory::FutureBranch;
use crate::state::{StateTensor, StateTransformer};
use crowd_sim::{ArrivalView, FeedbackView, TaskRef};

/// The future pool implied by a feedback, in deadline order: identical to the current
/// pool, except that the completed task's quality reflects the quality gain and its
/// completion count grows by one. Built once per feedback and shared by both networks'
/// predictors; it borrows the view's tasks and owns only the sorted index order.
#[derive(Debug, Clone)]
pub struct FuturePool<'a> {
    view: ArrivalView<'a>,
    /// View positions in stable deadline order, so "the first k tasks expired" is a
    /// prefix.
    order: Vec<usize>,
    /// The tasks' deadlines, in that order.
    deadlines: Vec<u64>,
    /// Position (in the view) of the completed task, with its quality gain.
    completed: Option<(usize, f32)>,
}

impl<'a> FuturePool<'a> {
    /// The future pool of `view` after `feedback`.
    pub fn new(view: &ArrivalView<'a>, feedback: &FeedbackView<'_>) -> Self {
        let mut order: Vec<usize> = (0..view.n_tasks()).collect();
        order.sort_by_key(|&i| view.task(i).deadline);
        let deadlines = order.iter().map(|&i| view.task(i).deadline).collect();
        let completed = feedback
            .completed
            .and_then(|(task, _)| view.position_of(task))
            .map(|position| (position, feedback.quality_gain));
        FuturePool {
            view: *view,
            order,
            deadlines,
            completed,
        }
    }

    /// Number of tasks in the pool.
    fn len(&self) -> usize {
        self.order.len()
    }

    /// The `k`-th task in deadline order, as it will be in the future pool.
    fn task(&self, k: usize) -> TaskRef<'a> {
        let position = self.order[k];
        let mut task = self.view.task(position);
        if let Some((completed, gain)) = self.completed {
            if completed == position {
                task.quality += gain;
                task.completions += 1;
            }
        }
        task
    }
}

/// One expiry interval: gaps in `[start, end)` minutes leave `survivors` tasks available.
#[derive(Debug, Clone, PartialEq)]
struct ExpiryInterval {
    start: u64,
    end: u64,
    /// Number of leading (earliest-deadline) tasks that have expired in this interval.
    expired_prefix: usize,
    mass: f64,
}

/// Computes the expiry intervals of a pool over `[1, horizon)` minutes from `now`, with the
/// probability mass of each interval taken from `mass_fn`.
fn expiry_intervals(
    deadlines_sorted: &[u64],
    now: u64,
    horizon: u64,
    mass_fn: impl Fn(u64, u64) -> f64,
) -> Vec<ExpiryInterval> {
    // Breakpoints are the task deadlines that fall inside the horizon window.
    let mut breakpoints: Vec<u64> = deadlines_sorted
        .iter()
        .map(|&d| d.saturating_sub(now))
        .filter(|&gap| gap > 0 && gap < horizon)
        .collect();
    breakpoints.dedup();
    let mut intervals = Vec::with_capacity(breakpoints.len() + 1);
    let mut start = 0u64;
    for &bp in &breakpoints {
        intervals.push(ExpiryInterval {
            start,
            end: bp,
            expired_prefix: deadlines_sorted
                .iter()
                .take_while(|&&d| d.saturating_sub(now) <= start)
                .count(),
            mass: mass_fn(start, bp),
        });
        start = bp;
    }
    intervals.push(ExpiryInterval {
        start,
        end: horizon,
        expired_prefix: deadlines_sorted
            .iter()
            .take_while(|&&d| d.saturating_sub(now) <= start)
            .count(),
        mass: mass_fn(start, horizon),
    });
    intervals.retain(|i| i.mass > 1e-9 || i.start == 0);
    intervals
}

/// Greedily merges the lowest-mass interval into its higher-mass neighbour until at most
/// `max_branches` remain. The merged interval keeps the survivor count of whichever side had
/// more mass, so the expectation is distorted as little as possible.
fn merge_intervals(mut intervals: Vec<ExpiryInterval>, max_branches: usize) -> Vec<ExpiryInterval> {
    while intervals.len() > max_branches.max(1) {
        let (idx, _) = intervals
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.mass
                    .partial_cmp(&b.1.mass)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty intervals");
        let neighbour = if idx == 0 {
            1
        } else if idx == intervals.len() - 1 || intervals[idx - 1].mass >= intervals[idx + 1].mass {
            idx - 1
        } else {
            idx + 1
        };
        let (keep, remove) = if intervals[neighbour].mass >= intervals[idx].mass {
            (neighbour, idx)
        } else {
            (idx, neighbour)
        };
        let removed_mass = intervals[remove].mass;
        let removed_start = intervals[remove].start;
        let removed_end = intervals[remove].end;
        let kept = &mut intervals[keep];
        kept.mass += removed_mass;
        kept.start = kept.start.min(removed_start);
        kept.end = kept.end.max(removed_end);
        intervals.remove(remove);
    }
    intervals
}

/// A feedback's predicted future: the rows of the deadline-sorted future pool that any
/// branch covers, and the branches as windows into those rows (see
/// [`crate::Experience`]).
pub type PredictedFuture = (StateTensor, Vec<FutureBranch>);

/// Builds the MDP(w) future-state branches: the same worker returns with gap ~ φ(g), tasks
/// whose deadlines pass in the meantime disappear, and the worker's feature is the
/// post-completion feature.
pub fn worker_future_branches(
    transformer: &StateTransformer,
    stats: &ArrivalStats,
    pool: &FuturePool<'_>,
    feedback: &FeedbackView<'_>,
    horizon: u64,
    max_branches: usize,
) -> PredictedFuture {
    build_branches(
        transformer,
        pool,
        feedback.worker_feature_after,
        pool.view.worker_quality,
        horizon,
        max_branches,
        |from, to| stats.same_worker_mass_between(from, to),
    )
}

/// Builds the MDP(r) future-state branches: the *next* worker arrives with gap ~ ϕ(g); the
/// expected next-worker feature and quality stand in for the unknown arrival (the paper's
/// expectation speed-up).
pub fn requester_future_branches(
    transformer: &StateTransformer,
    stats: &ArrivalStats,
    pool: &FuturePool<'_>,
    expected_next_worker_quality: f32,
    horizon: u64,
    max_branches: usize,
) -> PredictedFuture {
    let next_time = pool.view.time + stats.mean_consecutive_gap().round().max(1.0) as u64;
    let expected_feature = stats.expected_next_worker_feature(next_time);
    build_branches(
        transformer,
        pool,
        &expected_feature,
        expected_next_worker_quality,
        horizon,
        max_branches,
        |from, to| stats.consecutive_mass_between(from, to),
    )
}

fn build_branches(
    transformer: &StateTransformer,
    pool: &FuturePool<'_>,
    future_worker_feature: &[f32],
    future_worker_quality: f32,
    horizon: u64,
    max_branches: usize,
    mass_fn: impl Fn(u64, u64) -> f64,
) -> PredictedFuture {
    let intervals = merge_intervals(
        expiry_intervals(&pool.deadlines, pool.view.time, horizon, mass_fn),
        max_branches,
    );
    let expiries: Vec<(f32, usize)> = intervals
        .into_iter()
        .filter(|interval| interval.mass > 0.0)
        .map(|interval| (interval.mass as f32, interval.expired_prefix))
        .collect();
    windows(
        transformer,
        pool,
        future_worker_feature,
        future_worker_quality,
        &expiries,
    )
}

/// The future tensor and branch windows for branches given as `(probability, k)`: the
/// state of branch `(p, k)` is what [`StateTransformer::build`] makes of the pool
/// without its first `k` tasks, i.e. its next `min(maxT, len - k)` rows. The future
/// tensor holds each row some window covers, once, in pool order.
fn windows(
    transformer: &StateTransformer,
    pool: &FuturePool<'_>,
    worker_feature: &[f32],
    worker_quality: f32,
    expiries: &[(f32, usize)],
) -> PredictedFuture {
    let n = pool.len();
    let spans: Vec<(usize, usize)> = expiries
        .iter()
        .map(|&(_, k)| {
            let first = k.min(n);
            (first, first + transformer.max_tasks().min(n - first))
        })
        .collect();
    let mut covered = vec![false; n];
    for &(start, end) in &spans {
        covered[start..end].fill(true);
    }
    // The pool rows the future tensor holds; pool row `k` is future row `future_rows`'
    // count of rows before `k`.
    let future_rows: Vec<usize> = (0..n).filter(|&k| covered[k]).collect();
    let future = transformer.rows_of(
        future_rows.iter().map(|&k| pool.task(k)),
        worker_feature,
        worker_quality,
    );
    let branches = expiries
        .iter()
        .zip(&spans)
        .map(|(&(probability, _), &(start, end))| FutureBranch {
            probability,
            first_row: future_rows.partition_point(|&k| k < start),
            rows: end - start,
        })
        .collect();
    (future, branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateKind;
    use crowd_sim::{ArrivalContext, PolicyFeedback, TaskId, TaskSnapshot, WorkerId};

    fn snapshot(id: u32, deadline: u64) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![1.0, 0.0, 0.0],
            quality: 0.2,
            award: 10.0,
            category: 0,
            domain: 0,
            deadline,
            completions: 1,
        }
    }

    fn context(deadlines: &[u64]) -> ArrivalContext {
        ArrivalContext {
            time: 1000,
            worker_id: WorkerId(0),
            worker_feature: vec![0.5, 0.5, 0.0],
            worker_quality: 0.7,
            is_new_worker: false,
            available: deadlines
                .iter()
                .enumerate()
                .map(|(i, &d)| snapshot(i as u32, d))
                .collect(),
        }
    }

    fn feedback(ctx: &ArrivalContext, completed: Option<u32>) -> PolicyFeedback {
        PolicyFeedback {
            time: ctx.time,
            worker_id: ctx.worker_id,
            worker_quality: ctx.worker_quality,
            shown: ctx.available.iter().map(|s| s.id).collect(),
            completed: completed.map(|id| (TaskId(id), 0)),
            quality_gain: if completed.is_some() { 0.3 } else { 0.0 },
            worker_feature_before: ctx.worker_feature.clone(),
            worker_feature_after: vec![0.9, 0.1, 0.0],
        }
    }

    fn stats() -> ArrivalStats {
        let mut s = ArrivalStats::new(3, 10_080, 60);
        // Revisit gaps spread over the support: ~100 min, ~600 min and ~5000 min, each with
        // roughly a third of the mass, so expiry intervals receive non-trivial probability.
        for i in 0..50u64 {
            let base = i * 40_000;
            s.record_arrival(WorkerId(1), base, &[0.1, 0.2, 0.3]);
            s.record_arrival(WorkerId(1), base + 100, &[0.1, 0.2, 0.3]);
            s.record_arrival(WorkerId(1), base + 100 + 600, &[0.1, 0.2, 0.3]);
            s.record_arrival(WorkerId(1), base + 100 + 600 + 5000, &[0.1, 0.2, 0.3]);
        }
        s
    }

    /// The MDP(w) prediction for `ctx` after `fb`.
    fn worker_future(
        tf: &StateTransformer,
        ctx: &ArrivalContext,
        fb: &PolicyFeedback,
        max_branches: usize,
    ) -> PredictedFuture {
        let pool = FuturePool::new(&ctx.view(), &fb.view());
        worker_future_branches(tf, &stats(), &pool, &fb.view(), 10_080, max_branches)
    }

    /// The owned future pool the predictors described before they borrowed the view:
    /// every task cloned, the completed one bumped, stably sorted by deadline.
    fn owned_sorted_pool(ctx: &ArrivalContext, fb: &PolicyFeedback) -> Vec<TaskSnapshot> {
        let mut pool = ctx.available.clone();
        if let Some((task, _)) = fb.completed {
            if let Some(snap) = pool.iter_mut().find(|s| s.id == task) {
                snap.quality += fb.quality_gain;
                snap.completions += 1;
            }
        }
        pool.sort_by_key(|s| s.deadline);
        pool
    }

    #[test]
    fn branch_probabilities_are_a_subdistribution() {
        let tf = StateTransformer::new(StateKind::Worker, 8, 3, 3);
        let ctx = context(&[1000 + 300, 1000 + 2000, 1000 + 50_000]);
        let fb = feedback(&ctx, Some(0));
        let (_, branches) = worker_future(&tf, &ctx, &fb, 8);
        assert!(!branches.is_empty());
        let mass: f32 = branches.iter().map(|b| b.probability).sum();
        assert!(mass > 0.0 && mass <= 1.0 + 1e-5, "mass {mass}");
    }

    #[test]
    fn later_branches_have_fewer_surviving_tasks() {
        let tf = StateTransformer::new(StateKind::Worker, 8, 3, 3);
        // Two tasks expire within the horizon, one far beyond it.
        let ctx = context(&[1000 + 200, 1000 + 3000, 1_000_000]);
        let fb = feedback(&ctx, None);
        let (future, branches) = worker_future(&tf, &ctx, &fb, 8);
        let survivor_counts: Vec<usize> = branches.iter().map(|b| b.rows).collect();
        assert!(
            survivor_counts.windows(2).all(|w| w[0] >= w[1]),
            "{survivor_counts:?}"
        );
        assert_eq!(*survivor_counts.first().unwrap(), 3);
        assert!(
            *survivor_counts.last().unwrap() <= 1 + 1,
            "{survivor_counts:?}"
        );
        // Every branch is a suffix of the first, which holds the whole future tensor.
        assert_eq!(future.real_tasks(), 3);
        for b in &branches {
            assert_eq!(b.first_row + b.rows, 3, "{b:?}");
        }
    }

    #[test]
    fn future_worker_feature_is_the_updated_one() {
        let tf = StateTransformer::new(StateKind::Worker, 4, 3, 3);
        let ctx = context(&[50_000]);
        let fb = feedback(&ctx, Some(0));
        let (future, branches) = worker_future(&tf, &ctx, &fb, 4);
        // Worker part of each row is the post-completion feature [0.9, 0.1, 0.0].
        let b = branches[0];
        let row = &future.window(b.first_row, b.rows).features()[..tf.row_dim()];
        assert!((row[3] - 0.9).abs() < 1e-6 && (row[4] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn merging_respects_max_branches() {
        let tf = StateTransformer::new(StateKind::Worker, 16, 3, 3);
        let deadlines: Vec<u64> = (1..12).map(|i| 1000 + i * 500).collect();
        let ctx = context(&deadlines);
        let fb = feedback(&ctx, None);
        let (_, branches) = worker_future(&tf, &ctx, &fb, 3);
        assert!(branches.len() <= 3);
        let mass: f32 = branches.iter().map(|b| b.probability).sum();
        assert!(mass > 0.5, "merging lost probability mass: {mass}");
    }

    #[test]
    fn requester_branches_update_completed_task_quality() {
        let tf = StateTransformer::new(StateKind::Requester, 4, 3, 3);
        let ctx = context(&[1_000_000, 2_000_000]);
        let fb = feedback(&ctx, Some(0));
        let mut s = stats();
        // Give the consecutive histogram some short gaps.
        s.record_arrival(WorkerId(2), 1, &[0.0, 0.0, 0.0]);
        s.record_arrival(WorkerId(3), 6, &[0.0, 0.0, 0.0]);
        let pool = FuturePool::new(&ctx.view(), &fb.view());
        let (future, branches) = requester_future_branches(&tf, &s, &pool, 0.6, 60, 4);
        assert!(!branches.is_empty());
        // Find task 0's row (deadline-sorted keeps it first) and check quality = 0.2 + 0.3.
        let b = branches[0];
        let row = &future.window(b.first_row, b.rows).features()[..tf.row_dim()];
        let task_quality = row[3 + 3 + 1];
        assert!((task_quality - 0.5).abs() < 1e-5, "quality {task_quality}");
        // Requester-side future worker quality uses the supplied expectation.
        assert!((row[3 + 3] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn no_available_tasks_yields_padded_empty_branches() {
        let tf = StateTransformer::new(StateKind::Worker, 4, 3, 3);
        let ctx = context(&[]);
        let fb = feedback(&ctx, None);
        let (future, branches) = worker_future(&tf, &ctx, &fb, 4);
        assert!(!branches.is_empty());
        assert_eq!(branches[0].rows, 0);
        assert_eq!(future.real_tasks(), 0);
    }

    #[test]
    fn every_window_equals_the_state_built_from_the_sorted_pool_suffix() {
        // Unsorted deadlines with a tie (tasks 1 and 4), task 3 completed so its quality
        // is bumped; pools at, below and above maxT = 4.
        let deadlines = [1900, 1500, 1100, 1700, 1500, 1300, 2100];
        for kind in [StateKind::Worker, StateKind::Requester] {
            for n in [3, 4, 7] {
                let tf = StateTransformer::new(kind, 4, 3, 3);
                let ctx = context(&deadlines[..n]);
                let fb = feedback(&ctx, Some(n as u32 - 1));
                let pool = FuturePool::new(&ctx.view(), &fb.view());
                let sorted = owned_sorted_pool(&ctx, &fb);
                assert_eq!(pool.len(), n);
                // Every prefix length, each alone; all of them together (overlapping
                // windows); and two far apart (a gap between windows above maxT).
                let mut cases: Vec<Vec<usize>> = (0..=n + 1).map(|k| vec![k]).collect();
                cases.push((0..=n).collect());
                cases.push(vec![0, n - 1]);
                for ks in cases {
                    let expiries: Vec<(f32, usize)> = ks.iter().map(|&k| (0.25, k)).collect();
                    let (future, branches) = windows(&tf, &pool, &[0.9, 0.1, 0.0], 0.6, &expiries);
                    let mut covered = vec![false; future.real_tasks()];
                    for (b, &k) in branches.iter().zip(&ks) {
                        let expected = tf.build(&sorted[k.min(n)..], &[0.9, 0.1, 0.0], 0.6);
                        let window = future.window(b.first_row, b.rows);
                        assert_eq!(
                            window.task_ids(),
                            expected.task_ids(),
                            "{kind:?} n={n} k={k}"
                        );
                        assert_eq!(
                            window.features(),
                            expected.features().as_slice(),
                            "{kind:?} n={n} k={k}"
                        );
                        covered[b.first_row..b.first_row + b.rows].fill(true);
                    }
                    assert!(
                        covered.iter().all(|&c| c),
                        "{kind:?} n={n} {ks:?}: rows no window covers"
                    );
                }
            }
        }
    }
}
