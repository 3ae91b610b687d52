//! Shared plumbing for the baseline policies: objective selection, decision construction
//! from per-task scores, feature assembly and expected quality gain — all over the borrowed
//! view interface.

use crowd_sim::{ArrivalView, Decision, TaskRef};
use crowd_tensor::ops::best_first;

/// Which benefit a baseline optimises (the paper evaluates each baseline once per benefit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Benefit {
    /// Maximise the worker completion rate (Fig. 7).
    Worker,
    /// Maximise the requesters' task quality gain (Fig. 8).
    Requester,
}

/// Whether the policy assigns one task or shows the full ranked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListMode {
    /// Assign exactly one task per arrival.
    AssignOne,
    /// Rank every available task.
    RankAll,
}

/// Reusable index scratch for score-based ranking: sorting indices by score needs a
/// working buffer, and keeping it in the policy makes the per-arrival decision path
/// allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct ScoreRanker {
    order: Vec<usize>,
}

impl ScoreRanker {
    /// A ranker with an empty scratch buffer.
    pub fn new() -> Self {
        ScoreRanker::default()
    }

    /// Writes a decision from per-task scores (higher = better, aligned with pool order)
    /// into the reusable buffer, respecting the list mode. Ties are broken by the original
    /// pool order, which keeps results deterministic; NaN scores rank last.
    pub fn decide(
        &mut self,
        view: &ArrivalView<'_>,
        scores: &[f32],
        mode: ListMode,
        decision: &mut Decision,
    ) {
        debug_assert_eq!(scores.len(), view.n_tasks());
        decision.clear();
        self.order.clear();
        self.order.extend(0..scores.len());
        self.order
            .sort_by(|&a, &b| best_first(scores[a], scores[b]).then(a.cmp(&b)));
        match mode {
            ListMode::AssignOne => {
                if let Some(&best) = self.order.first() {
                    decision.assign(view.task_id(best));
                }
            }
            ListMode::RankAll => decision.extend(self.order.iter().map(|&i| view.task_id(i))),
        }
    }
}

/// One-shot convenience wrapper over [`ScoreRanker::decide`] (allocates a scratch; prefer
/// a policy-owned [`ScoreRanker`] in decision loops).
pub fn decide_from_scores(
    view: &ArrivalView<'_>,
    scores: &[f32],
    mode: ListMode,
    decision: &mut Decision,
) {
    ScoreRanker::new().decide(view, scores, mode, decision);
}

/// Concatenates the worker feature with a task feature (and, for the requester benefit, the
/// worker quality and current task quality) — the same observable information the DQN state
/// rows carry.
pub fn pair_feature(view: &ArrivalView<'_>, task: &TaskRef<'_>, benefit: Benefit) -> Vec<f32> {
    let mut f = Vec::with_capacity(view.worker_feature.len() + task.feature.len() + 2);
    f.extend_from_slice(view.worker_feature);
    f.extend_from_slice(task.feature);
    if benefit == Benefit::Requester {
        f.push(view.worker_quality);
        f.push(task.quality);
    }
    f
}

/// Expected Dixit–Stiglitz quality gain (p = 2) if this worker completed this task now:
/// `sqrt(q_t² + q_w²) − q_t`. Used by the greedy baselines to convert a completion score
/// into an expected requester benefit.
pub fn expected_quality_gain(view: &ArrivalView<'_>, task: &TaskRef<'_>) -> f32 {
    let q_t = task.quality.max(0.0);
    let q_w = view.worker_quality.max(0.0);
    (q_t * q_t + q_w * q_w).sqrt() - q_t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::{ArrivalContext, TaskId, TaskSnapshot, WorkerId};

    pub(crate) fn snapshot(id: u32, quality: f32) -> TaskSnapshot {
        TaskSnapshot {
            id: TaskId(id),
            feature: vec![id as f32, 1.0],
            quality,
            award: 5.0,
            category: 0,
            domain: 0,
            deadline: 100,
            completions: 0,
        }
    }

    pub(crate) fn context(n: u32) -> ArrivalContext {
        ArrivalContext {
            time: 10,
            worker_id: WorkerId(3),
            worker_feature: vec![0.2, 0.8],
            worker_quality: 0.6,
            is_new_worker: false,
            available: (0..n).map(|i| snapshot(i, 0.1 * i as f32)).collect(),
        }
    }

    #[test]
    fn decide_from_scores_orders_descending() {
        let ctx = context(3);
        let mut decision = Decision::new();
        decide_from_scores(
            &ctx.view(),
            &[0.1, 0.9, 0.5],
            ListMode::RankAll,
            &mut decision,
        );
        assert_eq!(decision.shown(), &[TaskId(1), TaskId(2), TaskId(0)]);
        assert!(!decision.is_assignment());
        decide_from_scores(
            &ctx.view(),
            &[0.1, 0.9, 0.5],
            ListMode::AssignOne,
            &mut decision,
        );
        assert_eq!(decision.shown(), &[TaskId(1)]);
        assert!(decision.is_assignment());
    }

    #[test]
    fn ties_break_by_pool_order() {
        let ctx = context(3);
        let mut decision = Decision::new();
        decide_from_scores(
            &ctx.view(),
            &[0.5, 0.5, 0.5],
            ListMode::RankAll,
            &mut decision,
        );
        assert_eq!(decision.shown(), &[TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn nan_scores_rank_last_without_panicking() {
        let mut rng = crowd_tensor::Rng::seed_from(72);
        let ctx = context(24);
        let mut ranker = ScoreRanker::new();
        let mut decision = Decision::new();
        for case in 0..500 {
            let scores: Vec<f32> = (0..24)
                .map(|_| match rng.below(4) {
                    0 => f32::NAN,
                    1 => -0.0,
                    _ => rng.below(5) as f32,
                })
                .collect();
            ranker.decide(&ctx.view(), &scores, ListMode::RankAll, &mut decision);
            let order: Vec<usize> = decision.shown().iter().map(|t| t.0 as usize).collect();
            let split = order
                .iter()
                .position(|&i| scores[i].is_nan())
                .unwrap_or(order.len());
            assert!(
                order[split..].iter().all(|&i| scores[i].is_nan()),
                "case {case}"
            );
            assert!(
                order[split..].windows(2).all(|w| w[0] < w[1]),
                "case {case}"
            );
            assert!(
                order[..split]
                    .windows(2)
                    .all(|w| scores[w[0]] > scores[w[1]]
                        || (scores[w[0]] == scores[w[1]] && w[0] < w[1])),
                "case {case}: {scores:?} ranked {order:?}"
            );
            assert_eq!(order.len(), 24, "case {case}");
        }
    }

    #[test]
    fn empty_pool_gives_empty_decision() {
        let ctx = context(0);
        let mut decision = Decision::new();
        decision.push(TaskId(9)); // stale content must be cleared
        decide_from_scores(&ctx.view(), &[], ListMode::AssignOne, &mut decision);
        assert!(decision.is_empty());
    }

    #[test]
    fn pair_feature_layout() {
        let ctx = context(1);
        let view = ctx.view();
        let worker_only = pair_feature(&view, &view.task(0), Benefit::Worker);
        assert_eq!(worker_only, vec![0.2, 0.8, 0.0, 1.0]);
        let requester = pair_feature(&view, &view.task(0), Benefit::Requester);
        assert_eq!(requester, vec![0.2, 0.8, 0.0, 1.0, 0.6, 0.0]);
    }

    #[test]
    fn expected_gain_diminishes_with_task_quality() {
        let ctx = context(2);
        let view = ctx.view();
        let fresh_snap = snapshot(0, 0.0);
        let mature_snap = snapshot(1, 2.0);
        let fresh = expected_quality_gain(&view, &fresh_snap.as_ref());
        let mature = expected_quality_gain(&view, &mature_snap.as_ref());
        assert!((fresh - 0.6).abs() < 1e-6);
        assert!(mature < fresh);
        assert!(mature > 0.0);
    }
}
