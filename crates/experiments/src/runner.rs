//! Runner configuration, per-run outcome, and the one-shot [`run_policy`] entry point.
//!
//! The replay loop itself lives in [`crate::session`]: `run_policy` builds a [`Session`]
//! over a platform replay of the dataset, drives it to completion and returns the outcome.
//! Use [`Session`] directly to step arrival-by-arrival, or
//! [`SessionBatch`](crate::SessionBatch) to advance several simulations in lock-step —
//! per-session policies via `step_all`, or one shared `BatchedPolicy` with a single
//! batched act per round via `step_batched`.

use crate::session::Session;
use crowd_metrics::{MetricsAccumulator, MetricsSummary, UpdateTimer};
use crowd_sim::{Dataset, Policy};

/// Runner parameters.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// List length for the kCR / kQG measures (the paper uses a "top-k" list).
    pub top_k: usize,
    /// Number of initialisation months excluded from the metrics (paper: the first month).
    pub warmup_months: usize,
    /// Behaviour-model seed for the platform (fixed across policies so every method faces the
    /// same workers making the same noisy choices).
    pub platform_seed: u64,
    /// Seed of the random warmup ranking.
    pub warmup_seed: u64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            top_k: 5,
            warmup_months: 1,
            platform_seed: 424_242,
            warmup_seed: 99,
        }
    }
}

/// Everything measured during one policy run.
///
/// The two timers are measurements and are not checkpointed: the outcome of a resumed
/// session times only the arrivals the resumed process stepped.
#[derive(Debug)]
pub struct RunOutcome {
    /// Policy name as reported by [`Policy::name`].
    pub policy: String,
    /// The metric accumulator with per-month breakdowns.
    pub metrics: MetricsAccumulator,
    /// Time spent in `observe` / `end_of_day` (model updates, Table I).
    pub update_timer: UpdateTimer,
    /// Time spent in `act` (decision latency).
    pub act_timer: UpdateTimer,
    /// Sum of all task qualities at the end of the run (requesters' global objective).
    pub final_total_quality: f32,
    /// Total completions over the whole run (including warmup).
    pub total_completions: usize,
    /// Number of evaluated (post-warmup) arrivals.
    pub evaluated_arrivals: usize,
}

impl RunOutcome {
    /// Convenience: the final summary of all six measures.
    pub fn summary(&self) -> MetricsSummary {
        self.metrics.summary()
    }
}

/// Replays `dataset` against `policy` with the protocol described in the crate docs.
pub fn run_policy(dataset: &Dataset, policy: &mut dyn Policy, config: &RunnerConfig) -> RunOutcome {
    let mut session = Session::for_dataset(dataset, config);
    session.run(policy);
    session.finish(policy.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_policies_lockstep, Session, SessionBatch};
    use crowd_baselines::{Benefit, GreedyCosine, ListMode, RandomPolicy};
    use crowd_sim::SimConfig;

    #[test]
    fn runner_evaluates_only_post_warmup_months() {
        let dataset = SimConfig::tiny().generate();
        let mut policy = RandomPolicy::new(ListMode::RankAll, 5);
        let outcome = run_policy(&dataset, &mut policy, &RunnerConfig::default());
        assert!(outcome.evaluated_arrivals > 0);
        assert!(outcome.evaluated_arrivals < dataset.n_arrivals());
        assert_eq!(outcome.metrics.timestamps(), outcome.evaluated_arrivals);
        assert_eq!(outcome.policy, "Random");
        assert!(outcome.final_total_quality > 0.0);
        assert!(outcome.total_completions > 0);
        // Update timer recorded one entry per evaluated arrival plus daily retraining hooks.
        assert!(outcome.update_timer.count() as usize >= outcome.evaluated_arrivals);
        assert_eq!(
            outcome.act_timer.count() as usize,
            outcome.evaluated_arrivals
        );
    }

    #[test]
    fn identical_seeds_give_identical_outcomes() {
        let dataset = SimConfig::tiny().generate();
        let cfg = RunnerConfig::default();
        let mut a = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let mut b = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let out_a = run_policy(&dataset, &mut a, &cfg);
        let out_b = run_policy(&dataset, &mut b, &cfg);
        assert_eq!(out_a.summary(), out_b.summary());
        assert_eq!(out_a.total_completions, out_b.total_completions);
    }

    #[test]
    fn informed_policy_beats_random_on_ndcg() {
        // Cosine similarity exploits the worker's completion history, so it should place the
        // tasks a worker likes earlier than a random ranking does.
        let dataset = SimConfig::small().generate();
        let cfg = RunnerConfig::default();
        let mut random = RandomPolicy::new(ListMode::RankAll, 1);
        let mut cosine = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let random_out = run_policy(&dataset, &mut random, &cfg);
        let cosine_out = run_policy(&dataset, &mut cosine, &cfg);
        assert!(
            cosine_out.summary().ndcg_cr > random_out.summary().ndcg_cr,
            "cosine {:?} vs random {:?}",
            cosine_out.summary().ndcg_cr,
            random_out.summary().ndcg_cr
        );
    }

    #[test]
    fn stepped_session_matches_one_shot_run() {
        let dataset = SimConfig::tiny().generate();
        let cfg = RunnerConfig::default();
        let mut one_shot = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let expected = run_policy(&dataset, &mut one_shot, &cfg);

        let mut stepped_policy = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let mut session = Session::for_dataset(&dataset, &cfg);
        let mut steps = 0;
        while session.step(&mut stepped_policy) {
            steps += 1;
        }
        assert!(session.is_done());
        let outcome = session.finish(stepped_policy.name());
        assert_eq!(steps, expected.evaluated_arrivals);
        assert_eq!(outcome.summary(), expected.summary());
        assert_eq!(outcome.total_completions, expected.total_completions);
    }

    #[test]
    fn partially_stepped_session_finish_commits_staged_effects() {
        let dataset = SimConfig::tiny().generate();
        let cfg = RunnerConfig::default();
        let mut policy = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let mut session = Session::for_dataset(&dataset, &cfg);
        // Step until an evaluated arrival completes a task; that completion is still staged
        // (it commits only on the next next_arrival), so the committed counter excludes it.
        while session.step(&mut policy) {
            if session.metrics().summary().ndcg_cr > 0.0 {
                break;
            }
        }
        assert!(
            !session.is_done(),
            "tiny dataset should complete something early"
        );
        let committed_before_finish = session.env().total_completions();
        let outcome = session.finish(policy.name());
        assert!(
            outcome.total_completions > committed_before_finish,
            "finish() must flush the staged completion ({} vs {})",
            outcome.total_completions,
            committed_before_finish
        );
    }

    #[test]
    fn session_batch_matches_individual_runs() {
        let dataset = SimConfig::tiny().generate();
        let cfg = RunnerConfig::default();

        let mut solo_random = RandomPolicy::new(ListMode::RankAll, 5);
        let solo_random_out = run_policy(&dataset, &mut solo_random, &cfg);
        let mut solo_cosine = GreedyCosine::new(Benefit::Worker, ListMode::RankAll);
        let solo_cosine_out = run_policy(&dataset, &mut solo_cosine, &cfg);

        let policies: Vec<crowd_sim::BoxedPolicy> = vec![
            Box::new(RandomPolicy::new(ListMode::RankAll, 5)),
            Box::new(GreedyCosine::new(Benefit::Worker, ListMode::RankAll)),
        ];
        let outcomes =
            run_policies_lockstep(&dataset, policies, &cfg, crowd_tensor::ThreadPool::serial());
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].summary(), solo_random_out.summary());
        assert_eq!(outcomes[1].summary(), solo_cosine_out.summary());
    }

    #[test]
    fn empty_session_batch_is_a_noop() {
        let mut batch: SessionBatch = SessionBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.step_all(&mut []), 0);
        assert!(batch.finish(&[]).is_empty());
    }
}
