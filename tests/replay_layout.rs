//! Replay-layout fence: a stored experience keeps its predicted branches as windows of one
//! future tensor. Every branch is a row suffix of the feedback's deadline-sorted future
//! pool (clipped to `maxT` rows), so the tensor holds each covered pool row once, and
//! nothing else. A Small-tier agent warm-started at a fixed seed must store exactly the
//! union of its windows in every experience, and its worker replay must take well under
//! what one tensor per branch would.

use crowd_experiments::{ddqn_config_for, ddqn_for, RunnerConfig, Scale, Session};
use crowd_rl_core::{DdqnConfig, DqnLearner, Experience};
use crowd_sim::{SimConfig, TaskId};
use std::collections::HashSet;
use std::sync::Arc;

/// The bound: the worker replay against the same replay with one tensor per branch.
const MAX_SHARE: f64 = 0.6;

/// What the distinct experiences of `learner` hold: `(future rows, window rows)`.
/// Asserts on the way that every experience's future tensor is exactly the union of
/// its windows, each within `max_tasks` rows.
fn future_and_window_rows(learner: &DqnLearner, max_tasks: usize) -> (usize, usize) {
    let mut seen: HashSet<*const Experience> = HashSet::new();
    let (mut future_rows, mut window_rows) = (0, 0);
    for transition in learner.transitions() {
        let experience = &transition.experience;
        if !seen.insert(Arc::as_ptr(experience)) {
            continue;
        }
        let rows = experience.future.real_tasks();
        let mut covered = vec![false; rows];
        for branch in &experience.branches {
            assert!(branch.rows <= max_tasks, "{branch:?} exceeds maxT");
            assert!(
                branch.first_row + branch.rows <= rows,
                "{branch:?} past {rows} rows"
            );
            covered[branch.first_row..branch.first_row + branch.rows].fill(true);
            window_rows += branch.rows;
        }
        assert!(
            covered.iter().all(|&c| c),
            "a future tensor of {rows} rows holds rows no window covers: {:?}",
            experience.branches
        );
        future_rows += rows;
    }
    assert!(!seen.is_empty(), "the warm start stored no experience");
    (future_rows, window_rows)
}

#[test]
fn stored_futures_are_the_union_of_their_windows_and_halve_the_worker_replay() {
    let dataset = SimConfig::small().generate();
    let config = DdqnConfig {
        seed: 2904,
        ..ddqn_config_for(Scale::Small)
    };
    let mut agent = ddqn_for(&dataset, config.clone());
    let runner = RunnerConfig {
        warmup_months: 1,
        platform_seed: 2904,
        warmup_seed: 2905,
        ..RunnerConfig::default()
    };
    let mut session = Session::for_dataset(&dataset, &runner);
    // The first step runs the warm-up month and hands its history to `warm_start`.
    assert!(session.step(&mut agent));

    let worker = agent.worker_learner();
    let (future_rows, window_rows) = future_and_window_rows(worker, config.max_tasks);
    future_and_window_rows(agent.requester_learner(), config.max_tasks);

    // One row costs its features and its task id, in the future tensor or in a branch
    // tensor alike; swapping the future rows for the window rows gives the per-branch
    // layout's bytes.
    let row_bytes =
        worker.network().input_dim() * std::mem::size_of::<f32>() + std::mem::size_of::<TaskId>();
    let bytes = agent.replay_bytes().0;
    let per_branch = bytes - future_rows * row_bytes + window_rows * row_bytes;
    eprintln!(
        "worker replay: {bytes} B over {future_rows} future rows; \
         {per_branch} B with one tensor per branch ({window_rows} branch rows)"
    );
    assert!(
        (bytes as f64) < MAX_SHARE * per_branch as f64,
        "the worker replay takes {bytes} B, not below {MAX_SHARE} of the {per_branch} B \
         one tensor per branch would take"
    );
}
