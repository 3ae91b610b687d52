//! Packed-vs-sequential learning equivalence (the PR 3 regression fence).
//!
//! `DqnLearner::learn` differentiates the whole minibatch as **one** autograd graph
//! (`SetQNetwork::forward_batch` with one fused attention node per head, one in-graph
//! weighted masked MSE, one packed online-θ target pass) and reads the target network's
//! branch values from its θ̃ cache, scoring only the branch lists it has not seen since
//! the last target sync; `DqnLearner::learn_sequential` is the retained per-transition
//! reference loop, with per-branch single-state inference and no cache. This suite
//! proves the equivalence contract over long seeded sweeps for both MDPs:
//!
//! * **Bit-identical observables.** From bit-identical learner state, both paths report
//!   the same `LearnReport` loss and mean TD error *to the bit*, write the same replay
//!   priorities to the bit, and consume the sampling RNG identically — for ≥ 50
//!   consecutive updates per MDP, with fresh transitions churning the memory between
//!   updates. This holds because the packed forward values equal the per-state forward
//!   values bit for bit (row-wise ops never mix rows; the fused per-segment attention
//!   computes every element in the unfused chain's order; padding contributes exact
//!   zeros), a cached θ̃ value is the bits a fresh pass computes, and the packed loss
//!   accumulates the per-transition terms in the sequential loop's f32 order.
//! * **The θ̃ cache is fenced.** Transitions are stored the way the agent stores them:
//!   the transitions of one feedback share one branch-list `Arc`, so prioritized replay
//!   hits the cache again and again. The sweep crosses four target syncs (each must drop
//!   the cache), and a learner checkpointed and resumed mid-sync-period — empty cache,
//!   unshared branch lists — must continue bit-identically to the uninterrupted one,
//!   parameters included.
//! * **Parameter agreement to documented f32 tolerance.** Post-update parameters are
//!   *not* bit-compared across the two paths: the packed backward sums each parameter's
//!   gradient over all segments in one sweep, while the sequential loop accumulates
//!   per-transition gradient matrices and then scales — the same real-number sum in a
//!   different f32 association order. The sweep asserts every parameter stays within a
//!   tight absolute/relative tolerance after every update.
//!
//! Protocol per update: clone the packed learner (full state: networks, Adam moments,
//! replay priorities, annealed β, **and the owned minibatch-sampling RNG**), run
//! `learn_sequential` on the clone and `learn` on the original, compare, drop the clone.
//! Cloning re-synchronises the tolerated parameter drift each round, so all 50+ updates
//! compare both paths from bit-identical pre-states and the bit-level assertions stay
//! exact.

use crowd_bench::synthetic_state;
use crowd_ckpt::{LoadState, StateReader, StateWriter};
use crowd_rl_core::{
    DdqnConfig, DqnLearner, FutureBranch, StateKind, StateTransformer, Transition,
};
use crowd_tensor::Rng;
use std::sync::Arc;

const UPDATES: usize = 52;
/// Update after which the resumed twin is checkpointed: mid-way between the syncs after
/// updates 13 and 26.
const RESUME_AFTER: usize = 19;
const MAX_TASKS: usize = 6;
const TASK_DIM: usize = 4;
const WORKER_DIM: usize = 3;

fn config() -> DdqnConfig {
    DdqnConfig {
        max_tasks: MAX_TASKS,
        hidden_dim: 16,
        num_heads: 2,
        batch_size: 8,
        buffer_size: 64,
        // Exercise the hard target sync a few times inside the sweep.
        target_sync_every: 13,
        learning_rate: 0.01,
        ..DdqnConfig::default()
    }
}

/// A random state over `pool` tasks (1 ≤ pool ≤ MAX_TASKS keeps every transition's
/// action row real; branch states additionally use pool = 0 for expired-pool branches).
/// Rides on the shared `crowd_bench::synthetic_state` fixture so this suite and
/// `benches/batched_training.rs` generate from one definition.
fn random_state(tf: &StateTransformer, pool: usize, rng: &mut Rng) -> crowd_rl_core::StateTensor {
    synthetic_state(tf, pool, TASK_DIM, WORKER_DIM, rng)
}

/// A random transition with 0–3 future branches of mixed pool sizes, including empty
/// branch pools and zero-probability branches (both must be skipped identically by the
/// packed and the sequential target computation).
fn random_transition(tf: &StateTransformer, rng: &mut Rng) -> Transition {
    let pool = 1 + rng.below(MAX_TASKS);
    let state = random_state(tf, pool, rng);
    let n_branches = rng.below(4);
    let branches: Vec<FutureBranch> = (0..n_branches)
        .map(|_| {
            let branch_pool = rng.below(MAX_TASKS + 1); // may be 0 (empty future pool)
            FutureBranch {
                probability: if rng.unit() < 0.2 {
                    0.0 // dead branch: must contribute nothing in either path
                } else {
                    rng.uniform(0.05, 0.5)
                },
                state: random_state(tf, branch_pool, rng),
            }
        })
        .collect();
    Transition {
        action_row: rng.below(pool),
        reward: if rng.unit() < 0.5 { 1.0 } else { 0.0 },
        state,
        branches: Arc::new(branches),
    }
}

/// One feedback's transitions, stored the way the agent stores them: the chosen task's
/// transition plus 0–2 transitions for other shown tasks (reward 0), all in the same
/// state and sharing one branch-list `Arc`.
fn feedback_transitions(tf: &StateTransformer, rng: &mut Rng) -> Vec<Transition> {
    let chosen = random_transition(tf, rng);
    let pool = chosen.state.real_tasks;
    let others = rng.below(3);
    let mut group = Vec::with_capacity(1 + others);
    for _ in 0..others {
        group.push(Transition {
            state: chosen.state.clone(),
            action_row: rng.below(pool),
            reward: 0.0,
            branches: Arc::clone(&chosen.branches),
        });
    }
    group.insert(0, chosen);
    group
}

fn store_feedback(learners: &mut [&mut DqnLearner], tf: &StateTransformer, rng: &mut Rng) {
    for transition in feedback_transitions(tf, rng) {
        for learner in learners.iter_mut() {
            learner.store_transition(transition.clone());
        }
    }
}

/// A learner restored from a checkpoint of `learner` (fresh branch allocations, empty
/// θ̃ cache).
fn resume(learner: &DqnLearner, cfg: &DdqnConfig, row_dim: usize, gamma: f32) -> DqnLearner {
    let mut writer = StateWriter::new();
    writer.save(learner);
    let mut resumed = DqnLearner::new(cfg, row_dim, gamma, &mut Rng::seed_from(1));
    resumed
        .load_state(&mut StateReader::new(writer.as_bytes()))
        .expect("checkpoint loads");
    resumed
}

fn assert_bit_identical(label: &str, a: &DqnLearner, b: &DqnLearner, buffer_size: usize) {
    assert_eq!(a.updates(), b.updates(), "{label}: update count");
    assert_eq!(a.rng_probe(), b.rng_probe(), "{label}: sampling RNG");
    let bits = |l: &DqnLearner| {
        l.loss_history()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "{label}: loss stream");
    for slot in 0..buffer_size {
        assert_eq!(
            a.replay_priority(slot).to_bits(),
            b.replay_priority(slot).to_bits(),
            "{label}: replay priority of slot {slot}"
        );
    }
    for ((_, name, pa), (_, _, pb)) in a.params().iter().zip(b.params().iter()) {
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: parameter {name}");
        }
    }
}

fn max_param_divergence(a: &DqnLearner, b: &DqnLearner) -> (f32, String) {
    let mut worst = 0.0f32;
    let mut worst_name = String::new();
    for ((_, name, pa), (_, _, pb)) in a.params().iter().zip(b.params().iter()) {
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            // Normalised divergence: absolute for small weights, relative for large.
            let diff = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
            if diff > worst {
                worst = diff;
                worst_name = name.to_string();
            }
        }
    }
    (worst, worst_name)
}

/// The seeded sweep for one MDP: ≥ 50 packed-vs-sequential update pairs from identical
/// states, with the replay memory churning between updates, plus a twin resumed from a
/// mid-sync-period checkpoint that must track the uninterrupted learner to the bit.
fn run_sweep(kind: StateKind, gamma: f32, seed: u64) {
    let cfg = config();
    let tf = StateTransformer::new(kind, MAX_TASKS, TASK_DIM, WORKER_DIM);
    let mut init_rng = Rng::seed_from(seed);
    let mut learner = DqnLearner::new(&cfg, tf.row_dim(), gamma, &mut init_rng);
    let mut feed_rng = Rng::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15);
    while learner.memory_len() < cfg.batch_size * 2 {
        store_feedback(&mut [&mut learner], &tf, &mut feed_rng);
    }
    let mut resumed: Option<DqnLearner> = None;

    for update in 0..UPDATES {
        // Keep the buffer churning so the sweep covers wrap-around and re-prioritised
        // slots, not just the initial fill.
        let mut feeders: Vec<&mut DqnLearner> = vec![&mut learner];
        feeders.extend(resumed.as_mut());
        store_feedback(&mut feeders, &tf, &mut feed_rng);
        if update % 3 == 0 {
            store_feedback(&mut feeders, &tf, &mut feed_rng);
        }

        // The clone carries the sampling RNG, so both paths draw the same minibatch.
        let mut sequential = learner.clone();
        let packed_report = learner
            .learn()
            .expect("packed learn failed")
            .expect("memory holds enough transitions");
        let sequential_report = sequential
            .learn_sequential()
            .expect("sequential learn failed")
            .expect("memory holds enough transitions");

        assert_eq!(
            packed_report.batch, sequential_report.batch,
            "[{kind:?} update {update}] batch size diverged"
        );
        assert_eq!(
            packed_report.loss.to_bits(),
            sequential_report.loss.to_bits(),
            "[{kind:?} update {update}] loss diverged: packed {} vs sequential {}",
            packed_report.loss,
            sequential_report.loss
        );
        assert_eq!(
            packed_report.mean_td_error.to_bits(),
            sequential_report.mean_td_error.to_bits(),
            "[{kind:?} update {update}] mean TD error diverged: packed {} vs sequential {}",
            packed_report.mean_td_error,
            sequential_report.mean_td_error
        );
        for slot in 0..cfg.buffer_size {
            assert_eq!(
                learner.replay_priority(slot).to_bits(),
                sequential.replay_priority(slot).to_bits(),
                "[{kind:?} update {update}] replay priority diverged at slot {slot}"
            );
        }
        assert_eq!(
            learner.rng_probe(),
            sequential.rng_probe(),
            "[{kind:?} update {update}] the two paths consumed the RNG differently"
        );
        let (divergence, name) = max_param_divergence(&learner, &sequential);
        assert!(
            divergence < 1e-3,
            "[{kind:?} update {update}] parameter {name} diverged beyond f32 tolerance: {divergence}"
        );
        assert_eq!(learner.updates(), sequential.updates());

        if let Some(twin) = resumed.as_mut() {
            twin.learn()
                .expect("resumed learn failed")
                .expect("memory holds enough transitions");
            assert_bit_identical(
                &format!("[{kind:?} update {update}] resumed twin"),
                &learner,
                twin,
                cfg.buffer_size,
            );
        }
        if update + 1 == RESUME_AFTER {
            resumed = Some(resume(&learner, &cfg, tf.row_dim(), gamma));
        }
    }
    assert_eq!(learner.updates() as usize, UPDATES);
    assert!(
        UPDATES as u64 / cfg.target_sync_every >= 2,
        "the sweep must cross at least two target syncs"
    );
}

#[test]
fn packed_learning_matches_sequential_for_mdp_w() {
    // MDP(w): worker-benefit states `[f_t | f_w]`, completion rewards, γ = 0.3.
    run_sweep(StateKind::Worker, 0.3, 202_401);
}

#[test]
fn packed_learning_matches_sequential_for_mdp_r() {
    // MDP(r): requester-benefit states `[f_t | f_w | q_w | q_t]`, γ = 0.5.
    run_sweep(StateKind::Requester, 0.5, 202_402);
}

#[test]
fn packed_learning_handles_supervised_transitions() {
    // Branch-free transitions (empty future distributions) reduce both paths to masked
    // regression on the immediate reward; they must still agree to the bit.
    let cfg = config();
    let tf = StateTransformer::new(StateKind::Worker, MAX_TASKS, TASK_DIM, WORKER_DIM);
    let mut rng = Rng::seed_from(202_403);
    let mut learner = DqnLearner::new(&cfg, tf.row_dim(), 0.9, &mut rng);
    for _ in 0..cfg.batch_size * 2 {
        let pool = 1 + rng.below(MAX_TASKS);
        let state = random_state(&tf, pool, &mut rng);
        learner.store_transition(Transition {
            action_row: rng.below(pool),
            reward: rng.uniform(0.0, 1.0),
            state,
            branches: Arc::new(Vec::new()),
        });
    }
    for update in 0..10 {
        let mut sequential = learner.clone();
        let packed = learner.learn().unwrap().unwrap();
        let reference = sequential.learn_sequential().unwrap().unwrap();
        assert_eq!(
            packed.loss.to_bits(),
            reference.loss.to_bits(),
            "supervised update {update} loss diverged"
        );
        assert_eq!(
            packed.mean_td_error.to_bits(),
            reference.mean_td_error.to_bits(),
            "supervised update {update} TD error diverged"
        );
    }
}
