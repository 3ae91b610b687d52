//! Parallel-vs-serial execution equivalence (the PR 4 regression fence).
//!
//! The workspace's parallelism is **deterministic by construction**: work is sharded so
//! every unit owns its inputs and outputs — a session owns its policy and RNG streams
//! (`SessionBatch::step_all`), a matmul shard owns its output rows
//! (`Matrix::matmul_par` and friends), a learner branch owns its replay memory, parameter
//! stores and sampling RNG (`DdqnAgent`'s `par_join` dispatch). This suite proves the
//! resulting contract end to end over full replays of the evaluation protocol:
//!
//! > `results(threads = 1) == results(threads = k)` — **to the bit** — for every
//! > observable: per-session metrics, completions, final task qualities, evaluated
//! > arrival counts, every learner's loss stream and post-run sampling-RNG probe, the
//! > agents' exploration-RNG probes, and every post-run network parameter.
//!
//! Three execution shapes are covered:
//!
//! * [`SessionBatch::step_all`] — N *training* DDQN agents (exploration and
//!   learning active, including a balanced agent whose two learner branches dispatch
//!   concurrently) plus baselines, sharded across pool workers;
//! * [`SessionBatch::step_batched`] — one shared frozen agent, trained on the pool, whose
//!   single batched forward pass per round runs the pooled kernels (the round around it
//!   is serial);
//! * `ThreadPool::from_env()` — whatever `CROWD_THREADS` the environment picked (CI runs
//!   this whole suite twice, at `CROWD_THREADS=1` and `CROWD_THREADS=4`, so the serial
//!   fallback and a real multi-thread pool both stay proven).
//!
//! Since PR 7, every `ThreadPool` call dispatches through the process-wide
//! **persistent worker pool** (`crowd_parallel::PersistentPool`) instead of spawning
//! scoped threads per call — so every replay below additionally proves that parked,
//! warm-reused workers preserve bit-identity, and
//! `replay_on_a_warm_persistent_pool_matches_serial` pins the warm-reuse case
//! explicitly (workers already spawned and parked before the replay begins).

use crowd_experiments::{RunOutcome, RunnerConfig, Session, SessionBatch};
use crowd_rl_core::{DdqnAgent, DdqnConfig};
use crowd_sim::{
    ArrivalContext, ArrivalView, BoxedPolicy, Dataset, Decision, FeedbackView, LearnerTiming,
    Platform, Policy, PolicyFeedback, SimConfig,
};
use crowd_tensor::ThreadPool;
use std::sync::{Arc, Mutex};

/// Bit-level fingerprint of one session's outcome (no wall-clock fields).
#[derive(Debug, Clone, PartialEq, Eq)]
struct OutcomeBits {
    policy: String,
    summary: [u32; 6],
    timestamps: usize,
    total_completions: usize,
    final_total_quality: u32,
    evaluated_arrivals: usize,
}

impl OutcomeBits {
    fn of(outcome: &RunOutcome) -> Self {
        let s = outcome.summary();
        OutcomeBits {
            policy: outcome.policy.clone(),
            summary: [
                s.cr.to_bits(),
                s.k_cr.to_bits(),
                s.ndcg_cr.to_bits(),
                s.qg.to_bits(),
                s.k_qg.to_bits(),
                s.ndcg_qg.to_bits(),
            ],
            timestamps: s.timestamps,
            total_completions: outcome.total_completions,
            final_total_quality: outcome.final_total_quality.to_bits(),
            evaluated_arrivals: outcome.evaluated_arrivals,
        }
    }
}

/// Bit-level fingerprint of a DDQN agent's internal state after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AgentBits {
    explore_rng_probe: u64,
    worker_losses: Vec<u32>,
    requester_losses: Vec<u32>,
    worker_rng_probe: u64,
    requester_rng_probe: u64,
    worker_params: Vec<u32>,
    requester_params: Vec<u32>,
    updates: u64,
}

impl AgentBits {
    fn of(agent: &DdqnAgent) -> Self {
        let params = |learner: &crowd_rl_core::DqnLearner| {
            learner
                .params()
                .iter()
                .flat_map(|(_, _, m)| m.as_slice().iter().map(|v| v.to_bits()))
                .collect::<Vec<u32>>()
        };
        AgentBits {
            explore_rng_probe: agent.rng_probe(),
            worker_losses: agent
                .worker_learner()
                .loss_history()
                .iter()
                .map(|l| l.to_bits())
                .collect(),
            requester_losses: agent
                .requester_learner()
                .loss_history()
                .iter()
                .map(|l| l.to_bits())
                .collect(),
            worker_rng_probe: agent.worker_learner().rng_probe(),
            requester_rng_probe: agent.requester_learner().rng_probe(),
            worker_params: params(agent.worker_learner()),
            requester_params: params(agent.requester_learner()),
            updates: agent.total_updates(),
        }
    }
}

/// A boxed-policy adapter that keeps the concrete agent reachable after the run: the
/// session owns the box, the test keeps a second `Arc` to fingerprint the agent's
/// internal state. Never contended (each session steps its own policy), so the mutex is
/// only the cheap price of shared ownership.
struct ProbedAgent {
    name: String,
    inner: Arc<Mutex<DdqnAgent>>,
}

impl ProbedAgent {
    fn pair(agent: DdqnAgent) -> (Box<Self>, Arc<Mutex<DdqnAgent>>) {
        let name = agent.name().to_string();
        let inner = Arc::new(Mutex::new(agent));
        (
            Box::new(ProbedAgent {
                name,
                inner: Arc::clone(&inner),
            }),
            inner,
        )
    }
}

impl Policy for ProbedAgent {
    fn name(&self) -> &str {
        &self.name
    }
    fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
        self.inner.lock().unwrap().act(view, decision);
    }
    fn observe(&mut self, view: &ArrivalView<'_>, feedback: &FeedbackView<'_>) {
        self.inner.lock().unwrap().observe(view, feedback);
    }
    fn end_of_day(&mut self, day: usize) {
        self.inner.lock().unwrap().end_of_day(day);
    }
    fn warm_start(&mut self, history: &[(ArrivalContext, PolicyFeedback)]) {
        self.inner.lock().unwrap().warm_start(history);
    }
    fn learner_timing(&self) -> Option<LearnerTiming> {
        self.inner.lock().unwrap().learner_timing()
    }
    fn set_thread_pool(&mut self, pool: ThreadPool) {
        self.inner.lock().unwrap().set_thread_pool(pool);
    }
}

fn dataset() -> Dataset {
    SimConfig::tiny().generate()
}

fn agent_config() -> DdqnConfig {
    DdqnConfig {
        max_tasks: 24,
        hidden_dim: 16,
        num_heads: 2,
        batch_size: 8,
        buffer_size: 128,
        learn_every: 4,
        exploration_anneal_steps: 150,
        ..DdqnConfig::default()
    }
}

fn agent_for(dataset: &Dataset, config: DdqnConfig) -> DdqnAgent {
    let features = Platform::default_feature_space(dataset);
    DdqnAgent::new(config, features.task_dim(), features.worker_dim())
}

/// Full replay of N sessions through `SessionBatch::run_all` on a `threads`-wide pool:
/// three *training* DDQN agents (worker-only, requester-only, and a balanced one whose
/// two learner branches run the concurrent `par_join` dispatch) plus a baseline.
fn run_replay(dataset: &Dataset, pool: ThreadPool) -> (Vec<OutcomeBits>, Vec<AgentBits>) {
    let configs = [
        agent_config().worker_only(),
        agent_config().requester_only(),
        agent_config().with_balance(0.5),
    ];
    let mut policies: Vec<BoxedPolicy> = Vec::new();
    let mut probes = Vec::new();
    for config in configs {
        let (boxed, probe) = ProbedAgent::pair(agent_for(dataset, config));
        policies.push(boxed);
        probes.push(probe);
    }
    policies.push(Box::new(crowd_baselines::RandomPolicy::new(
        crowd_baselines::ListMode::RankAll,
        13,
    )));

    let cfg = RunnerConfig::default();
    let mut batch = SessionBatch::new().with_pool(pool);
    for policy in &mut policies {
        policy.set_thread_pool(pool);
        batch.push(Session::for_dataset(dataset, &cfg));
    }
    batch.run_all(&mut policies);
    let outcomes = batch.finish(&policies);

    let outcome_bits = outcomes.iter().map(OutcomeBits::of).collect();
    let agent_bits = probes
        .iter()
        .map(|probe| AgentBits::of(&probe.lock().unwrap()))
        .collect();
    (outcome_bits, agent_bits)
}

#[test]
fn full_replay_is_bit_identical_at_threads_1_2_8() {
    let dataset = dataset();
    let (outcomes_1, agents_1) = run_replay(&dataset, ThreadPool::new(1));
    assert_eq!(outcomes_1.len(), 4);
    // The training agents actually learned — otherwise the loss-stream comparison below
    // would be vacuous.
    assert!(agents_1.iter().all(|a| a.updates > 0), "no learner ran");
    assert!(
        !agents_1[2].worker_losses.is_empty() && !agents_1[2].requester_losses.is_empty(),
        "the balanced agent must exercise BOTH learner branches (the par_join path)"
    );
    for threads in [2usize, 8] {
        let (outcomes_k, agents_k) = run_replay(&dataset, ThreadPool::new(threads));
        assert_eq!(
            outcomes_1, outcomes_k,
            "per-session outcomes diverged at {threads} threads"
        );
        assert_eq!(
            agents_1, agents_k,
            "agent internal state (loss streams / RNG probes / parameters) diverged at {threads} threads"
        );
    }
}

#[test]
fn full_replay_on_the_env_configured_pool_matches_serial() {
    // CI runs the suite twice — CROWD_THREADS=1 and CROWD_THREADS=4 — so both the serial
    // fallback and a real pool flow through the exact same assertion.
    let dataset = dataset();
    let env_pool = ThreadPool::from_env();
    let serial = run_replay(&dataset, ThreadPool::serial());
    let pooled = run_replay(&dataset, env_pool);
    assert_eq!(
        serial,
        pooled,
        "replay on the CROWD_THREADS pool ({} threads) diverged from serial",
        env_pool.threads()
    );
}

/// Shared-agent batched stepping at several thread counts: a trained-then-frozen agent over
/// N behaviour seeds, its training and its batched forward passes on the pooled kernels.
#[test]
fn batched_stepping_is_bit_identical_at_any_thread_count() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();

    let run = |pool: ThreadPool| {
        let mut agent = agent_for(&dataset, agent_config().with_balance(0.5));
        agent.set_thread_pool(pool);
        // Train over one replay, then freeze: `act` becomes a pure function of the entry
        // parameters, the precondition for batched ≡ sequential (see BatchedPolicy docs).
        let mut training_session = Session::for_dataset(&dataset, &cfg);
        training_session.run(&mut agent);
        agent.freeze_exploration();
        agent.freeze_learning();

        let mut batch = SessionBatch::new().with_pool(pool);
        for i in 0..4u64 {
            batch.push(Session::for_dataset(
                &dataset,
                &RunnerConfig {
                    platform_seed: 5_000 + i,
                    ..cfg.clone()
                },
            ));
        }
        batch.run_batched(&mut agent);
        let outcomes: Vec<OutcomeBits> = batch
            .finish_shared(agent.name())
            .iter()
            .map(OutcomeBits::of)
            .collect();
        (outcomes, AgentBits::of(&agent))
    };

    let serial = run(ThreadPool::new(1));
    assert!(serial.1.updates > 0, "training replay never learned");
    for threads in [2usize, 8] {
        let pooled = run(ThreadPool::new(threads));
        assert_eq!(
            serial, pooled,
            "batched stepping diverged at {threads} threads"
        );
    }
}

#[test]
fn replay_on_a_warm_persistent_pool_matches_serial() {
    let dataset = dataset();
    let pool = ThreadPool::new(4);
    // Warm the persistent pool first: after this call its workers exist and are
    // parked, so the replay below runs entirely on reused (not freshly spawned)
    // workers — the case a per-call scoped pool never had.
    let mut scratch = vec![0u64; 64];
    pool.par_chunks(&mut scratch, 1, |offset, chunk| {
        chunk.iter_mut().for_each(|x| *x = offset as u64)
    });
    let spawned_before = crowd_parallel::PersistentPool::global().workers_spawned();
    assert!(
        spawned_before >= 1,
        "the warm-up call must have spawned workers"
    );

    let warm = run_replay(&dataset, pool);
    let serial = run_replay(&dataset, ThreadPool::serial());
    assert_eq!(
        warm, serial,
        "a replay on warm, reused pool workers diverged from serial"
    );
}

#[test]
fn empty_batch_parallel_stepping_is_a_noop() {
    let mut batch: SessionBatch = SessionBatch::new().with_pool(ThreadPool::new(8));
    assert_eq!(batch.step_all(&mut []), 0);
    assert_eq!(batch.pool().threads(), 8);
}
