//! Equivalence of batched and sequential `SessionBatch` stepping: one shared policy driving
//! `N` independent simulations must produce bit-identical metrics, completions and RNG
//! streams whether every arrival is decided one `act` at a time or all live arrivals are
//! decided in a single `act_batch` call (for the DDQN agent: one packed Q-network forward
//! pass for the whole batch).
//!
//! The contract under test (see `BatchedPolicy`): a batched round evaluates every view
//! against the parameters the policy holds at the start of the round, so it matches
//! sequential stepping exactly when `act` is a pure function of those parameters. The DDQN
//! agent satisfies this with learning frozen — exploration stays ON in the first test, so
//! the per-decision RNG draws and annealing-schedule ticks are exercised and any
//! desynchronisation of the RNG stream would surface as diverging rankings.

use crowd_baselines::{ListMode, RandomPolicy};
use crowd_experiments::{RunOutcome, RunnerConfig, Session, SessionBatch};
use crowd_rl_core::{DdqnAgent, DdqnConfig};
use crowd_sim::{
    ArrivalContext, ArrivalView, BatchedPolicy, Dataset, Decision, Env, FeedbackView, Platform,
    Policy, PolicyFeedback, SimConfig,
};

const N_SESSIONS: usize = 3;

fn dataset() -> Dataset {
    SimConfig::tiny().generate()
}

/// One runner config per session: every replica faces its own behaviour-model seed, so the
/// batch genuinely mixes different pools and pool sizes in one packed forward pass.
fn session_configs() -> Vec<RunnerConfig> {
    (0..N_SESSIONS)
        .map(|i| RunnerConfig {
            platform_seed: 1_000 + i as u64,
            ..RunnerConfig::default()
        })
        .collect()
}

fn build_batch(dataset: &Dataset) -> SessionBatch {
    let mut batch = SessionBatch::new();
    for config in session_configs() {
        batch.push(Session::for_dataset(dataset, &config));
    }
    batch
}

fn ddqn_for(dataset: &Dataset) -> DdqnAgent {
    let features = Platform::default_feature_space(dataset);
    let config = DdqnConfig {
        hidden_dim: 16,
        num_heads: 2,
        batch_size: 8,
        learn_every: 4,
        max_tasks: 32,
        buffer_size: 128,
        ..DdqnConfig::default()
    };
    DdqnAgent::new(config, features.task_dim(), features.worker_dim())
}

/// Sequential reference: the same shared policy steps every session in session order, one
/// `act` per arrival — exactly the rounds `step_batched` replaces.
fn run_sequential_rounds(
    dataset: &Dataset,
    policy: &mut (impl Policy + ?Sized),
    name: &str,
) -> Vec<RunOutcome> {
    let mut sessions: Vec<Session> = session_configs()
        .iter()
        .map(|config| Session::for_dataset(dataset, config))
        .collect();
    loop {
        let mut live = 0;
        for session in &mut sessions {
            if session.step(policy) {
                live += 1;
            }
        }
        if live == 0 {
            break;
        }
    }
    sessions
        .into_iter()
        .map(|session| session.finish(name))
        .collect()
}

fn assert_outcomes_bit_identical(sequential: &[RunOutcome], batched: &[RunOutcome]) {
    assert_eq!(sequential.len(), batched.len());
    for (seq, bat) in sequential.iter().zip(batched) {
        // Covers CR, kCR, nDCG-CR, QG, kQG and nDCG-QG — any diverging decision anywhere
        // in the replay would change at least one of these.
        assert_eq!(seq.summary(), bat.summary(), "metrics diverged");
        assert_eq!(seq.evaluated_arrivals, bat.evaluated_arrivals);
        assert_eq!(seq.total_completions, bat.total_completions);
        assert_eq!(
            seq.final_total_quality, bat.final_total_quality,
            "final platform quality diverged"
        );
    }
}

/// Probes the policy's post-run state: both agents act on one more identical arrival; a
/// desynchronised RNG stream or diverged parameters would produce different rankings.
fn assert_same_next_decision(a: &mut impl Policy, b: &mut impl Policy, dataset: &Dataset) {
    let mut platform = Platform::new(
        dataset.clone(),
        Platform::default_feature_space(dataset),
        777,
    );
    let mut decision_a = Decision::new();
    let mut decision_b = Decision::new();
    loop {
        assert!(platform.next_arrival(), "probe dataset exhausted");
        if !platform.arrival().is_empty() {
            break;
        }
    }
    let view = platform.arrival();
    a.act(&view, &mut decision_a);
    b.act(&view, &mut decision_b);
    assert_eq!(
        decision_a, decision_b,
        "post-run decisions diverged: RNG streams or parameters are out of sync"
    );
}

#[test]
fn ddqn_step_batched_is_bit_identical_to_sequential_stepping() {
    let dataset = dataset();

    // Learning frozen so `act` is a pure function of the (fixed) network parameters;
    // exploration stays ON so every decision draws from the agent's RNG.
    let mut sequential_agent = ddqn_for(&dataset);
    sequential_agent.freeze_learning();
    let sequential = run_sequential_rounds(&dataset, &mut sequential_agent, "DDQN");

    let mut batched_agent = ddqn_for(&dataset);
    batched_agent.freeze_learning();
    let mut batch = build_batch(&dataset);
    batch.run_batched(&mut batched_agent);
    let batched = batch.finish_shared("DDQN");

    assert_outcomes_bit_identical(&sequential, &batched);
    assert_same_next_decision(&mut sequential_agent, &mut batched_agent, &dataset);
}

#[test]
fn frozen_ddqn_step_batched_matches_sequential_greedy_path() {
    // Fully frozen agent (no exploration, no learning): the pure-exploitation ranking must
    // also match bit for bit — this is the evaluation-mode configuration batched scenario
    // sweeps run with.
    let dataset = dataset();

    let mut sequential_agent = ddqn_for(&dataset);
    sequential_agent.freeze_learning();
    sequential_agent.freeze_exploration();
    let sequential = run_sequential_rounds(&dataset, &mut sequential_agent, "DDQN");

    let mut batched_agent = ddqn_for(&dataset);
    batched_agent.freeze_learning();
    batched_agent.freeze_exploration();
    let mut batch = build_batch(&dataset);
    batch.run_batched(&mut batched_agent);
    let batched = batch.finish_shared("DDQN");

    assert_outcomes_bit_identical(&sequential, &batched);
}

#[test]
fn default_act_batch_fallback_matches_sequential_stepping() {
    // Policies without a custom batched path fall back to a per-view `act` loop, which must
    // be observationally identical to sequential stepping for a stateful RNG-driven policy.
    let dataset = dataset();

    let mut sequential_policy = RandomPolicy::new(ListMode::RankAll, 5);
    let sequential = run_sequential_rounds(&dataset, &mut sequential_policy, "Random");

    let mut batched_policy = RandomPolicy::new(ListMode::RankAll, 5);
    let mut batch = build_batch(&dataset);
    batch.run_batched(&mut batched_policy);
    let batched = batch.finish_shared("Random");

    assert_outcomes_bit_identical(&sequential, &batched);
    assert_same_next_decision(&mut sequential_policy, &mut batched_policy, &dataset);
}

#[test]
fn step_batched_on_an_empty_batch_is_a_noop() {
    let mut policy = RandomPolicy::new(ListMode::RankAll, 5);
    let mut batch: SessionBatch = SessionBatch::new();
    assert_eq!(batch.step_batched(&mut policy), 0);
    assert!(batch.finish_shared("Random").is_empty());
}

#[test]
fn dyn_batched_policy_objects_are_steppable() {
    // `step_batched` accepts unsized policies, so heterogeneous `Box<dyn BatchedPolicy>`
    // registries (scenario sweeps) work without monomorphisation tricks.
    let dataset = dataset();
    let mut policy: Box<dyn BatchedPolicy> = Box::new(RandomPolicy::new(ListMode::RankAll, 5));
    let mut batch = build_batch(&dataset);
    let live = batch.step_batched(policy.as_mut());
    assert!(live > 0);
}

/// One call a [`CallLog`] received.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    /// `warm_start` with this many history records.
    WarmStart(usize),
    EndOfDay(usize),
    Act,
    /// `act_batch` over this many views.
    ActBatch(usize),
    /// `observe`, keyed by what tells the sessions' feedbacks apart.
    Observe {
        time: u64,
        worker: u32,
        completed: Option<u32>,
        gain_bits: u32,
    },
}

/// A policy that ranks every task in pool order and logs each call it receives.
#[derive(Default)]
struct CallLog {
    calls: Vec<Call>,
}

impl CallLog {
    fn rank(view: &ArrivalView<'_>, decision: &mut Decision) {
        decision.clear();
        decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
    }
}

impl Policy for CallLog {
    fn name(&self) -> &str {
        "CallLog"
    }

    fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
        self.calls.push(Call::Act);
        Self::rank(view, decision);
    }

    fn observe(&mut self, _view: &ArrivalView<'_>, feedback: &FeedbackView<'_>) {
        self.calls.push(Call::Observe {
            time: feedback.time,
            worker: feedback.worker_id.0,
            completed: feedback.completed.map(|(task, _)| task.0),
            gain_bits: feedback.quality_gain.to_bits(),
        });
    }

    fn end_of_day(&mut self, day: usize) {
        self.calls.push(Call::EndOfDay(day));
    }

    fn warm_start(&mut self, history: &[(ArrivalContext, PolicyFeedback)]) {
        self.calls.push(Call::WarmStart(history.len()));
    }
}

impl BatchedPolicy for CallLog {
    fn act_batch(&mut self, views: &[ArrivalView<'_>], decisions: &mut [Decision]) {
        self.calls.push(Call::ActBatch(views.len()));
        for (view, decision) in views.iter().zip(decisions.iter_mut()) {
            Self::rank(view, decision);
        }
    }
}

#[test]
fn step_batched_calls_the_shared_policy_in_the_documented_order() {
    let dataset = dataset();

    // Reference: each session stepped alone, its calls cut per `Session::step` (hooks,
    // then `Act` and `Observe` when the step found an arrival).
    let per_session: Vec<Vec<Vec<Call>>> = session_configs()
        .iter()
        .map(|config| {
            let mut session = Session::for_dataset(&dataset, config);
            let mut policy = CallLog::default();
            let mut steps = Vec::new();
            loop {
                let live = session.step(&mut policy);
                steps.push(std::mem::take(&mut policy.calls));
                if !live {
                    break steps;
                }
            }
        })
        .collect();

    // The documented round: every session's hooks in session order, one `act_batch` over
    // the live sessions, then their observes in session order.
    let rounds = per_session.iter().map(Vec::len).max().unwrap();
    let mut expected = Vec::new();
    for round in 0..rounds {
        let mut observes = Vec::new();
        for steps in &per_session {
            let Some(step) = steps.get(round) else {
                continue;
            };
            match step.iter().position(|call| *call == Call::Act) {
                Some(act) => {
                    assert_eq!(act + 2, step.len(), "a step ends with act, observe");
                    expected.extend_from_slice(&step[..act]);
                    observes.push(step[act + 1].clone());
                }
                None => expected.extend_from_slice(step),
            }
        }
        if !observes.is_empty() {
            expected.push(Call::ActBatch(observes.len()));
            expected.append(&mut observes);
        }
    }

    let mut policy = CallLog::default();
    let mut batch = build_batch(&dataset);
    batch.run_batched(&mut policy);
    assert_eq!(policy.calls, expected);

    // `warm_start` once per session, with a non-empty history, before the first act; the
    // replay spans at least two evaluated days.
    let first_act = policy
        .calls
        .iter()
        .position(|call| matches!(call, Call::ActBatch(_)))
        .unwrap();
    let warm_starts: Vec<usize> = policy
        .calls
        .iter()
        .filter_map(|call| match call {
            Call::WarmStart(len) => Some(*len),
            _ => None,
        })
        .collect();
    assert_eq!(warm_starts.len(), N_SESSIONS);
    assert!(warm_starts.iter().all(|&len| len > 0));
    let warm_before_act = policy.calls[..first_act]
        .iter()
        .filter(|call| matches!(call, Call::WarmStart(_)))
        .count();
    assert_eq!(warm_before_act, N_SESSIONS);
    assert!(policy
        .calls
        .iter()
        .any(|call| matches!(call, Call::EndOfDay(_))));
    assert!(policy
        .calls
        .iter()
        .all(|call| !matches!(call, Call::ActBatch(n) if *n == 0 || *n > N_SESSIONS)));
}
