//! Serving ≡ offline replay: the `crowd-serve` micro-batching decision service must
//! give every concurrent client exactly the decisions a sequential offline replay of
//! the same arrival order produces.
//!
//! Two regimes are proved:
//!
//! 1. **Frozen policy, concurrent clients** — with learning and exploration frozen,
//!    `act` is a pure function of the fixed network parameters (and consumes no RNG),
//!    so a decision depends only on its own arrival context, never on what other
//!    clients are doing. `N` client threads hammer the server concurrently and every
//!    single response is bit-compared against the decision a real offline [`Session`]
//!    replay produced for the same context.
//! 2. **Learning policy, committed order** — with online learning ON, the server's
//!    execution order is its decision log's record order (the group-commit contract).
//!    A fresh, identically constructed agent replaying the log sequentially must land
//!    on a bit-identical policy state — checkpoint fingerprints are compared, which
//!    covers every network parameter, optimizer moment, replay-buffer entry and RNG
//!    word.
//!
//! A third test pins the round rule: decides that queue up behind a stalled round are
//! committed together in the next one (one packed `act_batch`), with every answer
//! unchanged.
//!
//! `ServeConfig.pool` is taken from `CROWD_THREADS`, so the whole suite rides the
//! same 1/4-thread CI matrix as the rest of the workspace.

use crowd_bench::serve_fixtures::{
    dataset, feedback_for, fingerprint, frozen_agent, live_agent, tmp_dir,
};
use crowd_experiments::{collect_arrival_contexts, RunnerConfig, Session};
use crowd_rl_core::DdqnAgent;
use crowd_serve::{replay_records, DecisionLog, LogConfig, ServeConfig, ServeDecision, Server};
use crowd_sim::{
    ArrivalContext, ArrivalView, BatchedPolicy, Decision, FeedbackView, Policy, TaskId,
};
use crowd_tensor::ThreadPool;

/// Wraps a frozen agent inside a real [`Session`] replay and captures every
/// (context, decision) pair the session produced — the offline reference stream.
/// Warm start is deliberately NOT forwarded: the serving twin must be constructible
/// from configuration alone, and a frozen agent's decisions don't depend on it.
struct Recorder {
    inner: DdqnAgent,
    captured: Vec<(ArrivalContext, Vec<TaskId>, bool)>,
}

impl Policy for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }
    fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
        self.inner.act(view, decision);
        self.captured.push((
            view.to_context(),
            decision.shown().to_vec(),
            decision.is_assignment(),
        ));
    }
    fn observe(&mut self, view: &ArrivalView<'_>, feedback: &FeedbackView<'_>) {
        self.inner.observe(view, feedback);
    }
}

#[test]
fn concurrent_clients_get_the_offline_session_replay_decisions() {
    let dataset = dataset();

    // Offline reference: a real Session replay through a frozen agent, capturing the
    // arrival stream and the decision made for each arrival.
    let mut recorder = Recorder {
        inner: frozen_agent(&dataset),
        captured: Vec::new(),
    };
    let mut session = Session::for_dataset(&dataset, &RunnerConfig::default());
    while session.step(&mut recorder) {}
    let captured = recorder.captured;
    assert!(
        captured.len() >= 20,
        "tiny session should produce a meaningful stream (got {})",
        captured.len()
    );

    // Serving twin: an identically constructed frozen agent behind the micro-batching
    // server, hammered by N concurrent client threads, each holding a disjoint slice
    // of the captured stream.
    for n_clients in [1usize, 4] {
        let config = ServeConfig {
            pool: ThreadPool::from_env(),
            ..ServeConfig::default()
        };
        let server = Server::start(Box::new(frozen_agent(&dataset)), config).unwrap();
        let total = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for chunk in captured.chunks(captured.len().div_ceil(n_clients)) {
                let client = server.client();
                handles.push(scope.spawn(move || {
                    for (context, shown, assignment) in chunk {
                        let served = client.decide(context.clone()).unwrap();
                        assert_eq!(
                            &served.shown, shown,
                            "served ranking diverged from the offline Session replay"
                        );
                        assert_eq!(served.assignment, *assignment);
                    }
                    chunk.len()
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        });
        assert_eq!(total, captured.len());
        let (_policy, report) = server.shutdown();
        assert_eq!(report.decisions as usize, captured.len());
        assert!(report.log_error.is_none());
    }
}

#[test]
fn learning_server_state_equals_sequential_replay_of_its_log() {
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 9001, 40);
    assert!(contexts.len() >= 20);

    let dir = tmp_dir("learning");
    let config = ServeConfig {
        pool: ThreadPool::from_env(),
        log: Some(LogConfig::new(&dir)),
        ..ServeConfig::default()
    };
    let server = Server::start(Box::new(live_agent(&dataset)), config).unwrap();

    // Three concurrent clients, each submitting decisions AND the resulting feedback —
    // the server learns online while serving, in whatever commit order the threads
    // race into.
    std::thread::scope(|scope| {
        for chunk in contexts.chunks(contexts.len().div_ceil(3)) {
            let client = server.client();
            scope.spawn(move || {
                for context in chunk {
                    let served = client.decide(context.clone()).unwrap();
                    client
                        .feedback(served.request_id, feedback_for(context, &served))
                        .unwrap();
                }
            });
        }
    });
    let (policy, report) = server.shutdown();
    assert_eq!(report.decisions as usize, contexts.len());
    assert_eq!(report.feedbacks as usize, contexts.len());
    assert!(report.log_error.is_none());

    // The log's record order IS the execution order: a fresh agent replaying it
    // sequentially must reach a bit-identical state — parameters, optimizer moments,
    // replay memory and RNG stream all covered by the checkpoint fingerprint.
    let records = DecisionLog::read(&dir).unwrap();
    assert_eq!(records.len(), 2 * contexts.len());
    let mut twin = live_agent(&dataset);
    let state = replay_records(&mut twin, &records).unwrap();
    assert_eq!(state.decisions as usize, contexts.len());
    assert_eq!(state.feedbacks as usize, contexts.len());
    assert_eq!(
        fingerprint(&twin),
        fingerprint(policy.as_ref()),
        "sequential log replay must reconstruct the server's exact policy state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn saturated_ingress_rejects_try_decide_but_serves_blocking_submitters() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    // A gated policy: `act` blocks until the test opens the gate, pinning the batch
    // worker so the ingress queue can be filled deterministically.
    struct Gated {
        open: Arc<AtomicBool>,
        acts_started: Arc<AtomicU64>,
    }
    impl Policy for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
            self.acts_started.fetch_add(1, Ordering::SeqCst);
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            decision.clear();
            if view.n_tasks() > 0 {
                decision.push(view.task_id(0));
            }
        }
        fn observe(&mut self, _: &ArrivalView<'_>, _: &FeedbackView<'_>) {}
    }
    impl BatchedPolicy for Gated {}

    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 5, 4);
    let open = Arc::new(AtomicBool::new(false));
    let acts_started = Arc::new(AtomicU64::new(0));
    let policy = Gated {
        open: open.clone(),
        acts_started: acts_started.clone(),
    };
    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(Box::new(policy), config).unwrap();

    std::thread::scope(|scope| {
        // First blocking submitter: the worker picks it up and stalls inside `act`.
        let c1 = server.client();
        let ctx1 = contexts[0].clone();
        let t1 = scope.spawn(move || c1.decide(ctx1).unwrap());
        while acts_started.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Second blocking submitter fills the (capacity-1) queue behind the stalled
        // worker, demonstrating the backpressure path: it waits instead of failing.
        let c2 = server.client();
        let ctx2 = contexts[1].clone();
        let t2 = scope.spawn(move || c2.decide(ctx2).unwrap());
        // Give t2's enqueue a moment to land; it is a single bounded-channel send.
        std::thread::sleep(std::time::Duration::from_millis(100));

        // The queue is now full: fail-fast submission reports saturation.
        let client = server.client();
        assert!(matches!(
            client.try_decide(&contexts[2]),
            Err(crowd_serve::ServeError::Saturated)
        ));

        // Open the gate: both blocked submitters are served, in queue order.
        open.store(true, Ordering::SeqCst);
        assert_eq!(t1.join().unwrap().request_id, 0);
        assert_eq!(t2.join().unwrap().request_id, 1);
        // And the previously saturated client gets through once the queue drains.
        let late = client.decide(contexts[3].clone()).unwrap();
        assert_eq!(late.request_id, 2);
    });
    let (_policy, report) = server.shutdown();
    assert_eq!(report.decisions, 3);
    assert_eq!(report.max_round_decisions, 1, "max_batch=1 respected");
}

#[test]
fn decides_queued_behind_a_stalled_round_commit_together_unchanged() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    // A frozen agent whose `act_batch` holds until the gate opens: the first round
    // stalls the worker while the other decides queue up behind it.
    struct GatedAgent {
        inner: DdqnAgent,
        open: Arc<AtomicBool>,
        rounds_started: Arc<AtomicU64>,
    }
    impl Policy for GatedAgent {
        fn name(&self) -> &str {
            "gated-ddqn"
        }
        fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
            self.act_batch(std::slice::from_ref(view), std::slice::from_mut(decision));
        }
        fn observe(&mut self, view: &ArrivalView<'_>, feedback: &FeedbackView<'_>) {
            self.inner.observe(view, feedback);
        }
        fn set_thread_pool(&mut self, pool: ThreadPool) {
            self.inner.set_thread_pool(pool);
        }
    }
    impl BatchedPolicy for GatedAgent {
        fn act_batch(&mut self, views: &[ArrivalView<'_>], decisions: &mut [Decision]) {
            self.rounds_started.fetch_add(1, Ordering::SeqCst);
            while !self.open.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.act_batch(views, decisions);
        }
    }

    const QUEUED: usize = 6;
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 77, QUEUED + 1);
    assert_eq!(contexts.len(), QUEUED + 1);
    // The reference answers: the same frozen agent deciding one arrival at a time.
    let mut reference = frozen_agent(&dataset);
    let expected: Vec<(Vec<TaskId>, bool)> = contexts
        .iter()
        .map(|context| {
            let mut decision = Decision::new();
            reference.act(&context.view(), &mut decision);
            (decision.shown().to_vec(), decision.is_assignment())
        })
        .collect();

    let open = Arc::new(AtomicBool::new(false));
    let rounds_started = Arc::new(AtomicU64::new(0));
    let policy = GatedAgent {
        inner: frozen_agent(&dataset),
        open: open.clone(),
        rounds_started: rounds_started.clone(),
    };
    let config = ServeConfig {
        pool: ThreadPool::from_env(),
        max_batch: QUEUED + 2,
        ..ServeConfig::default()
    };
    let server = Server::start(Box::new(policy), config).unwrap();
    let served: Vec<ServeDecision> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (k, context) in contexts.iter().enumerate() {
            let client = server.client();
            handles.push(scope.spawn(move || client.decide(context.clone()).unwrap()));
            if k == 0 {
                while rounds_started.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        // Let every queued decide land behind the stalled round, then release it.
        std::thread::sleep(Duration::from_millis(200));
        open.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (k, (served, (shown, assignment))) in served.iter().zip(&expected).enumerate() {
        assert_eq!(
            &served.shown, shown,
            "decide {k}: answer changed in the batch"
        );
        assert_eq!(served.assignment, *assignment, "decide {k}");
    }
    let (_policy, report) = server.shutdown();
    assert_eq!(report.decisions as usize, QUEUED + 1);
    assert_eq!(
        report.rounds, 2,
        "the stalled round, then everything queued"
    );
    assert_eq!(report.max_round_decisions, QUEUED);
}
