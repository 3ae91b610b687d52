//! Checkpoint/resume equivalence (the PR 5 regression fence) and loader robustness.
//!
//! The contract: a training run that is checkpointed mid-replay, dropped, and resumed
//! from the snapshot file in fresh objects is **bit-identical** to a run that never
//! stopped — per-session metrics, completions, final task qualities, every learner's
//! loss stream and sampling-RNG probe, the agent's exploration-RNG probe, and every
//! network parameter (compared via `to_bits`). The suite runs on the
//! `CROWD_THREADS`-configured pool, so the CI matrix (threads 1 and 4) proves the
//! contract under both serial and pooled execution, and one test additionally sweeps
//! explicit pools {1, 4} in-process.
//!
//! Why this is provable at all: PR 4 made every run deterministic by construction
//! (ordered maps, owned RNG streams, shard-stable parallelism), so "same state ⇒ same
//! future" holds bit-exactly; the checkpoint format stores floats as raw bits and RNGs
//! as word states, so "same state" is achievable across a process boundary.
//!
//! The suite also covers the loader's robustness guarantees (truncation, bit flips,
//! wrong magic, future version — typed errors, never panics or half-loads) and the
//! byte-level format stability against the committed golden snapshot
//! (`tests/fixtures/format_v6.ckpt`; regenerate consciously with `UPDATE_GOLDEN=1`
//! after a deliberate format-version bump).

use crowd_bench::ckpt_fixtures;
use crowd_ckpt::{CkptError, Fs, Snapshot, SnapshotFile, FORMAT_VERSION};
use crowd_experiments::{RunOutcome, RunnerConfig, Session, SessionBatch};
use crowd_rl_core::{DdqnAgent, DdqnConfig};
use crowd_sim::{BoxedPolicy, Dataset, Platform, Policy, SimConfig};
use crowd_tensor::ThreadPool;

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

fn temp_ckpt_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("crowd_ckpt_equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The headline contract, through a real file: a *training* DDQN agent (both MDPs,
/// exploration and learning active) is checkpointed mid-replay, everything is dropped,
/// and a fresh process-equivalent (new session, new agent, snapshot read back from
/// disk) continues to the end — bit-identical to the uninterrupted twin in every
/// observable, on the `CROWD_THREADS`-configured pool (CI runs this at 1 and 4).
#[test]
fn resumed_training_run_is_bit_identical_to_uninterrupted() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();
    let pool = ThreadPool::from_env();
    let config = agent_config().with_balance(0.5);

    // Uninterrupted baseline.
    let mut baseline_agent = agent_for(&dataset, config.clone());
    baseline_agent.set_thread_pool(pool);
    let mut baseline_session = Session::for_dataset(&dataset, &cfg);
    while baseline_session.step(&mut baseline_agent) {}
    let baseline_outcome = OutcomeBits::of(&baseline_session.finish(baseline_agent.name()));
    let baseline_bits = AgentBits::of(&baseline_agent);
    assert!(baseline_bits.updates > 0, "baseline never learned");
    assert!(
        !baseline_bits.worker_losses.is_empty() && !baseline_bits.requester_losses.is_empty(),
        "both learner branches must be exercised"
    );

    // Checkpointed twin: stop mid-replay, snapshot to a real file, drop everything.
    let path = temp_ckpt_path(&format!("resume_{}.ckpt", pool.threads()));
    {
        let mut agent = agent_for(&dataset, config.clone());
        agent.set_thread_pool(pool);
        let mut session = Session::for_dataset(&dataset, &cfg);
        for _ in 0..60 {
            assert!(session.step(&mut agent), "tiny replay ended too early");
        }
        assert!(
            agent.total_updates() > 0,
            "checkpoint taken before learning"
        );
        session
            .checkpoint(&agent)
            .expect("DDQN agent supports checkpointing")
            .write_to(&Fs::real(), &path)
            .unwrap();
        // `session` and `agent` drop here — nothing survives but the file.
    }

    // Fresh-process equivalent: rebuild from config, load, continue.
    let file = SnapshotFile::read(&Fs::real(), &path).unwrap();
    let mut resumed_agent = agent_for(&dataset, config);
    resumed_agent.set_thread_pool(pool);
    let mut resumed_session = Session::for_dataset(&dataset, &cfg);
    resumed_session.resume(&mut resumed_agent, &file).unwrap();
    assert_eq!(resumed_session.evaluated_arrivals(), 60);
    while resumed_session.step(&mut resumed_agent) {}
    let resumed_outcome = OutcomeBits::of(&resumed_session.finish(resumed_agent.name()));
    let resumed_bits = AgentBits::of(&resumed_agent);

    assert_eq!(
        baseline_outcome, resumed_outcome,
        "metrics/completions/quality diverged after resume"
    );
    assert_eq!(
        baseline_bits, resumed_bits,
        "agent internals (loss streams / RNG probes / parameters) diverged after resume"
    );
    std::fs::remove_file(&path).ok();
}

/// Checkpoint bytes are a function of the run alone: no wall-clock reading reaches
/// them. Two independent runs with the same seed write byte-identical snapshots at the
/// same step, and a run checkpointed at step `j`, resumed in fresh objects and
/// checkpointed again at step `k` writes the bytes of the uninterrupted run at `k`.
#[test]
fn checkpoint_bytes_depend_only_on_the_run() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();
    let pool = ThreadPool::from_env();
    let config = agent_config().with_balance(0.5);
    let (j, k) = (40, 70);
    let fresh = || {
        let mut agent = agent_for(&dataset, config.clone());
        agent.set_thread_pool(pool);
        (Session::for_dataset(&dataset, &cfg), agent)
    };
    let step_to = |session: &mut Session, agent: &mut DdqnAgent, step: usize| {
        while session.evaluated_arrivals() < step {
            assert!(session.step(agent), "tiny replay ended too early");
        }
    };
    let bytes_at = |step: usize| {
        let (mut session, mut agent) = fresh();
        step_to(&mut session, &mut agent, step);
        assert!(
            agent.total_updates() > 0,
            "checkpoint taken before learning"
        );
        session.checkpoint(&agent).unwrap().to_bytes()
    };

    let at_k = bytes_at(k);
    assert_eq!(
        at_k,
        bytes_at(k),
        "two runs with the same seed wrote different checkpoint bytes at step {k}"
    );

    let file = SnapshotFile::from_bytes(bytes_at(j)).unwrap();
    let (mut session, mut agent) = fresh();
    session.resume(&mut agent, &file).unwrap();
    step_to(&mut session, &mut agent, k);
    assert_eq!(
        session.checkpoint(&agent).unwrap().to_bytes(),
        at_k,
        "a run resumed at step {j} wrote different checkpoint bytes at step {k}"
    );
}

/// The same save→drop→load→continue scenario at explicit thread counts 1 and 4: the
/// resumed run must match its own-pool baseline, and the outcomes must also agree
/// *across* pools (checkpointing composes with the parallel-execution bit-identity
/// contract).
#[test]
fn resume_is_bit_identical_at_threads_1_and_4() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();
    let run = |threads: usize| {
        let pool = ThreadPool::new(threads);
        let config = agent_config().with_balance(0.5);
        let snapshot = {
            let mut agent = agent_for(&dataset, config.clone());
            agent.set_thread_pool(pool);
            let mut session = Session::for_dataset(&dataset, &cfg);
            for _ in 0..50 {
                assert!(session.step(&mut agent));
            }
            session.checkpoint(&agent).unwrap().to_bytes()
        };
        let file = SnapshotFile::from_bytes(snapshot).unwrap();
        let mut agent = agent_for(&dataset, config);
        agent.set_thread_pool(pool);
        let mut session = Session::for_dataset(&dataset, &cfg);
        session.resume(&mut agent, &file).unwrap();
        while session.step(&mut agent) {}
        let outcome = OutcomeBits::of(&session.finish(agent.name()));
        (outcome, AgentBits::of(&agent))
    };
    let serial = run(1);
    let pooled = run(4);
    assert!(serial.1.updates > 0);
    assert_eq!(serial, pooled, "resumed runs diverged across thread counts");
}

/// A checkpoint taken before the first step stores the pre-warm-start phase
/// (`warm_started == false`, pristine warm-up RNG): the resumed session must replay the
/// whole warm-up month — including the random full-pool rankings and the warm-start
/// hand-off — bit-identically.
#[test]
fn checkpoint_before_warmup_resumes_the_whole_protocol() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();
    let config = agent_config().worker_only();

    let mut baseline_agent = agent_for(&dataset, config.clone());
    let mut baseline_session = Session::for_dataset(&dataset, &cfg);
    while baseline_session.step(&mut baseline_agent) {}
    let baseline = (
        OutcomeBits::of(&baseline_session.finish(baseline_agent.name())),
        AgentBits::of(&baseline_agent),
    );

    let bytes = {
        let agent = agent_for(&dataset, config.clone());
        let mut session: Session = Session::for_dataset(&dataset, &cfg);
        session.checkpoint(&agent).unwrap().to_bytes()
    };
    let file = SnapshotFile::from_bytes(bytes).unwrap();
    let mut agent = agent_for(&dataset, config);
    let mut session = Session::for_dataset(&dataset, &cfg);
    session.resume(&mut agent, &file).unwrap();
    assert_eq!(session.evaluated_arrivals(), 0);
    while session.step(&mut agent) {}
    let resumed = (
        OutcomeBits::of(&session.finish(agent.name())),
        AgentBits::of(&agent),
    );
    assert_eq!(baseline, resumed);
}

fn batch_lineup(dataset: &Dataset) -> Vec<BoxedPolicy> {
    vec![
        Box::new(agent_for(dataset, agent_config().worker_only())),
        Box::new(agent_for(dataset, agent_config().with_balance(0.5))),
        Box::new(crowd_baselines::RandomPolicy::new(
            crowd_baselines::ListMode::RankAll,
            13,
        )),
        // The two daily-retrained supervised baselines, checkpointable since PR 7 —
        // their RNG streams, factor/example windows and (for Greedy NN) MLP + Adam
        // state must all survive the member snapshot.
        Box::new(crowd_baselines::Taskrec::new(
            crowd_baselines::ListMode::RankAll,
            4,
            17,
        )),
        Box::new(crowd_baselines::GreedyNn::new(
            crowd_baselines::Benefit::Worker,
            crowd_baselines::ListMode::RankAll,
            19,
        )),
    ]
}

/// Per-member `SessionBatch` snapshots: five replicas (two training agents, Random,
/// and the Taskrec / Greedy NN supervised baselines) stepped in lock-step,
/// checkpointed between rounds, resumed into a fresh batch with fresh policies —
/// every member finishes bit-identically to the uninterrupted batch. The uninterrupted
/// batch steps on a serial pool, the checkpointed one on the `CROWD_THREADS` pool and
/// the resumed one on a 4-wide pool, so the one `step_all` entry point is also compared
/// across pool widths.
#[test]
fn session_batch_member_snapshots_resume_bit_identically() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();
    let batch_on = |policies: &mut [BoxedPolicy], pool: ThreadPool| {
        let mut batch = SessionBatch::new().with_pool(pool);
        for policy in policies.iter_mut() {
            policy.set_thread_pool(pool);
            batch.push(Session::for_dataset(&dataset, &cfg));
        }
        batch
    };

    let mut baseline_policies = batch_lineup(&dataset);
    let mut baseline = batch_on(&mut baseline_policies, ThreadPool::serial());
    baseline.run_all(&mut baseline_policies);
    let baseline_outcomes: Vec<OutcomeBits> = baseline
        .finish(&baseline_policies)
        .iter()
        .map(OutcomeBits::of)
        .collect();

    let bytes = {
        let mut policies = batch_lineup(&dataset);
        let mut batch = batch_on(&mut policies, ThreadPool::from_env());
        for _ in 0..40 {
            assert!(batch.step_all(&mut policies) > 0);
        }
        batch.checkpoint(&policies).unwrap().to_bytes()
    };

    let file = SnapshotFile::from_bytes(bytes).unwrap();
    let mut policies = batch_lineup(&dataset);
    let mut batch = batch_on(&mut policies, ThreadPool::new(4));
    batch.resume(&mut policies, &file).unwrap();
    batch.run_all(&mut policies);
    let resumed_outcomes: Vec<OutcomeBits> = batch
        .finish(&policies)
        .iter()
        .map(OutcomeBits::of)
        .collect();
    assert_eq!(baseline_outcomes, resumed_outcomes);
}

/// Shared-policy batched stepping: a frozen agent driving four replicas through
/// `step_batched` is checkpointed between rounds with `checkpoint_shared` and resumed
/// with `resume_shared` — outcomes and agent state match the uninterrupted batch.
#[test]
fn shared_policy_batch_snapshot_resumes_bit_identically() {
    let dataset = dataset();
    let cfg = RunnerConfig::default();
    let sessions_for = || {
        (0..4u64)
            .map(|i| {
                Session::for_dataset(
                    &dataset,
                    &RunnerConfig {
                        platform_seed: 5_000 + i,
                        ..cfg.clone()
                    },
                )
            })
            .collect::<Vec<Session>>()
    };
    let trained_agent = || {
        let mut agent = agent_for(&dataset, agent_config().with_balance(0.5));
        let mut session = Session::for_dataset(&dataset, &cfg);
        session.run(&mut agent);
        agent.freeze_exploration();
        agent.freeze_learning();
        agent
    };

    let mut baseline_agent = trained_agent();
    let mut baseline = SessionBatch::new();
    for s in sessions_for() {
        baseline.push(s);
    }
    baseline.run_batched(&mut baseline_agent);
    let baseline_outcomes: Vec<OutcomeBits> = baseline
        .finish_shared(baseline_agent.name())
        .iter()
        .map(OutcomeBits::of)
        .collect();
    let baseline_bits = AgentBits::of(&baseline_agent);

    let bytes = {
        let mut agent = trained_agent();
        let mut batch = SessionBatch::new();
        for s in sessions_for() {
            batch.push(s);
        }
        for _ in 0..30 {
            assert!(batch.step_batched(&mut agent) > 0);
        }
        batch.checkpoint_shared(&agent).unwrap().to_bytes()
    };

    let file = SnapshotFile::from_bytes(bytes).unwrap();
    // The resumed agent is rebuilt *untrained* — everything comes from the snapshot.
    let mut agent = agent_for(&dataset, agent_config().with_balance(0.5));
    let mut batch = SessionBatch::new();
    for s in sessions_for() {
        batch.push(s);
    }
    batch.resume_shared(&mut agent, &file).unwrap();
    batch.run_batched(&mut agent);
    let resumed_outcomes: Vec<OutcomeBits> = batch
        .finish_shared(agent.name())
        .iter()
        .map(OutcomeBits::of)
        .collect();
    assert_eq!(baseline_outcomes, resumed_outcomes);
    assert_eq!(baseline_bits, AgentBits::of(&agent));
}

/// Builds real session-checkpoint bytes for the robustness sweeps.
fn real_checkpoint_bytes(dataset: &Dataset) -> Vec<u8> {
    let cfg = RunnerConfig::default();
    let mut agent = agent_for(dataset, agent_config().worker_only());
    let mut session = Session::for_dataset(dataset, &cfg);
    for _ in 0..20 {
        assert!(session.step(&mut agent));
    }
    session.checkpoint(&agent).unwrap().to_bytes()
}

/// Loader robustness over a real snapshot: every truncation point and every flipped
/// payload byte (sampled) yields a typed error — never a panic, never a half-load.
#[test]
fn damaged_snapshots_fail_with_typed_errors_never_panics() {
    let dataset = dataset();
    let clean = real_checkpoint_bytes(&dataset);
    assert!(SnapshotFile::from_bytes(clean.clone()).is_ok());

    // Wrong magic.
    assert!(matches!(
        SnapshotFile::from_bytes(ckpt_fixtures::with_magic(&clean, b"PNGJPEG!")),
        Err(CkptError::BadMagic { .. })
    ));
    // A future format version, and every older one, is refused, never misparsed:
    // version 1 stored the flat single-arena platform layout, version 2 stored
    // wall-clock timings, versions 2 and 3 the sharded platform layout, versions 1
    // to 4 padded states with one copy per transition, and versions 1 to 5 stored each
    // future branch as its own state tensor.
    for version in [1, 2, 3, 4, 5, FORMAT_VERSION + 1] {
        match SnapshotFile::from_bytes(ckpt_fixtures::with_version(&clean, version)) {
            Err(CkptError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (version, FORMAT_VERSION));
            }
            other => panic!("version {version} must be refused, got {other:?}"),
        }
    }
    // Truncations: every prefix in the header/table region, then sampled points across
    // the payloads.
    for cut in (0..256.min(clean.len())).chain((256..clean.len()).step_by(211)) {
        let err = SnapshotFile::from_bytes(ckpt_fixtures::truncate(&clean, cut))
            .expect_err(&format!("truncation to {cut} bytes must fail"));
        assert!(
            matches!(
                err,
                CkptError::BadMagic { .. }
                    | CkptError::Truncated { .. }
                    | CkptError::CrcMismatch { .. }
                    | CkptError::Corrupt { .. }
            ),
            "unexpected error class at cut {cut}: {err:?}"
        );
    }
    // Bit flips: sampled positions across the whole file.
    for pos in (0..clean.len()).step_by(149) {
        assert!(
            SnapshotFile::from_bytes(ckpt_fixtures::flip_byte(&clean, pos)).is_err(),
            "flipped byte at {pos} was accepted"
        );
    }
}

/// Publish robustness, the write-side twin of the loader checks above: a rewrite that
/// dies before the atomic rename (here: the very first I/O op of the tmp-file write,
/// injected via `Fs::faulty`) is a typed error and the previously published snapshot
/// still loads, byte-identical. `tests/fault_injection.rs` sweeps the same contract at
/// *every* numbered I/O site; this is the cheap always-on sentinel next to the reader
/// robustness it complements.
#[test]
fn failed_rewrite_leaves_the_published_snapshot_intact() {
    use crowd_ckpt::FaultPlan;
    let dataset = dataset();
    let clean = real_checkpoint_bytes(&dataset);
    let path = temp_ckpt_path("failed_rewrite.ckpt");
    std::fs::write(&path, &clean).unwrap();

    let mut replacement = Snapshot::new();
    replacement.put_raw("other", vec![0xEE; 64]);
    let (fs, _probe) = Fs::faulty(FaultPlan::fail_op(0));
    replacement
        .write_to(&fs, &path)
        .expect_err("a poisoned first op must fail the rewrite");

    assert_eq!(
        std::fs::read(&path).unwrap(),
        clean,
        "failed rewrite must not disturb the published image"
    );
    assert!(SnapshotFile::from_bytes(std::fs::read(&path).unwrap()).is_ok());
    std::fs::remove_file(&path).unwrap();
}

/// Logical-mismatch robustness: resuming into a differently configured session or a
/// snapshot with a missing section is a typed error, and an unsupported policy reports
/// `Unsupported` from `checkpoint` without touching the snapshot.
#[test]
fn mismatched_resume_targets_are_typed_errors() {
    let dataset = dataset();
    let clean = real_checkpoint_bytes(&dataset);
    let file = SnapshotFile::from_bytes(clean).unwrap();

    // Different warm-up configuration.
    let mut agent = agent_for(&dataset, agent_config().worker_only());
    let mut session: Session = Session::for_dataset(
        &dataset,
        &RunnerConfig {
            warmup_months: 0,
            ..RunnerConfig::default()
        },
    );
    assert!(matches!(
        session.resume(&mut agent, &file),
        Err(CkptError::Corrupt { .. })
    ));

    // Missing section.
    let mut incomplete = Snapshot::new();
    incomplete.put_raw("session", vec![]);
    let incomplete = SnapshotFile::from_bytes(incomplete.to_bytes()).unwrap();
    let mut agent = agent_for(&dataset, agent_config().worker_only());
    let mut session: Session = Session::for_dataset(&dataset, &RunnerConfig::default());
    assert!(session.resume(&mut agent, &incomplete).is_err());

    // A policy without checkpoint support: `checkpoint` fails with Unsupported and the
    // snapshot stays empty (nothing half-written). Greedy cosine is the workspace's one
    // genuinely stateless policy (scores are a pure function of the arrival), so it
    // keeps the trait's Unsupported default — every *stateful* policy (DDQN, Random,
    // LinUCB, Taskrec, Greedy NN) now implements checkpointing.
    let mut cosine = crowd_baselines::GreedyCosine::new(
        crowd_baselines::Benefit::Worker,
        crowd_baselines::ListMode::RankAll,
    );
    let mut session: Session = Session::for_dataset(&dataset, &RunnerConfig::default());
    for _ in 0..3 {
        assert!(session.step(&mut cosine));
    }
    let mut snapshot = Snapshot::new();
    match session.checkpoint_into(&cosine, &mut snapshot, "") {
        Err(CkptError::Unsupported { .. }) => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
    assert!(snapshot.is_empty(), "failed checkpoint must not half-write");
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/format_v6.ckpt")
}

/// Format stability: the committed version-6 golden snapshot must equal what today's
/// writer emits, byte for byte, and must load under today's reader and re-save to the
/// same bytes. Any change to the wire format fails here until `FORMAT_VERSION` is
/// bumped and a new golden file is committed deliberately (`UPDATE_GOLDEN=1 cargo test
/// -p crowd-experiments --test checkpoint_equivalence format_stability`).
#[test]
fn format_stability_golden_snapshot() {
    let expected = ckpt_fixtures::golden_snapshot().to_bytes();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &expected).unwrap();
        eprintln!("regenerated {}", path.display());
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read the committed golden snapshot at {}: {e}",
            path.display()
        )
    });
    assert_eq!(
        committed, expected,
        "the writer's byte stream changed: bump FORMAT_VERSION and regenerate the golden file deliberately"
    );

    // The committed file loads into live objects…
    let file = SnapshotFile::from_bytes(committed).unwrap();
    let mut rng = crowd_tensor::Rng::seed_from(0);
    file.load_into("rng", &mut rng).unwrap();
    let mut store = crowd_nn::ParamStore::new();
    file.load_into("params", &mut store).unwrap();
    assert_eq!(store.len(), 2);
    let mut adam = crowd_nn::Adam::new(0.5);
    file.load_into("adam", &mut adam).unwrap();
    assert_eq!(adam.steps(), 1);
    let mut replay: crowd_rl_kit::PrioritizedReplay<u32> =
        crowd_rl_kit::PrioritizedReplay::new(4).with_alpha(1.0);
    file.load_into("replay", &mut replay).unwrap();
    assert_eq!(replay.len(), 4);
    let mut transitions: crowd_rl_kit::PrioritizedReplay<crowd_rl_core::Transition> =
        crowd_rl_kit::PrioritizedReplay::new(4).with_alpha(1.0);
    crowd_rl_core::load_replay(&mut transitions, &mut file.reader("transitions").unwrap()).unwrap();
    let slots: Vec<_> = transitions.iter().collect();
    assert_eq!(slots.len(), 3);
    assert!(std::sync::Arc::ptr_eq(
        &slots[0].experience,
        &slots[1].experience
    ));
    // The shared experience's first two branches are overlapping windows of its
    // three-row future tensor.
    let shared = &slots[0].experience;
    let windows: Vec<(usize, usize)> = shared
        .branches
        .iter()
        .map(|b| (b.first_row, b.rows))
        .collect();
    assert_eq!(windows, [(0, 3), (1, 2), (0, 0)]);
    assert_eq!(
        shared.branch_rows(&shared.branches[1]).task_ids(),
        &shared.future.task_ids()[1..]
    );

    // …and re-saving those objects reproduces the golden payload bytes exactly.
    let mut resaved = Snapshot::new();
    resaved.put("rng", &rng);
    resaved.put("params", &store);
    resaved.put("adam", &adam);
    resaved.put("replay", &replay);
    let mut w = crowd_ckpt::StateWriter::new();
    crowd_rl_core::save_replay(&transitions, &mut w);
    resaved.put_raw("transitions", w.into_bytes());
    let roundtrip = SnapshotFile::from_bytes(resaved.to_bytes()).unwrap();
    for section in ["rng", "params", "adam", "replay", "transitions"] {
        let a = file.reader(section).unwrap();
        let b = roundtrip.reader(section).unwrap();
        assert_eq!(
            a.remaining(),
            b.remaining(),
            "section {section} changed size on re-save"
        );
        let n = a.remaining();
        assert_eq!(
            a.clone().take_bytes(n).unwrap(),
            b.clone().take_bytes(n).unwrap(),
            "section {section} is not byte-stable across load→save"
        );
    }
}
