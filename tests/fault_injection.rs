//! Deterministic fault injection across the storage stack: every disk touch in
//! `crowd-ckpt` (and therefore in the `crowd-serve` decision log built on it) is a
//! numbered operation behind an [`Fs`] handle, and a [`FaultPlan`] can make exactly
//! op N fail, write short, read corrupt, or stall. That turns "what if the disk
//! fails *right here*?" into a sweepable test input: these tests inject a fault at
//! **every** numbered I/O site of a workload and assert the bit-identical-or-typed
//! contract — the system either recovers to the exact state an unfaulted run
//! reaches, or fails with a typed error. Silent divergence is never an outcome.
//!
//! The serving sweeps drive a *learning* DDQN agent (exploration and learner ticks
//! on), the hardest state to keep bit-exact, through [`Client::decide_with_retry`] —
//! the self-healing client loop that turns transient `Saturated`/`Degraded`
//! rejections into bounded backoff.

use crowd_bench::serve_fixtures::{
    dataset, feedback_for, fingerprint, frozen_agent, live_agent, tmp_dir,
};
use crowd_ckpt::wal::READ_CHUNK;
use crowd_ckpt::{CkptError, FaultKind, FaultPlan, FaultRule, Fs, OpClass, Snapshot, SnapshotFile};
use crowd_experiments::collect_arrival_contexts;
use crowd_serve::{
    replay_records, DecisionLog, LogConfig, LogRecord, RecoveryEvent, RetryPolicy, ServeConfig,
    ServeDecision, ServeError, Server,
};
use crowd_sim::{ArrivalContext, Dataset};
use crowd_tensor::ThreadPool;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn serve_config(dir: &Path, fs: Fs) -> ServeConfig {
    let mut log = LogConfig::new(dir);
    log.fs = fs;
    ServeConfig {
        pool: ThreadPool::from_env(),
        log: Some(log),
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Snapshot layer: atomic publish under a fault at every I/O site.
// ---------------------------------------------------------------------------

fn blob_snapshot(tag: u8) -> Snapshot {
    let mut snapshot = Snapshot::new();
    snapshot.put_raw("blob", vec![tag; 1024]);
    snapshot
}

/// The `blob` section of the snapshot at `path`, read with the real filesystem.
/// Panics on any torn/corrupt state — the atomicity contract says there is none.
fn read_blob(path: &Path) -> Vec<u8> {
    let file = SnapshotFile::read(&Fs::real(), path).expect("published snapshot always reads");
    let mut r = file.reader("blob").expect("blob section present");
    let n = r.remaining();
    r.take_bytes(n).expect("blob bytes").to_vec()
}

#[test]
fn snapshot_rewrite_is_atomic_under_a_fault_at_every_io_site() {
    // Baseline pass: count the I/O ops one snapshot write issues.
    let probe_dir = tmp_dir("snap-probe");
    std::fs::create_dir_all(&probe_dir).unwrap();
    let (fs, probe) = Fs::faulty(FaultPlan::none());
    blob_snapshot(0xBB)
        .write_to(&fs, probe_dir.join("state.ckpt"))
        .unwrap();
    let write_ops = probe.ops();
    assert!(write_ops >= 5, "create/write/sync/rename/sync_dir expected");
    std::fs::remove_dir_all(&probe_dir).unwrap();

    // Sweep: overwrite an existing good image with op n poisoned, for every n. The
    // published path must always hold a *complete* image — the old one when the
    // write failed before the rename took, the new one otherwise. Never a torn mix.
    let old_blob = vec![0xAAu8; 1024];
    let new_blob = vec![0xBBu8; 1024];
    for n in 0..write_ops {
        let dir = tmp_dir(&format!("snap-{n}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        blob_snapshot(0xAA).write_to(&Fs::real(), &path).unwrap();

        let (fs, _probe) = Fs::faulty(FaultPlan::fail_op(n));
        let result = blob_snapshot(0xBB).write_to(&fs, &path);
        let on_disk = read_blob(&path);
        match result {
            Ok(()) => assert_eq!(on_disk, new_blob, "fault at op {n}: success must publish"),
            Err(error) => {
                // Typed CkptError; the image is the old or the new one, complete.
                assert!(
                    on_disk == old_blob || on_disk == new_blob,
                    "fault at op {n} tore the published image (error was: {error})"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn snapshot_read_corruption_is_a_typed_crc_error() {
    let dir = tmp_dir("snap-rot");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.ckpt");
    blob_snapshot(0xCC).write_to(&Fs::real(), &path).unwrap();

    // Silent media rot: the read succeeds but one mid-file byte is flipped. The
    // per-section CRC must turn that into a typed error, never a loaded state.
    let (fs, _probe) = Fs::faulty(FaultPlan::none().with_rule(FaultRule {
        from_op: 0,
        to_op: u64::MAX,
        class: Some(OpClass::Read),
        kind: FaultKind::CorruptRead,
        once: false,
    }));
    let error = SnapshotFile::read(&fs, &path).unwrap_err();
    assert!(
        matches!(error, CkptError::CrcMismatch { .. }),
        "expected a CRC mismatch, got: {error}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Serving stack: a learning server under a fault at every I/O site.
// ---------------------------------------------------------------------------

struct WorkloadOutcome {
    decisions: Vec<ServeDecision>,
    fingerprint: Vec<u8>,
    healed: u64,
    degraded_rounds: u64,
}

/// Serves every context (decide via the retrying client, then feedback) against a
/// fresh live agent over a log in `dir` backed by `fs`, then shuts down gracefully.
fn run_serve_workload(
    fs: Fs,
    dir: &Path,
    dataset: &Dataset,
    contexts: &[ArrivalContext],
) -> Result<WorkloadOutcome, ServeError> {
    let server = Server::start(Box::new(live_agent(dataset)), serve_config(dir, fs))?;
    let client = server.client();
    let retry = RetryPolicy {
        deadline: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    let mut decisions = Vec::new();
    for context in contexts {
        let served = client.decide_with_retry(context, &retry)?;
        client
            .feedback(served.request_id, feedback_for(context, &served))
            .map_err(|_| ServeError::ShuttingDown)?;
        decisions.push(served);
    }
    let (policy, report) = server.shutdown();
    Ok(WorkloadOutcome {
        decisions,
        fingerprint: fingerprint(policy.as_ref()),
        healed: report.healed,
        degraded_rounds: report.degraded_rounds,
    })
}

/// I/O ops `Server::start` issues before any request is served (deterministic: the
/// log is created synchronously before the worker spawns).
fn ops_to_start(dataset: &Dataset) -> u64 {
    let dir = tmp_dir("start-probe");
    let (fs, probe) = Fs::faulty(FaultPlan::none());
    let server = Server::start(Box::new(frozen_agent(dataset)), serve_config(&dir, fs)).unwrap();
    let ops = probe.ops();
    server.kill();
    let _ = std::fs::remove_dir_all(&dir);
    ops
}

#[test]
fn a_fault_at_every_io_site_recovers_bit_identical_or_fails_typed() {
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 31, 8);
    assert_eq!(contexts.len(), 8);
    let start_ops = ops_to_start(&dataset);

    // Baseline: the same workload on a fault-free injected fs gives the op count to
    // sweep and the state every successful faulted run must land on.
    let clean_dir = tmp_dir("sweep-clean");
    let (fs, probe) = Fs::faulty(FaultPlan::none());
    let clean = run_serve_workload(fs, &clean_dir, &dataset, &contexts).unwrap();
    let total_ops = probe.ops();
    assert!(total_ops > start_ops, "serving must issue log I/O");
    std::fs::remove_dir_all(&clean_dir).unwrap();

    // Sweep a single class-appropriate fault (short write, failed fsync, failed
    // rename, …) at every site. Ops past `start_ops` are the serving phase: the
    // bounded in-server retry (`append_retrying` + tail heal) must absorb every one
    // of those without the client even noticing — and the log must still replay to
    // the live policy's exact state. Faults in the start phase may surface as typed
    // errors instead; the sweep runs two ops past the clean count to include the
    // nothing-fires edge.
    for n in 0..total_ops + 2 {
        let dir = tmp_dir(&format!("sweep-{n}"));
        let (fs, _probe) = Fs::faulty(FaultPlan::fail_op(n));
        match run_serve_workload(fs, &dir, &dataset, &contexts) {
            Ok(outcome) => {
                assert_eq!(
                    outcome.decisions, clean.decisions,
                    "fault at op {n}: served decisions diverged from the clean run"
                );
                assert_eq!(
                    outcome.fingerprint, clean.fingerprint,
                    "fault at op {n}: policy state diverged from the clean run"
                );
                let records = DecisionLog::read(&dir).unwrap();
                let mut replayed = live_agent(&dataset);
                replay_records(&mut replayed, &records).unwrap();
                assert_eq!(
                    fingerprint(&replayed),
                    clean.fingerprint,
                    "fault at op {n}: log replay diverged from the live state"
                );
            }
            Err(error) => {
                assert!(
                    n < start_ops,
                    "fault at serving-phase op {n} must be self-healed, got: {error}"
                );
                // The failure was loud and typed. Whatever the aborted start left on
                // disk must still read-and-replay cleanly or fail typed itself.
                if let Ok(records) = DecisionLog::read(&dir) {
                    replay_records(&mut live_agent(&dataset), &records).unwrap();
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_sustained_log_outage_degrades_heals_and_replays_bit_identical() {
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 47, 8);
    let start_ops = ops_to_start(&dataset);

    // Every fdatasync in a 40-op window starting at the first serving op fails: the
    // first round's group commit exhausts its bounded retries and the server goes
    // degraded. The retrying client keeps resubmitting; once the window passes, the
    // worker heals (backlog + degraded marker appended) and serving resumes.
    let dir = tmp_dir("outage");
    let (fs, _probe) = Fs::faulty(FaultPlan::fail_ops(
        start_ops,
        start_ops + 40,
        Some(OpClass::SyncData),
    ));
    let outcome = run_serve_workload(fs, &dir, &dataset, &contexts).unwrap();
    assert_eq!(outcome.decisions.len(), contexts.len());
    assert!(outcome.degraded_rounds >= 1, "outage never degraded");
    assert_eq!(outcome.healed, 1, "outage must heal exactly once");

    // The backlogged round executed on the policy even though its client was told to
    // retry, so the retried request got a later id — ids never fork.
    let ids: Vec<u64> = outcome.decisions.iter().map(|d| d.request_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate request ids served");

    // Log order is execution order even across the outage: replay lands exactly on
    // the live policy's state, and the degraded marker is there to prove the shed.
    let records = DecisionLog::read(&dir).unwrap();
    let mut replayed = live_agent(&dataset);
    let state = replay_records(&mut replayed, &records).unwrap();
    assert_eq!(state.degraded, 1, "degraded marker missing from the log");
    assert_eq!(
        fingerprint(&replayed),
        outcome.fingerprint,
        "replay across the outage diverged from the live state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_fsync_latency_slows_serving_but_changes_nothing() {
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 13, 5);
    let dir = tmp_dir("latency");
    let (fs, _probe) = Fs::faulty(FaultPlan::slow(OpClass::SyncData, Duration::from_millis(2)));
    let started = std::time::Instant::now();
    let outcome = run_serve_workload(fs, &dir, &dataset, &contexts).unwrap();
    assert!(
        started.elapsed() >= Duration::from_millis(10),
        "five synced rounds behind a 2ms fsync cannot finish in under 10ms"
    );
    assert_eq!(outcome.decisions.len(), 5);
    assert_eq!(outcome.degraded_rounds, 0, "latency is not an error");
    let records = DecisionLog::read(&dir).unwrap();
    let mut replayed = live_agent(&dataset);
    replay_records(&mut replayed, &records).unwrap();
    assert_eq!(fingerprint(&replayed), outcome.fingerprint);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Retry/backoff under saturation: nothing lost, nothing duplicated.
// ---------------------------------------------------------------------------

#[test]
fn retrying_clients_drain_a_saturated_server_without_loss_or_duplication() {
    let dataset = dataset();
    let n_threads = 4usize;
    let per_thread = 8usize;
    let contexts = collect_arrival_contexts(&dataset, 59, n_threads * per_thread);
    assert_eq!(contexts.len(), n_threads * per_thread);

    // A deliberately tiny server: one-slot ingress, one decision per round. Every
    // client sees Saturated constantly and leans on the backoff loop.
    let dir = tmp_dir("saturated");
    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        ..serve_config(&dir, Fs::real())
    };
    let server = Server::start(Box::new(frozen_agent(&dataset)), config).unwrap();

    let mut handles = Vec::new();
    for chunk in contexts.chunks(per_thread) {
        let client = server.client();
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            let retry = RetryPolicy {
                deadline: Duration::from_secs(30),
                ..RetryPolicy::default()
            };
            chunk
                .iter()
                .map(|context| {
                    client
                        .decide_with_retry(context, &retry)
                        .expect("retry loop outlasts saturation")
                        .request_id
                })
                .collect::<Vec<u64>>()
        }));
    }
    let mut ids: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let (_policy, report) = server.shutdown();

    // Every request was served exactly once: ids are a permutation of 0..32.
    ids.sort_unstable();
    let expected: Vec<u64> = (0..(n_threads * per_thread) as u64).collect();
    assert_eq!(ids, expected, "ids lost or duplicated under saturation");
    assert_eq!(report.decisions as usize, contexts.len());
    assert!(report.log_error.is_none());

    // And the log agrees: one decision record per request, ids strictly increasing.
    let records = DecisionLog::read(&dir).unwrap();
    let mut replayed = frozen_agent(&dataset);
    let state = replay_records(&mut replayed, &records).unwrap();
    assert_eq!(state.next_request_id as usize, contexts.len());
    assert_eq!(state.decisions as usize, contexts.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Log compaction: base image + suffix replay is bit-identical to full replay.
// ---------------------------------------------------------------------------

#[test]
fn compacted_log_recovery_is_bit_identical_to_full_replay() {
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 71, 20);
    assert_eq!(contexts.len(), 20);

    // Twin: the same 20 arrivals served without interruption or compaction.
    let twin_dir = tmp_dir("compact-twin");
    let server = Server::start(
        Box::new(live_agent(&dataset)),
        serve_config(&twin_dir, Fs::real()),
    )
    .unwrap();
    let client = server.client();
    let mut twin_decisions = Vec::new();
    for context in &contexts {
        let served = client.decide(context.clone()).unwrap();
        client
            .feedback(served.request_id, feedback_for(context, &served))
            .unwrap();
        twin_decisions.push(served);
    }
    let (twin_policy, _report) = server.shutdown();
    let twin_fingerprint = fingerprint(twin_policy.as_ref());

    // Interrupted run: 1-byte segment threshold (every batch rotates), an explicit
    // compaction mid-stream, a kill, a recovery from base + suffix, and a second
    // stretch under auto-compaction.
    let dir = tmp_dir("compact");
    let mut config = serve_config(&dir, Fs::real());
    config.log.as_mut().unwrap().segment_bytes = 1;
    let server = Server::start(Box::new(live_agent(&dataset)), config.clone()).unwrap();
    let client = server.client();
    let mut decisions = Vec::new();
    let mut withheld = None;
    for (i, context) in contexts[..15].iter().enumerate() {
        let served = client.decide(context.clone()).unwrap();
        if i + 1 < 15 {
            client
                .feedback(served.request_id, feedback_for(context, &served))
                .unwrap();
        } else {
            // The kill must land between an acked decide and its feedback.
            withheld = Some((served.request_id, feedback_for(context, &served)));
        }
        decisions.push(served);
        if i == 11 {
            let stats = client.compact().unwrap();
            assert!(stats.absorbed_segments >= 1, "nothing was compacted");
            assert!(stats.suffix_start >= 1);
        }
    }
    server.kill();

    // The full-replay reader refuses a compacted log (typed, not silent).
    assert!(
        DecisionLog::read(&dir).is_err(),
        "a compacted log must not full-replay silently"
    );

    // Recovery restores the policy from the base image and replays only the suffix.
    config.compact_after_segments = Some(4);
    let (server, recovery) =
        Server::recover(Box::new(live_agent(&dataset)), config.clone()).unwrap();
    assert!(
        recovery.compacted_suffix_start.is_some(),
        "recovery must have used the base image"
    );
    assert!(
        (recovery.replayed_decisions as usize) < 15,
        "suffix replay must be shorter than the full history"
    );
    let (withheld_id, withheld_feedback) = withheld.unwrap();
    assert!(
        recovery
            .pending_requests
            .iter()
            .any(|(id, _)| *id == withheld_id),
        "the request-id handshake must surface the unanswered decide"
    );

    // Resume exactly where the acks stopped; auto-compaction runs along the way.
    let client = server.client();
    client.feedback(withheld_id, withheld_feedback).unwrap();
    for context in &contexts[15..] {
        let served = client.decide(context.clone()).unwrap();
        client
            .feedback(served.request_id, feedback_for(context, &served))
            .unwrap();
        decisions.push(served);
    }
    let (policy, report) = server.shutdown();
    assert!(report.log_error.is_none());
    assert!(report.compactions >= 1, "auto-compaction never triggered");
    assert!(report.compact_error.is_none());

    assert_eq!(decisions, twin_decisions, "served decisions diverged");
    assert_eq!(
        fingerprint(policy.as_ref()),
        twin_fingerprint,
        "compacted-log run diverged from the uninterrupted twin"
    );

    // A second recovery over the auto-compacted log still lands on the same state.
    let (server, recovery) = Server::recover(Box::new(live_agent(&dataset)), config).unwrap();
    assert!(recovery.compacted_suffix_start.is_some());
    let (policy, _report) = server.shutdown();
    assert_eq!(
        fingerprint(policy.as_ref()),
        twin_fingerprint,
        "re-recovery over the auto-compacted log diverged"
    );

    std::fs::remove_dir_all(&twin_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Log recovery: a fault in every streamed segment read.
// ---------------------------------------------------------------------------

/// Every file in `dir` by name, with its bytes.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// Writes a decision log of two segments that each span more than one read chunk, and
/// returns its records in commit order.
fn write_two_segment_log(dir: &Path, contexts: &[Arc<ArrivalContext>]) -> Vec<LogRecord> {
    let mut config = LogConfig::new(dir);
    config.segment_bytes = (3 * READ_CHUNK / 2) as u64;
    config.sync_every_batch = false;
    let mut log = DecisionLog::create(config).unwrap();
    let mut records = Vec::new();
    let round = |log: &mut DecisionLog, records: &mut Vec<LogRecord>| {
        let start = records.len();
        for id in start..start + 4 {
            let context = &contexts[id % contexts.len()];
            records.push(LogRecord::Decision {
                request_id: id as u64,
                context: Arc::clone(context),
                shown: context.available.iter().take(3).map(|t| t.id).collect(),
                assignment: false,
            });
        }
        log.append(&records[start..]).unwrap();
    };
    let mut first_rounds = 0;
    while log.rotations() == 0 {
        round(&mut log, &mut records);
        first_rounds += 1;
    }
    // The round that rotated opened segment 1; three quarters of segment 0's rounds
    // more fill it past one chunk without reaching the rotation threshold.
    for _ in 1..first_rounds * 3 / 4 {
        round(&mut log, &mut records);
    }
    assert_eq!(log.rotations(), 1);
    log.sync().unwrap();
    records
}

#[test]
fn a_fault_in_every_streamed_log_read_fails_typed_or_replays_clean() {
    let dataset = dataset();
    let contexts: Vec<_> = collect_arrival_contexts(&dataset, 43, 16)
        .into_iter()
        .map(Arc::new)
        .collect();
    let dir = tmp_dir("read-sweep");
    let records = write_two_segment_log(&dir, &contexts);
    let files = dir_files(&dir);
    let chunks: u64 = files
        .values()
        .map(|bytes| (bytes.len() as u64).div_ceil(READ_CHUNK as u64))
        .sum();
    assert_eq!(files.len(), 2);
    assert!(
        files.values().all(|bytes| bytes.len() > READ_CHUNK),
        "each segment must span several read chunks"
    );

    // Recovers the log through `fs`; returns the records the sink saw and the outcome.
    let recover = |fs: Fs, synced: bool| {
        let mut config = LogConfig::new(&dir);
        config.fs = fs;
        config.sync_every_batch = synced;
        let mut replayed = Vec::new();
        let outcome = DecisionLog::recover(config, |event| {
            if let RecoveryEvent::Batch(batch) = event {
                replayed.extend(batch);
            }
            Ok(())
        })
        .map(|recovered| recovered.recovery);
        (replayed, outcome)
    };
    let (fs, probe) = Fs::faulty(FaultPlan::none());
    let (replayed, clean) = recover(fs, true);
    assert_eq!(
        replayed, records,
        "the unfaulted recovery replays every record"
    );
    assert_eq!(clean.unwrap().truncated_bytes, 0);
    let total_ops = probe.ops();
    assert!(
        dir_files(&dir) == files,
        "an unfaulted recovery changed the files"
    );

    // A failed and then a corrupted read at every op, under both sync settings (without
    // per-batch sync a damaged batch with valid ones behind it counts as a torn tail, so
    // a read that corrupts a whole frame must still not be truncated as one). Every
    // fired case is a typed error; the sink saw at most an intact prefix of the records
    // and every file is byte-identical. Reads are one per chunk per pass, so the first
    // `chunks(segment 0)` read ops validate segment 0 and the next as many decode it.
    let segment0_chunks = (files.values().next().unwrap().len() as u64).div_ceil(READ_CHUNK as u64);
    for kind in [FaultKind::Fail, FaultKind::CorruptRead] {
        for synced in [true, false] {
            let mut reads = Vec::new();
            for n in 0..total_ops {
                let (fs, probe) = Fs::faulty(FaultPlan::none().with_rule(FaultRule {
                    from_op: n,
                    to_op: n + 1,
                    class: Some(OpClass::Read),
                    kind,
                    once: true,
                }));
                let (replayed, outcome) = recover(fs, synced);
                assert!(
                    dir_files(&dir) == files,
                    "{kind:?} at op {n}: files changed"
                );
                if probe.fired().is_empty() {
                    assert_eq!(replayed, records, "op {n} is not a read: clean replay");
                    assert!(outcome.is_ok(), "op {n} is not a read: {outcome:?}");
                    continue;
                }
                let error = outcome.expect_err(&format!("{kind:?} at read op {n} must fail"));
                assert!(
                    matches!(error, ServeError::Log { .. }),
                    "{kind:?} at read op {n}: {error}"
                );
                assert!(
                    replayed.len() < records.len() && records.starts_with(&replayed),
                    "{kind:?} at read op {n}: the sink saw a record that is not on disk"
                );
                let second_pass = reads.len() as u64 >= segment0_chunks
                    && (reads.len() as u64) < 2 * segment0_chunks;
                if kind == FaultKind::CorruptRead && second_pass {
                    // The first pass validated segment 0; only the decoding read of its
                    // frames was corrupted, which the CRC re-check catches.
                    assert!(error.to_string().contains("CRC mismatch"), "{error}");
                }
                reads.push(n);
            }
            assert_eq!(
                reads.len() as u64,
                2 * chunks,
                "one read op per chunk per pass, whatever the batch count"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
