//! Crash recovery of the `crowd-serve` decision log: a killed server, restarted over
//! its log, must resume **bit-identical** to a server that never crashed — same
//! decisions, same policy parameters, same RNG stream. Torn tail records and torn
//! segment rotations (the two ways a crash can mangle the log's final bytes) must be
//! repaired silently, never replayed as data.
//!
//! The protocol driven here mirrors production use: a client `decide`s, gets an ack
//! (the ack barrier guarantees the decision is durable), submits the outcome as
//! feedback, and moves on. The kill always lands *between* an acked decide and its
//! feedback — acknowledged work is exactly the work recovery reproduces.

use crowd_bench::serve_fixtures::{
    dataset, feedback_for, fingerprint, frozen_agent, live_agent, tmp_dir,
};
use crowd_experiments::collect_arrival_contexts;
use crowd_serve::{
    replay_records, DecisionLog, LogConfig, ServeConfig, ServeDecision, ServeError, Server,
};
use crowd_sim::Dataset;
use crowd_tensor::ThreadPool;
use std::path::{Path, PathBuf};

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        pool: ThreadPool::from_env(),
        log: Some(LogConfig::new(dir)),
        ..ServeConfig::default()
    }
}

#[test]
fn killed_server_resumes_bit_identical_to_an_uninterrupted_one() {
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 31, 24);
    assert!(contexts.len() >= 16);
    let kill_at = contexts.len() / 2;

    // Run A — uninterrupted: decide + feedback for every arrival, graceful shutdown.
    let dir_a = tmp_dir("a");
    let server = Server::start(Box::new(live_agent(&dataset)), serve_config(&dir_a)).unwrap();
    let client = server.client();
    let mut decisions_a = Vec::new();
    for context in &contexts {
        let served = client.decide(context.clone()).unwrap();
        client
            .feedback(served.request_id, feedback_for(context, &served))
            .unwrap();
        decisions_a.push(served);
    }
    let (policy_a, report_a) = server.shutdown();
    assert_eq!(report_a.decisions as usize, contexts.len());
    assert_eq!(report_a.feedbacks as usize, contexts.len());
    let fingerprint_a = fingerprint(policy_a.as_ref());

    // Run B — killed mid-stream: the kill lands after decide(kill_at-1) was acked but
    // before its feedback was submitted, the exact boundary the ack barrier promises
    // to preserve.
    let dir_b = tmp_dir("b");
    let server = Server::start(Box::new(live_agent(&dataset)), serve_config(&dir_b)).unwrap();
    let client = server.client();
    let mut decisions_b = Vec::new();
    let mut withheld = None;
    for (i, context) in contexts[..kill_at].iter().enumerate() {
        let served = client.decide(context.clone()).unwrap();
        if i + 1 < kill_at {
            client
                .feedback(served.request_id, feedback_for(context, &served))
                .unwrap();
        } else {
            withheld = Some((served.request_id, feedback_for(context, &served)));
        }
        decisions_b.push(served);
    }
    let (_dead_policy, _report) = server.kill();

    // Recover over the same log with a freshly constructed agent.
    let (server, recovery) =
        Server::recover(Box::new(live_agent(&dataset)), serve_config(&dir_b)).unwrap();
    assert_eq!(recovery.replayed_decisions as usize, kill_at);
    assert_eq!(recovery.replayed_feedbacks as usize, kill_at - 1);
    assert_eq!(
        recovery.pending_after_replay, 1,
        "one decision awaits feedback"
    );
    assert_eq!(recovery.log.truncated_bytes, 0, "clean kill, no torn tail");

    // Continue exactly where the acks stopped: withheld feedback first, then the rest
    // of the stream.
    let client = server.client();
    let (id, feedback) = withheld.unwrap();
    // The request-id⇄client handshake: recovery hands back the replayed pending
    // request ids with their contexts, so a client that lost its own record of `id`
    // could rediscover it (and the context to rebuild the feedback from) here.
    assert_eq!(
        recovery
            .pending_requests
            .iter()
            .map(|(pending_id, _)| *pending_id)
            .collect::<Vec<_>>(),
        vec![id],
        "recovery must expose the withheld decision's request id"
    );
    client.feedback(id, feedback).unwrap();
    for context in &contexts[kill_at..] {
        let served = client.decide(context.clone()).unwrap();
        client
            .feedback(served.request_id, feedback_for(context, &served))
            .unwrap();
        decisions_b.push(served);
    }
    let (policy_b, report_b) = server.shutdown();
    assert!(report_b.log_error.is_none());

    // The interrupted run's decisions and final policy state match the uninterrupted
    // run bit for bit.
    assert_eq!(decisions_b, decisions_a, "served decisions diverged");
    assert_eq!(
        fingerprint(policy_b.as_ref()),
        fingerprint_a,
        "post-recovery policy state diverged from the uninterrupted run"
    );

    // RNG probe check on concrete agents: both logs replay into agents whose RNG
    // streams sit at the same position.
    let mut replay_a = live_agent(&dataset);
    replay_records(&mut replay_a, &DecisionLog::read(&dir_a).unwrap()).unwrap();
    let mut replay_b = live_agent(&dataset);
    replay_records(&mut replay_b, &DecisionLog::read(&dir_b).unwrap()).unwrap();
    assert_eq!(replay_a.rng_probe(), replay_b.rng_probe());
    assert_eq!(fingerprint(&replay_a), fingerprint_a);

    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

/// Serves `n` decisions (no feedback) against a frozen agent and kills the server,
/// leaving a log of `n` single-decision batches to mutilate.
fn build_log(dataset: &Dataset, dir: &Path, n: usize) -> Vec<ServeDecision> {
    let frozen = frozen_agent(dataset);
    let contexts = collect_arrival_contexts(dataset, 77, n);
    assert_eq!(contexts.len(), n);
    let server = Server::start(Box::new(frozen), serve_config(dir)).unwrap();
    let client = server.client();
    let decisions = contexts
        .iter()
        .map(|c| client.decide(c.clone()).unwrap())
        .collect();
    server.kill();
    decisions
}

/// The last segment file of a log directory, by index.
fn last_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wlog"))
        .collect();
    segments.sort();
    segments.pop().expect("log has at least one segment")
}

#[test]
fn torn_tail_record_is_truncated_and_serving_resumes() {
    let dataset = dataset();
    let dir = tmp_dir("torn");
    let n = 6;
    build_log(&dataset, &dir, n);
    let segment = last_segment(&dir);
    let full = std::fs::read(&segment).unwrap();

    // Cut the final record batch at every byte offset: 1 byte short of complete, down
    // to a single byte of its header. Every cut must recover to exactly n-1 decisions
    // with the torn bytes counted and removed.
    let records = DecisionLog::read(&dir).unwrap();
    assert_eq!(records.len(), n);
    let clean_len = full.len();
    // Find where the last batch starts by replaying the recovery scan on a copy
    // truncated to just before the end: the last batch is whatever recovery drops.
    for cut in 1..=24usize.min(clean_len - 20 - 1) {
        let torn_len = clean_len - cut;
        std::fs::write(&segment, &full[..torn_len]).unwrap();
        let (server, recovery) =
            Server::recover(Box::new(frozen_agent(&dataset)), serve_config(&dir)).unwrap();
        assert_eq!(
            recovery.replayed_decisions as usize,
            n - 1,
            "cut of {cut} bytes must drop exactly the final record batch"
        );
        assert_eq!(
            recovery.log.truncated_bytes as usize,
            torn_len - (clean_len - last_batch_len(&full, n)),
            "torn bytes accounted"
        );
        // The server resumes at the right request id and stays writable.
        let context = collect_arrival_contexts(&dataset, 77, n).pop().unwrap();
        let served = server.client().decide(context).unwrap();
        assert_eq!(served.request_id, (n - 1) as u64);
        server.kill();
        // Restore the pristine segment for the next cut.
        std::fs::write(&segment, &full).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Length in bytes of the final record batch (header + payload) of a segment whose
/// clean content holds `n` single-record batches: scan batch frames from offset 20.
fn last_batch_len(segment_bytes: &[u8], n: usize) -> usize {
    let mut offset = 20usize; // segment header
    let mut last = 0usize;
    for _ in 0..n {
        let len =
            u32::from_le_bytes(segment_bytes[offset..offset + 4].try_into().unwrap()) as usize;
        last = 8 + len;
        offset += last;
    }
    assert_eq!(
        offset,
        segment_bytes.len(),
        "frame walk must cover the file"
    );
    last
}

#[test]
fn torn_rotation_tmp_file_is_swept_and_recovery_proceeds() {
    let dataset = dataset();
    let dir = tmp_dir("rotation");
    let n = 4;
    build_log(&dataset, &dir, n);
    // A crash between tmp-create and rename leaves a half-written next segment.
    std::fs::write(
        dir.join("segment-00000001.wlog.tmp"),
        b"half-written header",
    )
    .unwrap();

    let (server, recovery) =
        Server::recover(Box::new(frozen_agent(&dataset)), serve_config(&dir)).unwrap();
    assert_eq!(recovery.log.removed_tmp, 1, "torn rotation artefact swept");
    assert_eq!(recovery.replayed_decisions as usize, n);
    server.kill();
    assert!(!dir.join("segment-00000001.wlog.tmp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_with_a_mismatched_policy_is_a_typed_error_not_a_fork() {
    // Replaying a log against a differently seeded/configured policy must fail loudly:
    // silently forking history would be far worse than refusing to start.
    let dataset = dataset();
    let dir = tmp_dir("mismatch");
    build_log(&dataset, &dir, 5);

    // The log was written by a frozen agent; a live (exploring) agent recomputes
    // different rankings and must be rejected.
    let result = Server::recover(Box::new(live_agent(&dataset)), serve_config(&dir));
    match result {
        Err(ServeError::Recovery { detail }) => {
            assert!(detail.contains("diverged"), "unexpected detail: {detail}");
        }
        Ok(_) => panic!("divergent replay must not recover"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_feedback_is_refused_at_the_boundary_and_the_log_replays_cleanly() {
    // A NaN quality gain becomes a NaN requester reward the learner refuses to train
    // on; NaN arrival features reach the explorer's sorts, which are no total order on
    // NaN; a task listed twice makes the decision ambiguous. The client refuses such
    // feedback and arrivals before anything is logged, decided or observed.
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 41, 16);
    let poisoned_at = contexts.len() / 2;
    let dir = tmp_dir("malformed");
    let server = Server::start(Box::new(live_agent(&dataset)), serve_config(&dir)).unwrap();
    let client = server.client();
    for (i, context) in contexts.iter().enumerate() {
        if i == poisoned_at {
            assert!(context.available.len() >= 2 && !context.worker_feature.is_empty());
            let mut nan_quality = context.clone();
            nan_quality.worker_quality = f32::NAN;
            let mut infinite_worker_feature = context.clone();
            infinite_worker_feature.worker_feature[0] = f32::INFINITY;
            let mut nan_task_feature = context.clone();
            nan_task_feature.available[1].feature[0] = f32::NAN;
            let mut nan_task_quality = context.clone();
            nan_task_quality.available[1].quality = f32::NAN;
            let mut infinite_award = context.clone();
            infinite_award.available[0].award = f32::NEG_INFINITY;
            let mut duplicate_task = context.clone();
            duplicate_task
                .available
                .push(duplicate_task.available[0].clone());
            let task = |k: usize| format!("task {}", context.available[k].id.0);
            for (bad, field) in [
                (nan_quality, "arrival worker_quality".to_string()),
                (
                    infinite_worker_feature,
                    "arrival worker_feature".to_string(),
                ),
                (nan_task_feature, format!("{} feature", task(1))),
                (nan_task_quality, format!("{} quality", task(1))),
                (infinite_award, format!("{} award", task(0))),
                (duplicate_task, format!("{} twice", task(0))),
            ] {
                for result in [client.decide(bad.clone()), client.try_decide(&bad)] {
                    match result {
                        Err(ServeError::Malformed { detail }) => {
                            assert!(detail.contains(&field), "unexpected detail: {detail}")
                        }
                        other => panic!("{field}: expected a typed Malformed error, got {other:?}"),
                    }
                }
            }
        }
        // Every decide after the refused requests must still be answered.
        let served = client.decide(context.clone()).unwrap();
        let feedback = feedback_for(context, &served);
        if i == poisoned_at {
            let mut nan_gain = feedback.clone();
            nan_gain.quality_gain = f32::NAN;
            let mut infinite_feature = feedback.clone();
            infinite_feature.worker_feature_after[0] = f32::INFINITY;
            for (bad, field) in [
                (nan_gain, "quality_gain"),
                (infinite_feature, "worker_feature_after"),
            ] {
                match client.feedback(served.request_id, bad) {
                    Err(ServeError::Malformed { detail }) => {
                        assert!(detail.contains(field), "unexpected detail: {detail}")
                    }
                    other => panic!("{field}: expected a typed Malformed error, got {other:?}"),
                }
            }
        }
        // The well-formed feedback for the same request is still accepted.
        client.feedback(served.request_id, feedback).unwrap();
    }
    let (policy, report) = server.shutdown();
    assert!(report.log_error.is_none());
    assert_eq!(report.decisions as usize, contexts.len());
    assert_eq!(report.feedbacks as usize, contexts.len());
    assert_eq!(report.unknown_feedbacks, 0);

    // The log holds only the well-formed history, and replays into the served state.
    let (server, recovery) =
        Server::recover(Box::new(live_agent(&dataset)), serve_config(&dir)).unwrap();
    assert_eq!(recovery.replayed_decisions as usize, contexts.len());
    assert_eq!(recovery.replayed_feedbacks as usize, contexts.len());
    assert_eq!(recovery.pending_after_replay, 0);
    let (recovered, _) = server.shutdown();
    assert_eq!(
        fingerprint(recovered.as_ref()),
        fingerprint(policy.as_ref()),
        "log recovery diverged from the served policy"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Starts a log-free server over the live agent, runs `refuse` against its client and
/// the first usable arrival, then serves that arrival well-formed: the refused requests
/// must have reached neither the policy nor the queue, so the server reports only the
/// `accepted` decide-and-feedback pairs `refuse` made plus the final one.
fn refuses_wrong_widths(
    accepted: u64,
    refuse: impl Fn(&crowd_serve::Client, &crowd_sim::ArrivalContext),
) {
    let dataset = dataset();
    let context = collect_arrival_contexts(&dataset, 43, 1).remove(0);
    let config = ServeConfig {
        pool: ThreadPool::from_env(),
        ..ServeConfig::default()
    };
    let server = Server::start(Box::new(live_agent(&dataset)), config).unwrap();
    let client = server.client();
    refuse(&client, &context);
    let served = client.decide(context.clone()).unwrap();
    client
        .feedback(served.request_id, feedback_for(&context, &served))
        .unwrap();
    let (_, report) = server.shutdown();
    let served = accepted + 1;
    assert_eq!((report.decisions, report.feedbacks), (served, served));
}

fn assert_malformed<T: std::fmt::Debug>(result: Result<T, ServeError>, field: &str) {
    match result {
        Err(ServeError::Malformed { detail }) => assert!(
            detail.contains(field) && detail.contains("wide"),
            "unexpected detail: {detail}"
        ),
        other => panic!("{field}: expected a typed Malformed error, got {other:?}"),
    }
}

#[test]
fn an_arrival_with_a_worker_feature_of_the_wrong_width_is_refused() {
    refuses_wrong_widths(0, |client, context| {
        let width = context.worker_feature.len();
        for delta in [-1, 1] {
            let mut bad = context.clone();
            bad.worker_feature
                .resize((width as i64 + delta) as usize, 0.5);
            assert_malformed(client.decide(bad.clone()), "arrival worker_feature");
            assert_malformed(client.try_decide(&bad), "arrival worker_feature");
            assert_malformed(
                client.decide_with_retry(&bad, &crowd_serve::RetryPolicy::default()),
                "arrival worker_feature",
            );
        }
    });
}

#[test]
fn an_arrival_with_a_task_feature_of_the_wrong_width_is_refused() {
    refuses_wrong_widths(0, |client, context| {
        let last = context.available.len() - 1;
        let mut long = context.clone();
        long.available[last].feature.push(0.25);
        let field = format!("task {} feature", context.available[last].id.0);
        assert_malformed(client.decide(long.clone()), &field);
        assert_malformed(client.try_decide(&long), &field);
        let mut short = context.clone();
        short.available[0].feature.pop();
        let field = format!("task {} feature", context.available[0].id.0);
        assert_malformed(client.decide(short), &field);
    });
}

#[test]
fn a_feedback_with_a_worker_feature_after_of_the_wrong_width_is_refused() {
    refuses_wrong_widths(1, |client, context| {
        // A feedback for an earlier, answered decision of the same arrival.
        let served = client.decide(context.clone()).unwrap();
        let feedback = feedback_for(context, &served);
        let mut long = feedback.clone();
        long.worker_feature_after.push(0.0);
        let mut short = feedback.clone();
        short.worker_feature_after.pop();
        for bad in [long, short] {
            assert_malformed(
                client.feedback(served.request_id, bad),
                "feedback worker_feature_after",
            );
        }
        client.feedback(served.request_id, feedback).unwrap();
    });
}
