//! Memory fence for decision-log recovery. `DecisionLog::recover` streams each segment
//! through one fixed read buffer and holds one batch frame at a time, so recovering a
//! log of several full 8 MiB segments must not raise the process's peak resident set
//! (`VmHWM`) by anything near a segment. The fence is the only test in this binary:
//! `VmHWM` is per process, and a concurrently running test would move it.

use crowd_bench::peak_rss_bytes;
use crowd_bench::serve_fixtures::tmp_dir;
use crowd_experiments::collect_arrival_contexts;
use crowd_serve::{DecisionLog, LogConfig, LogRecord, RecoveryEvent};
use crowd_sim::SimConfig;
use std::sync::Arc;

/// Decision records per appended batch (one serving round).
const ROUND: usize = 8;
/// The bound on `VmHWM` growth across the recovery: a quarter of one segment.
const MAX_GROWTH_BYTES: u64 = 2 << 20;

#[test]
fn recovering_a_multi_segment_log_raises_peak_rss_by_less_than_a_segment() {
    let Some(_) = peak_rss_bytes() else {
        eprintln!("no /proc/self/status: the memory fence cannot measure here");
        return;
    };
    let contexts: Vec<_> = collect_arrival_contexts(&SimConfig::small().generate(), 17, 64)
        .into_iter()
        .map(Arc::new)
        .collect();
    assert_eq!(contexts.len(), 64);

    // Small-tier decision rounds until three segments are full and sealed (each rotation
    // happens once a segment has reached `segment_bytes`) and a fourth has begun.
    let dir = tmp_dir("recovery-memory");
    let mut config = LogConfig::new(&dir);
    config.sync_every_batch = false;
    let segment_bytes = config.segment_bytes;
    assert_eq!(
        segment_bytes,
        8 << 20,
        "the fence is sized for 8 MiB segments"
    );
    let mut log = DecisionLog::create(config.clone()).unwrap();
    let mut decisions = 0u64;
    while log.rotations() < 3 {
        let round: Vec<LogRecord> = (0..ROUND)
            .map(|_| {
                let context = &contexts[decisions as usize % contexts.len()];
                let record = LogRecord::Decision {
                    request_id: decisions,
                    context: Arc::clone(context),
                    shown: context.available.iter().take(5).map(|t| t.id).collect(),
                    assignment: false,
                };
                decisions += 1;
                record
            })
            .collect();
        log.append(&round).unwrap();
    }
    log.sync().unwrap();
    drop(log);

    let before = peak_rss_bytes().unwrap();
    let mut replayed = 0u64;
    let recovered = DecisionLog::recover(config, |event| {
        if let RecoveryEvent::Batch(records) = event {
            replayed += records.len() as u64;
        }
        Ok(())
    })
    .unwrap();
    let after = peak_rss_bytes().unwrap();
    assert_eq!(
        replayed, decisions,
        "every logged decision reaches the sink"
    );
    assert_eq!(recovered.recovery.segments, 4);
    assert_eq!(recovered.recovery.truncated_bytes, 0);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();

    let growth = after.saturating_sub(before);
    assert!(
        growth < MAX_GROWTH_BYTES,
        "recovering {decisions} decisions over 4 segments raised VmHWM by {:.2} MiB \
         (from {:.2} to {:.2} MiB); the bound is {} MiB",
        growth as f64 / (1 << 20) as f64,
        before as f64 / (1 << 20) as f64,
        after as f64 / (1 << 20) as f64,
        MAX_GROWTH_BYTES >> 20
    );
}
