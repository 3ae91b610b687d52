//! End-to-end decision latency and saturation throughput of the `crowd-serve`
//! micro-batching service — the serving-path companion to `batched_inference` (which
//! measures the raw Q-network batch forward without queueing).
//!
//! Two phases per (traffic pattern × client count) cell:
//!
//! * **Open-loop latency** — each client thread replays an [`ArrivalSchedule`]
//!   (Poisson or bursty MMPP, time-compressed so the bench models
//!   millions-of-arrivals/day rates in under a second of wall clock), sleeping until
//!   each scheduled arrival and then issuing a blocking `decide`. The recorded latency
//!   is submit→ack: ingress queueing + micro-batch coalescing window + the packed
//!   forward pass + the ack hop. Per-client [`LatencyHistogram`]s merge into one
//!   p50/p99/p999 report per cell.
//! * **Closed-loop saturation** — the same clients issue back-to-back decides with no
//!   think time; the aggregate decisions/second is the service's max sustained
//!   throughput at that concurrency.
//!
//! The policy is a frozen DDQN agent (learning and exploration off): latency jitter
//! from learner ticks would otherwise drown the queueing behaviour this bench isolates,
//! and `update_latency` already measures the learners.
//!
//! The main pattern × client sweep runs **without** a decision log — it measures the
//! pure compute path. A second sweep then re-runs the Poisson cells against two durable
//! backends: `durable_log` (a real decision log, fsync per batch — the price of the ack
//! barrier) and `slow_fsync` (the same log through `Fs::faulty` with a deterministic
//! 2 ms latency injected at every `SyncData` site — how tail latency degrades when the
//! device's flush path slows down, without needing a slow device). Every cell's
//! p50/p99/p999 and achieved rate go through `record_value`, so a `--json` /
//! `CROWD_BENCH_JSON` report tracks all three backends.
//!
//! Smoke mode (`--smoke` / `CROWD_BENCH_SMOKE=1`) shrinks arrivals per cell so CI can
//! build and run the bench quickly; the printed numbers are then meaningless.

use crowd_bench::{record_value, smoke_mode, write_json_report, LatencyHistogram};
use crowd_ckpt::{FaultPlan, Fs, OpClass};
use crowd_experiments::{collect_arrival_contexts, ddqn_config_for, ddqn_for, Scale};
use crowd_serve::{ArrivalSchedule, LogConfig, ServeConfig, Server, TrafficPattern};
use crowd_sim::{ArrivalContext, SimConfig};
use crowd_tensor::ThreadPool;
use std::time::{Duration, Instant};

/// One open-loop latency cell: `n_clients` threads replay disjoint-seeded schedules of
/// `pattern` (aggregate arrival rate split evenly), each recording submit→ack latency.
fn latency_cell(
    contexts: &[ArrivalContext],
    server: &Server,
    pattern: &TrafficPattern,
    n_clients: usize,
    arrivals_per_client: usize,
) -> (LatencyHistogram, f64) {
    let start = Instant::now();
    let histograms = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_index in 0..n_clients {
            let client = server.client();
            let pattern = *pattern;
            handles.push(scope.spawn(move || {
                let mut histogram = LatencyHistogram::new();
                let schedule = ArrivalSchedule::new(pattern, 0xBE7C_0000 + client_index as u64);
                // The schedule yields each arrival's offset from the stream start.
                for (k, offset) in schedule.take(arrivals_per_client).enumerate() {
                    let target = start + offset;
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let context = contexts[(client_index + k * n_clients) % contexts.len()].clone();
                    let submitted = Instant::now();
                    client.decide(context).expect("serve decide failed");
                    histogram.record(submitted.elapsed());
                }
                histogram
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed();
    let mut merged = LatencyHistogram::new();
    for h in &histograms {
        merged.merge(h);
    }
    let achieved = merged.count() as f64 / elapsed.as_secs_f64();
    (merged, achieved)
}

/// Closed-loop saturation: `n_clients` threads issue `per_client` decides back to back;
/// returns aggregate decisions/second.
fn saturation_cell(
    contexts: &[ArrivalContext],
    server: &Server,
    n_clients: usize,
    per_client: usize,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client_index in 0..n_clients {
            let client = server.client();
            scope.spawn(move || {
                for k in 0..per_client {
                    let context = contexts[(client_index + k * n_clients) % contexts.len()].clone();
                    client.decide(context).expect("serve decide failed");
                }
            });
        }
    });
    (n_clients * per_client) as f64 / start.elapsed().as_secs_f64()
}

/// Splits an aggregate traffic pattern evenly across `n_clients` replaying threads.
fn per_client_share(pattern: &TrafficPattern, n_clients: usize) -> TrafficPattern {
    let share = 1.0 / n_clients as f64;
    match *pattern {
        TrafficPattern::Poisson { rate } => TrafficPattern::Poisson { rate: rate * share },
        TrafficPattern::Bursty {
            base_rate,
            burst_rate,
            mean_burst_secs,
            mean_quiet_secs,
        } => TrafficPattern::Bursty {
            base_rate: base_rate * share,
            burst_rate: burst_rate * share,
            mean_burst_secs,
            mean_quiet_secs,
        },
    }
}

/// A fresh frozen-DDQN server for one cell, optionally with a decision log attached.
fn start_server(dataset: &crowd_sim::Dataset, log: Option<LogConfig>) -> Server {
    let mut policy = ddqn_for(dataset, ddqn_config_for(Scale::Tiny));
    policy.freeze_learning();
    policy.freeze_exploration();
    Server::start(
        Box::new(policy),
        ServeConfig {
            pool: ThreadPool::from_env(),
            log,
            ..ServeConfig::default()
        },
    )
    .expect("server start failed")
}

/// Puts one latency cell's tail percentiles and achieved rate into the JSON report
/// ([`record_value`] also prints them in the `group/label` style).
fn record_cell(label: &str, histogram: &mut LatencyHistogram, achieved: f64) {
    record_value(
        "serve_latency",
        &format!("{label}/p50"),
        histogram.p50().as_nanos() as f64,
        "ns",
    );
    record_value(
        "serve_latency",
        &format!("{label}/p99"),
        histogram.p99().as_nanos() as f64,
        "ns",
    );
    record_value(
        "serve_latency",
        &format!("{label}/p999"),
        histogram.p999().as_nanos() as f64,
        "ns",
    );
    record_value(
        "serve_latency",
        &format!("{label}/achieved"),
        achieved,
        "decisions/s",
    );
}

fn main() {
    let smoke = smoke_mode();
    let arrivals_per_client = if smoke { 25 } else { 1200 };
    let saturation_per_client = if smoke { 25 } else { 1000 };
    let client_counts: &[usize] = &[1, 2, 4];

    let dataset = SimConfig::tiny().generate();
    let contexts = collect_arrival_contexts(&dataset, 0xCAFE, 64);
    assert!(!contexts.is_empty(), "tiny dataset produced no arrivals");

    // Aggregate rates are time-compressed: 2 000/s sustained ≈ 172.8 M arrivals/day,
    // i.e. the bench replays a day-scale stream in well under a second per cell.
    let patterns = [
        TrafficPattern::Poisson { rate: 2_000.0 },
        TrafficPattern::Bursty {
            base_rate: 800.0,
            burst_rate: 6_000.0,
            mean_burst_secs: 0.05,
            mean_quiet_secs: 0.15,
        },
    ];

    for pattern in &patterns {
        for &n_clients in client_counts {
            let per_client_pattern = per_client_share(pattern, n_clients);
            let server = start_server(&dataset, None);

            let (mut histogram, achieved) = latency_cell(
                &contexts,
                &server,
                &per_client_pattern,
                n_clients,
                arrivals_per_client,
            );
            let summary = histogram.summary();
            println!(
                "serve_latency/{}/{}clients: {} achieved={:.0}/s (target {:.0}/s)",
                pattern.label(),
                n_clients,
                summary,
                achieved,
                pattern.mean_rate(),
            );
            record_cell(
                &format!("{}/{}clients", pattern.label(), n_clients),
                &mut histogram,
                achieved,
            );

            let throughput = saturation_cell(&contexts, &server, n_clients, saturation_per_client);
            let (_policy, report) = server.shutdown();
            assert_eq!(
                report.decisions as usize,
                n_clients * (arrivals_per_client + saturation_per_client)
            );
            record_value(
                "serve_latency",
                &format!("saturation/{n_clients}clients"),
                throughput,
                "decisions/s",
            );
            println!(
                "serve_latency/saturation/{}clients: max round {} (closed loop)",
                n_clients, report.max_round_decisions,
            );
        }
    }

    // Durable-backend sweep: the Poisson cells again, but with a decision log attached.
    // `durable_log` pays a real fsync per committed batch (the ack-barrier price);
    // `slow_fsync` routes the same log through a faulty `Fs` that injects a
    // deterministic 2 ms latency at every `SyncData` site — the tail-latency profile of
    // a degraded flush path, reproducible on any machine. Batches coalesced per round
    // amortise the sync, so p999 should move far more than p50.
    let log_arrivals = if smoke { 25 } else { 400 };
    let poisson = TrafficPattern::Poisson { rate: 2_000.0 };
    let scratch = std::env::temp_dir().join(format!("serve_latency_bench_{}", std::process::id()));
    let backends: [(&str, Fs); 2] = [
        ("durable_log", Fs::real()),
        (
            "slow_fsync",
            Fs::faulty(FaultPlan::slow(OpClass::SyncData, Duration::from_millis(2))).0,
        ),
    ];
    for (backend, fs) in &backends {
        for &n_clients in client_counts {
            let dir = scratch.join(format!("{backend}_{n_clients}"));
            let mut log_config = LogConfig::new(&dir);
            log_config.fs = fs.clone();
            let server = start_server(&dataset, Some(log_config));

            let per_client_pattern = per_client_share(&poisson, n_clients);
            let (mut histogram, achieved) = latency_cell(
                &contexts,
                &server,
                &per_client_pattern,
                n_clients,
                log_arrivals,
            );
            let (_policy, report) = server.shutdown();
            assert_eq!(report.decisions as usize, n_clients * log_arrivals);
            assert_eq!(report.log_error, None, "decision log failed during bench");
            record_cell(
                &format!("{backend}/{n_clients}clients"),
                &mut histogram,
                achieved,
            );
            println!(
                "serve_latency/{}/{}clients: {} ({} log batches)",
                backend,
                n_clients,
                histogram.summary(),
                report.log_batches,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    write_json_report();
}
