//! Standalone load generator for the `crowd-serve` decision service: replays Poisson or
//! bursty (MMPP) open-loop traffic from N concurrent client threads against a live
//! server and reports the decision-latency distribution (p50/p99/p999) plus achieved
//! throughput.
//!
//! Where `benches/serve_latency.rs` sweeps a fixed grid for CI, this binary is the
//! hands-on tool: pick a pattern, a rate and a client count, optionally attach a durable
//! decision log or enable online learning, and watch the tail latencies.
//!
//! ```text
//! cargo run --release -p crowd-bench --bin serve_load -- \
//!     --pattern bursty --rate 5000 --clients 8 --arrivals 20000 --learn --log /tmp/dlog
//! ```
//!
//! `--rate` is arrivals/second aggregate across all clients (5 000/s ≈ 432 M/day: the
//! service's target envelope is millions of arrivals per day, so second-scale rates in
//! the thousands stress well past it). The pool comes from `--threads`/`CROWD_THREADS`.
//!
//! Self-healing knobs: `--retry` sends every request through
//! [`Client::decide_with_retry`] (bounded exponential backoff on `Saturated`/`Degraded`
//! answers — requests that never touched the policy), counting requests still shed at
//! the deadline instead of aborting; `--shed-ms <n>` arms the staleness bound
//! (`ServeConfig::shed_staler_than`), so decides older than `n` ms are answered
//! `Degraded` rather than served on stale state. Together they show the
//! degrade-shed-heal loop under a rate the service cannot sustain.
//!
//! [`Client::decide_with_retry`]: crowd_serve::Client::decide_with_retry

use crowd_bench::serve_fixtures::{dataset, feedback_for, frozen_agent, live_agent};
use crowd_bench::LatencyHistogram;
use crowd_experiments::collect_arrival_contexts;
use crowd_serve::{ArrivalSchedule, LogConfig, RetryPolicy, ServeConfig, Server, TrafficPattern};
use crowd_tensor::ThreadPool;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Options {
    pattern: &'static str,
    rate: f64,
    clients: usize,
    arrivals: usize,
    learn: bool,
    log: Option<PathBuf>,
    retry: bool,
    shed_ms: Option<u64>,
}

impl Options {
    fn from_args() -> Self {
        let mut opts = Options {
            pattern: "poisson",
            rate: 2_000.0,
            clients: 4,
            arrivals: 8_000,
            learn: false,
            log: None,
            retry: false,
            shed_ms: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{flag} expects a value"))
            };
            match arg.as_str() {
                "--pattern" => {
                    opts.pattern = match value("--pattern").as_str() {
                        "poisson" => "poisson",
                        "bursty" => "bursty",
                        other => panic!("--pattern must be poisson or bursty (got {other:?})"),
                    }
                }
                "--rate" => opts.rate = value("--rate").parse().expect("--rate: number"),
                "--clients" => {
                    opts.clients = value("--clients").parse().expect("--clients: integer")
                }
                "--arrivals" => {
                    opts.arrivals = value("--arrivals").parse().expect("--arrivals: integer")
                }
                "--learn" => opts.learn = true,
                "--log" => opts.log = Some(PathBuf::from(value("--log"))),
                "--retry" => opts.retry = true,
                "--shed-ms" => {
                    opts.shed_ms = Some(value("--shed-ms").parse().expect("--shed-ms: integer"))
                }
                other => panic!("unknown argument {other:?} (see module docs for usage)"),
            }
        }
        assert!(opts.clients > 0, "--clients must be positive");
        assert!(opts.rate > 0.0, "--rate must be positive");
        opts
    }

    /// The per-client traffic pattern: an even share of the aggregate rate.
    fn client_pattern(&self) -> TrafficPattern {
        let share = self.rate / self.clients as f64;
        match self.pattern {
            "poisson" => TrafficPattern::Poisson { rate: share },
            _ => TrafficPattern::Bursty {
                base_rate: share * 0.4,
                burst_rate: share * 3.0,
                mean_burst_secs: 0.05,
                mean_quiet_secs: 0.15,
            },
        }
    }
}

fn main() {
    let opts = Options::from_args();
    let dataset = dataset();
    let contexts = collect_arrival_contexts(&dataset, 0xCAFE, 64);
    assert!(!contexts.is_empty(), "tiny dataset produced no arrivals");

    let policy = if opts.learn {
        live_agent(&dataset)
    } else {
        frozen_agent(&dataset)
    };
    let config = ServeConfig {
        pool: ThreadPool::from_env(),
        log: opts.log.clone().map(LogConfig::new),
        shed_staler_than: opts.shed_ms.map(Duration::from_millis),
        ..ServeConfig::default()
    };
    let server = Server::start(Box::new(policy), config).expect("server start failed");

    let pattern = opts.client_pattern();
    let per_client = opts.arrivals.div_ceil(opts.clients);
    println!(
        "serve_load: {} aggregate {:.0}/s ({:.1} M/day), {} clients x {} arrivals, learn={}, log={}",
        opts.pattern,
        opts.rate,
        opts.rate * 86_400.0 / 1e6,
        opts.clients,
        per_client,
        opts.learn,
        opts.log.as_deref().map(|p| p.display().to_string()).unwrap_or_else(|| "off".into()),
    );

    let start = Instant::now();
    let histograms = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_index in 0..opts.clients {
            let client = server.client();
            let contexts = &contexts;
            let learn = opts.learn;
            let retry = opts.retry;
            handles.push(scope.spawn(move || {
                let retry_policy = RetryPolicy::default();
                let mut histogram = LatencyHistogram::new();
                let mut shed = 0u64;
                let schedule = ArrivalSchedule::new(pattern, 0x10AD_0000 + client_index as u64);
                // The schedule yields each arrival's offset from the stream start.
                for (k, offset) in schedule.take(per_client).enumerate() {
                    let target = start + offset;
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let context =
                        contexts[(client_index + k * opts.clients) % contexts.len()].clone();
                    let submitted = Instant::now();
                    let result = if retry {
                        client.decide_with_retry(&context, &retry_policy)
                    } else {
                        client.decide(context.clone())
                    };
                    let served = match result {
                        Ok(served) => served,
                        // A Saturated/Degraded answer means the request never touched
                        // the policy — count it shed and move on; any other error is a
                        // real failure.
                        Err(crowd_serve::ServeError::Saturated)
                        | Err(crowd_serve::ServeError::Degraded { .. }) => {
                            shed += 1;
                            continue;
                        }
                        Err(err) => panic!("decide failed: {err}"),
                    };
                    histogram.record(submitted.elapsed());
                    if learn {
                        client
                            .feedback(served.request_id, feedback_for(&context, &served))
                            .expect("feedback failed");
                    }
                }
                (histogram, shed)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed();
    let (_policy, report) = server.shutdown();

    let mut merged = LatencyHistogram::new();
    let mut client_shed = 0u64;
    for (h, shed) in &histograms {
        merged.merge(h);
        client_shed += shed;
    }
    println!("latency: {}", merged.summary());
    println!(
        "throughput: {:.0}/s achieved over {:.2}s; {} rounds, mean {:.2} / max {} decisions per round",
        merged.count() as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64(),
        report.rounds,
        report.mean_round_decisions(),
        report.max_round_decisions,
    );
    if let Some(err) = report.log_error {
        eprintln!("decision log error: {err}");
        std::process::exit(1);
    }
    if opts.log.is_some() {
        println!(
            "decision log: {} record batches, {} segment rotations",
            report.log_batches, report.log_rotations
        );
    }
    if client_shed > 0 || report.shed_decides > 0 || report.healed > 0 {
        println!(
            "shedding: {client_shed} requests gave up at the retry deadline; server shed {} decides / {} feedbacks over {} degraded rounds, {} outages healed",
            report.shed_decides, report.shed_feedbacks, report.degraded_rounds, report.healed,
        );
    }
}
