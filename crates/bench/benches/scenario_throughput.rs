//! Scenario-engine overhead benchmark: a stationary replay against a churn-heavy
//! scenario replay of the same dataset, reporting the one-off `ScenarioSpec::apply`
//! compile time and the per-arrival replay rate of each.
//!
//! The scenario engine is a pre-replay dataset transform — the hot loop is untouched —
//! so the only admissible costs are (a) the one-off compile and (b) second-order replay
//! effects of the perturbed stream itself (different pool sizes, different arrival
//! counts). The fence: the churn-heavy per-arrival rate stays within 2× of the
//! stationary rate (`overhead/churn_vs_stationary` in the JSON report, alongside
//! `replay_scale.json` in CI).
//!
//! `--smoke` (CI) shrinks to the tiny dataset; the full tier replays the
//! CrowdSpring-replica scale.

use std::time::Instant;

use crowd_bench::{criterion_group, criterion_main, record_value, smoke_mode, Criterion};
use crowd_experiments::named_scenarios;
use crowd_sim::{
    Dataset, DayNightCycle, Decision, Env, Platform, ScenarioSpec, SimConfig, MINUTES_PER_MONTH,
};

/// Rank the first `SHOWN` pool tasks per arrival — constant-work stand-in policy, so
/// the numbers isolate the environment, not a learner.
const SHOWN: usize = 64;

fn replay(env: &mut Platform) -> usize {
    let mut decision = Decision::new();
    let mut arrivals = 0usize;
    while env.next_arrival() {
        arrivals += 1;
        let view = env.arrival();
        if view.is_empty() {
            continue;
        }
        decision.clear();
        decision.extend((0..view.n_tasks().min(SHOWN)).map(|i| view.task_id(i)));
        env.apply(&decision);
    }
    env.flush();
    arrivals
}

fn platform(dataset: &Dataset) -> Platform {
    Platform::new(dataset.clone(), Platform::default_feature_space(dataset), 1)
}

/// A deliberately churn-heavy spec: every worker gets an availability window, demand
/// follows a day/night cycle with a mid-horizon surge, and the task mix drifts monthly.
fn churn_heavy_spec(dataset: &Dataset) -> ScenarioSpec {
    let horizon = dataset.horizon();
    let mut spec = ScenarioSpec::new(0xBEAC).with_day_night(DayNightCycle {
        day_from: 8 * 60,
        day_until: 20 * 60,
        day_rate: 1.4,
        night_rate: 0.6,
    });
    for worker in &dataset.workers {
        // Staggered churn: a third retires mid-way, a third joins late, a third stays.
        match worker.id.0 % 3 {
            0 => spec = spec.with_window(worker.id, 0, horizon / 2 + u64::from(worker.id.0)),
            1 => spec = spec.with_window(worker.id, horizon / 3, horizon),
            _ => {}
        }
    }
    let mut month = MINUTES_PER_MONTH;
    while month < horizon {
        spec = spec.with_drift(month, 1, 1.1);
        month += MINUTES_PER_MONTH;
    }
    spec.with_surge(horizon / 2, horizon / 2 + MINUTES_PER_MONTH, 2.0)
}

fn timed_replay(label: &str, dataset: &Dataset) -> f64 {
    let mut env = platform(dataset);
    let start = Instant::now();
    let arrivals = replay(&mut env);
    let elapsed = start.elapsed().as_secs_f64();
    let rate = arrivals as f64 / elapsed.max(1e-9);
    record_value(
        "scenario_throughput",
        &format!("{label}/arrivals_per_sec"),
        rate,
        "arrivals/s",
    );
    record_value(
        "scenario_throughput",
        &format!("{label}/arrivals"),
        arrivals as f64,
        "arrivals",
    );
    rate
}

fn bench_scenario_throughput(c: &mut Criterion) {
    let smoke = smoke_mode();
    let config = if smoke {
        SimConfig::tiny()
    } else {
        SimConfig::crowdspring_replica()
    };
    let dataset = config.generate();
    let spec = churn_heavy_spec(&dataset);

    // One-off scenario compile cost (the only pre-replay work the engine adds).
    let start = Instant::now();
    let churned = spec.apply(&dataset);
    record_value(
        "scenario_throughput",
        "apply/churn_heavy_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    let stationary_rate = timed_replay("stationary", &dataset);
    let churn_rate = timed_replay("churn_heavy", &churned);
    // The headline fence: per-arrival replay overhead of the churn-heavy stream.
    record_value(
        "scenario_throughput",
        "overhead/churn_vs_stationary",
        stationary_rate / churn_rate.max(1e-9),
        "x",
    );

    // Registry sweep: per-scenario compile cost at this tier.
    for scenario in named_scenarios(&dataset) {
        let start = Instant::now();
        let perturbed = scenario.spec.apply(&dataset);
        record_value(
            "scenario_throughput",
            &format!("apply/{}_ms", scenario.name),
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
        record_value(
            "scenario_throughput",
            &format!("apply/{}_arrivals", scenario.name),
            perturbed.n_arrivals() as f64,
            "arrivals",
        );
    }

    // Timed samples the harness can repeat: full tiny-tier replays of both streams.
    let mut group = c.benchmark_group("scenario_throughput");
    group.sample_size(10);
    group.bench_function("replay_stationary", |b| {
        b.iter(|| replay(&mut platform(&dataset)))
    });
    group.bench_function("replay_churn_heavy", |b| {
        b.iter(|| replay(&mut platform(&churned)))
    });
    group.bench_function("apply_churn_heavy", |b| b.iter(|| spec.apply(&dataset)));
    group.finish();
}

criterion_group!(benches, bench_scenario_throughput);
criterion_main!(benches);
