//! Scenario replay: the same policy run under every registered non-stationary scenario
//! (worker churn, demand surges, day/night cycles, task-mix drift), demonstrating the
//! scenario engine's contract — **a scenario is a pre-replay dataset transform, never a
//! hot-loop branch**. The `stationary` entry is the no-op spec, and its fingerprint is
//! bit-identical to a plain replay of the untouched dataset; every other scenario is
//! deterministic (rerun this example and the fingerprints repeat) and replays through
//! the exact same zero-copy `Env` path.
//!
//! Spec format and determinism contract: `docs/SCENARIOS.md`. The full policy
//! comparison (DDQN vs all five baselines per scenario) is the `scenario_table` bin.
//!
//! Run with: `cargo run --release -p crowd-experiments --example scenario_replay`

use crowd_baselines::{Benefit, LinUcb, ListMode};
use crowd_experiments::{named_scenarios, RunnerConfig, Session};
use crowd_sim::{Env, SimConfig};

fn main() {
    let dataset = SimConfig::tiny().generate();
    let config = RunnerConfig::default();
    let make_policy = || LinUcb::new(Benefit::Worker, ListMode::RankAll, 0.5);

    // Reference: the unperturbed dataset.
    let mut reference = Session::for_dataset(&dataset, &config);
    reference.run(&mut make_policy());
    let summary = reference.metrics().summary();
    let env = reference.env_mut();
    env.flush();
    let baseline_fingerprint = env.canonical_fingerprint();
    println!(
        "{:<16}: CR {:.3}  arrivals {:>5}  fingerprint {baseline_fingerprint:08x}  (baseline)",
        "unperturbed",
        summary.cr,
        dataset.n_arrivals(),
    );

    // Every registered scenario — the engine transforms the dataset up front, and the
    // replay runs the same `Platform` hot loop (tests/scenario_equivalence.rs pins each
    // run to frozen probes).
    for scenario in named_scenarios(&dataset) {
        let perturbed = scenario.dataset(&dataset);
        let mut session = Session::for_dataset(&perturbed, &config);
        session.run(&mut make_policy());
        let summary = session.metrics().summary();
        let env = session.env_mut();
        Env::flush(env);
        let fingerprint = env.canonical_fingerprint();
        println!(
            "{:<16}: CR {:.3}  arrivals {:>5}  fingerprint {fingerprint:08x}  ({})",
            scenario.name,
            summary.cr,
            perturbed.n_arrivals(),
            scenario.description,
        );
        // The no-op spec really is a no-op: same bits as the baseline replay.
        if scenario.name == "stationary" {
            assert_eq!(fingerprint, baseline_fingerprint);
        }
    }
}
