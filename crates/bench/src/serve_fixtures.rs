//! Serving fixtures shared by the `crowd-serve` suites (`tests/serve_equivalence.rs`,
//! `tests/serve_recovery.rs`, `tests/fault_injection.rs`) and the `serve_load` binary,
//! so the agents, the synthetic feedback and the fingerprint cannot drift apart.

use crowd_experiments::{ddqn_config_for, ddqn_for, Scale};
use crowd_rl_core::DdqnAgent;
use crowd_serve::ServeDecision;
use crowd_sim::{ArrivalContext, Dataset, Policy, PolicyFeedback, SimConfig};
use std::path::PathBuf;

/// The Tiny generated dataset the serving suites run on.
pub fn dataset() -> Dataset {
    SimConfig::tiny().generate()
}

/// A live Tiny agent (learning ON, exploration ON): every decision draws RNG and every
/// feedback runs learner ticks — the hardest state to reproduce bit-exactly.
pub fn live_agent(dataset: &Dataset) -> DdqnAgent {
    ddqn_for(dataset, ddqn_config_for(Scale::Tiny))
}

/// A frozen twin of [`live_agent`]: no learning and no exploration, so `act` is a pure
/// function of the fixed initial parameters and consumes no RNG — a decision depends
/// only on its own arrival, never on the order of the others.
pub fn frozen_agent(dataset: &Dataset) -> DdqnAgent {
    let mut agent = live_agent(dataset);
    agent.freeze_learning();
    agent.freeze_exploration();
    agent
}

/// Deterministic synthetic outcome for a served decision: the worker completes the
/// top-ranked task.
pub fn feedback_for(context: &ArrivalContext, decision: &ServeDecision) -> PolicyFeedback {
    PolicyFeedback {
        time: context.time,
        worker_id: context.worker_id,
        worker_quality: context.worker_quality,
        shown: decision.shown.clone(),
        completed: decision.shown.first().map(|&t| (t, 0)),
        quality_gain: 0.125,
        worker_feature_before: context.worker_feature.clone(),
        worker_feature_after: context.worker_feature.clone(),
    }
}

/// The complete *semantic* state of a policy as bytes — bit-equality of fingerprints is
/// bit-equality of parameters, optimizer moments, replay memory and RNG streams.
/// Checkpoints hold no wall-clock readings, so the plain encoding is the fingerprint.
pub fn fingerprint(policy: &dyn Policy) -> Vec<u8> {
    let mut w = crowd_ckpt::StateWriter::new();
    policy
        .checkpoint_state(&mut w)
        .expect("policy supports checkpointing");
    w.into_bytes()
}

/// A fresh temp directory path for one test (removed if it exists). The process and
/// thread ids in the name keep concurrent tests and test binaries apart.
pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "crowd-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
