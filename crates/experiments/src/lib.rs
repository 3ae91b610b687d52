//! Experiment harness: replays a synthetic dataset against any [`crowd_sim::Policy`] with the
//! paper's evaluation protocol (Sec. VII-B1) and regenerates every figure and table of the
//! evaluation section through the binaries in `src/bin/`.
//!
//! The replay loop is owned by the [`Session`] facade, which drives any policy against any
//! [`crowd_sim::Env`] through the zero-copy view interface; [`SessionBatch`] steps `N`
//! independent simulations in one call (per-session policies via
//! [`SessionBatch::step_all`], or one shared [`crowd_sim::BatchedPolicy`] deciding on every
//! live arrival in a single batched call via [`SessionBatch::step_batched`]), and
//! [`runner::run_policy`] is the one-shot convenience wrapper. `ARCHITECTURE.md` at the
//! repository root maps the whole layering, including where batched Q-network inference
//! plugs in.
//!
//! Protocol implemented by [`Session`]:
//!
//! 1. the first month of the event stream is the initialisation window: every arrival is
//!    served a random full-pool ranking, the resulting history initialises worker/task
//!    features (inside the platform) and is handed to the policy's `warm_start`;
//! 2. from month 1 on, the policy chooses an action per arrival, the cascade behaviour model
//!    produces feedback, metrics accumulate (per month and cumulatively), and the policy
//!    observes the feedback (RL methods update immediately; supervised methods retrain at the
//!    end-of-day hook);
//! 3. model update time and decision (inference) time are measured separately (Table I).

pub mod report;
pub mod runner;
pub mod scale;
pub mod scenarios;
pub mod session;

pub use report::{f1, f3, format_row, print_table};
pub use runner::{run_policy, RunOutcome, RunnerConfig};
// Shim: these lived in the (misnamed) `scenarios` module before it became the scenario
// registry; downstream bins import them from the crate root, which keeps working.
pub use scale::{
    collect_arrival_contexts, ddqn_config_for, ddqn_for, experiment_dataset, experiment_scale,
    experiment_shards, experiment_thread_pool, policies_for_benefit, Scale,
};
pub use scenarios::{
    named_scenarios, resume_scenario_session, scenario_checkpoint, scenario_dataset,
    scenario_session, scenario_session_sharded, NamedScenario,
};
pub use session::{run_policies_lockstep, Session, SessionBatch};
