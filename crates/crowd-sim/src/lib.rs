//! Crowdsourcing platform simulator.
//!
//! The paper evaluates on a crawled CrowdSpring dataset that is not public, and — like the
//! paper's own offline replay — needs a behavioural assumption about which task an arriving
//! worker completes. This crate provides the full substrate:
//!
//! * entity types ([`Task`], [`Worker`]) and the time-ordered event stream of task creations,
//!   task expirations and worker arrivals ([`Event`]);
//! * feature construction exactly as Sec. IV-A describes (one-hot category ⊕ one-hot domain ⊕
//!   discretised award for tasks; decayed distribution of recently completed task features
//!   for workers) in [`features`];
//! * the cascade browsing / latent-utility behaviour model in [`behavior`];
//! * Dixit–Stiglitz task quality (Eq. 5) in [`quality`];
//! * a synthetic CrowdSpring-replica generator calibrated to the statistics the paper reports
//!   (Fig. 5/6) in [`generator`], plus the resampling and quality-perturbation knobs used by
//!   the synthetic experiments (Fig. 10);
//! * non-stationary scenario dynamics in [`dynamics`]: a [`ScenarioSpec`] compiles worker
//!   churn / availability windows, demand surges with a day/night cycle, and task-mix drift
//!   into a perturbed dataset *before* the replay, so every environment replays scenarios
//!   through the unchanged zero-copy hot loop;
//! * the zero-copy environment layer in [`mod@env`]: the [`Env`] trait, borrowed
//!   [`ArrivalView`] / [`FeedbackView`] / [`TaskRef`] views into platform storage, and the
//!   reusable [`Decision`] buffer — the hot decision loop performs no per-arrival clones;
//! * the [`Platform`] environment that replays the event stream over struct-of-arrays
//!   state (a task-feature arena, a worker-feature arena, quality arrays — one f32 layout
//!   indexed by global id) and implements [`Env`];
//! * the [`Policy`] trait implemented by the DDQN agent (`crowd-rl-core`) and all baselines
//!   (`crowd-baselines`);
//! * dataset statistics used to regenerate Fig. 5 and Fig. 6 in [`stats`].
//!
//! How this crate's `Env`/`Policy` layer composes with the `Session` replay facade and the
//! batched-inference path above it is mapped end to end in `ARCHITECTURE.md` at the
//! repository root.
//!
//! The canonical interaction loop:
//!
//! ```
//! use crowd_sim::{Decision, Env, Platform, SimConfig};
//!
//! let dataset = SimConfig::tiny().generate();
//! let features = Platform::default_feature_space(&dataset);
//! let mut platform = Platform::new(dataset, features, 7);
//! let mut decision = Decision::new();
//! let mut completions = 0;
//! while platform.next_arrival() {
//!     let view = platform.arrival();
//!     if view.is_empty() {
//!         continue;
//!     }
//!     // A trivial policy: show the whole pool in order. Real policies implement
//!     // `crowd_sim::Policy` and write their ranking into the decision buffer.
//!     decision.clear();
//!     decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
//!     platform.apply(&decision);
//!     if platform.feedback().completed.is_some() {
//!         completions += 1;
//!     }
//! }
//! assert!(completions > 0);
//! ```

pub mod arrival;
pub mod behavior;
pub mod dataset;
pub mod dynamics;
pub mod env;
pub mod event;
pub mod features;
pub mod generator;
pub mod platform;
pub mod policy;
pub mod quality;
pub mod stats;
pub mod task;
pub mod worker;

pub use arrival::GapDistribution;
pub use behavior::BehaviorModel;
pub use dataset::{Dataset, MINUTES_PER_DAY, MINUTES_PER_MONTH};
pub use dynamics::{AvailabilityWindow, DayNightCycle, DriftEpoch, ScenarioSpec, SurgePhase};
pub use env::{ArrivalView, Decision, Env, FeedbackView, TaskRef};
pub use event::{Event, EventKind};
pub use features::FeatureSpace;
pub use generator::{perturb_worker_qualities, resample_arrivals, SimConfig};
pub use platform::Platform;
pub use policy::{
    Action, ArrivalContext, BatchedPolicy, BoxedBatchedPolicy, BoxedPolicy, LearnerBranchTiming,
    LearnerTiming, Policy, PolicyFeedback, TaskSnapshot,
};
pub use quality::{dixit_stiglitz, quality_gain};
pub use stats::{
    consecutive_arrival_gap_histogram, monthly_stats, same_worker_gap_histogram, GapHistogram,
    MonthStats,
};
pub use task::{Task, TaskId};
pub use worker::{Worker, WorkerId};
