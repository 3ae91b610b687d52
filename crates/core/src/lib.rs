//! The paper's contribution: an end-to-end deep reinforcement learning framework for task
//! arrangement in crowdsourcing platforms (Shan et al., ICDE 2020).
//!
//! The framework models the interaction between the platform (agent) and the
//! workers/requesters (environment) as two MDPs — MDP(w) maximising the cumulative worker
//! completion rate, MDP(r) maximising the cumulative task quality gain — and learns a deep
//! Q-network for each. The crate mirrors the module structure of the paper's Fig. 2:
//!
//! | Paper component | Module |
//! |---|---|
//! | State Transformer (Sec. IV-B/V-B) | [`state`] |
//! | Q-Network(w)/(r) (Fig. 3/4) | [`qnetwork`] |
//! | Worker arrivals' statistics (φ, ϕ, p_new) | [`arrival_stats`] |
//! | Future-state predictors (Sec. IV-D/V-D) | [`predictor`] |
//! | Memory (prioritized replay of transitions) | [`memory`] (+ `crowd-rl-kit`) |
//! | Learner(w)/(r) with revised targets (Eq. 3/6) | [`learner`] |
//! | Aggregator / balancer (Sec. VI-A) | [`aggregator`] |
//! | Explorer (Sec. VI-B) | [`explorer`] |
//! | The whole agent behind [`crowd_sim::Policy`] | [`agent`] |
//!
//! # Quick start
//!
//! The agent implements [`crowd_sim::Policy`] over the zero-copy `Env` interface: each
//! arrival hands the agent a borrowed [`crowd_sim::ArrivalView`] and a reusable
//! [`crowd_sim::Decision`] buffer — no per-arrival clones of task or worker features.
//!
//! ```
//! use crowd_rl_core::{DdqnAgent, DdqnConfig};
//! use crowd_sim::{Decision, Env, Platform, Policy, SimConfig};
//!
//! // Simulate a small crowdsourcing platform and run the DDQN agent on it.
//! let dataset = SimConfig::tiny().generate();
//! let features = Platform::default_feature_space(&dataset);
//! let mut platform = Platform::new(dataset, features.clone(), 7);
//! let mut agent = DdqnAgent::new(
//!     DdqnConfig { hidden_dim: 16, num_heads: 2, ..DdqnConfig::default() },
//!     features.task_dim(),
//!     features.worker_dim(),
//! );
//! let mut decision = Decision::new();
//! let mut completions = 0;
//! for _ in 0..50 {
//!     if !platform.next_arrival() {
//!         break;
//!     }
//!     if platform.arrival().is_empty() {
//!         continue;
//!     }
//!     agent.act(&platform.arrival(), &mut decision);
//!     platform.apply(&decision);
//!     if platform.feedback().completed.is_some() {
//!         completions += 1;
//!     }
//!     agent.observe(&platform.arrival(), &platform.feedback());
//! }
//! assert!(agent.observations() > 0);
//! ```

pub mod agent;
pub mod aggregator;
pub mod arrival_stats;
pub mod config;
pub mod explorer;
pub mod learner;
pub mod memory;
pub mod predictor;
pub mod qnetwork;
pub mod state;

pub use agent::DdqnAgent;
pub use arrival_stats::ArrivalStats;
pub use config::{DdqnConfig, RecommendationMode};
pub use explorer::Explorer;
pub use learner::{DqnLearner, LearnError, LearnReport};
pub use memory::{load_replay, save_replay, Experience, FutureBranch, Transition};
pub use qnetwork::SetQNetwork;
pub use state::{StateKind, StateTensor, StateTransformer};
