//! `crowd-serve` — an online micro-batching decision service with a durable,
//! replayable decision log.
//!
//! The paper's evaluation is offline: a [`crowd_sim`] `Session` replays a recorded
//! horizon through a policy one arrival at a time. This crate puts the same policies
//! behind a *serving* interface, the shape a crowdsourcing platform actually runs:
//! worker arrivals stream in concurrently from many client threads, and each one
//! needs a ranked task list back in sub-millisecond time.
//!
//! # Design
//!
//! - **Ingress** is a bounded [`std::sync::mpsc::sync_channel`]; no async runtime.
//!   The queue bound *is* the backpressure contract: blocking submitters slow to the
//!   drain rate, [`Client::try_decide`] fails fast with [`ServeError::Saturated`].
//! - **Micro-batching**: a single dedicated worker thread
//!   ([`crowd_parallel::spawn_dedicated`]) blocks for one request, takes whatever is
//!   already queued behind it, and decides them in one
//!   [`crowd_sim::BatchedPolicy::act_batch`] packed forward pass per round. It never
//!   waits for companions, so batches form only under load, and then amortise
//!   Q-network inference exactly the way `SessionBatch` amortises it offline. A
//!   dedicated thread is *not* a persistent-pool worker, so the packed pass's
//!   row-sharded kernels still parallelise across the pool from inside it (see
//!   `crowd-parallel`'s "Nesting" docs).
//! - **Durability**: every committed round is appended to a [`DecisionLog`] —
//!   CRC-framed record batches in rotated segments (the `crowd-ckpt` WAL layer,
//!   `docs/DECISION_LOG_FORMAT.md`) — *before* any client is acknowledged. A crashed
//!   server [`Server::recover`]s by re-executing the log against a freshly
//!   constructed policy and resumes bit-identical to a server that never crashed.
//! - **Online learning**: clients report outcomes through [`Client::feedback`]; the
//!   worker logs and applies them as `observe` ticks in commit order, so the policy
//!   keeps learning while it serves and replay reproduces the learning trajectory.
//! - **Self-healing**: a log failure past bounded retries degrades the server
//!   (shedding with typed [`ServeError::Degraded`] replies and a logged
//!   [`LogRecord::Degraded`] marker on heal) instead of wedging it;
//!   [`Client::decide_with_retry`] turns transient rejections into bounded
//!   exponential backoff; [`Client::compact`] (or
//!   [`ServeConfig::compact_after_segments`]) folds the replay prefix into a base
//!   image so recovery replays only a short suffix.
//!
//! # Example
//!
//! ```
//! use crowd_serve::{Server, ServeConfig};
//! use crowd_sim::{ArrivalContext, TaskId, TaskSnapshot, WorkerId};
//! # use crowd_sim::{ArrivalView, BatchedPolicy, Decision, FeedbackView, Policy};
//! # struct FirstTask;
//! # impl Policy for FirstTask {
//! #     fn name(&self) -> &str { "first-task" }
//! #     fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
//! #         decision.clear();
//! #         if view.n_tasks() > 0 { decision.push(view.task_id(0)); }
//! #     }
//! #     fn observe(&mut self, _: &ArrivalView<'_>, _: &FeedbackView<'_>) {}
//! # }
//! # impl BatchedPolicy for FirstTask {}
//!
//! let server = Server::start(Box::new(FirstTask), ServeConfig::default()).unwrap();
//! let client = server.client();
//! let context = ArrivalContext {
//!     time: 0,
//!     worker_id: WorkerId(7),
//!     worker_feature: vec![0.25; 4],
//!     worker_quality: 0.5,
//!     is_new_worker: false,
//!     available: vec![TaskSnapshot {
//!         id: TaskId(3),
//!         feature: vec![0.1; 4],
//!         quality: 0.0,
//!         award: 1.0,
//!         category: 0,
//!         domain: 0,
//!         deadline: 60,
//!         completions: 0,
//!     }],
//! };
//! let decision = client.decide(context).unwrap();
//! assert_eq!(decision.shown, vec![TaskId(3)]);
//! let (_policy, report) = server.shutdown();
//! assert_eq!(report.decisions, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod log;
pub mod retry;
pub mod server;
pub mod traffic;

pub use error::{Result, ServeError};
pub use log::{
    BaseImage, CompactionStats, DecisionLog, LogConfig, LogRecord, LogRecovery, RecoveredLog,
    RecoveryEvent,
};
pub use retry::RetryPolicy;
pub use server::{
    replay_records, replay_records_into, Client, RecoveryReport, ReplayedState, ServeConfig,
    ServeDecision, ServeReport, Server,
};
pub use traffic::{ArrivalSchedule, TrafficPattern};
