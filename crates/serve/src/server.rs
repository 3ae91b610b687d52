//! The decision server: bounded ingress, a dedicated micro-batching worker, group
//! commit to the decision log, and replay-based crash recovery.
//!
//! # Call chain
//!
//! ```text
//! client threads                 batch worker (one dedicated thread)
//! ──────────────                 ───────────────────────────────────
//! Client::decide(ctx) ──┐
//! Client::decide(ctx) ──┼──► bounded sync_channel ──► block for the first request,
//! Client::feedback(..) ─┘    (backpressure)           then take what is already
//!                                                     queued (≤ max_batch decides)
//!                                                        │
//!                                              Policy::observe per queued feedback
//!                                              (online learning ticks, FIFO)
//!                                                        │
//!                                              one BatchedPolicy::act_batch
//!                                              over every drained arrival
//!                                                        │
//!                                              DecisionLog::append + sync
//!                                              (group commit, one batch/round)
//!                                                        │
//!                                              ack every caller
//! ```
//!
//! # Backpressure contract
//!
//! The ingress queue holds at most [`ServeConfig::queue_capacity`] requests.
//! [`Client::decide`] and [`Client::feedback`] **block** when it is full — arrival
//! producers slow to the server's drain rate instead of ballooning memory.
//! [`Client::try_decide`] fails fast with [`ServeError::Saturated`] instead, which is
//! what the saturation benches probe (and what [`Client::decide_with_retry`] turns
//! into bounded backoff). A round holds at most [`ServeConfig::max_batch`] decisions
//! and never waits for companions: it is the first request plus whatever was already
//! queued behind it. A lone arrival is therefore served at once, and the requests that
//! queue up while a round runs `act_batch` and its log append form the next round —
//! batching grows with the load instead of with an idle window.
//!
//! # Determinism and the ack barrier
//!
//! A round is committed in a fixed order: the round's queued feedback ticks first
//! (`observe`, in arrival order — a feedback always entered the queue before any
//! decide it shares a round with, so applying it first makes execution order a
//! function of queue order alone, independent of batch boundaries), then one
//! `act_batch` over the round's arrivals (every view evaluated against the
//! post-tick parameters — the `BatchedPolicy` contract), then one durable log append
//! of the round's records, then the client acks. Clients are only acknowledged
//! **after** the append returns, so every decision a client ever saw is in the log,
//! and the log's record order *is* the policy's execution order — which is why
//! [`replay_records`] can re-execute it and land on bit-identical state.
//!
//! # Degraded mode instead of wedging
//!
//! When the log fails after the bounded retries of `DecisionLog::append_retrying`,
//! the worker does **not** stop. The failed round's records — already executed by the
//! policy — are kept as an in-memory backlog, its clients get
//! [`ServeError::Degraded`], and every following round is shed *without touching the
//! policy* until an append succeeds again. Healing appends the backlog first, then a
//! [`LogRecord::Degraded`] marker counting the shed work, so the log's record order
//! remains exactly the execution order and replay stays deterministic. A kill during
//! an outage drops the backlog, which is precisely what a real crash would do; a
//! graceful drain makes one final heal attempt and reports what still could not reach
//! the log in [`ServeReport::log_error`]. Requests that waited in the ingress queue
//! past [`ServeConfig::shed_staler_than`] are likewise shed with `Degraded` — they
//! never touch the policy, so no log marker is needed for them.

use crate::error::{Result, ServeError};
use crate::log::{BaseImage, CompactionStats, DecisionLog, LogRecord, LogRecovery, RecoveryEvent};
use crowd_ckpt::{StateReader, StateWriter};
use crowd_parallel::{spawn_dedicated, ThreadPool};
use crowd_sim::{
    Action, ArrivalContext, BatchedPolicy, BoxedBatchedPolicy, Decision, PolicyFeedback, TaskId,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the bounded ingress queue (the backpressure bound).
    pub queue_capacity: usize,
    /// Most decisions in one `act_batch` round. A round never waits for companions: it
    /// takes the first request plus whatever is already queued, up to this many.
    pub max_batch: usize,
    /// Pool handed to the policy for intra-batch parallelism (packed forward passes);
    /// the serving loop itself stays single-threaded and deterministic.
    pub pool: ThreadPool,
    /// Decision-log destination; `None` serves without durability (benches probing
    /// pure decision latency).
    pub log: Option<crate::log::LogConfig>,
    /// Load shedding: a decide that waited in the ingress queue longer than this is
    /// answered with [`ServeError::Degraded`] instead of being served on stale state.
    /// The shed request never touches the policy, so retrying it is a fresh request.
    /// `None` (the default) serves every request however stale.
    pub shed_staler_than: Option<Duration>,
    /// Auto-compaction: when the log holds more than this many live segments after a
    /// committed round, the worker compacts it (base image + truncated suffix, see
    /// `DecisionLog::compact`). Requires a policy with checkpoint support; the first
    /// compaction failure is recorded in [`ServeReport::compact_error`] and disables
    /// further auto-compaction (serving continues — compaction is an optimisation).
    /// `None` (the default) never auto-compacts.
    pub compact_after_segments: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            max_batch: 64,
            pool: ThreadPool::serial(),
            log: None,
            shed_staler_than: None,
            compact_after_segments: None,
        }
    }
}

/// A ranked decision acknowledged to a client.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeDecision {
    /// Server-assigned id; hand it back with [`Client::feedback`].
    pub request_id: u64,
    /// The ranked task list, best first (one element for an assignment).
    pub shown: Vec<TaskId>,
    /// True when the policy assigned a single task rather than ranking the pool.
    pub assignment: bool,
}

impl ServeDecision {
    /// The owned [`Action`] equivalent of this decision.
    pub fn action(&self) -> Action {
        if self.assignment {
            Action::Assign(self.shown[0])
        } else {
            Action::Rank(self.shown.clone())
        }
    }
}

/// Counters the batch worker hands back at shutdown.
#[derive(Debug, Default, Clone)]
pub struct ServeReport {
    /// Decisions committed and acknowledged.
    pub decisions: u64,
    /// Feedback ticks ingested (each one `Policy::observe`).
    pub feedbacks: u64,
    /// Feedbacks dropped because their request id was unknown or already consumed.
    pub unknown_feedbacks: u64,
    /// Committed rounds (each at most one log batch).
    pub rounds: u64,
    /// Largest number of decisions committed in one round.
    pub max_round_decisions: usize,
    /// Decide requests answered with [`ServeError::Degraded`] (log outage or
    /// staleness bound) instead of being served.
    pub shed_decides: u64,
    /// Feedback submissions dropped during a log outage.
    pub shed_feedbacks: u64,
    /// Rounds shed wholesale because the log was down.
    pub degraded_rounds: u64,
    /// Log outages that healed (backlog + degraded marker appended, serving resumed).
    pub healed: u64,
    /// Log compactions performed (explicit and automatic).
    pub compactions: u64,
    /// First auto-compaction failure; set once, after which auto-compaction is
    /// disabled for the rest of the run (explicit [`Client::compact`] still works).
    pub compact_error: Option<String>,
    /// Record batches appended to the decision log.
    pub log_batches: u64,
    /// Segment rotations performed by the decision log.
    pub log_rotations: u64,
    /// Set when the log was **still** failing at shutdown: a drain's final heal
    /// attempt did not get the backlog appended, or the shutdown sync failed.
    pub log_error: Option<String>,
}

impl ServeReport {
    /// Mean decisions per committed round — the achieved micro-batch occupancy.
    pub fn mean_round_decisions(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.decisions as f64 / self.rounds as f64
        }
    }
}

/// What [`Server::recover`] replayed before serving resumed.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Decision records re-executed (each one `act`, checked against the log).
    pub replayed_decisions: u64,
    /// Feedback records re-executed (each one `observe`).
    pub replayed_feedbacks: u64,
    /// Degraded markers replayed (shed work — a counted no-op for the policy).
    pub replayed_degraded: u64,
    /// Decisions still awaiting feedback after replay.
    pub pending_after_replay: usize,
    /// The request-id ⇄ context handshake: every decision that was acknowledged but
    /// never matched by feedback, in id order. Clients that held these ids across the
    /// crash can resume feedback against the recovered server. Each context is the
    /// one the replayed decision record decoded, shared, not copied.
    pub pending_requests: Vec<(u64, Arc<ArrivalContext>)>,
    /// Segment index the replay suffix started at, when recovery restored from a
    /// compaction base image instead of replaying from segment 0.
    pub compacted_suffix_start: Option<u64>,
    /// What the log layer found and repaired on disk.
    pub log: LogRecovery,
}

/// The server state that is a pure function of the logged event order.
#[derive(Debug, Default)]
pub struct ReplayedState {
    /// Next request id to assign (max logged id + 1).
    pub next_request_id: u64,
    /// Decisions whose feedback has not arrived yet, by request id. The map is ordered
    /// so any future iteration over it is deterministic. Each context is shared with
    /// its decision record.
    pending: BTreeMap<u64, Arc<ArrivalContext>>,
    /// Decision records replayed.
    pub decisions: u64,
    /// Feedback records replayed.
    pub feedbacks: u64,
    /// Degraded markers replayed.
    pub degraded: u64,
}

impl ReplayedState {
    /// Number of decisions awaiting feedback.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// Re-executes a committed record sequence against `policy`, reconstructing the server
/// state and verifying every logged decision along the way.
///
/// Replay calls `act` per decision record and `observe` per feedback record —
/// sequentially, in record order. That matches the original micro-batched execution
/// exactly because of the `BatchedPolicy` contract: within a round every view was
/// evaluated against the same parameters (feedback ticks run before the round's
/// `act_batch`, and records are laid down in that execution order), so the sequential
/// re-execution consumes the same RNG stream and visits the same parameters as the
/// original `act_batch` rounds, whatever the batch boundaries were. The recomputed
/// ranking must
/// equal the logged one; a mismatch means the log and the policy's initial state do
/// not belong together and recovery fails with [`ServeError::Recovery`] rather than
/// silently forking history. [`LogRecord::Degraded`] markers are counted, nothing
/// more — the work they stand for was shed before it touched the policy.
pub fn replay_records(
    policy: &mut dyn BatchedPolicy,
    records: &[LogRecord],
) -> Result<ReplayedState> {
    let mut state = ReplayedState::default();
    replay_records_into(policy, records, &mut state)?;
    Ok(state)
}

/// [`replay_records`] continuing from an existing state — the compacted-recovery
/// path seeds `state` from the base image (next request id, pending requests) and
/// replays only the log suffix on top of it.
pub fn replay_records_into(
    policy: &mut dyn BatchedPolicy,
    records: &[LogRecord],
    state: &mut ReplayedState,
) -> Result<()> {
    let mut decision = Decision::new();
    for record in records {
        match record {
            LogRecord::Decision {
                request_id,
                context,
                shown,
                assignment,
            } => {
                if *request_id < state.next_request_id {
                    return Err(ServeError::Recovery {
                        detail: format!("request ids are not strictly increasing at {request_id}"),
                    });
                }
                policy.act(&context.view(), &mut decision);
                if decision.shown() != shown.as_slice() || decision.is_assignment() != *assignment {
                    return Err(ServeError::Recovery {
                        detail: format!(
                            "re-executed decision for request {request_id} diverged from the log \
                             (logged {} task(s), recomputed {})",
                            shown.len(),
                            decision.len()
                        ),
                    });
                }
                state.pending.insert(*request_id, Arc::clone(context));
                state.next_request_id = request_id + 1;
                state.decisions += 1;
            }
            LogRecord::Feedback {
                request_id,
                feedback,
            } => {
                let Some(context) = state.pending.remove(request_id) else {
                    return Err(ServeError::Recovery {
                        detail: format!("feedback for unknown request {request_id}"),
                    });
                };
                policy.observe(&context.view(), &feedback.view());
                state.feedbacks += 1;
            }
            LogRecord::Degraded { .. } => {
                state.degraded += 1;
            }
        }
    }
    Ok(())
}

/// Seeds a recovery from a compaction base: the compacted prefix exists only as the
/// base image, so the policy's exact state at the cut is restored and the next id and
/// pending requests are taken from it, before any suffix batch is replayed on top.
fn restore_base(
    policy: &mut dyn BatchedPolicy,
    base: BaseImage,
    state: &mut ReplayedState,
) -> Result<()> {
    let mut r = StateReader::new(&base.policy);
    policy
        .restore_state(&mut r)
        .map_err(|e| ServeError::Recovery {
            detail: format!("restoring the policy from the compaction base failed: {e}"),
        })?;
    r.finish("compaction base policy")
        .map_err(|e| ServeError::Recovery {
            detail: e.to_string(),
        })?;
    state.next_request_id = base.next_request_id;
    state.pending = base.pending.into_iter().collect();
    Ok(())
}

/// One message on the ingress queue.
enum Request {
    Decide {
        context: Arc<ArrivalContext>,
        enqueued: Instant,
        reply: mpsc::Sender<Result<ServeDecision>>,
    },
    Feedback {
        request_id: u64,
        feedback: PolicyFeedback,
    },
    Compact {
        reply: mpsc::Sender<Result<CompactionStats>>,
    },
    /// `drain: true` is a graceful shutdown (everything queued is still served);
    /// `drain: false` simulates a crash — stop now, answer nobody.
    Stop { drain: bool },
}

/// A cheap, cloneable handle submitting requests to a running [`Server`].
#[derive(Clone)]
pub struct Client {
    ingress: SyncSender<Request>,
    /// The policy's `(task, worker)` feature widths, when it has fixed ones
    /// (`BatchedPolicy::feature_widths`, read once at start).
    widths: Option<(usize, usize)>,
}

impl Client {
    /// Submits an arrival and blocks until the server's micro-batch round commits it.
    /// Blocks in the ingress queue when the server is saturated (backpressure).
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] before anything is sent when the worker quality, a
    /// worker-feature entry or a task's feature, quality or award is NaN or infinite,
    /// when two available tasks share an id, or when the worker feature or a task
    /// feature is not as wide as the policy takes; [`ServeError::ShuttingDown`] when the
    /// server has stopped.
    pub fn decide(&self, context: ArrivalContext) -> Result<ServeDecision> {
        self.check_arrival(&context)?;
        self.enqueue_decide(Arc::new(context), true)
    }

    /// Like [`Client::decide`] (and refusing the same malformed arrivals) but fails fast
    /// with [`ServeError::Saturated`] when the ingress queue is full instead of blocking.
    /// Copies `context` once, before the enqueue attempt, so a `Saturated` answer has
    /// paid for that copy too.
    pub fn try_decide(&self, context: &ArrivalContext) -> Result<ServeDecision> {
        self.check_arrival(context)?;
        self.enqueue_decide(Arc::new(context.clone()), false)
    }

    /// Sends an already checked arrival and waits for its decision. With `block` the
    /// send waits for room in the ingress queue; without, a full queue fails with
    /// [`ServeError::Saturated`].
    pub(crate) fn enqueue_decide(
        &self,
        context: Arc<ArrivalContext>,
        block: bool,
    ) -> Result<ServeDecision> {
        let (reply, response) = mpsc::channel();
        let request = Request::Decide {
            context,
            enqueued: Instant::now(),
            reply,
        };
        if block {
            self.ingress
                .send(request)
                .map_err(|_| ServeError::ShuttingDown)?;
        } else {
            self.ingress.try_send(request).map_err(|e| match e {
                mpsc::TrySendError::Full(_) => ServeError::Saturated,
                mpsc::TrySendError::Disconnected(_) => ServeError::ShuttingDown,
            })?;
        }
        response.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Submits the observed outcome of an earlier decision — the online-learning tick.
    /// Returns as soon as the feedback is enqueued; it is logged and applied when the
    /// worker's current round commits.
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] when the worker quality, the quality gain or any
    /// worker-feature entry is NaN or infinite — such a feedback would become a
    /// non-finite reward the learner refuses — or when `worker_feature_after` is not as
    /// wide as the policy takes, before anything is sent; and
    /// [`ServeError::ShuttingDown`] when the server has stopped.
    pub fn feedback(&self, request_id: u64, feedback: PolicyFeedback) -> Result<()> {
        check_feedback(&feedback)?;
        if let Some((_, worker_dim)) = self.widths {
            check_width(
                format_args!("feedback worker_feature_after"),
                &feedback.worker_feature_after,
                worker_dim,
            )?;
        }
        self.ingress
            .send(Request::Feedback {
                request_id,
                feedback,
            })
            .map_err(|_| ServeError::ShuttingDown)
    }

    /// Refuses an arrival [`Client::decide`] refuses: a non-finite number, a task
    /// listed twice, or a feature width other than the policy's.
    pub(crate) fn check_arrival(&self, context: &ArrivalContext) -> Result<()> {
        check_arrival(context)?;
        if let Some((task_dim, worker_dim)) = self.widths {
            check_width(
                format_args!("arrival worker_feature"),
                &context.worker_feature,
                worker_dim,
            )?;
            for task in &context.available {
                check_width(
                    format_args!("arrival task {} feature", task.id.0),
                    &task.feature,
                    task_dim,
                )?;
            }
        }
        Ok(())
    }

    /// Asks the worker to compact the decision log at the next round boundary and
    /// blocks for the stats. Fails typed when the server is degraded (the log is
    /// down), has no log, or the policy cannot checkpoint its state.
    pub fn compact(&self) -> Result<CompactionStats> {
        let (reply, response) = mpsc::channel();
        self.ingress
            .send(Request::Compact { reply })
            .map_err(|_| ServeError::ShuttingDown)?;
        response.recv().map_err(|_| ServeError::ShuttingDown)?
    }
}

/// Refuses a request when one of its `fields` holds a NaN or infinite value, naming the
/// first such field (`what` is formatted only then).
fn check_finite(what: std::fmt::Arguments<'_>, fields: &[(&str, &[f32])]) -> Result<()> {
    for (name, values) in fields {
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(ServeError::Malformed {
                detail: format!("{what} {name} holds {bad}"),
            });
        }
    }
    Ok(())
}

fn check_feedback(feedback: &PolicyFeedback) -> Result<()> {
    let fields = [
        (
            "worker_quality",
            std::slice::from_ref(&feedback.worker_quality),
        ),
        ("quality_gain", std::slice::from_ref(&feedback.quality_gain)),
        ("worker_feature_before", &feedback.worker_feature_before[..]),
        ("worker_feature_after", &feedback.worker_feature_after[..]),
    ];
    check_finite(format_args!("feedback"), &fields)
}

/// Refuses a feature vector `what` that is not `width` entries wide (`what` is formatted
/// only then): the policy's state rows hold exactly that many.
fn check_width(what: std::fmt::Arguments<'_>, feature: &[f32], width: usize) -> Result<()> {
    if feature.len() == width {
        return Ok(());
    }
    Err(ServeError::Malformed {
        detail: format!("{what} is {} wide, the policy takes {width}", feature.len()),
    })
}

/// Refuses an arrival holding a NaN or infinite number or listing a task twice. NaN
/// features would reach the explorer's `partial_cmp` sorts, no total order on NaN.
fn check_arrival(context: &ArrivalContext) -> Result<()> {
    let worker = [
        (
            "worker_quality",
            std::slice::from_ref(&context.worker_quality),
        ),
        ("worker_feature", &context.worker_feature[..]),
    ];
    check_finite(format_args!("arrival"), &worker)?;
    let mut ids = HashSet::with_capacity(context.available.len());
    for task in &context.available {
        let fields = [
            ("feature", &task.feature[..]),
            ("quality", std::slice::from_ref(&task.quality)),
            ("award", std::slice::from_ref(&task.award)),
        ];
        check_finite(format_args!("arrival task {}", task.id.0), &fields)?;
        if !ids.insert(task.id) {
            return Err(ServeError::Malformed {
                detail: format!("arrival lists task {} twice", task.id.0),
            });
        }
    }
    Ok(())
}

/// A running decision service: one dedicated batch worker owning the policy and the
/// decision log, fed by any number of [`Client`] handles.
pub struct Server {
    ingress: SyncSender<Request>,
    worker: JoinHandle<(BoxedBatchedPolicy, ServeReport)>,
    /// The policy's feature widths, handed to every [`Client`].
    widths: Option<(usize, usize)>,
}

impl Server {
    /// Starts serving with a fresh history. When [`ServeConfig::log`] is set the log
    /// directory must not already contain segments ([`ServeError::LogNotEmpty`]) —
    /// continuing an existing history is [`Server::recover`]'s job.
    pub fn start(policy: BoxedBatchedPolicy, config: ServeConfig) -> Result<Server> {
        let log = match config.log.clone() {
            Some(log_config) => Some(DecisionLog::create(log_config)?),
            None => None,
        };
        Server::spawn(policy, config, log, ReplayedState::default())
    }

    /// Recovers a crashed server: repairs and replays the decision log against
    /// `policy` (which must be constructed exactly as the crashed server's policy was
    /// at its start), then resumes serving — bit-identical to a server that never
    /// crashed, appending to the same log.
    ///
    /// A compacted log recovers from its base image: the policy's checkpointed state
    /// at the cut is restored (`Policy::restore_state`), the pending requests and
    /// next id are seeded from the base, and only the segment suffix is replayed.
    /// The returned [`RecoveryReport::pending_requests`] hands back every
    /// acknowledged-but-unanswered request id with its context, so clients can resume
    /// feedback across the crash.
    ///
    /// Replay streams: the base is restored before the first suffix batch is decoded,
    /// and each batch is replayed as soon as `DecisionLog::recover` decodes it, so
    /// recovery holds one batch frame (plus the log's fixed read buffer) and the
    /// pending map, whatever the segment size or the log's length.
    /// On any error — a log refusal or a replay divergence — the files are left as
    /// they were, but `policy` may have been partly replayed; it is consumed either
    /// way, so no caller can go on with it.
    pub fn recover(
        mut policy: BoxedBatchedPolicy,
        config: ServeConfig,
    ) -> Result<(Server, RecoveryReport)> {
        let Some(log_config) = config.log.clone() else {
            return Err(ServeError::Recovery {
                detail: "recovery needs a decision log, but the config has none".into(),
            });
        };
        let mut state = ReplayedState::default();
        let recovered = DecisionLog::recover(log_config, |event| match event {
            RecoveryEvent::Base(base) => restore_base(policy.as_mut(), base, &mut state),
            RecoveryEvent::Batch(records) => {
                replay_records_into(policy.as_mut(), &records, &mut state)
            }
        })?;
        let report = RecoveryReport {
            replayed_decisions: state.decisions,
            replayed_feedbacks: state.feedbacks,
            replayed_degraded: state.degraded,
            pending_after_replay: state.pending_len(),
            pending_requests: state.pending.clone().into_iter().collect(),
            compacted_suffix_start: recovered.recovery.base,
            log: recovered.recovery,
        };
        let server = Server::spawn(policy, config, Some(recovered.log), state)?;
        Ok((server, report))
    }

    fn spawn(
        policy: BoxedBatchedPolicy,
        config: ServeConfig,
        log: Option<DecisionLog>,
        state: ReplayedState,
    ) -> Result<Server> {
        let (ingress, queue) = mpsc::sync_channel(config.queue_capacity.max(1));
        let widths = policy.feature_widths();
        let worker = spawn_dedicated("serve-batch", move || {
            event_loop(policy, config, log, state, queue)
        })?;
        Ok(Server {
            ingress,
            worker,
            widths,
        })
    }

    /// A new submission handle; clone one per client thread.
    pub fn client(&self) -> Client {
        Client {
            ingress: self.ingress.clone(),
            widths: self.widths,
        }
    }

    /// Graceful shutdown: every request already queued (and anything that squeezes in
    /// ahead of the stop marker) is still decided, logged and acknowledged; an active
    /// outage gets one final heal attempt; the log is synced; the policy and the
    /// serving report come back.
    pub fn shutdown(self) -> (BoxedBatchedPolicy, ServeReport) {
        self.end(Request::Stop { drain: true })
    }

    /// Abrupt stop, simulating a crash as closely as an in-process stop can: the
    /// worker stops at the next round boundary without draining, and every queued or
    /// in-flight caller gets [`ServeError::ShuttingDown`]. Acknowledged work is
    /// already durable (the ack barrier), so a [`Server::recover`] of the same log
    /// continues exactly where the acks stopped. A kill during a log outage drops the
    /// in-memory backlog — exactly what a real crash would do.
    pub fn kill(self) -> (BoxedBatchedPolicy, ServeReport) {
        self.end(Request::Stop { drain: false })
    }

    fn end(self, stop: Request) -> (BoxedBatchedPolicy, ServeReport) {
        // Queue full is fine: send blocks until the worker drains a round. A closed
        // channel means the worker already stopped — just join.
        let _ = self.ingress.send(stop);
        drop(self.ingress);
        match self.worker.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// One micro-batch round being assembled.
#[derive(Default)]
struct Round {
    decides: Vec<(
        Arc<ArrivalContext>,
        Instant,
        mpsc::Sender<Result<ServeDecision>>,
    )>,
    feedbacks: Vec<(u64, PolicyFeedback)>,
    compacts: Vec<mpsc::Sender<Result<CompactionStats>>>,
}

impl Round {
    fn is_empty(&self) -> bool {
        self.decides.is_empty() && self.feedbacks.is_empty() && self.compacts.is_empty()
    }
}

/// How a drained stop marker asks the loop to finish.
#[derive(Clone, Copy, PartialEq)]
enum StopMode {
    Drain,
    Kill,
}

fn absorb(message: Request, round: &mut Round, stop: &mut Option<StopMode>) {
    match message {
        Request::Decide {
            context,
            enqueued,
            reply,
        } => round.decides.push((context, enqueued, reply)),
        Request::Feedback {
            request_id,
            feedback,
        } => round.feedbacks.push((request_id, feedback)),
        Request::Compact { reply } => round.compacts.push(reply),
        Request::Stop { drain } => {
            *stop = Some(if drain {
                StopMode::Drain
            } else {
                StopMode::Kill
            })
        }
    }
}

/// A log outage in progress: the worker is degraded and shedding load.
struct Outage {
    /// Records of the round whose append failed. The policy already executed them, so
    /// they must reach the log before anything else — log order is execution order.
    backlog: Vec<LogRecord>,
    /// Rendered cause of the most recent failure, echoed in `Degraded` replies.
    detail: String,
    /// Decide requests shed (answered `Degraded`) since the outage began.
    shed_decides: u64,
    /// Feedback submissions dropped since the outage began.
    shed_feedbacks: u64,
}

/// Everything the batch worker owns: the policy, the log, the replayed state and the
/// counters. Only its thread ever touches any of it.
struct Worker {
    policy: BoxedBatchedPolicy,
    config: ServeConfig,
    log: Option<DecisionLog>,
    state: ReplayedState,
    report: ServeReport,
    scratch: Vec<Decision>,
    outage: Option<Outage>,
}

impl Worker {
    /// Commits one round: the queued feedback ticks first (freshest parameters for
    /// the round's decisions), then one packed forward pass, then one durable
    /// group-commit append, then the acks — in that order (see the module docs).
    ///
    /// Feedbacks-before-decisions is a determinism decision, not an accident: a
    /// feedback was necessarily enqueued *before* any decide it shares a round with
    /// (FIFO queue), so applying it first means the execution order — and therefore
    /// the log — depends only on the order requests entered the queue, never on where
    /// the batch boundaries happened to fall.
    ///
    /// Never returns an error: a log failure puts the worker into degraded mode
    /// (shedding with typed [`ServeError::Degraded`] replies) instead of stopping it.
    fn commit_round(&mut self, mut round: Round) {
        let compacts = std::mem::take(&mut round.compacts);
        if round.is_empty() && compacts.is_empty() {
            return;
        }

        // Staleness shedding: a decide that sat in the queue past the bound is
        // answered `Degraded` without touching the policy (no log marker needed —
        // nothing executed).
        if let Some(bound) = self.config.shed_staler_than {
            let now = Instant::now();
            let (fresh, stale): (Vec<_>, Vec<_>) = round
                .decides
                .drain(..)
                .partition(|(_, enqueued, _)| now.saturating_duration_since(*enqueued) <= bound);
            round.decides = fresh;
            for (_, _, reply) in stale {
                self.report.shed_decides += 1;
                let _ = reply.send(Err(ServeError::Degraded {
                    detail: format!("request waited past the staleness bound ({bound:?})"),
                }));
            }
        }

        // An active outage: try to heal before this round; still down means the whole
        // round is shed without touching the policy.
        if self.outage.is_some() && !self.try_heal() {
            let n_decides = round.decides.len() as u64;
            let n_feedbacks = round.feedbacks.len() as u64;
            let outage = self.outage.as_mut().expect("outage is active");
            outage.shed_decides += n_decides;
            outage.shed_feedbacks += n_feedbacks;
            let detail = outage.detail.clone();
            self.report.shed_decides += n_decides;
            self.report.shed_feedbacks += n_feedbacks;
            if n_decides + n_feedbacks > 0 {
                self.report.degraded_rounds += 1;
            }
            for (_, _, reply) in round.decides {
                let _ = reply.send(Err(ServeError::Degraded {
                    detail: detail.clone(),
                }));
            }
            self.handle_compacts(compacts);
            return;
        }

        if round.is_empty() {
            self.handle_compacts(compacts);
            return;
        }
        self.report.rounds += 1;
        self.report.max_round_decisions = self.report.max_round_decisions.max(round.decides.len());

        let mut records = Vec::with_capacity(round.decides.len() + round.feedbacks.len());

        // 1. Online-learning ticks, in arrival order, before the round's decisions.
        for (request_id, feedback) in round.feedbacks {
            match self.state.pending.remove(&request_id) {
                Some(context) => {
                    self.policy.observe(&context.view(), &feedback.view());
                    self.report.feedbacks += 1;
                    records.push(LogRecord::Feedback {
                        request_id,
                        feedback,
                    });
                }
                None => self.report.unknown_feedbacks += 1,
            }
        }

        // 2. One act_batch over every arrival of the round; a feedback-only round has
        // nothing to act on.
        if !round.decides.is_empty() {
            self.scratch.resize_with(round.decides.len(), Decision::new);
            let views: Vec<_> = round.decides.iter().map(|(ctx, _, _)| ctx.view()).collect();
            self.policy.act_batch(&views, &mut self.scratch[..]);
        }

        // 3. Assign ids and build the decision records in commit order.
        let mut acks = Vec::with_capacity(round.decides.len());
        for ((context, _, reply), decision) in round.decides.into_iter().zip(self.scratch.iter()) {
            let request_id = self.state.next_request_id;
            self.state.next_request_id += 1;
            let served = ServeDecision {
                request_id,
                shown: decision.shown().to_vec(),
                assignment: decision.is_assignment(),
            };
            records.push(LogRecord::Decision {
                request_id,
                context: Arc::clone(&context),
                shown: served.shown.clone(),
                assignment: served.assignment,
            });
            self.state.pending.insert(request_id, context);
            acks.push((reply, served));
        }

        // 4. Group commit: the whole round becomes durable before anyone is told
        // anything. A failure past the bounded retries enters degraded mode: the
        // records are already executed, so they become the outage backlog, and the
        // clients are told to retry (their retry is a fresh request — nothing is
        // lost or duplicated).
        if let Some(log) = self.log.as_mut() {
            if let Err(e) = log.append_retrying(&records) {
                let detail = e.to_string();
                for (reply, _) in acks {
                    self.report.shed_decides += 1;
                    let _ = reply.send(Err(ServeError::Degraded {
                        detail: detail.clone(),
                    }));
                }
                self.report.degraded_rounds += 1;
                self.outage = Some(Outage {
                    backlog: records,
                    detail,
                    shed_decides: 0,
                    shed_feedbacks: 0,
                });
                self.handle_compacts(compacts);
                return;
            }
        }

        // 5. Acks (a vanished caller is not an error).
        for (reply, served) in acks {
            let _ = reply.send(Ok(served));
            self.report.decisions += 1;
        }
        self.handle_compacts(compacts);
    }

    /// Attempts to end an active outage: the backlog plus a [`LogRecord::Degraded`]
    /// marker (counting everything shed while degraded) go to the log in one batch,
    /// keeping record order equal to execution order. True when the log is healthy.
    ///
    /// The marker is appended to the backlog in place and popped again when the append
    /// fails, so the next attempt counts the shed work afresh and nothing is copied.
    fn try_heal(&mut self) -> bool {
        let Some(outage) = self.outage.as_mut() else {
            return true;
        };
        let Some(log) = self.log.as_mut() else {
            return true;
        };
        outage.backlog.push(LogRecord::Degraded {
            shed_decides: outage.shed_decides,
            shed_feedbacks: outage.shed_feedbacks,
        });
        match log.append_retrying(&outage.backlog) {
            Ok(()) => {
                self.outage = None;
                self.report.healed += 1;
                true
            }
            Err(e) => {
                outage.backlog.pop();
                outage.detail = e.to_string();
                false
            }
        }
    }

    /// Answers the round's explicit compaction requests.
    fn handle_compacts(&mut self, compacts: Vec<mpsc::Sender<Result<CompactionStats>>>) {
        for reply in compacts {
            let result = match &self.outage {
                Some(outage) => Err(ServeError::Degraded {
                    detail: outage.detail.clone(),
                }),
                None => self.compact_now(),
            };
            let _ = reply.send(result);
        }
    }

    /// Compacts the log at the current round boundary: the policy's checkpointed
    /// state, the pending requests and the next id become the base image.
    fn compact_now(&mut self) -> Result<CompactionStats> {
        let Some(log) = self.log.as_mut() else {
            return Err(ServeError::Log {
                detail: "compaction needs a decision log, but the server has none".into(),
            });
        };
        let mut w = StateWriter::new();
        self.policy.checkpoint_state(&mut w)?;
        let pending = self.state.pending.clone().into_iter().collect();
        let stats = log.compact(self.state.next_request_id, pending, w.into_bytes())?;
        self.report.compactions += 1;
        Ok(stats)
    }

    /// Auto-compaction after a committed round, when configured and healthy. The
    /// first failure disables it for the rest of the run (recorded in
    /// [`ServeReport::compact_error`]) — compaction is an optimisation, not a
    /// correctness requirement, so serving continues.
    fn maybe_auto_compact(&mut self) {
        if self.outage.is_some() || self.report.compact_error.is_some() {
            return;
        }
        let Some(limit) = self.config.compact_after_segments else {
            return;
        };
        let Some(log) = self.log.as_ref() else {
            return;
        };
        if log.live_segments() <= limit {
            return;
        }
        if let Err(e) = self.compact_now() {
            self.report.compact_error = Some(e.to_string());
        }
    }

    /// Ends the worker. A graceful drain makes one final heal attempt for an active
    /// outage; a kill drops the backlog (crash semantics). Whatever still cannot
    /// reach the log is reported in [`ServeReport::log_error`].
    fn finish(mut self, drain: bool) -> (BoxedBatchedPolicy, ServeReport) {
        if self.outage.is_some() && (!drain || !self.try_heal()) {
            let outage = self.outage.as_ref().expect("outage is active");
            self.report.log_error = Some(outage.detail.clone());
        }
        if let Some(log) = self.log.as_mut() {
            if let Err(e) = log.sync() {
                self.report.log_error.get_or_insert(e.to_string());
            }
            self.report.log_batches = log.batches();
            self.report.log_rotations = log.rotations();
        }
        (self.policy, self.report)
    }
}

/// The batch worker: the only thread that ever touches the policy or the log.
///
/// One rule builds every round: block for the first request, then take only what is
/// already queued, up to `max_batch` decides, and never wait for more. Requests that
/// arrive while a round runs `act_batch` and its log append make up the next round, so
/// batching grows with load without charging a lone request any idle time. After a
/// graceful stop marker the same rule drains the queue until it is empty.
fn event_loop(
    mut policy: BoxedBatchedPolicy,
    config: ServeConfig,
    log: Option<DecisionLog>,
    state: ReplayedState,
    queue: Receiver<Request>,
) -> (BoxedBatchedPolicy, ServeReport) {
    policy.set_thread_pool(config.pool);
    let max_batch = config.max_batch.max(1);
    let mut worker = Worker {
        policy,
        config,
        log,
        state,
        report: ServeReport::default(),
        scratch: Vec::new(),
        outage: None,
    };
    let mut stop = None;
    loop {
        // Serving blocks for the first request; draining ends at an empty queue, and a
        // closed channel (every handle dropped) means nothing can arrive anymore.
        let first = match stop {
            None => queue.recv().ok(),
            Some(_) => queue.try_recv().ok(),
        };
        let Some(first) = first else { break };
        let mut round = Round::default();
        absorb(first, &mut round, &mut stop);
        while round.decides.len() < max_batch {
            match queue.try_recv() {
                Ok(message) => absorb(message, &mut round, &mut stop),
                Err(_) => break,
            }
        }
        if stop == Some(StopMode::Kill) {
            // Crash semantics: nothing in this round was acknowledged, so none of it
            // happened. Dropped reply senders surface as `ShuttingDown` at the
            // caller, and an outage backlog dies with the process.
            break;
        }
        worker.commit_round(round);
        worker.maybe_auto_compact();
    }
    worker.finish(stop != Some(StopMode::Kill))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crowd_ckpt::{FaultPlan, Fs};
    use crowd_sim::{ArrivalView, FeedbackView, Policy, TaskSnapshot, WorkerId};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// What a [`CountingPolicy`] did, shared with the test (the box disappears into the
    /// worker thread). While `hold` is set, `act` waits after counting its call, pinning
    /// the worker inside a round.
    #[derive(Default)]
    struct Calls {
        acts: AtomicU64,
        observes: AtomicU64,
        batches: AtomicU64,
        hold: AtomicBool,
    }

    /// Deterministic test policy: ranks tasks by descending id and counts its calls.
    struct CountingPolicy(Arc<Calls>);

    impl CountingPolicy {
        fn new() -> (Self, Arc<Calls>) {
            let calls = Arc::new(Calls::default());
            (CountingPolicy(calls.clone()), calls)
        }
    }

    impl Policy for CountingPolicy {
        fn name(&self) -> &str {
            "counting"
        }
        fn act(&mut self, view: &ArrivalView<'_>, decision: &mut Decision) {
            self.0.acts.fetch_add(1, Ordering::SeqCst);
            decision.clear();
            let mut ids: Vec<TaskId> = (0..view.n_tasks()).map(|i| view.task_id(i)).collect();
            ids.sort_by_key(|id| std::cmp::Reverse(id.0));
            decision.extend(ids);
            while self.0.hold.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        fn observe(&mut self, _view: &ArrivalView<'_>, _feedback: &FeedbackView<'_>) {
            self.0.observes.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl BatchedPolicy for CountingPolicy {
        fn act_batch(&mut self, views: &[ArrivalView<'_>], decisions: &mut [Decision]) {
            self.0.batches.fetch_add(1, Ordering::SeqCst);
            for (view, decision) in views.iter().zip(decisions.iter_mut()) {
                self.act(view, decision);
            }
        }
    }

    fn context(tag: u32, n_tasks: u32) -> ArrivalContext {
        ArrivalContext {
            time: tag as u64,
            worker_id: WorkerId(tag),
            worker_feature: vec![tag as f32],
            worker_quality: 0.5,
            is_new_worker: false,
            available: (0..n_tasks)
                .map(|i| TaskSnapshot {
                    id: TaskId(100 * tag + i),
                    feature: vec![i as f32],
                    quality: 0.0,
                    award: 1.0,
                    category: 0,
                    domain: 0,
                    deadline: 10,
                    completions: 0,
                })
                .collect(),
        }
    }

    fn feedback_for(context: &ArrivalContext, decision: &ServeDecision) -> PolicyFeedback {
        PolicyFeedback {
            time: context.time,
            worker_id: context.worker_id,
            worker_quality: context.worker_quality,
            shown: decision.shown.clone(),
            completed: decision.shown.first().map(|&t| (t, 0)),
            quality_gain: 0.25,
            worker_feature_before: context.worker_feature.clone(),
            worker_feature_after: context.worker_feature.clone(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crowd-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn decide_feedback_shutdown_roundtrip() {
        let (policy, calls) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), ServeConfig::default()).unwrap();
        let client = server.client();

        let ctx = context(1, 3);
        let decision = client.decide(ctx.clone()).unwrap();
        assert_eq!(decision.request_id, 0);
        assert_eq!(
            decision.shown,
            vec![TaskId(102), TaskId(101), TaskId(100)],
            "descending-id ranking expected"
        );
        client
            .feedback(decision.request_id, feedback_for(&ctx, &decision))
            .unwrap();
        let second = client.decide(context(2, 1)).unwrap();
        assert_eq!(second.request_id, 1);

        let (_policy, report) = server.shutdown();
        assert_eq!(report.decisions, 2);
        assert_eq!(report.feedbacks, 1);
        assert_eq!(report.unknown_feedbacks, 0);
        assert_eq!(calls.acts.load(Ordering::SeqCst), 2);
        assert_eq!(calls.observes.load(Ordering::SeqCst), 1);
        assert!(report.log_error.is_none());
    }

    #[test]
    fn unknown_feedback_is_counted_not_applied() {
        let (policy, calls) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), ServeConfig::default()).unwrap();
        let client = server.client();
        let ctx = context(1, 1);
        let d = client.decide(ctx.clone()).unwrap();
        client
            .feedback(d.request_id, feedback_for(&ctx, &d))
            .unwrap();
        // Same id again: already consumed.
        client
            .feedback(d.request_id, feedback_for(&ctx, &d))
            .unwrap();
        client.feedback(777, feedback_for(&ctx, &d)).unwrap();
        let (_policy, report) = server.shutdown();
        assert_eq!(report.feedbacks, 1);
        assert_eq!(report.unknown_feedbacks, 2);
        assert_eq!(calls.observes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn log_records_commit_order_and_replay_reconstructs_state() {
        let dir = tmp_dir("unit-log");
        let config = ServeConfig {
            log: Some(LogConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let (policy, ..) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), config.clone()).unwrap();
        let client = server.client();

        let contexts: Vec<_> = (0..4).map(|i| context(i, 2 + i)).collect();
        let mut decisions = Vec::new();
        for ctx in &contexts {
            let d = client.decide(ctx.clone()).unwrap();
            if d.request_id.is_multiple_of(2) {
                client
                    .feedback(d.request_id, feedback_for(ctx, &d))
                    .unwrap();
            }
            decisions.push(d);
        }
        let (_policy, report) = server.shutdown();
        assert_eq!(report.decisions, 4);
        assert_eq!(report.feedbacks, 2);
        assert!(report.log_batches >= 1);

        let records = DecisionLog::read(&dir).unwrap();
        assert_eq!(records.len(), 6);
        // Ids are strictly increasing across decision records.
        let logged_ids: Vec<u64> = records
            .iter()
            .filter(|r| matches!(r, LogRecord::Decision { .. }))
            .filter_map(LogRecord::request_id)
            .collect();
        assert_eq!(logged_ids, vec![0, 1, 2, 3]);

        // A fresh policy replays to the same state the server held.
        let (mut fresh, ..) = CountingPolicy::new();
        let state = replay_records(&mut fresh, &records).unwrap();
        assert_eq!(state.next_request_id, 4);
        assert_eq!(state.decisions, 4);
        assert_eq!(state.feedbacks, 2);
        assert_eq!(state.pending_len(), 2); // odd ids never got feedback

        // And a recovered server keeps serving with continuing ids, handing back the
        // pending request ids (the request-id ⇄ client handshake).
        let (policy, ..) = CountingPolicy::new();
        let (server, recovery) = Server::recover(Box::new(policy), config).unwrap();
        assert_eq!(recovery.replayed_decisions, 4);
        assert_eq!(recovery.replayed_feedbacks, 2);
        assert_eq!(recovery.pending_after_replay, 2);
        let pending_ids: Vec<u64> = recovery
            .pending_requests
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(pending_ids, vec![1, 3]);
        assert_eq!(*recovery.pending_requests[0].1, contexts[1]);
        assert_eq!(recovery.compacted_suffix_start, None);
        let d = server.client().decide(context(9, 1)).unwrap();
        assert_eq!(d.request_id, 4);
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn start_refuses_an_existing_log_and_recover_requires_one() {
        let dir = tmp_dir("unit-refuse");
        let config = ServeConfig {
            log: Some(LogConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let (policy, ..) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), config.clone()).unwrap();
        server.client().decide(context(0, 1)).unwrap();
        server.shutdown();

        let (policy, ..) = CountingPolicy::new();
        assert!(matches!(
            Server::start(Box::new(policy), config),
            Err(ServeError::LogNotEmpty { .. })
        ));
        let (policy, ..) = CountingPolicy::new();
        assert!(matches!(
            Server::recover(Box::new(policy), ServeConfig::default()),
            Err(ServeError::Recovery { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_rejects_divergence_and_unknown_feedback() {
        let ctx = context(1, 2);
        let records = vec![LogRecord::Decision {
            request_id: 0,
            context: Arc::new(ctx.clone()),
            shown: vec![TaskId(100), TaskId(101)], // ascending: not what the policy does
            assignment: false,
        }];
        let (mut policy, ..) = CountingPolicy::new();
        assert!(matches!(
            replay_records(&mut policy, &records),
            Err(ServeError::Recovery { .. })
        ));

        let records = vec![LogRecord::Feedback {
            request_id: 3,
            feedback: feedback_for(
                &ctx,
                &ServeDecision {
                    request_id: 3,
                    shown: vec![TaskId(100)],
                    assignment: false,
                },
            ),
        }];
        let (mut policy, ..) = CountingPolicy::new();
        assert!(matches!(
            replay_records(&mut policy, &records),
            Err(ServeError::Recovery { .. })
        ));
    }

    #[test]
    fn replayed_pending_entries_share_their_record_contexts() {
        let contexts: Vec<_> = (0..3).map(|tag| Arc::new(context(tag, 2))).collect();
        let records: Vec<_> = (0..3)
            .map(|tag| LogRecord::Decision {
                request_id: tag as u64,
                context: Arc::clone(&contexts[tag as usize]),
                shown: vec![TaskId(100 * tag + 1), TaskId(100 * tag)],
                assignment: false,
            })
            .collect();
        let (mut policy, ..) = CountingPolicy::new();
        let state = replay_records(&mut policy, &records).unwrap();
        assert_eq!(state.pending_len(), 3);
        for (id, context) in contexts.iter().enumerate() {
            assert!(Arc::ptr_eq(&state.pending[&(id as u64)], context));
        }
    }

    #[test]
    fn concurrent_clients_all_get_answers_and_ids_are_unique() {
        let (policy, ..) = CountingPolicy::new();
        let config = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let server = Server::start(Box::new(policy), config).unwrap();

        let mut handles = Vec::new();
        for t in 0..6u32 {
            let client = server.client();
            handles.push(std::thread::spawn(move || {
                (0..20u32)
                    .map(|i| client.decide(context(1000 * t + i, 2)).unwrap().request_id)
                    .collect::<Vec<u64>>()
            }));
        }
        let mut ids: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 120, "every request got a unique id");
        let (_policy, report) = server.shutdown();
        assert_eq!(report.decisions, 120);
        assert!(report.max_round_decisions <= 4, "max_batch respected");
    }

    #[test]
    fn kill_answers_nobody_late_and_acked_work_is_durable() {
        let dir = tmp_dir("unit-kill");
        let config = ServeConfig {
            log: Some(LogConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let (policy, ..) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), config).unwrap();
        let client = server.client();
        let acked = client.decide(context(0, 1)).unwrap();
        let (_policy, report) = server.kill();
        assert_eq!(report.decisions, 1);
        // The acked decision survived the "crash".
        let records = DecisionLog::read(&dir).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].request_id(), Some(acked.request_id));
        // The dead server refuses new work.
        assert!(matches!(
            client.decide(context(1, 1)),
            Err(ServeError::ShuttingDown)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_outage_degrades_heals_and_marks_the_log() {
        // Phase 1: learn the op index where round 2's I/O starts, on a clean
        // injected fs (same plan shape, no faults).
        let dir = tmp_dir("unit-degrade-probe");
        let (fs, probe) = Fs::faulty(FaultPlan::none());
        let mut log_config = LogConfig::new(&dir);
        log_config.fs = fs;
        let (policy, ..) = CountingPolicy::new();
        let config = ServeConfig {
            log: Some(log_config),
            ..ServeConfig::default()
        };
        let server = Server::start(Box::new(policy), config).unwrap();
        let client = server.client();
        client.decide(context(0, 1)).unwrap();
        let round2_start = probe.ops();
        server.kill();
        std::fs::remove_dir_all(&dir).unwrap();

        // Phase 2: everything in a 12-op window starting at round 2 fails. Round 1
        // commits cleanly; round 2's append exhausts its retries and the server goes
        // degraded (its records become the backlog); later rounds shed until the
        // window passes, then the heal appends backlog + marker and serving resumes.
        let dir = tmp_dir("unit-degrade");
        let (fs, _probe) = Fs::faulty(FaultPlan::fail_ops(round2_start, round2_start + 12, None));
        let mut log_config = LogConfig::new(&dir);
        log_config.fs = fs;
        let (policy, ..) = CountingPolicy::new();
        let config = ServeConfig {
            log: Some(log_config),
            ..ServeConfig::default()
        };
        let server = Server::start(Box::new(policy), config).unwrap();
        let client = server.client();

        client.decide(context(0, 1)).unwrap();
        let degraded = client.decide(context(1, 1)).unwrap_err();
        assert!(
            matches!(degraded, ServeError::Degraded { .. }),
            "{degraded}"
        );
        // Keep retrying until the outage window passes and the server heals.
        let mut healed_decision = None;
        for attempt in 0..32 {
            match client.decide(context(100 + attempt, 1)) {
                Ok(d) => {
                    healed_decision = Some(d);
                    break;
                }
                Err(ServeError::Degraded { .. }) => continue,
                Err(other) => panic!("unexpected error while degraded: {other}"),
            }
        }
        let healed_decision = healed_decision.expect("server never healed");
        // Ids never fork: round 2's decision executed (id 1) even though its client
        // was told to retry, so the first post-heal decision is id 2 or later.
        assert!(healed_decision.request_id >= 2);

        let (_policy, report) = server.shutdown();
        assert!(report.log_error.is_none(), "{:?}", report.log_error);
        assert_eq!(report.healed, 1);
        assert!(report.degraded_rounds >= 1);
        assert!(report.shed_decides >= 1);

        // The log carries the backlog and exactly one degraded marker, and replays.
        let records = DecisionLog::read(&dir).unwrap();
        let markers: Vec<_> = records
            .iter()
            .filter(|r| matches!(r, LogRecord::Degraded { .. }))
            .collect();
        assert_eq!(markers.len(), 1);
        let (mut fresh, ..) = CountingPolicy::new();
        let state = replay_records(&mut fresh, &records).unwrap();
        assert_eq!(state.degraded, 1);
        assert_eq!(state.next_request_id, healed_decision.request_id + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staleness_bound_sheds_without_touching_the_policy() {
        let (policy, calls) = CountingPolicy::new();
        calls.hold.store(true, Ordering::SeqCst);
        let config = ServeConfig {
            shed_staler_than: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        };
        let server = Server::start(Box::new(policy), config).unwrap();
        let stale = std::thread::scope(|scope| {
            // The first round stalls inside `act`; the second request queues behind it
            // far past the staleness bound before the gate opens.
            let first = server.client();
            let first = scope.spawn(move || first.decide(context(0, 1)));
            while calls.acts.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let second = server.client();
            let second = scope.spawn(move || second.decide(context(1, 1)));
            std::thread::sleep(Duration::from_millis(200));
            calls.hold.store(false, Ordering::SeqCst);
            first.join().unwrap().unwrap();
            second.join().unwrap()
        });
        let err = stale.unwrap_err();
        assert!(matches!(err, ServeError::Degraded { .. }), "{err}");
        let (_policy, report) = server.shutdown();
        assert_eq!(report.shed_decides, 1);
        assert_eq!(report.decisions, 1);
        assert_eq!(
            calls.acts.load(Ordering::SeqCst),
            1,
            "shed request never acted"
        );
    }

    #[test]
    fn a_feedback_only_round_does_not_call_act_batch() {
        let (policy, calls) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), ServeConfig::default()).unwrap();
        let client = server.client();
        let ctx = context(1, 2);
        let d = client.decide(ctx.clone()).unwrap();
        assert_eq!(calls.batches.load(Ordering::SeqCst), 1);
        // The decide was answered, so its round is over: the feedback (and the stop
        // marker behind it) make up rounds with no decides.
        client
            .feedback(d.request_id, feedback_for(&ctx, &d))
            .unwrap();
        let (_policy, report) = server.shutdown();
        assert_eq!(report.feedbacks, 1);
        assert_eq!(calls.observes.load(Ordering::SeqCst), 1);
        assert_eq!(
            report.rounds, 2,
            "the feedback committed a round of its own"
        );
        assert_eq!(calls.batches.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn recovery_replays_segment_by_segment_and_a_torn_sealed_one_consumes_the_policy() {
        let dir = tmp_dir("unit-torn-middle");
        let mut log_config = LogConfig::new(&dir);
        log_config.segment_bytes = 1; // every round after the first rotates
        let config = ServeConfig {
            log: Some(log_config),
            ..ServeConfig::default()
        };
        let (policy, ..) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), config.clone()).unwrap();
        let client = server.client();
        for tag in 0..3 {
            client.decide(context(tag, 2)).unwrap(); // one round per segment
        }
        server.shutdown();
        let seg1 = dir.join(crowd_ckpt::wal::segment_file_name(1));
        let bytes = std::fs::read(&seg1).unwrap();
        std::fs::write(&seg1, &bytes[..bytes.len() - 1]).unwrap();
        let files = |dir: &PathBuf| {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| std::fs::read(e.unwrap().path()).unwrap())
                .collect();
            files.sort();
            files
        };
        let before = files(&dir);

        // Segment 0's decision was replayed before segment 1 was read; the torn sealed
        // segment then fails recovery typed, the partly replayed policy is gone with
        // the error, and no file changed.
        let (policy, calls) = CountingPolicy::new();
        let err = Server::recover(Box::new(policy), config).err().unwrap();
        assert!(matches!(err, ServeError::Log { .. }), "{err}");
        assert_eq!(calls.acts.load(Ordering::SeqCst), 1);
        assert_eq!(files(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_without_checkpoint_support_fails_typed_and_serving_continues() {
        let dir = tmp_dir("unit-compact-unsupported");
        let config = ServeConfig {
            log: Some(LogConfig::new(&dir)),
            compact_after_segments: Some(1),
            ..ServeConfig::default()
        };
        let (policy, ..) = CountingPolicy::new();
        let server = Server::start(Box::new(policy), config).unwrap();
        let client = server.client();
        client.decide(context(0, 1)).unwrap();
        // Explicit compaction: CountingPolicy has no checkpoint support.
        let err = client.compact().unwrap_err();
        assert!(matches!(err, ServeError::Log { .. }), "{err}");
        // Serving continues regardless.
        client.decide(context(1, 1)).unwrap();
        let (_policy, report) = server.shutdown();
        assert_eq!(report.decisions, 2);
        assert_eq!(report.compactions, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
