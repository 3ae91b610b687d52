//! The [`Session`] facade: owns the replay loop of the paper's evaluation protocol and
//! drives any [`Policy`] against any [`Env`] through the zero-copy view interface, one
//! simulation at a time or `N` of them in lock-step ([`SessionBatch`]).
//!
//! A session advances one worker arrival per [`Session::step`]:
//!
//! 1. arrivals inside the warm-up window are served a random full-pool ranking (identical
//!    for every policy) and recorded into the warm-start history;
//! 2. on the first post-warm-up arrival the policy receives the history via
//!    [`Policy::warm_start`];
//! 3. evaluated arrivals run the hot loop `Env::next_arrival` → `Policy::act` →
//!    `Env::apply` → `Policy::observe` with a reusable [`Decision`] buffer and borrowed
//!    views — no per-arrival clones of task or worker feature vectors;
//! 4. decision time and model-update time are timed separately (Table I), and the metric
//!    accumulator records every evaluated feedback.
//!
//! [`SessionBatch`] steps many independent sessions in one call. With
//! [`SessionBatch::step_all`] each session is paired with its own policy; with
//! [`SessionBatch::step_batched`] one shared [`BatchedPolicy`] decides on every live
//! session's arrival in a single `act_batch` call — for the DDQN agent that is **one
//! Q-network forward pass for `N` simulations** (see `ARCHITECTURE.md` at the repository
//! root for where this sits in the layering).
//!
//! # Parallel stepping
//!
//! Give the batch a pool ([`SessionBatch::set_pool`]) and [`SessionBatch::step_all`]
//! shards the session/policy *pairs* across pool workers: each pair owns everything its
//! step touches (environment, metrics, timers, policy, RNG streams), so sharding is
//! deterministic by construction and the outcomes are **bit-identical** to the serial
//! pool's sequential loop at any thread count (`tests/parallel_equivalence.rs`).
//! [`SessionBatch::step_batched`] uses the same pool for its pack/unpack stages around
//! the single shared `act_batch` call: environment `apply` + metric recording run per
//! session in parallel, while the shared policy's `observe` calls stay sequential in
//! session order (identical to the serial round).
//!
//! # Checkpoint / resume
//!
//! Between steps, [`Session::checkpoint`] snapshots the whole run — replay-protocol
//! progress (event cursor, warm-up phase and history, metric samples), environment
//! state and policy state — into a `crowd_ckpt` snapshot; [`Session::resume`] restores
//! it into a freshly constructed session + policy, from which the replay continues
//! **bit-identically** to an uninterrupted run (`tests/checkpoint_equivalence.rs`, at
//! any `CROWD_THREADS`). The act and update timers are measurements and stay out of the
//! snapshot, so equal runs write equal bytes; a resumed session's timers cover only the
//! arrivals stepped after the resume. [`SessionBatch`] has
//! per-member variants ([`SessionBatch::checkpoint`] / [`SessionBatch::resume`], plus
//! `_shared` twins for the shared-policy batched flow), and `table1_efficiency` wires
//! the subsystem to the command line (`--checkpoint-every N` / `--resume PATH`). The
//! byte-level snapshot layout is specified in `docs/CHECKPOINT_FORMAT.md`.

use crate::runner::{RunOutcome, RunnerConfig};
use crowd_ckpt::{CkptError, Snapshot, SnapshotFile, StateReader, StateWriter};
use crowd_metrics::{MetricsAccumulator, UpdateTimer};
use crowd_sim::{
    ArrivalContext, ArrivalView, BatchedPolicy, BoxedPolicy, Dataset, Decision, Env, Platform,
    Policy, PolicyFeedback, TaskId,
};
use crowd_tensor::{Rng, ThreadPool};
use std::time::Instant;

/// A policy hook recorded during the env-only advance ([`Session::advance_env`]) and
/// replayed by [`Session::drain_hooks`] — the split that lets a batch advance many
/// sessions' environments in parallel while the shared policy's hooks stay sequential.
/// Hooks never touch the environment, so deferring them past the advance loop hands the
/// policy the exact call sequence of the fused path.
#[derive(Debug, Clone, Copy)]
enum PendingHook {
    /// `policy.end_of_day(day)` — timed as model-update time.
    EndOfDay(usize),
    /// `policy.warm_start(&history)` — the one-time warm-up hand-off, untimed.
    WarmStart,
}

/// One replay of a dataset against one policy, steppable one arrival at a time.
#[derive(Debug)]
pub struct Session<E: Env = Platform> {
    env: E,
    config: RunnerConfig,
    decision: Decision,
    metrics: MetricsAccumulator,
    update_timer: UpdateTimer,
    act_timer: UpdateTimer,
    warmup_rng: Rng,
    warmup_order: Vec<TaskId>,
    warmup_history: Vec<(ArrivalContext, PolicyFeedback)>,
    warm_started: bool,
    current_day: Option<usize>,
    evaluated_arrivals: usize,
    done: bool,
    /// Policy hooks recorded by [`Session::advance_env`], drained (in order) by
    /// [`Session::drain_hooks`]. Always empty between steps — both stepping paths drain
    /// before returning — so it never enters a checkpoint.
    pending_hooks: Vec<PendingHook>,
}

impl Session<Platform> {
    /// Builds a session over a [`Platform`] replay of `dataset` with the default feature
    /// space — the standard experiment setup.
    pub fn for_dataset(dataset: &Dataset, config: &RunnerConfig) -> Self {
        let features = Platform::default_feature_space(dataset);
        let env = Platform::new(dataset.clone(), features, config.platform_seed);
        Session::new(env, config)
    }
}

impl<E: Env> Session<E> {
    /// Wraps an environment in a fresh session.
    pub fn new(env: E, config: &RunnerConfig) -> Self {
        Session {
            env,
            config: config.clone(),
            decision: Decision::new(),
            metrics: MetricsAccumulator::new(config.top_k),
            update_timer: UpdateTimer::new(),
            act_timer: UpdateTimer::new(),
            warmup_rng: Rng::seed_from(config.warmup_seed),
            warmup_order: Vec::new(),
            warmup_history: Vec::new(),
            warm_started: config.warmup_months == 0,
            current_day: None,
            evaluated_arrivals: 0,
            done: false,
            pending_hooks: Vec::new(),
        }
    }

    /// The wrapped environment.
    pub fn env(&self) -> &E {
        &self.env
    }

    /// Mutable access to the wrapped environment (equivalence tests probe RNG streams
    /// and fingerprints through this).
    pub fn env_mut(&mut self) -> &mut E {
        &mut self.env
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &MetricsAccumulator {
        &self.metrics
    }

    /// Number of evaluated (post-warm-up) arrivals so far.
    pub fn evaluated_arrivals(&self) -> usize {
        self.evaluated_arrivals
    }

    /// True once the event stream is exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The **env-only** half of advancing to the next evaluated arrival: consumes
    /// warm-up arrivals (random full-pool rankings from the session-owned warm-up RNG),
    /// empty pools and day boundaries, recording the policy hooks they imply into
    /// `pending_hooks` instead of calling them. Touches only this session's own state,
    /// so a batch may run it for many sessions in parallel; the caller must follow up
    /// with [`Session::drain_hooks`] before the policy acts.
    fn advance_env(&mut self) -> bool {
        if self.done {
            return false;
        }
        loop {
            if !self.env.next_arrival() {
                self.done = true;
                return false;
            }
            let (time, empty) = {
                let view = self.env.arrival();
                (view.time, view.is_empty())
            };
            let month = Dataset::month_of(time);
            let day = Dataset::day_of(time);

            // End-of-day hook (supervised retraining); replayed by `drain_hooks`, where
            // it counts as model update time.
            if self.warm_started {
                if let Some(prev_day) = self.current_day {
                    if day != prev_day {
                        self.pending_hooks.push(PendingHook::EndOfDay(prev_day));
                    }
                }
            }
            self.current_day = Some(day);

            if month < self.config.warmup_months {
                // Initialisation window: random full-pool ranking, identical for every
                // policy.
                if empty {
                    continue;
                }
                self.decision.clear();
                {
                    let view = self.env.arrival();
                    self.warmup_order.clear();
                    self.warmup_order
                        .extend((0..view.n_tasks()).map(|i| view.task_id(i)));
                }
                self.warmup_rng.shuffle(&mut self.warmup_order);
                self.decision.extend(self.warmup_order.iter().copied());
                self.env.apply(&self.decision);
                // Owned history records are gathered only here, outside the hot loop.
                let context = self.env.arrival().to_context();
                let feedback = self.env.feedback().to_feedback();
                self.warmup_history.push((context, feedback));
                continue;
            }

            if !self.warm_started {
                self.pending_hooks.push(PendingHook::WarmStart);
                self.warm_started = true;
            }

            if empty {
                continue;
            }

            return true;
        }
    }

    /// Replays the policy hooks recorded by [`Session::advance_env`], in recording
    /// order. For a shared policy this must run per session, in session order —
    /// exactly how [`SessionBatch::step_batched`] sequences it.
    fn drain_hooks(&mut self, policy: &mut (impl Policy + ?Sized)) {
        if self.pending_hooks.is_empty() {
            return;
        }
        let mut hooks = std::mem::take(&mut self.pending_hooks);
        for hook in hooks.drain(..) {
            match hook {
                PendingHook::EndOfDay(day) => self.update_timer.time(|| policy.end_of_day(day)),
                PendingHook::WarmStart => {
                    // The history is read once, here; release it for the rest of the run.
                    let history = std::mem::take(&mut self.warmup_history);
                    policy.warm_start(&history);
                }
            }
        }
        // Hand the (now empty) buffer back so its capacity is reused across steps.
        self.pending_hooks = hooks;
    }

    /// Advances the event stream to the next *evaluated* arrival, consuming warm-up
    /// arrivals, empty pools and day boundaries on the way, and leaves the environment
    /// positioned on it. Returns `false` once the stream is exhausted.
    ///
    /// Shared by sequential [`Session::step`] and [`SessionBatch::step_batched`]: after a
    /// `true` return the caller produces a decision into `self.decision` and calls
    /// [`Session::commit_decision`]. Composed from the env-only advance and the policy
    /// hook replay; since hooks never touch the environment, the fused and split paths
    /// hand the policy identical call sequences.
    fn advance_to_arrival(&mut self, policy: &mut (impl Policy + ?Sized)) -> bool {
        let live = self.advance_env();
        self.drain_hooks(policy);
        live
    }

    /// Applies `self.decision` to the pending arrival and records the metrics — the
    /// policy-free half of committing a decision. Touches only this session's own
    /// environment and accumulator, so a batch may run it for many sessions in parallel;
    /// the staged-commit contract keeps the arrival and feedback views valid for the
    /// subsequent [`Session::observe_feedback`].
    fn apply_and_record(&mut self) {
        let month = Dataset::month_of(self.env.arrival().time);
        self.env.apply(&self.decision);
        let feedback = self.env.feedback();
        self.metrics
            .record(month - self.config.warmup_months, &feedback);
        self.evaluated_arrivals += 1;
    }

    /// Hands the (still valid) arrival/feedback views to the policy's `observe`, timed —
    /// the policy half of committing a decision. Must run after
    /// [`Session::apply_and_record`] and, for a shared policy, in session order.
    fn observe_feedback(&mut self, policy: &mut (impl Policy + ?Sized)) {
        let view = self.env.arrival();
        let feedback = self.env.feedback();
        self.update_timer.time(|| policy.observe(&view, &feedback));
    }

    /// Applies `self.decision` to the pending arrival, records the metrics and hands the
    /// feedback to the policy's `observe`. Second half of [`Session::step`], called by
    /// [`SessionBatch::step_batched`] after the batched act filled the decision buffer.
    fn commit_decision(&mut self, policy: &mut (impl Policy + ?Sized)) {
        self.apply_and_record();
        self.observe_feedback(policy);
    }

    /// Advances the replay by one *evaluated* arrival (warm-up arrivals are consumed
    /// internally). Returns `false` once the event stream is exhausted.
    pub fn step(&mut self, policy: &mut (impl Policy + ?Sized)) -> bool {
        if !self.advance_to_arrival(policy) {
            return false;
        }
        // The Policy contract promises an empty buffer on entry to `act`.
        self.decision.clear();
        {
            let view = self.env.arrival();
            let decision = &mut self.decision;
            self.act_timer.time(|| policy.act(&view, decision));
        }
        self.commit_decision(policy);
        true
    }

    /// Runs the session to completion; returns the number of evaluated arrivals.
    pub fn run(&mut self, policy: &mut (impl Policy + ?Sized)) -> usize {
        while self.step(policy) {}
        self.evaluated_arrivals
    }

    /// Serialises the session's replay-protocol progress: warm-up months configured
    /// (validation), metric samples, the warm-up RNG, the day cursor, evaluated-arrival
    /// count and done flag, and the accumulated warm-start history — empty once it has
    /// been handed off.
    fn save_session_state(&self, w: &mut StateWriter) {
        // Both stepping paths drain hooks before returning, so between steps — the only
        // place checkpoints are taken — there is never one pending (and the snapshot
        // format needs no hook section).
        debug_assert!(
            self.pending_hooks.is_empty(),
            "checkpoint taken with undrained policy hooks"
        );
        w.put_usize(self.config.warmup_months);
        w.save(&self.metrics);
        w.save(&self.warmup_rng);
        w.put_bool(self.warm_started);
        w.save(&self.current_day.map(|d| d as u64));
        w.put_usize(self.evaluated_arrivals);
        w.put_bool(self.done);
        // Empty once handed off: `drain_hooks` releases it after `warm_start`.
        w.save(&self.warmup_history);
    }

    fn load_session_state(&mut self, r: &mut StateReader<'_>) -> crowd_ckpt::Result<()> {
        let warmup_months = r.take_usize()?;
        if warmup_months != self.config.warmup_months {
            return Err(CkptError::Corrupt {
                what: "session state",
                detail: format!(
                    "snapshot was taken with {warmup_months} warm-up month(s), this session is configured with {}",
                    self.config.warmup_months
                ),
            });
        }
        r.load(&mut self.metrics)?;
        r.load(&mut self.warmup_rng)?;
        self.warm_started = r.take_bool()?;
        self.current_day = r.decode::<Option<u64>>()?.map(|d| d as usize);
        self.evaluated_arrivals = r.take_usize()?;
        self.done = r.take_bool()?;
        self.warmup_history = r.decode()?;
        self.decision.clear();
        self.warmup_order.clear();
        self.pending_hooks.clear();
        Ok(())
    }
}

impl<E: Env + crowd_ckpt::SaveState> Session<E> {
    /// Adds this session's full state — replay protocol progress (`{prefix}session`),
    /// environment (`{prefix}env`) and policy (`{prefix}policy`) — to `snapshot`.
    ///
    /// Must be called **between steps** (after a [`Session::step`] returned, before the
    /// next one). Staged environment effects are flushed first; the commit applies the
    /// exact mutations the next `next_arrival` would have applied, so taking a
    /// checkpoint never perturbs the continuing run — with or without a kill, the
    /// remainder of the replay is bit-identical to an uninterrupted one
    /// (`tests/checkpoint_equivalence.rs`).
    ///
    /// Fails with [`CkptError::Unsupported`] when the policy does not implement
    /// checkpointing ([`Policy::checkpoint_state`]); nothing is added to `snapshot` in
    /// that case.
    pub fn checkpoint_into(
        &mut self,
        policy: &dyn Policy,
        snapshot: &mut Snapshot,
        prefix: &str,
    ) -> crowd_ckpt::Result<()> {
        let mut policy_bytes = StateWriter::new();
        policy.checkpoint_state(&mut policy_bytes)?;
        self.save_member(snapshot, prefix);
        snapshot.put_raw(&format!("{prefix}policy"), policy_bytes.into_bytes());
        Ok(())
    }

    /// Adds the `{prefix}session` and `{prefix}env` sections, flushing staged
    /// environment effects first — everything of a checkpoint but the policy.
    fn save_member(&mut self, snapshot: &mut Snapshot, prefix: &str) {
        self.env.flush();
        let mut session_bytes = StateWriter::new();
        self.save_session_state(&mut session_bytes);
        let mut env_bytes = StateWriter::new();
        self.env.save_state(&mut env_bytes);
        snapshot.put_raw(&format!("{prefix}session"), session_bytes.into_bytes());
        snapshot.put_raw(&format!("{prefix}env"), env_bytes.into_bytes());
    }

    /// One-session convenience over [`Session::checkpoint_into`]: a snapshot with the
    /// unprefixed `session` / `env` / `policy` sections.
    pub fn checkpoint(&mut self, policy: &dyn Policy) -> crowd_ckpt::Result<Snapshot> {
        let mut snapshot = Snapshot::new();
        self.checkpoint_into(policy, &mut snapshot, "")?;
        Ok(snapshot)
    }
}

impl<E: Env + crowd_ckpt::LoadState> Session<E> {
    /// Restores the state written by [`Session::checkpoint_into`] under `prefix` into
    /// this session (which must have been freshly constructed over the **same** dataset
    /// and [`RunnerConfig`]) and `policy` (freshly constructed from the same
    /// configuration). After a successful resume, stepping continues bit-identically to
    /// the run the snapshot was taken from. On error the session and policy are left in
    /// an unspecified (but memory-safe) state and must be discarded.
    pub fn resume_sections(
        &mut self,
        policy: &mut dyn Policy,
        file: &SnapshotFile,
        prefix: &str,
    ) -> crowd_ckpt::Result<()> {
        self.load_member(file, prefix)?;
        let mut r = file.reader(&format!("{prefix}policy"))?;
        policy.restore_state(&mut r)?;
        r.finish("policy state")
    }

    /// Restores the sections [`Session::save_member`] wrote under `prefix`.
    fn load_member(&mut self, file: &SnapshotFile, prefix: &str) -> crowd_ckpt::Result<()> {
        let mut r = file.reader(&format!("{prefix}session"))?;
        self.load_session_state(&mut r)?;
        r.finish("session state")?;
        file.load_into(&format!("{prefix}env"), &mut self.env)
    }

    /// One-session convenience over [`Session::resume_sections`] (unprefixed names, as
    /// written by [`Session::checkpoint`]).
    pub fn resume(
        &mut self,
        policy: &mut dyn Policy,
        file: &SnapshotFile,
    ) -> crowd_ckpt::Result<()> {
        self.resume_sections(policy, file, "")
    }
}

impl<E: Env> Session<E> {
    /// Consumes the session into the final [`RunOutcome`].
    pub fn finish(mut self, policy_name: &str) -> RunOutcome {
        // A partially-stepped session may still hold staged effects from its last apply;
        // flush them so the reported totals include the final arrival's completion.
        self.env.flush();
        RunOutcome {
            policy: policy_name.to_string(),
            metrics: self.metrics,
            update_timer: self.update_timer,
            act_timer: self.act_timer,
            final_total_quality: self.env.total_task_quality(),
            total_completions: self.env.total_completions(),
            evaluated_arrivals: self.evaluated_arrivals,
        }
    }
}

/// `N` independent sessions stepped in lock-step — one call advances every live simulation
/// by one evaluated arrival. [`SessionBatch::step_all`] pairs each session with its own
/// policy; [`SessionBatch::step_batched`] drives every session with one shared
/// [`BatchedPolicy`], collecting all live arrivals into a single `act_batch` call so the
/// DDQN agent can score them in one Q-network forward pass.
#[derive(Debug, Default)]
pub struct SessionBatch<E: Env = Platform> {
    sessions: Vec<Session<E>>,
    /// Scratch decision buffers for `step_batched`, index-aligned with `live`; reused
    /// across rounds so steady-state batched stepping allocates only the view list.
    scratch_decisions: Vec<Decision>,
    /// Scratch list of the live sessions' indexes for the current batched round.
    live: Vec<usize>,
    /// Pool used by [`SessionBatch::step_all`] and the pack/unpack stages of
    /// [`SessionBatch::step_batched`]. Serial by default.
    pool: ThreadPool,
}

impl<E: Env> SessionBatch<E> {
    /// An empty batch.
    pub fn new() -> Self {
        SessionBatch {
            sessions: Vec::new(),
            scratch_decisions: Vec::new(),
            live: Vec::new(),
            pool: ThreadPool::serial(),
        }
    }

    /// Sets the pool used by the batch's parallel stepping paths (builder form).
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.set_pool(pool);
        self
    }

    /// Sets the pool used by the batch's parallel stepping paths. Stepping results are
    /// bit-identical at any thread count; only wall clock changes.
    pub fn set_pool(&mut self, pool: ThreadPool) {
        self.pool = pool;
    }

    /// The batch's pool.
    pub fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// Adds a session to the batch.
    pub fn push(&mut self, session: Session<E>) {
        self.sessions.push(session);
    }

    /// Number of sessions in the batch.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when the batch holds no session.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The sessions, in insertion order.
    pub fn sessions(&self) -> &[Session<E>] {
        &self.sessions
    }

    /// Steps every live session once against its paired policy; returns how many sessions
    /// are still live. `policies` must align with the sessions by index.
    ///
    /// The session/policy pairs are sharded across the batch's pool
    /// ([`SessionBatch::set_pool`]): each pool worker steps a contiguous shard of pairs,
    /// one arrival each, and a serial pool is the plain sequential loop. A pair owns
    /// everything its step touches — the session's environment, decision buffer,
    /// metrics, timers and warm-up RNG, plus the policy with its own model state and RNG
    /// streams — so the shards share nothing and the outcomes (metrics, completions,
    /// qualities, every policy's post-run state) are **bit-identical** at any thread
    /// count, proven end to end by `tests/parallel_equivalence.rs`. This is the
    /// replica-sweep hot path: `N` simulations of the paper's protocol for
    /// ~`N/threads` the wall clock.
    pub fn step_all(&mut self, policies: &mut [BoxedPolicy]) -> usize
    where
        E: Send,
    {
        assert_eq!(
            self.sessions.len(),
            policies.len(),
            "one policy per session required"
        );
        let mut pairs: Vec<(&mut Session<E>, &mut BoxedPolicy)> =
            self.sessions.iter_mut().zip(policies.iter_mut()).collect();
        self.pool
            .par_chunks(&mut pairs, 1, |_, shard| {
                let mut live = 0usize;
                for (session, policy) in shard.iter_mut() {
                    if session.step(policy.as_mut()) {
                        live += 1;
                    }
                }
                live
            })
            .into_iter()
            .sum()
    }

    /// Runs [`SessionBatch::step_all`] rounds until every session is exhausted.
    pub fn run_all(&mut self, policies: &mut [BoxedPolicy])
    where
        E: Send,
    {
        while self.step_all(policies) > 0 {}
    }

    /// Steps every live session once against one **shared** policy, collecting all pending
    /// arrivals into a single [`BatchedPolicy::act_batch`] call; returns how many sessions
    /// are still live.
    ///
    /// One round runs in three phases:
    ///
    /// 1. every session advances to its next evaluated arrival (warm-up windows, empty
    ///    pools and end-of-day hooks are consumed per session, in session order);
    /// 2. the policy decides on all live arrivals in one `act_batch` call — for the DDQN
    ///    agent a single packed Q-network forward pass;
    /// 3. each decision is applied and observed, in session order.
    ///
    /// Equivalence with sequential stepping (`for s in sessions { s.step(&mut policy) }`):
    /// every view is evaluated against the parameters the policy held at the start of
    /// phase 2, so the round is bit-identical to the sequential one exactly when `act` is
    /// a pure function of those parameters — i.e. nothing in `observe`/`warm_start`/
    /// `end_of_day` changes what `act` would return. The frozen-learning DDQN agent
    /// satisfies this and `tests/batched_equivalence.rs` proves it (metrics, completions
    /// and RNG stream all match bit for bit). A *training* agent updates its networks
    /// between the acts of a sequential round, which batched stepping intentionally trades
    /// away for the shared forward pass — standard vectorized-environment semantics.
    ///
    /// The batched act time is split evenly across the live sessions' decision timers so
    /// per-session `RunOutcome`s stay comparable with the sequential path.
    ///
    /// With a multi-thread pool ([`SessionBatch::set_pool`]) the *unpack* stage after
    /// `act_batch` — per-session `Env::apply` plus metric recording — runs sharded across
    /// workers (every session owns its environment and accumulator), while the shared
    /// policy's `observe` calls stay sequential in session order. Within each session the
    /// apply → record → observe order is unchanged and the policy sees the exact call
    /// sequence of the serial round, so batched stepping stays **bit-identical** at any
    /// thread count. (The matching *pack* stage — building all views' state tensors in
    /// parallel — lives inside the DDQN agent's `act_batch`; hand the agent the same pool
    /// to enable it.)
    pub fn step_batched<P: BatchedPolicy + ?Sized>(&mut self, policy: &mut P) -> usize
    where
        E: Send,
    {
        self.live.clear();
        // Phase 1a: env-only advance — each session consumes its own warm-up arrivals,
        // empty pools and day boundaries, recording policy hooks instead of calling
        // them. No shared state, so large batches shard across the pool.
        let advance_pool = if self.sessions.len() >= self.pool.threads() * 4 {
            self.pool
        } else {
            ThreadPool::serial()
        };
        let live_flags: Vec<bool> = advance_pool
            .par_chunks(&mut self.sessions, 1, |_, shard| {
                shard
                    .iter_mut()
                    .map(|session| session.advance_env())
                    .collect::<Vec<bool>>()
            })
            .into_iter()
            .flatten()
            .collect();
        // Phase 1b: the recorded hooks replay against the shared policy sequentially,
        // in session order — the exact call sequence of the fused sequential advance.
        for (i, session) in self.sessions.iter_mut().enumerate() {
            session.drain_hooks(policy);
            if live_flags[i] {
                self.live.push(i);
            }
        }
        let n = self.live.len();
        if n == 0 {
            return 0;
        }
        if self.scratch_decisions.len() < n {
            self.scratch_decisions.resize_with(n, Decision::new);
        }
        let start = Instant::now();
        {
            // The Policy contract promises empty buffers on entry to `act_batch`.
            for decision in &mut self.scratch_decisions[..n] {
                decision.clear();
            }
            let sessions = &self.sessions;
            let views: Vec<ArrivalView<'_>> = self
                .live
                .iter()
                .map(|&i| sessions[i].env.arrival())
                .collect();
            policy.act_batch(&views, &mut self.scratch_decisions[..n]);
        }
        let per_session = start.elapsed() / n as u32;
        // Collect the live sessions once (`self.live` is ascending, so a single merge
        // walk over `iter_mut` suffices) and swap their decisions in.
        let mut live_iter = self.live.iter().copied().peekable();
        let mut live_sessions: Vec<&mut Session<E>> = Vec::with_capacity(n);
        for (i, session) in self.sessions.iter_mut().enumerate() {
            if live_iter.peek() == Some(&i) {
                live_iter.next();
                live_sessions.push(session);
            }
        }
        for (session, scratch) in live_sessions.iter_mut().zip(&mut self.scratch_decisions) {
            std::mem::swap(&mut session.decision, scratch);
            session.act_timer.record(per_session);
        }
        // Unpack: apply + record per session (parallel — no policy involved), then the
        // shared policy observes every feedback sequentially in session order. Small
        // rounds run the unpack serially: a per-session apply is microseconds, and even
        // the persistent pool's warm dispatch is not free — the two paths are
        // bit-identical anyway.
        let unpack_pool = if n >= self.pool.threads() * 4 {
            self.pool
        } else {
            ThreadPool::serial()
        };
        unpack_pool.par_chunks(&mut live_sessions, 1, |_, shard| {
            for session in shard.iter_mut() {
                session.apply_and_record();
            }
        });
        for session in &mut live_sessions {
            session.observe_feedback(policy);
        }
        n
    }

    /// Runs batched rounds until every session is exhausted.
    pub fn run_batched<P: BatchedPolicy + ?Sized>(&mut self, policy: &mut P)
    where
        E: Send,
    {
        while self.step_batched(policy) > 0 {}
    }

    /// Consumes the batch into one [`RunOutcome`] per session.
    pub fn finish(self, policies: &[BoxedPolicy]) -> Vec<RunOutcome> {
        assert_eq!(self.sessions.len(), policies.len());
        self.sessions
            .into_iter()
            .zip(policies.iter())
            .map(|(session, policy)| session.finish(policy.name()))
            .collect()
    }

    /// Consumes the batch into one [`RunOutcome`] per session, all attributed to the same
    /// shared policy — the counterpart of [`SessionBatch::step_batched`] /
    /// [`SessionBatch::run_batched`].
    pub fn finish_shared(self, policy_name: &str) -> Vec<RunOutcome> {
        self.sessions
            .into_iter()
            .map(|session| session.finish(policy_name))
            .collect()
    }

    /// Snapshots every session/policy pair: a `batch.meta` section holding the member
    /// count, then per-member `member{i}.session` / `member{i}.env` / `member{i}.policy`
    /// sections ([`Session::checkpoint_into`]). Call between [`SessionBatch::step_all`]
    /// rounds; resuming with [`SessionBatch::resume`] continues every replica
    /// bit-identically.
    pub fn checkpoint(&mut self, policies: &[BoxedPolicy]) -> crowd_ckpt::Result<Snapshot>
    where
        E: crowd_ckpt::SaveState,
    {
        assert_eq!(
            self.sessions.len(),
            policies.len(),
            "one policy per session required"
        );
        let mut snapshot = Snapshot::new();
        let mut meta = StateWriter::new();
        meta.put_usize(self.sessions.len());
        snapshot.put_raw("batch.meta", meta.into_bytes());
        for (i, (session, policy)) in self.sessions.iter_mut().zip(policies).enumerate() {
            session.checkpoint_into(policy.as_ref(), &mut snapshot, &format!("member{i}."))?;
        }
        Ok(snapshot)
    }

    /// Restores a [`SessionBatch::checkpoint`] snapshot into freshly constructed
    /// sessions and policies (same datasets, configs and construction order as the
    /// saved batch; the member count is validated against `batch.meta`).
    pub fn resume(
        &mut self,
        policies: &mut [BoxedPolicy],
        file: &SnapshotFile,
    ) -> crowd_ckpt::Result<()>
    where
        E: crowd_ckpt::LoadState,
    {
        assert_eq!(
            self.sessions.len(),
            policies.len(),
            "one policy per session required"
        );
        self.check_members(file)?;
        for (i, (session, policy)) in self.sessions.iter_mut().zip(policies).enumerate() {
            session.resume_sections(policy.as_mut(), file, &format!("member{i}."))?;
        }
        Ok(())
    }

    /// [`SessionBatch::checkpoint`] for the shared-policy batched-stepping flow
    /// ([`SessionBatch::step_batched`]): per-member `session`/`env` sections plus one
    /// `shared.policy` section.
    pub fn checkpoint_shared(&mut self, policy: &dyn Policy) -> crowd_ckpt::Result<Snapshot>
    where
        E: crowd_ckpt::SaveState,
    {
        let mut snapshot = Snapshot::new();
        let mut policy_bytes = StateWriter::new();
        policy.checkpoint_state(&mut policy_bytes)?;
        let mut meta = StateWriter::new();
        meta.put_usize(self.sessions.len());
        snapshot.put_raw("batch.meta", meta.into_bytes());
        snapshot.put_raw("shared.policy", policy_bytes.into_bytes());
        for (i, session) in self.sessions.iter_mut().enumerate() {
            session.save_member(&mut snapshot, &format!("member{i}."));
        }
        Ok(snapshot)
    }

    /// Restores a [`SessionBatch::checkpoint_shared`] snapshot.
    pub fn resume_shared(
        &mut self,
        policy: &mut dyn Policy,
        file: &SnapshotFile,
    ) -> crowd_ckpt::Result<()>
    where
        E: crowd_ckpt::LoadState,
    {
        self.check_members(file)?;
        for (i, session) in self.sessions.iter_mut().enumerate() {
            session.load_member(file, &format!("member{i}."))?;
        }
        let mut r = file.reader("shared.policy")?;
        policy.restore_state(&mut r)?;
        r.finish("policy state")
    }

    /// Refuses a snapshot whose `batch.meta` member count differs from this batch's.
    fn check_members(&self, file: &SnapshotFile) -> crowd_ckpt::Result<()> {
        let mut meta = file.reader("batch.meta")?;
        let members = meta.take_usize()?;
        meta.finish("batch meta")?;
        if members != self.sessions.len() {
            return Err(CkptError::Corrupt {
                what: "session batch",
                detail: format!(
                    "snapshot holds {members} members, the live batch {}",
                    self.sessions.len()
                ),
            });
        }
        Ok(())
    }
}

/// Runs several policies over the same dataset in lock-step (each against its own
/// deterministic platform replay) and returns their outcomes in order. The per-policy
/// replays are sharded across `pool` — each policy owns its own platform replay, so the
/// sweep parallelises over policies with bit-identical outcomes at any thread count, and
/// a serial pool is the sequential sweep.
///
/// The pool is spent on the **outer** session sharding only; every policy keeps a serial
/// internal pool. Nested `par_*` calls made from inside a pool shard run inline on that
/// worker (see `crowd-parallel`'s "Nesting" docs), so a policy's internal pooled kernels
/// would silently degrade to serial anyway — the outer shard is the chunkier,
/// better-scaling level, and giving the inner level a serial pool makes that explicit.
/// (Nesting is still *correct* — results are bit-identical either way;
/// `tests/parallel_equivalence.rs` deliberately exercises the nested shape.)
pub fn run_policies_lockstep(
    dataset: &Dataset,
    mut policies: Vec<BoxedPolicy>,
    config: &RunnerConfig,
    pool: ThreadPool,
) -> Vec<RunOutcome> {
    let mut batch = SessionBatch::new().with_pool(pool);
    for _ in &policies {
        batch.push(Session::for_dataset(dataset, config));
    }
    batch.run_all(&mut policies);
    batch.finish(&policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_baselines::{ListMode, RandomPolicy};
    use crowd_sim::SimConfig;

    #[test]
    fn warmup_history_is_released_after_the_hand_off() {
        let dataset = SimConfig::tiny().generate();
        let config = RunnerConfig::default();
        let mut policy = RandomPolicy::new(ListMode::RankAll, 5);

        // Up to the hand-off the warm-up month is held for `warm_start`…
        let mut pending = Session::for_dataset(&dataset, &config);
        assert!(pending.advance_env());
        assert!(!pending.warmup_history.is_empty());

        // …and after the first evaluated step it is gone.
        let mut session = Session::for_dataset(&dataset, &config);
        assert!(session.step(&mut policy));
        assert!(session.warm_started);
        assert!(session.warmup_history.is_empty());
        assert_eq!(session.warmup_history.capacity(), 0);

        // The checkpoint bytes are those of a writer that keeps the history and writes
        // a zero-record one once warm-started.
        let mut written = StateWriter::new();
        session.save_session_state(&mut written);
        let mut kept = StateWriter::new();
        kept.put_usize(session.config.warmup_months);
        kept.save(&session.metrics);
        kept.save(&session.warmup_rng);
        kept.put_bool(session.warm_started);
        kept.save(&session.current_day.map(|d| d as u64));
        kept.put_usize(session.evaluated_arrivals);
        kept.put_bool(session.done);
        kept.put_usize(0);
        assert_eq!(written.as_bytes(), kept.as_bytes());
    }
}
