//! The platform environment: replays the event stream, exposes the available-task pool to a
//! policy for each worker arrival and applies the worker's (simulated) feedback.
//!
//! [`Platform`] implements the zero-copy [`Env`] interface. All dynamic state is kept in
//! struct-of-arrays storage indexed by global id — a task-feature arena filled once at
//! construction, a worker-feature arena, per-task quality/completion arrays — so an
//! [`ArrivalView`] is a bundle of borrowed slices and building one costs nothing.
//!
//! State mutations from [`Env::apply`] are *staged* and committed at the next
//! [`Env::next_arrival`], which keeps every view (arrival and feedback) stable for the
//! whole decide→apply→observe cycle of one arrival.
//!
//! # The event scan
//!
//! `next_arrival` walks the event stream up to the next worker arrival and applies task
//! events inline. A creation sets the task's pool flag and appends its id to `routed`, the
//! policy-visible pool in global creation order (the event stream *is* that order); an
//! expiry clears the flag. If anything expired, one order-preserving pass then drops the
//! expired ids from `routed`. The advance contains **no policy calls and no RNG draws**,
//! so where a session calls its policy's hooks around it cannot change the replay.
//!
//! # Determinism
//!
//! The behaviour RNG is a single stream consumed only inside `apply`, in arrival order,
//! and every reduction over many entities ([`Platform::total_task_quality`]) iterates in
//! id order, so a replay is a pure function of the dataset, the seed and the policy's
//! decisions. `tests/scenario_equivalence.rs` pins it to replay probes frozen from the
//! original flat implementation.

use crate::behavior::BehaviorModel;
use crate::dataset::Dataset;
use crate::env::{ArrivalView, Decision, Env, FeedbackView, PlatformPool};
use crate::event::EventKind;
use crate::features::FeatureSpace;
use crate::quality::dixit_stiglitz;
use crate::task::TaskId;
use crate::worker::WorkerId;
use crowd_ckpt::SaveState;
use crowd_tensor::Rng;

/// The arrival the event cursor is currently stopped at.
#[derive(Debug, Clone, Copy)]
struct CurrentArrival {
    time: u64,
    worker: WorkerId,
    is_new_worker: bool,
}

/// Staged effects of the last [`Env::apply`], committed on the next
/// [`Env::next_arrival`]. All buffers are reused across arrivals.
#[derive(Debug, Clone, Default)]
struct StepState {
    /// Shown tasks after filtering out unavailable ids (reusable buffer).
    shown: Vec<TaskId>,
    /// Completed task and its position in `shown`, if any.
    completed: Option<(TaskId, usize)>,
    /// Quality gain of the completed task.
    quality_gain: f32,
    /// The completed task's new Dixit–Stiglitz quality.
    new_quality: f32,
    /// Post-completion worker feature (reusable buffer; meaningful only on completion).
    after_feature: Vec<f32>,
    /// True between `apply` and the commit in the next `next_arrival`.
    pending: bool,
    /// True when `feedback()` may be called (an apply happened for the current arrival).
    valid: bool,
}

/// The crowdsourcing platform environment. See the [module docs](self) for the event scan
/// and the determinism argument.
///
/// `Platform` owns all dynamic state (available pool, task qualities, worker features) and
/// replays the dataset's event stream. The interaction loop is:
///
/// ```text
/// let mut decision = Decision::new();
/// while platform.next_arrival() {
///     policy.act(&platform.arrival(), &mut decision);
///     platform.apply(&decision);
///     policy.observe(&platform.arrival(), &platform.feedback());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    dataset: Dataset,
    features: FeatureSpace,
    behavior: BehaviorModel,
    /// The behaviour RNG — one stream, consumed in arrival order.
    rng: Rng,
    task_dim: usize,
    worker_dim: usize,
    /// Static task feature rows, `task_dim` per task in id order.
    task_features: Vec<f32>,
    /// Available task ids in global creation order — the policy-visible pool.
    routed: Vec<TaskId>,
    in_pool: Vec<bool>,
    task_qualities: Vec<f32>,
    task_completions: Vec<u32>,
    completer_qualities: Vec<Vec<f32>>,
    /// Committed worker feature rows, `worker_dim` per worker in id order.
    worker_features: Vec<f32>,
    worker_seen: Vec<bool>,
    worker_completions: Vec<u32>,
    next_event: usize,
    current_time: u64,
    completed_total: usize,
    current: Option<CurrentArrival>,
    step: StepState,
}

impl Platform {
    /// Creates a platform over a dataset with the default behaviour model.
    pub fn new(dataset: Dataset, features: FeatureSpace, seed: u64) -> Self {
        let task_dim = features.task_dim();
        let worker_dim = features.worker_dim();
        let n_tasks = dataset.tasks.len();
        let n_workers = dataset.workers.len();
        // Task features are static, so every view borrows from this arena.
        let mut task_features = Vec::with_capacity(task_dim * n_tasks);
        for task in &dataset.tasks {
            task_features.extend_from_slice(&features.task_feature(task));
        }
        let worker_features = features.initial_worker_feature().repeat(n_workers);
        Platform {
            features,
            behavior: BehaviorModel::default(),
            rng: Rng::seed_from(seed),
            task_dim,
            worker_dim,
            task_features,
            routed: Vec::new(),
            in_pool: vec![false; n_tasks],
            task_qualities: vec![0.0; n_tasks],
            task_completions: vec![0; n_tasks],
            completer_qualities: vec![Vec::new(); n_tasks],
            worker_features,
            worker_seen: vec![false; n_workers],
            worker_completions: vec![0; n_workers],
            next_event: 0,
            current_time: 0,
            completed_total: 0,
            current: None,
            step: StepState::default(),
            dataset,
        }
    }

    /// The feature space used to embed tasks and workers.
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.features
    }

    /// The underlying immutable dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Ids of the currently available tasks, in global creation order.
    pub fn available_tasks(&self) -> &[TaskId] {
        &self.routed
    }

    /// Current Dixit–Stiglitz quality of a task (committed state).
    pub fn task_quality(&self, task: TaskId) -> f32 {
        self.task_qualities[task.index()]
    }

    /// Current observable feature of a worker (committed state).
    pub fn worker_feature(&self, worker: WorkerId) -> &[f32] {
        let start = worker.index() * self.worker_dim;
        &self.worker_features[start..start + self.worker_dim]
    }

    /// Number of tasks a worker has completed so far.
    pub fn worker_completions(&self, worker: WorkerId) -> usize {
        self.worker_completions[worker.index()] as usize
    }

    /// Bytes held by the feature arenas (task rows plus worker rows). The number the
    /// scale bench reports next to peak RSS.
    pub fn feature_arena_bytes(&self) -> usize {
        (self.task_features.len() + self.worker_features.len()) * std::mem::size_of::<f32>()
    }

    /// Sum of all task qualities (the requester-side objective the paper maximises),
    /// reduced in task id order.
    pub fn total_task_quality(&self) -> f32 {
        self.task_qualities
            .iter()
            .fold(0.0f32, |total, &q| total + q)
    }

    /// Total number of committed completions so far.
    pub fn total_completions(&self) -> usize {
        self.completed_total
    }

    /// True when the whole event stream has been consumed.
    pub fn finished(&self) -> bool {
        self.next_event >= self.dataset.events.len()
    }

    /// Current simulation time (minutes since horizon start).
    pub fn current_time(&self) -> u64 {
        self.current_time
    }

    /// Draws one value from the behaviour RNG — a destructive probe of the stream
    /// position for equivalence tests (two envs that consumed identical draw sequences
    /// return identical probes). Consumes one draw; probe both sides symmetrically.
    pub fn rng_probe(&mut self) -> u64 {
        self.rng.below(u32::MAX as usize) as u64
    }

    /// CRC-32 of the committed dynamic state — exactly the bytes of the checkpoint
    /// section ([`SaveState`] below): behaviour RNG, available pool, membership flags,
    /// task qualities / completion counts / completer lists, worker features / seen
    /// flags / completion counts, event cursor, current time and completed total.
    ///
    /// Two platforms with equal fingerprints hold bit-identical committed state
    /// *including the behaviour RNG stream position*. The layout is the version-1 flat
    /// platform's, so fingerprints recorded against any earlier layout still compare.
    /// Call [`Env::flush`] first: staged per-arrival effects are not part of committed
    /// state.
    pub fn canonical_fingerprint(&self) -> u32 {
        let mut w = crowd_ckpt::StateWriter::new();
        self.save_state(&mut w);
        crowd_ckpt::crc32(&w.into_bytes())
    }

    /// Builds the default feature space for a dataset: one award bucket per 25 currency units
    /// (at least 4 buckets) and an exponential worker-feature decay of 0.8.
    pub fn default_feature_space(dataset: &Dataset) -> FeatureSpace {
        let max_award = dataset.tasks.iter().map(|t| t.award).fold(1.0f32, f32::max);
        let buckets = ((max_award / 25.0).ceil() as usize).clamp(4, 12);
        FeatureSpace::new(
            dataset.n_categories,
            dataset.n_domains,
            buckets,
            max_award,
            0.8,
        )
    }

    /// Feature row of task `index`.
    fn task_feature(&self, index: usize) -> &[f32] {
        &self.task_features[index * self.task_dim..(index + 1) * self.task_dim]
    }

    /// Commits the staged effects of the last `apply`, if any: completer list, quality
    /// and completion counter of the task; feature row and completion counter of the
    /// worker.
    fn commit_pending(&mut self) {
        if !self.step.pending {
            return;
        }
        self.step.pending = false;
        let Some(current) = self.current else { return };
        if let Some((task_id, _)) = self.step.completed {
            let wi = current.worker.index();
            let ti = task_id.index();
            self.completer_qualities[ti].push(self.dataset.workers[wi].quality);
            self.task_qualities[ti] = self.step.new_quality;
            self.task_completions[ti] += 1;
            let dim = self.worker_dim;
            self.worker_features[wi * dim..(wi + 1) * dim]
                .copy_from_slice(&self.step.after_feature);
            self.worker_completions[wi] += 1;
            self.completed_total += 1;
        }
    }

    /// Drops the `expired` tasks that left the pool from `routed`, keeping its order.
    /// Each task is created once, so `routed` holds exactly `expired` entries whose
    /// flags are clear, and they are the oldest tasks, near the front: testing stops once
    /// all are found and the untested tail shifts down in one move.
    fn compact_routed(&mut self, expired: usize) {
        let routed = &mut self.routed;
        let (mut read, mut write, mut left) = (0, 0, expired);
        while left > 0 && read < routed.len() {
            let t = routed[read];
            if self.in_pool[t.index()] {
                routed[write] = t;
                write += 1;
            } else {
                left -= 1;
            }
            read += 1;
        }
        routed.copy_within(read.., write);
        routed.truncate(routed.len() - (read - write));
    }
}

impl Env for Platform {
    fn next_arrival(&mut self) -> bool {
        self.commit_pending();
        self.step.valid = false;
        self.current = None;
        let mut arrived: Option<WorkerId> = None;
        let mut expired = 0;
        // Trailing task events at end-of-stream are applied too, so aggregate state and
        // the fingerprint are well-defined after the replay.
        while self.next_event < self.dataset.events.len() {
            let event = self.dataset.events[self.next_event];
            self.next_event += 1;
            self.current_time = event.time;
            match event.kind {
                EventKind::TaskCreated(id) => {
                    self.in_pool[id.index()] = true;
                    self.routed.push(id);
                }
                EventKind::TaskExpired(id) => {
                    self.in_pool[id.index()] = false;
                    expired += 1;
                }
                EventKind::WorkerArrival(worker) => {
                    arrived = Some(worker);
                    break;
                }
            }
        }
        if expired > 0 {
            self.compact_routed(expired);
        }
        let Some(worker) = arrived else { return false };
        let is_new_worker = !self.worker_seen[worker.index()];
        self.worker_seen[worker.index()] = true;
        self.current = Some(CurrentArrival {
            time: self.current_time,
            worker,
            is_new_worker,
        });
        true
    }

    fn arrival(&self) -> ArrivalView<'_> {
        let current = self
            .current
            .expect("arrival() requires a pending arrival; call next_arrival() first");
        ArrivalView::from_platform(
            current.time,
            current.worker,
            self.worker_feature(current.worker),
            self.dataset.workers[current.worker.index()].quality,
            current.is_new_worker,
            PlatformPool {
                ids: &self.routed,
                features: &self.task_features,
                qualities: &self.task_qualities,
                completions: &self.task_completions,
                feature_dim: self.task_dim,
                tasks: &self.dataset.tasks,
            },
        )
    }

    /// Filters the decision against the live pool, runs the cascade behaviour model and
    /// stages the resulting state updates.
    fn apply(&mut self, decision: &Decision) {
        let current = self
            .current
            .expect("apply() requires a pending arrival; call next_arrival() first");
        // Applying twice for one arrival replaces the staged effects.
        self.step.pending = false;

        let mut step = std::mem::take(&mut self.step);
        step.shown.clear();
        step.shown.extend(
            decision
                .shown()
                .iter()
                .filter(|t| self.in_pool[t.index()])
                .copied(),
        );
        let worker = &self.dataset.workers[current.worker.index()];
        let completed_position = self.behavior.browse(
            worker,
            step.shown.iter().map(|t| &self.dataset.tasks[t.index()]),
            &mut self.rng,
        );

        step.completed = None;
        step.quality_gain = 0.0;
        step.new_quality = 0.0;
        if let Some(position) = completed_position {
            let task_id = step.shown[position];
            let ti = task_id.index();
            // Compute the post-completion quality without committing: push the
            // completer, evaluate, pop (capacity is retained, so no allocation in
            // steady state).
            let qualities = &mut self.completer_qualities[ti];
            qualities.push(worker.quality);
            step.new_quality = dixit_stiglitz(qualities, self.dataset.quality_exponent);
            qualities.pop();
            step.quality_gain = step.new_quality - self.task_qualities[ti];

            step.after_feature.clear();
            step.after_feature
                .extend_from_slice(self.worker_feature(current.worker));
            self.features
                .update_worker_feature(&mut step.after_feature, self.task_feature(ti));
            step.completed = Some((task_id, position));
        }
        step.pending = true;
        step.valid = true;
        self.step = step;
    }

    fn flush(&mut self) {
        self.commit_pending();
        self.step.valid = false;
    }

    fn feedback(&self) -> FeedbackView<'_> {
        assert!(
            self.step.valid,
            "feedback() requires a prior apply() for the current arrival"
        );
        let current = self.current.expect("feedback() requires a pending arrival");
        // While the effects are staged, the committed worker feature still holds the
        // pre-completion value; the staged buffer holds the post-completion one.
        let before = self.worker_feature(current.worker);
        let after: &[f32] = if self.step.completed.is_some() && self.step.pending {
            &self.step.after_feature
        } else {
            before
        };
        FeedbackView {
            time: current.time,
            worker_id: current.worker,
            worker_quality: self.dataset.workers[current.worker.index()].quality,
            shown: &self.step.shown,
            completed: self.step.completed,
            quality_gain: self.step.quality_gain,
            worker_feature_before: before,
            worker_feature_after: after,
        }
    }

    fn finished(&self) -> bool {
        Platform::finished(self)
    }

    fn current_time(&self) -> u64 {
        Platform::current_time(self)
    }

    fn total_task_quality(&self) -> f32 {
        Platform::total_task_quality(self)
    }

    fn total_completions(&self) -> usize {
        Platform::total_completions(self)
    }
}

/// Checkpoint format (committed dynamic state only, every array in global id order):
/// behaviour RNG, the routed available list (global creation order), membership flags,
/// task qualities (f32 raw bits), completion counts and completer lists, worker feature
/// rows, seen flags and worker completion counts, then the event cursor, current time and
/// completed total. These bytes are also what [`Platform::canonical_fingerprint`] hashes.
///
/// The immutable parts — dataset, feature space, behaviour constants, the task feature
/// arena — are **not** stored: a resumed run reconstructs the platform from the same
/// configuration and the loader validates the snapshot's array lengths, pool ids and
/// event cursor against it. The per-arrival scratch (`current`, staged step effects) is
/// dead between steps and is reset by the load; checkpoint drivers must flush staged
/// effects first (`Session::checkpoint` does). See `docs/CHECKPOINT_FORMAT.md`.
impl SaveState for Platform {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.rng);
        w.save(&self.routed);
        w.save(&self.in_pool);
        w.put_f32_slice(&self.task_qualities);
        w.put_u32_slice(&self.task_completions);
        w.save(&self.completer_qualities);
        w.put_f32_slice(&self.worker_features);
        w.save(&self.worker_seen);
        w.put_u32_slice(&self.worker_completions);
        w.put_usize(self.next_event);
        w.put_u64(self.current_time);
        w.put_usize(self.completed_total);
    }
}

impl crowd_ckpt::LoadState for Platform {
    /// Decodes and validates the whole section before touching `self`, so a refused
    /// snapshot leaves the platform as it was.
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        let n_tasks = self.dataset.tasks.len();
        let n_workers = self.dataset.workers.len();
        let n_events = self.dataset.events.len();
        let corrupt = |detail: String| crowd_ckpt::CkptError::Corrupt {
            what: "platform state",
            detail,
        };
        let mut rng = self.rng.clone();
        r.load(&mut rng)?;
        let routed: Vec<TaskId> = r.decode()?;
        let in_pool: Vec<bool> = r.decode()?;
        let task_qualities = r.take_f32_vec()?;
        let task_completions = r.take_u32_vec()?;
        let completer_qualities: Vec<Vec<f32>> = r.decode()?;
        let worker_features = r.take_f32_vec()?;
        let worker_seen: Vec<bool> = r.decode()?;
        let worker_completions = r.take_u32_vec()?;
        let next_event = r.take_usize()?;
        let current_time = r.take_u64()?;
        let completed_total = r.take_usize()?;

        if let Some(bad) = routed.iter().find(|t| t.index() >= n_tasks) {
            return Err(corrupt(format!("available task id {bad:?} out of range")));
        }
        if [
            in_pool.len(),
            task_qualities.len(),
            task_completions.len(),
            completer_qualities.len(),
        ] != [n_tasks; 4]
        {
            return Err(corrupt(format!(
                "task-state arrays sized for {} tasks, the dataset has {n_tasks}",
                in_pool.len()
            )));
        }
        if worker_features.len() != n_workers * self.worker_dim
            || [worker_seen.len(), worker_completions.len()] != [n_workers; 2]
        {
            return Err(corrupt(format!(
                "worker-state arrays sized for {} workers, the dataset has {n_workers}",
                worker_seen.len()
            )));
        }
        if next_event > n_events {
            return Err(corrupt(format!(
                "event cursor {next_event} past the {n_events}-event stream"
            )));
        }

        self.rng = rng;
        self.routed = routed;
        self.in_pool = in_pool;
        self.task_qualities = task_qualities;
        self.task_completions = task_completions;
        self.completer_qualities = completer_qualities;
        self.worker_features = worker_features;
        self.worker_seen = worker_seen;
        self.worker_completions = worker_completions;
        self.next_event = next_event;
        self.current_time = current_time;
        self.completed_total = completed_total;
        // Per-arrival scratch is dead between steps; start the resumed replay clean.
        self.current = None;
        self.step = StepState::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SimConfig;

    fn platform() -> Platform {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        Platform::new(ds, fs, 99)
    }

    /// Shows the whole pool at every arrival; returns per-arrival (gain bits, completed
    /// task) pairs.
    fn full_pool_replay_fingerprint(env: &mut Platform) -> Vec<u64> {
        let mut decision = Decision::new();
        let mut trace = Vec::new();
        while env.next_arrival() {
            let view = env.arrival();
            if view.is_empty() {
                continue;
            }
            decision.clear();
            decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
            env.apply(&decision);
            let fb = env.feedback();
            trace.push(
                (fb.quality_gain.to_bits() as u64) << 32
                    | fb.completed.map(|(t, _)| t.index() as u64 + 1).unwrap_or(0),
            );
        }
        env.flush();
        trace
    }

    #[test]
    fn arrivals_are_replayed_in_time_order_and_first_visits_are_flagged() {
        let mut p = platform();
        let mut last = 0;
        let mut seen = std::collections::HashSet::new();
        while p.next_arrival() {
            let view = p.arrival();
            assert!(view.time >= last);
            last = view.time;
            assert_eq!(view.is_new_worker, seen.insert(view.worker_id));
            // Never show expired or not-yet-created tasks.
            for task in view.tasks() {
                let row = &p.dataset().tasks[task.id.index()];
                assert!(row.is_available_at(view.time));
            }
        }
        assert!(!seen.is_empty());
        assert!(p.finished());
    }

    #[test]
    fn views_borrow_arena_storage_without_cloning() {
        let mut p = platform();
        assert!(p.next_arrival());
        let view = p.arrival();
        for task in view.tasks() {
            // The borrowed feature row is exactly the arena row (pointer-identical).
            assert!(std::ptr::eq(task.feature, p.task_feature(task.id.index())));
            let recomputed = p
                .feature_space()
                .task_feature(&p.dataset().tasks[task.id.index()]);
            assert_eq!(task.feature, recomputed.as_slice());
        }
        assert!(std::ptr::eq(
            view.worker_feature,
            p.worker_feature(view.worker_id)
        ));
    }

    #[test]
    fn staged_effects_commit_on_the_next_arrival() {
        let mut p = platform();
        let mut decision = Decision::new();
        loop {
            assert!(p.next_arrival(), "ran out of arrivals without a completion");
            let view = p.arrival();
            if view.is_empty() {
                continue;
            }
            let worker = view.worker_id;
            decision.clear();
            decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
            p.apply(&decision);
            let fb = p.feedback();
            let Some((task, pos)) = fb.completed else {
                assert_eq!(fb.quality_gain, 0.0);
                assert_eq!(fb.worker_feature_before, fb.worker_feature_after);
                continue;
            };
            assert_eq!(fb.shown[pos], task);
            assert!(fb.quality_gain > 0.0);
            let before = fb.worker_feature_before.to_vec();
            let after = fb.worker_feature_after.to_vec();
            let new_quality_staged = fb.quality_gain + p.task_quality(task);
            // First completion of the run, still staged: committed state is untouched...
            assert_eq!(p.task_quality(task), 0.0);
            assert_eq!(p.total_completions(), 0);
            assert_eq!(p.worker_feature(worker), before);
            // ...and a cold-start worker's staged feature adopts the task feature outright.
            if before.iter().all(|&v| v == 0.0) {
                let task_row = &p.dataset().tasks[task.index()];
                assert_eq!(after, p.feature_space().task_feature(task_row));
            }
            // Advancing commits: quality, worker feature and counters move together.
            p.next_arrival();
            assert!((p.task_quality(task) - new_quality_staged).abs() < 1e-6);
            assert_eq!(p.worker_feature(worker), after);
            assert_eq!(p.total_completions(), 1);
            assert_eq!(p.worker_completions(worker), 1);
            break;
        }
    }

    #[test]
    fn unavailable_tasks_in_decision_are_ignored() {
        let mut p = platform();
        assert!(p.next_arrival());
        // A task id that is certainly not in the current pool.
        let bogus = p
            .dataset()
            .tasks
            .iter()
            .map(|t| t.id)
            .find(|id| !p.available_tasks().contains(id))
            .unwrap();
        let mut decision = Decision::new();
        decision.assign(bogus);
        p.apply(&decision);
        let fb = p.feedback();
        assert!(fb.shown.is_empty());
        assert!(fb.completed.is_none());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let run =
            |seed| full_pool_replay_fingerprint(&mut Platform::new(ds.clone(), fs.clone(), seed));
        assert_eq!(run(5), run(5));
        // Different behaviour seeds usually give different outcomes.
        assert!(run(5) != run(6) || run(5) != run(7));
    }

    /// The tiny platform after `arrivals` full-pool arrivals, flushed.
    fn stepped(ds: &Dataset, fs: &FeatureSpace, seed: u64, arrivals: usize) -> Platform {
        let mut env = Platform::new(ds.clone(), fs.clone(), seed);
        let mut decision = Decision::new();
        for _ in 0..arrivals {
            assert!(env.next_arrival());
            let view = env.arrival();
            if view.is_empty() {
                continue;
            }
            decision.clear();
            decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
            env.apply(&decision);
        }
        env.flush();
        env
    }

    fn env_section(env: &Platform) -> crowd_ckpt::SnapshotFile {
        let mut snap = crowd_ckpt::Snapshot::new();
        snap.put("env", env);
        crowd_ckpt::SnapshotFile::from_bytes(snap.to_bytes()).unwrap()
    }

    #[test]
    fn checkpoint_restores_bit_identically() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let mut original = stepped(&ds, &fs, 21, 40);
        let file = env_section(&original);

        // Wrong seed: the load overwrites the behaviour RNG.
        let mut resumed = Platform::new(ds.clone(), fs.clone(), 0);
        file.load_into("env", &mut resumed).unwrap();
        assert_eq!(
            resumed.canonical_fingerprint(),
            original.canonical_fingerprint()
        );
        let tail_a = full_pool_replay_fingerprint(&mut original);
        let tail_b = full_pool_replay_fingerprint(&mut resumed);
        assert_eq!(tail_a, tail_b);
        assert_eq!(
            resumed.canonical_fingerprint(),
            original.canonical_fingerprint()
        );
    }

    #[test]
    fn checkpoint_rejects_an_env_section_from_another_dataset() {
        let ds = SimConfig::tiny().generate();
        let fs = Platform::default_feature_space(&ds);
        let fresh = env_section(&Platform::new(ds.clone(), fs.clone(), 3));
        let midway = stepped(&ds, &fs, 3, 60);
        let max_routed = midway.available_tasks().iter().map(|t| t.index()).max();
        let midway = env_section(&midway);

        let mut fewer_tasks = ds.clone();
        fewer_tasks
            .tasks
            .truncate(max_routed.expect("a non-empty pool"));
        let mut fewer_workers = ds.clone();
        fewer_workers.workers.pop();
        let mut fewer_events = ds.clone();
        fewer_events.events.truncate(10);

        let cases = [
            ("task arrays", &fresh, fewer_tasks.clone(), "sized for"),
            ("worker arrays", &fresh, fewer_workers, "sized for"),
            ("routed id", &midway, fewer_tasks, "out of range"),
            ("event cursor", &midway, fewer_events, "past the"),
        ];
        for (case, file, dataset, expected) in cases {
            let mut target = Platform::new(dataset, fs.clone(), 3);
            let before = target.canonical_fingerprint();
            match file.load_into("env", &mut target) {
                Err(crowd_ckpt::CkptError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(expected), "{case}: {detail}");
                }
                other => panic!("{case}: expected a Corrupt error, got {other:?}"),
            }
            // A refused section leaves the target untouched.
            assert_eq!(target.canonical_fingerprint(), before, "{case}");
        }
    }
}
