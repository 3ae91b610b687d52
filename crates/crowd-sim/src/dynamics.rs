//! Non-stationary scenario dynamics: worker churn, demand surges and task-mix drift.
//!
//! The paper evaluates on one stationary replay. Real platforms are not stationary:
//! workers join and retire mid-stream, demand surges and follows day/night cycles, and
//! the task mix drifts over time. A [`ScenarioSpec`] describes those perturbations, and
//! [`ScenarioSpec::apply`] compiles them into an ordinary [`Dataset`] **before** the
//! replay starts. The hot loop is untouched: [`crate::Platform`] replays the
//! transformed dataset through the exact same zero-copy [`crate::Env`] path at any
//! shard count, so every bit-identity proof of the stationary replay (thread
//! counts, shard counts, checkpoint/resume) carries over to every scenario *by
//! construction* rather than by re-proof.
//!
//! Determinism contract (fenced by `tests/scenario_equivalence.rs`):
//!
//! * the transform is a pure function of `(spec, dataset)` — no ambient entropy, no
//!   iteration-order dependence;
//! * per-concern RNG streams: surge thinning and densifying each draw from their own
//!   stream forked off [`ScenarioSpec::seed`], so adding a densify phase never shifts
//!   the thinning draws (and vice versa); availability filtering and drift draw nothing;
//! * a no-op spec ([`ScenarioSpec::is_noop`]) returns the dataset unchanged without
//!   constructing an RNG — the baseline replay's canonical fingerprint is reproduced
//!   exactly;
//! * kept arrivals are a subsequence of the original arrival stream (thinning never
//!   reorders), and densified copies are inserted adjacent to their original, so
//!   non-arrival events never move relative to arrivals.
//!
//! ```
//! use crowd_sim::{ScenarioSpec, SimConfig, WorkerId, MINUTES_PER_MONTH};
//!
//! let dataset = SimConfig::tiny().generate();
//! // Worker 0 retires after the first month; demand doubles in month 1.
//! let spec = ScenarioSpec::new(7)
//!     .with_window(WorkerId(0), 0, MINUTES_PER_MONTH)
//!     .with_surge(MINUTES_PER_MONTH, 2 * MINUTES_PER_MONTH, 2.0);
//! let perturbed = spec.apply(&dataset);
//! assert!(perturbed.n_arrivals() > dataset.n_arrivals());
//! // A no-op spec is exact identity.
//! assert_eq!(ScenarioSpec::new(7).apply(&dataset).events, dataset.events);
//! ```

use crate::dataset::{Dataset, MINUTES_PER_DAY};
use crate::event::EventKind;
use crate::worker::WorkerId;
use crowd_ckpt::{DecodeState, Result, SaveState, StateReader, StateWriter};
use crowd_tensor::Rng;

/// Stream-isolation constants xor'ed into [`ScenarioSpec::seed`] so each concern draws
/// from its own deterministic RNG stream.
const THIN_STREAM: u64 = 0x5363_6e54_6869_6e31; // "ScnThin1"
const DENSIFY_STREAM: u64 = 0x5363_6e44_656e_7331; // "ScnDens1"

/// One availability window of one worker: the worker is online (its arrivals are kept)
/// for `online_from <= t < online_until`. A worker may have several windows; a worker
/// with **no** windows in the spec is always online. An empty window
/// (`online_from >= online_until`) keeps the worker offline for the whole horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailabilityWindow {
    /// The worker the window applies to.
    pub worker: WorkerId,
    /// First minute (inclusive) the worker is online.
    pub online_from: u64,
    /// First minute the worker is offline again (exclusive bound).
    pub online_until: u64,
}

/// One demand phase: every arrival with `from <= t < until` has its keep/duplicate rate
/// multiplied by `rate`. Rates below 1 thin the arrival process, rates above 1 densify
/// it; overlapping phases multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgePhase {
    /// First minute (inclusive) of the phase.
    pub from: u64,
    /// End minute (exclusive) of the phase.
    pub until: u64,
    /// Arrival-rate multiplier (must be finite and positive).
    pub rate: f32,
}

/// A piecewise day/night arrival-rate cycle: minutes of the day in
/// `[day_from, day_until)` use `day_rate`, the rest use `night_rate`. Piecewise-constant
/// on purpose — no transcendental functions, so the effective rate is bit-reproducible
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayNightCycle {
    /// First minute-of-day (inclusive, `< 1440`) of the daytime band.
    pub day_from: u64,
    /// End minute-of-day (exclusive, `<= 1440`) of the daytime band.
    pub day_until: u64,
    /// Rate multiplier inside the daytime band.
    pub day_rate: f32,
    /// Rate multiplier outside the daytime band.
    pub night_rate: f32,
}

/// One task-mix drift epoch: every task **created at or after** `at` has its category
/// rotated by `category_step` (mod the dataset's category count) and its award scaled by
/// `award_scale`. Epochs compose in spec order, so a task created after two epochs sees
/// both shifts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEpoch {
    /// First creation minute (inclusive) the epoch applies to.
    pub at: u64,
    /// Category rotation step (taken mod `Dataset::n_categories`).
    pub category_step: u16,
    /// Award multiplier (must be finite and positive).
    pub award_scale: f32,
}

/// A deterministic non-stationary scenario: availability windows / churn, demand surges
/// with an optional day/night cycle, and task-mix drift epochs. See the module docs for
/// the determinism contract and `docs/SCENARIOS.md` for the full spec format.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Seed of the scenario RNG streams (thinning and densifying draws).
    pub seed: u64,
    /// Per-worker availability windows; workers not mentioned are always online.
    pub availability: Vec<AvailabilityWindow>,
    /// Demand surge phases (multiplicative, may overlap).
    pub surges: Vec<SurgePhase>,
    /// Optional day/night arrival-rate cycle.
    pub day_night: Option<DayNightCycle>,
    /// Task-mix drift epochs (applied in order).
    pub drift: Vec<DriftEpoch>,
}

impl ScenarioSpec {
    /// An empty (no-op) spec with the given RNG seed.
    pub fn new(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            seed,
            ..ScenarioSpec::default()
        }
    }

    /// Adds an availability window for `worker` (builder style).
    pub fn with_window(mut self, worker: WorkerId, online_from: u64, online_until: u64) -> Self {
        self.availability.push(AvailabilityWindow {
            worker,
            online_from,
            online_until,
        });
        self
    }

    /// Adds a surge phase multiplying the arrival rate by `rate` on `[from, until)`.
    pub fn with_surge(mut self, from: u64, until: u64, rate: f32) -> Self {
        self.surges.push(SurgePhase { from, until, rate });
        self
    }

    /// Sets the day/night cycle.
    pub fn with_day_night(mut self, cycle: DayNightCycle) -> Self {
        self.day_night = Some(cycle);
        self
    }

    /// Adds a drift epoch rotating categories by `category_step` and scaling awards by
    /// `award_scale` for tasks created at or after `at`.
    pub fn with_drift(mut self, at: u64, category_step: u16, award_scale: f32) -> Self {
        self.drift.push(DriftEpoch {
            at,
            category_step,
            award_scale,
        });
        self
    }

    /// True when the spec perturbs nothing; [`ScenarioSpec::apply`] is then an exact
    /// identity (a clone of the input, no RNG draws).
    pub fn is_noop(&self) -> bool {
        self.availability.is_empty()
            && self.surges.is_empty()
            && self.day_night.is_none()
            && self.drift.is_empty()
    }

    /// Panics when a rate or scale is non-finite or non-positive, or a day/night band
    /// exceeds the day. Empty availability windows are valid (a worker that is never
    /// online) — churn specs produce them naturally.
    pub fn validate(&self) {
        for surge in &self.surges {
            assert!(
                surge.rate.is_finite() && surge.rate > 0.0,
                "surge rate must be finite and positive (got {})",
                surge.rate
            );
        }
        if let Some(cycle) = &self.day_night {
            assert!(
                cycle.day_rate.is_finite() && cycle.day_rate > 0.0,
                "day rate must be finite and positive (got {})",
                cycle.day_rate
            );
            assert!(
                cycle.night_rate.is_finite() && cycle.night_rate > 0.0,
                "night rate must be finite and positive (got {})",
                cycle.night_rate
            );
            assert!(
                cycle.day_from < cycle.day_until && cycle.day_until <= MINUTES_PER_DAY,
                "day band must satisfy day_from < day_until <= {MINUTES_PER_DAY}"
            );
        }
        for epoch in &self.drift {
            assert!(
                epoch.award_scale.is_finite() && epoch.award_scale > 0.0,
                "drift award scale must be finite and positive (got {})",
                epoch.award_scale
            );
        }
    }

    /// True when `worker` is online at `time`: inside any of its availability windows,
    /// or not mentioned by the spec at all.
    pub fn worker_online(&self, worker: WorkerId, time: u64) -> bool {
        let mut mentioned = false;
        for window in &self.availability {
            if window.worker != worker {
                continue;
            }
            mentioned = true;
            if window.online_from <= time && time < window.online_until {
                return true;
            }
        }
        !mentioned
    }

    /// Effective arrival-rate multiplier at `time`: the product of every surge phase
    /// containing `time` and the day/night factor. Exactly `1.0` for a spec with no
    /// surges and no cycle.
    pub fn arrival_rate_at(&self, time: u64) -> f32 {
        let mut rate = 1.0f32;
        for surge in &self.surges {
            if surge.from <= time && time < surge.until {
                rate *= surge.rate;
            }
        }
        if let Some(cycle) = &self.day_night {
            let minute = time % MINUTES_PER_DAY;
            rate *= if cycle.day_from <= minute && minute < cycle.day_until {
                cycle.day_rate
            } else {
                cycle.night_rate
            };
        }
        rate
    }

    /// Compiles the scenario into a perturbed dataset.
    ///
    /// The pass is single-sweep and order-preserving:
    ///
    /// 1. **Drift** rewrites task categories/awards (no RNG; creations and deadlines are
    ///    untouched, so the event stream still matches the task table).
    /// 2. **Availability** drops arrivals of offline workers (no RNG) — churn and the
    ///    offline-exclusion property fall out by construction, because an offline worker
    ///    simply never arrives.
    /// 3. **Surges / day-night** thin (rate < 1: keep with probability `rate`, one draw
    ///    from the thinning stream) or densify (rate > 1: `floor(rate) - 1` guaranteed
    ///    copies plus a fractional one from the densifying stream) each surviving
    ///    arrival. Arrivals at effective rate exactly 1 are kept without a draw.
    ///
    /// Events are never reordered, so the output needs no re-sort and kept arrivals are
    /// a subsequence of the input arrivals (densified copies sit right after their
    /// original at the same timestamp).
    pub fn apply(&self, dataset: &Dataset) -> Dataset {
        self.validate();
        if self.is_noop() {
            return dataset.clone();
        }
        let mut tasks = dataset.tasks.clone();
        let n_categories = dataset.n_categories.max(1) as u16;
        for epoch in &self.drift {
            for task in tasks.iter_mut().filter(|t| t.created_at >= epoch.at) {
                task.category = (task.category + epoch.category_step) % n_categories;
                task.award *= epoch.award_scale;
            }
        }
        let mut thin_rng = Rng::seed_from(self.seed ^ THIN_STREAM);
        let mut densify_rng = Rng::seed_from(self.seed ^ DENSIFY_STREAM);
        let mut events = Vec::with_capacity(dataset.events.len());
        for event in &dataset.events {
            let EventKind::WorkerArrival(worker) = event.kind else {
                events.push(*event);
                continue;
            };
            if !self.worker_online(worker, event.time) {
                continue;
            }
            let rate = self.arrival_rate_at(event.time);
            if rate == 1.0 {
                events.push(*event);
            } else if rate < 1.0 {
                if thin_rng.chance(rate) {
                    events.push(*event);
                }
            } else {
                events.push(*event);
                let frac = rate.fract();
                let mut extras = rate.floor() as usize - 1;
                if frac > 0.0 && densify_rng.chance(frac) {
                    extras += 1;
                }
                for _ in 0..extras {
                    events.push(*event);
                }
            }
        }
        Dataset {
            tasks,
            events,
            ..dataset.clone()
        }
    }

    /// CRC-32 of the spec's checkpoint encoding — a cheap identity used by
    /// checkpoint/resume helpers to reject resuming a snapshot under a different
    /// scenario.
    pub fn fingerprint(&self) -> u32 {
        let mut w = StateWriter::new();
        self.save_state(&mut w);
        crowd_ckpt::crc32(&w.into_bytes())
    }
}

/// Checkpoint format: see the `ScenarioSpec` layout in `docs/CHECKPOINT_FORMAT.md`.
impl SaveState for ScenarioSpec {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.seed);
        w.put_usize(self.availability.len());
        for window in &self.availability {
            w.put_u32(window.worker.0);
            w.put_u64(window.online_from);
            w.put_u64(window.online_until);
        }
        w.put_usize(self.surges.len());
        for surge in &self.surges {
            w.put_u64(surge.from);
            w.put_u64(surge.until);
            w.put_f32(surge.rate);
        }
        w.put_bool(self.day_night.is_some());
        if let Some(cycle) = &self.day_night {
            w.put_u64(cycle.day_from);
            w.put_u64(cycle.day_until);
            w.put_f32(cycle.day_rate);
            w.put_f32(cycle.night_rate);
        }
        w.put_usize(self.drift.len());
        for epoch in &self.drift {
            w.put_u64(epoch.at);
            w.put_u16(epoch.category_step);
            w.put_f32(epoch.award_scale);
        }
    }
}

impl DecodeState for ScenarioSpec {
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self> {
        let seed = r.take_u64()?;
        let n_windows = r.take_len("scenario availability windows", 20)?;
        let mut availability = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            availability.push(AvailabilityWindow {
                worker: WorkerId(r.take_u32()?),
                online_from: r.take_u64()?,
                online_until: r.take_u64()?,
            });
        }
        let n_surges = r.take_len("scenario surge phases", 20)?;
        let mut surges = Vec::with_capacity(n_surges);
        for _ in 0..n_surges {
            surges.push(SurgePhase {
                from: r.take_u64()?,
                until: r.take_u64()?,
                rate: r.take_f32()?,
            });
        }
        let day_night = if r.take_bool()? {
            Some(DayNightCycle {
                day_from: r.take_u64()?,
                day_until: r.take_u64()?,
                day_rate: r.take_f32()?,
                night_rate: r.take_f32()?,
            })
        } else {
            None
        };
        let n_drift = r.take_len("scenario drift epochs", 14)?;
        let mut drift = Vec::with_capacity(n_drift);
        for _ in 0..n_drift {
            drift.push(DriftEpoch {
                at: r.take_u64()?,
                category_step: r.take_u16()?,
                award_scale: r.take_f32()?,
            });
        }
        Ok(ScenarioSpec {
            seed,
            availability,
            surges,
            day_night,
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::MINUTES_PER_MONTH;
    use crate::event::Event;
    use crate::generator::SimConfig;

    fn dataset() -> Dataset {
        SimConfig::tiny().generate()
    }

    fn arrivals(dataset: &Dataset) -> Vec<Event> {
        dataset
            .events
            .iter()
            .copied()
            .filter(Event::is_arrival)
            .collect()
    }

    #[test]
    fn noop_spec_is_exact_identity() {
        let ds = dataset();
        let spec = ScenarioSpec::new(123);
        assert!(spec.is_noop());
        let out = spec.apply(&ds);
        assert_eq!(out.events, ds.events);
        assert_eq!(out.tasks, ds.tasks);
        assert_eq!(out.workers, ds.workers);
    }

    #[test]
    fn apply_is_deterministic() {
        let ds = dataset();
        let spec = ScenarioSpec::new(9)
            .with_surge(0, MINUTES_PER_MONTH, 0.5)
            .with_surge(MINUTES_PER_MONTH, 2 * MINUTES_PER_MONTH, 2.5);
        let a = spec.apply(&ds);
        let b = spec.apply(&ds);
        assert_eq!(a.events, b.events);
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn availability_window_drops_offline_arrivals() {
        let ds = dataset();
        let target = WorkerId(0);
        let spec = ScenarioSpec::new(1).with_window(target, 0, MINUTES_PER_MONTH);
        let out = spec.apply(&ds);
        for event in &out.events {
            if let EventKind::WorkerArrival(w) = event.kind {
                if w == target {
                    assert!(event.time < MINUTES_PER_MONTH, "retired worker arrived");
                }
            }
        }
        // Other workers are untouched.
        let kept_others = |d: &Dataset| {
            arrivals(d)
                .into_iter()
                .filter(|e| e.kind != EventKind::WorkerArrival(target))
                .count()
        };
        assert_eq!(kept_others(&out), kept_others(&ds));
    }

    #[test]
    fn empty_window_means_never_online() {
        let ds = dataset();
        let target = WorkerId(1);
        let spec = ScenarioSpec::new(1).with_window(target, 5, 5);
        let out = spec.apply(&ds);
        assert!(!spec.worker_online(target, 5));
        assert!(out
            .events
            .iter()
            .all(|e| e.kind != EventKind::WorkerArrival(target)));
    }

    #[test]
    fn thinning_keeps_a_subsequence_in_order() {
        let ds = dataset();
        let spec = ScenarioSpec::new(77).with_surge(0, u64::MAX, 0.4);
        let out = spec.apply(&ds);
        let original = arrivals(&ds);
        let kept = arrivals(&out);
        assert!(kept.len() < original.len(), "thinning must drop arrivals");
        // Subsequence check: every kept arrival matches the next occurrence in the
        // original stream.
        let mut cursor = 0;
        for event in &kept {
            while cursor < original.len() && original[cursor] != *event {
                cursor += 1;
            }
            assert!(
                cursor < original.len(),
                "kept arrival not in original order"
            );
            cursor += 1;
        }
        // Non-arrival events survive verbatim.
        let non_arrivals = |d: &Dataset| d.events.iter().filter(|e| !e.is_arrival()).count();
        assert_eq!(non_arrivals(&out), non_arrivals(&ds));
    }

    #[test]
    fn densifying_duplicates_arrivals_adjacent_to_their_original() {
        let ds = dataset();
        let spec = ScenarioSpec::new(31).with_surge(0, u64::MAX, 3.0);
        let out = spec.apply(&ds);
        // Integer rate, no fractional draw: exactly 3x the arrivals.
        assert_eq!(arrivals(&out).len(), 3 * arrivals(&ds).len());
        // Copies share the original's timestamp, so the stream stays time-ordered.
        for pair in out.events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn day_night_cycle_modulates_by_minute_of_day() {
        let cycle = DayNightCycle {
            day_from: 8 * 60,
            day_until: 20 * 60,
            day_rate: 2.0,
            night_rate: 0.5,
        };
        let spec = ScenarioSpec::new(5).with_day_night(cycle);
        assert_eq!(spec.arrival_rate_at(12 * 60), 2.0);
        assert_eq!(spec.arrival_rate_at(23 * 60), 0.5);
        assert_eq!(spec.arrival_rate_at(MINUTES_PER_DAY + 12 * 60), 2.0);
        // Surges multiply into the cycle.
        let spec = spec.with_surge(0, MINUTES_PER_DAY, 3.0);
        assert_eq!(spec.arrival_rate_at(12 * 60), 6.0);
    }

    #[test]
    fn drift_rotates_categories_and_scales_awards_for_later_tasks() {
        let ds = dataset();
        let at = MINUTES_PER_MONTH;
        let spec = ScenarioSpec::new(2).with_drift(at, 1, 2.0);
        let out = spec.apply(&ds);
        let n_categories = ds.n_categories as u16;
        for (before, after) in ds.tasks.iter().zip(&out.tasks) {
            if before.created_at >= at {
                assert_eq!(after.category, (before.category + 1) % n_categories);
                assert!((after.award - 2.0 * before.award).abs() < 1e-4);
            } else {
                assert_eq!(after.category, before.category);
                assert_eq!(after.award, before.award);
            }
            assert_eq!(after.created_at, before.created_at);
            assert_eq!(after.deadline, before.deadline);
        }
        // Events are untouched by drift alone.
        assert_eq!(out.events, ds.events);
    }

    #[test]
    fn drift_epochs_compose_in_order() {
        let ds = dataset();
        let spec = ScenarioSpec::new(3)
            .with_drift(0, 1, 1.5)
            .with_drift(MINUTES_PER_MONTH, 1, 2.0);
        let out = spec.apply(&ds);
        let n_categories = ds.n_categories as u16;
        for (before, after) in ds.tasks.iter().zip(&out.tasks) {
            if before.created_at >= MINUTES_PER_MONTH {
                assert_eq!(after.category, (before.category + 2) % n_categories);
                assert!((after.award - 3.0 * before.award).abs() < 1e-3);
            } else {
                assert_eq!(after.category, (before.category + 1) % n_categories);
            }
        }
    }

    #[test]
    fn thinning_and_densifying_streams_are_isolated() {
        let ds = dataset();
        // Thin the first month with and without a densify phase in the second month:
        // the thinned first-month subsequence must be identical.
        let thin_only = ScenarioSpec::new(11).with_surge(0, MINUTES_PER_MONTH, 0.5);
        let both = ScenarioSpec::new(11)
            .with_surge(0, MINUTES_PER_MONTH, 0.5)
            .with_surge(MINUTES_PER_MONTH, 2 * MINUTES_PER_MONTH, 2.5);
        let first_month = |d: &Dataset| {
            arrivals(d)
                .into_iter()
                .filter(|e| e.time < MINUTES_PER_MONTH)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            first_month(&thin_only.apply(&ds)),
            first_month(&both.apply(&ds))
        );
    }

    #[test]
    fn checkpoint_round_trip_preserves_spec_and_fingerprint() {
        let spec = ScenarioSpec::new(42)
            .with_window(WorkerId(3), 10, 2000)
            .with_surge(100, 900, 1.75)
            .with_day_night(DayNightCycle {
                day_from: 6 * 60,
                day_until: 22 * 60,
                day_rate: 1.5,
                night_rate: 0.25,
            })
            .with_drift(500, 2, 0.75);
        let mut w = StateWriter::new();
        spec.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let decoded = ScenarioSpec::decode_state(&mut r).expect("decode");
        r.finish("scenario spec").expect("no trailing bytes");
        assert_eq!(decoded, spec);
        assert_eq!(decoded.fingerprint(), spec.fingerprint());
        assert_ne!(spec.fingerprint(), ScenarioSpec::new(42).fingerprint());
    }

    #[test]
    #[should_panic(expected = "surge rate must be finite and positive")]
    fn zero_surge_rate_is_rejected() {
        ScenarioSpec::new(0)
            .with_surge(0, 10, 0.0)
            .apply(&dataset());
    }

    #[test]
    fn replay_of_perturbed_dataset_is_bit_identical() {
        use crate::env::{Decision, Env};
        use crate::platform::Platform;
        let ds = dataset();
        let spec = ScenarioSpec::new(4)
            .with_window(WorkerId(2), 0, MINUTES_PER_MONTH)
            .with_surge(0, u64::MAX, 1.5);
        let fingerprint = |d: &Dataset| {
            let mut platform = Platform::new(d.clone(), Platform::default_feature_space(d), 7);
            let mut decision = Decision::new();
            while platform.next_arrival() {
                let view = platform.arrival();
                if view.is_empty() {
                    continue;
                }
                decision.clear();
                decision.extend((0..view.n_tasks()).map(|i| view.task_id(i)));
                platform.apply(&decision);
            }
            platform.flush();
            platform.canonical_fingerprint()
        };
        let perturbed = spec.apply(&ds);
        assert_eq!(fingerprint(&perturbed), fingerprint(&spec.apply(&ds)));
        assert_ne!(fingerprint(&perturbed), fingerprint(&ds));
    }
}
