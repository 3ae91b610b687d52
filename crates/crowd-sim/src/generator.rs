//! Synthetic CrowdSpring-replica dataset generation (paper Sec. VII-A1 and VII-C).
//!
//! The crawled dataset is not public, so the generator produces a dataset with the same
//! *reported* statistics: roughly 180 new and 180 expiring tasks per month, a pool of ~50–60
//! available tasks at any time, thousands of worker arrivals per month whose same-worker
//! revisit gaps follow the Fig. 5 mixture, and worker qualities in `[0, 1]`.
//! The scale knobs ([`SimConfig`]) let experiments run a faithfully-sized replica or a
//! reduced one that finishes on a laptop CPU.

use crate::arrival::GapDistribution;
use crate::dataset::{Dataset, MINUTES_PER_DAY, MINUTES_PER_MONTH};
use crate::event::{sort_events, Event, EventKind};
use crate::task::{Task, TaskId};
use crate::worker::{Worker, WorkerId};
use crowd_tensor::Rng;

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of simulated months (the first month is the initialisation month).
    pub months: usize,
    /// Number of registered workers.
    pub n_workers: usize,
    /// Worker arrivals per month (total across all workers).
    pub arrivals_per_month: usize,
    /// New tasks created per month.
    pub tasks_per_month: usize,
    /// Number of task categories.
    pub n_categories: usize,
    /// Number of task domains.
    pub n_domains: usize,
    /// Number of requesters.
    pub n_requesters: usize,
    /// Minimum task lifetime in days.
    pub min_task_days: u32,
    /// Maximum task lifetime in days.
    pub max_task_days: u32,
    /// Maximum award value (award is drawn log-normally and clamped to this).
    pub max_award: f32,
    /// Dixit–Stiglitz exponent `p` (the paper uses 2).
    pub quality_exponent: f32,
    /// Same-worker revisit gap model.
    pub gap: GapDistribution,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// The full-scale CrowdSpring replica: 13 months, ~1700 workers, ~4200 arrivals and ~180
    /// new tasks per month (Fig. 6). Running every policy on this takes hours on CPU; use
    /// [`SimConfig::small`] for tests and the reduced default experiment scale.
    pub fn crowdspring_replica() -> Self {
        SimConfig {
            months: 13,
            n_workers: 1700,
            arrivals_per_month: 4200,
            tasks_per_month: 180,
            n_categories: 10,
            n_domains: 12,
            n_requesters: 400,
            min_task_days: 5,
            max_task_days: 14,
            max_award: 200.0,
            quality_exponent: 2.0,
            gap: GapDistribution::default(),
            seed: 2020,
        }
    }

    /// A demand-scale synthetic tier far beyond the paper's crawl: ~590× its workers
    /// and ~100× its tasks over a 3-month horizon, with short (1–3 day) task lifetimes
    /// so the live pool stays rankable. Built for a sharded
    /// [`Platform`](crate::Platform) ([`crate::ShardSpec`]) — the scale bench
    /// (`benches/sharded_scale.rs`) replays it across shard counts, and
    /// `CROWD_SCALE=massive` drives it from the experiment binaries.
    pub fn massive() -> Self {
        SimConfig {
            months: 3,
            n_workers: 1_000_000,
            arrivals_per_month: 320_000,
            tasks_per_month: 80_000,
            n_categories: 24,
            n_domains: 24,
            n_requesters: 5_000,
            min_task_days: 1,
            max_task_days: 3,
            max_award: 200.0,
            quality_exponent: 2.0,
            gap: GapDistribution::default(),
            seed: 42,
        }
    }

    /// A reduced-scale dataset with the same shape, suitable for tests and quick experiments.
    pub fn small() -> Self {
        SimConfig {
            months: 4,
            n_workers: 120,
            arrivals_per_month: 600,
            tasks_per_month: 60,
            n_categories: 6,
            n_domains: 8,
            n_requesters: 40,
            min_task_days: 5,
            max_task_days: 14,
            max_award: 200.0,
            quality_exponent: 2.0,
            gap: GapDistribution::default(),
            seed: 7,
        }
    }

    /// A tiny dataset for unit tests.
    pub fn tiny() -> Self {
        SimConfig {
            months: 2,
            n_workers: 20,
            arrivals_per_month: 120,
            tasks_per_month: 20,
            n_categories: 4,
            n_domains: 4,
            n_requesters: 8,
            min_task_days: 4,
            max_task_days: 10,
            max_award: 100.0,
            quality_exponent: 2.0,
            gap: GapDistribution::default(),
            seed: 3,
        }
    }

    /// Horizon length in minutes.
    pub fn horizon(&self) -> u64 {
        self.months as u64 * MINUTES_PER_MONTH
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = Rng::seed_from(self.seed);
        let workers = self.generate_workers(&mut rng);
        let tasks = self.generate_tasks(&mut rng);
        let mut events = Vec::new();
        for task in &tasks {
            events.push(Event {
                time: task.created_at,
                kind: EventKind::TaskCreated(task.id),
            });
            events.push(Event {
                time: task.deadline,
                kind: EventKind::TaskExpired(task.id),
            });
        }
        self.generate_arrivals(&workers, &mut events, &mut rng);
        sort_events(&mut events);
        Dataset {
            tasks,
            workers,
            events,
            n_categories: self.n_categories,
            n_domains: self.n_domains,
            quality_exponent: self.quality_exponent,
            months: self.months,
        }
    }

    fn generate_workers(&self, rng: &mut Rng) -> Vec<Worker> {
        (0..self.n_workers)
            .map(|i| {
                // Each worker strongly likes a couple of categories/domains and is lukewarm
                // about the rest; policies must discover which from completions.
                let mut category_affinity = vec![0.0; self.n_categories];
                for a in category_affinity.iter_mut() {
                    *a = rng.uniform(0.0, 0.25);
                }
                let favourites = 1 + rng.below(2);
                for _ in 0..=favourites {
                    let c = rng.below(self.n_categories);
                    category_affinity[c] = rng.uniform(0.7, 1.0);
                }
                let mut domain_affinity = vec![0.0; self.n_domains];
                for a in domain_affinity.iter_mut() {
                    *a = rng.uniform(0.0, 0.4);
                }
                let fav_domains = 1 + rng.below(3);
                for _ in 0..=fav_domains {
                    let d = rng.below(self.n_domains);
                    domain_affinity[d] = rng.uniform(0.6, 1.0);
                }
                // Heavy-tailed activity: a minority of workers does most of the visits.
                let activity = rng.exponential(1.0) + 0.05;
                Worker {
                    id: WorkerId(i as u32),
                    quality: rng.beta(5.0, 2.0),
                    category_affinity,
                    domain_affinity,
                    award_sensitivity: rng.uniform(0.1, 0.5),
                    interest_threshold: rng.uniform(0.55, 0.8),
                    attention_budget: rng.range(5, 16),
                    activity,
                }
            })
            .collect()
    }

    fn generate_tasks(&self, rng: &mut Rng) -> Vec<Task> {
        // Zipf-like popularity over categories/domains so some categories are rare — the
        // imbalance the paper argues pure worker-side recommendation cannot serve.
        let cat_weights: Vec<f32> = (0..self.n_categories)
            .map(|i| 1.0 / (1.0 + i as f32).sqrt())
            .collect();
        let dom_weights: Vec<f32> = (0..self.n_domains)
            .map(|i| 1.0 / (1.0 + i as f32).sqrt())
            .collect();
        let horizon = self.horizon();
        let mut tasks = Vec::with_capacity(self.months * self.tasks_per_month);
        let mut id = 0u32;
        for month in 0..self.months {
            let month_start = month as u64 * MINUTES_PER_MONTH;
            for _ in 0..self.tasks_per_month {
                let created_at = month_start + rng.below(MINUTES_PER_MONTH as usize) as u64;
                let lifetime_days =
                    rng.range(self.min_task_days as usize, self.max_task_days as usize + 1) as u64;
                let deadline = (created_at + lifetime_days * MINUTES_PER_DAY).min(horizon);
                let award =
                    (rng.normal(0.0, 0.6).exp() * self.max_award * 0.25).clamp(1.0, self.max_award);
                tasks.push(Task {
                    id: TaskId(id),
                    requester: rng.below(self.n_requesters) as u32,
                    category: rng.categorical(&cat_weights).unwrap_or(0) as u16,
                    domain: rng.categorical(&dom_weights).unwrap_or(0) as u16,
                    award,
                    created_at,
                    deadline,
                });
                id += 1;
            }
        }
        tasks
    }

    fn generate_arrivals(&self, workers: &[Worker], events: &mut Vec<Event>, rng: &mut Rng) {
        let horizon = self.horizon();
        let target_total = self.arrivals_per_month * self.months;
        let total_activity: f32 = workers.iter().map(|w| w.activity).sum();
        for worker in workers {
            let share = worker.activity / total_activity.max(1e-9);
            let mut count = (target_total as f32 * share).round() as usize;
            // Bernoulli rounding for the fractional part so the total stays close to target
            // even when individual shares are tiny.
            if count == 0 && rng.chance(target_total as f32 * share) {
                count = 1;
            }
            if count == 0 {
                continue;
            }
            let gaps = self.gap.sample_many(count.saturating_sub(1), rng);
            let span: u64 = gaps.iter().sum();
            // If the revisit chain does not fit in the horizon, compress it proportionally —
            // this only triggers for extremely active workers.
            let scale = if span as f64 > 0.9 * horizon as f64 {
                0.9 * horizon as f64 / span as f64
            } else {
                1.0
            };
            let slack = horizon.saturating_sub((span as f64 * scale) as u64);
            let mut t = rng.below(slack.max(1) as usize) as u64;
            events.push(Event {
                time: t.min(horizon - 1),
                kind: EventKind::WorkerArrival(worker.id),
            });
            for gap in gaps {
                t += ((gap as f64 * scale).round() as u64).max(1);
                if t >= horizon {
                    break;
                }
                events.push(Event {
                    time: t,
                    kind: EventKind::WorkerArrival(worker.id),
                });
            }
        }
    }
}

/// Resamples worker arrivals with replacement at the given `rate` (Fig. 10(a)/(b): rates
/// 0.5–2.0 of the original arrival count). Arrivals sampled more than once get a jitter of
/// roughly one day (|N(1 day, 1 day)|) so duplicated arrival times stay distinct, exactly as
/// described in Sec. VII-C1.
pub fn resample_arrivals(dataset: &Dataset, rate: f32, rng: &mut Rng) -> Dataset {
    let arrivals: Vec<Event> = dataset
        .events
        .iter()
        .copied()
        .filter(Event::is_arrival)
        .collect();
    let others: Vec<Event> = dataset
        .events
        .iter()
        .copied()
        .filter(|e| !e.is_arrival())
        .collect();
    let target = ((arrivals.len() as f32) * rate).round() as usize;
    let horizon = dataset.horizon();
    let mut sampled = Vec::with_capacity(target);
    let mut times_chosen = vec![0usize; arrivals.len()];
    for _ in 0..target {
        let idx = rng.below(arrivals.len().max(1));
        let mut event = arrivals[idx];
        if times_chosen[idx] > 0 {
            let jitter = rng
                .normal(MINUTES_PER_DAY as f32, MINUTES_PER_DAY as f32)
                .abs() as u64;
            event.time = (event.time + jitter).min(horizon.saturating_sub(1));
        }
        times_chosen[idx] += 1;
        sampled.push(event);
    }
    let mut events = others;
    events.extend(sampled);
    sort_events(&mut events);
    Dataset {
        events,
        ..dataset.clone()
    }
}

/// Adds Gaussian noise `N(mean, std)` to every worker's quality, clamping to `[0, 1]`
/// (Fig. 10(c): noise distributions N(−0.4, 0.2) … N(0.2, 0.2)).
pub fn perturb_worker_qualities(dataset: &Dataset, mean: f32, std: f32, rng: &mut Rng) -> Dataset {
    let mut out = dataset.clone();
    for w in &mut out.workers {
        w.perturb_quality(rng.normal(mean, std));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_counts_match_config() {
        let cfg = SimConfig::tiny();
        let ds = cfg.generate();
        assert_eq!(ds.tasks.len(), cfg.months * cfg.tasks_per_month);
        assert_eq!(ds.workers.len(), cfg.n_workers);
        let arrivals = ds.n_arrivals();
        let target = cfg.arrivals_per_month * cfg.months;
        let rel = (arrivals as f32 - target as f32).abs() / target as f32;
        assert!(rel < 0.25, "arrivals {arrivals} vs target {target}");
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let cfg = SimConfig::tiny();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.events, b.events);
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let cfg = SimConfig::tiny();
        let ds = cfg.generate();
        let horizon = cfg.horizon();
        for pair in ds.events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert!(ds.events.iter().all(|e| e.time <= horizon));
    }

    #[test]
    fn tasks_have_valid_lifetimes_and_attributes() {
        let cfg = SimConfig::tiny();
        let ds = cfg.generate();
        for t in &ds.tasks {
            assert!(t.deadline >= t.created_at);
            assert!((t.category as usize) < cfg.n_categories);
            assert!((t.domain as usize) < cfg.n_domains);
            assert!(t.award >= 1.0 && t.award <= cfg.max_award);
        }
    }

    #[test]
    fn worker_qualities_are_probabilities() {
        let ds = SimConfig::tiny().generate();
        assert!(ds.workers.iter().all(|w| (0.0..=1.0).contains(&w.quality)));
    }

    #[test]
    fn pool_size_is_in_the_expected_range_for_replica_like_ratio() {
        // tasks_per_month=60 with 5-14 day lifetimes gives an average pool of roughly
        // 60 * 9.5 / 30 ≈ 19 available tasks; check the generator is in that ballpark.
        let cfg = SimConfig::small();
        let ds = cfg.generate();
        let probe = cfg.horizon() / 2;
        let available = ds.tasks.iter().filter(|t| t.is_available_at(probe)).count();
        assert!(
            (8..=40).contains(&available),
            "available at midpoint: {available}"
        );
    }

    #[test]
    fn resample_changes_arrival_count_proportionally() {
        let ds = SimConfig::tiny().generate();
        let mut rng = Rng::seed_from(0);
        let doubled = resample_arrivals(&ds, 2.0, &mut rng);
        let halved = resample_arrivals(&ds, 0.5, &mut rng);
        let base = ds.n_arrivals() as f32;
        assert!((doubled.n_arrivals() as f32 - 2.0 * base).abs() / base < 0.05);
        assert!((halved.n_arrivals() as f32 - 0.5 * base).abs() / base < 0.05);
        // Non-arrival events are preserved exactly.
        let count_non = |d: &Dataset| d.events.iter().filter(|e| !e.is_arrival()).count();
        assert_eq!(count_non(&ds), count_non(&doubled));
    }

    #[test]
    fn quality_perturbation_shifts_mean() {
        let ds = SimConfig::tiny().generate();
        let mut rng = Rng::seed_from(1);
        let down = perturb_worker_qualities(&ds, -0.4, 0.2, &mut rng);
        let up = perturb_worker_qualities(&ds, 0.2, 0.2, &mut rng);
        let mean =
            |d: &Dataset| d.workers.iter().map(|w| w.quality).sum::<f32>() / d.workers.len() as f32;
        assert!(mean(&down) < mean(&ds));
        assert!(mean(&up) >= mean(&ds) - 0.05);
        assert!(down
            .workers
            .iter()
            .all(|w| (0.0..=1.0).contains(&w.quality)));
    }
}
