//! Online worker-arrival statistics (paper Sec. IV-D and V-D).
//!
//! Maintains, from the observed arrival stream only:
//!
//! * `φ(g)` — histogram of the gap between two consecutive arrivals of the *same* worker,
//!   supported on `[1, 10080]` minutes (one week), used by the MDP(w) future-state predictor;
//! * `ϕ(g)` — histogram of the gap between two consecutive arrivals of *any* workers,
//!   supported on `[0, 60]` minutes, used by the MDP(r) future-state predictor;
//! * the rate of new (never seen) workers `p_new` and the mean feature of known workers,
//!   which together define the next-worker distribution of Sec. V-D.
//!
//! Histograms are seeded from the initialisation month and updated after every arrival, as
//! the paper requires for real-time adaptation.
//!
//! Per-worker state lives in `BTreeMap`s keyed by [`WorkerId`] — **deliberately not**
//! `HashMap`s: the mean-feature and next-worker-mixture computations sum `f32`s over
//! these maps, and `HashMap`'s per-instance randomised iteration order would make those
//! sums differ between two otherwise identical runs at the last-ulp level. Ordered
//! iteration makes every statistic a pure function of the arrival sequence, which the
//! workspace's replay-equivalence suites (and the `threads=1 ≡ threads=k` contract of
//! `tests/parallel_equivalence.rs`) depend on.

use std::collections::BTreeMap;

use crowd_sim::WorkerId;

/// Bucketed histogram over minute gaps with a fixed support.
#[derive(Debug, Clone)]
struct GapHistogram {
    bin_minutes: u64,
    max_minutes: u64,
    counts: Vec<f64>,
    total: f64,
}

impl GapHistogram {
    fn new(bin_minutes: u64, max_minutes: u64) -> Self {
        let bins = (max_minutes / bin_minutes.max(1)) as usize + 1;
        GapHistogram {
            bin_minutes: bin_minutes.max(1),
            max_minutes,
            counts: vec![0.0; bins],
            total: 0.0,
        }
    }

    fn record(&mut self, gap: u64) {
        if gap > self.max_minutes {
            return;
        }
        let bin = (gap / self.bin_minutes) as usize;
        self.counts[bin] += 1.0;
        self.total += 1.0;
    }

    /// Probability mass of gaps in `[from, to)` minutes (normalised over recorded gaps).
    fn mass_between(&self, from: u64, to: u64) -> f64 {
        if self.total <= 0.0 || from >= to {
            return 0.0;
        }
        let from_bin = (from.min(self.max_minutes) / self.bin_minutes) as usize;
        let to_bin = ((to.min(self.max_minutes + 1)).saturating_sub(1) / self.bin_minutes) as usize;
        let sum: f64 = self.counts[from_bin..=to_bin.min(self.counts.len() - 1)]
            .iter()
            .sum();
        sum / self.total
    }

    fn mean(&self) -> f64 {
        if self.total <= 0.0 {
            return (self.max_minutes / 2) as f64;
        }
        let weighted: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c * (i as f64 * self.bin_minutes as f64 + self.bin_minutes as f64 / 2.0))
            .sum();
        weighted / self.total
    }
}

/// Online arrival statistics for both future-state predictors.
#[derive(Debug, Clone)]
pub struct ArrivalStats {
    /// φ(g): same-worker revisit gaps.
    same_worker: GapHistogram,
    /// ϕ(g): consecutive arrival gaps across all workers.
    consecutive: GapHistogram,
    last_arrival_per_worker: BTreeMap<WorkerId, u64>,
    last_known_feature: BTreeMap<WorkerId, Vec<f32>>,
    last_global_arrival: Option<u64>,
    arrivals_seen: u64,
    new_workers_seen: u64,
    feature_dim: usize,
    mean_feature: Vec<f32>,
}

impl ArrivalStats {
    /// Creates empty statistics. `same_worker_horizon` / `consecutive_horizon` are the φ/ϕ
    /// supports in minutes (paper: 10080 and 60).
    pub fn new(feature_dim: usize, same_worker_horizon: u64, consecutive_horizon: u64) -> Self {
        ArrivalStats {
            same_worker: GapHistogram::new(30, same_worker_horizon),
            consecutive: GapHistogram::new(1, consecutive_horizon),
            last_arrival_per_worker: BTreeMap::new(),
            last_known_feature: BTreeMap::new(),
            last_global_arrival: None,
            arrivals_seen: 0,
            new_workers_seen: 0,
            feature_dim,
            mean_feature: vec![0.0; feature_dim],
        }
    }

    /// Number of arrivals recorded.
    pub fn arrivals_seen(&self) -> u64 {
        self.arrivals_seen
    }

    /// Estimated probability that the next arrival is a brand-new worker (Sec. V-D's
    /// `p_new`).
    pub fn new_worker_rate(&self) -> f32 {
        if self.arrivals_seen == 0 {
            return 0.5;
        }
        (self.new_workers_seen as f32 / self.arrivals_seen as f32).clamp(0.0, 1.0)
    }

    /// Mean observable feature of known workers (the stand-in feature of a new worker).
    pub fn mean_worker_feature(&self) -> &[f32] {
        &self.mean_feature
    }

    /// Number of distinct workers observed.
    pub fn known_workers(&self) -> usize {
        self.last_arrival_per_worker.len()
    }

    /// Records one arrival with the worker's current observable feature.
    pub fn record_arrival(&mut self, worker: WorkerId, time: u64, feature: &[f32]) {
        self.arrivals_seen += 1;
        if let Some(prev) = self.last_global_arrival {
            self.consecutive.record(time.saturating_sub(prev));
        }
        self.last_global_arrival = Some(time);

        match self.last_arrival_per_worker.insert(worker, time) {
            Some(prev) => {
                self.same_worker.record(time.saturating_sub(prev).max(1));
            }
            None => {
                self.new_workers_seen += 1;
            }
        }
        self.last_known_feature.insert(worker, feature.to_vec());
        self.recompute_mean_feature();
    }

    fn recompute_mean_feature(&mut self) {
        if self.last_known_feature.is_empty() {
            return;
        }
        let mut mean = vec![0.0f32; self.feature_dim];
        for f in self.last_known_feature.values() {
            for (m, &v) in mean.iter_mut().zip(f.iter()) {
                *m += v;
            }
        }
        let n = self.last_known_feature.len() as f32;
        for m in &mut mean {
            *m /= n;
        }
        self.mean_feature = mean;
    }

    /// Probability mass of the same worker returning within `[from, to)` minutes of their
    /// last arrival — i.e. `Σ_{g ∈ [from, to)} φ(g)`.
    pub fn same_worker_mass_between(&self, from: u64, to: u64) -> f64 {
        if self.same_worker.total <= 0.0 {
            // No data yet: fall back to a uniform prior over the support.
            let span = self.same_worker.max_minutes.max(1) as f64;
            return ((to.min(self.same_worker.max_minutes) as f64
                - from.min(self.same_worker.max_minutes) as f64)
                / span)
                .max(0.0);
        }
        self.same_worker.mass_between(from, to)
    }

    /// Probability mass of the next (any-worker) arrival happening within `[from, to)`
    /// minutes — i.e. `Σ_{g ∈ [from, to)} ϕ(g)`.
    pub fn consecutive_mass_between(&self, from: u64, to: u64) -> f64 {
        if self.consecutive.total <= 0.0 {
            let span = self.consecutive.max_minutes.max(1) as f64;
            return ((to.min(self.consecutive.max_minutes) as f64
                - from.min(self.consecutive.max_minutes) as f64)
                / span)
                .max(0.0);
        }
        self.consecutive.mass_between(from, to)
    }

    /// Mean consecutive-arrival gap in minutes.
    pub fn mean_consecutive_gap(&self) -> f64 {
        self.consecutive.mean()
    }

    /// Expected feature of the next arriving worker at time `next_time` (Sec. V-D):
    /// a `p_new`-weighted blend of the mean old-worker feature and the φ-weighted mixture of
    /// known workers' features, where each known worker `w` is weighted by
    /// `φ(next_time − last_arrival_w)`.
    pub fn expected_next_worker_feature(&self, next_time: u64) -> Vec<f32> {
        if self.last_known_feature.is_empty() {
            return vec![0.0; self.feature_dim];
        }
        let mut weights = Vec::with_capacity(self.last_known_feature.len());
        let mut features = Vec::with_capacity(self.last_known_feature.len());
        for (worker, feature) in &self.last_known_feature {
            let last = self
                .last_arrival_per_worker
                .get(worker)
                .copied()
                .unwrap_or(0);
            let gap = next_time.saturating_sub(last).max(1);
            // φ(g) for this worker's gap bucket; workers overdue beyond the support get a
            // tiny weight instead of zero so the mixture stays well-defined.
            let w = self
                .same_worker_mass_between(gap, gap + self.same_worker.bin_minutes)
                .max(1e-6);
            weights.push(w as f32);
            features.push(feature);
        }
        let total: f32 = weights.iter().sum();
        let mut mixture = vec![0.0f32; self.feature_dim];
        for (w, f) in weights.iter().zip(features.iter()) {
            for (m, &v) in mixture.iter_mut().zip(f.iter()) {
                *m += (w / total) * v;
            }
        }
        let p_new = self.new_worker_rate();
        mixture
            .iter()
            .zip(self.mean_feature.iter())
            .map(|(&old, &mean)| (1.0 - p_new) * old + p_new * mean)
            .collect()
    }
}

impl GapHistogram {
    fn save_ckpt(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_u64(self.bin_minutes);
        w.put_u64(self.max_minutes);
        w.put_f64_slice(&self.counts);
        w.put_f64(self.total);
    }

    fn load_ckpt(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        let bin_minutes = r.take_u64()?;
        let max_minutes = r.take_u64()?;
        let counts = r.take_f64_vec()?;
        if bin_minutes != self.bin_minutes
            || max_minutes != self.max_minutes
            || counts.len() != self.counts.len()
        {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "gap histogram",
                detail: format!(
                    "snapshot support {bin_minutes}x{max_minutes} ({} bins) does not match the configured {}x{} ({} bins)",
                    counts.len(),
                    self.bin_minutes,
                    self.max_minutes,
                    self.counts.len()
                ),
            });
        }
        self.counts = counts;
        self.total = r.take_f64()?;
        Ok(())
    }
}

/// Checkpoint format: the φ and ϕ histograms (bin width, support, counts, total — all
/// counts as f64 raw bits), the per-worker last-arrival and last-feature `BTreeMap`s
/// (entry count + `(worker id, value)` pairs in ascending key order — the canonical
/// order the maps themselves iterate in, so a save→load→save is byte-stable), the last
/// global arrival, the arrival/new-worker counters, and the running mean feature.
///
/// The mean feature is saved rather than recomputed: it is an f32 sum over map
/// iteration order, and storing the exact bits sidesteps any recomputation concern.
impl crowd_ckpt::SaveState for ArrivalStats {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        self.same_worker.save_ckpt(w);
        self.consecutive.save_ckpt(w);
        w.put_usize(self.last_arrival_per_worker.len());
        for (worker, &time) in &self.last_arrival_per_worker {
            w.save(worker);
            w.put_u64(time);
        }
        w.put_usize(self.last_known_feature.len());
        for (worker, feature) in &self.last_known_feature {
            w.save(worker);
            w.put_f32_slice(feature);
        }
        w.save(&self.last_global_arrival);
        w.put_u64(self.arrivals_seen);
        w.put_u64(self.new_workers_seen);
        w.put_usize(self.feature_dim);
        w.put_f32_slice(&self.mean_feature);
    }
}

impl crowd_ckpt::LoadState for ArrivalStats {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        self.same_worker.load_ckpt(r)?;
        self.consecutive.load_ckpt(r)?;
        let n = r.take_len("arrival map", 1)?;
        self.last_arrival_per_worker = BTreeMap::new();
        for _ in 0..n {
            let worker: WorkerId = r.decode()?;
            let time = r.take_u64()?;
            self.last_arrival_per_worker.insert(worker, time);
        }
        let n = r.take_len("feature map", 1)?;
        self.last_known_feature = BTreeMap::new();
        for _ in 0..n {
            let worker: WorkerId = r.decode()?;
            let feature = r.take_f32_vec()?;
            self.last_known_feature.insert(worker, feature);
        }
        self.last_global_arrival = r.decode()?;
        self.arrivals_seen = r.take_u64()?;
        self.new_workers_seen = r.take_u64()?;
        let feature_dim = r.take_usize()?;
        if feature_dim != self.feature_dim {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "arrival stats",
                detail: format!(
                    "snapshot feature dim {feature_dim} does not match configured {}",
                    self.feature_dim
                ),
            });
        }
        self.mean_feature = r.take_f32_vec()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ArrivalStats {
        ArrivalStats::new(2, 10_080, 60)
    }

    #[test]
    fn checkpointed_stats_predict_identically() {
        use crowd_ckpt::{Snapshot, SnapshotFile};
        let mut s = stats();
        for i in 0..50u64 {
            s.record_arrival(
                WorkerId((i % 7) as u32),
                i * 37,
                &[0.1 * (i % 5) as f32, 1.0 - 0.05 * (i % 9) as f32],
            );
        }
        let mut snap = Snapshot::new();
        snap.put("stats", &s);
        let file = SnapshotFile::from_bytes(snap.to_bytes()).unwrap();
        let mut restored = stats();
        file.load_into("stats", &mut restored).unwrap();
        assert_eq!(restored.arrivals_seen(), s.arrivals_seen());
        assert_eq!(restored.known_workers(), s.known_workers());
        assert_eq!(
            restored.new_worker_rate().to_bits(),
            s.new_worker_rate().to_bits()
        );
        for (a, b) in s
            .mean_worker_feature()
            .iter()
            .zip(restored.mean_worker_feature())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The predictors' inputs must agree bit for bit.
        for (a, b) in s
            .expected_next_worker_feature(2000)
            .iter()
            .zip(restored.expected_next_worker_feature(2000))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            s.same_worker_mass_between(0, 500).to_bits(),
            restored.same_worker_mass_between(0, 500).to_bits()
        );
        // A differently configured target rejects the snapshot.
        let mut wrong_dim = ArrivalStats::new(3, 10_080, 60);
        assert!(file.load_into("stats", &mut wrong_dim).is_err());
        let mut wrong_support = ArrivalStats::new(2, 5_000, 60);
        assert!(file.load_into("stats", &mut wrong_support).is_err());
    }

    #[test]
    fn new_worker_rate_tracks_first_visits() {
        let mut s = stats();
        assert_eq!(s.new_worker_rate(), 0.5); // prior before any data
        s.record_arrival(WorkerId(0), 10, &[1.0, 0.0]);
        s.record_arrival(WorkerId(1), 20, &[0.0, 1.0]);
        s.record_arrival(WorkerId(0), 30, &[1.0, 0.0]);
        s.record_arrival(WorkerId(0), 40, &[1.0, 0.0]);
        assert_eq!(s.arrivals_seen(), 4);
        assert_eq!(s.known_workers(), 2);
        assert!((s.new_worker_rate() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn same_worker_histogram_collects_gaps() {
        let mut s = stats();
        s.record_arrival(WorkerId(0), 0, &[0.0; 2]);
        s.record_arrival(WorkerId(0), 100, &[0.0; 2]);
        s.record_arrival(WorkerId(0), 1540, &[0.0; 2]); // gap 1440 = 1 day
                                                        // Gap of 100 falls in [90, 120); gap of 1440 in [1440, 1470).
        assert!(s.same_worker_mass_between(90, 121) > 0.4);
        assert!(s.same_worker_mass_between(1400, 1500) > 0.4);
        assert!(s.same_worker_mass_between(5000, 6000) < 1e-9);
    }

    #[test]
    fn consecutive_histogram_uses_short_horizon() {
        let mut s = stats();
        s.record_arrival(WorkerId(0), 0, &[0.0; 2]);
        s.record_arrival(WorkerId(1), 5, &[0.0; 2]);
        s.record_arrival(WorkerId(2), 12, &[0.0; 2]);
        s.record_arrival(WorkerId(3), 500, &[0.0; 2]); // beyond the 60-minute support: ignored
        assert!(s.consecutive_mass_between(0, 10) > 0.4);
        assert!((s.consecutive_mass_between(0, 61) - 1.0).abs() < 1e-9);
        assert!(s.mean_consecutive_gap() < 30.0);
    }

    #[test]
    fn uniform_prior_before_any_gap_data() {
        let s = stats();
        let half = s.same_worker_mass_between(0, 5040);
        assert!((half - 0.5).abs() < 0.01);
        let all = s.consecutive_mass_between(0, 60);
        assert!((all - 1.0).abs() < 0.01);
    }

    #[test]
    fn mean_feature_and_expected_next_worker() {
        let mut s = stats();
        s.record_arrival(WorkerId(0), 0, &[1.0, 0.0]);
        s.record_arrival(WorkerId(1), 10, &[0.0, 1.0]);
        let mean = s.mean_worker_feature();
        assert!((mean[0] - 0.5).abs() < 1e-6 && (mean[1] - 0.5).abs() < 1e-6);
        let expected = s.expected_next_worker_feature(20);
        assert_eq!(expected.len(), 2);
        // A convex combination of observed features stays inside [0, 1].
        assert!(expected.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn expected_feature_prefers_workers_with_matching_revisit_gap() {
        let mut s = ArrivalStats::new(1, 10_080, 60);
        // Worker 0 historically revisits after ~60 minutes; worker 1 after ~3 days.
        for i in 0..20u64 {
            s.record_arrival(WorkerId(0), i * 5000, &[1.0]);
            s.record_arrival(WorkerId(0), i * 5000 + 60, &[1.0]);
        }
        for i in 0..20u64 {
            s.record_arrival(WorkerId(1), i * 9000 + 2, &[0.0]);
            s.record_arrival(WorkerId(1), i * 9000 + 2 + 4320, &[0.0]);
        }
        // Immediately (~60 min) after worker 0's last arrival, the expected next worker looks
        // much more like worker 0 than worker 1.
        let last0 = 19 * 5000;
        let expected_soon = s.expected_next_worker_feature(last0 + 60);
        assert!(expected_soon[0] > 0.4, "expected {expected_soon:?}");
    }

    #[test]
    fn empty_stats_expected_feature_is_zero() {
        let s = stats();
        assert_eq!(s.expected_next_worker_feature(100), vec![0.0, 0.0]);
    }
}
