//! Update-time tracking (paper Table I and Fig. 10(d)).
//!
//! Timers are measurements, not state: they are never checkpointed, so two runs that
//! make the same decisions write the same checkpoint bytes. A resumed run's timers cover
//! only the resumed process's share of the run.

use std::time::{Duration, Instant};

/// Records how long a policy spends updating its model, either per feedback (RL methods) or
/// per retraining call (supervised methods), and reports the average.
#[derive(Debug, Clone, Default)]
pub struct UpdateTimer {
    total: Duration,
    count: u64,
}

impl UpdateTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        UpdateTimer::default()
    }

    /// Times a closure and records its duration.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.record(start.elapsed());
        result
    }

    /// Records an externally measured duration.
    pub fn record(&mut self, elapsed: Duration) {
        self.total += elapsed;
        self.count += 1;
    }

    /// Number of recorded updates.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total time spent updating.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Average update time in seconds (0 when nothing was recorded).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timer_reports_zero() {
        let t = UpdateTimer::new();
        assert_eq!(t.count(), 0);
        assert_eq!(t.mean_seconds(), 0.0);
    }

    #[test]
    fn record_accumulates() {
        let mut t = UpdateTimer::new();
        t.record(Duration::from_millis(10));
        t.record(Duration::from_millis(30));
        assert_eq!(t.count(), 2);
        assert!((t.mean_seconds() - 0.02).abs() < 1e-6);
        assert_eq!(t.total(), Duration::from_millis(40));
    }

    #[test]
    fn time_closure_returns_value_and_records() {
        let mut t = UpdateTimer::new();
        let out = t.time(|| {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert_eq!(t.count(), 1);
        assert!(t.mean_seconds() > 0.0);
    }
}
