//! Deterministic arrival-time generators for load tests and latency benches.
//!
//! The serving benches need traffic shapes, not just counts: a Poisson stream probes
//! steady-state micro-batch occupancy, while a bursty (Markov-modulated Poisson)
//! stream probes how the bounded ingress queue and the round rule absorb spikes.
//! Both are driven by the workspace [`Rng`] so a seed fully determines the schedule —
//! two bench runs at the same seed replay the same arrival offsets.
//!
//! Rates are expressed in **arrivals per second**. The ISSUE's "millions of arrivals
//! per day" regime is ~12–60 arrivals/second sustained (1M/day ≈ 11.6/s), which the
//! benches scale up from; the generators themselves are happy at any rate.

use crowd_tensor::Rng;
use std::time::Duration;

/// The traffic shapes the load generator understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Homogeneous Poisson arrivals: independent exponential gaps at `rate`/second.
    Poisson {
        /// Mean arrival rate in arrivals per second.
        rate: f64,
    },
    /// A two-phase Markov-modulated Poisson process: the stream alternates between a
    /// quiet phase at `base_rate` and a burst phase at `burst_rate`, with
    /// exponentially distributed phase durations. This is the classic bursty-traffic
    /// model — the mean rate is a duty-cycle blend, but short windows see the full
    /// burst rate, which is what stresses the queue.
    Bursty {
        /// Arrival rate during quiet phases, per second.
        base_rate: f64,
        /// Arrival rate during bursts, per second.
        burst_rate: f64,
        /// Mean burst duration in seconds.
        mean_burst_secs: f64,
        /// Mean quiet-phase duration in seconds.
        mean_quiet_secs: f64,
    },
}

impl TrafficPattern {
    /// The long-run mean arrival rate of this pattern, per second.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            TrafficPattern::Poisson { rate } => rate,
            TrafficPattern::Bursty {
                base_rate,
                burst_rate,
                mean_burst_secs,
                mean_quiet_secs,
            } => {
                let cycle = mean_burst_secs + mean_quiet_secs;
                if cycle <= 0.0 {
                    base_rate.max(burst_rate)
                } else {
                    (burst_rate * mean_burst_secs + base_rate * mean_quiet_secs) / cycle
                }
            }
        }
    }

    /// Short label for bench output (`"poisson"` / `"bursty"`).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Poisson { .. } => "poisson",
            TrafficPattern::Bursty { .. } => "bursty",
        }
    }
}

/// Which phase a bursty schedule is currently in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Quiet { until: f64 },
    Burst { until: f64 },
}

/// A deterministic stream of arrival instants for one traffic pattern.
///
/// [`ArrivalSchedule::next_offset`] returns each arrival's offset from the stream
/// start; [`Iterator::next`] yields the same thing as a [`Duration`]. The schedule is
/// a pure function of `(pattern, seed)`.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    pattern: TrafficPattern,
    rng: Rng,
    /// Current time cursor, seconds from stream start.
    now: f64,
    /// Bursty-phase state; `None` for Poisson.
    phase: Option<Phase>,
}

impl ArrivalSchedule {
    /// Builds the schedule; the same `(pattern, seed)` pair always replays the same
    /// arrival instants.
    pub fn new(pattern: TrafficPattern, seed: u64) -> ArrivalSchedule {
        ArrivalSchedule {
            pattern,
            rng: Rng::seed_from(seed ^ 0xC0FF_EE00_5E17_AB1E),
            now: 0.0,
            phase: None,
        }
    }

    /// The pattern this schedule samples.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Advances to the next arrival and returns its offset from the stream start, in
    /// seconds. Offsets are non-decreasing.
    pub fn next_offset(&mut self) -> f64 {
        match self.pattern {
            TrafficPattern::Poisson { rate } => {
                self.now += self.gap(rate);
            }
            TrafficPattern::Bursty {
                base_rate,
                burst_rate,
                mean_burst_secs,
                mean_quiet_secs,
            } => {
                // Walk phase boundaries until a gap sampled at the current phase's
                // rate lands inside the phase (thinning-free MMPP sampling: the
                // exponential's memorylessness lets us restart the draw at each
                // boundary).
                loop {
                    let phase = match self.phase {
                        Some(p) => p,
                        None => {
                            let until = self.now + self.duration(mean_quiet_secs);
                            let p = Phase::Quiet { until };
                            self.phase = Some(p);
                            p
                        }
                    };
                    let (rate, until) = match phase {
                        Phase::Quiet { until } => (base_rate, until),
                        Phase::Burst { until } => (burst_rate, until),
                    };
                    let candidate = self.now + self.gap(rate);
                    if candidate <= until {
                        self.now = candidate;
                        break;
                    }
                    // No arrival before the phase flips; jump to the boundary and
                    // re-sample in the next phase.
                    self.now = until;
                    self.phase = Some(match phase {
                        Phase::Quiet { .. } => Phase::Burst {
                            until: self.now + self.duration(mean_burst_secs),
                        },
                        Phase::Burst { .. } => Phase::Quiet {
                            until: self.now + self.duration(mean_quiet_secs),
                        },
                    });
                }
            }
        }
        self.now
    }

    /// The first `n` arrival offsets, in seconds — convenience for open-loop load
    /// generators that pre-compute their schedule.
    pub fn take_offsets(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_offset()).collect()
    }

    /// An exponential inter-arrival gap at `rate`/second (guarded against a zero or
    /// negative rate, which would stall the stream forever).
    fn gap(&mut self, rate: f64) -> f64 {
        let rate = rate.max(1e-9);
        // The tensor Rng is f32; split the draw so the gap keeps f64 headroom at high
        // rates (an f32 gap at 1e6/s has only ~1e-13 s of resolution left).
        f64::from(self.rng.exponential(1.0)) / rate
    }

    /// An exponential phase duration with the given mean, in seconds.
    fn duration(&mut self, mean_secs: f64) -> f64 {
        f64::from(self.rng.exponential(1.0)) * mean_secs.max(1e-9)
    }
}

impl Iterator for ArrivalSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        Some(Duration::from_secs_f64(self.next_offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_monotonic() {
        let pattern = TrafficPattern::Poisson { rate: 50.0 };
        let a = ArrivalSchedule::new(pattern, 7).take_offsets(500);
        let b = ArrivalSchedule::new(pattern, 7).take_offsets(500);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets non-decreasing");
        let c = ArrivalSchedule::new(pattern, 8).take_offsets(500);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn poisson_mean_rate_is_roughly_right() {
        let rate = 200.0;
        let n = 20_000;
        let last = ArrivalSchedule::new(TrafficPattern::Poisson { rate }, 42)
            .take_offsets(n)
            .pop()
            .unwrap();
        let empirical = n as f64 / last;
        assert!(
            (empirical - rate).abs() / rate < 0.05,
            "empirical rate {empirical:.1} too far from {rate}"
        );
    }

    #[test]
    fn bursty_blends_the_two_rates() {
        let pattern = TrafficPattern::Bursty {
            base_rate: 20.0,
            burst_rate: 400.0,
            mean_burst_secs: 0.5,
            mean_quiet_secs: 2.0,
        };
        let n = 40_000;
        let offsets = ArrivalSchedule::new(pattern, 3).take_offsets(n);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let empirical = n as f64 / offsets.last().unwrap();
        let mean = pattern.mean_rate();
        assert!(
            (empirical - mean).abs() / mean < 0.15,
            "empirical rate {empirical:.1} too far from blended mean {mean:.1}"
        );
        // And it actually bursts: the densest 1-second window should far exceed the
        // blended mean.
        let mut peak = 0usize;
        let mut lo = 0usize;
        for hi in 0..offsets.len() {
            while offsets[hi] - offsets[lo] > 1.0 {
                lo += 1;
            }
            peak = peak.max(hi - lo + 1);
        }
        assert!(
            peak as f64 > 2.0 * mean,
            "densest second ({peak}) should dwarf the mean rate ({mean:.1})"
        );
    }

    #[test]
    fn mean_rate_formula() {
        assert_eq!(TrafficPattern::Poisson { rate: 9.0 }.mean_rate(), 9.0);
        let b = TrafficPattern::Bursty {
            base_rate: 10.0,
            burst_rate: 100.0,
            mean_burst_secs: 1.0,
            mean_quiet_secs: 3.0,
        };
        assert!((b.mean_rate() - 32.5).abs() < 1e-9);
        assert_eq!(b.label(), "bursty");
    }

    #[test]
    fn iterator_yields_durations() {
        let mut s = ArrivalSchedule::new(TrafficPattern::Poisson { rate: 100.0 }, 1);
        let d: Vec<Duration> = s.by_ref().take(3).collect();
        assert_eq!(d.len(), 3);
        assert!(d[0] <= d[1] && d[1] <= d[2]);
    }
}
