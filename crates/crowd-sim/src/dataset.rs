//! The immutable synthetic dataset: tasks, workers and the event timeline.

use crate::event::Event;
use crate::task::Task;
use crate::worker::Worker;

/// Minutes in a simulated day.
pub const MINUTES_PER_DAY: u64 = 1440;
/// Minutes in a simulated (30-day) month.
pub const MINUTES_PER_MONTH: u64 = 30 * MINUTES_PER_DAY;

/// A complete simulated dataset, analogous to the paper's crawled CrowdSpring data: the task
/// table, the worker table and the time-ordered event stream over the whole horizon.
///
/// A dataset is what environments replay *and* what non-stationary scenarios transform:
/// [`crate::dynamics::ScenarioSpec::apply`] compiles worker churn, demand surges and
/// task-mix drift into a new `Dataset` before replay, so every downstream consumer —
/// [`crate::Platform`] at any shard count, checkpoints — handles scenario runs
/// without knowing scenarios exist (see `docs/SCENARIOS.md`).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// All tasks ever created, indexed by [`crate::TaskId`].
    pub tasks: Vec<Task>,
    /// All workers, indexed by [`crate::WorkerId`].
    pub workers: Vec<Worker>,
    /// Time-ordered events (task creations, expirations, worker arrivals).
    pub events: Vec<Event>,
    /// Number of task categories used when generating features.
    pub n_categories: usize,
    /// Number of task domains used when generating features.
    pub n_domains: usize,
    /// Exponent `p` of the Dixit–Stiglitz quality aggregation (Eq. 5).
    pub quality_exponent: f32,
    /// Number of simulated months (including the initialisation month).
    pub months: usize,
}

impl Dataset {
    /// Month index (0-based) of a timestamp.
    pub fn month_of(time: u64) -> usize {
        (time / MINUTES_PER_MONTH) as usize
    }

    /// Day index (0-based) of a timestamp.
    pub fn day_of(time: u64) -> usize {
        (time / MINUTES_PER_DAY) as usize
    }

    /// Total horizon length in minutes.
    pub fn horizon(&self) -> u64 {
        self.months as u64 * MINUTES_PER_MONTH
    }

    /// Number of worker-arrival events.
    pub fn n_arrivals(&self) -> usize {
        self.events.iter().filter(|e| e.is_arrival()).count()
    }

    /// Number of worker-arrival events after the initialisation month (the ones that are
    /// actually evaluated, mirroring the paper's Feb–Jan evaluation window).
    pub fn n_evaluated_arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.is_arrival() && Self::month_of(e.time) >= 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::worker::WorkerId;

    #[test]
    fn month_and_day_boundaries() {
        assert_eq!(Dataset::month_of(0), 0);
        assert_eq!(Dataset::month_of(MINUTES_PER_MONTH - 1), 0);
        assert_eq!(Dataset::month_of(MINUTES_PER_MONTH), 1);
        assert_eq!(Dataset::day_of(MINUTES_PER_DAY * 3 + 5), 3);
    }

    #[test]
    fn arrival_counters() {
        let ds = Dataset {
            tasks: vec![],
            workers: vec![],
            events: vec![
                Event {
                    time: 10,
                    kind: EventKind::WorkerArrival(WorkerId(0)),
                },
                Event {
                    time: MINUTES_PER_MONTH + 1,
                    kind: EventKind::WorkerArrival(WorkerId(0)),
                },
            ],
            n_categories: 3,
            n_domains: 2,
            quality_exponent: 2.0,
            months: 2,
        };
        assert_eq!(ds.n_arrivals(), 2);
        assert_eq!(ds.n_evaluated_arrivals(), 1);
        assert_eq!(ds.horizon(), 2 * MINUTES_PER_MONTH);
    }
}
