//! Exploration strategies (paper Sec. VI-B).
//!
//! * [`EpsilonGreedy`] for single-task assignment: with probability ε the agent follows the
//!   Q values, otherwise it picks a random task. The paper's schedule increases ε (the
//!   *exploit* probability) from 0.9 to 0.98.
//! * [`GaussianQNoise`] for list recommendation: instead of fully random ordering, zero-mean
//!   Gaussian noise with the std of the current finite Q values (times a decaying factor) is
//!   added to every finite Q value before ranking.

use crate::schedule::Schedule;
use crowd_tensor::ops::best_first;
use crowd_tensor::Rng;

/// ε-greedy action selection over a slice of Q values.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    /// Schedule of the probability of *following* the greedy policy.
    exploit_schedule: Schedule,
    step: u64,
}

impl EpsilonGreedy {
    /// Creates an explorer whose exploit probability follows `exploit_schedule`.
    pub fn new(exploit_schedule: Schedule) -> Self {
        EpsilonGreedy {
            exploit_schedule,
            step: 0,
        }
    }

    /// The paper's single-task schedule: exploit probability grows linearly 0.9 → 0.98.
    pub fn paper_default(anneal_steps: u64) -> Self {
        EpsilonGreedy::new(Schedule::Linear {
            start: 0.9,
            end: 0.98,
            steps: anneal_steps,
        })
    }

    /// Current exploit probability.
    pub fn exploit_probability(&self) -> f32 {
        self.exploit_schedule.at(self.step)
    }

    /// Number of decisions taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Picks an index among `q_values`: greedy with the scheduled probability (the
    /// first highest value, never a NaN while a number is present), uniform otherwise.
    /// Returns `None` on an empty slice. Advances the schedule by one step.
    pub fn select(&mut self, q_values: &[f32], rng: &mut Rng) -> Option<usize> {
        if q_values.is_empty() {
            return None;
        }
        let exploit = rng.chance(self.exploit_probability());
        self.step += 1;
        if exploit {
            let mut best = 0;
            for (i, &q) in q_values.iter().enumerate() {
                if best_first(q, q_values[best]).is_lt() {
                    best = i;
                }
            }
            Some(best)
        } else {
            Some(rng.below(q_values.len()))
        }
    }
}

/// Gaussian-noise exploration over Q values for list ranking.
#[derive(Debug, Clone)]
pub struct GaussianQNoise {
    /// Probability of injecting noise at all (the paper keeps this at 0.9).
    noise_probability: f32,
    /// Decay factor applied to the noise std, from 1.0 down to 0.1 in the paper.
    decay_schedule: Schedule,
    step: u64,
}

impl GaussianQNoise {
    /// Creates a noise explorer.
    pub fn new(noise_probability: f32, decay_schedule: Schedule) -> Self {
        GaussianQNoise {
            noise_probability,
            decay_schedule,
            step: 0,
        }
    }

    /// The paper's list-recommendation configuration: noise probability 0.9, decay factor
    /// 1.0 → 0.1 over `anneal_steps` decisions.
    pub fn paper_default(anneal_steps: u64) -> Self {
        GaussianQNoise::new(
            0.9,
            Schedule::Linear {
                start: 1.0,
                end: 0.1,
                steps: anneal_steps,
            },
        )
    }

    /// Current decay factor.
    pub fn decay_factor(&self) -> f32 {
        self.decay_schedule.at(self.step)
    }

    /// Returns (possibly) noise-perturbed copies of the Q values and advances the schedule.
    ///
    /// With probability `noise_probability`, each finite Q value receives `N(0, σ·decay)`
    /// noise where σ is the standard deviation of the finite Q values; otherwise the values
    /// are returned unchanged. NaN and infinite values pass through without a draw, so one
    /// NaN cannot turn σ, and with it every perturbed value, into NaN; with no finite values
    /// no noise is added.
    pub fn perturb(&mut self, q_values: &[f32], rng: &mut Rng) -> Vec<f32> {
        let decay = self.decay_factor();
        self.step += 1;
        if q_values.is_empty() || !rng.chance(self.noise_probability) {
            return q_values.to_vec();
        }
        let finite = || q_values.iter().copied().filter(|q| q.is_finite());
        let count = finite().count();
        let mean = finite().sum::<f32>() / count as f32;
        let var = finite().map(|q| (q - mean).powi(2)).sum::<f32>() / count as f32;
        let std = var.sqrt();
        if count == 0 || std <= f32::EPSILON {
            return q_values.to_vec();
        }
        q_values
            .iter()
            .map(|&q| {
                if q.is_finite() {
                    q + rng.normal(0.0, std * decay)
                } else {
                    q
                }
            })
            .collect()
    }

    /// Ranks task indices by (possibly perturbed) Q values, descending, NaN last
    /// ([`best_first`]).
    pub fn rank(&mut self, q_values: &[f32], rng: &mut Rng) -> Vec<usize> {
        let perturbed = self.perturb(q_values, rng);
        let mut order: Vec<usize> = (0..perturbed.len()).collect();
        order.sort_by(|&a, &b| best_first(perturbed[a], perturbed[b]));
        order
    }
}

/// Checkpoint format: the exploit schedule, then the step counter (`u64`) — the
/// annealing position that determines every future exploit probability. The schedule is
/// **validation data**: loading a snapshot into an explorer configured with a different
/// schedule is config drift and fails with a typed error (the same policy every other
/// component applies — parameter names/shapes, buffer capacities, histogram supports).
impl crowd_ckpt::SaveState for EpsilonGreedy {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.save(&self.exploit_schedule);
        w.put_u64(self.step);
    }
}

impl crowd_ckpt::LoadState for EpsilonGreedy {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        let schedule: Schedule = r.decode()?;
        if schedule != self.exploit_schedule {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "epsilon-greedy explorer",
                detail: format!(
                    "snapshot exploit schedule {schedule:?} does not match the configured {:?}",
                    self.exploit_schedule
                ),
            });
        }
        self.step = r.take_u64()?;
        Ok(())
    }
}

/// Checkpoint format: noise probability (f32 raw bits), decay schedule, step counter.
/// Probability and schedule are validation data (see [`EpsilonGreedy`]'s impl).
impl crowd_ckpt::SaveState for GaussianQNoise {
    fn save_state(&self, w: &mut crowd_ckpt::StateWriter) {
        w.put_f32(self.noise_probability);
        w.save(&self.decay_schedule);
        w.put_u64(self.step);
    }
}

impl crowd_ckpt::LoadState for GaussianQNoise {
    fn load_state(&mut self, r: &mut crowd_ckpt::StateReader<'_>) -> crowd_ckpt::Result<()> {
        let noise_probability = r.take_f32()?;
        let schedule: Schedule = r.decode()?;
        if noise_probability.to_bits() != self.noise_probability.to_bits()
            || schedule != self.decay_schedule
        {
            return Err(crowd_ckpt::CkptError::Corrupt {
                what: "gaussian-noise explorer",
                detail: format!(
                    "snapshot configuration (p={noise_probability}, {schedule:?}) does not match the live (p={}, {:?})",
                    self.noise_probability, self.decay_schedule
                ),
            });
        }
        self.step = r.take_u64()?;
        Ok(())
    }
}

/// Ranks indices by Q value descending without any exploration (pure exploitation);
/// ties keep index order and NaN goes last ([`best_first`]).
pub fn greedy_rank(q_values: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..q_values.len()).collect();
    order.sort_by(|&a, &b| best_first(q_values[a], q_values[b]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpointed_explorers_resume_their_schedules() {
        use crowd_ckpt::{LoadState, SaveState, StateReader, StateWriter};
        let mut eps = EpsilonGreedy::paper_default(100);
        let mut noise = GaussianQNoise::paper_default(100);
        let mut rng = Rng::seed_from(61);
        for _ in 0..37 {
            eps.select(&[1.0, 2.0], &mut rng);
            noise.rank(&[0.3, 0.1, 0.2], &mut rng);
        }
        let mut w = StateWriter::new();
        eps.save_state(&mut w);
        noise.save_state(&mut w);
        let bytes = w.into_bytes();
        // A differently configured target is config drift → typed error.
        let mut drifted = EpsilonGreedy::paper_default(1);
        assert!(drifted.load_state(&mut StateReader::new(&bytes)).is_err());
        // Matching configuration restores the schedule position.
        let mut r = StateReader::new(&bytes);
        let mut eps_b = EpsilonGreedy::paper_default(100);
        let mut noise_b = GaussianQNoise::paper_default(100);
        eps_b.load_state(&mut r).unwrap();
        noise_b.load_state(&mut r).unwrap();
        r.finish("explorers").unwrap();
        assert_eq!(eps_b.steps(), 37);
        assert_eq!(
            eps.exploit_probability().to_bits(),
            eps_b.exploit_probability().to_bits()
        );
        assert_eq!(
            noise.decay_factor().to_bits(),
            noise_b.decay_factor().to_bits()
        );
        // Identical RNG states → identical future decisions.
        let mut rng_b = rng.clone();
        for _ in 0..20 {
            assert_eq!(
                eps.select(&[0.5, 0.9, 0.1], &mut rng),
                eps_b.select(&[0.5, 0.9, 0.1], &mut rng_b)
            );
            assert_eq!(
                noise.rank(&[0.5, 0.9, 0.1], &mut rng),
                noise_b.rank(&[0.5, 0.9, 0.1], &mut rng_b)
            );
        }
    }

    #[test]
    fn gaussian_noise_comes_from_the_finite_values_only() {
        let q = [1.0, f32::NAN, 3.0, 2.0];
        let mut noise = GaussianQNoise::new(1.0, Schedule::Constant(1.0));
        let mut rng = Rng::seed_from(5);
        let perturbed = noise.perturb(&q, &mut rng);
        assert_eq!(perturbed.iter().filter(|v| v.is_finite()).count(), 3);
        assert!(perturbed[1].is_nan());
        assert!(perturbed
            .iter()
            .zip(q)
            .any(|(p, q)| q.is_finite() && *p != q));

        // The ranking orders the three finite values and puts the NaN last.
        let order = noise.rank(&q, &mut rng);
        assert_eq!(order.len(), 4);
        assert_eq!(order[3], 1);
        let mut finite = order[..3].to_vec();
        finite.sort_unstable();
        assert_eq!(finite, vec![0, 2, 3]);

        // No finite value: nothing to take σ from, so nothing is added.
        let none = [f32::NAN, f32::INFINITY];
        let out = noise.perturb(&none, &mut rng);
        assert!(out[0].is_nan() && out[1] == f32::INFINITY);
    }

    #[test]
    fn gaussian_noise_on_finite_values_keeps_its_bits_and_draws() {
        // The mean and σ over all-finite values, computed the pre-filter way.
        let q = [0.5f32, -1.25, 3.0, 0.125, 2.0];
        let mut noise = GaussianQNoise::new(1.0, Schedule::Constant(0.5));
        let mut rng = Rng::seed_from(9);
        let mut reference = rng.clone();
        let perturbed = noise.perturb(&q, &mut rng);
        assert!(reference.chance(1.0));
        let mean = q.iter().sum::<f32>() / q.len() as f32;
        let std = (q.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / q.len() as f32).sqrt();
        let expected: Vec<f32> = q
            .iter()
            .map(|&v| v + reference.normal(0.0, std * 0.5))
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&perturbed), bits(&expected));
        assert_eq!(rng.below(1 << 20), reference.below(1 << 20), "same draws");
    }

    #[test]
    fn epsilon_greedy_empty_returns_none() {
        let mut e = EpsilonGreedy::paper_default(10);
        let mut rng = Rng::seed_from(0);
        assert_eq!(e.select(&[], &mut rng), None);
    }

    #[test]
    fn epsilon_greedy_mostly_greedy_at_high_exploit() {
        let mut e = EpsilonGreedy::new(Schedule::Constant(0.95));
        let mut rng = Rng::seed_from(1);
        let q = [0.0, 0.0, 5.0, 0.0];
        let mut greedy_hits = 0;
        for _ in 0..1000 {
            if e.select(&q, &mut rng) == Some(2) {
                greedy_hits += 1;
            }
        }
        assert!(greedy_hits > 900, "greedy hits {greedy_hits}");
    }

    #[test]
    fn epsilon_greedy_explores_at_zero_exploit() {
        let mut e = EpsilonGreedy::new(Schedule::Constant(0.0));
        let mut rng = Rng::seed_from(2);
        let q = [0.0, 0.0, 5.0, 0.0];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[e.select(&q, &mut rng).unwrap()] += 1;
        }
        // Roughly uniform.
        assert!(counts.iter().all(|&c| c > 800), "counts {counts:?}");
    }

    #[test]
    fn epsilon_schedule_advances() {
        let mut e = EpsilonGreedy::paper_default(100);
        let mut rng = Rng::seed_from(3);
        let before = e.exploit_probability();
        for _ in 0..100 {
            e.select(&[1.0, 2.0], &mut rng);
        }
        assert_eq!(e.steps(), 100);
        assert!(e.exploit_probability() > before);
        assert!((e.exploit_probability() - 0.98).abs() < 1e-6);
    }

    #[test]
    fn gaussian_noise_preserves_values_when_disabled() {
        let mut n = GaussianQNoise::new(0.0, Schedule::Constant(1.0));
        let mut rng = Rng::seed_from(4);
        let q = [1.0, 2.0, 3.0];
        assert_eq!(n.perturb(&q, &mut rng), q.to_vec());
    }

    #[test]
    fn gaussian_noise_scale_tracks_q_spread() {
        let mut n = GaussianQNoise::new(1.0, Schedule::Constant(1.0));
        let mut rng = Rng::seed_from(5);
        // Wide spread -> perturbations visibly change the ordering sometimes; tiny spread ->
        // perturbations stay tiny.
        let tight = [1.0, 1.0001, 1.0002];
        let perturbed = n.perturb(&tight, &mut rng);
        for (p, q) in perturbed.iter().zip(tight.iter()) {
            assert!((p - q).abs() < 0.01);
        }
    }

    #[test]
    fn gaussian_noise_changes_ranking_sometimes_but_not_always() {
        let mut n = GaussianQNoise::new(1.0, Schedule::Constant(1.0));
        let mut rng = Rng::seed_from(6);
        let q = [0.1, 0.11, 0.12, 0.13];
        let mut changed = 0;
        for _ in 0..200 {
            if n.rank(&q, &mut rng) != vec![3, 2, 1, 0] {
                changed += 1;
            }
        }
        assert!(changed > 10, "ranking never changed");
        assert!(changed < 200, "ranking always changed");
    }

    #[test]
    fn decayed_noise_becomes_nearly_greedy() {
        let mut n = GaussianQNoise::new(1.0, Schedule::Constant(0.001));
        let mut rng = Rng::seed_from(7);
        let q = [0.0, 10.0, 20.0, 30.0];
        for _ in 0..50 {
            assert_eq!(n.rank(&q, &mut rng), vec![3, 2, 1, 0]);
        }
    }

    /// Q-values mixing NaN, signed zeros, infinities and ties, as a poisoned network
    /// could produce them.
    fn poisoned_q_values(rng: &mut Rng) -> Vec<f32> {
        let n = 1 + rng.below(48);
        (0..n)
            .map(|_| match rng.below(8) {
                0 | 1 => f32::NAN,
                2 => 0.0,
                3 => -0.0,
                4 => [f32::INFINITY, f32::NEG_INFINITY][rng.below(2)],
                5 => rng.below(3) as f32,
                _ => rng.normal(0.0, 1.0),
            })
            .collect()
    }

    #[test]
    fn rankings_with_nan_never_panic_and_put_nan_last_in_a_fixed_order() {
        let mut rng = Rng::seed_from(71);
        for case in 0..2000 {
            let q = poisoned_q_values(&mut rng);
            let order = greedy_rank(&q);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..q.len()).collect::<Vec<_>>(), "case {case}");
            // Numbers best first, ties (−0.0 == +0.0 included) in index order, then
            // every NaN in index order.
            let split = order.iter().position(|&i| q[i].is_nan()).unwrap_or(q.len());
            assert!(order[split..].iter().all(|&i| q[i].is_nan()), "case {case}");
            assert!(
                order[split..].windows(2).all(|w| w[0] < w[1]),
                "case {case}"
            );
            assert!(
                order[..split]
                    .windows(2)
                    .all(|w| q[w[0]] > q[w[1]] || (q[w[0]] == q[w[1]] && w[0] < w[1])),
                "case {case}: {q:?} ranked {order:?}"
            );
            assert_eq!(greedy_rank(&q), order, "case {case}");
            // The exploring ranker with its noise switched off sorts the same values
            // through its own comparator, and the greedy pick is the ranking's head.
            let mut unperturbed = GaussianQNoise::new(0.0, Schedule::Constant(1.0));
            assert_eq!(unperturbed.rank(&q, &mut rng), order, "case {case}");
            let mut greedy = EpsilonGreedy::new(Schedule::Constant(1.0));
            assert_eq!(greedy.select(&q, &mut rng), Some(order[0]), "case {case}");
        }
    }

    #[test]
    fn greedy_rank_sorts_descending() {
        assert_eq!(greedy_rank(&[0.5, 2.0, 1.0]), vec![1, 2, 0]);
        assert!(greedy_rank(&[]).is_empty());
    }
}
