//! Reinforcement-learning toolkit used by the DDQN framework and the LinUCB baseline.
//!
//! Contents:
//!
//! * [`PrioritizedReplay`] — proportional prioritized experience replay (Schaul et al. 2015,
//!   cited as \[25\] in the paper) backed by a [`SumTree`], with importance-sampling weights;
//! * [`EpsilonGreedy`] — the ε schedule of Sec. VII-B1 (ε grows from 0.9 to 0.98 for
//!   single-task assignment, i.e. the probability of *following* the policy grows);
//! * [`GaussianQNoise`] — the list-recommendation explorer of Sec. VI-B that perturbs Q
//!   values with zero-mean noise whose std matches the current Q-value spread, with a decay
//!   factor;
//! * [`Schedule`] — linear / exponential scalar schedules shared by the above.
//!
//! # Prioritized replay in five lines
//!
//! Transitions go in with maximal priority, come out proportionally to their TD error, and
//! carry an importance-sampling weight that corrects the induced bias:
//!
//! ```
//! use crowd_rl_kit::PrioritizedReplay;
//! use crowd_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(7);
//! let mut memory: PrioritizedReplay<&str> = PrioritizedReplay::new(64);
//! memory.push("small surprise");
//! memory.push("big surprise");
//! memory.update_priority(0, 0.1); // |TD error| of slot 0
//! memory.update_priority(1, 5.0); // slot 1 is 50x more surprising
//! let samples = memory.sample(32, &mut rng);
//! let big = samples.iter().filter(|s| s.index == 1).count();
//! assert!(big > 16, "high-priority transitions dominate the minibatch ({big}/32)");
//! // Every sample carries a weight in (0, 1] for the loss correction.
//! assert!(samples.iter().all(|s| s.weight > 0.0 && s.weight <= 1.0));
//! ```
//!
//! # Exploration
//!
//! The ε-greedy schedule *grows* the probability of following the policy (the paper anneals
//! exploration away over `anneal_steps` decisions):
//!
//! ```
//! use crowd_rl_kit::{greedy_rank, EpsilonGreedy, Schedule};
//! use crowd_tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let mut explorer = EpsilonGreedy::paper_default(100);
//! assert!((explorer.exploit_probability() - 0.9).abs() < 1e-6);
//! let q = [0.1, 0.9, 0.3];
//! let choice = explorer.select(&q, &mut rng).unwrap();
//! assert!(choice < q.len());
//! // After the anneal window the explorer follows the policy 98% of the time.
//! for _ in 0..200 {
//!     explorer.select(&q, &mut rng);
//! }
//! assert!(explorer.exploit_probability() >= 0.98);
//! // Pure exploitation is a plain greedy ranking.
//! assert_eq!(greedy_rank(&q), vec![1, 2, 0]);
//! // Schedules are deterministic functions of the step count.
//! let eps = Schedule::Linear { start: 0.9, end: 0.98, steps: 100 };
//! assert_eq!(eps.at(0), 0.9);
//! assert_eq!(eps.at(1_000), 0.98);
//! ```

pub mod explore;
pub mod prioritized;
pub mod schedule;
pub mod sum_tree;

pub use explore::{greedy_rank, EpsilonGreedy, GaussianQNoise};
pub use prioritized::{PrioritizedReplay, PrioritizedSample};
pub use schedule::Schedule;
pub use sum_tree::SumTree;
