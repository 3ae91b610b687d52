//! Hyper-parameters of the DDQN task-arrangement framework.
//!
//! Defaults follow Sec. VII-B1 of the paper where a value is given (γ_w = 0.3, γ_r = 0.5,
//! learning rate 0.001, buffer size 1000, target copy every 100 iterations, batch size 64,
//! ε growing 0.9 → 0.98, noise decay 1.0 → 0.1); dimensions are scaled down from the paper's
//! GPU setting (128-wide layers) to a CPU-friendly width, configurable per experiment.

/// Whether the agent assigns a single task or shows a ranked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommendationMode {
    /// Recommend exactly one task (the paper's CR / QG setting).
    AssignOne,
    /// Recommend a ranked list of all available tasks (kCR / nDCG settings).
    RankList,
}

/// Hyper-parameters shared by both Q-networks and the agent.
#[derive(Debug, Clone, PartialEq)]
pub struct DdqnConfig {
    /// Maximum number of available tasks represented in a state (`maxT`); larger pools are
    /// truncated to the `max_tasks` tasks closest to their deadline.
    pub max_tasks: usize,
    /// Hidden width of every Q-network layer (the paper uses 128 on GPU).
    pub hidden_dim: usize,
    /// Number of self-attention heads.
    pub num_heads: usize,
    /// Discount factor for the worker-benefit MDP (paper: 0.3).
    pub gamma_worker: f32,
    /// Discount factor for the requester-benefit MDP (paper: 0.5).
    pub gamma_requester: f32,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f32,
    /// Replay buffer capacity (paper: 1000).
    pub buffer_size: usize,
    /// Minibatch size per learning step (paper: 64).
    pub batch_size: usize,
    /// Hard-copy the target network every this many learning steps (paper: 100).
    pub target_sync_every: u64,
    /// Run one learning step every this many observed feedbacks (1 = after every feedback,
    /// exactly as the paper; larger values trade fidelity for speed on CPU).
    pub learn_every: usize,
    /// Balance weight `w` between the two benefits: `Q = w·Q_w + (1−w)·Q_r` (Sec. VI-A).
    pub balance_weight: f32,
    /// Whether to assign a single task or rank the whole pool.
    pub mode: RecommendationMode,
    /// Number of decisions over which the exploration schedules anneal.
    pub exploration_anneal_steps: u64,
    /// Maximum number of future-state breakpoints kept when enumerating task expirations in
    /// the revised target (Eq. 3/6). The paper enumerates every expiry (up to `maxT`);
    /// merging low-probability intervals keeps CPU training tractable without changing the
    /// expectation materially.
    pub max_future_breakpoints: usize,
    /// Same-worker revisit horizon in minutes for φ(g) (paper: 10080 = one week).
    pub same_worker_horizon: u64,
    /// Consecutive-arrival horizon in minutes for ϕ(g) (paper: 60).
    pub consecutive_horizon: u64,
    /// Gradient-norm clip applied per parameter.
    pub grad_clip: f32,
    /// RNG seed for the agent's own stochastic choices (exploration, replay sampling).
    pub seed: u64,
}

impl Default for DdqnConfig {
    fn default() -> Self {
        DdqnConfig {
            max_tasks: 64,
            hidden_dim: 32,
            num_heads: 4,
            gamma_worker: 0.3,
            gamma_requester: 0.5,
            learning_rate: 0.001,
            buffer_size: 1000,
            batch_size: 16,
            target_sync_every: 100,
            learn_every: 2,
            balance_weight: 0.25,
            mode: RecommendationMode::RankList,
            exploration_anneal_steps: 2000,
            max_future_breakpoints: 4,
            same_worker_horizon: 10_080,
            consecutive_horizon: 60,
            grad_clip: 5.0,
            seed: 17,
        }
    }
}

impl DdqnConfig {
    /// The paper's full configuration (128-wide layers, batch 64, update after every
    /// feedback). Significantly slower on CPU.
    ///
    /// Nothing shows that [`DdqnConfig::default`] keeps the paper's results. One run of
    /// Figs. 7 and 8 at the default Small scale, with the default configuration, ranked
    /// DDQN(w) fifth of six methods on final CR and DDQN(r) third of five on final QG;
    /// the paper ranks DDQN first on both. No run with this configuration has been
    /// completed (ROADMAP.md, "The paper's headline result is not reproduced").
    pub fn paper_scale() -> Self {
        DdqnConfig {
            hidden_dim: 128,
            batch_size: 64,
            learn_every: 1,
            max_future_breakpoints: 64,
            ..DdqnConfig::default()
        }
    }

    /// Configuration that only optimises the worker benefit (`w = 1`), used by the Fig. 7
    /// comparison.
    pub fn worker_only(mut self) -> Self {
        self.balance_weight = 1.0;
        self
    }

    /// Configuration that only optimises the requester benefit (`w = 0`), used by the Fig. 8
    /// comparison.
    pub fn requester_only(mut self) -> Self {
        self.balance_weight = 0.0;
        self
    }

    /// Overrides the balance weight (Fig. 9 sweep).
    pub fn with_balance(mut self, w: f32) -> Self {
        self.balance_weight = w.clamp(0.0, 1.0);
        self
    }

    /// Overrides the recommendation mode.
    pub fn with_mode(mut self, mode: RecommendationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the agent seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates internal consistency (panics early instead of failing deep inside training).
    ///
    /// # Panics
    ///
    /// Panics when dimensions are zero or the hidden width is not divisible by the head
    /// count.
    pub fn validate(&self) {
        assert!(self.max_tasks > 0, "max_tasks must be positive");
        assert!(self.hidden_dim > 0, "hidden_dim must be positive");
        assert!(
            self.hidden_dim.is_multiple_of(self.num_heads),
            "hidden_dim must be divisible by num_heads"
        );
        assert!(self.buffer_size > 0 && self.batch_size > 0);
        assert!((0.0..=1.0).contains(&self.balance_weight));
        assert!((0.0..=1.0).contains(&self.gamma_worker));
        assert!((0.0..=1.0).contains(&self.gamma_requester));
        assert!(self.max_future_breakpoints > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_constants() {
        let cfg = DdqnConfig::default();
        cfg.validate();
        assert_eq!(cfg.gamma_worker, 0.3);
        assert_eq!(cfg.gamma_requester, 0.5);
        assert_eq!(cfg.learning_rate, 0.001);
        assert_eq!(cfg.buffer_size, 1000);
        assert_eq!(cfg.target_sync_every, 100);
        assert_eq!(cfg.same_worker_horizon, 10_080);
        assert_eq!(cfg.consecutive_horizon, 60);
    }

    #[test]
    fn paper_scale_is_valid() {
        let cfg = DdqnConfig::paper_scale();
        cfg.validate();
        assert_eq!(cfg.hidden_dim, 128);
        assert_eq!(cfg.batch_size, 64);
        assert_eq!(cfg.learn_every, 1);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = DdqnConfig::default()
            .worker_only()
            .with_mode(RecommendationMode::AssignOne)
            .with_seed(99);
        assert_eq!(cfg.balance_weight, 1.0);
        assert_eq!(cfg.mode, RecommendationMode::AssignOne);
        assert_eq!(cfg.seed, 99);
        assert_eq!(DdqnConfig::default().requester_only().balance_weight, 0.0);
        assert_eq!(DdqnConfig::default().with_balance(2.0).balance_weight, 1.0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn invalid_head_split_panics() {
        let cfg = DdqnConfig {
            hidden_dim: 30,
            num_heads: 4,
            ..DdqnConfig::default()
        };
        cfg.validate();
    }
}
