//! Experiment scale selection and the policy line-ups used by the figure binaries.

use crowd_baselines::{Benefit, GreedyCosine, GreedyNn, LinUcb, ListMode, RandomPolicy, Taskrec};
use crowd_rl_core::{DdqnAgent, DdqnConfig, RecommendationMode};
use crowd_sim::{ArrivalContext, BoxedPolicy, Dataset, Env, Platform, SimConfig};

/// Dataset scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A quick smoke-test scale (used by CI-style checks).
    Tiny,
    /// The default reduced scale that finishes on a laptop CPU in minutes.
    Small,
    /// The full CrowdSpring-replica scale of the paper (13 months, ~1700 workers).
    Replica,
    /// The demand-scale synthetic tier (~1M workers, ~240k tasks); see
    /// [`SimConfig::massive`]. Binaries wired for it skip the warm-up window (gathering
    /// owned warm-start history at this scale would dwarf the replay).
    Massive,
}

impl Scale {
    /// Parses the `CROWD_SCALE` environment variable (`tiny` / `small` / `replica` /
    /// `massive`), defaulting to [`Scale::Small`].
    pub fn from_env() -> Scale {
        match std::env::var("CROWD_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "tiny" => Scale::Tiny,
            "replica" | "full" => Scale::Replica,
            "massive" => Scale::Massive,
            _ => Scale::Small,
        }
    }

    /// The generator configuration for this scale.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Scale::Tiny => SimConfig::tiny(),
            Scale::Small => SimConfig::small(),
            Scale::Replica => SimConfig::crowdspring_replica(),
            Scale::Massive => SimConfig::massive(),
        }
    }
}

/// Returns the experiment scale from the environment.
pub fn experiment_scale() -> Scale {
    Scale::from_env()
}

/// The worker pool for an experiment binary or example: `--threads N` on the command
/// line wins, then the `CROWD_THREADS` environment variable, then the machine's
/// available parallelism. Thread count only changes wall clock — every run is
/// bit-identical at any setting (the workspace's parallel-execution contract).
pub fn experiment_thread_pool() -> crowd_tensor::ThreadPool {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        // Both `--threads N` and `--threads=N` normalise to one value extraction.
        let value = if arg == "--threads" {
            args.next()
        } else {
            arg.strip_prefix("--threads=").map(str::to_string)
        };
        let Some(value) = value else { continue };
        match crowd_tensor::ThreadPool::parse(&value) {
            Some(pool) => return pool,
            None => eprintln!(
                "--threads expects a positive integer (got {value:?}); falling back to CROWD_THREADS / available parallelism"
            ),
        }
    }
    crowd_tensor::ThreadPool::from_env()
}

/// Generates the dataset for the current experiment scale.
pub fn experiment_dataset() -> Dataset {
    experiment_scale().sim_config().generate()
}

/// The DDQN configuration used by the experiment binaries at a given scale: the network is
/// kept narrow on the reduced scales so a full sweep stays CPU-friendly.
pub fn ddqn_config_for(scale: Scale) -> DdqnConfig {
    match scale {
        Scale::Tiny => DdqnConfig {
            hidden_dim: 16,
            num_heads: 2,
            batch_size: 8,
            learn_every: 4,
            max_tasks: 32,
            ..DdqnConfig::default()
        },
        Scale::Small => DdqnConfig {
            hidden_dim: 32,
            num_heads: 4,
            batch_size: 16,
            learn_every: 2,
            max_tasks: 48,
            ..DdqnConfig::default()
        },
        // The massive tier keeps the paper-scale network: the scale lives in the
        // environment, not the model.
        Scale::Replica | Scale::Massive => DdqnConfig::paper_scale(),
    }
}

/// Builds a DDQN agent for a dataset (feature dimensions come from the platform's default
/// feature space).
pub fn ddqn_for(dataset: &Dataset, config: DdqnConfig) -> DdqnAgent {
    let features = Platform::default_feature_space(dataset);
    DdqnAgent::new(config, features.task_dim(), features.worker_dim())
}

/// Materialises up to `limit` non-empty arrival contexts from a fresh platform walk over
/// `dataset` — the owned-record arrival stream serving harnesses feed to `crowd-serve`
/// clients (the decision service takes owned [`ArrivalContext`]s over a queue, not
/// borrowed views). Deterministic in the dataset: the arrival order is the dataset's
/// prerecorded event stream, and since no decision is ever applied here, the behaviour
/// `seed` (which only drives post-`apply` feedback outcomes) cannot influence the
/// contexts. Arrivals with an empty task pool are skipped, since a serving decision over
/// zero tasks is vacuous.
pub fn collect_arrival_contexts(dataset: &Dataset, seed: u64, limit: usize) -> Vec<ArrivalContext> {
    let mut platform = Platform::new(
        dataset.clone(),
        Platform::default_feature_space(dataset),
        seed,
    );
    let mut contexts = Vec::with_capacity(limit);
    while contexts.len() < limit && platform.next_arrival() {
        let view = platform.arrival();
        if !view.is_empty() {
            contexts.push(view.to_context());
        }
    }
    contexts
}

/// The policy line-up of Fig. 7 (worker benefit) or Fig. 8 (requester benefit), including the
/// benefit-specific DDQN variant. Taskrec only appears in the worker-benefit comparison, as
/// in the paper.
pub fn policies_for_benefit(dataset: &Dataset, benefit: Benefit, scale: Scale) -> Vec<BoxedPolicy> {
    let mode = ListMode::RankAll;
    let ddqn_config = match benefit {
        Benefit::Worker => ddqn_config_for(scale).worker_only(),
        Benefit::Requester => ddqn_config_for(scale).requester_only(),
    }
    .with_mode(RecommendationMode::RankList);
    let mut policies: Vec<BoxedPolicy> = vec![Box::new(RandomPolicy::new(mode, 11))];
    if benefit == Benefit::Worker {
        policies.push(Box::new(Taskrec::new(mode, 8, 13)));
    }
    policies.push(Box::new(GreedyCosine::new(benefit, mode)));
    policies.push(Box::new(GreedyNn::new(benefit, mode, 17)));
    policies.push(Box::new(LinUcb::new(benefit, mode, 0.5)));
    policies.push(Box::new(ddqn_for(dataset, ddqn_config)));
    policies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_small() {
        assert_eq!(Scale::from_env(), Scale::Small);
        assert_eq!(Scale::Tiny.sim_config().months, SimConfig::tiny().months);
        assert_eq!(
            Scale::Replica.sim_config().n_workers,
            SimConfig::crowdspring_replica().n_workers
        );
    }

    #[test]
    fn worker_lineup_matches_paper() {
        let dataset = SimConfig::tiny().generate();
        let policies = policies_for_benefit(&dataset, Benefit::Worker, Scale::Tiny);
        let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "Random",
                "Taskrec",
                "Greedy CS",
                "Greedy NN",
                "LinUCB",
                "DDQN(w)"
            ]
        );
    }

    #[test]
    fn requester_lineup_omits_taskrec() {
        let dataset = SimConfig::tiny().generate();
        let policies = policies_for_benefit(&dataset, Benefit::Requester, Scale::Tiny);
        let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "Random",
                "Greedy CS (r)",
                "Greedy NN (r)",
                "LinUCB (r)",
                "DDQN(r)"
            ]
        );
    }

    #[test]
    fn arrival_context_collection_is_deterministic_and_non_empty() {
        let dataset = SimConfig::tiny().generate();
        let a = collect_arrival_contexts(&dataset, 42, 25);
        let b = collect_arrival_contexts(&dataset, 42, 25);
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty());
        assert!(a.len() <= 25);
        assert!(a.iter().all(|ctx| !ctx.available.is_empty()));
        // The behaviour seed only drives post-`apply` feedback randomness; with no
        // decisions applied, the arrival stream is the dataset's event stream verbatim.
        let c = collect_arrival_contexts(&dataset, 43, 25);
        assert_eq!(a, c, "arrival stream is dataset-driven, not seed-driven");
    }

    #[test]
    fn ddqn_configs_are_valid_at_every_scale() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Replica, Scale::Massive] {
            ddqn_config_for(scale).validate();
        }
    }

    #[test]
    fn massive_scale_resolves_its_generator_config() {
        assert_eq!(
            Scale::Massive.sim_config().n_workers,
            SimConfig::massive().n_workers
        );
    }
}
