//! Campaign configuration: everything that defines one measurement.

use anacin_event_graph::LabelPolicy;
use anacin_kernels::prelude::*;
use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::network::{DelayDistribution, NetworkConfig};
use anacin_mpisim::SimConfig;
use serde::{Deserialize, Serialize};

/// Which kernel a campaign measures with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KernelChoice {
    /// Weisfeiler–Lehman subtree kernel (ANACIN-X default).
    Wl {
        /// WL iteration depth.
        iterations: u32,
        /// Node-label policy.
        policy: LabelPolicy,
    },
    /// Vertex-histogram baseline.
    VertexHistogram {
        /// Node-label policy.
        policy: LabelPolicy,
    },
    /// Edge-histogram baseline.
    EdgeHistogram {
        /// Node-label policy.
        policy: LabelPolicy,
    },
    /// Bounded shortest-path kernel.
    ShortestPath {
        /// Node-label policy.
        policy: LabelPolicy,
        /// BFS horizon.
        max_distance: u32,
    },
}

impl Default for KernelChoice {
    fn default() -> Self {
        KernelChoice::Wl {
            iterations: 3,
            policy: LabelPolicy::default(),
        }
    }
}

impl KernelChoice {
    /// Materialise the kernel object.
    pub fn instantiate(&self) -> Box<dyn GraphKernel> {
        match *self {
            KernelChoice::Wl { iterations, policy } => Box::new(WlKernel { iterations, policy }),
            KernelChoice::VertexHistogram { policy } => Box::new(VertexHistogramKernel { policy }),
            KernelChoice::EdgeHistogram { policy } => Box::new(EdgeHistogramKernel { policy }),
            KernelChoice::ShortestPath {
                policy,
                max_distance,
            } => Box::new(ShortestPathKernel {
                policy,
                max_distance,
            }),
        }
    }
}

/// One measurement campaign: run a pattern many times at a setting and
/// measure the kernel-distance sample — the unit of every figure in the
/// paper's evaluation.
///
/// Deserializing refuses a key that names no field, so a config that asks
/// for a knob this build lacks fails instead of running without it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CampaignConfig {
    /// Which mini-application to run.
    pub pattern: Pattern,
    /// The mini-application's parameters.
    pub app: MiniAppConfig,
    /// Percentage of non-determinism, `[0, 100]`.
    pub nd_percent: f64,
    /// Number of simulated compute nodes.
    pub nodes: u32,
    /// Number of runs (the paper uses 20 per setting).
    pub runs: u32,
    /// Seed of the first run; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Worker threads for simulation and kernel evaluation.
    pub threads: usize,
    /// The measurement kernel.
    pub kernel: KernelChoice,
    /// The congestion-delay distribution (ablation knob; the default is
    /// tuned so reorder depth grows gradually with ND%, matching the
    /// paper's Figure-7 shape rather than saturating instantly).
    pub delay: DelayDistribution,
    /// Dot-product implementation of `gram_append` (append jobs) only;
    /// the cold exact Gram ignores it. Bit-identical results either way
    /// (the blocked merge-join skips only non-matching keys). Like
    /// `threads`, excluded from store fingerprints. Kept only because the
    /// benchmark passes it to `gram_append`; it goes with the next change
    /// to the benchmark.
    pub dot: DotKind,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            pattern: Pattern::MessageRace,
            app: MiniAppConfig::default(),
            nd_percent: 100.0,
            nodes: 1,
            runs: 20,
            base_seed: 1,
            threads: default_threads(),
            kernel: KernelChoice::default(),
            delay: DelayDistribution::Exponential { mean_ns: 100.0 },
            dot: DotKind::default(),
        }
    }
}

/// Available parallelism, bounded for laptop friendliness.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

impl CampaignConfig {
    /// A campaign for `pattern` with `procs` processes, other fields
    /// default.
    pub fn new(pattern: Pattern, procs: u32) -> Self {
        CampaignConfig {
            pattern,
            app: MiniAppConfig::with_procs(procs),
            ..Default::default()
        }
    }

    /// Builder-style: set the ND percentage.
    pub fn nd_percent(mut self, percent: f64) -> Self {
        self.nd_percent = percent;
        self
    }

    /// Builder-style: set the run count.
    pub fn runs(mut self, runs: u32) -> Self {
        self.runs = runs;
        self
    }

    /// Builder-style: set the iteration count of the app.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.app.iterations = iterations;
        self
    }

    /// Builder-style: set the node count.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder-style: set the base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Builder-style: set the dot-product implementation.
    pub fn dot(mut self, dot: DotKind) -> Self {
        self.dot = dot;
        self
    }

    /// The simulator configuration of run `i`.
    pub fn sim_config(&self, run: u32) -> SimConfig {
        let network = NetworkConfig::with_nd_percent(self.nd_percent)
            .nodes(self.nodes)
            .delay(self.delay);
        SimConfig {
            network,
            seed: self.base_seed + run as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_sim_config() {
        let c = CampaignConfig::new(Pattern::Amg2013, 8)
            .nd_percent(40.0)
            .runs(5)
            .iterations(2)
            .nodes(2)
            .base_seed(100);
        assert_eq!(c.app.procs, 8);
        assert_eq!(c.app.iterations, 2);
        let sc = c.sim_config(3);
        assert_eq!(sc.seed, 103);
        assert!((sc.network.nd_fraction - 0.4).abs() < 1e-12);
        assert_eq!(sc.network.nodes, 2);
    }

    #[test]
    fn kernel_choices_instantiate() {
        use anacin_event_graph::LabelPolicy;
        for k in [
            KernelChoice::default(),
            KernelChoice::VertexHistogram {
                policy: LabelPolicy::EventType,
            },
            KernelChoice::EdgeHistogram {
                policy: LabelPolicy::TypeAndPeer,
            },
            KernelChoice::ShortestPath {
                policy: LabelPolicy::TypeAndPeer,
                max_distance: 3,
            },
        ] {
            let obj = k.instantiate();
            assert!(!obj.name().is_empty());
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn configs_without_dot_or_approx_fields_still_deserialize() {
        // Configs serialised before the blocked-dot knob existed must load
        // with the scalar default.
        let text = serde_json::to_string(&CampaignConfig::default()).unwrap();
        let mut v = serde_json::from_str_value(&text).unwrap();
        if let serde::Value::Object(map) = &mut v {
            map.retain(|(k, _)| k != "dot");
        }
        let cfg = <CampaignConfig as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(cfg.dot, DotKind::Scalar);
    }

    #[test]
    fn dot_and_approx_round_trip_through_config_json() {
        let c = CampaignConfig::default().dot(DotKind::Blocked);
        let text = serde_json::to_string(&c).unwrap();
        let mut v = serde_json::from_str_value(&text).unwrap();
        let back = <CampaignConfig as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, c);
        // A field `CampaignConfig` lacks is refused, never ignored.
        if let serde::Value::Object(map) = &mut v {
            map.push(("approx".into(), serde::Value::String("exact".into())));
        }
        let err = <CampaignConfig as serde::Deserialize>::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("`approx`"), "{err}");
    }
}
