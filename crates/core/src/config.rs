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

/// Whether the kernel stage computes the Gram matrix exactly or through
/// the landmark (Nyström) approximation.
///
/// `Exact` is the default and the only mode whose matrices are published
/// to the incremental store. `Landmarks(k)` computes only `runs × k` dot
/// products — for campaigns with thousands of runs where the full
/// O(runs²) schedule is unaffordable — and reports a rigorous Frobenius
/// error bound (`kernel/approx_error_bound`). It is strictly opt-in and
/// never silently replaces the exact path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GramApprox {
    /// Full exact Gram matrix (every pairwise dot product).
    #[default]
    Exact,
    /// Landmark/Nyström approximation with this many landmark runs.
    Landmarks(usize),
}

impl std::fmt::Display for GramApprox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramApprox::Exact => f.write_str("exact"),
            GramApprox::Landmarks(k) => write!(f, "landmarks={k}"),
        }
    }
}

impl std::str::FromStr for GramApprox {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "exact" {
            return Ok(GramApprox::Exact);
        }
        if let Some(k) = s.strip_prefix("landmarks=") {
            let k: usize = k
                .parse()
                .map_err(|_| format!("bad landmark count in '{s}'"))?;
            if k == 0 {
                return Err("landmark count must be at least 1".to_string());
            }
            return Ok(GramApprox::Landmarks(k));
        }
        Err(format!(
            "unknown gram approximation '{s}' (expected 'exact' or 'landmarks=K')"
        ))
    }
}

// Manual serde impls: a missing field deserialises as `Null`, which maps
// to the default, so configs serialised before the knob existed keep
// loading.
impl serde::Serialize for GramApprox {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl serde::Deserialize for GramApprox {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if v.is_null() {
            return Ok(GramApprox::default());
        }
        match v.as_str() {
            Some(s) => s.parse().map_err(serde::Error::custom),
            None => Err(serde::Error::custom("gram approximation must be a string")),
        }
    }
}

/// One measurement campaign: run a pattern many times at a setting and
/// measure the kernel-distance sample — the unit of every figure in the
/// paper's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Dot-product implementation of `gram_append` (append jobs) and
    /// `landmark_gram` only; the cold exact Gram ignores it. Bit-identical
    /// results either way (the blocked merge-join skips only non-matching
    /// keys). Like `threads`, excluded from store fingerprints. Kept only
    /// because the benchmark passes it to `gram_append`; it goes with the
    /// next change to the benchmark.
    pub dot: DotKind,
    /// Exact vs landmark-approximate Gram computation. Approximate
    /// matrices are never published to the store.
    pub approx: GramApprox,
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
            approx: GramApprox::default(),
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

    /// Builder-style: set the kernel.
    pub fn kernel(mut self, kernel: KernelChoice) -> Self {
        self.kernel = kernel;
        self
    }

    /// Builder-style: set the congestion-delay distribution.
    pub fn delay(mut self, delay: DelayDistribution) -> Self {
        self.delay = delay;
        self
    }

    /// Builder-style: set the dot-product implementation.
    pub fn dot(mut self, dot: DotKind) -> Self {
        self.dot = dot;
        self
    }

    /// Builder-style: set the Gram approximation mode.
    pub fn approx(mut self, approx: GramApprox) -> Self {
        self.approx = approx;
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
    fn gram_approx_parses_and_round_trips() {
        assert_eq!("exact".parse(), Ok(GramApprox::Exact));
        assert_eq!("landmarks=16".parse(), Ok(GramApprox::Landmarks(16)));
        assert!("landmarks=0".parse::<GramApprox>().is_err());
        assert!("landmarks=".parse::<GramApprox>().is_err());
        assert!("nystrom".parse::<GramApprox>().is_err());
        for a in [GramApprox::Exact, GramApprox::Landmarks(32)] {
            let v = serde::Serialize::to_value(&a);
            assert_eq!(serde::Deserialize::from_value(&v), Ok(a));
            assert_eq!(a.to_string().parse(), Ok(a));
        }
    }

    #[test]
    fn configs_without_dot_or_approx_fields_still_deserialize() {
        // Configs serialised before the blocked-dot / approximation knobs
        // existed must load with the exact scalar defaults.
        let text = serde_json::to_string(&CampaignConfig::default()).unwrap();
        let mut v = serde_json::from_str_value(&text).unwrap();
        if let serde::Value::Object(map) = &mut v {
            map.retain(|(k, _)| k != "dot" && k != "approx");
        }
        let cfg = <CampaignConfig as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(cfg.dot, DotKind::Scalar);
        assert_eq!(cfg.approx, GramApprox::Exact);
    }

    #[test]
    fn dot_and_approx_round_trip_through_config_json() {
        let c = CampaignConfig::default()
            .dot(DotKind::Blocked)
            .approx(GramApprox::Landmarks(8));
        let text = serde_json::to_string(&c).unwrap();
        let v = serde_json::from_str_value(&text).unwrap();
        let back = <CampaignConfig as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back, c);
    }
}
