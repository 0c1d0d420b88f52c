//! Network model: node topology, latency, and non-determinism injection.
//!
//! The paper defines the *percentage of non-determinism* as "the percentage
//! of messages that can suffer from congestion or contention delays and
//! thus exhibit a non-deterministic arrival pattern". This module is the
//! faithful implementation of that knob: every message pays a deterministic
//! base latency (intra- or inter-node) plus a bandwidth term, and with
//! probability `nd_fraction` an additional random congestion delay drawn
//! from a configurable distribution. At `nd_fraction = 0` the network is
//! fully deterministic and every run of a program is identical.

use crate::types::{Rank, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The distribution congestion delays are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayDistribution {
    /// Exponential with the given mean (heavy enough tail to reorder
    /// messages; the default).
    Exponential {
        /// Mean delay in nanoseconds.
        mean_ns: f64,
    },
    /// Uniform on `[lo_ns, hi_ns)`.
    Uniform {
        /// Inclusive lower bound in nanoseconds.
        lo_ns: f64,
        /// Exclusive upper bound in nanoseconds.
        hi_ns: f64,
    },
    /// Pareto with scale `xm_ns` and shape `alpha` (very heavy tail; models
    /// rare severe contention events).
    Pareto {
        /// Scale (minimum delay) in nanoseconds.
        xm_ns: f64,
        /// Shape parameter; smaller means heavier tail. Must be > 0.
        alpha: f64,
    },
}

impl DelayDistribution {
    /// Draw one delay in nanoseconds.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            DelayDistribution::Exponential { mean_ns } => {
                // Inverse-CDF sampling; 1-u in (0,1] avoids ln(0).
                let u: f64 = rng.gen::<f64>();
                -mean_ns * (1.0 - u).max(f64::MIN_POSITIVE).ln()
            }
            DelayDistribution::Uniform { lo_ns, hi_ns } => {
                if hi_ns <= lo_ns {
                    lo_ns
                } else {
                    rng.gen_range(lo_ns..hi_ns)
                }
            }
            DelayDistribution::Pareto { xm_ns, alpha } => {
                let u: f64 = rng.gen::<f64>();
                xm_ns / (1.0 - u).max(f64::MIN_POSITIVE).powf(1.0 / alpha)
            }
        }
    }

    /// The distribution's mean, where finite.
    pub fn mean(&self) -> f64 {
        match *self {
            DelayDistribution::Exponential { mean_ns } => mean_ns,
            DelayDistribution::Uniform { lo_ns, hi_ns } => 0.5 * (lo_ns + hi_ns),
            DelayDistribution::Pareto { xm_ns, alpha } => {
                if alpha > 1.0 {
                    alpha * xm_ns / (alpha - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

impl Default for DelayDistribution {
    fn default() -> Self {
        DelayDistribution::Exponential { mean_ns: 2_000.0 }
    }
}

/// Static description of the simulated platform and its delay behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Number of compute nodes; ranks are distributed block-wise.
    pub nodes: u32,
    /// Latency between two ranks on the same node, in nanoseconds.
    pub intra_node_latency_ns: u64,
    /// Latency between two ranks on different nodes, in nanoseconds.
    pub inter_node_latency_ns: u64,
    /// Transfer cost per payload byte, in nanoseconds.
    pub per_byte_ns: f64,
    /// Fraction of messages eligible for a congestion delay, in `[0, 1]`.
    /// This is the paper's "percentage of non-determinism".
    pub nd_fraction: f64,
    /// Distribution of congestion delays.
    pub delay: DelayDistribution,
    /// Multiplier applied to congestion delays on inter-node messages.
    /// Values above 1 model the paper's observation that spanning multiple
    /// compute nodes increases the likelihood of non-deterministic runs.
    pub inter_node_delay_factor: f64,
    /// Fixed per-op software overheads, in nanoseconds.
    pub send_overhead_ns: u64,
    /// Receive-side matching overhead, in nanoseconds.
    pub recv_overhead_ns: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes: 1,
            intra_node_latency_ns: 500,
            inter_node_latency_ns: 5_000,
            per_byte_ns: 0.5,
            nd_fraction: 0.0,
            delay: DelayDistribution::default(),
            inter_node_delay_factor: 2.0,
            send_overhead_ns: 100,
            recv_overhead_ns: 100,
        }
    }
}

impl NetworkConfig {
    /// A deterministic single-node network (nd_fraction = 0).
    pub fn deterministic() -> Self {
        NetworkConfig::default()
    }

    /// A network with the given non-determinism percentage in `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `percent` is outside `[0, 100]` or not finite.
    pub fn with_nd_percent(percent: f64) -> Self {
        assert!(
            percent.is_finite() && (0.0..=100.0).contains(&percent),
            "nd percent must be within [0, 100], got {percent}"
        );
        NetworkConfig {
            nd_fraction: percent / 100.0,
            ..NetworkConfig::default()
        }
    }

    /// Builder-style: set the number of compute nodes.
    pub fn nodes(mut self, nodes: u32) -> Self {
        assert!(nodes > 0, "node count must be positive");
        self.nodes = nodes;
        self
    }

    /// Builder-style: set the congestion-delay distribution.
    pub fn delay(mut self, delay: DelayDistribution) -> Self {
        self.delay = delay;
        self
    }

    /// The compute node hosting `rank` under block distribution of
    /// `world_size` ranks over `self.nodes` nodes.
    pub fn node_of(&self, rank: Rank, world_size: u32) -> u32 {
        debug_assert!(rank.0 < world_size);
        if self.nodes <= 1 {
            return 0;
        }
        // Block distribution: ceil(world/nodes) ranks per node.
        let per_node = world_size.div_ceil(self.nodes);
        (rank.0 / per_node).min(self.nodes - 1)
    }
}

/// Runtime network model: owns the RNG stream used for congestion draws.
///
/// Given the same `NetworkConfig` and the same RNG seed, delivery times are
/// bit-identical across runs — the property the record/replay module and
/// the course's "same seed, same run" exercises rely on.
#[derive(Debug, Clone)]
pub struct NetworkModel<R: Rng> {
    config: NetworkConfig,
    world_size: u32,
    rng: R,
    delays_injected: u64,
}

impl<R: Rng> NetworkModel<R> {
    /// Create a model for a `world_size`-rank job.
    pub fn new(config: NetworkConfig, world_size: u32, rng: R) -> Self {
        NetworkModel {
            config,
            world_size,
            rng,
            delays_injected: 0,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// How many messages drew a congestion delay so far — the realised
    /// count behind the configured `nd_fraction` probability.
    pub fn delays_injected(&self) -> u64 {
        self.delays_injected
    }

    /// Compute the delivery time of a message of `bytes` bytes injected at
    /// `send_time` from `src` to `dst`.
    ///
    /// Consumes RNG draws only when `nd_fraction > 0`, so a deterministic
    /// configuration never perturbs the RNG stream.
    pub fn delivery_time(
        &mut self,
        src: Rank,
        dst: Rank,
        bytes: u64,
        send_time: SimTime,
    ) -> SimTime {
        let same_node =
            self.config.node_of(src, self.world_size) == self.config.node_of(dst, self.world_size);
        let base = if same_node {
            self.config.intra_node_latency_ns
        } else {
            self.config.inter_node_latency_ns
        };
        let bw = (bytes as f64 * self.config.per_byte_ns).round() as u64;
        let mut latency = base + bw;
        if self.config.nd_fraction > 0.0 && self.rng.gen_bool(self.config.nd_fraction.min(1.0)) {
            self.delays_injected += 1;
            let mut d = self.config.delay.sample(&mut self.rng);
            if !same_node {
                d *= self.config.inter_node_delay_factor;
            }
            latency += d.max(0.0).round() as u64;
        }
        send_time.after(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_network_is_reproducible_and_rng_free() {
        let cfg = NetworkConfig::deterministic();
        let mut m1 = NetworkModel::new(cfg.clone(), 4, SmallRng::seed_from_u64(1));
        let mut m2 = NetworkModel::new(cfg, 4, SmallRng::seed_from_u64(999));
        for b in [0u64, 1, 100, 4096] {
            let t1 = m1.delivery_time(Rank(0), Rank(1), b, SimTime(10));
            let t2 = m2.delivery_time(Rank(0), Rank(1), b, SimTime(10));
            // Different seeds, identical results: no RNG is consumed.
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn latency_grows_with_bytes() {
        let mut m = NetworkModel::new(
            NetworkConfig::deterministic(),
            2,
            SmallRng::seed_from_u64(0),
        );
        let small = m.delivery_time(Rank(0), Rank(1), 1, SimTime::ZERO);
        let big = m.delivery_time(Rank(0), Rank(1), 1_000_000, SimTime::ZERO);
        assert!(big > small);
    }

    #[test]
    fn inter_node_latency_exceeds_intra() {
        let cfg = NetworkConfig::deterministic().nodes(2);
        let mut m = NetworkModel::new(cfg, 4, SmallRng::seed_from_u64(0));
        // ranks 0,1 on node 0; ranks 2,3 on node 1.
        let intra = m.delivery_time(Rank(0), Rank(1), 0, SimTime::ZERO);
        let inter = m.delivery_time(Rank(0), Rank(2), 0, SimTime::ZERO);
        assert!(inter > intra);
    }

    #[test]
    fn node_assignment_is_block_wise() {
        let cfg = NetworkConfig::deterministic().nodes(2);
        assert_eq!(cfg.node_of(Rank(0), 4), 0);
        assert_eq!(cfg.node_of(Rank(1), 4), 0);
        assert_eq!(cfg.node_of(Rank(2), 4), 1);
        assert_eq!(cfg.node_of(Rank(3), 4), 1);
        // Uneven split: 5 ranks over 2 nodes -> 3 + 2.
        assert_eq!(cfg.node_of(Rank(2), 5), 0);
        assert_eq!(cfg.node_of(Rank(3), 5), 1);
        // Single node puts everything on node 0.
        let one = NetworkConfig::deterministic();
        assert_eq!(one.node_of(Rank(3), 4), 0);
    }

    #[test]
    fn nd_injection_changes_delivery_times_across_seeds() {
        let cfg = NetworkConfig::with_nd_percent(100.0);
        let mut m1 = NetworkModel::new(cfg.clone(), 2, SmallRng::seed_from_u64(1));
        let mut m2 = NetworkModel::new(cfg, 2, SmallRng::seed_from_u64(2));
        let mut differs = false;
        for _ in 0..32 {
            let t1 = m1.delivery_time(Rank(0), Rank(1), 8, SimTime::ZERO);
            let t2 = m2.delivery_time(Rank(0), Rank(1), 8, SimTime::ZERO);
            if t1 != t2 {
                differs = true;
            }
        }
        assert!(differs, "100% ND must perturb delivery times");
    }

    #[test]
    fn same_seed_same_delivery_times() {
        let cfg = NetworkConfig::with_nd_percent(75.0);
        let mut m1 = NetworkModel::new(cfg.clone(), 2, SmallRng::seed_from_u64(7));
        let mut m2 = NetworkModel::new(cfg, 2, SmallRng::seed_from_u64(7));
        for _ in 0..64 {
            assert_eq!(
                m1.delivery_time(Rank(0), Rank(1), 8, SimTime::ZERO),
                m2.delivery_time(Rank(0), Rank(1), 8, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn delay_distributions_sample_nonnegative_and_mean_is_sane() {
        let mut rng = SmallRng::seed_from_u64(42);
        for d in [
            DelayDistribution::Exponential { mean_ns: 100.0 },
            DelayDistribution::Uniform {
                lo_ns: 10.0,
                hi_ns: 20.0,
            },
            DelayDistribution::Pareto {
                xm_ns: 5.0,
                alpha: 2.5,
            },
        ] {
            let mut sum = 0.0;
            for _ in 0..10_000 {
                let x = d.sample(&mut rng);
                assert!(x >= 0.0, "{d:?} sampled negative {x}");
                sum += x;
            }
            let empirical = sum / 10_000.0;
            let expected = d.mean();
            assert!(
                (empirical - expected).abs() / expected < 0.2,
                "{d:?}: empirical mean {empirical} vs expected {expected}"
            );
        }
    }

    #[test]
    fn delay_injection_counter_tracks_nd_fraction() {
        let mut det = NetworkModel::new(
            NetworkConfig::deterministic(),
            2,
            SmallRng::seed_from_u64(0),
        );
        let mut full = NetworkModel::new(
            NetworkConfig::with_nd_percent(100.0),
            2,
            SmallRng::seed_from_u64(0),
        );
        for _ in 0..50 {
            det.delivery_time(Rank(0), Rank(1), 8, SimTime::ZERO);
            full.delivery_time(Rank(0), Rank(1), 8, SimTime::ZERO);
        }
        assert_eq!(det.delays_injected(), 0);
        assert_eq!(full.delays_injected(), 50);
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = DelayDistribution::Uniform {
            lo_ns: 5.0,
            hi_ns: 5.0,
        };
        assert_eq!(d.sample(&mut rng), 5.0);
    }

    #[test]
    fn pareto_mean_infinite_for_small_alpha() {
        let d = DelayDistribution::Pareto {
            xm_ns: 1.0,
            alpha: 0.9,
        };
        assert!(d.mean().is_infinite());
    }

    #[test]
    #[should_panic(expected = "within [0, 100]")]
    fn nd_percent_out_of_range_panics() {
        NetworkConfig::with_nd_percent(120.0);
    }
}
