//! Kernel ablation: which kernels can measure communication
//! non-determinism, and at what cost? (DESIGN.md design choice #1.)
//!
//! For a fixed sample of runs, evaluate several kernels and report each
//! one's *separation* — the mean pairwise distance it assigns to runs
//! that are known to differ — normalised by its self-consistency (always
//! 0 for identical runs). A kernel that reports ≈ 0 on genuinely
//! different runs (vertex histograms on pure match reorderings) is blind
//! to the phenomenon, whatever its speed.

use crate::campaign::{seeded_campaign, CampaignError, RunCtx};
use crate::config::{CampaignConfig, KernelChoice};
use anacin_event_graph::LabelPolicy;
use anacin_kernels::matrix::gram_matrix;
use anacin_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};

/// One kernel's row in the ablation table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Kernel display name.
    pub kernel: String,
    /// Mean pairwise distance over the sample (the ND signal).
    pub mean_distance: f64,
    /// Fraction of run pairs the kernel separates (distance > 0).
    pub separated_fraction: f64,
    /// Wall-clock microseconds to evaluate the full kernel matrix.
    pub micros: u128,
}

/// The ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationReport {
    /// One row per kernel, in input order.
    pub rows: Vec<AblationRow>,
}

impl AblationReport {
    /// Rows sorted by descending signal.
    pub fn by_signal(&self) -> Vec<&AblationRow> {
        let mut rows: Vec<&AblationRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.mean_distance
                .partial_cmp(&a.mean_distance)
                .expect("finite distances")
        });
        rows
    }

    /// Render as an aligned text table.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{:>28} {:>14} {:>12} {:>10}\n",
            "kernel", "mean distance", "separated", "time (us)"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:>28} {:>14.4} {:>11.0}% {:>10}",
                r.kernel,
                r.mean_distance,
                r.separated_fraction * 100.0,
                r.micros
            );
        }
        s
    }
}

/// The default kernel set for the ablation.
pub fn default_kernels() -> Vec<KernelChoice> {
    vec![
        KernelChoice::Wl {
            iterations: 3,
            policy: LabelPolicy::TypeAndPeer,
        },
        KernelChoice::Wl {
            iterations: 3,
            policy: LabelPolicy::EventType,
        },
        KernelChoice::VertexHistogram {
            policy: LabelPolicy::TypeAndPeer,
        },
        KernelChoice::EdgeHistogram {
            policy: LabelPolicy::TypeAndPeer,
        },
        KernelChoice::ShortestPath {
            policy: LabelPolicy::TypeAndPeer,
            max_distance: 4,
        },
    ]
}

/// Run `config`'s campaign and evaluate `kernels` over its graphs, which
/// its workers hand over in run order.
pub fn ablate(
    config: &CampaignConfig,
    kernels: &[KernelChoice],
    ctx: &RunCtx,
) -> Result<AblationReport, CampaignError> {
    let (_, graphs) = seeded_campaign(config, ctx, false, &|_, g| g.clone())?;
    let rows = kernels
        .iter()
        .map(|kc| {
            let kernel = kc.instantiate();
            // Timed by an obs span: this crate reads no clock itself.
            let timer = MetricsRegistry::new();
            let m = {
                let _gram = timer.span("gram");
                gram_matrix(kernel.as_ref(), &graphs, config.threads)
            };
            let gram_ns = timer.report().span("gram").map_or(0, |s| s.total_ns);
            let micros = u128::from(gram_ns / 1_000);
            let d = m.pairwise_distances();
            let separated = if d.is_empty() {
                0.0
            } else {
                d.iter().filter(|&&x| x > 1e-12).count() as f64 / d.len() as f64
            };
            AblationRow {
                kernel: kernel.name(),
                mean_distance: m.mean_pairwise_distance(),
                separated_fraction: separated,
                micros,
            }
        })
        .collect();
    Ok(AblationReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_miniapps::Pattern;

    fn ablate_default(cfg: &CampaignConfig) -> AblationReport {
        ablate(cfg, &default_kernels(), &RunCtx::default()).unwrap()
    }

    #[test]
    fn wl_peer_beats_histograms_on_the_race() {
        // The race's runs differ only by match order; histogram kernels
        // are blind to that, WL with peer labels is not.
        let report = ablate_default(&CampaignConfig::new(Pattern::MessageRace, 8).runs(8));
        let signal = |name_part: &str| {
            report
                .rows
                .iter()
                .find(|row| row.kernel.contains(name_part))
                .unwrap_or_else(|| panic!("{name_part} missing"))
        };
        let wl_peer = signal("wl(h=3,TypeAndPeer)");
        let vertex = signal("vertex-hist");
        assert!(wl_peer.mean_distance > 0.0);
        assert!(wl_peer.separated_fraction > 0.9);
        assert!(
            vertex.mean_distance < 1e-9,
            "vertex histogram should be blind: {}",
            vertex.mean_distance
        );
        // Ranking puts WL/peer variants on top.
        let top = report.by_signal()[0];
        assert!(top.kernel.contains("TypeAndPeer"), "top = {}", top.kernel);
    }

    #[test]
    fn table_renders_all_rows() {
        let report = ablate_default(&CampaignConfig::new(Pattern::MessageRace, 5).runs(5));
        let t = report.table();
        assert_eq!(t.lines().count(), 1 + report.rows.len());
        assert!(t.contains("mean distance"));
    }
}
