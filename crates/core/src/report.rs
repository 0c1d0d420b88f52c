//! Serializable reports and plain-text rendering of campaign results.
//!
//! The JSON builders here ([`measurement_json`], [`sweep_text`], the
//! explore report structs) are shared between the batch CLI and the
//! `anacin serve` daemon: both construct their output through the same
//! functions, which is what makes a service `Result` frame byte-identical
//! to a local `anacin run --json` of the same request.

use crate::config::CampaignConfig;
use crate::explore::ExploreCoverage;
use crate::measure::NdMeasurement;
use crate::root_cause::CallstackRanking;
use crate::sweep::Sweep;
use anacin_kernels::matrix::KernelMatrix;
use anacin_mpisim::explore::{ExploreConfig, ExploreStats};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A serializable snapshot of a measurement (one violin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementReport {
    /// Setting label.
    pub label: String,
    /// Sample size (pair count).
    pub n: usize,
    /// Mean pairwise kernel distance.
    pub mean: f64,
    /// Median pairwise kernel distance.
    pub median: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum distance.
    pub min: f64,
    /// Maximum distance.
    pub max: f64,
}

impl From<&NdMeasurement> for MeasurementReport {
    fn from(m: &NdMeasurement) -> Self {
        MeasurementReport {
            label: m.label.clone(),
            n: m.summary.n,
            mean: m.summary.mean,
            median: m.summary.median,
            std_dev: m.summary.std_dev,
            min: m.summary.min,
            max: m.summary.max,
        }
    }
}

/// Render a sweep as an aligned text table (one row per point).
pub fn sweep_table(sweep: &Sweep) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>12}  {:>12}  {:>12}  {:>12}  {:>12}",
        sweep.parameter, "mean", "median", "std", "max"
    );
    for p in &sweep.points {
        let m = &p.measurement.summary;
        let _ = writeln!(
            s,
            "{:>12}  {:>12.4}  {:>12.4}  {:>12.4}  {:>12.4}",
            p.x, m.mean, m.median, m.std_dev, m.max
        );
    }
    s
}

/// Render a callstack ranking as a text table.
pub fn ranking_table(ranking: &CallstackRanking, limit: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{:>8}  {:>10}  callstack", "count", "rel.freq");
    for e in ranking.entries.iter().take(limit) {
        let _ = writeln!(s, "{:>8}  {:>10.4}  {}", e.count, e.frequency, e.stack);
    }
    s
}

/// Serialize any report type to pretty JSON.
pub fn to_json<T: Serialize>(value: &T) -> serde_json::Result<String> {
    serde_json::to_string_pretty(value)
}

/// The measurement label `anacin run` prints: `<pattern> @ <nd>%`.
pub fn campaign_label(config: &CampaignConfig) -> String {
    format!("{} @ {}%", config.pattern, config.nd_percent)
}

/// The exact `anacin run --json` payload for a campaign's kernel matrix.
pub fn measurement_json(
    config: &CampaignConfig,
    matrix: &KernelMatrix,
) -> serde_json::Result<String> {
    let m = NdMeasurement::from_matrix(campaign_label(config), matrix);
    to_json(&MeasurementReport::from(&m))
}

/// The exact `anacin sweep` stdout for a finished sweep: the point table
/// plus the Spearman monotonicity line.
pub fn sweep_text(sweep: &Sweep) -> String {
    format!(
        "{}Spearman rho = {:.3}\n",
        sweep_table(sweep),
        sweep.spearman_monotonicity()
    )
}

/// The explore half of a `run --explore --json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreSection {
    /// The enumeration bounds the request asked for.
    pub config: ExploreConfig,
    /// What the enumeration found.
    pub stats: ExploreStats,
    /// How the sampled campaign relates to the enumerated space.
    pub coverage: ExploreCoverage,
}

/// `run --explore --json`: the sampled measurement plus the enumeration.
#[derive(Debug, Clone, Serialize)]
pub struct RunWithExploreReport {
    /// The sampled campaign's measurement.
    pub measurement: MeasurementReport,
    /// The schedule-space enumeration and coverage.
    pub explore: ExploreSection,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::campaign::RunCtx;
    use crate::config::CampaignConfig;
    use crate::root_cause::{analyze, RootCauseConfig};
    use crate::sweep::{sweep, SweepAxis};
    use anacin_miniapps::Pattern;

    #[test]
    fn measurement_report_round_trips_json() {
        let r = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 6).runs(5)).unwrap();
        let m = NdMeasurement::from_campaign("demo", &r);
        let rep = MeasurementReport::from(&m);
        let json = to_json(&rep).unwrap();
        let back: MeasurementReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.label, "demo");
    }

    #[test]
    fn sweep_table_has_one_row_per_point() {
        let base = CampaignConfig::new(Pattern::MessageRace, 6).runs(5);
        let sweep = sweep(
            SweepAxis::NdPercent,
            &base,
            &[0.0, 100.0],
            &RunCtx::default(),
        )
        .unwrap();
        let table = sweep_table(&sweep);
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("nd_percent"));
    }

    #[test]
    fn ranking_table_limits_rows() {
        let r = run_campaign(&CampaignConfig::new(Pattern::Amg2013, 4).runs(6)).unwrap();
        let ranking = analyze(&r, &RootCauseConfig::default());
        let table = ranking_table(&ranking, 2);
        assert!(table.lines().count() <= 3);
        assert!(table.contains("rel.freq"));
    }
}
