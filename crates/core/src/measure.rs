//! Non-determinism measurements: typed results around the kernel-distance
//! sample.

use crate::campaign::CampaignResult;
use anacin_stats::prelude::*;
use serde::{Deserialize, Serialize};

/// The measured amount of non-determinism at one setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NdMeasurement {
    /// Label of the setting (e.g. "32 procs" or "nd=40%").
    pub label: String,
    /// All pairwise kernel distances between the runs.
    pub distances: Vec<f64>,
    /// Summary statistics of the distances.
    pub summary: Summary,
}

impl NdMeasurement {
    /// Build from a finished campaign.
    pub fn from_campaign(label: impl Into<String>, result: &CampaignResult) -> NdMeasurement {
        Self::from_matrix(label, &result.matrix)
    }

    /// Build straight from a kernel matrix, as sweeps and `anacin run
    /// --json` do. Given the same matrix, the measurement is identical to
    /// [`Self::from_campaign`].
    pub fn from_matrix(
        label: impl Into<String>,
        matrix: &anacin_kernels::matrix::KernelMatrix,
    ) -> NdMeasurement {
        let distances = matrix.pairwise_distances();
        let summary = Summary::of(&distances).unwrap_or(Summary {
            n: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
        });
        NdMeasurement {
            label: label.into(),
            distances,
            summary,
        }
    }

    /// Measure against a *reference run* instead of all pairs: distances
    /// from run `reference` to every other run. ANACIN-X supports both
    /// views; the reference view is natural when one run is the blessed
    /// baseline (e.g. the recorded run in a replay workflow).
    ///
    /// # Panics
    /// Panics when `reference` is out of range.
    pub fn from_reference(
        label: impl Into<String>,
        result: &CampaignResult,
        reference: usize,
    ) -> NdMeasurement {
        assert!(reference < result.matrix.len(), "reference out of range");
        let distances = result.matrix.distances_from(reference);
        let summary = Summary::of(&distances).unwrap_or(Summary {
            n: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
        });
        NdMeasurement {
            label: label.into(),
            distances,
            summary,
        }
    }

    /// The violin summary used by renderers.
    pub fn violin(&self) -> Option<ViolinSummary> {
        ViolinSummary::from_sample(self.label.clone(), &self.distances)
    }

    /// Mean pairwise distance (the scalar the paper plots on Y axes).
    pub fn mean(&self) -> f64 {
        self.summary.mean
    }

    /// Is this setting significantly more non-deterministic than `other`?
    /// One-sided Mann–Whitney U at the given alpha.
    pub fn significantly_greater_than(&self, other: &NdMeasurement, alpha: f64) -> bool {
        if self.distances.is_empty() || other.distances.is_empty() {
            return false;
        }
        mann_whitney_u(&self.distances, &other.distances).p_greater < alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::config::CampaignConfig;
    use anacin_miniapps::Pattern;

    #[test]
    fn measurement_from_campaign() {
        let r = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 8).runs(8)).unwrap();
        let m = NdMeasurement::from_campaign("race", &r);
        assert_eq!(m.label, "race");
        assert_eq!(m.distances.len(), 28);
        assert_eq!(m.summary.n, 28);
        assert!(m.mean() > 0.0);
        assert!(m.violin().is_some());
    }

    #[test]
    fn reference_measurement() {
        let r = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 8).runs(8)).unwrap();
        let m = NdMeasurement::from_reference("vs run 0", &r, 0);
        assert_eq!(m.distances.len(), 7);
        assert!(m.mean() > 0.0);
        // Reference distances are a subset-like view; means differ from
        // the all-pairs view in general but stay the same order of
        // magnitude.
        let all = NdMeasurement::from_campaign("all pairs", &r);
        assert!(m.mean() < 4.0 * all.mean());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reference_out_of_range_panics() {
        let r = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 4).runs(3)).unwrap();
        NdMeasurement::from_reference("x", &r, 99);
    }

    #[test]
    fn high_nd_beats_zero_nd() {
        let hi = NdMeasurement::from_campaign(
            "100%",
            &run_campaign(&CampaignConfig::new(Pattern::MessageRace, 8).runs(10)).unwrap(),
        );
        let lo = NdMeasurement::from_campaign(
            "0%",
            &run_campaign(
                &CampaignConfig::new(Pattern::MessageRace, 8)
                    .runs(10)
                    .nd_percent(0.0),
            )
            .unwrap(),
        );
        assert!(hi.significantly_greater_than(&lo, 0.01));
        assert!(!lo.significantly_greater_than(&hi, 0.5));
    }
}
