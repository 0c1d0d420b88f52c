//! # anacin-stats
//!
//! Statistics for non-determinism measurement campaigns: descriptive
//! summaries, quantiles, Gaussian KDE and violin summaries (the paper's
//! figures 5–7 are violins over kernel-distance samples), bootstrap
//! confidence intervals, Pearson/Spearman correlation (the Figure-7
//! monotonicity check) and the Mann–Whitney U test (backing "32 processes >
//! 16 processes" with a p-value).
//!
//! ```
//! use anacin_stats::prelude::*;
//!
//! let sample = [1.0, 2.0, 2.5, 3.0, 10.0];
//! let s = Summary::of(&sample).unwrap();
//! assert_eq!(s.n, 5);
//! let v = ViolinSummary::from_sample("demo", &sample).unwrap();
//! assert!(v.peak_density() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod bootstrap;
pub mod correlation;
pub mod describe;
pub mod effect;
pub mod kde;
pub mod mwu;
pub mod quantile;
pub mod violin;

/// Number of NaN values in a sample.
///
/// The sorting helpers in this crate order NaNs after every finite value
/// (`f64::total_cmp`) instead of panicking; pipelines that want to *report*
/// contaminated samples (e.g. the `stats/nan_distances` campaign metric)
/// screen with this first.
pub fn nan_count(sample: &[f64]) -> usize {
    sample.iter().filter(|x| x.is_nan()).count()
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bootstrap::{bootstrap_ci, mean_ci, ConfidenceInterval};
    pub use crate::correlation::{pearson, ranks, spearman};
    pub use crate::describe::Summary;
    pub use crate::effect::kendall_tau;
    pub use crate::kde::{kde_curve, silverman_bandwidth, KdeCurve};
    pub use crate::mwu::{mann_whitney_u, normal_cdf, MwuResult};
    pub use crate::nan_count;
    pub use crate::quantile::{quantile, quantile_sorted};
    pub use crate::violin::ViolinSummary;
}

pub use describe::Summary;
pub use violin::ViolinSummary;
