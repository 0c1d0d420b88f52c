//! # anacin-bench
//!
//! The performance harness. Two report tiers time the pipeline from its
//! own spans: [`baseline`] (`anacin bench baseline`, every pattern at 32
//! ranks) and [`scale`] (`anacin bench large`, 1024 ranks). [`compare`]
//! is the perf gate (`anacin bench compare PARENT_DIR CHANGE_DIR`): it
//! judges repeated reports of two builds, run in alternating pairs,
//! column by column. The paper's figures live in `anacin-course`
//! (`anacin figure`).

#![warn(missing_docs)]
// Reads clocks to time work, which clippy.toml otherwise disallows.
#![allow(clippy::disallowed_methods)]

pub mod baseline;
pub mod compare;
pub mod scale;

pub use baseline::{
    run_baseline, run_gram_scale, BaselineConfig, BaselineReport, GramScaleReport, GramScaleRow,
    ServeRow, StageTimings,
};
pub use compare::{compare_dirs, ColumnComparison, Comparison};
pub use scale::{
    peak_rss_mib, reset_peak_rss, run_large_baseline, LargeBaselineReport, LargeScaleConfig,
    LargeStageTimings,
};
