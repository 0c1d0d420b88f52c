//! # anacin-bench
//!
//! The benchmark and reproduction harness: [`figures`] regenerates every
//! table and figure of the paper (with shape checks). The CLI prints
//! one artifact with `anacin figure <id> --out-dir figures` (ids in
//! [`ALL_IDS`]), writing its SVG there and exiting non-zero when a shape
//! check fails.
//!
//! Two report tiers time the pipeline from its own spans: [`baseline`]
//! (`anacin bench baseline`, every pattern at 32 ranks) and [`scale`]
//! (`anacin bench large`, 1024 ranks). [`compare`] is the perf gate
//! (`anacin bench compare PARENT_DIR CHANGE_DIR`): it judges repeated
//! reports of two builds, run in alternating pairs, column by column.

#![warn(missing_docs)]
// Reads clocks to time work, which clippy.toml otherwise disallows.
#![allow(clippy::disallowed_methods)]

pub mod baseline;
pub mod compare;
pub mod figures;
pub mod scale;

pub use baseline::{
    run_baseline, run_gram_scale, BaselineConfig, BaselineReport, GramScaleReport, GramScaleRow,
    ServeRow, StageTimings,
};
pub use compare::{compare_dirs, ColumnComparison, Comparison};
pub use figures::{by_id, FigureOutput, Scale, ALL_IDS};
pub use scale::{
    peak_rss_mib, reset_peak_rss, run_large_baseline, LargeBaselineReport, LargeScaleConfig,
    LargeStageTimings,
};
