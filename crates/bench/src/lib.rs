//! # anacin-bench
//!
//! The benchmark and reproduction harness: [`figures`] regenerates every
//! table and figure of the paper (with shape checks), and the `benches/`
//! directory holds the Criterion performance benchmarks. The CLI prints
//! one artifact with `anacin figure <id> --out-dir figures` (ids in
//! [`ALL_IDS`]), writing its SVG there and exiting non-zero when a shape
//! check fails.

#![warn(missing_docs)]

pub mod baseline;
pub mod figures;
pub mod scale;
pub mod trend;

pub use baseline::{
    run_baseline, run_gram_scale, BaselineConfig, BaselineReport, GramScaleReport, GramScaleRow,
    ServeRow, StageTimings,
};
pub use figures::{by_id, FigureOutput, Scale, ALL_IDS};
pub use scale::{
    peak_rss_mib, reset_peak_rss, run_large_baseline, LargeBaselineReport, LargeScaleConfig,
    LargeStageTimings,
};
pub use trend::{
    analyze_dir, analyze_files, render_trend_table, TrendConfig, TrendPoint, TrendReport,
    TrendSeries,
};
