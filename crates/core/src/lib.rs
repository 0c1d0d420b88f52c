//! # anacin-core
//!
//! The ANACIN-X analysis pipeline — the paper's primary contribution,
//! assembled from the substrate crates:
//!
//! 1. **Campaigns** ([`campaign`]): run a mini-application many times (in
//!    parallel, seeded) and build the event graph of every run.
//! 2. **Measurement** ([`measure`]): the pairwise kernel-distance sample
//!    over the runs is the measured amount of non-determinism.
//! 3. **Sweeps** ([`sweep`]): vary ND%, process count, or iteration count
//!    and measure at each setting — the paper's Figures 5, 6 and 7.
//! 4. **Root-cause analysis** ([`root_cause`]): localise the call paths
//!    active in the most-divergent logical-time windows — Figure 8.
//!
//! ```
//! use anacin_core::prelude::*;
//! use anacin_miniapps::Pattern;
//!
//! // Measure the non-determinism of an 8-process message race at 100% ND.
//! let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
//! let result = run_campaign(&cfg).unwrap();
//! assert!(result.mean_distance() > 0.0);
//!
//! // And at 0% the same program is perfectly deterministic.
//! let det = run_campaign(&cfg.clone().nd_percent(0.0)).unwrap();
//! assert_eq!(det.mean_distance(), 0.0);
//! ```

#![warn(missing_docs)]
// Reads clocks to time work, which clippy.toml otherwise disallows.
#![allow(clippy::disallowed_methods)]

pub mod ablation;
pub mod campaign;
pub mod config;
mod engine;
pub mod explore;
pub mod incremental;
pub mod measure;
pub mod report;
pub mod root_cause;
pub mod sweep;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::ablation::{ablate, default_kernels, AblationReport, AblationRow};
    #[doc(hidden)]
    pub use crate::campaign::run_campaign_streaming;
    pub use crate::campaign::{
        run_campaign, run_campaign_append, run_campaign_with, CampaignError, CampaignResult, RunCtx,
    };
    pub use crate::config::{default_threads, CampaignConfig, KernelChoice};
    pub use crate::explore::{
        explore_campaign, explore_fingerprint, ExploreCampaignResult, ExploreCoverage,
    };
    pub use crate::incremental::{
        campaign_fingerprint, features_fingerprint, run_fingerprint, KEY_SCHEMA,
    };
    pub use crate::measure::NdMeasurement;
    pub use crate::report::{
        campaign_label, measurement_json, ranking_table, sweep_table, sweep_text, ExploreSection,
        MeasurementReport, RunWithExploreReport,
    };
    pub use crate::root_cause::{analyze, CallstackRanking, RootCauseConfig};
    pub use crate::sweep::{sweep, Sweep, SweepAxis, SweepMetrics, SweepPoint, SweepPointMetrics};
}

pub use campaign::{run_campaign, run_campaign_with, CampaignError, CampaignResult, RunCtx};
pub use config::{CampaignConfig, KernelChoice};
pub use measure::NdMeasurement;
