//! # anacin-x
//!
//! A Rust reproduction of **ANACIN-X** — the toolkit behind *"A
//! Research-Based Course Module to Study Non-determinism in High
//! Performance Applications"* (Bell et al., IPPS 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mpisim`] — discrete-event MPI point-to-point simulator with a
//!   non-determinism injection knob (the execution substrate);
//! * [`event_graph`] — event-graph models of executions;
//! * [`kernels`] — graph kernels and kernel distances (the ND proxy
//!   metric);
//! * [`miniapps`] — the packaged communication patterns (message race,
//!   AMG 2013, unstructured mesh, collectives);
//! * [`stats`] — violins, KDE, bootstrap, rank tests;
//! * [`core`] — campaigns, sweeps, and root-cause analysis;
//! * [`viz`] — ASCII and SVG figure renderers;
//! * [`course`] — the course module itself (Tables I–II, Figures 1–8,
//!   and Use Cases 1–3 as executable lessons that run those figures).
//!
//! ## Quickstart
//!
//! ```
//! use anacin_x::core::prelude::*;
//! use anacin_x::miniapps::Pattern;
//!
//! // "Run the same application many times to collect a sample of
//! //  non-deterministic executions" (paper §III-B), then measure it.
//! let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
//! let result = run_campaign(&cfg).unwrap();
//! println!("measured non-determinism: {:.3}", result.mean_distance());
//! assert!(result.mean_distance() > 0.0);
//! ```

#![warn(missing_docs)]

pub use anacin_core as core;
pub use anacin_course as course;
pub use anacin_event_graph as event_graph;
pub use anacin_kernels as kernels;
pub use anacin_miniapps as miniapps;
pub use anacin_mpisim as mpisim;
pub use anacin_stats as stats;
pub use anacin_viz as viz;

/// One-stop prelude for examples and downstream experiments.
pub mod prelude {
    pub use anacin_core::prelude::*;
    pub use anacin_course::prelude::*;
    pub use anacin_event_graph::{EventGraph, LabelPolicy};
    pub use anacin_kernels::prelude::*;
    pub use anacin_miniapps::prelude::*;
    pub use anacin_mpisim::prelude::*;
    pub use anacin_stats::prelude::*;
    pub use anacin_viz::{ascii, svg};
}
