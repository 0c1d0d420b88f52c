//! # anacin-kernels
//!
//! Graph kernels and kernel distances over event graphs — the measurement
//! core of the ANACIN-X methodology. A kernel distance between the event
//! graphs of two runs of the same program is the paper's scalar proxy for
//! the amount of communication non-determinism between them.
//!
//! Implemented kernels (all with explicit feature maps):
//!
//! * [`wl::WlKernel`] — Weisfeiler–Lehman subtree (the ANACIN-X default);
//! * [`histogram::VertexHistogramKernel`], [`histogram::EdgeHistogramKernel`]
//!   — cheap baselines, blind to pure match reordering (ablation);
//! * [`shortest_path::ShortestPathKernel`] — bounded-horizon SP kernel;
//! * [`graphlet::GraphletKernel`] — label-free sampled 3-graphlets.
//!
//! [`matrix::gram_matrix`] computes kernel matrices over run samples in
//! parallel; [`distance::kernel_distance`] turns kernel values into RKHS
//! distances.
//!
//! ```
//! use anacin_mpisim::prelude::*;
//! use anacin_event_graph::EventGraph;
//! use anacin_kernels::prelude::*;
//!
//! // Two runs of a 4-rank message race at 100% non-determinism.
//! let graphs: Vec<EventGraph> = (0..2).map(|seed| {
//!     let mut b = ProgramBuilder::new(4);
//!     for r in 1..4 { b.rank(Rank(r)).send(Rank(0), Tag(0), 1); }
//!     for _ in 1..4 { b.rank(Rank(0)).recv_any(TagSpec::Any); }
//!     let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap();
//!     EventGraph::from_trace(&t)
//! }).collect();
//!
//! let m = gram_matrix(&WlKernel::default(), &graphs, 2);
//! let d = m.distance(0, 1);
//! assert!(d >= 0.0); // 0 iff the two runs matched messages identically
//! ```

#![warn(missing_docs)]
// Outputs are a pure function of their inputs: see the workspace's clippy.toml.
#![deny(clippy::disallowed_methods)]

pub mod artifact;
pub mod distance;
pub mod embed;
pub mod feature;
pub mod graphlet;
pub mod histogram;
pub mod kernel;
pub mod matrix;
pub mod shortest_path;
pub mod wl;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::distance::{distance, kernel_distance, normalized_kernel};
    pub use crate::embed::{embedded_distance, mds, mds_from_distances, Embedding};
    pub use crate::feature::{DotKind, SparseFeatures};
    pub use crate::graphlet::GraphletKernel;
    pub use crate::histogram::{EdgeHistogramKernel, VertexHistogramKernel};
    pub use crate::kernel::GraphKernel;
    pub use crate::matrix::{
        gram_append, gram_from_features_with_metrics, gram_matrix, parallel_features, KernelMatrix,
        LABEL_MAJOR_MIN_RUNS,
    };
    pub use crate::shortest_path::ShortestPathKernel;
    pub use crate::wl::WlKernel;
}

pub use distance::kernel_distance;
pub use kernel::GraphKernel;
pub use matrix::{gram_matrix, KernelMatrix};
pub use wl::WlKernel;
