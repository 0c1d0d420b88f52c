//! # anacin-miniapps
//!
//! The mini-application communication patterns packaged with the toolkit,
//! re-implemented from the paper's descriptions (§II-B):
//!
//! * [`message_race`] — "multiple messages are being sent to the same
//!   process, and the order they will arrive in is unknown";
//! * [`amg2013`] — "each process … send\[s\] a message to all other
//!   processes … twice" per iteration, with hypre-style call paths;
//! * [`unstructured_mesh`] — "randomiz\[es\] which processes are allowed to
//!   communicate with each other" (Chatterbug-style halo exchange);
//! * [`collectives_app`] — extension exercising the point-to-point
//!   collectives (the paper's stated future work);
//! * [`stencil2d`] — deterministic named-matching halo exchange, the
//!   negative control (zero non-determinism at any ND%).
//!
//! Each pattern is a pure function `MiniAppConfig → Program`; all
//! run-to-run variation comes from the simulator seed, never the builder.
//!
//! ```
//! use anacin_miniapps::prelude::*;
//! use anacin_mpisim::prelude::*;
//!
//! let program = Pattern::Amg2013.build(&MiniAppConfig::with_procs(4));
//! let trace = simulate(&program, &SimConfig::with_nd_percent(100.0, 1)).unwrap();
//! assert_eq!(trace.meta.unmatched_messages, 0);
//! ```

#![warn(missing_docs)]
// Outputs are a pure function of their inputs: see the workspace's clippy.toml.
#![deny(clippy::disallowed_methods)]

pub mod amg2013;
pub mod collectives_app;
pub mod config;
pub mod message_race;
pub mod pattern;
pub mod stencil2d;
pub mod unstructured_mesh;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::MiniAppConfig;
    pub use crate::pattern::Pattern;
    pub use crate::unstructured_mesh::MeshTopology;
}

pub use config::MiniAppConfig;
pub use pattern::Pattern;
