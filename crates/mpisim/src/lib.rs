//! # anacin-mpisim
//!
//! A discrete-event simulator of MPI point-to-point semantics, built as the
//! execution substrate for the `anacin-rs` reproduction of ANACIN-X (Bell
//! et al., *A Research-Based Course Module to Study Non-determinism in High
//! Performance Applications*, IPPS 2022).
//!
//! The paper's experiments need exactly three things from an MPI platform:
//!
//! 1. **Standard matching semantics** — wildcard receives
//!    (`MPI_ANY_SOURCE`/`MPI_ANY_TAG`) match messages in arrival order,
//!    specific receives match their channel in send order (non-overtaking).
//! 2. **A non-determinism knob** — "the percentage of messages that can
//!    suffer from congestion or contention delays" (paper, §III-C1); here
//!    [`network::NetworkConfig::nd_fraction`].
//! 3. **Traces with call paths** — every event is attributed to the call
//!    path that issued it, enabling root-cause analysis.
//!
//! The simulator is deterministic for a given seed: a *run* of an
//! application is `simulate(program, config-with-seed)`. Sampling many
//! seeds reproduces the paper's "run the application many times" campaigns
//! on a laptop, with perfect reproducibility.
//!
//! ## Example
//!
//! ```
//! use anacin_mpisim::prelude::*;
//!
//! // A 4-process message race: ranks 1..3 all send to rank 0, which posts
//! // wildcard receives — the paper's Figure 2 pattern.
//! let mut b = ProgramBuilder::new(4);
//! for r in 1..4 {
//!     b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
//! }
//! for _ in 1..4 {
//!     b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
//! }
//! let program = b.build();
//!
//! // Deterministic network: every run identical.
//! let t = simulate(&program, &SimConfig::deterministic()).unwrap();
//! assert_eq!(t.meta.messages, 3);
//!
//! // 100% non-determinism: match order varies across seeds.
//! let t1 = simulate(&program, &SimConfig::with_nd_percent(100.0, 1)).unwrap();
//! let t2 = simulate(&program, &SimConfig::with_nd_percent(100.0, 1)).unwrap();
//! assert_eq!(t1.match_order(Rank(0)), t2.match_order(Rank(0))); // same seed
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod collectives;
pub mod counters;
pub mod engine;
pub mod explore;
pub mod matching;
pub mod network;
pub mod ops;
pub mod program;
pub mod replay;
pub mod stack;
pub mod timeline;
pub mod trace;
pub mod types;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::counters::SimCounters;
    pub use crate::engine::{simulate, simulate_counted, simulate_replay, SimConfig, SimError};
    pub use crate::explore::{
        explore, explore_observed, ExploreConfig, ExploreReport, ExploreStats, ScheduleId,
    };
    pub use crate::network::{DelayDistribution, NetworkConfig};
    pub use crate::program::{BalanceError, Program, ProgramBuilder, RequestError};
    pub use crate::replay::MatchRecord;
    pub use crate::stack::{CallStack, CallStackId, CallStackTable};
    pub use crate::timeline::{Activity, Segment, Timeline};
    pub use crate::trace::{EventId, EventKind, Trace, TraceEvent};
    pub use crate::types::{Rank, SimTime, SrcSpec, Tag, TagSpec};
}

pub use counters::SimCounters;
pub use engine::{simulate, simulate_counted, simulate_replay, SimConfig, SimError};
pub use program::{Program, ProgramBuilder};
pub use trace::Trace;
