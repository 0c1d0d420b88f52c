//! Multi-tenant campaign service: a long-running daemon that accepts
//! campaign, sweep, and explore jobs from many concurrent clients and
//! runs them against one shared warm artifact store.
//!
//! The pieces, bottom-up:
//!
//! - [`proto`] — the versioned frame vocabulary ([`proto::Frame`],
//!   [`proto::JobSpec`]) both sides speak.
//! - [`frame`] — the length-prefixed JSON transport those frames ride
//!   on, hardened against truncation and hostile lengths.
//! - `jobs` (private) — the daemon's job table: every admitted job,
//!   queued or running, under one lock, with round-robin per-client
//!   fairness and explicit backpressure.
//! - [`server`] — the daemon: connection handling, worker pool, shared
//!   store, streaming progress, graceful drain.
//! - [`client`] — a small synchronous client used by `anacin client`
//!   and the tests.
//! - [`bench`](mod@bench) — submit→result latency measurement for
//!   `anacin bench baseline`.
//!
//! The load-bearing invariant: a job's `Result` payload is
//! byte-identical to the stdout of the equivalent local CLI invocation
//! (`anacin run --json`, `anacin sweep`), because both paths call the
//! same formatting helpers in `anacin_core::report`. The service adds
//! scheduling and sharing, never a second output format.

#![warn(missing_docs)]
// Reads clocks to time work, which clippy.toml otherwise disallows.
#![allow(clippy::disallowed_methods)]

pub mod bench;
pub mod client;
pub mod frame;
mod jobs;
pub mod proto;
pub mod server;

pub use client::Client;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use proto::{Frame, JobSpec, PROTOCOL_SCHEMA};
pub use server::{Server, ServerConfig, ServerHandle};
