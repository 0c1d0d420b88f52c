//! # anacin-event-graph
//!
//! Event-graph models of message-passing executions, following the paper's
//! definition (§II-A): "nodes of an event graph correspond to MPI function
//! calls and edges correspond to on-process or inter-process
//! communication", with time encoded logically.
//!
//! The crate provides:
//!
//! * [`graph::EventGraph`] — the graph itself, built from an
//!   `anacin_mpisim::Trace`;
//! * [`lamport`] — logical clocks, `slice` — logical-time windows used by
//!   root-cause analysis;
//! * [`label`] — node-label policies consumed by `anacin-kernels`;
//! * [`algo`] — topological order, edge-kind counts;
//! * [`export`] — DOT / GraphML / JSON.
//!
//! ```
//! use anacin_mpisim::prelude::*;
//! use anacin_event_graph::graph::EventGraph;
//!
//! let mut b = ProgramBuilder::new(2);
//! b.rank(Rank(0)).send(Rank(1), Tag(0), 8);
//! b.rank(Rank(1)).recv_any(TagSpec::Any);
//! let trace = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
//! let g = EventGraph::from_trace(&trace);
//! assert_eq!(g.node_count(), 6);
//! assert_eq!(g.message_edge_count(), 1);
//! ```

#![warn(missing_docs)]
// Outputs are a pure function of their inputs: see the workspace's clippy.toml.
#![deny(clippy::disallowed_methods)]

pub mod algo;
pub mod artifact;
pub mod diff;
pub mod explain;
pub mod export;
pub mod graph;
pub mod label;
pub mod lamport;
pub mod slice;
pub mod stats;

pub use graph::{EdgeKind, EventGraph, Node, NodeId, NodeKind};
pub use label::LabelPolicy;
