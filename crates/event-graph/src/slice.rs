//! Logical-time slicing of event graphs.
//!
//! Root-cause analysis (paper §III-C2) compares *regions* of executions:
//! the event graph is cut into windows of logical time, each window of two
//! runs is compared, and the call paths active in the most-divergent
//! windows are ranked as likely root sources of non-determinism. This
//! module produces those windows.

use crate::graph::{EventGraph, NodeId};
use crate::lamport::lamport_times;

/// One logical-time window of an event graph.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Index of the slice along logical time.
    pub index: usize,
    /// Inclusive lower Lamport bound.
    pub start: u64,
    /// Exclusive upper Lamport bound.
    pub end: u64,
    /// Nodes whose Lamport timestamp falls in `[start, end)`.
    pub nodes: Vec<NodeId>,
}

impl Slice {
    /// Number of nodes in the slice.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the slice holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Partition a graph into exactly `count` slices of equal logical width
/// (the last absorbs any remainder).
///
/// # Panics
/// Panics when `count == 0`.
pub fn slice_into(g: &EventGraph, count: usize) -> Vec<Slice> {
    assert!(count > 0, "slice count must be positive");
    let ts = lamport_times(g);
    let max = ts.iter().copied().max().unwrap_or(0);
    let width = (max / count as u64 + 1).max(1);
    let mut slices: Vec<Slice> = (0..count)
        .map(|i| Slice {
            index: i,
            start: i as u64 * width,
            end: if i + 1 == count {
                u64::MAX
            } else {
                (i as u64 + 1) * width
            },
            nodes: Vec::new(),
        })
        .collect();
    for id in g.node_ids() {
        let s = ((ts[id.index()] / width) as usize).min(count - 1);
        slices[s].nodes.push(id);
    }
    slices
}

/// Partition a graph into exactly `count` windows by *relative program
/// position*: rank `r`'s `i`-th event lands in window
/// `⌊i · count / len(r)⌋`.
///
/// Unlike [`slice_into`], window membership depends only on the program,
/// not on message timing, so two runs of the same program put every node
/// in the same window. Root-cause analysis uses this: per-window
/// differences between runs are then exactly the label differences
/// (which receive matched which sender), with no boundary-jitter noise.
///
/// # Panics
/// Panics when `count == 0`.
pub fn slice_by_position(g: &EventGraph, count: usize) -> Vec<Slice> {
    assert!(count > 0, "slice count must be positive");
    let mut slices: Vec<Slice> = (0..count)
        .map(|i| Slice {
            index: i,
            start: i as u64,
            end: i as u64 + 1,
            nodes: Vec::new(),
        })
        .collect();
    for r in 0..g.world_size() {
        let ids: Vec<NodeId> = g.rank_nodes(anacin_mpisim::types::Rank(r)).collect();
        let len = ids.len().max(1);
        for (i, id) in ids.into_iter().enumerate() {
            let w = (i * count / len).min(count - 1);
            slices[w].nodes.push(id);
        }
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EventGraph;
    use anacin_mpisim::prelude::*;

    fn chain_graph(iters: u32) -> EventGraph {
        // Two ranks ping-ponging `iters` times: a long logical chain.
        let mut b = ProgramBuilder::new(2);
        for _ in 0..iters {
            b.rank(Rank(0))
                .send(Rank(1), Tag(0), 1)
                .recv(Rank(1), Tag(1).into());
            b.rank(Rank(1))
                .recv(Rank(0), Tag(0).into())
                .send(Rank(0), Tag(1), 1);
        }
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn slices_partition_all_nodes() {
        let g = chain_graph(10);
        for count in [1, 2, 5, 100] {
            let slices = slice_into(&g, count);
            let total: usize = slices.iter().map(Slice::len).sum();
            assert_eq!(total, g.node_count(), "count {count}");
            // Nodes appear exactly once.
            let mut seen = vec![false; g.node_count()];
            for s in &slices {
                for id in &s.nodes {
                    assert!(!seen[id.index()]);
                    seen[id.index()] = true;
                }
            }
        }
    }

    #[test]
    fn slice_bounds_respected() {
        let g = chain_graph(8);
        let ts = crate::lamport::lamport_times(&g);
        for s in slice_into(&g, 3) {
            for id in &s.nodes {
                let t = ts[id.index()];
                assert!(t >= s.start && t < s.end);
            }
        }
    }

    #[test]
    fn slice_into_gives_requested_count() {
        let g = chain_graph(12);
        for count in [1, 2, 4, 7] {
            let slices = slice_into(&g, count);
            assert_eq!(slices.len(), count);
            let total: usize = slices.iter().map(Slice::len).sum();
            assert_eq!(total, g.node_count());
        }
    }

    #[test]
    fn position_slices_partition_and_are_run_invariant() {
        use anacin_mpisim::prelude::*;
        let build = |seed: u64| {
            let mut b = ProgramBuilder::new(4);
            for r in 1..4 {
                b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
            }
            for _ in 1..4 {
                b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
            }
            let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            EventGraph::from_trace(&t)
        };
        let g1 = build(1);
        let g2 = build(2);
        for count in [1usize, 3, 8] {
            let s1 = slice_by_position(&g1, count);
            let s2 = slice_by_position(&g2, count);
            let total: usize = s1.iter().map(Slice::len).sum();
            assert_eq!(total, g1.node_count());
            // Identical membership across runs.
            for (a, b) in s1.iter().zip(&s2) {
                assert_eq!(a.nodes, b.nodes, "count={count}");
            }
        }
    }

    #[test]
    fn position_slices_keep_program_order() {
        let g = chain_graph(6);
        let slices = slice_by_position(&g, 4);
        // Within each rank, earlier windows hold earlier events.
        use std::collections::HashMap;
        let mut window_of: HashMap<u32, usize> = HashMap::new();
        for s in &slices {
            for id in &s.nodes {
                window_of.insert(id.0, s.index);
            }
        }
        for r in 0..2u32 {
            let ids: Vec<_> = g.rank_nodes(anacin_mpisim::types::Rank(r)).collect();
            for w in ids.windows(2) {
                assert!(window_of[&w[0].0] <= window_of[&w[1].0]);
            }
        }
    }
}
