//! Lamport logical clocks over event graphs.
//!
//! The paper's event graphs "encode time by treating on-process
//! communication as logically ordered (i.e., logical time)". The Lamport
//! timestamp of a node is `1 + max(timestamps of its predecessors)`; it is
//! the canonical logical time used by the slicing machinery
//! ([`crate::slice`]) that localises *where* in an execution runs diverge.

use crate::algo::topo_sort;
use crate::graph::{EventGraph, NodeId};

/// Lamport timestamps for every node, indexable by `NodeId::index`.
///
/// Sources (each rank's `Init`) have timestamp 0.
pub fn lamport_times(g: &EventGraph) -> Vec<u64> {
    let order = topo_sort(g).expect("event graphs are DAGs");
    let mut ts = vec![0u64; g.node_count()];
    for &u in &order {
        for &(v, _) in g.out_edges(u) {
            ts[v.index()] = ts[v.index()].max(ts[u.index()] + 1);
        }
    }
    ts
}

/// Check the defining Lamport property: every edge strictly increases the
/// timestamp. Returns the number of edges checked.
pub fn verify_lamport(g: &EventGraph, ts: &[u64]) -> Result<usize, (NodeId, NodeId)> {
    let mut checked = 0;
    for (a, b, _) in g.edges() {
        if ts[a.index()] >= ts[b.index()] {
            return Err((a, b));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EventGraph;
    use anacin_mpisim::prelude::*;

    fn race(n: u32, nd: f64, seed: u64) -> EventGraph {
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn inits_are_sources_with_time_zero() {
        let g = race(4, 0.0, 0);
        let ts = lamport_times(&g);
        for r in 0..4 {
            assert_eq!(ts[g.id_at(Rank(r), 0).index()], 0);
        }
    }

    #[test]
    fn edges_strictly_increase() {
        for seed in 0..5 {
            let g = race(6, 100.0, seed);
            let ts = lamport_times(&g);
            let checked = verify_lamport(&g, &ts).unwrap();
            assert_eq!(checked, g.edge_count());
        }
    }

    #[test]
    fn recv_after_send_in_logical_time() {
        let g = race(4, 0.0, 0);
        let ts = lamport_times(&g);
        for (a, b, k) in g.edges() {
            if k == crate::graph::EdgeKind::Message {
                assert!(ts[a.index()] < ts[b.index()]);
            }
        }
    }

    #[test]
    fn verify_detects_violations() {
        let g = race(3, 0.0, 0);
        let mut ts = lamport_times(&g);
        // Corrupt one timestamp.
        let victim = g.id_at(Rank(0), 1);
        ts[victim.index()] = 0;
        assert!(verify_lamport(&g, &ts).is_err());
    }
}
