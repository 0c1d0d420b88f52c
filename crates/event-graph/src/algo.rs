//! Graph algorithms over event graphs.
//!
//! Event graphs are DAGs by construction (program order and message edges
//! both point forward in causal time). Lamport clocks ([`crate::lamport`])
//! walk the topological order; the edge-kind count is a structural
//! fingerprint for tests and sanity checks.

use crate::graph::{EdgeKind, EventGraph, NodeId};

/// A topological order of the graph (Kahn's algorithm).
///
/// Returns `None` if the graph contains a cycle — which would indicate a
/// corrupted trace, since causality forbids cycles.
pub fn topo_sort(g: &EventGraph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| g.in_edges(NodeId(i as u32)).len() as u32)
        .collect();
    let mut queue: std::collections::VecDeque<NodeId> = (0..n)
        .map(|i| NodeId(i as u32))
        .filter(|id| indeg[id.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for &(to, _) in g.out_edges(id) {
            indeg[to.index()] -= 1;
            if indeg[to.index()] == 0 {
                queue.push_back(to);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// True when the graph is acyclic (every valid event graph is).
pub fn is_dag(g: &EventGraph) -> bool {
    topo_sort(g).is_some()
}

/// Count nodes per edge kind — a cheap structural fingerprint used by
/// tests and sanity checks.
pub fn edge_kind_counts(g: &EventGraph) -> (usize, usize) {
    let mut program = 0;
    let mut message = 0;
    for (_, _, k) in g.edges() {
        match k {
            EdgeKind::Program => program += 1,
            EdgeKind::Message => message += 1,
        }
    }
    (program, message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EventGraph;
    use anacin_mpisim::prelude::*;

    fn pingpong_graph() -> EventGraph {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .send(Rank(1), Tag(0), 8)
            .recv(Rank(1), Tag(1).into());
        b.rank(Rank(1))
            .recv(Rank(0), Tag(0).into())
            .send(Rank(0), Tag(1), 8);
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn event_graphs_are_dags() {
        let g = pingpong_graph();
        assert!(is_dag(&g));
        let order = topo_sort(&g).unwrap();
        assert_eq!(order.len(), g.node_count());
        // Every edge must go forward in the order.
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (a, b, _) in g.edges() {
            assert!(pos[&a] < pos[&b]);
        }
    }

    #[test]
    fn edge_kind_counts_add_up() {
        let g = pingpong_graph();
        let (p, m) = edge_kind_counts(&g);
        assert_eq!(p + m, g.edge_count());
        assert_eq!(m, g.message_edge_count());
        assert_eq!(m, 2);
    }

    #[test]
    fn empty_like_graph_behaviour() {
        // Single rank, no communication: a pure chain.
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(0)).compute(10);
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        let g = EventGraph::from_trace(&t);
        assert_eq!(g.node_count(), 2); // init, finalize
        assert!(is_dag(&g));
        assert_eq!(edge_kind_counts(&g), (1, 0));
    }
}
