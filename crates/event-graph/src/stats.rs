//! Structural statistics of an event graph: node/edge composition, the
//! rank-to-rank traffic matrix, and wildcard exposure — the quick
//! profile an instructor shows before any kernel mathematics.

use crate::graph::{EventGraph, NodeKind};
use anacin_mpisim::types::Rank;
use serde::{Deserialize, Serialize};

/// Sparse rank-to-rank traffic: one `(src, dst, messages)` entry per
/// channel that carried at least one message, sorted by `(src, dst)`.
///
/// The former dense `Vec<Vec<u64>>` cost O(ranks²) memory regardless of
/// how many channels were actually used — 128 MiB of mostly-zero counters
/// at 4096 ranks. Real patterns touch a sparse subset (stencils: ~4·n
/// channels; even all-to-all costs only one entry per *used* channel), so
/// the sparse form is never larger and usually orders of magnitude
/// smaller. [`TrafficMatrix::to_dense`] recovers the dense form for
/// small-scale rendering and equality tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    world_size: u32,
    /// Sorted by `(src, dst)`; every count is nonzero.
    entries: Vec<(u32, u32, u64)>,
}

impl TrafficMatrix {
    /// Count matched messages per channel. Nodes are rank-major, so each
    /// destination's sources are gathered into one reused buffer — peak
    /// transient memory is one rank's receive count, not the whole graph.
    fn of(g: &EventGraph) -> TrafficMatrix {
        let mut entries: Vec<(u32, u32, u64)> = Vec::new();
        let mut srcs: Vec<u32> = Vec::new();
        for d in 0..g.world_size() {
            srcs.clear();
            for id in g.rank_nodes(Rank(d)) {
                if let NodeKind::Recv { src, .. } = g.node(id).kind {
                    srcs.push(src.0);
                }
            }
            srcs.sort_unstable();
            let mut i = 0;
            while i < srcs.len() {
                let s = srcs[i];
                let j = srcs[i..].partition_point(|&x| x == s) + i;
                entries.push((s, d, (j - i) as u64));
                i = j;
            }
        }
        // Entries were appended grouped by destination; re-sort the (far
        // smaller) aggregated list into (src, dst) order.
        entries.sort_unstable();
        TrafficMatrix {
            world_size: g.world_size(),
            entries,
        }
    }

    /// Ranks in the job.
    pub fn world_size(&self) -> u32 {
        self.world_size
    }

    /// Messages matched from `src` to `dst`.
    pub fn get(&self, src: Rank, dst: Rank) -> u64 {
        self.entries
            .binary_search_by_key(&(src.0, dst.0), |&(s, d, _)| (s, d))
            .map(|i| self.entries[i].2)
            .unwrap_or(0)
    }

    /// Iterate nonzero channels as `(src, dst, messages)`, in
    /// `(src, dst)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, Rank, u64)> + '_ {
        self.entries.iter().map(|&(s, d, m)| (Rank(s), Rank(d), m))
    }

    /// Number of channels that carried at least one message.
    pub fn nonzero_channels(&self) -> usize {
        self.entries.len()
    }

    /// Total matched messages.
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, _, m)| m).sum()
    }

    /// Materialise the dense `traffic[src][dst]` form (small worlds only —
    /// this is the representation the sparse form replaced).
    pub fn to_dense(&self) -> Vec<Vec<u64>> {
        let n = self.world_size as usize;
        let mut dense = vec![vec![0u64; n]; n];
        for &(s, d, m) in &self.entries {
            dense[s as usize][d as usize] = m;
        }
        dense
    }
}

/// A structural profile of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Ranks in the job.
    pub world_size: u32,
    /// Total nodes.
    pub nodes: usize,
    /// Send events.
    pub sends: usize,
    /// Receive events.
    pub recvs: usize,
    /// Receives posted with a wildcard.
    pub wildcard_recvs: usize,
    /// Program-order edges.
    pub program_edges: usize,
    /// Message edges.
    pub message_edges: usize,
    /// Messages matched per `(src, dst)` channel, sparse.
    pub traffic: TrafficMatrix,
}

impl GraphStats {
    /// Compute the profile of a graph.
    pub fn of(g: &EventGraph) -> GraphStats {
        let mut sends = 0;
        let mut recvs = 0;
        let mut wildcard_recvs = 0;
        for id in g.node_ids() {
            match g.node(id).kind {
                NodeKind::Send { .. } => sends += 1,
                NodeKind::Recv { wildcard, .. } => {
                    recvs += 1;
                    if wildcard {
                        wildcard_recvs += 1;
                    }
                }
                _ => {}
            }
        }
        let (program_edges, message_edges) = crate::algo::edge_kind_counts(g);
        GraphStats {
            world_size: g.world_size(),
            nodes: g.node_count(),
            sends,
            recvs,
            wildcard_recvs,
            program_edges,
            message_edges,
            traffic: TrafficMatrix::of(g),
        }
    }

    /// Fraction of receives that are wildcards — the program's *race
    /// exposure* (1.0 = every receive can race).
    pub fn wildcard_fraction(&self) -> f64 {
        if self.recvs == 0 {
            0.0
        } else {
            self.wildcard_recvs as f64 / self.recvs as f64
        }
    }

    /// Messages received by `rank` (column sum of the traffic matrix).
    pub fn inbound(&self, rank: Rank) -> u64 {
        self.traffic
            .iter()
            .filter(|&(_, d, _)| d == rank)
            .map(|(_, _, m)| m)
            .sum()
    }

    /// The busiest channel `(src, dst, messages)`. Ties resolve to the
    /// lowest `(src, dst)`, as in the dense row-major scan this replaced.
    pub fn hottest_channel(&self) -> Option<(Rank, Rank, u64)> {
        let mut best: Option<(Rank, Rank, u64)> = None;
        for (s, d, m) in self.traffic.iter() {
            if best.map(|(_, _, bm)| m > bm).unwrap_or(true) {
                best = Some((s, d, m));
            }
        }
        best
    }

    /// Render a compact text profile. Small worlds get the full dense
    /// matrix; past 64 ranks (where a dense table would be unreadable and
    /// quadratic in size) the nonzero channels are summarised instead.
    pub fn render(&self) -> String {
        let mut s = format!(
            "ranks={} nodes={} sends={} recvs={} (wildcard {:.0}%) edges: {} program + {} message\n",
            self.world_size,
            self.nodes,
            self.sends,
            self.recvs,
            self.wildcard_fraction() * 100.0,
            self.program_edges,
            self.message_edges
        );
        if self.world_size <= 64 {
            s.push_str("traffic (rows = sender, cols = receiver):\n");
            s.push_str("     ");
            for d in 0..self.world_size {
                s.push_str(&format!("{d:>5}"));
            }
            s.push('\n');
            for (r, row) in self.traffic.to_dense().iter().enumerate() {
                s.push_str(&format!("{r:>5}"));
                for &m in row {
                    s.push_str(&format!("{m:>5}"));
                }
                s.push('\n');
            }
        } else {
            s.push_str(&format!(
                "traffic: {} message(s) over {} active channel(s)\n",
                self.traffic.total(),
                self.traffic.nonzero_channels()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_mpisim::prelude::*;

    fn race_stats() -> GraphStats {
        let mut b = ProgramBuilder::new(4);
        for r in 1..4 {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..4 {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        GraphStats::of(&EventGraph::from_trace(&t))
    }

    #[test]
    fn counts_are_consistent() {
        let s = race_stats();
        assert_eq!(s.world_size, 4);
        assert_eq!(s.sends, 3);
        assert_eq!(s.recvs, 3);
        assert_eq!(s.wildcard_recvs, 3);
        assert_eq!(s.wildcard_fraction(), 1.0);
        assert_eq!(s.message_edges, 3);
        assert_eq!(s.nodes, 14);
    }

    #[test]
    fn traffic_matrix_rows_and_columns() {
        let s = race_stats();
        assert_eq!(s.inbound(Rank(0)), 3);
        for r in 1..4 {
            assert_eq!(s.inbound(Rank(r)), 0);
        }
        let (_, dst, m) = s.hottest_channel().unwrap();
        assert_eq!(dst, Rank(0));
        assert_eq!(m, 1);
    }

    #[test]
    fn render_contains_matrix() {
        let s = race_stats();
        let text = s.render();
        assert!(text.contains("wildcard 100%"));
        assert!(text.contains("traffic"));
        assert_eq!(text.lines().count(), 2 + 1 + 4);
    }

    #[test]
    fn sparse_traffic_equals_dense_accumulation() {
        // Equality oracle: accumulate the dense matrix the way the old
        // code did (one cell increment per receive node) and compare to
        // the sparse form, cell for cell, plus the derived column sums.
        let n = 6u32;
        let mut b = ProgramBuilder::new(n);
        for r in 0..n {
            let mut rb = b.rank(Rank(r));
            let mut reqs = Vec::new();
            for _ in 0..n - 1 {
                reqs.push(rb.irecv_any(TagSpec::Any));
            }
            for peer in 0..n {
                if peer != r {
                    reqs.push(rb.isend(Rank(peer), Tag(0), 1));
                }
            }
            rb.waitall(reqs);
        }
        let p = b.build();
        for seed in 0..4 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            let g = EventGraph::from_trace(&t);
            let s = GraphStats::of(&g);
            let mut dense = vec![vec![0u64; n as usize]; n as usize];
            for id in g.node_ids() {
                if let NodeKind::Recv { src, .. } = g.node(id).kind {
                    dense[src.index()][g.node(id).rank.index()] += 1;
                }
            }
            assert_eq!(s.traffic.to_dense(), dense, "seed {seed}");
            for r in 0..n {
                let col: u64 = dense.iter().map(|row| row[r as usize]).sum();
                assert_eq!(s.inbound(Rank(r)), col, "seed {seed} rank {r}");
                for d in 0..n {
                    assert_eq!(
                        s.traffic.get(Rank(r), Rank(d)),
                        dense[r as usize][d as usize]
                    );
                }
            }
            assert_eq!(s.traffic.total(), s.message_edges as u64);
        }
    }

    #[test]
    fn large_world_render_is_sparse_and_small() {
        // 128 ranks in a ring: the dense table would be 128 rows; the
        // sparse summary is one line.
        let n = 128u32;
        let mut b = ProgramBuilder::new(n);
        for r in 0..n {
            let next = Rank((r + 1) % n);
            let mut rb = b.rank(Rank(r));
            let recv = rb.irecv_any(TagSpec::Any);
            let send = rb.isend(next, Tag(0), 1);
            rb.waitall(vec![recv, send]);
        }
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        let s = GraphStats::of(&EventGraph::from_trace(&t));
        assert_eq!(s.traffic.nonzero_channels(), n as usize);
        assert_eq!(s.traffic.total(), n as u64);
        let text = s.render();
        assert!(text.contains("128 active channel(s)"));
        assert!(text.lines().count() <= 3);
    }

    #[test]
    fn no_communication_graph() {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).compute(5);
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        let s = GraphStats::of(&EventGraph::from_trace(&t));
        assert_eq!(s.wildcard_fraction(), 0.0);
        assert!(s.hottest_channel().is_none());
        assert_eq!(s.message_edges, 0);
    }
}
