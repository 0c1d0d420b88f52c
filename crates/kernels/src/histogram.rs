//! Vertex- and edge-histogram kernels.
//!
//! The cheapest graph kernels: φ(G) counts node labels (vertex histogram)
//! or `(source label, edge kind, target label)` triples (edge histogram).
//! They serve as the ablation baselines: histograms are multiset-blind to
//! *where* a label occurs, so they under-report non-determinism that only
//! reorders communication — the WL kernel's advantage, demonstrated by
//! `anacin ablation` (EXPERIMENTS.md, "Kernel ablation").

use crate::feature::SparseFeatures;
use crate::kernel::GraphKernel;
use anacin_event_graph::label::{fnv1a_words, initial_labels, LabelPolicy};
use anacin_event_graph::{EdgeKind, EventGraph};

/// Vertex histogram kernel: counts of initial node labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VertexHistogramKernel {
    /// Node-label policy.
    pub policy: LabelPolicy,
}

impl GraphKernel for VertexHistogramKernel {
    fn name(&self) -> String {
        format!("vertex-hist({:?})", self.policy)
    }

    fn features(&self, g: &EventGraph) -> SparseFeatures {
        let mut f = SparseFeatures::new();
        for l in initial_labels(g, self.policy) {
            f.bump(l);
        }
        f
    }
}

/// Edge histogram kernel: counts of `(label(u), kind, label(v))` triples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeHistogramKernel {
    /// Node-label policy.
    pub policy: LabelPolicy,
}

impl GraphKernel for EdgeHistogramKernel {
    fn name(&self) -> String {
        format!("edge-hist({:?})", self.policy)
    }

    fn features(&self, g: &EventGraph) -> SparseFeatures {
        let labels = initial_labels(g, self.policy);
        let mut f = SparseFeatures::new();
        for (a, b, kind) in g.edges() {
            let k = match kind {
                EdgeKind::Program => 1u64,
                EdgeKind::Message => 2u64,
            };
            f.bump(fnv1a_words(&[labels[a.index()], k, labels[b.index()]]));
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::kernel_distance;
    use anacin_mpisim::prelude::*;

    fn race_graph(n: u32, nd: f64, seed: u64) -> EventGraph {
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
    fn vertex_histogram_counts_nodes() {
        let g = race_graph(4, 0.0, 0);
        let k = VertexHistogramKernel::default();
        let f = k.features(&g);
        let total: f64 = f.iter().map(|(_, w)| w).sum();
        assert_eq!(total, g.node_count() as f64);
    }

    #[test]
    fn edge_histogram_counts_edges() {
        let g = race_graph(4, 0.0, 0);
        let k = EdgeHistogramKernel::default();
        let f = k.features(&g);
        let total: f64 = f.iter().map(|(_, w)| w).sum();
        assert_eq!(total, g.edge_count() as f64);
    }

    #[test]
    fn vertex_histogram_is_blind_to_match_reordering() {
        // The defining limitation: receives matched {1,2,3} in both runs,
        // just in different positions — the multiset is identical.
        let base = race_graph(6, 100.0, 0);
        let mut other = None;
        for seed in 1..60 {
            let g = race_graph(6, 100.0, seed);
            if g.match_order(Rank(0)) != base.match_order(Rank(0)) {
                other = Some(g);
                break;
            }
        }
        let other = other.expect("expected a reordering seed");
        let k = VertexHistogramKernel::default();
        let d = kernel_distance(
            k.value(&base, &base),
            k.value(&other, &other),
            k.value(&base, &other),
        );
        assert!(d.abs() < 1e-9, "vertex histogram saw a reordering: {d}");
    }

    #[test]
    fn kernels_are_symmetric() {
        let g1 = race_graph(5, 100.0, 1);
        let g2 = race_graph(5, 100.0, 2);
        let vk = VertexHistogramKernel::default();
        let ek = EdgeHistogramKernel::default();
        assert_eq!(vk.value(&g1, &g2), vk.value(&g2, &g1));
        assert_eq!(ek.value(&g1, &g2), ek.value(&g2, &g1));
    }

    #[test]
    fn names_mention_policy() {
        assert!(VertexHistogramKernel::default()
            .name()
            .contains("TypeAndPeer"));
        assert!(EdgeHistogramKernel::default()
            .name()
            .starts_with("edge-hist"));
    }
}
