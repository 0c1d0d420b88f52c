//! Kernel distances.
//!
//! The paper (§II-A): "we apply the kernel distance to event graphs, which
//! is calculated directly from a kernel and measures the difference
//! between the graphs … and thus serves as a proxy metric for
//! non-determinism." For a kernel `k` with feature map φ, the distance is
//! the RKHS norm `‖φ(G) − φ(H)‖ = √(k(G,G) + k(H,H) − 2·k(G,H))`.

use crate::kernel::GraphKernel;
use anacin_event_graph::EventGraph;

/// The RKHS distance from the three kernel evaluations.
///
/// Clamps tiny negative radicands caused by floating-point rounding.
#[inline]
pub fn kernel_distance(k_gg: f64, k_hh: f64, k_gh: f64) -> f64 {
    (k_gg + k_hh - 2.0 * k_gh).max(0.0).sqrt()
}

/// Distance between two graphs under `kernel` (computes features twice;
/// prefer [`crate::matrix`] when comparing many graphs).
pub fn distance(kernel: &dyn GraphKernel, g: &EventGraph, h: &EventGraph) -> f64 {
    let fg = kernel.features(g);
    let fh = kernel.features(h);
    kernel_distance(fg.norm_sq(), fh.norm_sq(), fg.dot(&fh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wl::WlKernel;
    use anacin_mpisim::prelude::*;

    #[test]
    fn distance_formula() {
        assert_eq!(kernel_distance(4.0, 4.0, 4.0), 0.0);
        assert_eq!(kernel_distance(1.0, 1.0, 0.0), 2f64.sqrt());
        // Rounding clamp.
        assert_eq!(kernel_distance(1.0, 1.0, 1.0 + 1e-12), 0.0);
    }

    #[test]
    fn distance_is_a_metric_on_samples() {
        // Check symmetry, identity, and the triangle inequality on a small
        // sample of race graphs.
        let graphs: Vec<_> = (0..4)
            .map(|seed| {
                let mut b = ProgramBuilder::new(5);
                for r in 1..5 {
                    b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
                }
                for _ in 1..5 {
                    b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
                }
                let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap();
                anacin_event_graph::EventGraph::from_trace(&t)
            })
            .collect();
        let k = WlKernel::default();
        let n = graphs.len();
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                d[i][j] = distance(&k, &graphs[i], &graphs[j]);
            }
        }
        for i in 0..n {
            assert_eq!(d[i][i], 0.0);
            for j in 0..n {
                assert!((d[i][j] - d[j][i]).abs() < 1e-9);
                for l in 0..n {
                    assert!(d[i][j] <= d[i][l] + d[l][j] + 1e-9);
                }
            }
        }
    }
}
