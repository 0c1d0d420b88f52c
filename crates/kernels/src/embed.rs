//! Classical multidimensional scaling (MDS) of kernel distances.
//!
//! A campaign yields an n×n kernel-distance matrix over its runs; MDS
//! embeds the runs in 2-D so students can *see* the structure of the
//! non-determinism (tight cluster = reproducible, spread cloud = racy,
//! multiple clusters = discrete outcome classes — the Enzo situation).
//! This mirrors the kernel-space visualisations of the companion TPDS'21
//! paper.
//!
//! Implementation: double-centre the squared distances, then extract the
//! top eigenpairs of the Gram matrix with deterministic power iteration
//! and deflation (the matrices here are tiny — one row per run).

use crate::matrix::KernelMatrix;

/// A 2-D embedding of a run sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// One `(x, y)` per run, in run order.
    pub points: Vec<(f64, f64)>,
    /// The eigenvalues of the two extracted axes (variance explained).
    pub eigenvalues: (f64, f64),
}

/// Multiply the dense symmetric matrix `m` (n×n, row-major) by `v`.
fn matvec(m: &[f64], n: usize, v: &[f64], out: &mut [f64]) {
    for i in 0..n {
        let row = &m[i * n..(i + 1) * n];
        out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
    }
}

/// Deterministic power iteration on a symmetric matrix; returns the
/// dominant (eigenvalue, eigenvector). Positive-semidefinite inputs only
/// (the centred Gram matrix restricted to its positive part).
fn power_iteration(m: &[f64], n: usize, iters: usize) -> (f64, Vec<f64>) {
    // Deterministic, dense start vector.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    v.iter_mut().for_each(|x| *x /= norm);
    let mut next = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        matvec(m, n, &v, &mut next);
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-30 {
            return (0.0, v);
        }
        next.iter_mut().for_each(|x| *x /= norm);
        std::mem::swap(&mut v, &mut next);
        lambda = norm;
    }
    // Rayleigh quotient for a signed eigenvalue estimate.
    matvec(m, n, &v, &mut next);
    let rq: f64 = v.iter().zip(&next).map(|(a, b)| a * b).sum();
    let _ = lambda;
    (rq, v)
}

/// Embed a distance matrix (given as a closure over indices) in 2-D.
pub fn mds_from_distances(n: usize, dist: impl Fn(usize, usize) -> f64) -> Embedding {
    if n == 0 {
        return Embedding {
            points: Vec::new(),
            eigenvalues: (0.0, 0.0),
        };
    }
    // B = -1/2 J D² J (double centring).
    let mut d2 = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let d = dist(i, j);
            d2[i * n + j] = d * d;
        }
    }
    let row_mean: Vec<f64> = (0..n)
        .map(|i| d2[i * n..(i + 1) * n].iter().sum::<f64>() / n as f64)
        .collect();
    let grand = row_mean.iter().sum::<f64>() / n as f64;
    let mut b = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            b[i * n + j] = -0.5 * (d2[i * n + j] - row_mean[i] - row_mean[j] + grand);
        }
    }
    // Top two eigenpairs via power iteration + deflation.
    let iters = 300;
    let (l1, v1) = power_iteration(&b, n, iters);
    for i in 0..n {
        for j in 0..n {
            b[i * n + j] -= l1 * v1[i] * v1[j];
        }
    }
    let (l2, v2) = power_iteration(&b, n, iters);
    let s1 = l1.max(0.0).sqrt();
    let s2 = l2.max(0.0).sqrt();
    Embedding {
        points: (0..n).map(|i| (s1 * v1[i], s2 * v2[i])).collect(),
        eigenvalues: (l1.max(0.0), l2.max(0.0)),
    }
}

/// Embed the runs of a kernel matrix.
pub fn mds(matrix: &KernelMatrix) -> Embedding {
    mds_from_distances(matrix.len(), |i, j| matrix.distance(i, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Euclidean distance between two embedded points.
    fn embedded_distance(a: (f64, f64), b: (f64, f64)) -> f64 {
        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
    }

    #[test]
    fn empty_input() {
        let e = mds_from_distances(0, |_, _| 0.0);
        assert!(e.points.is_empty());
    }

    #[test]
    fn collinear_points_recover_their_order() {
        // Points on a line at positions 0, 1, 2, 5: distances |p_i - p_j|.
        let pos = [0.0f64, 1.0, 2.0, 5.0];
        let e = mds_from_distances(4, |i, j| (pos[i] - pos[j]).abs());
        // The first axis carries (almost) all variance.
        assert!(e.eigenvalues.0 > 100.0 * e.eigenvalues.1.max(1e-12));
        // Embedded x order matches (up to global sign) the original order.
        let xs: Vec<f64> = e.points.iter().map(|p| p.0).collect();
        let sign = if xs[3] > xs[0] { 1.0 } else { -1.0 };
        for w in xs.windows(2) {
            assert!(sign * (w[1] - w[0]) > 0.0, "{xs:?}");
        }
        // And pairwise embedded distances reproduce the input.
        for i in 0..4 {
            for j in 0..4 {
                let d = embedded_distance(e.points[i], e.points[j]);
                assert!((d - (pos[i] - pos[j]).abs()).abs() < 1e-6, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn identical_points_collapse() {
        let e = mds_from_distances(5, |_, _| 0.0);
        for p in &e.points {
            assert!(p.0.abs() < 1e-9 && p.1.abs() < 1e-9);
        }
    }

    #[test]
    fn square_embeds_in_two_dimensions() {
        // Unit square corners: needs two axes with equal eigenvalues.
        let pts: [(f64, f64); 4] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        let dist = |i: usize, j: usize| {
            let (ax, ay) = pts[i];
            let (bx, by) = pts[j];
            (ax - bx).hypot(ay - by)
        };
        let e = mds_from_distances(4, dist);
        assert!(e.eigenvalues.0 > 0.5);
        assert!(e.eigenvalues.1 > 0.5);
        for i in 0..4 {
            for j in 0..4 {
                let d = embedded_distance(e.points[i], e.points[j]);
                assert!((d - dist(i, j)).abs() < 1e-5, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn kernel_matrix_embedding_integrates() {
        use crate::matrix::gram_matrix;
        use crate::wl::WlKernel;
        use anacin_mpisim::prelude::*;
        let graphs: Vec<_> = (0..6)
            .map(|seed| {
                let mut b = ProgramBuilder::new(5);
                for r in 1..5 {
                    b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
                }
                for _ in 1..5 {
                    b.rank(Rank(0)).recv_any(TagSpec::Any);
                }
                let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap();
                anacin_event_graph::EventGraph::from_trace(&t)
            })
            .collect();
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        let e = mds(&m);
        assert_eq!(e.points.len(), 6);
        // Embedded distances approximate kernel distances (MDS of a small
        // sample is near-exact when the distances are Euclidean-like).
        for i in 0..6 {
            for j in 0..6 {
                let de = embedded_distance(e.points[i], e.points[j]);
                // Loose sanity bound only: same order of magnitude.
                assert!(de <= m.distance(i, j) + 1e-6);
            }
        }
    }
}
