//! Parallel Gram-matrix computation over sets of event graphs.
//!
//! A non-determinism measurement compares a *sample* of runs (the paper
//! uses 20 per setting), which needs the full kernel matrix. Features are
//! computed once per graph and dot products once per pair; both stages fan
//! out over `std::thread::scope` workers pulling indices from an atomic
//! counter — the natural shape for an embarrassingly parallel workload
//! without pulling in a task scheduler.

use crate::distance::kernel_distance;
use crate::feature::{DotKind, SparseFeatures};
use crate::kernel::GraphKernel;
use anacin_event_graph::EventGraph;
use anacin_obs::MetricsRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A symmetric kernel (Gram) matrix over a sample of graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMatrix {
    n: usize,
    values: Vec<f64>,
    kernel_name: String,
}

impl KernelMatrix {
    /// Reassemble a matrix from its parts (the store codec's decode path).
    ///
    /// `values` must be a row-major `n × n` buffer.
    pub fn from_parts(n: usize, values: Vec<f64>, kernel_name: String) -> Self {
        assert_eq!(values.len(), n * n, "values must be n*n");
        Self {
            n,
            values,
            kernel_name,
        }
    }

    /// The raw row-major `n × n` value buffer.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of graphs in the sample.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The kernel that produced this matrix.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Kernel value `k(G_i, G_j)`.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }

    /// Kernel distance `‖φ(G_i) − φ(G_j)‖`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        kernel_distance(self.value(i, i), self.value(j, j), self.value(i, j))
    }

    /// Cosine-normalised kernel value in `[0, 1]`.
    pub fn normalized_value(&self, i: usize, j: usize) -> f64 {
        crate::distance::normalized_kernel(self.value(i, i), self.value(j, j), self.value(i, j))
    }

    /// Scale-free distance `√(2 − 2·k̂)` over the normalised kernel — the
    /// variant to use when comparing patterns of different sizes.
    pub fn normalized_distance(&self, i: usize, j: usize) -> f64 {
        (2.0 - 2.0 * self.normalized_value(i, j)).max(0.0).sqrt()
    }

    /// All pairwise distances for `i < j` (the sample the paper's violin
    /// plots draw).
    pub fn pairwise_distances(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * (self.n.saturating_sub(1)) / 2);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                out.push(self.distance(i, j));
            }
        }
        out
    }

    /// Mean pairwise distance — the scalar "measured amount of
    /// non-determinism" for a sample of runs.
    pub fn mean_pairwise_distance(&self) -> f64 {
        let d = self.pairwise_distances();
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Distances from graph `i` to every other graph.
    pub fn distances_from(&self, i: usize) -> Vec<f64> {
        (0..self.n)
            .filter(|&j| j != i)
            .map(|j| self.distance(i, j))
            .collect()
    }
}

/// Compute φ(G) for each graph in parallel: workers pull graph indices
/// from an atomic counter, so one slow graph never idles the others.
pub fn parallel_features(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
) -> Vec<SparseFeatures> {
    let n = graphs.len();
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, SparseFeatures)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1).min(n.max(1)))
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, kernel.features(&graphs[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<SparseFeatures>> = (0..n).map(|_| None).collect();
    for (i, f) in chunks.into_iter().flatten() {
        slots[i] = Some(f);
    }
    slots
        .into_iter()
        .map(|f| f.expect("every graph featurised"))
        .collect()
}

/// Compute the Gram matrix of `graphs` under `kernel` using up to
/// `threads` worker threads.
pub fn gram_matrix(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
) -> KernelMatrix {
    let feats = parallel_features(kernel, graphs, threads);
    gram_from_features_with_metrics(&kernel.name(), &feats, threads, None)
}

/// Compute the Gram matrix directly from precomputed feature vectors,
/// counting `kernel/dot_products` when a registry is supplied. Bit-identical
/// to [`gram_matrix`] given the same features.
pub fn gram_from_features_with_metrics(
    kernel_name: &str,
    feats: &[SparseFeatures],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    gram_from_features_with_dot(kernel_name, feats, threads, DotKind::Scalar, metrics)
}

/// [`gram_from_features_with_metrics`] with an explicit dot-product
/// implementation. Both [`DotKind`]s are bit-identical, so this is purely
/// a throughput knob.
pub fn gram_from_features_with_dot(
    kernel_name: &str,
    feats: &[SparseFeatures],
    threads: usize,
    dot: DotKind,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let n = feats.len();
    // Pairwise dot products for the upper triangle. Row i costs n − i dot
    // products, so handing out whole rows front-to-back leaves the worker
    // that drew row 0 doing ~n work while the one that drew row n−1 does 1.
    // Instead hand out *pairs* of rows (k, n−1−k): every pair costs exactly
    // n + 1 dot products, so the blocks are uniform regardless of which
    // worker draws which. Each (i, j) product is still computed exactly once
    // by the same expression, so the result is bit-identical to the serial
    // computation no matter the thread count.
    if let Some(m) = metrics {
        m.counter("kernel/dot_products")
            .add((n * (n + 1) / 2) as u64);
    }
    let threads = threads.max(1).min(n.max(1));
    let half = n.div_ceil(2);
    let next_block = AtomicUsize::new(0);
    let rows: Vec<Vec<(usize, Vec<f64>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next_block = &next_block;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let k = next_block.fetch_add(1, Ordering::Relaxed);
                        if k >= half {
                            break;
                        }
                        // The middle row pairs with itself when n is odd.
                        let pair = n - 1 - k;
                        let block: &[usize] = if pair == k { &[k] } else { &[k, pair] };
                        for &i in block {
                            // Compute the upper triangle of row i (j >= i).
                            let row: Vec<f64> =
                                (i..n).map(|j| dot.dot(&feats[i], &feats[j])).collect();
                            local.push((i, row));
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut values = vec![0.0; n * n];
    for chunk in rows {
        for (i, row) in chunk {
            for (off, v) in row.into_iter().enumerate() {
                let j = i + off;
                values[i * n + j] = v;
                values[j * n + i] = v;
            }
        }
    }
    KernelMatrix {
        n,
        values,
        kernel_name: kernel_name.to_string(),
    }
}

/// Grow a Gram matrix by one run: `feats` holds all `R + 1` feature
/// vectors (the stored campaign's `R` plus the new run's, last), `prev`
/// the stored `R × R` matrix. Only the new row/column is computed —
/// exactly `R + 1` dot products instead of the `(R+1)(R+2)/2` a cold
/// recompute pays — counted into `kernel/dot_products` (the new run's
/// feature extraction is counted separately by the caller via
/// `kernel/features`).
///
/// **Bit-exactness.** The copied `R × R` block is the stored matrix's
/// bytes unchanged, and each new entry `(i, R)` is computed by the same
/// expression a cold recompute of row `i`'s upper triangle uses
/// (`dot(feats[i], feats[R])`), written once to its two mirror slots. So
/// append-then-read equals cold recompute bit-for-bit — differential
/// tested in this module, in `core::incremental`, and by proptest over
/// random run subsets in `tests/properties.rs`.
pub fn gram_append(
    prev: &KernelMatrix,
    feats: &[SparseFeatures],
    threads: usize,
    dot: DotKind,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let n = feats.len();
    assert_eq!(
        n,
        prev.n + 1,
        "gram_append expects the previous matrix plus exactly one new feature vector"
    );
    if let Some(m) = metrics {
        m.counter("kernel/dot_products").add(n as u64);
    }
    let mut values = vec![0.0; n * n];
    for i in 0..prev.n {
        values[i * n..i * n + prev.n].copy_from_slice(&prev.values[i * prev.n..(i + 1) * prev.n]);
    }
    let new = n - 1;
    let threads = threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    let col: Vec<Vec<(usize, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i > new {
                            break;
                        }
                        local.push((i, dot.dot(&feats[i], &feats[new])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for chunk in col {
        for (i, v) in chunk {
            values[i * n + new] = v;
            values[new * n + i] = v;
        }
    }
    KernelMatrix {
        n,
        values,
        kernel_name: prev.kernel_name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wl::WlKernel;
    use anacin_mpisim::prelude::*;

    fn race_graphs(count: u64, nd: f64) -> Vec<EventGraph> {
        (0..count)
            .map(|seed| {
                let mut b = ProgramBuilder::new(6);
                for r in 1..6 {
                    b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
                }
                for _ in 1..6 {
                    b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
                }
                let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
                EventGraph::from_trace(&t)
            })
            .collect()
    }

    #[test]
    fn gram_matrix_matches_direct_computation() {
        let graphs = race_graphs(6, 100.0);
        let k = WlKernel::default();
        let m = gram_matrix(&k, &graphs, 4);
        assert_eq!(m.len(), 6);
        for i in 0..6 {
            for j in 0..6 {
                let direct = k.value(&graphs[i], &graphs[j]);
                assert!(
                    (m.value(i, j) - direct).abs() < 1e-9,
                    "({i},{j}): {} vs {direct}",
                    m.value(i, j)
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let graphs = race_graphs(8, 100.0);
        let k = WlKernel::default();
        let m1 = gram_matrix(&k, &graphs, 1);
        let m8 = gram_matrix(&k, &graphs, 8);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(m1.value(i, j), m8.value(i, j));
            }
        }
    }

    #[test]
    fn balanced_scheduling_is_bit_exact_for_all_small_sizes() {
        // The pair-blocked schedule hands out rows in a different order than
        // a serial sweep; every (i, j) entry must nonetheless equal the
        // directly computed kernel value exactly, for odd and even n alike.
        let all = race_graphs(9, 100.0);
        let k = WlKernel::default();
        for n in 1..=9 {
            let graphs = &all[..n];
            for threads in [1, 2, 8] {
                let m = gram_matrix(&k, graphs, threads);
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            m.value(i, j),
                            k.value(&graphs[i], &graphs[j]),
                            "n={n} threads={threads} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_dot_gram_is_bit_identical_to_scalar() {
        let graphs = race_graphs(7, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 2);
        let scalar = gram_from_features_with_metrics(&k.name(), &feats, 1, None);
        for threads in [1, 2, 8] {
            let blocked = gram_from_features_with_dot(
                &k.name(),
                &feats,
                threads,
                crate::feature::DotKind::Blocked,
                None,
            );
            for i in 0..7 {
                for j in 0..7 {
                    assert_eq!(
                        blocked.value(i, j).to_bits(),
                        scalar.value(i, j).to_bits(),
                        "threads={threads} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gram_append_equals_cold_recompute_and_counts_r_plus_1_dots() {
        let graphs = race_graphs(8, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 2);
        for dot in [DotKind::Scalar, DotKind::Blocked] {
            // Grow from 1 run to 8, one append at a time, at several
            // thread counts; every intermediate matrix must equal the
            // cold recompute of the same prefix bit-for-bit.
            for threads in [1, 2, 8] {
                let mut m = gram_from_features_with_dot(&k.name(), &feats[..1], 1, dot, None);
                for r in 1..8 {
                    let reg = anacin_obs::MetricsRegistry::new();
                    m = gram_append(&m, &feats[..=r], threads, dot, Some(&reg));
                    let report = reg.report();
                    assert_eq!(report.counter("kernel/dot_products"), Some(r as u64 + 1));
                    let cold = gram_from_features_with_dot(&k.name(), &feats[..=r], 1, dot, None);
                    assert_eq!(m.len(), r + 1);
                    for i in 0..=r {
                        for j in 0..=r {
                            assert_eq!(
                                m.value(i, j).to_bits(),
                                cold.value(i, j).to_bits(),
                                "dot={dot} threads={threads} r={r} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly one new feature vector")]
    fn gram_append_rejects_wrong_feature_count() {
        let graphs = race_graphs(4, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 1);
        let m = gram_from_features_with_metrics(&k.name(), &feats[..2], 1, None);
        gram_append(&m, &feats, 1, DotKind::Scalar, None);
    }

    #[test]
    fn gram_metrics_count_dot_products() {
        let graphs = race_graphs(6, 100.0);
        let k = WlKernel::default();
        let feats = parallel_features(&k, &graphs, 2);
        let reg = anacin_obs::MetricsRegistry::new();
        let m = gram_from_features_with_metrics(&k.name(), &feats, 2, Some(&reg));
        assert_eq!(m, gram_matrix(&k, &graphs, 1));
        assert_eq!(reg.report().counter("kernel/dot_products"), Some(6 * 7 / 2));
    }

    #[test]
    fn diagonal_distances_are_zero_and_matrix_symmetric() {
        let graphs = race_graphs(5, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 3);
        for i in 0..5 {
            assert_eq!(m.distance(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(m.value(i, j), m.value(j, i));
            }
        }
    }

    #[test]
    fn pairwise_distance_count() {
        let graphs = race_graphs(6, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        assert_eq!(m.pairwise_distances().len(), 6 * 5 / 2);
        assert_eq!(m.distances_from(0).len(), 5);
    }

    #[test]
    fn identical_runs_give_zero_mean_distance() {
        // nd = 0: every seed produces the identical trace.
        let graphs = race_graphs(5, 0.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        assert_eq!(m.mean_pairwise_distance(), 0.0);
    }

    #[test]
    fn nd_runs_give_positive_mean_distance() {
        let graphs = race_graphs(10, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 4);
        assert!(m.mean_pairwise_distance() > 0.0);
        assert!(!m.is_empty());
        assert!(m.kernel_name().starts_with("wl"));
    }

    #[test]
    fn normalized_accessors() {
        let graphs = race_graphs(4, 100.0);
        let m = gram_matrix(&WlKernel::default(), &graphs, 2);
        for i in 0..4 {
            assert!((m.normalized_value(i, i) - 1.0).abs() < 1e-9);
            assert_eq!(m.normalized_distance(i, i), 0.0);
            for j in 0..4 {
                let v = m.normalized_value(i, j);
                assert!((0.0..=1.0 + 1e-9).contains(&v));
                assert!(m.normalized_distance(i, j) <= 2f64.sqrt() + 1e-9);
            }
        }
    }

    #[test]
    fn empty_sample() {
        let m = gram_matrix(&WlKernel::default(), &[], 4);
        assert!(m.is_empty());
        assert_eq!(m.mean_pairwise_distance(), 0.0);
        assert!(m.pairwise_distances().is_empty());
    }
}
