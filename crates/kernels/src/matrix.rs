//! Parallel Gram-matrix computation over sets of event graphs.
//!
//! A non-determinism measurement compares a *sample* of runs (the paper
//! uses 20 per setting), which needs the full kernel matrix. Features are
//! computed once per graph. Small samples then merge-join each pair of
//! vectors; from [`LABEL_MAJOR_MIN_RUNS`] runs on, the matrix is built
//! label-major instead, multiplying only the labels that runs share. Both
//! give the same bits. Features, merge-join rows and an appended column go
//! through [`anacin_obs::pool`]; label-major keeps its own workers, which
//! meet at a barrier every round.

use crate::distance::kernel_distance;
use crate::feature::{DotKind, SparseFeatures};
use crate::kernel::GraphKernel;
use anacin_event_graph::EventGraph;
use anacin_obs::{pool, MetricsRegistry};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};

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
}

/// Compute φ(G) for each graph on up to `threads` workers of
/// [`anacin_obs::pool`].
pub fn parallel_features(
    kernel: &dyn GraphKernel,
    graphs: &[EventGraph],
    threads: usize,
) -> Vec<SparseFeatures> {
    pool::map_indexed(graphs.len(), threads, None, |i| kernel.features(&graphs[i]))
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

/// Samples of at least this many runs get their exact Gram matrix
/// label-major; smaller ones merge-join each pair of vectors.
///
/// Measured on a 2-core Xeon VM: WL features of amg2013 at 32 ranks,
/// median wall time of 21 alternating calls in ms, merge-join /
/// label-major. At ND 0 every label is in every run, the worst case for
/// label-major; at ND 100 most labels are in one run only.
///
/// | runs | ND 0, 1 thread | ND 0, 2 threads | ND 100, 1 thread | ND 100, 2 threads |
/// |---|---|---|---|---|
/// | 8 | 1.23 / 1.61 | 0.60 / 1.10 | 3.34 / 2.16 | 1.67 / 1.36 |
/// | 12 | 2.35 / 2.42 | 1.17 / 1.62 | 7.17 / 3.15 | 3.94 / 2.60 |
/// | 16 | 4.09 / 2.41 | 2.08 / 2.75 | 13.5 / 5.72 | 7.14 / 3.68 |
/// | 20 | 6.10 / 3.86 | 3.11 / 3.14 | 22.3 / 6.90 | 10.8 / 4.35 |
/// | 24 | 8.94 / 5.49 | 5.16 / 4.34 | 30.2 / 7.93 | 15.2 / 4.97 |
/// | 32 | 14.8 / 7.23 | 7.28 / 3.45 | 50.2 / 9.02 | 28.6 / 6.83 |
/// | 64 | 60.7 / 16.8 | 31.8 / 8.49 | 209 / 23.8 | 113 / 15.6 |
///
/// 24 is the smallest run count at which label-major won every column.
pub const LABEL_MAJOR_MIN_RUNS: usize = 24;

/// Feature entries one worker groups per id range of the label-major
/// product, which sizes the ranges. Its scratch (24 bytes an entry)
/// then stays in a core's L2 cache, whatever the campaign's size; 2^12
/// to 2^16 measured within 20% of each other, 2^14 fastest.
const RANGE_ENTRIES: usize = 1 << 14;

/// Compute the Gram matrix directly from precomputed feature vectors,
/// counting `kernel/dot_products` (`n(n+1)/2` whichever algorithm runs)
/// and, for label-major campaigns, `kernel/gram_pair_updates` when a
/// registry is supplied. Bit-identical to [`gram_matrix`] given the same
/// features, and to `feats[i].dot(&feats[j])` at every entry.
pub fn gram_from_features_with_metrics(
    kernel_name: &str,
    feats: &[SparseFeatures],
    threads: usize,
    metrics: Option<&MetricsRegistry>,
) -> KernelMatrix {
    let n = feats.len();
    if let Some(m) = metrics {
        m.counter("kernel/dot_products")
            .add((n * (n + 1) / 2) as u64);
    }
    let values = if n >= LABEL_MAJOR_MIN_RUNS {
        let (values, updates) = label_major_gram(feats, threads);
        if let Some(m) = metrics {
            m.counter("kernel/gram_pair_updates").add(updates);
        }
        values
    } else {
        pairwise_gram(feats, threads)
    };
    KernelMatrix {
        n,
        values,
        kernel_name: kernel_name.to_string(),
    }
}

/// The row-major matrix from one merge-join dot per pair.
fn pairwise_gram(feats: &[SparseFeatures], threads: usize) -> Vec<f64> {
    let n = feats.len();
    // Pairwise dot products for the upper triangle. Row i costs n − i dot
    // products, so handing out whole rows front-to-back leaves the worker
    // that drew row 0 doing ~n work while the one that drew row n−1 does 1.
    // Instead hand out *pairs* of rows (k, n−1−k): every pair costs exactly
    // n + 1 dot products, so the blocks are uniform regardless of which
    // worker draws which. Each (i, j) product is still computed exactly once
    // by the same expression, so the result is bit-identical to the serial
    // computation no matter the thread count.
    // The upper triangle of row i (j >= i).
    let row = |i: usize| -> Vec<f64> { (i..n).map(|j| feats[i].dot(&feats[j])).collect() };
    let blocks = pool::map_indexed(n.div_ceil(2), threads, None, |k| {
        // The middle row pairs with itself when n is odd.
        let pair = n - 1 - k;
        let block: &[usize] = if pair == k { &[k] } else { &[k, pair] };
        block.iter().map(|&i| (i, row(i))).collect::<Vec<_>>()
    });
    let mut values = vec![0.0; n * n];
    for (i, row) in blocks.into_iter().flatten() {
        for (off, v) in row.into_iter().enumerate() {
            let j = i + off;
            values[i * n + j] = v;
            values[j * n + i] = v;
        }
    }
    values
}

/// The row-major matrix as the sparse product X·Xᵀ of the runs × labels
/// matrix X, computed label-major (Gustavson's row-wise formulation).
/// Returns it with the number of multiply-adds done.
///
/// The id space is cut into ranges of about [`RANGE_ENTRIES`] entries.
/// In each round, every worker groups one range's entries by id, drops
/// the ids only one run holds, and publishes the rest; then every worker
/// adds `w_i * w_j` into the upper-triangle slots of the rows it owns,
/// for each published id that runs i < j share. The diagonal is
/// `feats[i].dot(&feats[i])`. Memory beyond the matrix is per worker and
/// bounded by the range size, never by the campaign's.
///
/// The workers meet at a barrier every round, so they must all run at
/// once. [`anacin_obs::pool`] does not promise that, so this function
/// starts its own: worker 0 on the calling thread, the rest spawned.
///
/// **Bit-exactness.** Entry (i, j) receives exactly the products the
/// merge-join `feats[i].dot(&feats[j])` adds on a match, in the same
/// increasing-id order (ranges run in order, groups within a range in
/// order, and one worker owns the row), from the same `+0.0`. The
/// merge-join's other steps add `+0.0`, which never changes its sum,
/// because a sum that starts at `+0.0` never becomes `−0.0`.
fn label_major_gram(feats: &[SparseFeatures], threads: usize) -> (Vec<f64>, u64) {
    let n = feats.len();
    let workers = threads.max(1).min(n.div_ceil(2));
    let starts = range_starts(feats);
    let rounds = starts.len().div_ceil(workers);
    let mut values = vec![0.0; n * n];
    // Worker w owns rows bounds[w]..bounds[w + 1], cut so that each block
    // holds an equal share of the triangle above the diagonal. One
    // contiguous block per worker keeps workers off each other's cache
    // lines (interleaved rows measured 1.4x slower at 16 runs).
    let mut bounds = vec![0; workers + 1];
    let above = n * (n - 1) / 2;
    let (mut w, mut before) = (1, 0);
    for i in 0..n {
        while w < workers && before * workers >= w * above {
            bounds[w] = i;
            w += 1;
        }
        before += n - 1 - i;
    }
    bounds[w..].fill(n);
    let mut blocks = Vec::with_capacity(workers);
    let mut rest = values.as_mut_slice();
    for w in 0..workers {
        let (block, tail) = rest.split_at_mut((bounds[w + 1] - bounds[w]) * n);
        blocks.push((bounds[w], block));
        rest = tail;
    }
    // Round r publishes into set r % 2, so a worker grouping the next
    // range never writes a set another worker may still be reading: one
    // barrier per round is enough.
    let published: [Vec<RwLock<Groups>>; 2] =
        std::array::from_fn(|_| (0..workers).map(|_| RwLock::default()).collect());
    let barrier = Rendezvous::new(workers);
    let work = |w: usize, (first, block): (usize, &mut [f64])| -> u64 {
        let _breaks = Breaker(&barrier);
        for (r, row) in block.chunks_mut(n).enumerate() {
            row[first + r] = feats[first + r].dot(&feats[first + r]);
        }
        let mut scratch = Scratch::default();
        let mut updates = 0;
        for round in 0..rounds {
            let set = &published[round % 2];
            let range = round * workers + w;
            {
                let mut mine = set[w].write().expect("groups poisoned");
                match starts.get(range) {
                    Some(&lo) => {
                        scratch.group(feats, lo, starts.get(range + 1).copied(), &mut mine)
                    }
                    None => mine.clear(),
                }
            }
            barrier.wait();
            for groups in set {
                updates += groups
                    .read()
                    .expect("groups poisoned")
                    .apply(first, block, n);
            }
        }
        updates
    };
    let updates = if workers == 1 {
        work(0, blocks.pop().expect("one worker"))
    } else {
        let work = &work;
        std::thread::scope(|s| {
            let mut blocks = blocks.into_iter().enumerate();
            let (_, first) = blocks.next().expect("at least one worker");
            let handles: Vec<_> = blocks
                .map(|(w, block)| s.spawn(move || work(w, block)))
                .collect();
            let mine = work(0, first);
            mine + handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .sum::<u64>()
        })
    };
    for i in 0..n {
        for j in i + 1..n {
            values[j * n + i] = values[i * n + j];
        }
    }
    (values, updates)
}

/// A reusable barrier that a panicking party breaks. With
/// `std::sync::Barrier`, one worker's panic would leave the others
/// waiting forever and `thread::scope` would never return; here the
/// panicking party's [`Breaker`] wakes them, and every `wait` on a broken
/// barrier panics.
struct Rendezvous {
    parties: usize,
    state: Mutex<Turn>,
    turned: Condvar,
}

/// The shared state of a [`Rendezvous`]. Nothing panics while holding
/// its lock, and every update is one field assignment.
#[derive(Default)]
struct Turn {
    /// Parties waiting in the current round.
    arrived: usize,
    /// Rounds completed.
    round: u64,
    /// Set by a [`Breaker`] whose thread panicked.
    broken: bool,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Rendezvous {
            parties,
            state: Mutex::default(),
            turned: Condvar::new(),
        }
    }

    /// Block until all parties have called `wait` this round.
    fn wait(&self) {
        let mut s = self.state.lock().expect("Gram barrier lock poisoned");
        let round = s.round;
        if !s.broken {
            s.arrived += 1;
            if s.arrived == self.parties {
                s.arrived = 0;
                s.round += 1;
                self.turned.notify_all();
                return;
            }
            s = self
                .turned
                .wait_while(s, |s| s.round == round && !s.broken)
                .expect("Gram barrier lock poisoned");
        }
        let broken = s.round == round;
        drop(s);
        assert!(!broken, "another Gram worker panicked");
    }
}

/// A guard that breaks its [`Rendezvous`] if its thread panics while the
/// guard lives.
struct Breaker<'a>(&'a Rendezvous);

impl Drop for Breaker<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A poisoned `Turn` is still valid (see its doc), and a drop
            // must not panic.
            let mut s = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            s.broken = true;
            self.0.turned.notify_all();
        }
    }
}

/// The first id of every range of the label-major product, ascending
/// from 0. The ranges are quantiles of a sample of every vector's ids, so
/// each holds about [`RANGE_ENTRIES`] entries whatever the ids'
/// distribution (WL ids are uniform hashes, histogram ids need not be).
fn range_starts(feats: &[SparseFeatures]) -> Vec<u64> {
    let total: usize = feats.iter().map(SparseFeatures::nnz).sum();
    let ranges = total.div_ceil(RANGE_ENTRIES).max(1);
    let mut sample: Vec<u64> = feats
        .iter()
        .flat_map(|f| {
            let e = f.entries();
            let picks = ranges.min(e.len());
            (0..picks).map(move |k| e[k * e.len() / picks].0)
        })
        .collect();
    sample.sort_unstable();
    let mut starts = vec![0];
    for k in 1..ranges {
        let id = sample[k * sample.len() / ranges];
        if id > starts[starts.len() - 1] {
            starts.push(id);
        }
    }
    starts
}

/// One feature entry of one run, as grouped by id.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    id: u64,
    run: u32,
    weight: f64,
}

/// A worker's grouping buffers, reused across its ranges.
#[derive(Debug, Default)]
struct Scratch {
    entries: Vec<Entry>,
    bucket_ends: Vec<u32>,
}

impl Scratch {
    /// Group the entries with ids in `lo..hi` (`hi = None`: no upper
    /// bound) by id into `out`, keeping the ids two or more runs hold.
    ///
    /// A counting sort on the id's offset in the range scatters the
    /// entries into about one bucket per entry, run by run; a stable sort
    /// of each bucket by id then leaves every id's runs in increasing
    /// order.
    fn group(&mut self, feats: &[SparseFeatures], lo: u64, hi: Option<u64>, out: &mut Groups) {
        out.clear();
        let slices: Vec<&[(u64, f64)]> = feats
            .iter()
            .map(|f| {
                let e = f.entries();
                let from = e.partition_point(|&(id, _)| id < lo);
                let to = hi.map_or(e.len(), |hi| e.partition_point(|&(id, _)| id < hi));
                &e[from..to]
            })
            .collect();
        let m: usize = slices.iter().map(|s| s.len()).sum();
        if m < 2 {
            return;
        }
        let span = hi.map_or(u64::MAX, |hi| hi - 1) - lo;
        let shift =
            (64 - span.leading_zeros()).saturating_sub(m.next_power_of_two().trailing_zeros());
        let buckets = (span >> shift) as usize + 1;
        let ends = &mut self.bucket_ends;
        ends.clear();
        ends.resize(buckets + 1, 0);
        for s in &slices {
            for &(id, _) in *s {
                ends[((id - lo) >> shift) as usize + 1] += 1;
            }
        }
        for b in 1..=buckets {
            ends[b] += ends[b - 1];
        }
        // ends[b] is now where bucket b starts; scattering advances it to
        // where bucket b ends.
        let entries = &mut self.entries;
        entries.resize(m, Entry::default());
        for (run, s) in slices.iter().enumerate() {
            for &(id, weight) in *s {
                let b = ((id - lo) >> shift) as usize;
                entries[ends[b] as usize] = Entry {
                    id,
                    run: run as u32,
                    weight,
                };
                ends[b] += 1;
            }
        }
        let mut from = 0;
        for &to in &ends[..buckets] {
            let bucket = &mut entries[from..to as usize];
            if bucket.len() > 1 {
                bucket.sort_by_key(|e| e.id);
            }
            from = to as usize;
        }
        let mut i = 0;
        while i < m {
            let id = entries[i].id;
            let mut j = i + 1;
            while j < m && entries[j].id == id {
                j += 1;
            }
            if j - i > 1 {
                for e in &entries[i..j] {
                    out.runs.push(e.run);
                    out.weights.push(e.weight);
                }
                out.ends.push(out.runs.len());
            }
            i = j;
        }
    }
}

/// The ids of one range that two or more runs share, in increasing id
/// order: id g is held by `runs[ends[g-1]..ends[g]]` (ascending) with
/// weights `weights[ends[g-1]..ends[g]]`.
#[derive(Debug, Default)]
struct Groups {
    runs: Vec<u32>,
    weights: Vec<f64>,
    ends: Vec<usize>,
}

impl Groups {
    fn clear(&mut self) {
        self.runs.clear();
        self.weights.clear();
        self.ends.clear();
    }

    /// Add each shared id's products into the upper triangle of `block`,
    /// the `n`-wide rows `first..` this worker owns, and return how many
    /// multiply-adds that took.
    fn apply(&self, first: usize, block: &mut [f64], n: usize) -> u64 {
        let end = first + block.len() / n;
        let mut updates = 0;
        let mut from = 0;
        for &to in &self.ends {
            let (runs, weights) = (&self.runs[from..to], &self.weights[from..to]);
            from = to;
            // Held by consecutive runs: each tail is one slice of the row,
            // which the compiler vectorises (same operations per slot).
            let consecutive = (runs[runs.len() - 1] - runs[0]) as usize == runs.len() - 1;
            for a in 0..runs.len() - 1 {
                let i = runs[a] as usize;
                if i < first {
                    continue;
                }
                if i >= end {
                    break;
                }
                let row = &mut block[(i - first) * n..(i - first + 1) * n];
                let (wa, tail_runs, tail_weights) = (weights[a], &runs[a + 1..], &weights[a + 1..]);
                if consecutive {
                    let j = tail_runs[0] as usize;
                    let slots = &mut row[j..j + tail_weights.len()];
                    for (acc, &wb) in slots.iter_mut().zip(tail_weights) {
                        *acc += wa * wb;
                    }
                } else {
                    for (&j, &wb) in tail_runs.iter().zip(tail_weights) {
                        row[j as usize] += wa * wb;
                    }
                }
                updates += tail_weights.len() as u64;
            }
        }
        updates
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
    let col = pool::map_indexed(n, threads, None, |i| dot.dot(&feats[i], &feats[new]));
    for (i, v) in col.into_iter().enumerate() {
        values[i * n + new] = v;
        values[new * n + i] = v;
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

    /// Deterministic pseudo-random ids (splitmix64).
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every feature-set shape the crossover test runs, `count` vectors
    /// each: the kernels' own features at ND 0 and 100, and synthetic
    /// sets with empty vectors, disjoint supports, non-integer weights,
    /// and enough entries for several id ranges per worker.
    fn shapes(count: usize) -> Vec<(&'static str, Vec<SparseFeatures>)> {
        let nd100 = race_graphs(count as u64, 100.0);
        let nd0 = race_graphs(count as u64, 0.0);
        let features = |k: &dyn GraphKernel, graphs: &[EventGraph]| parallel_features(k, graphs, 2);
        let wl = WlKernel::default();
        let wl100 = features(&wl, &nd100);
        let mut out = vec![
            ("wl nd0", features(&wl, &nd0)),
            ("wl nd100", wl100.clone()),
            (
                "vertex-histogram",
                features(&crate::histogram::VertexHistogramKernel::default(), &nd100),
            ),
            (
                "edge-histogram",
                features(&crate::histogram::EdgeHistogramKernel::default(), &nd100),
            ),
            (
                "shortest-path",
                features(&crate::shortest_path::ShortestPathKernel::default(), &nd100),
            ),
        ];
        let mut scaled = wl100.clone();
        for (i, f) in scaled.iter_mut().enumerate() {
            f.scale(1.0 / (3.0 + i as f64));
        }
        out.push(("wl scaled by 1/(3+i)", scaled));
        let mut holey = wl100;
        for f in holey.iter_mut().step_by(3) {
            *f = SparseFeatures::new();
        }
        out.push(("every third vector empty", holey));
        out.push((
            "disjoint supports",
            (0..count as u64)
                .map(|i| {
                    (0..40)
                        .map(|k| (mix(i * 1000 + k), 0.5 + k as f64))
                        .collect()
                })
                .collect(),
        ));
        // ~2,000 of 4,000 pooled ids per vector, each held by about half
        // the runs, with non-integer weights.
        out.push((
            "wide pooled",
            (0..count as u64)
                .map(|i| {
                    (0..4000u64)
                        .filter(|&k| mix(k ^ (i << 32)) & 1 == 0)
                        .map(|k| (mix(k), 0.25 + (mix(k + i) % 1000) as f64 / 7.0))
                        .collect()
                })
                .collect(),
        ));
        out
    }

    /// Multiply-adds the label-major product needs: for every id, one per
    /// pair of runs holding it.
    fn shared_products(feats: &[SparseFeatures]) -> u64 {
        let mut holders = std::collections::BTreeMap::<u64, u64>::new();
        for f in feats {
            for (id, _) in f.iter() {
                *holders.entry(id).or_default() += 1;
            }
        }
        holders.values().map(|&k| k * (k - 1) / 2).sum()
    }

    #[test]
    fn gram_equals_serial_dots_on_both_sides_of_the_crossover() {
        let c = LABEL_MAJOR_MIN_RUNS;
        for count in [c - 1, c, 3 * c] {
            for (shape, feats) in shapes(count) {
                let serial: Vec<u64> = (0..count * count)
                    .map(|k| feats[k / count].dot(&feats[k % count]).to_bits())
                    .collect();
                for threads in [1, 2, 8] {
                    let reg = MetricsRegistry::new();
                    let m = gram_from_features_with_metrics("k", &feats, threads, Some(&reg));
                    let bits: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
                    let first_diff = bits.iter().zip(&serial).position(|(a, b)| a != b);
                    assert_eq!(
                        first_diff, None,
                        "{shape}: runs={count} threads={threads}, first differing entry"
                    );
                    let report = reg.report();
                    assert_eq!(
                        report.counter("kernel/dot_products"),
                        Some((count * (count + 1) / 2) as u64)
                    );
                    assert_eq!(
                        report.counter("kernel/gram_pair_updates"),
                        (count >= c).then(|| shared_products(&feats)),
                        "{shape}: runs={count} threads={threads}"
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
                let mut m = gram_from_features_with_metrics(&k.name(), &feats[..1], 1, None);
                for r in 1..8 {
                    let reg = MetricsRegistry::new();
                    m = gram_append(&m, &feats[..=r], threads, dot, Some(&reg));
                    let report = reg.report();
                    assert_eq!(report.counter("kernel/dot_products"), Some(r as u64 + 1));
                    let cold = gram_from_features_with_metrics(&k.name(), &feats[..=r], 1, None);
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
    fn a_panicking_party_breaks_the_gram_barrier() {
        // One party panics before its first wait, either while the other
        // is already blocked in `wait` or before it arrives. The other
        // must panic too instead of waiting forever, so the scope returns.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let quit = |barrier: &Rendezvous| {
                let _breaks = Breaker(barrier);
                panic!("worker fails before its first wait");
            };
            let wait = |barrier: &Rendezvous| {
                let _breaks = Breaker(barrier);
                barrier.wait();
            };
            let blocked_first = Rendezvous::new(2);
            let quit_first = Rendezvous::new(2);
            let failed = std::thread::scope(|s| {
                let waiter = s.spawn(|| wait(&blocked_first));
                // `arrived` reads 1 only once the waiter has released the
                // lock inside `wait_while`, i.e. once it is blocked.
                while blocked_first.state.lock().unwrap().arrived == 0 {
                    std::thread::yield_now();
                }
                let quitter = s.spawn(|| quit(&blocked_first));
                let first = [quitter.join().is_err(), waiter.join().is_err()];
                let quitter = s.spawn(|| quit(&quit_first)).join().is_err();
                let waiter = s.spawn(|| wait(&quit_first)).join().is_err();
                [first, [quitter, waiter]]
            });
            tx.send(failed).unwrap();
        });
        let failed = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the waiting party hung on a broken barrier");
        assert_eq!(failed, [[true, true], [true, true]]);
    }

    #[test]
    fn empty_sample() {
        let m = gram_matrix(&WlKernel::default(), &[], 4);
        assert!(m.is_empty());
        assert_eq!(m.mean_pairwise_distance(), 0.0);
        assert!(m.pairwise_distances().is_empty());
    }
}
