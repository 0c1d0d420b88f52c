//! End-to-end and per-layer benchmark of the anacin workspace.
//!
//! Three workloads, each sized for a 2-core machine:
//!
//! - `wide-stream` — few wide campaigns through `run_campaign_streaming`;
//!   simulation and WL features dominate.
//! - `many-runs` — one narrow campaign of many runs through
//!   `run_campaign`; the Gram stage dominates.
//! - `serve-mix` — a closed loop of cold, warm and append jobs through an
//!   in-process `anacin serve` daemon; the store and the daemon dominate.
//!
//! Every run first measures the workload through the public entry points
//! with every knob at its default and no tracing, then re-executes it in a
//! traced pass that calls each layer's public functions with a span
//! around every call. The end-to-end metrics come from the first part,
//! the per-layer metrics from the second, and the traced pass's results
//! are checked bit for bit against the entry points'.

pub mod batch;
pub mod report;
pub mod serve_mix;
pub mod spans;
pub mod stats;
pub mod sys;

use report::{Metric, Outcome};
use spans::Spans;
use std::path::{Path, PathBuf};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Most bytes earlier runs may have left under the work directories'
/// parent before a `serve-mix` run refuses to start. One run leaves 0.15
/// to 0.5 GB, which the benchmark never deletes itself (see [`run`]).
pub const MAX_KEPT_BYTES: u64 = 12 << 30;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// amg2013, 512 ranks, 4 runs, streaming engine.
    WideStream,
    /// amg2013, 32 ranks, 192 runs, materialised engine.
    ManyRuns,
    /// Cold, warm and append jobs through the campaign daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::WideStream, Workload::ManyRuns, Workload::ServeMix];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WideStream => "wide-stream",
            Workload::ManyRuns => "many-runs",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload scale: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-scale shapes that exercise every code path and check.
    Tiny,
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// How long the untraced measurement lasts (at least one unit of work
    /// always runs).
    pub seconds: f64,
    /// Workload scale.
    pub size: Size,
    /// Whether the per-layer metrics are wanted. Batch workloads always
    /// run their traced pass, which carries their output check; the
    /// serve workload runs it only when asked, as it writes to disk.
    pub trace: bool,
    /// Scratch directory for stores and sockets, created by the run; it
    /// must not exist yet. Keep the path short: socket paths live inside
    /// it.
    pub work_dir: PathBuf,
    /// Checkout root, read for the commit.
    pub root: PathBuf,
}

/// Run one workload: measure, trace, check.
///
/// The work directory must not exist yet: every store the run opens is
/// created inside it, so none can hold an earlier run's artifacts.
/// `serve-mix` leaves its stores behind. Deleting a store frees thousands
/// of files at once, and on disks that pass freed space down to their
/// host that slows every fsync for minutes afterwards, later runs'
/// included. Delete the parent directory between benchmarking sessions
/// instead; a `serve-mix` run refuses to start once earlier runs have
/// left more than [`MAX_KEPT_BYTES`] there.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let parent = opts.work_dir.parent().unwrap_or(Path::new("."));
    let serve = opts.workload == Workload::ServeMix;
    let kept = if serve { sys::tree_bytes(parent) } else { 0 };
    if kept > MAX_KEPT_BYTES {
        return Err(format!(
            "earlier runs left {:.1} GiB in {}, more than the {} GiB cap; delete that directory",
            kept as f64 / (1u64 << 30) as f64,
            parent.display(),
            MAX_KEPT_BYTES >> 30,
        ));
    }
    std::fs::create_dir_all(parent)
        .and_then(|()| std::fs::create_dir(&opts.work_dir))
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let ticks_before = sys::cpu_ticks();
    let result = match opts.workload {
        Workload::WideStream | Workload::ManyRuns => batch::run(opts),
        Workload::ServeMix => serve_mix::run(opts),
    };
    // Other tenants of a shared host show up as steal; serve-mix, which
    // waits on thousands of fsyncs, slows the most when it is high (see
    // `serve_mix::run`).
    let steal_pct = sys::steal_share(ticks_before, sys::cpu_ticks()) * 100.0;
    let fs = sys::filesystem(&opts.work_dir);
    if !serve {
        // Batch workloads write nothing into it.
        let _ = std::fs::remove_dir(&opts.work_dir);
    }
    let mut out = result?;
    out.context.extend([
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("nproc", sys::nproc().to_string()),
        ("commit", sys::commit(&opts.root)),
        ("work_dir_fs", fs),
        ("cpu_steal_pct", format!("{steal_pct:.1}")),
    ]);
    if serve {
        let kept_mib = kept as f64 / (1u64 << 20) as f64;
        out.context
            .push(("kept_mib_before", format!("{kept_mib:.1}")));
    }
    Ok(out)
}

/// SplitMix64: the benchmark's input generator, independent of the
/// program's own random sources.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A simulator base seed below 2^40, so `base + run` never overflows.
    pub fn base_seed(&mut self) -> u64 {
        (self.next_u64() >> 24) + 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Map `f` over `0..n` on `threads` workers pulling indices in order,
/// as the campaign engines do; results come back in index order.
pub fn parallel_map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1).min(n.max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in chunks.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|v| v.expect("every index mapped"))
        .collect()
}

/// Work the traced pass counted at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Trace events simulated.
    pub events: u64,
    /// Event-graph nodes built.
    pub nodes: u64,
    /// Nodes of the graphs whose features were extracted.
    pub featurized_nodes: u64,
    /// Kernel dot products.
    pub dots: u64,
    /// Artifacts published.
    pub puts: u64,
    /// Payload bytes published.
    pub put_bytes: u64,
    /// Artifact lookups.
    pub gets: u64,
    /// Lookups that found the artifact.
    pub hits: u64,
}

/// Serve-layer readings; all zero on workloads without the daemon.
#[derive(Debug, Clone, Default)]
pub struct ServeReadings {
    /// Median `Client::run` round trip of the traced round.
    pub roundtrip_ms: f64,
    /// Median local layer-by-layer re-run of the same jobs.
    pub direct_ms: f64,
    /// Median per-job round trip minus direct time.
    pub overhead_ms: f64,
    /// Jobs refused with `Busy`.
    pub busy_refusals: u64,
    /// Result payload bytes received in the traced round.
    pub payload_bytes: u64,
    /// 90th percentile job latency of the untraced rounds, with its n.
    pub job_p90_ms: (f64, usize),
    /// Median latency of warm repeats in the untraced rounds, with its n.
    pub warm_job_p50_ms: (f64, usize),
    /// Median latency of append jobs in the untraced rounds, with its n.
    pub append_job_p50_ms: (f64, usize),
}

/// The per-layer metrics of one traced pass, in `BENCHMARK.json` order.
///
/// `threads` is the pass's worker count and `wall_s` its wall time;
/// `overhead_pct` compares the traced work's wall time with the same work
/// untraced.
pub fn layer_metrics(
    spans: &Spans,
    tally: &Tally,
    threads: usize,
    wall_s: f64,
    overhead_pct: f64,
    serve: ServeReadings,
) -> Vec<Metric> {
    use spans::*;
    use stats::ratio;
    let busy = |layer| spans.busy_ns(layer);
    let ms = |layer| busy(layer) / 1e6;
    let capacity_ns = threads as f64 * wall_s * 1e9;
    let n_of = |layer| spans.count(layer);
    let timed = |name, layer| Metric::new(name, "ms", ms(layer), n_of(layer));
    vec![
        Metric::once("mpisim.events", "count", tally.events as f64),
        timed("mpisim.busy_ms", MPISIM),
        Metric::once(
            "mpisim.ns_per_event",
            "ns",
            ratio(busy(MPISIM), tally.events as f64),
        ),
        Metric::once("event-graph.nodes", "count", tally.nodes as f64),
        timed("event-graph.busy_ms", GRAPH),
        Metric::once(
            "event-graph.ns_per_node",
            "ns",
            ratio(busy(GRAPH), tally.nodes as f64),
        ),
        timed("kernels.features_busy_ms", FEATURES),
        Metric::once(
            "kernels.features_ns_per_node",
            "ns",
            ratio(busy(FEATURES), tally.featurized_nodes as f64),
        ),
        Metric::once("kernels.dots", "count", tally.dots as f64),
        timed("kernels.gram_busy_ms", GRAM),
        Metric::once(
            "kernels.ns_per_dot",
            "ns",
            ratio(busy(GRAM), tally.dots as f64),
        ),
        Metric::once("store.puts", "count", tally.puts as f64),
        Metric::once("store.put_bytes", "bytes", tally.put_bytes as f64),
        timed("store.encode_ms", ENCODE),
        timed("store.put_ms", PUT),
        Metric::once("store.gets", "count", tally.gets as f64),
        timed("store.get_ms", GET),
        timed("store.decode_ms", DECODE),
        Metric::once(
            "store.hit_ratio",
            "ratio",
            ratio(tally.hits as f64, tally.gets as f64),
        ),
        Metric::new(
            "serve.roundtrip_ms",
            "ms",
            serve.roundtrip_ms,
            n_of(ROUNDTRIP),
        ),
        Metric::new("serve.direct_ms", "ms", serve.direct_ms, n_of(DIRECT)),
        Metric::new("serve.overhead_ms", "ms", serve.overhead_ms, n_of(DIRECT)),
        Metric::once("serve.busy_refusals", "count", serve.busy_refusals as f64),
        Metric::once("serve.payload_bytes", "bytes", serve.payload_bytes as f64),
        Metric::new(
            "serve.job_p90_ms",
            "ms",
            serve.job_p90_ms.0,
            serve.job_p90_ms.1,
        ),
        Metric::new(
            "serve.warm_job_p50_ms",
            "ms",
            serve.warm_job_p50_ms.0,
            serve.warm_job_p50_ms.1,
        ),
        Metric::new(
            "serve.append_job_p50_ms",
            "ms",
            serve.append_job_p50_ms.0,
            serve.append_job_p50_ms.1,
        ),
        Metric::once(
            "core.parallel_efficiency",
            "ratio",
            ratio(spans.work_ns(), capacity_ns),
        ),
        Metric::once("core.idle_ms", "ms", (capacity_ns - spans.work_ns()) / 1e6),
        Metric::once("trace.overhead_pct", "%", overhead_pct),
    ]
}

/// True when both matrices hold the same values bit for bit.
pub fn same_bits(a: &anacin_kernels::KernelMatrix, b: &anacin_kernels::KernelMatrix) -> bool {
    a.len() == b.len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Seconds since `t`.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The directory a run keeps its scratch files in, under `root`: named
/// after the process and the current time, so no two runs share one.
pub fn default_work_dir(root: &Path) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    root.join(".perfbench-work")
        .join(format!("{}-{nanos}", std::process::id()))
}
