//! # anacin-obs
//!
//! Pipeline observability: a thread-safe metrics registry cheap enough to
//! leave on in production runs, plus a serialisable [`MetricsReport`].
//!
//! The paper's whole methodology is *measurement* — run campaigns and trust
//! the numbers — so the pipeline itself must be measurable. Afzal et al.
//! (PAPERS.md) treat timeline instrumentation as the analysis primitive,
//! and Hunold & Carpen-Amarie show that unrigorous timing produces
//! irreproducible performance claims; this crate is the substrate both
//! argue for, built before the perf work the ROADMAP calls for.
//!
//! Three instrument families:
//!
//! * **Counters** ([`Counter`]) — monotonic `u64` totals ("events
//!   executed", "dot products"). Handles are `Arc<AtomicU64>` clones, so
//!   incrementing is one relaxed atomic add; registry lookup happens once
//!   at handle creation, not per increment.
//! * **Gauges** — last-write-wins `f64` values ("effective thread count").
//! * **Spans** ([`Span`]) — scoped wall-time timers with nesting: a span
//!   started while another span is active *on the same thread* records
//!   under the path `parent/child`. Each named span accumulates count,
//!   total, min and max, so per-run timers ("sim") and per-stage timers
//!   ("campaign/simulate") coexist in one report.
//!
//! The registry is `Clone` (shared handle) and `Send + Sync`; worker
//! threads increment counters and record spans concurrently. Everything is
//! observability-only: no instrument feeds back into the pipeline, so
//! enabling metrics can never change a measurement.
//!
//! Alongside the totals, a [`Tracer`] records individual events on a
//! timeline — simulated MPI events and, once attached to a registry
//! ([`MetricsRegistry::attach_tracer`]), the begin/end of every span. It
//! streams every record to one [`TraceSink`] (Chrome JSON, folded
//! stacks, or [`MemorySink`] in tests) through a bounded channel and a
//! writer thread; see [`tracer`] and [`sink`].
//!
//! ```
//! use anacin_obs::MetricsRegistry;
//!
//! let m = MetricsRegistry::new();
//! {
//!     let _outer = m.span("campaign");
//!     let _inner = m.span("simulate"); // records as "campaign/simulate"
//!     m.counter("sim/events").add(42);
//! }
//! let report = m.report();
//! assert_eq!(report.counter("sim/events"), Some(42));
//! assert!(report.span("campaign/simulate").is_some());
//! ```

#![warn(missing_docs)]
// Reads clocks to time work, which clippy.toml otherwise disallows.
#![allow(clippy::disallowed_methods)]

pub mod hist;
pub mod progress;
pub mod shutdown;
pub mod sink;
pub mod tracer;

pub use hist::{HistBucket, LatencyHistogram};
pub use progress::ProgressReporter;
pub use shutdown::{install_signal_handlers, request_shutdown, shutdown_requested, CancelToken};
pub use sink::{ChromeJsonSink, CountingWriter, FoldedSink, MemorySink, SharedBuffer, TraceSink};
pub use tracer::{
    current_thread_id, message_id, MatchedSpan, SimEvent, SimEventKind, SpanMark, TraceRecord,
    TraceSnapshot, Tracer,
};

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Active span paths of the current thread, innermost last. Spans are
    /// guards, so well-formed code pushes and pops in LIFO order.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Accumulated statistics of one named span. The histogram is shared
/// (`Arc`) and bucket increments are lock-free atomics, so quantile
/// tracking adds one relaxed `fetch_add` to the span record path.
#[derive(Clone, Default)]
struct SpanAccum {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    hist: Arc<LatencyHistogram>,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    spans: Mutex<BTreeMap<String, SpanAccum>>,
    tracer: Mutex<Option<Tracer>>,
}

/// A shared, thread-safe metrics registry.
///
/// Cloning yields another handle onto the same instruments — pass clones
/// (or `&MetricsRegistry`) into worker threads freely.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it at zero on first
    /// use. Hold the returned handle in hot loops: increments on the
    /// handle are a single relaxed atomic add with no lock.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut map = self.inner.gauges.lock().expect("gauge map poisoned");
        map.insert(name.to_string(), value);
    }

    /// Start a scoped wall-time span. The span records on drop; while it
    /// is alive, spans started on the same thread nest under it
    /// (`parent/child` paths). Drop spans in reverse order of creation
    /// (the natural guard pattern) for paths to come out right.
    ///
    /// When a [`Tracer`] is attached ([`MetricsRegistry::attach_tracer`]),
    /// the span also emits begin/end timeline marks, so the aggregate
    /// statistics and the trace stay in lock-step.
    pub fn span(&self, name: &str) -> Span {
        let path = SPAN_STACK.with(|stack| match stack.borrow().last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        });
        self.span_at(path)
    }

    /// [`MetricsRegistry::span`], recorded under exactly `path` whatever
    /// spans are open on this thread: for per-item spans (one per campaign
    /// run, say) that must aggregate under one name on every thread.
    /// Spans started inside it still nest under `path`.
    pub fn span_at(&self, path: impl Into<String>) -> Span {
        let path = path.into();
        SPAN_STACK.with(|stack| stack.borrow_mut().push(path.clone()));
        let tracer = self.tracer();
        if let Some(t) = &tracer {
            t.span_begin(&path);
        }
        Span {
            registry: self.clone(),
            path,
            tracer,
            start: Instant::now(),
        }
    }

    /// Attach a [`Tracer`]: from now on, every [`Span`] started from this
    /// registry also emits begin/end marks onto the tracer's timeline.
    /// Attaching is observability-only — span statistics and everything
    /// they measure are unchanged.
    pub fn attach_tracer(&self, tracer: &Tracer) {
        *self.inner.tracer.lock().expect("tracer slot poisoned") = Some(tracer.clone());
    }

    /// The currently attached tracer, if any.
    pub fn tracer(&self) -> Option<Tracer> {
        self.inner
            .tracer
            .lock()
            .expect("tracer slot poisoned")
            .clone()
    }

    /// Record one observation of `elapsed_ns` under the span `path`
    /// (what `Span::drop` calls; public so external timers can feed in).
    pub fn record_span(&self, path: &str, elapsed_ns: u64) {
        let mut map = self.inner.spans.lock().expect("span map poisoned");
        let acc = map.entry(path.to_string()).or_default();
        if acc.count == 0 {
            acc.min_ns = elapsed_ns;
            acc.max_ns = elapsed_ns;
        } else {
            acc.min_ns = acc.min_ns.min(elapsed_ns);
            acc.max_ns = acc.max_ns.max(elapsed_ns);
        }
        acc.count += 1;
        acc.total_ns += elapsed_ns;
        acc.hist.record(elapsed_ns);
    }

    /// Snapshot every instrument into a serialisable report. Entries are
    /// sorted by name, so two snapshots of identical state are equal.
    pub fn report(&self) -> MetricsReport {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(name, v)| CounterSample {
                name: name.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(name, v)| GaugeSample {
                name: name.clone(),
                value: *v,
            })
            .collect();
        let spans = self
            .inner
            .spans
            .lock()
            .expect("span map poisoned")
            .iter()
            .map(|(name, a)| {
                let buckets = a.hist.sparse();
                let (p50_ns, p95_ns, p99_ns) = hist::percentiles_sparse(&buckets);
                SpanSample {
                    name: name.clone(),
                    count: a.count,
                    total_ns: a.total_ns,
                    mean_ns: if a.count == 0 {
                        0.0
                    } else {
                        a.total_ns as f64 / a.count as f64
                    },
                    min_ns: a.min_ns,
                    max_ns: a.max_ns,
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    hist: buckets,
                }
            })
            .collect();
        MetricsReport {
            counters,
            gauges,
            spans,
        }
    }
}

/// A monotonic counter handle (cheap to clone; increments are lock-free).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A scoped span timer; records its wall time into the registry on drop.
pub struct Span {
    registry: MetricsRegistry,
    path: String,
    tracer: Option<Tracer>,
    start: Instant,
}

impl Span {
    /// The full (nesting-resolved) path this span records under.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // LIFO pop; tolerate out-of-order drops by removing this path
            // wherever it sits instead of corrupting the whole stack.
            if let Some(pos) = stack.iter().rposition(|p| p == &self.path) {
                stack.remove(pos);
            }
        });
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.registry.record_span(&self.path, elapsed);
        if let Some(t) = &self.tracer {
            t.span_end(&self.path);
        }
    }
}

// -------------------------------------------------------------- reporting

/// One counter in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Instrument name, e.g. `sim/events`.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// One gauge in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Instrument name, e.g. `kernel/threads`.
    pub name: String,
    /// Last value written.
    pub value: f64,
}

/// One span in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSample {
    /// Nesting-resolved span path, e.g. `campaign/gram`.
    pub name: String,
    /// Number of recorded intervals.
    pub count: u64,
    /// Sum of interval durations, nanoseconds.
    pub total_ns: u64,
    /// Mean interval duration, nanoseconds.
    pub mean_ns: f64,
    /// Shortest interval, nanoseconds.
    pub min_ns: u64,
    /// Longest interval, nanoseconds.
    pub max_ns: u64,
    /// Median interval from the log-bucketed histogram (bucket lower
    /// bound — ≤ ~3.2% below the true quantile, never above the max).
    pub p50_ns: u64,
    /// 95th-percentile interval (same error bound as `p50_ns`).
    pub p95_ns: u64,
    /// 99th-percentile interval (same error bound as `p50_ns`).
    pub p99_ns: u64,
    /// Sparse latency histogram (non-empty buckets, index order); the
    /// source of truth for re-deriving quantiles after [`MetricsReport::merge`].
    pub hist: Vec<HistBucket>,
}

/// A point-in-time snapshot of a [`MetricsRegistry`], ready to serialise.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// All spans, sorted by path.
    pub spans: Vec<SpanSample>,
}

impl MetricsReport {
    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of gauge `name`, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The span recorded under exactly `path`, if any.
    pub fn span(&self, path: &str) -> Option<&SpanSample> {
        self.spans.iter().find(|s| s.name == path)
    }

    /// The first span whose path ends with `suffix` (stage lookups that
    /// do not care about the nesting prefix).
    pub fn span_ending_with(&self, suffix: &str) -> Option<&SpanSample> {
        self.spans.iter().find(|s| s.name.ends_with(suffix))
    }

    /// Merge `other` into `self`: counters and span statistics add,
    /// gauges take `other`'s value (last write wins), and names absent
    /// from `self` are inserted. Means are recomputed from the merged
    /// totals (zero-count spans mean 0). Used to aggregate per-point
    /// sweep reports into one table.
    pub fn merge(&mut self, other: &MetricsReport) {
        tracer::merge_reports(self, other);
    }

    /// A human-readable summary table (what the CLI prints to stderr).
    /// Column widths adapt to the longest instrument name, and the mean
    /// is recomputed from `total_ns / count` (guarded for zero-count
    /// spans) so deserialised reports render consistently.
    pub fn render_table(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        let name_w = self
            .spans
            .iter()
            .map(|s| s.name.len())
            .chain(self.counters.iter().map(|c| c.name.len()))
            .chain(self.gauges.iter().map(|g| g.name.len()))
            .chain(["counter".len()])
            .max()
            .unwrap_or(0)
            .max(4);
        let mut s = String::new();
        if !self.spans.is_empty() {
            let _ = writeln!(
                s,
                "{:<name_w$} {:>8} {:>12} {:>12} {:>10} {:>10} {:>10}",
                "span", "count", "total(ms)", "mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)"
            );
            for sp in &self.spans {
                let mean_ns = if sp.count == 0 {
                    0.0
                } else {
                    sp.total_ns as f64 / sp.count as f64
                };
                let _ = writeln!(
                    s,
                    "{:<name_w$} {:>8} {:>12.3} {:>12.3} {:>10.3} {:>10.3} {:>10.3}",
                    sp.name,
                    sp.count,
                    ms(sp.total_ns),
                    mean_ns / 1e6,
                    ms(sp.p50_ns),
                    ms(sp.p95_ns),
                    ms(sp.p99_ns)
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(s, "{:<name_w$} {:>12}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(s, "{:<name_w$} {:>12}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(s, "{:<name_w$} {:>12}", "gauge", "value");
            for g in &self.gauges {
                let _ = writeln!(s, "{:<name_w$} {:>12.2}", g.name, g.value);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    let c = m.counter("work/items");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(m.report().counter("work/items"), Some(4000));
    }

    #[test]
    fn counter_handle_is_shared_with_registry() {
        let m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        assert_eq!(m.report().counter("x"), Some(7));
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricsRegistry::new();
        m.set_gauge("threads", 4.0);
        m.set_gauge("threads", 8.0);
        assert_eq!(m.report().gauge("threads"), Some(8.0));
    }

    #[test]
    fn spans_nest_by_thread_scope() {
        let m = MetricsRegistry::new();
        {
            let outer = m.span("campaign");
            assert_eq!(outer.path(), "campaign");
            {
                let inner = m.span("simulate");
                assert_eq!(inner.path(), "campaign/simulate");
                let leaf = m.span("sim");
                assert_eq!(leaf.path(), "campaign/simulate/sim");
            }
            let sibling = m.span("kernel");
            assert_eq!(sibling.path(), "campaign/kernel");
        }
        let r = m.report();
        for path in [
            "campaign",
            "campaign/simulate",
            "campaign/simulate/sim",
            "campaign/kernel",
        ] {
            let sp = r.span(path).unwrap_or_else(|| panic!("missing {path}"));
            assert_eq!(sp.count, 1, "{path}");
        }
    }

    #[test]
    fn span_at_ignores_the_open_stack_but_nests_its_children() {
        let m = MetricsRegistry::new();
        let _outer = m.span("campaign");
        let run = m.span_at("run/simulate");
        assert_eq!(run.path(), "run/simulate");
        assert_eq!(m.span("sim").path(), "run/simulate/sim");
        drop(run);
        assert_eq!(m.span("gram").path(), "campaign/gram");
    }

    #[test]
    fn spans_on_other_threads_do_not_inherit_nesting() {
        let m = MetricsRegistry::new();
        let _outer = m.span("campaign");
        std::thread::scope(|s| {
            let m = m.clone();
            s.spawn(move || {
                let sp = m.span("sim");
                assert_eq!(sp.path(), "sim");
            });
        });
        assert!(m.report().span("sim").is_some());
    }

    #[test]
    fn span_statistics_accumulate() {
        let m = MetricsRegistry::new();
        m.record_span("stage", 10);
        m.record_span("stage", 30);
        m.record_span("stage", 20);
        let r = m.report();
        let sp = r.span("stage").unwrap();
        assert_eq!(sp.count, 3);
        assert_eq!(sp.total_ns, 60);
        assert_eq!(sp.min_ns, 10);
        assert_eq!(sp.max_ns, 30);
        assert!((sp.mean_ns - 20.0).abs() < 1e-9);
        assert_eq!(r.span_ending_with("age").map(|s| s.count), Some(3));
    }

    #[test]
    fn report_round_trips_json() {
        let m = MetricsRegistry::new();
        m.counter("a/b").add(7);
        m.set_gauge("g", 1.5);
        m.record_span("s/t", 123);
        let rep = m.report();
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn render_table_mentions_every_instrument() {
        let m = MetricsRegistry::new();
        m.counter("sim/events").add(12);
        m.set_gauge("kernel/threads", 8.0);
        m.record_span("campaign/simulate", 1_000_000);
        let t = m.report().render_table();
        assert!(t.contains("sim/events"));
        assert!(t.contains("kernel/threads"));
        assert!(t.contains("campaign/simulate"));
    }

    #[test]
    fn empty_report_renders_empty() {
        assert!(MetricsRegistry::new().report().render_table().is_empty());
    }

    #[test]
    fn render_table_pads_to_longest_name_and_guards_zero_count_mean() {
        let long = "campaign/kernel/a-very-long-span-path/that-overflows-fixed-columns";
        let rep = MetricsReport {
            counters: vec![],
            gauges: vec![],
            spans: vec![
                SpanSample {
                    name: long.to_string(),
                    count: 0,
                    total_ns: 0,
                    mean_ns: f64::NAN, // hostile deserialised input
                    min_ns: 0,
                    max_ns: 0,
                    p50_ns: 0,
                    p95_ns: 0,
                    p99_ns: 0,
                    hist: vec![],
                },
                SpanSample {
                    name: "sim".to_string(),
                    count: 2,
                    total_ns: 4_000_000,
                    mean_ns: 2_000_000.0,
                    min_ns: 1,
                    max_ns: 3,
                    p50_ns: 1,
                    p95_ns: 3,
                    p99_ns: 3,
                    hist: vec![],
                },
            ],
        };
        let t = rep.render_table();
        assert!(!t.contains("NaN"), "zero-count mean must render as 0:\n{t}");
        // Every row is padded to the same column positions: with equal-width
        // numeric cells, all span rows (and the header) have equal length.
        let lens: Vec<usize> = t.lines().map(str::len).collect();
        assert_eq!(lens.len(), 3);
        assert!(lens.iter().all(|l| *l == lens[0]), "{t}");
    }

    #[test]
    fn attached_tracer_receives_balanced_span_marks() {
        let m = MetricsRegistry::new();
        let sink = MemorySink::new();
        let t = Tracer::new(sink.clone());
        m.attach_tracer(&t);
        {
            let _outer = m.span("campaign");
            let _inner = m.span("simulate");
        }
        t.finish().unwrap();
        let spans = sink.snapshot().matched_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().any(|s| s.path == "campaign"));
        assert!(spans.iter().any(|s| s.path == "campaign/simulate"));
        // The registry's own statistics are unchanged by attaching.
        assert_eq!(
            m.report().span("campaign/simulate").map(|s| s.count),
            Some(1)
        );
    }

    #[test]
    fn spans_without_tracer_emit_nothing() {
        let m = MetricsRegistry::new();
        let _ = m.span("quiet");
        assert!(m.tracer().is_none());
    }

    #[test]
    fn merge_adds_counters_and_span_stats() {
        let a = MetricsRegistry::new();
        a.counter("c").add(3);
        a.record_span("s", 10);
        let b = MetricsRegistry::new();
        b.counter("c").add(4);
        b.counter("only-b").add(1);
        b.record_span("s", 30);
        b.set_gauge("g", 2.0);
        let mut merged = a.report();
        merged.merge(&b.report());
        assert_eq!(merged.counter("c"), Some(7));
        assert_eq!(merged.counter("only-b"), Some(1));
        assert_eq!(merged.gauge("g"), Some(2.0));
        let sp = merged.span("s").unwrap();
        assert_eq!(
            (sp.count, sp.total_ns, sp.min_ns, sp.max_ns),
            (2, 40, 10, 30)
        );
        assert!((sp.mean_ns - 20.0).abs() < 1e-9);
    }
}
