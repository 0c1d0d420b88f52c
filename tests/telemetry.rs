//! Tier-1 integration tests of the streaming-telemetry layer (PR 8).
//!
//! Two load-bearing properties. First, the streaming Chrome sink is a
//! faithful exporter: its file, read back through `anacin_obs::view`,
//! holds exactly the tracks, span totals and track metadata of the
//! records a memory sink got from the same campaign. Second, the latency
//! histograms behind every span timer are self-consistent: quantiles are
//! ordered, bounded by the observed maximum, and conserve the span count
//! exactly, in a registry's report and in a sweep's aggregate.

use anacin_obs::view::ChromeView;
use anacin_obs::{
    hist, ChromeJsonSink, MemorySink, MetricsRegistry, SharedBuffer, SimEvent, TraceRecord,
    TraceSink, TraceSnapshot, Tracer,
};
use anacin_x::prelude::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;

/// A campaign recording into `metrics` and, optionally, `tracer`.
fn streamed(cfg: &CampaignConfig, metrics: &MetricsRegistry, tracer: Option<&Tracer>) {
    let ctx = RunCtx {
        metrics: Some(metrics),
        tracer,
        ..RunCtx::default()
    };
    run_campaign_with(cfg, &ctx).expect("campaign");
}

/// Hands every record to both sinks, so one campaign yields a streamed
/// file and the records it was written from.
struct Tee<A, B>(A, B);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
        self.0.accept(record)?;
        self.1.accept(record)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.0.finish()?;
        self.1.finish()
    }
}

/// Trace one campaign, spans included, into `sink` and a memory sink at
/// once; return what the memory sink held once the tracer finished.
fn teed_campaign(cfg: &CampaignConfig, sink: impl TraceSink + 'static) -> TraceSnapshot {
    let memory = MemorySink::new();
    let tracer = Tracer::new(Tee(sink, memory.clone()));
    let reg = MetricsRegistry::new();
    reg.attach_tracer(&tracer);
    streamed(cfg, &reg, Some(&tracer));
    let written = tracer.finish().expect("finish trace");
    let snap = memory.snapshot();
    assert_eq!(written, (snap.sim.len() + snap.spans.len()) as u64);
    snap
}

/// One campaign's streamed Chrome document and the records it holds.
fn streamed_campaign(pattern: Pattern, procs: u32, runs: u32) -> (String, TraceSnapshot) {
    let cfg = CampaignConfig::new(pattern, procs).runs(runs);
    let buf = SharedBuffer::new();
    let sink = ChromeJsonSink::new(buf.clone()).expect("sink header");
    let snap = teed_campaign(&cfg, sink);
    (buf.contents(), snap)
}

/// `key` of a JSON object; `Null` when absent.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    static NULL: Value = Value::Null;
    let found = v.as_object().and_then(|o| o.iter().find(|(k, _)| k == key));
    found.map_or(&NULL, |(_, v)| v)
}

/// A Chrome document read back through the view, one event line at a
/// time, with every metadata event as `(name, pid, tid, label)`.
fn read_back(doc: &str) -> (ChromeView, Vec<(String, i128, i128, String)>) {
    let mut view = ChromeView::default();
    let mut meta = Vec::new();
    for body in doc.lines().filter_map(ChromeView::event_line) {
        let ev = serde_json::from_str_value(body).expect("event line parses");
        if field(&ev, "ph").as_str() == Some("M") {
            let text = |v: &Value| v.as_str().expect("metadata string").to_string();
            meta.push((
                text(field(&ev, "name")),
                field(&ev, "pid").as_int().expect("pid"),
                field(&ev, "tid").as_int().expect("tid"),
                text(field(field(&ev, "args"), "name")),
            ));
        }
        view.add(&ev);
    }
    (view, meta)
}

#[test]
fn streamed_chrome_export_matches_snapshot_on_every_tier1_pattern() {
    for pattern in Pattern::ALL {
        let (doc, snap) = streamed_campaign(pattern, 8, 4);
        let (view, meta) = read_back(&doc);
        // Each (run, rank) track: its event count, first and last
        // timestamp.
        let us = |e: &SimEvent| e.t_ns as f64 / 1e3;
        let expected: Vec<(i128, i128, usize, f64, f64)> = snap
            .sim
            .chunk_by(|a, b| (a.run, a.rank) == (b.run, b.rank))
            .map(|t| {
                let last = &t[t.len() - 1];
                (
                    t[0].run.into(),
                    t[0].rank.into(),
                    t.len(),
                    us(&t[0]),
                    us(last),
                )
            })
            .collect();
        let tracks: Vec<(i128, i128, usize, f64, f64)> = view
            .tracks()
            .iter()
            .map(|t| (t.run, t.rank, t.count, t.min_ts, t.max_ts))
            .collect();
        assert_eq!(tracks, expected, "{pattern}: tracks");
        // Each span path: its count and total duration.
        let mut spans: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in snap.matched_spans() {
            let path = spans.entry(s.path).or_default();
            path.0 += 1;
            path.1 += s.end_ns - s.begin_ns;
        }
        let totals = view.span_totals();
        assert!(!totals.is_empty(), "{pattern}: no spans");
        assert_eq!(totals.len(), spans.len(), "{pattern}: span paths");
        for (path, count, total_us) in totals {
            let (n, ns) = spans[&path];
            assert_eq!(count, n, "{pattern} {path}: span count");
            let off = (total_us * 1e3 - ns as f64).abs();
            assert!(
                off < 1e-3 * n as f64,
                "{pattern} {path}: {total_us} µs vs {ns} ns"
            );
        }
        // Each run's and each rank's metadata line appears once.
        let mut sim_meta = 0;
        for t in snap.sim.chunk_by(|a, b| a.run == b.run) {
            let (run, seed) = (t[0].run, t[0].seed);
            let label = format!("sim run {run} (seed {seed})");
            let procs: Vec<_> = meta.iter().filter(|m| m.3 == label).collect();
            assert_eq!(procs.len(), 1, "{pattern}: {label}");
            let pid = procs[0].1;
            for r in t.chunk_by(|a, b| a.rank == b.rank) {
                let rank = i128::from(r[0].rank);
                let track = ("thread_name".to_string(), pid, rank, format!("rank {rank}"));
                let n = meta.iter().filter(|m| **m == track).count();
                assert_eq!(n, 1, "{pattern}: run {run} rank {rank}");
                sim_meta += 1;
            }
            sim_meta += 1;
        }
        let pipeline = meta.iter().filter(|m| m.1 == 1).count();
        assert_eq!(meta.len(), sim_meta + pipeline, "{pattern}: {meta:?}");
    }
}

#[test]
fn streamed_export_conserves_sim_event_count() {
    let (streamed, snap) = streamed_campaign(Pattern::Amg2013, 8, 3);
    let streamed_sim = streamed
        .lines()
        .filter(|l| l.contains("\"cat\":\"sim\""))
        .count();
    assert_eq!(streamed_sim, snap.sim.len());
    let plain = run_campaign(&CampaignConfig::new(Pattern::Amg2013, 8).runs(3)).expect("campaign");
    assert_eq!(snap.sim.len() as u64, plain.total_events);
}

#[test]
fn span_histograms_are_ordered_bounded_and_conserve_counts() {
    let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(6);
    let reg = MetricsRegistry::new();
    streamed(&cfg, &reg, None);
    let report = reg.report();
    assert!(!report.spans.is_empty(), "campaign produced no spans");
    for span in &report.spans {
        assert!(
            span.p50_ns <= span.p95_ns && span.p95_ns <= span.p99_ns,
            "{}: quantiles out of order ({} / {} / {})",
            span.name,
            span.p50_ns,
            span.p95_ns,
            span.p99_ns
        );
        assert!(
            span.p99_ns <= span.max_ns,
            "{}: p99 {} above max {}",
            span.name,
            span.p99_ns,
            span.max_ns
        );
        assert!(
            span.p50_ns >= hist::bucket_lower_bound(hist::bucket_index(span.min_ns)),
            "{}: p50 {} below min bucket of {}",
            span.name,
            span.p50_ns,
            span.min_ns
        );
        let bucket_total: u64 = span.hist.iter().map(|b| b.n).sum();
        assert_eq!(
            bucket_total, span.count,
            "{}: histogram lost observations",
            span.name
        );
    }
}

/// A sweep's aggregate merges its points: the same counters and spans,
/// counter values, span counts and `total_ns` adding up, and quantiles
/// read from the summed histogram. What the registry held before the
/// sweep is not the sweep's.
#[test]
fn merged_report_percentiles_come_from_merged_histograms() {
    let base = CampaignConfig::new(Pattern::MessageRace, 8).runs(4);
    let reg = MetricsRegistry::new();
    reg.counter("before/sweep").add(5);
    let ctx = RunCtx {
        metrics: Some(&reg),
        ..RunCtx::default()
    };
    let metrics = sweep(SweepAxis::NdPercent, &base, &[0.0, 50.0, 100.0], &ctx)
        .expect("sweep")
        .metrics
        .expect("a registry yields sweep metrics");
    let (aggregate, points) = (&metrics.aggregate, &metrics.points);
    for p in points {
        let r = &p.report;
        assert!(r
            .counters
            .iter()
            .all(|c| aggregate.counter(&c.name).is_some()));
        assert!(r.spans.iter().all(|s| aggregate.span(&s.name).is_some()));
    }
    assert!(aggregate.counter("before/sweep").is_none());
    for c in &aggregate.counters {
        let sum: u64 = points
            .iter()
            .filter_map(|p| p.report.counter(&c.name))
            .sum();
        assert_eq!(c.value, sum, "{}: counter", c.name);
    }
    for span in &aggregate.spans {
        let (count, total_ns) = points
            .iter()
            .filter_map(|p| p.report.span(&span.name))
            .fold((0, 0), |(n, t), s| (n + s.count, t + s.total_ns));
        assert_eq!(
            (span.count, span.total_ns),
            (count, total_ns),
            "{}",
            span.name
        );
        let bucket_total: u64 = span.hist.iter().map(|b| b.n).sum();
        assert_eq!(bucket_total, span.count, "{}: histogram", span.name);
        assert!(span.p50_ns <= span.p95_ns && span.p95_ns <= span.p99_ns);
        assert!(span.p99_ns <= span.max_ns);
    }
}
