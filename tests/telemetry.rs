//! Tier-1 integration tests of the streaming-telemetry layer (PR 8).
//!
//! Two load-bearing properties. First, the streaming trace sinks are
//! faithful exporters: a streamed Chrome/folded file and the in-memory
//! export of the same campaign's records must contain exactly the same
//! event lines (streaming may only reorder metadata, never change or
//! lose an event). Second, the latency histograms behind every span
//! timer are self-consistent: quantiles are ordered, bounded by the
//! observed maximum, and conserve the span count exactly.

use anacin_obs::{
    hist, ChromeJsonSink, FoldedSink, MemorySink, MetricsRegistry, SharedBuffer, TraceRecord,
    TraceSink, TraceSnapshot, Tracer,
};
use anacin_x::prelude::*;
use std::io;

/// A canonical multiset of a Chrome export's lines: trailing commas
/// stripped (position in the array is formatting, not content), then
/// sorted. Streamed and in-memory exports emit metadata at different
/// points, so only this order-free form is comparable.
fn canonical_lines(doc: &str) -> Vec<String> {
    let mut lines: Vec<String> = doc
        .lines()
        .map(|l| l.trim_end_matches(',').to_string())
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

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
/// export and its in-memory reference.
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

/// One campaign's streamed Chrome document and its in-memory reference.
fn streamed_campaign(pattern: Pattern, procs: u32, runs: u32) -> (String, TraceSnapshot) {
    let cfg = CampaignConfig::new(pattern, procs).runs(runs);
    let buf = SharedBuffer::new();
    let sink = ChromeJsonSink::new(buf.clone(), true).expect("sink header");
    let snap = teed_campaign(&cfg, sink);
    (buf.contents(), snap)
}

#[test]
fn streamed_chrome_export_matches_snapshot_on_every_tier1_pattern() {
    for pattern in Pattern::ALL {
        let (streamed, snap) = streamed_campaign(pattern, 8, 4);
        let snapshot = snap.chrome_trace(true);
        assert_eq!(
            canonical_lines(&streamed),
            canonical_lines(&snapshot),
            "{pattern}: streamed and snapshot Chrome exports diverged"
        );
    }
}

#[test]
fn streamed_folded_export_is_byte_identical_to_snapshot() {
    let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(4);
    let buf = SharedBuffer::new();
    let snap = teed_campaign(&cfg, FoldedSink::new(buf.clone()));
    // Folded output is derived entirely from span marks at finish time,
    // so it is byte-identical, not merely canonically equal.
    assert_eq!(buf.contents(), snap.folded_stacks());
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

#[test]
fn merged_report_percentiles_come_from_merged_histograms() {
    let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(4);
    let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
    streamed(&cfg, &a, None);
    streamed(&cfg, &b, None);
    let (ra, rb) = (a.report(), b.report());
    let mut merged = ra.clone();
    merged.merge(&rb);
    for span in &merged.spans {
        let (ca, cb) = (
            ra.span(&span.name).map(|s| s.count).unwrap_or(0),
            rb.span(&span.name).map(|s| s.count).unwrap_or(0),
        );
        assert_eq!(span.count, ca + cb, "{}: merge lost intervals", span.name);
        let bucket_total: u64 = span.hist.iter().map(|b| b.n).sum();
        assert_eq!(
            bucket_total, span.count,
            "{}: merged histogram lost observations",
            span.name
        );
        assert!(span.p50_ns <= span.p95_ns && span.p95_ns <= span.p99_ns);
        assert!(span.p99_ns <= span.max_ns);
    }
}
