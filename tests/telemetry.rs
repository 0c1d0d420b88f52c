//! Tier-1 integration tests of the streaming-telemetry layer (PR 8).
//!
//! Two load-bearing properties. First, the incremental trace sink is a
//! faithful exporter: a streamed Chrome/folded file and the snapshot
//! export of the same campaign must contain exactly the same event
//! lines (streaming may only reorder metadata, never change or lose an
//! event). Second, the latency histograms behind every span timer are
//! self-consistent: quantiles are ordered, bounded by the observed
//! maximum, and conserve the span count exactly.

use anacin_obs::{hist, ChromeJsonSink, FoldedSink, MetricsRegistry, SharedBuffer, Tracer};
use anacin_x::prelude::*;

/// A canonical multiset of a Chrome export's lines: trailing commas
/// stripped (position in the array is formatting, not content), then
/// sorted. Streamed and snapshot exports emit metadata at different
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

/// A streaming campaign recording into `metrics` and, optionally, `tracer`.
fn streamed(cfg: &CampaignConfig, metrics: &MetricsRegistry, tracer: Option<&Tracer>) {
    let ctx = RunCtx {
        metrics: Some(metrics),
        tracer,
        ..RunCtx::default()
    };
    run_campaign_streaming_with(cfg, &ctx).expect("campaign");
}

/// Run one streaming campaign with a Chrome sink attached; return the
/// streamed document and the tracer (whose ring still holds every
/// record — draining never removes, so the snapshot export remains the
/// independent reference).
fn streamed_campaign(pattern: Pattern, procs: u32, runs: u32) -> (String, Tracer) {
    let cfg = CampaignConfig::new(pattern, procs).runs(runs);
    let tracer = Tracer::with_capacity(1 << 16);
    let reg = MetricsRegistry::new();
    reg.attach_tracer(&tracer);
    let buf = SharedBuffer::new();
    let sink = ChromeJsonSink::new(buf.clone(), true).expect("sink header");
    tracer.attach_sink(Box::new(sink));
    streamed(&cfg, &reg, Some(&tracer));
    let stats = tracer.finish_sink().expect("finish sink");
    assert_eq!(stats.lost, 0, "{pattern}: ring overflowed during test");
    assert_eq!(stats.pending, 0, "{pattern}: finish left records behind");
    (buf.contents(), tracer)
}

#[test]
fn streamed_chrome_export_matches_snapshot_on_every_tier1_pattern() {
    for pattern in Pattern::ALL {
        let (streamed, tracer) = streamed_campaign(pattern, 8, 4);
        let snapshot = tracer.snapshot().chrome_trace(true);
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
    let tracer = Tracer::with_capacity(1 << 16);
    let reg = MetricsRegistry::new();
    reg.attach_tracer(&tracer);
    let buf = SharedBuffer::new();
    tracer.attach_sink(Box::new(FoldedSink::new(buf.clone())));
    streamed(&cfg, &reg, Some(&tracer));
    tracer.finish_sink().expect("finish sink");
    // Folded output is derived entirely from span marks at finish time,
    // so it is byte-identical, not merely canonically equal.
    assert_eq!(buf.contents(), tracer.snapshot().folded_stacks());
}

#[test]
fn streamed_export_conserves_sim_event_count() {
    let (streamed, tracer) = streamed_campaign(Pattern::Amg2013, 8, 3);
    let snap = tracer.snapshot();
    let streamed_sim = streamed
        .lines()
        .filter(|l| l.contains("\"cat\":\"sim\""))
        .count();
    assert_eq!(snap.dropped, 0);
    assert_eq!(streamed_sim, snap.sim.len());
    assert_eq!(snap.recorded, (snap.sim.len() + snap.spans.len()) as u64);
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
