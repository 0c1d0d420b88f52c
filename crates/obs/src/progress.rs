//! Live progress reporting: periodic registry snapshots, deltas between
//! them, and a one-line stderr renderer.
//!
//! The primitive is [`MetricsReport::delta_since`]: two point-in-time
//! reports subtract into the report of what happened *this interval* —
//! what `anacin serve` streams to clients and what a sweep attributes to
//! each of its points. The CLI's `--progress` flag drives the same
//! machinery locally: a [`ProgressReporter`] thread snapshots the
//! registry a few times a second and rewrites one stderr status line
//! (runs done, events simulated, the currently hottest stage, ETA).
//!
//! Everything here is observability-only: the reporter thread reads the
//! registry and writes stderr; it cannot perturb a measurement.

use crate::hist::{bucket_lower_bound, percentiles_sparse, subtract_sparse};
use crate::{CounterSample, MetricsRegistry, MetricsReport, SpanSample};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl MetricsReport {
    /// What happened between `prev` (an earlier snapshot of the same
    /// registry) and `self`, as a report of its own: counter values are
    /// increments, span counts, totals and histograms are the interval's,
    /// and the interval's quantiles, min and max are read back from its
    /// histogram (bucket precision, ≤ ~3.2%). Gauges carry their latest
    /// value. Instruments that did not change are omitted, so an idle
    /// interval serialises to almost nothing.
    pub fn delta_since(&self, prev: &MetricsReport) -> MetricsReport {
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let before = prev.counter(&c.name).unwrap_or(0);
                let diff = c.value.saturating_sub(before);
                (diff > 0).then(|| CounterSample {
                    name: c.name.clone(),
                    value: diff,
                })
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let p = prev.span(&s.name);
                let count = s.count.saturating_sub(p.map_or(0, |p| p.count));
                let total_ns = s.total_ns.saturating_sub(p.map_or(0, |p| p.total_ns));
                if count == 0 && total_ns == 0 {
                    return None;
                }
                let hist = subtract_sparse(&s.hist, p.map_or(&[], |p| &p.hist));
                let (p50_ns, p95_ns, p99_ns) = percentiles_sparse(&hist);
                let bound = |b: Option<&crate::HistBucket>| {
                    b.map_or(0, |b| bucket_lower_bound(b.i as usize))
                };
                Some(SpanSample {
                    name: s.name.clone(),
                    count,
                    total_ns,
                    mean_ns: if count == 0 {
                        0.0
                    } else {
                        total_ns as f64 / count as f64
                    },
                    min_ns: bound(hist.first()),
                    max_ns: bound(hist.last()),
                    p50_ns,
                    p95_ns,
                    p99_ns,
                    hist,
                })
            })
            .collect();
        MetricsReport {
            counters,
            gauges: self.gauges.clone(),
            spans,
        }
    }
}

/// Format `n` with a compact magnitude suffix (`1.2M`, `340k`).
fn compact(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Render one status line from a cumulative report plus the latest
/// interval delta. Pure, so the format is unit-testable: runs done out
/// of `total_runs` (from the `sim/runs` counter), events simulated with
/// the current rate, the span that consumed the most wall time this
/// interval, and a linear ETA once at least one run has finished.
pub fn render_progress_line(
    report: &MetricsReport,
    delta: &MetricsReport,
    total_runs: u64,
    elapsed: Duration,
) -> String {
    let done = report.counter("sim/runs").unwrap_or(0).min(total_runs);
    let events = report.counter("sim/events").unwrap_or(0);
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        format!(" ({}/s)", compact((events as f64 / secs) as u64))
    } else {
        String::new()
    };
    let stage = delta
        .spans
        .iter()
        .max_by_key(|s| s.total_ns)
        .map(|s| format!(" · {}", s.name))
        .unwrap_or_default();
    let eta = if done > 0 && done < total_runs {
        let remaining = secs * (total_runs - done) as f64 / done as f64;
        format!(" · ETA {remaining:.0}s")
    } else {
        String::new()
    };
    format!(
        "[{done}/{total_runs} runs] {} events{rate}{stage}{eta}",
        compact(events)
    )
}

/// A background thread that renders [`render_progress_line`] onto one
/// `\r`-rewritten stderr line every `interval` until finished or
/// dropped.
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressReporter {
    /// Start reporting on `registry`. `total_runs` scales the run
    /// counter and the ETA.
    pub fn start(registry: &MetricsRegistry, total_runs: u64, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let reg = registry.clone();
        let handle = std::thread::Builder::new()
            .name("anacin-progress".to_string())
            .spawn(move || {
                let started = Instant::now();
                let mut prev = reg.report();
                let mut last_len = 0usize;
                let tick = Duration::from_millis(25).min(interval);
                let mut since_render = interval; // render immediately
                while !flag.load(Ordering::Relaxed) {
                    if since_render >= interval {
                        since_render = Duration::ZERO;
                        let cur = reg.report();
                        let delta = cur.delta_since(&prev);
                        let line =
                            render_progress_line(&cur, &delta, total_runs, started.elapsed());
                        // Pad with spaces so a shorter line fully
                        // overwrites the previous one (no ANSI needed).
                        let pad = last_len.saturating_sub(line.len());
                        last_len = line.len();
                        eprint!("\r{line}{}", " ".repeat(pad));
                        let _ = std::io::stderr().flush();
                        prev = cur;
                    }
                    std::thread::sleep(tick);
                    since_render += tick;
                }
                if last_len > 0 {
                    // Clear the status line so final output starts clean.
                    eprint!("\r{}\r", " ".repeat(last_len));
                    let _ = std::io::stderr().flush();
                }
            })
            .expect("spawn progress reporter");
        ProgressReporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the reporter and clear the status line.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_keeps_only_what_changed() {
        let m = MetricsRegistry::new();
        m.counter("sim/events").add(10);
        m.counter("idle").add(5);
        m.record_span("stage", 100);
        let before = m.report();
        m.counter("sim/events").add(32);
        m.record_span("stage", 300);
        m.record_span("fresh", 50);
        let after = m.report();
        let d = after.delta_since(&before);
        assert_eq!(
            d.counters
                .iter()
                .map(|c| (c.name.as_str(), c.value))
                .collect::<Vec<_>>(),
            vec![("sim/events", 32)]
        );
        let stage = d.spans.iter().find(|s| s.name == "stage").unwrap();
        assert_eq!((stage.count, stage.total_ns), (1, 300));
        let fresh = d.spans.iter().find(|s| s.name == "fresh").unwrap();
        assert_eq!((fresh.count, fresh.total_ns), (1, 50));
        assert_eq!(d.spans.len(), 2);
    }

    #[test]
    fn delta_of_identical_reports_is_empty() {
        let m = MetricsRegistry::new();
        m.counter("c").add(3);
        m.record_span("s", 10);
        let r = m.report();
        let d = r.delta_since(&r);
        assert!(d.counters.is_empty());
        assert!(d.spans.is_empty());
    }

    #[test]
    fn delta_serialises() {
        let m = MetricsRegistry::new();
        m.counter("c").add(3);
        let d = m.report().delta_since(&MetricsReport::default());
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
    }

    #[test]
    fn progress_line_reports_runs_events_stage_and_eta() {
        let m = MetricsRegistry::new();
        m.counter("sim/runs").add(4);
        m.counter("sim/events").add(1_200_000);
        m.record_span("campaign/simulate", 900);
        m.record_span("campaign/kernel", 100);
        let report = m.report();
        let delta = report.delta_since(&MetricsReport::default());
        let line = render_progress_line(&report, &delta, 16, Duration::from_secs(8));
        assert!(line.starts_with("[4/16 runs]"), "{line}");
        assert!(line.contains("1.2M events"), "{line}");
        assert!(line.contains("campaign/simulate"), "{line}");
        assert!(line.contains("ETA 24s"), "{line}");
    }

    #[test]
    fn progress_line_omits_eta_when_done_or_idle() {
        let m = MetricsRegistry::new();
        let report = m.report();
        let delta = MetricsReport::default();
        let idle = render_progress_line(&report, &delta, 8, Duration::from_secs(1));
        assert!(idle.starts_with("[0/8 runs]"), "{idle}");
        assert!(!idle.contains("ETA"), "{idle}");
        m.counter("sim/runs").add(8);
        let done = render_progress_line(&m.report(), &delta, 8, Duration::from_secs(1));
        assert!(done.starts_with("[8/8 runs]"), "{done}");
        assert!(!done.contains("ETA"), "{done}");
    }

    #[test]
    fn reporter_starts_and_stops_cleanly() {
        let m = MetricsRegistry::new();
        let p = ProgressReporter::start(&m, 4, Duration::from_millis(10));
        m.counter("sim/runs").add(2);
        std::thread::sleep(Duration::from_millis(30));
        p.finish();
    }

    /// Two jobs hammering the same registry while a third thread
    /// snapshots it: every delta must stay non-negative (counters are
    /// monotone, so `delta_since` with a saturating subtraction can
    /// never go below zero even when a snapshot races a writer), and
    /// the deltas must add up to exactly what was written — no
    /// increment lost, none double-counted.
    #[test]
    fn delta_since_is_safe_under_two_concurrent_writers() {
        const PER_WRITER: u64 = 20_000;
        let m = MetricsRegistry::new();
        let mut prev = m.report();
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let c = m.counter("sim/events");
                std::thread::spawn(move || {
                    for _ in 0..PER_WRITER {
                        c.add(1);
                    }
                })
            })
            .collect();
        let mut total: u64 = 0;
        loop {
            let now = m.report();
            let delta = now.delta_since(&prev);
            for c in &delta.counters {
                assert!(
                    c.value <= 2 * PER_WRITER,
                    "delta {}={} exceeds everything ever written: underflow",
                    c.name,
                    c.value
                );
                total += c.value;
            }
            let done = writers.iter().all(|w| w.is_finished());
            prev = now;
            if done {
                break;
            }
            std::thread::yield_now();
        }
        // One final snapshot after both writers joined.
        for w in writers {
            w.join().unwrap();
        }
        let delta = m.report().delta_since(&prev);
        for c in &delta.counters {
            total += c.value;
        }
        assert_eq!(
            total,
            2 * PER_WRITER,
            "interval deltas must sum to the total"
        );
    }
}
