//! Live progress: one sample definition and one sampling thread for
//! every mode that reports how far a job is.
//!
//! The primitive is [`MetricsReport::delta_since`]: two point-in-time
//! reports subtract into the report of what happened *this interval* —
//! what a sweep attributes to each of its points and to itself. A
//! [`Progress`] is read from two such snapshots: runs done of total
//! (the [`RUNS_DONE`] counter), events simulated, the event rate and the
//! hottest stage over the interval, and a linear ETA. Its `Display` is
//! the status line that `run --progress` rewrites on stderr and `anacin
//! client` prints once per `Progress` frame; the daemon sends its fields
//! as that frame. A [`Sampler`] thread hands the caller one sample per
//! interval.
//!
//! Everything here is observability-only: the sampler reads the registry
//! and calls the caller's closure; it cannot perturb a measurement.

use crate::hist::{bucket_lower_bound, percentiles_sparse, subtract_sparse};
use crate::{CounterSample, MetricsRegistry, MetricsReport, SpanSample};
use std::fmt;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The counter the campaign engine bumps once per finished run, whether
/// its artifacts were read from a store or computed.
pub const RUNS_DONE: &str = "campaign/runs_done";

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

/// How far a job is: one sample of its registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Progress {
    /// Runs finished: the [`RUNS_DONE`] counter, so stored runs count as
    /// done.
    pub done_runs: u64,
    /// Runs the job will execute.
    pub total_runs: u64,
    /// Events simulated so far (`sim/events`).
    pub events: u64,
    /// Events simulated per second over the last interval.
    pub event_rate: f64,
    /// The span that took the most wall time over the last interval
    /// (empty when none closed).
    pub hottest: String,
    /// Remaining milliseconds at the pace so far; absent until a run has
    /// finished, and once every run has.
    pub eta_ms: Option<u64>,
}

impl Progress {
    /// The sample of `now` against `prev`, a snapshot of the same registry
    /// taken `interval` earlier, for a job of `total_runs` runs that
    /// started `elapsed` ago.
    pub fn between(
        now: &MetricsReport,
        prev: &MetricsReport,
        total_runs: u64,
        interval: Duration,
        elapsed: Duration,
    ) -> Progress {
        let delta = now.delta_since(prev);
        let done_runs = now.counter(RUNS_DONE).unwrap_or(0).min(total_runs);
        let secs = interval.as_secs_f64();
        let event_rate = match delta.counter("sim/events") {
            Some(n) if secs > 0.0 => n as f64 / secs,
            _ => 0.0,
        };
        let hottest = delta
            .spans
            .iter()
            .max_by_key(|s| s.total_ns)
            .map(|s| s.name.clone())
            .unwrap_or_default();
        let eta_ms = (done_runs > 0 && done_runs < total_runs).then(|| {
            let left = (total_runs - done_runs) as f64 / done_runs as f64;
            (elapsed.as_secs_f64() * left * 1e3) as u64
        });
        Progress {
            done_runs,
            total_runs,
            events: now.counter("sim/events").unwrap_or(0),
            event_rate,
            hottest,
            eta_ms,
        }
    }
}

/// The status line: `[4/16 runs] 1.2M events (150k/s) · run/simulate ·
/// ETA 24s`, without the stage when none closed and without the ETA when
/// there is none.
impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{} runs] {} events ({}/s)",
            self.done_runs,
            self.total_runs,
            compact(self.events),
            compact(self.event_rate as u64)
        )?;
        if !self.hottest.is_empty() {
            write!(f, " · {}", self.hottest)?;
        }
        if let Some(ms) = self.eta_ms {
            write!(f, " · ETA {:.0}s", ms as f64 / 1e3)?;
        }
        Ok(())
    }
}

/// A thread that hands the caller a [`Progress`] sample of one registry
/// every interval, until [`Sampler::finish`] or until the caller's
/// closure returns `false`.
pub struct Sampler {
    /// Never sent on: dropping it wakes the thread at once.
    stop: Sender<()>,
    thread: JoinHandle<()>,
}

impl Sampler {
    /// Sample `registry`, for a job of `total_runs` runs, every
    /// `interval`, the first time one interval from now, and hand each
    /// sample to `on_sample`; returning `false` stops the sampling.
    pub fn start(
        registry: &MetricsRegistry,
        total_runs: u64,
        interval: Duration,
        mut on_sample: impl FnMut(Progress) -> bool + Send + 'static,
    ) -> Sampler {
        let (stop, stopped) = mpsc::channel::<()>();
        let reg = registry.clone();
        let thread = std::thread::Builder::new()
            .name("anacin-progress".to_string())
            .spawn(move || {
                let start = Instant::now();
                let (mut prev, mut taken) = (reg.report(), start);
                while stopped.recv_timeout(interval.saturating_sub(taken.elapsed()))
                    == Err(RecvTimeoutError::Timeout)
                {
                    let now = reg.report();
                    let at = Instant::now();
                    let sample = Progress::between(&now, &prev, total_runs, at - taken, at - start);
                    (prev, taken) = (now, at);
                    if !on_sample(sample) {
                        break;
                    }
                }
            })
            .expect("spawn progress sampler");
        Sampler { stop, thread }
    }

    /// Stop sampling and join the thread: no sample is handed out after
    /// this returns, and it does not wait for the next interval.
    pub fn finish(self) {
        drop(self.stop);
        // A panicked closure costs only its samples.
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    /// `n` finished runs, as the engine counts them.
    fn finish_runs(m: &MetricsRegistry, n: u64) {
        m.counter(RUNS_DONE).add(n);
    }

    #[test]
    fn progress_line_reports_runs_events_stage_and_eta() {
        let m = MetricsRegistry::new();
        m.counter("sim/events").add(200_000);
        let prev = m.report();
        finish_runs(&m, 4);
        m.counter("sim/events").add(1_000_000);
        m.record_span("run/simulate", 900);
        let now = m.report();
        let p = Progress::between(
            &now,
            &prev,
            16,
            Duration::from_secs(2),
            Duration::from_secs(8),
        );
        assert_eq!((p.done_runs, p.total_runs, p.events), (4, 16, 1_200_000));
        assert_eq!(p.event_rate, 500_000.0, "the rate is the interval's");
        assert_eq!(p.eta_ms, Some(24_000));
        assert_eq!(
            p.to_string(),
            "[4/16 runs] 1.2M events (500k/s) · run/simulate · ETA 24s"
        );
    }

    #[test]
    fn progress_line_omits_eta_when_done_or_idle() {
        let m = MetricsRegistry::new();
        let idle = Progress::between(&m.report(), &m.report(), 8, Duration::ZERO, Duration::ZERO);
        assert_eq!(idle.to_string(), "[0/8 runs] 0 events (0/s)");
        finish_runs(&m, 8);
        let r = m.report();
        let done = Progress::between(&r, &r, 8, Duration::from_secs(1), Duration::from_secs(1));
        assert_eq!(done.to_string(), "[8/8 runs] 0 events (0/s)");
    }

    /// A warm job reads every run's artifacts from the store and
    /// simulates nothing: its ten counted runs are ten runs done.
    #[test]
    fn stored_runs_count_as_done() {
        let m = MetricsRegistry::new();
        let prev = m.report();
        finish_runs(&m, 10);
        let p = Progress::between(
            &m.report(),
            &prev,
            10,
            Duration::from_secs(1),
            Duration::from_secs(1),
        );
        assert_eq!(m.report().counter("sim/runs"), None);
        assert!(p.to_string().starts_with("[10/10 runs]"), "{p}");
        assert_eq!(p.eta_ms, None);
    }

    #[test]
    fn reporter_starts_and_stops_cleanly() {
        let m = MetricsRegistry::new();
        let (tx, samples) = mpsc::channel();
        let s = Sampler::start(&m, 4, Duration::from_millis(10), move |p| {
            tx.send(p).is_ok()
        });
        finish_runs(&m, 2);
        let p = samples.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(p.total_runs, 4);
        s.finish();
    }

    #[test]
    fn no_sample_follows_finish() {
        let m = MetricsRegistry::new();
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let s = Sampler::start(&m, 4, Duration::from_millis(1), move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
            true
        });
        while count.load(Ordering::SeqCst) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        s.finish();
        let after = count.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), after);
    }

    #[test]
    fn finish_does_not_wait_for_the_next_interval() {
        let m = MetricsRegistry::new();
        let s = Sampler::start(&m, 4, Duration::from_secs(60), |_| {
            panic!("no sample is due within a minute")
        });
        let asked = Instant::now();
        s.finish();
        assert!(
            asked.elapsed() < Duration::from_secs(5),
            "{:?}",
            asked.elapsed()
        );
    }

    #[test]
    fn a_closure_returning_false_stops_the_sampler() {
        let m = MetricsRegistry::new();
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let s = Sampler::start(&m, 4, Duration::from_millis(1), move |_| {
            seen.fetch_add(1, Ordering::SeqCst);
            false
        });
        let asked = Instant::now();
        while !s.thread.is_finished() {
            assert!(asked.elapsed() < Duration::from_secs(60), "still sampling");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
        s.finish();
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
