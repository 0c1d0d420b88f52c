//! The large-scale baseline tier: HPC-realistic campaign sizes.
//!
//! Where [`crate::baseline`] measures the paper-scale pipeline (32 procs,
//! every pattern, both kernel schedules, store passes), this tier answers
//! a different question: does one campaign at 1024 ranks and tens of
//! millions of events complete end-to-end, in what time per stage, and
//! within what peak memory? It runs the campaign once, which frees each
//! run inside its worker, reads the stage split from the campaign's own
//! spans, and reads the process peak RSS from `/proc/self/status`
//! (`VmHWM`) on platforms that have it.
//!
//! `anacin bench large` writes the report as `BENCH_large.json`; the
//! nightly CI job uploads it.

use crate::baseline::span_ms;
use anacin_core::prelude::*;
use anacin_miniapps::Pattern;
use anacin_obs::MetricsRegistry;
use serde::Serialize;
use std::time::Instant;

/// Peak resident set size of this process (`VmHWM`), in MiB. `None` when
/// `/proc/self/status` is unavailable (non-Linux) or unparsable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024.0);
        }
    }
    None
}

/// Reset the kernel's peak-RSS watermark so a following [`peak_rss_mib`]
/// measures only the section in between. Best-effort: returns false when
/// `/proc/self/clear_refs` is absent or not writable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Shape of the large-scale tier.
#[derive(Debug, Clone)]
pub struct LargeScaleConfig {
    /// Simulated process count (the tier's reason to exist: 1024).
    pub procs: u32,
    /// Runs per campaign.
    pub runs: u32,
    /// Mini-app iterations per run.
    pub iterations: u32,
    /// Seed of the first run.
    pub base_seed: u64,
}

impl Default for LargeScaleConfig {
    fn default() -> Self {
        LargeScaleConfig {
            // amg2013 at these settings is ~4.2M events per run, ~12.6M
            // per campaign — comfortably past the tens-of-millions bar
            // while keeping the nightly job under a couple of minutes.
            procs: 1024,
            runs: 3,
            iterations: 1,
            base_seed: 1,
        }
    }
}

/// Per-pattern timings of the large tier, in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct LargeStageTimings {
    /// The mini-app pattern measured.
    pub pattern: String,
    /// Simulation time of the campaign, summed over the worker threads
    /// (`run/simulate`).
    pub simulate_ms: f64,
    /// Event-graph construction time of the campaign, summed over the
    /// worker threads (`run/graph`).
    pub graph_ms: f64,
    /// WL feature-extraction time of the campaign, summed over the worker
    /// threads (`run/features`).
    pub features_ms: f64,
    /// Wall-time of the Gram stage over the full campaign's features.
    pub gram_ms: f64,
    /// End-to-end wall-time of the full campaign.
    pub campaign_ms: f64,
    /// Simulated trace events across the whole campaign.
    pub events: u64,
    /// Event-graph nodes across the whole campaign.
    pub nodes: u64,
    /// Kernel dot products of the campaign's Gram stage.
    pub dot_products: u64,
    /// Peak RSS (MiB) observed across the campaign. `None` off Linux and
    /// wherever the watermark could not be reset beforehand, since the
    /// figure would then include everything that ran earlier in the
    /// process.
    pub peak_rss_mib: Option<f64>,
    /// Relative wall-time cost of tracing the campaign as `--trace` does,
    /// timed by [`crate::baseline::time_traced_campaign`]: a Chrome sink
    /// formats every record into a counting writer, the clock stops when
    /// `finish()` has written the last one, and the run fails unless it
    /// wrote every simulated event. Percent over `campaign_ms`, one
    /// sample each; `None` when the untraced run took under 1 s.
    pub trace_overhead_pct: Option<f64>,
}

/// The large-scale baseline report (`BENCH_large.json`).
#[derive(Debug, Clone, Serialize)]
pub struct LargeBaselineReport {
    /// Simulated process count.
    pub procs: u32,
    /// Runs per campaign.
    pub runs: u32,
    /// Mini-app iterations per run.
    pub iterations: u32,
    /// Per-pattern timings.
    pub patterns: Vec<LargeStageTimings>,
}

impl LargeBaselineReport {
    /// Human-readable stage table.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "large baseline: procs={} runs={} iterations={}\n\
             {:<16} {:>12} {:>10} {:>12} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}\n",
            self.procs,
            self.runs,
            self.iterations,
            "pattern",
            "simulate_ms",
            "graph_ms",
            "features_ms",
            "gram_ms",
            "campaign_ms",
            "events",
            "nodes",
            "rss_mib",
            "traced_pct"
        );
        for r in &self.patterns {
            let rss = match r.peak_rss_mib {
                Some(v) => format!("{v:.0}"),
                None => "-".to_string(),
            };
            let traced = match r.trace_overhead_pct {
                Some(v) => format!("{v:+.1}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<16} {:>12.1} {:>10.1} {:>12.1} {:>10.1} {:>12.1} {:>12} {:>12} {:>10} {:>10}\n",
                r.pattern,
                r.simulate_ms,
                r.graph_ms,
                r.features_ms,
                r.gram_ms,
                r.campaign_ms,
                r.events,
                r.nodes,
                rss,
                traced
            ));
        }
        out
    }
}

/// Run the large-scale tier: message-race as the cheap contrast row, then
/// the amg2013 all-to-all pattern that actually stresses 1024 ranks.
pub fn run_large_baseline(cfg: &LargeScaleConfig) -> LargeBaselineReport {
    let mut rows = Vec::new();
    for p in [Pattern::MessageRace, Pattern::Amg2013] {
        let ccfg = CampaignConfig::new(p, cfg.procs)
            .runs(cfg.runs)
            .iterations(cfg.iterations)
            .base_seed(cfg.base_seed);
        let watermark_reset = reset_peak_rss();
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..RunCtx::default()
        };
        let t = Instant::now();
        let result = run_campaign_with(&ccfg, &ctx).expect("large baseline campaign");
        let campaign_ms = t.elapsed().as_secs_f64() * 1e3;
        let peak = peak_rss_mib().filter(|_| watermark_reset);
        let report = reg.report();
        // Traced pass: the same campaign as `--trace` runs it, into a
        // counting writer (all the formatting cost, none of the disk
        // noise). The large tier measures each pass once; a ratio of two
        // single samples is only meaningful when the campaign is long
        // enough to dominate warmup/scheduling noise.
        let traced_ms = crate::baseline::time_traced_campaign(&ccfg);
        let trace_overhead_pct =
            (campaign_ms > 1_000.0).then(|| (traced_ms / campaign_ms - 1.0) * 100.0);
        rows.push(LargeStageTimings {
            pattern: p.to_string(),
            simulate_ms: span_ms(&report, "run/simulate", 1),
            graph_ms: span_ms(&report, "run/graph", 1),
            features_ms: span_ms(&report, "run/features", 1),
            gram_ms: span_ms(&report, "campaign/gram", 1),
            campaign_ms,
            events: result.total_events,
            nodes: result.total_nodes,
            dot_products: report.counter("kernel/dot_products").unwrap_or(0),
            peak_rss_mib: peak,
            trace_overhead_pct,
        });
    }
    LargeBaselineReport {
        procs: cfg.procs,
        runs: cfg.runs,
        iterations: cfg.iterations,
        patterns: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }

    #[test]
    fn tiny_large_tier_has_all_columns() {
        // The tier's *shape* at toy size; the real 1024-rank run is the
        // nightly `#[ignore]` test and the CI bench job.
        let cfg = LargeScaleConfig {
            procs: 8,
            runs: 2,
            iterations: 1,
            base_seed: 1,
        };
        let r = run_large_baseline(&cfg);
        assert_eq!(r.patterns.len(), 2);
        for row in &r.patterns {
            assert!(row.campaign_ms > 0.0, "{}", row.pattern);
            assert!(row.simulate_ms > 0.0, "{}", row.pattern);
            // Span totals of the campaign itself: the workers cannot be
            // busy for longer than they ran.
            let stages = row.simulate_ms + row.graph_ms + row.features_ms;
            assert!(
                stages <= default_threads() as f64 * row.campaign_ms,
                "{}: stages {stages} ms in a {} ms campaign",
                row.pattern,
                row.campaign_ms
            );
            assert!(row.events > 0);
            assert!(row.nodes > 0);
            assert!(row.dot_products >= 1);
        }
        let table = r.render_table();
        assert!(table.contains("amg2013"), "{table}");
        assert!(table.contains("rss_mib"), "{table}");
        assert!(table.contains("traced_pct"), "{table}");
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"peak_rss_mib\""));
        assert!(json.contains("\"campaign_ms\""));
        assert!(json.contains("\"trace_overhead_pct\""));
    }
}
