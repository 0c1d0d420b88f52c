//! Pipeline baseline: per-stage times for every mini-app pattern (the
//! paper's three plus the collectives and stencil2d extensions), the mean
//! over [`SAMPLES`] campaigns, read from the campaign's own span timers
//! rather than a separate harness: the per-run worker spans
//! (`run/simulate`, `run/graph`, `run/features`) and the `campaign/gram`
//! and `campaign` spans. A traced pass ([`time_traced_campaign`]) gives
//! `trace_overhead_pct`, and a cold/warm artifact-store pass the store
//! columns.
//! `anacin bench baseline` writes the report as `BENCH_baseline.json`;
//! `anacin bench compare` judges ten such reports of two builds.

use anacin_core::prelude::*;
use anacin_event_graph::EventGraph;
use anacin_kernels::prelude::*;
use anacin_miniapps::Pattern;
use anacin_mpisim::engine::simulate;
use anacin_obs::{ChromeJsonSink, CountingWriter, MetricsRegistry, MetricsReport, Tracer};
use anacin_stats::quantile::quantile;
use anacin_store::ArtifactStore;
use serde::Serialize;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Untraced campaigns faster than this are noise-dominated at
/// wall-clock granularity; below it `trace_overhead_pct` is reported as
/// `null` rather than as a meaningless (often negative) percentage.
pub const TRACE_OVERHEAD_FLOOR_MS: f64 = 5.0;

/// Overhead percentages come from this many timing samples
/// (medians, not means — a single scheduler hiccup must not skew them).
pub const MIN_OVERHEAD_SAMPLES: u32 = 5;

/// Campaigns per pattern in one process; reported times are the mean
/// over these. A process's first campaign pays first-touch costs (page
/// faults, buffers growing to size): on a 2-core VM, ten processes of one
/// campaign each read 0–22 % above six processes of three on the
/// end-to-end columns.
pub const SAMPLES: u32 = 3;

/// What to measure: the campaign shape.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Simulated process count (the paper's evaluation uses 32).
    pub procs: u32,
    /// Runs per campaign (one campaign = one sample).
    pub runs: u32,
    /// Seed of the first run in every campaign.
    pub base_seed: u64,
    /// Run counts the gram-at-scale tier measures the dot schedules at
    /// (default `[64, 256]`).
    pub gram_scale_runs: Vec<usize>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            procs: 32,
            runs: 10,
            base_seed: 1,
            gram_scale_runs: vec![64, 256],
        }
    }
}

/// Mean per-stage wall-times for one pattern, in milliseconds.
#[derive(Debug, Clone, Serialize)]
pub struct StageTimings {
    /// The mini-app pattern measured.
    pub pattern: String,
    /// Simulation time per campaign, summed over the worker threads
    /// (`run/simulate`).
    pub simulate_ms: f64,
    /// Event-graph construction time per campaign, summed over the worker
    /// threads (`run/graph`).
    pub graph_ms: f64,
    /// Feature-extraction time per campaign, summed over the worker
    /// threads (`run/features`).
    pub features_ms: f64,
    /// Mean wall-time of the Gram stage (`campaign/gram`).
    pub gram_ms: f64,
    /// Mean end-to-end campaign wall-time (`campaign`).
    pub total_ms: f64,
    /// Relative wall-time cost of tracing the campaign as `--trace` does,
    /// timed by [`time_traced_campaign`]: a Chrome sink formats every
    /// record into a counting writer, and the clock stops when `finish()`
    /// has written the last one. `(median traced − median untraced) /
    /// median untraced × 100` over at least [`MIN_OVERHEAD_SAMPLES`]
    /// timings of each. `None` (serialised `null`) when the untraced
    /// median is under [`TRACE_OVERHEAD_FLOOR_MS`] — percentages of a
    /// noise-dominated baseline are meaningless.
    pub trace_overhead_pct: Option<f64>,
    /// Simulator events executed across all samples.
    pub events: u64,
    /// Kernel dot products computed across all samples.
    pub dot_products: u64,
    /// Mean wall-time of the campaign run against an empty artifact store
    /// (every trace/graph/feature/Gram artifact is computed and published).
    pub store_cold_ms: f64,
    /// Mean wall-time of the identical campaign re-run against the now
    /// populated store (every artifact served from the store).
    pub store_warm_ms: f64,
    /// `store_cold_ms / store_warm_ms` — how much faster a fully warm
    /// incremental campaign is than a cold one.
    pub store_speedup: f64,
}

/// Submit→result latency through the campaign service socket
/// (`anacin serve`): the same campaign submitted twice to a fresh
/// daemon, once against an empty store (cold) and once fully warm. The
/// CLI fills this row via `anacin_serve::bench::measure_serve_latency`;
/// `run_baseline` itself leaves it `None` so this crate stays free of a
/// service dependency.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    /// Which pattern was submitted.
    pub pattern: String,
    /// First submission: every artifact computed and published.
    pub serve_cold_ms: f64,
    /// Second submission of the identical campaign: fully warm.
    pub serve_warm_ms: f64,
    /// `serve_cold_ms / serve_warm_ms`.
    pub serve_speedup: f64,
}

/// Gram-schedule timings at one run count of the gram-at-scale tier:
/// the same synthetic amg2013 feature set pushed through every dot
/// schedule, single-threaded so the ratios measure the schedules, not
/// the thread pool. `exact_ms` is the reference full recompute;
/// `append_ms` is its bit-identical incremental alternative.
#[derive(Debug, Clone, Serialize)]
pub struct GramScaleRow {
    /// Feature vectors (runs) in the Gram matrix.
    pub runs: usize,
    /// Full recompute (`gram_from_features_with_metrics`: label-major
    /// from `LABEL_MAJOR_MIN_RUNS` runs on).
    pub exact_ms: f64,
    /// One `gram_append` step: growing the stored `runs−1` matrix by
    /// one run (`runs` new dots instead of `runs·(runs−1)/2`).
    pub append_ms: f64,
    /// `exact_ms / append_ms`.
    pub append_speedup: f64,
}

/// The gram-at-scale tier: WL features of a real amg2013 campaign held
/// fixed (cycled and salted up to the largest run count) while the
/// dot-product schedules race on identical inputs.
#[derive(Debug, Clone, Serialize)]
pub struct GramScaleReport {
    /// Pattern the source features came from.
    pub pattern: String,
    /// Distinct real feature vectors the synthetic runs cycle over.
    pub source_runs: usize,
    /// One row per measured run count.
    pub rows: Vec<GramScaleRow>,
}

/// The full baseline: one row per paper pattern.
#[derive(Debug, Clone, Serialize)]
pub struct BaselineReport {
    /// Simulated process count.
    pub procs: u32,
    /// Runs per campaign.
    pub runs: u32,
    /// Per-pattern stage timings.
    pub patterns: Vec<StageTimings>,
    /// Service-path latency (filled by the CLI, absent in library runs).
    pub serve: Option<ServeRow>,
    /// Gram-at-scale tier (fixed features, growing run counts).
    pub gram_scale: Option<GramScaleReport>,
}

impl BaselineReport {
    /// Human-readable stage table.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "baseline: procs={} runs={} (mean of {SAMPLES} campaigns)\n\
             {:<16} {:>12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9} {:>8}\n",
            self.procs,
            self.runs,
            "pattern",
            "simulate_ms",
            "graph_ms",
            "features_ms",
            "gram_ms",
            "total_ms",
            "trace_ovh%",
            "cold_ms",
            "warm_ms",
            "store_x"
        );
        for r in &self.patterns {
            let ovh = match r.trace_overhead_pct {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<16} {:>12.3} {:>10.3} {:>12.3} {:>10.3} {:>10.3} {:>10} {:>9.3} {:>9.3} {:>8.1}\n",
                r.pattern,
                r.simulate_ms,
                r.graph_ms,
                r.features_ms,
                r.gram_ms,
                r.total_ms,
                ovh,
                r.store_cold_ms,
                r.store_warm_ms,
                r.store_speedup
            ));
        }
        if let Some(s) = &self.serve {
            out.push_str(&format!(
                "serve ({}): cold={:.3} ms, warm={:.3} ms, speedup={:.1}x (submit→result through the socket)\n",
                s.pattern, s.serve_cold_ms, s.serve_warm_ms, s.serve_speedup
            ));
        }
        if let Some(g) = &self.gram_scale {
            out.push_str(&format!(
                "gram_scale ({}, {} source vector(s))\n",
                g.pattern, g.source_runs
            ));
            for r in &g.rows {
                out.push_str(&format!(
                    "  R={:<4} exact={:.3} ms  append={:.3} ms ({:.1}x)\n",
                    r.runs, r.exact_ms, r.append_ms, r.append_speedup
                ));
            }
        }
        out
    }
}

/// Median wall-time of `reps` invocations of `f`, in milliseconds.
fn time_median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ts = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        ts.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    quantile(&ts, 0.5)
}

/// Milliseconds per campaign under span `path`, over `campaigns`
/// campaigns: per-run worker spans add up over the runs (and so over the
/// worker threads), stage spans count once.
pub(crate) fn span_ms(report: &MetricsReport, path: &str, campaigns: u32) -> f64 {
    report
        .span(path)
        .map(|s| s.total_ns as f64 / campaigns as f64 / 1e6)
        .unwrap_or(0.0)
}

/// The gram-at-scale tier: extract WL features from one real amg2013
/// campaign, cycle them (salted with one unique high-id feature per
/// replica, so every synthetic run is distinct) up to the largest run
/// count, and race the dot schedules on the identical feature set.
/// Everything times single-threaded medians of 3 so the ratios compare
/// schedules, not thread pools.
pub fn run_gram_scale(cfg: &BaselineConfig) -> GramScaleReport {
    let source_runs = 10u32;
    let ccfg = CampaignConfig::new(Pattern::Amg2013, cfg.procs)
        .runs(source_runs)
        .base_seed(cfg.base_seed);
    let program = ccfg.pattern.build(&ccfg.app);
    let kernel = WlKernel::default();
    let source: Vec<SparseFeatures> = (0..source_runs)
        .map(|i| {
            let trace = simulate(&program, &ccfg.sim_config(i)).expect("gram-scale source run");
            kernel.features(&EventGraph::from_trace(&trace))
        })
        .collect();
    let max_runs = cfg.gram_scale_runs.iter().copied().max().unwrap_or(0);
    let feats: Vec<SparseFeatures> = (0..max_runs)
        .map(|i| {
            let mut pairs: Vec<(u64, f64)> = source[i % source.len()].iter().collect();
            pairs.push((0xFFFF_0000_0000_0000 + i as u64, 1.0 + i as f64));
            SparseFeatures::from_pairs(pairs)
        })
        .collect();
    let rows = cfg
        .gram_scale_runs
        .iter()
        .map(|&r| {
            let slice = &feats[..r];
            let exact_ms = time_median_ms(3, || {
                std::hint::black_box(gram_from_features_with_metrics("wl", slice, 1, None));
            });
            let prev = gram_from_features_with_metrics("wl", &slice[..r - 1], 1, None);
            let append_ms = time_median_ms(3, || {
                std::hint::black_box(gram_append(&prev, slice, 1, DotKind::Scalar, None));
            });
            GramScaleRow {
                runs: r,
                exact_ms,
                append_ms,
                append_speedup: if append_ms > 0.0 {
                    exact_ms / append_ms
                } else {
                    0.0
                },
            }
        })
        .collect();
    GramScaleReport {
        pattern: Pattern::Amg2013.to_string(),
        source_runs: source.len(),
        rows,
    }
}

/// Wall time (ms) of one campaign traced as `--trace` traces it, minus the
/// disk: spans and simulated events stream into a Chrome sink that
/// formats every record into a [`CountingWriter`], and the clock stops
/// once `finish()` has written the last one. Panics unless the sink got
/// at least the campaign's `total_events` records.
pub fn time_traced_campaign(cfg: &CampaignConfig) -> f64 {
    let sink = ChromeJsonSink::new(CountingWriter::new(Arc::new(AtomicU64::new(0))))
        .expect("counting sink");
    let tracer = Tracer::new(sink);
    let reg = MetricsRegistry::new();
    reg.attach_tracer(&tracer);
    let ctx = RunCtx {
        metrics: Some(&reg),
        tracer: Some(&tracer),
        ..RunCtx::default()
    };
    let t = Instant::now();
    let result = run_campaign_with(cfg, &ctx).expect("traced campaign");
    let written = tracer.finish().expect("trace into a counting writer");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        written >= result.total_events,
        "trace wrote {written} record(s) for {} simulated event(s)",
        result.total_events
    );
    ms
}

/// Run [`SAMPLES`] campaigns per paper pattern and report the mean
/// per-stage times from the metrics registry's span timers.
pub fn run_baseline(cfg: &BaselineConfig) -> BaselineReport {
    let mut rows = Vec::with_capacity(Pattern::ALL.len());
    for p in Pattern::ALL {
        let ccfg = CampaignConfig::new(p, cfg.procs)
            .runs(cfg.runs)
            .base_seed(cfg.base_seed);
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..RunCtx::default()
        };
        for _ in 0..SAMPLES {
            run_campaign_with(&ccfg, &ctx).expect("baseline campaign");
        }
        let report = reg.report();
        // Overhead pass: untraced vs traced end-to-end wall-time medians
        // over MIN_OVERHEAD_SAMPLES timings each, both with a metrics
        // registry attached.
        let untraced_ms = || {
            let r = MetricsRegistry::new();
            let ctx = RunCtx {
                metrics: Some(&r),
                ..RunCtx::default()
            };
            let t = Instant::now();
            run_campaign_with(&ccfg, &ctx).expect("overhead baseline campaign");
            t.elapsed().as_secs_f64() * 1e3
        };
        let untraced: Vec<f64> = (0..MIN_OVERHEAD_SAMPLES).map(|_| untraced_ms()).collect();
        let traced: Vec<f64> = (0..MIN_OVERHEAD_SAMPLES)
            .map(|_| time_traced_campaign(&ccfg))
            .collect();
        let untraced_median = quantile(&untraced, 0.5);
        let traced_median = quantile(&traced, 0.5);
        let trace_overhead_pct = if untraced_median >= TRACE_OVERHEAD_FLOOR_MS {
            Some((traced_median - untraced_median) / untraced_median * 100.0)
        } else {
            None
        };
        // Store pass: each sample runs the campaign twice against a fresh
        // artifact store — once cold (everything computed and published)
        // and once warm (everything served back) — so the report carries
        // the speedup a resumed/incremental campaign gets from the store.
        let mut cold_ns = 0u128;
        let mut warm_ns = 0u128;
        for s in 0..SAMPLES {
            let dir = std::env::temp_dir().join(format!(
                "anacin_bench_store_{}_{}_{}",
                std::process::id(),
                p,
                s
            ));
            std::fs::remove_dir_all(&dir).ok();
            let store = ArtifactStore::open(&dir).expect("baseline store");
            let ctx = RunCtx {
                store: Some(&store),
                ..RunCtx::default()
            };
            let t = Instant::now();
            run_campaign_with(&ccfg, &ctx).expect("cold store campaign");
            cold_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            run_campaign_with(&ccfg, &ctx).expect("warm store campaign");
            warm_ns += t.elapsed().as_nanos();
            std::fs::remove_dir_all(&dir).ok();
        }
        let store_cold_ms = cold_ns as f64 / SAMPLES as f64 / 1e6;
        let store_warm_ms = warm_ns as f64 / SAMPLES as f64 / 1e6;
        let store_speedup = if store_warm_ms > 0.0 {
            store_cold_ms / store_warm_ms
        } else {
            0.0
        };
        let per_campaign_ms = |path: &str| span_ms(&report, path, SAMPLES);
        rows.push(StageTimings {
            pattern: p.to_string(),
            simulate_ms: per_campaign_ms("run/simulate"),
            graph_ms: per_campaign_ms("run/graph"),
            features_ms: per_campaign_ms("run/features"),
            gram_ms: per_campaign_ms("campaign/gram"),
            total_ms: per_campaign_ms("campaign"),
            trace_overhead_pct,
            events: report.counter("sim/events").unwrap_or(0),
            dot_products: report.counter("kernel/dot_products").unwrap_or(0),
            store_cold_ms,
            store_warm_ms,
            store_speedup,
        });
    }
    BaselineReport {
        procs: cfg.procs,
        runs: cfg.runs,
        patterns: rows,
        serve: None,
        gram_scale: Some(run_gram_scale(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_baseline_covers_every_pattern() {
        let cfg = BaselineConfig {
            procs: 4,
            runs: 2,
            base_seed: 1,
            gram_scale_runs: vec![8, 16],
        };
        let r = run_baseline(&cfg);
        assert_eq!(r.patterns.len(), Pattern::ALL.len());
        for row in &r.patterns {
            assert!(
                row.total_ms > 0.0,
                "{}: total {}",
                row.pattern,
                row.total_ms
            );
            assert!(row.simulate_ms >= 0.0);
            assert!(row.events > 0);
            assert_eq!(row.dot_products, u64::from(SAMPLES) * 2 * 3 / 2);
            assert!(row.graph_ms > 0.0, "{}", row.pattern);
            assert!(row.features_ms > 0.0, "{}", row.pattern);
            assert!(row.gram_ms > 0.0, "{}", row.pattern);
            // Tiny 4-proc campaigns sit under the noise floor, so the
            // overhead column must be suppressed, not reported as noise.
            if let Some(v) = row.trace_overhead_pct {
                assert!(v.is_finite(), "{}", row.pattern);
            }
            assert!(row.store_cold_ms > 0.0, "{}", row.pattern);
            assert!(row.store_warm_ms > 0.0, "{}", row.pattern);
            assert!(row.store_speedup > 0.0, "{}", row.pattern);
        }
        let table = r.render_table();
        assert!(
            table.contains("message-race") || table.contains("race"),
            "{table}"
        );
        assert!(table.contains("collectives"), "{table}");
        assert!(table.contains("stencil2d"), "{table}");
        assert!(table.contains("trace_ovh%"), "{table}");
        assert!(table.contains("store_x"), "{table}");
        let g = r.gram_scale.as_ref().expect("gram_scale section");
        assert_eq!(g.pattern, "amg2013");
        assert_eq!(g.source_runs, 10);
        assert_eq!(g.rows.len(), 2);
        for (row, want) in g.rows.iter().zip([8usize, 16]) {
            assert_eq!(row.runs, want);
            assert!(row.exact_ms > 0.0, "R={}", row.runs);
            assert!(row.append_ms > 0.0);
            assert!(row.append_speedup > 0.0);
        }
        assert!(table.contains("gram_scale"), "{table}");
        // Serialises cleanly for BENCH_baseline.json.
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"patterns\""));
        assert!(json.contains("\"trace_overhead_pct\""));
        assert!(!json.contains("pipelined"), "{json}");
        assert!(json.contains("\"store_cold_ms\""));
        assert!(json.contains("\"store_warm_ms\""));
        assert!(json.contains("\"store_speedup\""));
        assert!(json.contains("\"gram_scale\""));
        assert!(!json.contains("wl_lanes"), "{json}");
        assert!(json.contains("\"append_speedup\""));
    }
}
