//! Bench-trend regression gate: ingest a series of per-commit BENCH
//! reports and flag stage timings that regressed against their own
//! recent history.
//!
//! CI keeps one `BENCH_baseline.json` / `BENCH_large.json` per commit
//! (or per nightly). `anacin bench trend <dir>` reads every such file in
//! lexicographic (= chronological, when names embed a date or sequence
//! number) order, builds one series per `(report kind, pattern, metric)`
//! and compares the newest point against the trailing median of the
//! previous few: noisy single samples don't trip the gate, a sustained
//! step does. `--json` emits the full [`TrendReport`] and the CLI exits
//! non-zero when anything is flagged, so the gate is one CI step.
//!
//! Reports are parsed through the [`serde::Value`] tree rather than
//! typed structs so old reports with missing fields (and future reports
//! with extra ones) stay ingestible.

use serde::{map_get, Serialize};

/// Stage metrics tracked per pattern of a paper-tier baseline report.
const BASELINE_METRICS: &[&str] = &[
    "simulate_ms",
    "graph_ms",
    "features_ms",
    "gram_ms",
    "total_ms",
];

/// Stage metrics tracked per pattern of a 1024-rank large-tier report.
const LARGE_METRICS: &[&str] = &[
    "simulate_ms",
    "graph_ms",
    "features_ms",
    "gram_ms",
    "campaign_ms",
    "peak_rss_mib",
];

/// Service-path metrics tracked from a baseline report's `serve` row.
const SERVE_METRICS: &[&str] = &["serve_cold_ms", "serve_warm_ms"];

/// Dot-schedule metrics tracked per run count of a baseline report's
/// `gram_scale` section.
const GRAM_SCALE_METRICS: &[&str] = &["exact_ms", "blocked_ms", "append_ms", "landmark_ms"];

/// Regressions smaller than this many units (milliseconds / MiB) never
/// flag, whatever the relative change: sub-millisecond stages jitter by
/// integer factors without meaning anything.
const ABSOLUTE_FLOOR: f64 = 0.5;

/// Gate parameters: how much slower than the trailing median the newest
/// point must be to flag, and how much history feeds that median.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TrendConfig {
    /// Relative regression threshold, percent (default 30).
    pub threshold_pct: f64,
    /// Trailing points (before the newest) the median is taken over
    /// (default 5).
    pub window: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            threshold_pct: 30.0,
            window: 5,
        }
    }
}

/// One report's contribution to a series.
#[derive(Debug, Clone, Serialize)]
pub struct TrendPoint {
    /// File the value came from.
    pub file: String,
    /// Metric value (milliseconds or MiB).
    pub value: f64,
}

/// The history of one `(kind, pattern, metric)` metric across reports.
#[derive(Debug, Clone, Serialize)]
pub struct TrendSeries {
    /// Report kind: `baseline` (paper tier) or `large` (1024-rank tier).
    pub kind: String,
    /// Communication pattern the row measures.
    pub pattern: String,
    /// Stage metric name, e.g. `simulate_ms`.
    pub metric: String,
    /// Chronological points, oldest first.
    pub points: Vec<TrendPoint>,
    /// Trailing median the newest point was compared against (absent
    /// for single-point series).
    pub trailing_median: Option<f64>,
    /// Newest / median ratio in percent above baseline (0 = no change).
    pub delta_pct: Option<f64>,
    /// True when the newest point regressed past the threshold.
    pub flagged: bool,
}

/// Everything `bench trend` computed, serialised verbatim by `--json`.
#[derive(Debug, Clone, Serialize)]
pub struct TrendReport {
    /// Gate parameters used.
    pub config: TrendConfig,
    /// Report files ingested, chronological order.
    pub files: Vec<String>,
    /// Every series with at least one point.
    pub series: Vec<TrendSeries>,
    /// Number of flagged series.
    pub regressions: usize,
}

/// Median of a non-empty slice (average of the two middles for even
/// lengths).
fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One `(pattern, metric, value)` measurement extracted from a report.
type MetricRow = (String, String, f64);

/// The `(kind, rows)` of one parsed report: kind plus
/// `(pattern, metric, value)` triples.
fn extract(content: &str) -> Result<(String, Vec<MetricRow>), String> {
    let root = serde_json::from_str_value(content).map_err(|e| e.to_string())?;
    let obj = root.as_object().ok_or("report is not a JSON object")?;
    // Baseline reports carry a top-level sample count; large-tier
    // reports don't. That one key distinguishes the schemas.
    let is_baseline = !map_get(obj, "samples").is_null();
    let kind = if is_baseline { "baseline" } else { "large" };
    let metrics = if is_baseline {
        BASELINE_METRICS
    } else {
        LARGE_METRICS
    };
    let patterns = map_get(obj, "patterns")
        .as_array()
        .ok_or("report has no 'patterns' array")?;
    let mut rows = Vec::new();
    for p in patterns {
        let row = p.as_object().ok_or("pattern row is not an object")?;
        let name = map_get(row, "pattern")
            .as_str()
            .ok_or("pattern row has no 'pattern' name")?
            .to_string();
        for metric in metrics {
            if let Some(value) = map_get(row, metric).as_f64() {
                rows.push((name.clone(), metric.to_string(), value));
            }
        }
    }
    // Baseline reports that went through the CLI also carry a `serve`
    // row: submit→result latency through the service socket. Older
    // reports simply lack the key, so the series starts when the row
    // first appears.
    if let Some(s) = map_get(obj, "serve").as_object() {
        let name = map_get(s, "pattern")
            .as_str()
            .unwrap_or("serve")
            .to_string();
        for metric in SERVE_METRICS {
            if let Some(value) = map_get(s, metric).as_f64() {
                rows.push((format!("serve/{name}"), metric.to_string(), value));
            }
        }
    }
    // Newer baseline reports carry a `gram_scale` section: the dot
    // schedules raced on a fixed feature set at growing run counts.
    // Older reports lack the key and their series simply start when it
    // appears.
    if let Some(g) = map_get(obj, "gram_scale").as_object() {
        if let Some(scale_rows) = map_get(g, "rows").as_array() {
            for row in scale_rows {
                let Some(row) = row.as_object() else { continue };
                let Some(r) = map_get(row, "runs").as_f64() else {
                    continue;
                };
                for metric in GRAM_SCALE_METRICS {
                    if let Some(value) = map_get(row, metric).as_f64() {
                        rows.push((
                            format!("gram_scale/{}", r as u64),
                            metric.to_string(),
                            value,
                        ));
                    }
                }
            }
        }
    }
    Ok((kind.to_string(), rows))
}

/// Analyze already-loaded `(file name, file content)` pairs, in the
/// order given (oldest first).
pub fn analyze_files(
    files: &[(String, String)],
    config: &TrendConfig,
) -> Result<TrendReport, String> {
    let mut order: Vec<(String, String, String)> = Vec::new(); // (kind, pattern, metric)
    let mut series: Vec<Vec<TrendPoint>> = Vec::new();
    for (name, content) in files {
        let (kind, rows) = extract(content).map_err(|e| format!("{name}: {e}"))?;
        for (pattern, metric, value) in rows {
            let key = (kind.clone(), pattern, metric);
            let idx = match order.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    order.push(key);
                    series.push(Vec::new());
                    series.len() - 1
                }
            };
            series[idx].push(TrendPoint {
                file: name.clone(),
                value,
            });
        }
    }
    let mut out = Vec::new();
    let mut regressions = 0usize;
    for ((kind, pattern, metric), points) in order.into_iter().zip(series) {
        let (trailing_median, delta_pct, flagged) = if points.len() >= 2 {
            let last = points.last().map(|p| p.value).unwrap_or(0.0);
            let prior = &points[..points.len() - 1];
            let tail = &prior[prior.len().saturating_sub(config.window)..];
            let med = median(&tail.iter().map(|p| p.value).collect::<Vec<_>>());
            let delta = if med > 0.0 {
                (last / med - 1.0) * 100.0
            } else if last > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            let flag = delta > config.threshold_pct && (last - med) > ABSOLUTE_FLOOR;
            (Some(med), Some(delta), flag)
        } else {
            (None, None, false)
        };
        if flagged {
            regressions += 1;
        }
        out.push(TrendSeries {
            kind,
            pattern,
            metric,
            points,
            trailing_median,
            delta_pct,
            flagged,
        });
    }
    Ok(TrendReport {
        config: *config,
        files: files.iter().map(|(n, _)| n.clone()).collect(),
        series: out,
        regressions,
    })
}

/// Analyze every `*BENCH_*.json` file directly inside `dir`, in
/// lexicographic name order (`BENCHMARK.json`, the benchmark's
/// declaration, is not a report).
pub fn analyze_dir(dir: &str, config: &TrendConfig) -> Result<TrendReport, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let name = entry.file_name().to_string_lossy().into_owned();
            (entry.file_type().ok()?.is_file()
                && name.contains("BENCH_")
                && name.ends_with(".json"))
            .then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json report files found in {dir}"));
    }
    let mut files = Vec::new();
    for name in names {
        let path = std::path::Path::new(dir).join(&name);
        let content = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        files.push((name, content));
    }
    analyze_files(&files, config)
}

/// Render the per-series trend table: newest value against the trailing
/// median, relative change, and the regression flag CI keys off.
pub fn render_trend_table(report: &TrendReport) -> String {
    let mut rows: Vec<[String; 6]> = Vec::new();
    for s in &report.series {
        let last = s.points.last().map(|p| p.value).unwrap_or(0.0);
        rows.push([
            format!("{}/{}/{}", s.kind, s.pattern, s.metric),
            s.points.len().to_string(),
            s.trailing_median
                .map(|m| format!("{m:.3}"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{last:.3}"),
            s.delta_pct
                .map(|d| format!("{d:+.1}%"))
                .unwrap_or_else(|| "-".to_string()),
            if s.flagged { "REGRESSION" } else { "ok" }.to_string(),
        ]);
    }
    let headers = ["series", "n", "median", "last", "delta", "status"];
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "bench trend over {} report(s): {} series, {} regression(s)\n",
        report.files.len(),
        report.series.len(),
        report.regressions
    ));
    out.push_str(&format!(
        "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}  {:<w5$}\n",
        headers[0],
        headers[1],
        headers[2],
        headers[3],
        headers[4],
        headers[5],
        w0 = widths[0],
        w1 = widths[1],
        w2 = widths[2],
        w3 = widths[3],
        w4 = widths[4],
        w5 = widths[5],
    ));
    for row in &rows {
        out.push_str(&format!(
            "{:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}  {:<w5$}\n",
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
            w3 = widths[3],
            w4 = widths[4],
            w5 = widths[5],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn large_report(simulate_ms: f64) -> String {
        format!(
            r#"{{"procs":1024,"runs":3,"iterations":1,"patterns":[
                {{"pattern":"message-race","simulate_ms":{simulate_ms},
                  "graph_ms":1.0,"features_ms":2.0,"gram_ms":0.5,
                  "campaign_ms":10.0,"events":100,"nodes":100,
                  "dot_products":6,"peak_rss_mib":40.0}}]}}"#
        )
    }

    fn baseline_report(total_ms: f64) -> String {
        format!(
            r#"{{"procs":32,"runs":10,"samples":3,"patterns":[
                {{"pattern":"message-race","samples":3,"simulate_ms":0.3,
                  "graph_ms":0.04,"features_ms":0.5,"gram_ms":0.2,
                  "total_ms":{total_ms},"trace_overhead_pct":null,
                  "events":3780,"dot_products":165}}]}}"#
        )
    }

    fn baseline_with_gram_scale(exact_ms: f64) -> String {
        format!(
            r#"{{"procs":32,"runs":10,"samples":3,"patterns":[
                {{"pattern":"message-race","samples":3,"simulate_ms":0.3,
                  "graph_ms":0.04,"features_ms":0.5,"gram_ms":0.2,
                  "total_ms":5.0,"trace_overhead_pct":null,
                  "events":3780,"dot_products":165}}],
                "gram_scale":{{"pattern":"amg2013","source_runs":10,
                  "rows":[{{"runs":256,"exact_ms":{exact_ms},"blocked_ms":20.0,
                    "append_ms":0.4,"landmark_ms":4.0,"landmark_k":16,
                    "landmark_error_bound":3.5,"blocked_speedup":2.0,
                    "append_speedup":100.0}}]}}}}"#
        )
    }

    fn files(contents: &[(&str, String)]) -> Vec<(String, String)> {
        contents
            .iter()
            .map(|(n, c)| (n.to_string(), c.clone()))
            .collect()
    }

    #[test]
    fn stable_series_does_not_flag() {
        let fs = files(&[
            ("BENCH_001.json", large_report(100.0)),
            ("BENCH_002.json", large_report(103.0)),
            ("BENCH_003.json", large_report(98.0)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        assert_eq!(r.regressions, 0);
        assert!(r.series.iter().all(|s| !s.flagged));
        let sim = r.series.iter().find(|s| s.metric == "simulate_ms").unwrap();
        assert_eq!(sim.points.len(), 3);
        assert_eq!(sim.kind, "large");
    }

    #[test]
    fn step_regression_flags_only_the_regressed_metric() {
        let fs = files(&[
            ("BENCH_001.json", large_report(100.0)),
            ("BENCH_002.json", large_report(101.0)),
            ("BENCH_003.json", large_report(150.0)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        assert_eq!(r.regressions, 1);
        let sim = r.series.iter().find(|s| s.metric == "simulate_ms").unwrap();
        assert!(sim.flagged);
        assert_eq!(sim.trailing_median, Some(100.5));
        assert!(sim.delta_pct.unwrap() > 30.0);
        assert!(r
            .series
            .iter()
            .filter(|s| s.metric != "simulate_ms")
            .all(|s| !s.flagged));
    }

    #[test]
    fn sub_millisecond_jitter_is_below_the_absolute_floor() {
        // 0.1 → 0.2 ms is +100% but only 0.1 ms — noise, not a
        // regression.
        let fs = files(&[
            ("BENCH_001.json", baseline_report(0.1)),
            ("BENCH_002.json", baseline_report(0.2)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        assert_eq!(r.regressions, 0);
    }

    #[test]
    fn single_report_yields_unflagged_single_point_series() {
        let fs = files(&[("BENCH_baseline.json", baseline_report(1.0))]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        assert_eq!(r.regressions, 0);
        assert!(r.series.iter().all(|s| s.points.len() == 1));
        assert!(r.series.iter().all(|s| s.trailing_median.is_none()));
    }

    #[test]
    fn window_bounds_the_trailing_median() {
        // Old slow history must age out of a window of 2.
        let reports: Vec<(&str, String)> = vec![
            ("BENCH_01.json", large_report(500.0)),
            ("BENCH_02.json", large_report(100.0)),
            ("BENCH_03.json", large_report(100.0)),
            ("BENCH_04.json", large_report(150.0)),
        ];
        let fs = files(&reports);
        let cfg = TrendConfig {
            threshold_pct: 30.0,
            window: 2,
        };
        let r = analyze_files(&fs, &cfg).unwrap();
        let sim = r.series.iter().find(|s| s.metric == "simulate_ms").unwrap();
        // Median over [100, 100], not [500, 100, 100]: 150 is +50%.
        assert_eq!(sim.trailing_median, Some(100.0));
        assert!(sim.flagged);
    }

    #[test]
    fn mixed_kinds_keep_separate_series() {
        let fs = files(&[
            ("BENCH_baseline.json", baseline_report(1.0)),
            ("BENCH_large.json", large_report(100.0)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        assert!(r.series.iter().any(|s| s.kind == "baseline"));
        assert!(r.series.iter().any(|s| s.kind == "large"));
        // Same metric name, different kinds ⇒ different series.
        let sims: Vec<_> = r
            .series
            .iter()
            .filter(|s| s.metric == "simulate_ms")
            .collect();
        assert_eq!(sims.len(), 2);
        assert!(sims.iter().all(|s| s.points.len() == 1));
    }

    #[test]
    fn gram_scale_series_are_tracked_and_gate() {
        let fs = files(&[
            ("BENCH_001.json", baseline_with_gram_scale(40.0)),
            ("BENCH_002.json", baseline_with_gram_scale(41.0)),
            ("BENCH_003.json", baseline_with_gram_scale(80.0)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        let exact = r
            .series
            .iter()
            .find(|s| s.pattern == "gram_scale/256" && s.metric == "exact_ms")
            .expect("gram_scale exact_ms series");
        assert_eq!(exact.points.len(), 3);
        assert!(exact.flagged, "a doubled exact_ms must trip the gate");
        // Reports predating the section mix in cleanly: the series just
        // starts at the first report that carries it.
        let fs = files(&[
            ("BENCH_001.json", baseline_report(5.0)),
            ("BENCH_002.json", baseline_with_gram_scale(40.0)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        assert_eq!(r.regressions, 0);
        assert!(r.series.iter().any(|s| s.pattern == "gram_scale/256"));
    }

    #[test]
    fn table_renders_flag_column() {
        let fs = files(&[
            ("BENCH_001.json", large_report(100.0)),
            ("BENCH_002.json", large_report(200.0)),
        ]);
        let r = analyze_files(&fs, &TrendConfig::default()).unwrap();
        let table = render_trend_table(&r);
        assert!(table.contains("REGRESSION"), "{table}");
        assert!(table.contains("large/message-race/simulate_ms"), "{table}");
        assert!(table.contains("1 regression(s)"), "{table}");
    }
}
