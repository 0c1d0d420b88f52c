//! Parameter sweeps: the shape of every evaluation figure. [`sweep`]
//! runs one campaign per point of a [`SweepAxis`]:
//!
//! * [`SweepAxis::NdPercent`] — Figure 7 (kernel distance vs injected ND%);
//! * [`SweepAxis::Procs`] — Figure 5 (process-count scaling);
//! * [`SweepAxis::Iterations`] — Figure 6 (iteration scaling).

use crate::campaign::{CampaignError, RunCtx};
use crate::config::CampaignConfig;
use crate::engine::{self, Plan, Source};
use crate::measure::NdMeasurement;
use anacin_obs::MetricsReport;
use anacin_stats::prelude::spearman;
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// A swept campaign parameter, with the default points the CLI and the
/// daemon both use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Injected non-determinism, in percent (`--kind nd`).
    NdPercent,
    /// Process count (`--kind procs`).
    Procs,
    /// Iteration count (`--kind iterations`).
    Iterations,
}

impl FromStr for SweepAxis {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "nd" => Ok(SweepAxis::NdPercent),
            "procs" => Ok(SweepAxis::Procs),
            "iterations" => Ok(SweepAxis::Iterations),
            other => Err(format!("unknown sweep kind '{other}'")),
        }
    }
}

impl SweepAxis {
    /// The parameter name a finished [`Sweep`] reports.
    pub fn name(self) -> &'static str {
        match self {
            SweepAxis::NdPercent => "nd_percent",
            SweepAxis::Procs => "procs",
            SweepAxis::Iterations => "iterations",
        }
    }

    /// The default points: ND 0–100% in steps of 10; p/2 (at least 2), p
    /// and 2p processes for a base of p; 1, 2 and 4 iterations.
    pub fn default_points(self, base: &CampaignConfig) -> Vec<f64> {
        match self {
            SweepAxis::NdPercent => (0..=10).map(|i| i as f64 * 10.0).collect(),
            SweepAxis::Procs => {
                let p = base.app.procs;
                vec![(p / 2).max(2) as f64, p as f64, (p * 2) as f64]
            }
            SweepAxis::Iterations => vec![1.0, 2.0, 4.0],
        }
    }

    /// The label and campaign of the point at `x`.
    fn point(self, base: &CampaignConfig, x: f64) -> (String, CampaignConfig) {
        match self {
            SweepAxis::NdPercent => (format!("nd={x}%"), base.clone().nd_percent(x)),
            SweepAxis::Procs => {
                let mut cfg = base.clone();
                cfg.app.procs = x as u32;
                (format!("{} procs", cfg.app.procs), cfg)
            }
            SweepAxis::Iterations => {
                let it = x as u32;
                let plural = if it == 1 { "" } else { "s" };
                (
                    format!("{it} iteration{plural}"),
                    base.clone().iterations(it),
                )
            }
        }
    }
}

/// One sweep point: the swept value and its measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter value.
    pub x: f64,
    /// The measurement at that value.
    pub measurement: NdMeasurement,
}

/// A finished sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Name of the swept parameter.
    pub parameter: String,
    /// The points, in sweep order.
    pub points: Vec<SweepPoint>,
    /// Per-point metrics, when the sweep ran with a registry.
    pub metrics: Option<SweepMetrics>,
}

impl Sweep {
    /// `(x, mean distance)` series — the line the paper plots.
    pub fn mean_series(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.x, p.measurement.mean()))
            .collect()
    }

    /// Monotone-up-to-noise check: every mean stays within `tolerance`
    /// (relative) of the running maximum, i.e. the curve may rise and
    /// plateau but never significantly dips. This is the robust form of
    /// the Figure-7 claim at small sample sizes, where rank correlation
    /// over a saturated plateau is dominated by tie noise.
    pub fn is_monotone_within(&self, tolerance: f64) -> bool {
        let mut running_max = f64::NEG_INFINITY;
        for p in &self.points {
            let m = p.measurement.mean();
            if m < running_max * (1.0 - tolerance) {
                return false;
            }
            running_max = running_max.max(m);
        }
        true
    }

    /// Spearman rank correlation between the parameter and the mean
    /// distance — the monotonicity statistic for the Figure-7 claim.
    pub fn spearman_monotonicity(&self) -> f64 {
        let xs: Vec<f64> = self.points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = self.points.iter().map(|p| p.measurement.mean()).collect();
        if xs.len() < 2 {
            return 0.0;
        }
        spearman(&xs, &ys)
    }
}

/// Per-stage metrics of one sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPointMetrics {
    /// Name of the swept parameter (`nd_percent`, `procs`, `iterations`).
    pub parameter: String,
    /// The swept value at this point.
    pub x: f64,
    /// Human label of the point (e.g. `nd=30%`, `8 procs`).
    pub label: String,
    /// What the registry recorded while this point's campaign ran (stage
    /// spans + counters; see [`MetricsReport::delta_since`]).
    pub report: MetricsReport,
}

/// Metrics of an instrumented sweep: one report per point plus the
/// whole sweep's — the per-point breakdown lets stage time be plotted
/// against the swept parameter instead of lumping all campaigns together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepMetrics {
    /// What the registry recorded over the whole sweep, the sum of the
    /// points ([`MetricsReport::delta_since`] its first snapshot).
    pub aggregate: MetricsReport,
    /// One entry per sweep point, in sweep order.
    pub points: Vec<SweepPointMetrics>,
}

/// Sweep `axis` over `points`, one campaign per point, under `ctx`. The
/// cancel token is checked between points and inside each campaign, and a
/// cancelled sweep reports the runs completed across all its points. With
/// a registry in `ctx`, each point's share of it is reported in
/// [`Sweep::metrics`]; with a tracer, run ids continue from point to point
/// so they never collide. Measurements are bit-identical whatever the
/// context.
pub fn sweep(
    axis: SweepAxis,
    base: &CampaignConfig,
    points: &[f64],
    ctx: &RunCtx,
) -> Result<Sweep, CampaignError> {
    let mut out = Vec::with_capacity(points.len());
    let mut point_metrics = Vec::new();
    let first = ctx.metrics.map(|m| m.report());
    let mut before = first.clone();
    let mut done_runs = 0u32;
    for &x in points {
        if ctx.cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(CampaignError::Cancelled {
                completed_runs: done_runs,
            });
        }
        let (label, config) = axis.point(base, x);
        let program = engine::build_program(&config, ctx);
        let plan = Plan {
            source: Source::Seeded,
            append: false,
            run_base: done_runs,
        };
        let matrix = match engine::run(&config, &program, ctx, plan, &|_, _| ()) {
            Ok(o) => o.matrix,
            Err(CampaignError::Cancelled { completed_runs }) => {
                return Err(CampaignError::Cancelled {
                    completed_runs: done_runs + completed_runs,
                })
            }
            Err(e) => return Err(e),
        };
        done_runs += config.runs;
        if let (Some(m), Some(prev)) = (ctx.metrics, before.as_mut()) {
            let now = m.report();
            point_metrics.push(SweepPointMetrics {
                parameter: axis.name().to_string(),
                x,
                label: label.clone(),
                report: now.delta_since(prev),
            });
            *prev = now;
        }
        out.push(SweepPoint {
            x,
            measurement: NdMeasurement::from_matrix(label, &matrix),
        });
    }
    let metrics = first.zip(before).map(|(first, last)| SweepMetrics {
        aggregate: last.delta_since(&first),
        points: point_metrics,
    });
    Ok(Sweep {
        parameter: axis.name().to_string(),
        points: out,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_miniapps::Pattern;
    use anacin_obs::{MemorySink, MetricsRegistry, Tracer};

    fn small_base(pattern: Pattern, procs: u32, runs: u32) -> CampaignConfig {
        CampaignConfig::new(pattern, procs).runs(runs)
    }

    fn plain(axis: SweepAxis, base: &CampaignConfig, points: &[f64]) -> Sweep {
        sweep(axis, base, points, &RunCtx::default()).unwrap()
    }

    #[test]
    fn nd_sweep_is_monotone_for_race() {
        let base = small_base(Pattern::MessageRace, 8, 10);
        let sweep = plain(SweepAxis::NdPercent, &base, &[0.0, 25.0, 50.0, 75.0, 100.0]);
        assert_eq!(sweep.points.len(), 5);
        // Distance at 0% is exactly zero.
        assert_eq!(sweep.points[0].measurement.mean(), 0.0);
        // Strong monotone trend.
        let rho = sweep.spearman_monotonicity();
        assert!(rho > 0.85, "Spearman rho = {rho}");
        assert!(sweep.metrics.is_none(), "no registry, no per-point metrics");
    }

    #[test]
    fn proc_sweep_increases_distance() {
        let base = small_base(Pattern::UnstructuredMesh, 4, 10);
        let sweep = plain(SweepAxis::Procs, &base, &[4.0, 16.0]);
        let series = sweep.mean_series();
        assert!(
            series[1].1 > series[0].1,
            "16 procs ({}) must exceed 4 procs ({})",
            series[1].1,
            series[0].1
        );
        assert_eq!(sweep.points[1].measurement.label, "16 procs");
    }

    #[test]
    fn iteration_sweep_increases_distance() {
        let base = small_base(Pattern::UnstructuredMesh, 8, 10);
        let sweep = plain(SweepAxis::Iterations, &base, &[1.0, 2.0]);
        let series = sweep.mean_series();
        assert!(series[1].1 > series[0].1);
        assert_eq!(sweep.points[0].measurement.label, "1 iteration");
        assert_eq!(sweep.points[1].measurement.label, "2 iterations");
    }

    #[test]
    fn axes_parse_and_define_their_default_points() {
        let base = small_base(Pattern::MessageRace, 8, 4);
        let nd: SweepAxis = "nd".parse().unwrap();
        let expect: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(nd.default_points(&base), expect);
        let procs: SweepAxis = "procs".parse().unwrap();
        assert_eq!(procs.default_points(&base), vec![4.0, 8.0, 16.0]);
        assert_eq!(
            procs.default_points(&small_base(Pattern::MessageRace, 3, 4)),
            vec![2.0, 3.0, 6.0]
        );
        let it: SweepAxis = "iterations".parse().unwrap();
        assert_eq!(it.default_points(&base), vec![1.0, 2.0, 4.0]);
        assert_eq!(
            "bananas".parse::<SweepAxis>(),
            Err("unknown sweep kind 'bananas'".to_string())
        );
    }

    #[test]
    fn monotone_within_tolerance() {
        let base = small_base(Pattern::MessageRace, 8, 8);
        let sweep = plain(SweepAxis::NdPercent, &base, &[0.0, 25.0, 50.0, 75.0, 100.0]);
        assert!(sweep.is_monotone_within(0.05));
        // A strict zero-tolerance check can legitimately fail on plateau
        // noise, but the rising race curve at these points happens to be
        // clean; the meaningful inverse test is a fabricated dip:
        let mut dipped = sweep.clone();
        dipped.points.swap(0, 4); // put the max first: later points dip
        assert!(!dipped.is_monotone_within(0.05));
    }

    #[test]
    fn instrumented_sweep_matches_plain_and_reports_per_point() {
        let base = small_base(Pattern::MessageRace, 6, 5);
        let percents = [0.0, 50.0, 100.0];
        let plain = plain(SweepAxis::NdPercent, &base, &percents);
        let sink = MemorySink::new();
        let tracer = Tracer::new(sink.clone());
        let reg = MetricsRegistry::new();
        reg.attach_tracer(&tracer);
        let ctx = RunCtx {
            metrics: Some(&reg),
            tracer: Some(&tracer),
            ..RunCtx::default()
        };
        let sweep = sweep(SweepAxis::NdPercent, &base, &percents, &ctx).unwrap();
        // Instrumentation is bit-exact.
        assert_eq!(sweep.mean_series(), plain.mean_series());
        // One report per point, each covering one campaign.
        let metrics = sweep.metrics.expect("a registry yields per-point metrics");
        assert_eq!(metrics.points.len(), 3);
        for (pm, &p) in metrics.points.iter().zip(&percents) {
            assert_eq!(pm.parameter, "nd_percent");
            assert_eq!(pm.x, p);
            assert_eq!(pm.report.counter("campaign/runs"), Some(5));
            assert_eq!(pm.report.span("build").map(|s| s.count), Some(1));
            assert_eq!(pm.report.span("campaign").map(|s| s.count), Some(1));
            assert_eq!(pm.report.span("run/simulate").map(|s| s.count), Some(5));
        }
        // The aggregate is the sum of the points.
        assert_eq!(metrics.aggregate.counter("campaign/runs"), Some(15));
        // The shared tracer saw every run exactly once, with unique ids
        // offset per point.
        tracer.finish().unwrap();
        let mut runs: Vec<u32> = sink.snapshot().sim.iter().map(|e| e.run).collect();
        runs.dedup();
        assert_eq!(runs, (0..15).collect::<Vec<u32>>());
    }

    #[test]
    fn sweep_metrics_round_trip_json() {
        let base = small_base(Pattern::MessageRace, 4, 3);
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..RunCtx::default()
        };
        let metrics = sweep(SweepAxis::Procs, &base, &[4.0, 6.0], &ctx)
            .unwrap()
            .metrics
            .unwrap();
        let json = serde_json::to_string_pretty(&metrics).unwrap();
        let back: SweepMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn stored_sweep_matches_plain_and_rerun_is_warm() {
        let dir =
            std::env::temp_dir().join(format!("anacin-sweep-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = anacin_store::ArtifactStore::open(&dir).unwrap();
        let ctx = RunCtx {
            store: Some(&store),
            ..RunCtx::default()
        };
        let base = small_base(Pattern::MessageRace, 6, 5);
        let percents = [0.0, 100.0];
        let plain = plain(SweepAxis::NdPercent, &base, &percents);
        let cold = sweep(SweepAxis::NdPercent, &base, &percents, &ctx).unwrap();
        assert_eq!(cold.mean_series(), plain.mean_series());
        let puts_after_cold = store.activity().puts;
        let warm = sweep(SweepAxis::NdPercent, &base, &percents, &ctx).unwrap();
        assert_eq!(warm.mean_series(), plain.mean_series());
        // The warm sweep published nothing new.
        assert_eq!(store.activity().puts, puts_after_cold);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sweep_series_shapes() {
        let base = small_base(Pattern::MessageRace, 6, 6);
        let sweep = plain(SweepAxis::NdPercent, &base, &[0.0, 100.0]);
        assert_eq!(sweep.parameter, "nd_percent");
        assert_eq!(sweep.mean_series().len(), 2);
    }
}
