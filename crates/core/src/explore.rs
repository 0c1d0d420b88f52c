//! Exhaustive-schedule campaigns: run the feature/Gram pipeline over the
//! *enumerated* schedule space instead of a random sample.
//!
//! [`explore_campaign`] is the systematic counterpart of
//! [`run_campaign`](crate::campaign::run_campaign): where a sampled
//! campaign simulates N random seeds and measures the spread of kernel
//! distances, an explore campaign asks `mpisim::explore` for every
//! distinct schedule the program admits (up to a budget), replays each
//! one through the engine at the campaign's base seed, and runs the same
//! graph/kernel pipeline over the results. The payoff is the statistics
//! sampling cannot give:
//!
//! * `max_distance` over the *whole* schedule space is a true worst case
//!   (when the enumeration is complete), not an empirical maximum;
//! * [`ExploreCampaignResult::coverage_of`] reports how much of the
//!   schedule space a sampled campaign actually visited, and checks the
//!   containment oracle (every sampled schedule ∈ explored set).
//!
//! Explored traces flow through the artifact store keyed by
//! [`ScheduleId`] ([`explore_fingerprint`]), so re-exploring a setting is
//! warm: the enumeration re-runs (it is fast and pure), but replays hit.

use crate::campaign::{CampaignError, CampaignResult, RunCtx};
use crate::config::{CampaignConfig, GramApprox};
use crate::engine::{self, Plan, Source};
use crate::incremental::absorb_setting;
use anacin_kernels::matrix::KernelMatrix;
use anacin_mpisim::explore::{
    explore, flush_explore_metrics, ExploreConfig, ExploreReport, ScheduleId,
};
use anacin_mpisim::program::Program;
use anacin_store::{Fingerprint, FingerprintHasher};
use serde::Serialize;
use std::collections::HashSet;

/// The fingerprint naming the replayed trace of one explored schedule.
/// Absorbs the run setting (pattern, app, ND, nodes, delay model), the
/// base seed (replays use `sim_config(0)`), and the schedule id — so a
/// re-exploration of the same setting is warm, and any semantic change
/// misses cleanly.
pub fn explore_fingerprint(config: &CampaignConfig, id: ScheduleId) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/explore");
    absorb_setting(&mut h, config);
    h.write_str("seed");
    h.write_u64(config.base_seed);
    h.write_str("schedule");
    h.write_u64(id.0);
    h.finish()
}

/// The measurement of one explore campaign: the enumeration and the
/// kernel matrix over one replay per distinct schedule.
pub struct ExploreCampaignResult {
    /// The configuration that produced the result.
    pub config: CampaignConfig,
    /// The program whose schedules were enumerated.
    pub program: Program,
    /// The enumeration itself: schedules in discovery order + statistics.
    pub report: ExploreReport,
    /// The kernel matrix over the explored schedules (same order).
    pub matrix: KernelMatrix,
}

/// How a sampled campaign relates to an explored schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ExploreCoverage {
    /// Distinct schedules enumerated.
    pub explored: u64,
    /// Whether the enumeration was complete (no budget fired).
    pub complete: bool,
    /// Sampled runs inspected.
    pub sampled_runs: u64,
    /// Distinct schedules among the sampled runs.
    pub sampled_distinct: u64,
    /// Distinct sampled schedules that are members of the explored set.
    /// Equals `sampled_distinct` whenever `covered`; on a truncated walk
    /// it can be smaller.
    pub overlap: u64,
    /// `overlap / explored`: the fraction of the enumerated space the
    /// sample visited (1.0 = the sample saw everything).
    pub fraction: f64,
    /// Every sampled schedule is a member of the explored set. Must hold
    /// whenever `complete` — the exhaustiveness oracle.
    pub covered: bool,
    /// Maximum pairwise kernel distance among the sampled runs.
    pub sampled_max: f64,
    /// Maximum pairwise kernel distance over the explored schedules —
    /// the true worst case when `complete`, so `explored_max >=
    /// sampled_max` up to float tolerance.
    pub explored_max: f64,
}

fn max_pairwise(matrix: &KernelMatrix) -> f64 {
    matrix
        .pairwise_distances()
        .into_iter()
        .filter(|d| d.is_finite())
        .fold(0.0, f64::max)
}

impl ExploreCampaignResult {
    /// All pairwise kernel distances between explored schedules.
    pub fn distance_sample(&self) -> Vec<f64> {
        self.matrix.pairwise_distances()
    }

    /// Smallest pairwise distance (0.0 with fewer than two schedules).
    pub fn min_distance(&self) -> f64 {
        let m = self
            .matrix
            .pairwise_distances()
            .into_iter()
            .filter(|d| d.is_finite())
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Largest pairwise distance — the worst case over the schedule space
    /// when the enumeration is complete.
    pub fn max_distance(&self) -> f64 {
        max_pairwise(&self.matrix)
    }

    /// Mean pairwise distance over explored schedules.
    pub fn mean_distance(&self) -> f64 {
        self.matrix.mean_pairwise_distance()
    }

    /// Compare against a sampled campaign of the same setting.
    pub fn coverage_of(&self, sampled: &CampaignResult) -> ExploreCoverage {
        let explored_ids: HashSet<u64> = self.report.schedules.iter().map(|s| s.id().0).collect();
        let sampled_ids: HashSet<u64> = sampled.schedules.iter().map(|id| id.0).collect();
        let covered = sampled_ids.iter().all(|id| explored_ids.contains(id));
        let overlap = sampled_ids.intersection(&explored_ids).count() as u64;
        let fraction = if explored_ids.is_empty() {
            0.0
        } else {
            overlap as f64 / explored_ids.len() as f64
        };
        ExploreCoverage {
            explored: explored_ids.len() as u64,
            complete: self.report.is_complete(),
            sampled_runs: sampled.schedules.len() as u64,
            sampled_distinct: sampled_ids.len() as u64,
            overlap,
            fraction,
            covered,
            sampled_max: max_pairwise(&sampled.matrix),
            explored_max: self.max_distance(),
        }
    }
}

/// Enumerate the schedule space, replay every distinct schedule through
/// the campaign engine at the campaign's base seed, and measure the
/// replays. Schedule pins matching and seed pins delays, so each replay is
/// bit-deterministic: with a store in `ctx`, replayed traces are keyed by
/// [`explore_fingerprint`] and a repeated exploration is warm and
/// byte-identical. Records `explore`, `explore/build` and
/// `explore/enumerate` spans around the engine's own, plus the standard
/// explore counters. The matrix is always exact: the worst case over the
/// schedule space is only a bound when every pairwise product is
/// computed. A simulator error met during the enumeration is
/// [`CampaignError::Explore`].
pub fn explore_campaign(
    config: &CampaignConfig,
    xcfg: &ExploreConfig,
    ctx: &RunCtx,
) -> Result<ExploreCampaignResult, CampaignError> {
    let _outer = ctx.metrics.map(|m| m.span("explore"));
    let program = engine::build_program(config, ctx);
    let report = {
        let _s = ctx.metrics.map(|m| m.span("enumerate"));
        let r = explore(&program, xcfg).map_err(CampaignError::Explore)?;
        if let Some(m) = ctx.metrics {
            flush_explore_metrics(m, &r.stats);
        }
        r
    };
    let plan = Plan {
        source: Source::Schedules(&report.schedules),
        append: false,
        run_base: 0,
    };
    let exact = config.clone().approx(GramApprox::Exact);
    let matrix = engine::run(&exact, &program, ctx, plan, &|_, _| ())?.matrix;
    Ok(ExploreCampaignResult {
        config: config.clone(),
        program,
        report,
        matrix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use anacin_miniapps::Pattern;
    use anacin_mpisim::explore::simulate_scheduled;
    use anacin_mpisim::trace::Trace;
    use anacin_obs::MetricsRegistry;
    use anacin_store::{Artifact, ArtifactStore};
    use std::path::PathBuf;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig::new(Pattern::MessageRace, 5).runs(20)
    }

    fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir =
            std::env::temp_dir().join(format!("anacin-explore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        (dir, store)
    }

    /// The replayed trace of every explored schedule, as `store` holds it
    /// under the schedule's explore key.
    fn stored_traces(store: &ArtifactStore, r: &ExploreCampaignResult) -> Vec<Trace> {
        r.report
            .schedules
            .iter()
            .map(|s| {
                let fp = explore_fingerprint(&r.config, s.id());
                store.get::<Trace>(fp).unwrap().expect("replay stored")
            })
            .collect()
    }

    #[test]
    fn message_race_explores_completely_and_covers_samples() {
        // 4 senders → 4! = 24 distinct schedules.
        let cfg = small_cfg();
        let r = explore_campaign(&cfg, &ExploreConfig::default(), &RunCtx::default()).unwrap();
        assert_eq!(r.report.schedules.len(), 24);
        assert!(r.report.is_complete());
        assert_eq!(r.matrix.len(), 24, "one replay per schedule");
        let sampled = run_campaign(&cfg).unwrap();
        let cov = r.coverage_of(&sampled);
        assert!(cov.covered, "a sampled schedule escaped the enumeration");
        assert_eq!(cov.overlap, cov.sampled_distinct, "covered ⇒ full overlap");
        assert!(cov.sampled_distinct <= cov.explored);
        assert!(cov.fraction > 0.0 && cov.fraction <= 1.0);
        assert!(cov.explored_max >= cov.sampled_max - 1e-9);
    }

    #[test]
    fn explore_campaign_is_deterministic() {
        let cfg = small_cfg();
        let ((dir_a, store_a), (dir_b, store_b)) = (tmp_store("det-a"), tmp_store("det-b"));
        let run = |store| {
            let ctx = RunCtx {
                store: Some(store),
                ..RunCtx::default()
            };
            explore_campaign(&cfg, &ExploreConfig::default(), &ctx).unwrap()
        };
        let (a, b) = (run(&store_a), run(&store_b));
        assert_eq!(a.report.ids(), b.report.ids());
        assert_eq!(stored_traces(&store_a, &a), stored_traces(&store_b, &b));
        assert_eq!(a.matrix, b.matrix);
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }

    #[test]
    fn explored_distances_are_schedule_distances() {
        // Replays of the *same* schedule under different base seeds give
        // different times but identical graphs — distances depend only on
        // the schedule, which is what makes explored_max comparable to
        // sampled maxima.
        let cfg = small_cfg();
        let a = explore_campaign(&cfg, &ExploreConfig::default(), &RunCtx::default()).unwrap();
        let b = explore_campaign(
            &cfg.clone().base_seed(999),
            &ExploreConfig::default(),
            &RunCtx::default(),
        )
        .unwrap();
        assert_eq!(a.report.ids(), b.report.ids());
        assert_eq!(a.matrix, b.matrix);
        // Self-distances vanish: distinct schedules drive all spread.
        assert!(a.max_distance() > 0.0);
        assert!(a.min_distance() >= 0.0);
        assert!(a.mean_distance() > 0.0);
    }

    #[test]
    fn store_makes_re_exploration_warm_and_bit_identical() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("warm");
        let ctx = RunCtx {
            store: Some(&store),
            ..RunCtx::default()
        };
        let cold = explore_campaign(&cfg, &ExploreConfig::default(), &ctx).unwrap();
        let before = store.activity();
        let warm = explore_campaign(&cfg, &ExploreConfig::default(), &ctx).unwrap();
        let after = store.activity();
        assert!(after.hits >= before.hits + cold.report.schedules.len() as u64);
        // The warm pass read the cold pass's replays and wrote nothing.
        assert_eq!(after.puts, before.puts);
        assert_eq!(warm.matrix, cold.matrix);
        // Every stored replay is byte-identical to the replay a storeless
        // exploration computes, and both paths measure the same matrix.
        let sc = cfg.sim_config(0);
        for (s, stored) in cold
            .report
            .schedules
            .iter()
            .zip(stored_traces(&store, &cold))
        {
            let fresh = simulate_scheduled(&cold.program, &sc, s).unwrap();
            assert_eq!(
                stored.to_wire(),
                fresh.to_wire(),
                "replay not byte-identical"
            );
        }
        let plain = explore_campaign(&cfg, &ExploreConfig::default(), &RunCtx::default()).unwrap();
        assert_eq!(plain.matrix, cold.matrix);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_exploration_reports_incomplete_coverage() {
        let cfg = small_cfg();
        let xcfg = ExploreConfig::with_budget(6);
        let r = explore_campaign(&cfg, &xcfg, &RunCtx::default()).unwrap();
        assert_eq!(r.report.schedules.len(), 6);
        assert!(!r.report.is_complete());
        let sampled = run_campaign(&cfg).unwrap();
        let cov = r.coverage_of(&sampled);
        assert!(!cov.complete);
    }

    #[test]
    fn explore_metrics_cover_every_stage() {
        let cfg = small_cfg();
        let m = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&m),
            ..RunCtx::default()
        };
        let r = explore_campaign(&cfg, &ExploreConfig::default(), &ctx).unwrap();
        let rep = m.report();
        for stage in [
            "explore",
            "explore/build",
            "explore/enumerate",
            "explore/campaign",
            "explore/campaign/gram",
            "run/simulate",
            "run/graph",
            "run/features",
        ] {
            assert!(rep.span(stage).is_some(), "missing span {stage}");
        }
        assert_eq!(
            rep.counter("explore/schedules"),
            Some(r.report.stats.schedules)
        );
        assert_eq!(
            rep.counter("explore/branches"),
            Some(r.report.stats.branches)
        );
        assert!(rep.counter("explore/pruned").is_some());
        assert_eq!(rep.counter("explore/replays"), Some(24));
        // Observability never changes the measurement.
        let plain = explore_campaign(&cfg, &ExploreConfig::default(), &RunCtx::default()).unwrap();
        assert_eq!(r.matrix, plain.matrix);
    }

    #[test]
    fn explore_fingerprints_separate_inputs() {
        let cfg = small_cfg();
        let r = explore_campaign(&cfg, &ExploreConfig::default(), &RunCtx::default()).unwrap();
        let a = r.report.schedules[0].id();
        let b = r.report.schedules[1].id();
        let base = explore_fingerprint(&cfg, a);
        assert_ne!(base, explore_fingerprint(&cfg, b));
        assert_ne!(base, explore_fingerprint(&cfg.clone().nd_percent(50.0), a));
        assert_ne!(base, explore_fingerprint(&cfg.clone().base_seed(9), a));
        // Thread count is not key material.
        let mut threaded = cfg.clone();
        threaded.threads = 1;
        assert_eq!(base, explore_fingerprint(&threaded, a));
    }
}
