//! Campaigns: simulate N seeded runs in parallel, build their event
//! graphs, and compute the kernel matrix.
//!
//! This is the paper's experimental loop ("run the same application many
//! times to collect a sample of non-deterministic executions", §III-B),
//! compressed from cluster-hours to milliseconds by the simulator. Every
//! entry point here, the sweeps, the explorer, root-cause analysis and
//! the kernel ablation run the same private engine, which frees each
//! run's trace and graph inside its worker; they differ only in what
//! they take from each run there and in the [`RunCtx`] they pass.

use crate::config::CampaignConfig;
use crate::engine::{self, Plan, Source};
use anacin_event_graph::EventGraph;
use anacin_kernels::matrix::KernelMatrix;
use anacin_mpisim::engine::SimError;
use anacin_mpisim::explore::ScheduleId;
use anacin_mpisim::program::Program;
use anacin_mpisim::replay::MatchRecord;
use anacin_mpisim::stack::CallStackTable;
use anacin_mpisim::trace::Trace;
use anacin_obs::{CancelToken, MetricsRegistry, Tracer};
use anacin_store::{ArtifactStore, StoreError};
use std::fmt;

/// The optional observers and resources of one campaign, sweep or
/// exploration. `RunCtx::default()` is a plain run: no metrics, no
/// tracing, no cancellation, no store. None of them changes a
/// measurement.
#[derive(Clone, Copy, Default)]
pub struct RunCtx<'a> {
    /// Stage spans (`build`, `campaign`, `campaign/gram`, `campaign/sync`
    /// with a store, and the per-run worker spans `run/simulate`,
    /// `run/graph`, `run/features`) plus simulator, graph, kernel and
    /// campaign counters.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Receives every run's simulated-time events, tagged with its run
    /// index, once the run's trace exists (simulated or read from the
    /// store). The worker hands them over in batches and waits while the
    /// tracer's channel is full, so the tracer's sink gets every event;
    /// it is complete once the caller's [`Tracer::finish`] returns.
    /// Wall-clock spans reach it only when it is also attached to
    /// `metrics` via [`MetricsRegistry::attach_tracer`].
    pub tracer: Option<&'a Tracer>,
    /// Cooperative cancellation: once it fires, workers stop claiming
    /// runs and each finishes the run it is on. The call then returns
    /// [`CampaignError::Cancelled`]; a result is never partial.
    pub cancel: Option<&'a CancelToken>,
    /// Read-through cache for every run's trace, event graph and feature
    /// vector and for the exact Gram matrix: each artifact is looked up
    /// before it is computed and published after, so an interrupted
    /// campaign resumes warm. Whatever the call published is flushed to
    /// stable storage, once, before it returns (also when it fails or is
    /// cancelled). See [`crate::incremental`] for the keys.
    pub store: Option<&'a ArtifactStore>,
}

/// Why a campaign, sweep or exploration produced no result.
#[derive(Debug)]
pub enum CampaignError {
    /// A run failed to simulate. `run` is the lowest failing run index
    /// (whatever the thread interleaving) and `seed` its exact simulator
    /// seed, so the failure can be replayed directly.
    Run {
        /// Index of the failing run.
        run: u32,
        /// The simulator seed that run used (`base_seed + run`).
        seed: u64,
        /// The underlying simulator failure.
        source: SimError,
    },
    /// Enumerating the schedule space failed: some explored execution
    /// made the simulator report this error.
    Explore(SimError),
    /// The artifact store failed in a way that is not self-healable (I/O).
    Store(StoreError),
    /// The cancel token fired before the campaign finished.
    Cancelled {
        /// Runs that had fully completed when the campaign stopped.
        completed_runs: u32,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Run { run, seed, source } => {
                write!(f, "run {run} (seed {seed}) failed: {source}")
            }
            CampaignError::Explore(e) => write!(f, "schedule exploration failed: {e}"),
            CampaignError::Store(e) => write!(f, "artifact store failed: {e}"),
            CampaignError::Cancelled { completed_runs } => {
                write!(f, "cancelled after {completed_runs} completed run(s)")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Run { source, .. } | CampaignError::Explore(source) => Some(source),
            CampaignError::Store(e) => Some(e),
            CampaignError::Cancelled { .. } => None,
        }
    }
}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Store(e)
    }
}

/// The measurement of one campaign. Each run's trace and graph are freed
/// inside its worker, so memory stays one in-flight run per worker plus
/// the feature vectors, whatever the rank or run count.
pub struct CampaignResult {
    /// The configuration that produced the result.
    pub config: CampaignConfig,
    /// The program all runs executed.
    pub program: Program,
    /// The kernel matrix over all runs.
    pub matrix: KernelMatrix,
    /// The schedule each run realised (`MatchRecord::from_trace(trace).id()`
    /// of run `i`, seed `base_seed + i`), in run order.
    pub schedules: Vec<ScheduleId>,
    /// Total simulated trace events across all runs.
    pub total_events: u64,
    /// Total event-graph nodes across all runs.
    pub total_nodes: u64,
}

impl CampaignResult {
    /// The interned call-path table (shared by every run).
    pub fn stacks(&self) -> &CallStackTable {
        self.program.stacks()
    }

    /// The kernel-distance sample: all pairwise distances between runs —
    /// the data behind the paper's violins.
    pub fn distance_sample(&self) -> Vec<f64> {
        self.matrix.pairwise_distances()
    }

    /// The scalar "measured amount of non-determinism": the mean pairwise
    /// kernel distance.
    pub fn mean_distance(&self) -> f64 {
        self.matrix.mean_pairwise_distance()
    }
}

/// Run a full campaign: simulate, graph, and measure.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, CampaignError> {
    run_campaign_with(config, &RunCtx::default())
}

// Kept because perfbench's wide-stream workload calls this name.
#[doc(hidden)]
pub use self::run_campaign as run_campaign_streaming;

/// [`run_campaign`] under a [`RunCtx`]. The result is bit-identical to
/// the plain one whatever the context: observers never touch simulated
/// time or the injection RNG, and stored artifacts decode to exactly the
/// values that were published.
pub fn run_campaign_with(
    config: &CampaignConfig,
    ctx: &RunCtx,
) -> Result<CampaignResult, CampaignError> {
    Ok(seeded_campaign(config, ctx, false, &|_, _| ())?.0)
}

/// Grow a stored campaign: like [`run_campaign_with`], but the Gram stage
/// reuses the largest stored prefix matrix of this run set and computes
/// only the new rows/columns — `R + 1` dot products per added run instead
/// of the `O(R²)` a recompute costs. Every grown matrix is published under
/// its run set's key, and the result is byte-identical to a cold
/// recompute: `gram_append` copies the stored values and computes each new
/// entry by the exact expression the full schedule uses. Without a store
/// or a stored prefix this is [`run_campaign_with`].
pub fn run_campaign_append(
    config: &CampaignConfig,
    ctx: &RunCtx,
) -> Result<CampaignResult, CampaignError> {
    Ok(seeded_campaign(config, ctx, true, &|_, _| ())?.0)
}

/// A seeded campaign whose workers also reduce every run with `per_run`
/// before its trace and graph are freed; returns the campaign and the
/// reductions in run order.
pub(crate) fn seeded_campaign<S: Send>(
    config: &CampaignConfig,
    ctx: &RunCtx,
    append: bool,
    per_run: &(dyn Fn(&Trace, &EventGraph) -> S + Sync),
) -> Result<(CampaignResult, Vec<S>), CampaignError> {
    let program = engine::build_program(config, ctx);
    let plan = Plan {
        source: Source::Seeded,
        append,
        run_base: 0,
    };
    let out = engine::run(config, &program, ctx, plan, &|t, g| {
        (MatchRecord::from_trace(t).id(), per_run(t, g))
    })?;
    let (schedules, reduced) = out.per_run.into_iter().unzip();
    let result = CampaignResult {
        config: config.clone(),
        program,
        matrix: out.matrix,
        schedules,
        total_events: out.total_events,
        total_nodes: out.total_nodes,
    };
    Ok((result, reduced))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use anacin_miniapps::Pattern;
    use anacin_mpisim::engine::simulate;
    use anacin_obs::GaugeSample;

    /// Every run of `cfg`, simulated afresh: run `i` is a pure function of
    /// `cfg.sim_config(i)`, so this is what the campaign's workers saw.
    pub(crate) fn fresh_traces(cfg: &CampaignConfig) -> Vec<Trace> {
        let program = cfg.pattern.build(&cfg.app);
        (0..cfg.runs)
            .map(|i| simulate(&program, &cfg.sim_config(i)).unwrap())
            .collect()
    }

    #[test]
    fn campaign_produces_consistent_artifacts() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(8);
        let r = run_campaign(&cfg).unwrap();
        let traces = fresh_traces(&cfg);
        assert_eq!(r.schedules.len(), 8);
        assert_eq!(r.matrix.len(), 8);
        assert_eq!(r.distance_sample().len(), 8 * 7 / 2);
        for (t, id) in traces.iter().zip(&r.schedules) {
            assert_eq!(t.meta.unmatched_messages, 0);
            assert_eq!(MatchRecord::from_trace(t).id(), *id);
        }
        let nodes: usize = traces
            .iter()
            .map(|t| EventGraph::from_trace(t).node_count())
            .sum();
        assert_eq!(r.total_nodes, nodes as u64);
    }

    #[test]
    fn zero_nd_campaign_has_zero_distance() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6)
            .nd_percent(0.0)
            .runs(6);
        let r = run_campaign(&cfg).unwrap();
        assert_eq!(r.mean_distance(), 0.0);
    }

    #[test]
    fn full_nd_campaign_has_positive_distance() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
        let r = run_campaign(&cfg).unwrap();
        assert!(r.mean_distance() > 0.0);
    }

    #[test]
    fn pre_cancelled_campaign_completes_no_runs() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(64);
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunCtx {
            cancel: Some(&token),
            ..RunCtx::default()
        };
        match run_campaign_with(&cfg, &ctx) {
            Err(CampaignError::Cancelled { completed_runs }) => {
                assert_eq!(
                    completed_runs, 0,
                    "workers must not claim past a fired token"
                )
            }
            Err(e) => panic!("unexpected failure: {e}"),
            Ok(_) => panic!("a pre-cancelled campaign must not produce a result"),
        }
        // The same config with an unfired token runs to completion and
        // matches the plain path bit-for-bit.
        let live = CancelToken::new();
        let ctx = RunCtx {
            cancel: Some(&live),
            ..RunCtx::default()
        };
        let live = run_campaign_with(&cfg, &ctx).expect("unfired token must not interrupt");
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(live.distance_sample(), plain.distance_sample());
    }

    #[test]
    fn campaign_is_reproducible() {
        let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 6).runs(6);
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.distance_sample(), b.distance_sample());
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.total_nodes, b.total_nodes);
    }

    #[test]
    fn different_base_seeds_usually_differ() {
        let a = run_campaign(&CampaignConfig::new(Pattern::MessageRace, 8).runs(6))
            .unwrap()
            .mean_distance();
        let b = run_campaign(
            &CampaignConfig::new(Pattern::MessageRace, 8)
                .runs(6)
                .base_seed(5000),
        )
        .unwrap()
        .mean_distance();
        // Not a hard invariant, but with continuous delays a collision is
        // effectively impossible.
        assert_ne!(a, b);
    }

    #[test]
    fn failing_campaign_reports_run_and_seed() {
        // Every run of a self-deadlocking program fails; the error must
        // identify the lowest run index and its exact simulator seed so the
        // failure can be replayed directly.
        use anacin_mpisim::prelude::*;
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).recv(Rank(1), TagSpec::Tag(Tag(0)));
        b.rank(Rank(1)).recv(Rank(0), TagSpec::Tag(Tag(0)));
        let program = b.build();
        let cfg = CampaignConfig::new(anacin_miniapps::Pattern::MessageRace, 2)
            .runs(4)
            .base_seed(77);
        let plan = Plan {
            source: Source::Seeded,
            append: false,
            run_base: 0,
        };
        let Err(err) = engine::run(&cfg, &program, &RunCtx::default(), plan, &|_, _| ()) else {
            panic!("a deadlocking program must fail");
        };
        let CampaignError::Run { run, seed, source } = &err else {
            panic!("expected a run failure, got {err}");
        };
        assert_eq!((*run, *seed), (0, 77));
        assert!(matches!(source, SimError::Deadlock(_)));
        let msg = err.to_string();
        assert!(msg.contains("run 0"), "{msg}");
        assert!(msg.contains("seed 77"), "{msg}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn every_mode_reports_the_same_stage_spans_and_counters() {
        let cfg = CampaignConfig::new(Pattern::MessageRace, 6).runs(5);
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..RunCtx::default()
        };
        let r = run_campaign_with(&cfg, &ctx).unwrap();
        let append_reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&append_reg),
            ..RunCtx::default()
        };
        let s = run_campaign_append(&cfg, &ctx).unwrap();
        let traces = fresh_traces(&cfg);
        let events: usize = traces.iter().map(|t| t.total_events()).sum();
        let nodes: usize = traces
            .iter()
            .map(|t| EventGraph::from_trace(t).node_count())
            .sum();
        for result in [&r, &s] {
            assert_eq!(
                (result.total_events, result.total_nodes),
                (events as u64, nodes as u64)
            );
        }
        for report in [reg.report(), append_reg.report()] {
            // Wall-times are present (non-negative by construction: the
            // report stores unsigned nanoseconds) for every stage.
            for (stage, count) in [
                ("build", 1),
                ("campaign", 1),
                ("campaign/gram", 1),
                ("run/simulate", 5),
                ("run/graph", 5),
                ("run/features", 5),
            ] {
                let sp = report
                    .span(stage)
                    .unwrap_or_else(|| panic!("missing span {stage}"));
                assert_eq!(sp.count, count, "{stage}");
                assert!(sp.total_ns >= sp.max_ns, "{stage}");
            }
            assert_eq!(report.counter("campaign/runs"), Some(5));
            assert_eq!(report.counter("sim/runs"), Some(5));
            assert_eq!(report.counter("sim/events"), Some(events as u64));
            assert_eq!(report.counter("graph/nodes"), Some(nodes as u64));
            assert_eq!(report.counter("kernel/features"), Some(5));
            assert_eq!(report.counter("kernel/dot_products"), Some(5 * 6 / 2));
            assert_eq!(report.counter("stats/nan_distances"), Some(0));
            let threads = GaugeSample {
                name: "kernel/threads".to_string(),
                value: cfg.threads.min(5) as f64,
            };
            assert_eq!(report.gauges, [threads]);
        }
        // The metrics run is bit-identical to an unobserved one.
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(r.distance_sample(), plain.distance_sample());
        assert_eq!(s.matrix, plain.matrix);
    }
}
