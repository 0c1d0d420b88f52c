//! The one campaign engine behind every campaign, sweep and exploration.
//!
//! The runs go through [`anacin_obs::pool`], which runs them on the
//! campaign's threads and hands back the finished prefix when the cancel
//! token fires. Each run goes simulate → graph → features on its worker,
//! with the artifact store (when the [`RunCtx`] has one) as a
//! read-through cache at every stage: an artifact is looked up before it
//! is computed and published after. A stage's span times only its
//! computing; lookups record under `run/load` and publications under
//! `run/publish`, so a warm run names no compute stage.
//! One Gram stage then reads a stored matrix, grows a stored prefix
//! (append), or computes the matrix.
//!
//! Callers vary only two things ([`Plan`]): where runs come from (seeded
//! runs or replays of explored schedules) and whether the Gram stage may
//! grow a stored prefix. Every run's trace and graph are freed inside its
//! worker; a caller that needs more of a run than its feature vector
//! passes a per-run function, which the worker calls while both exist.

use crate::campaign::{CampaignError, RunCtx};
use crate::config::CampaignConfig;
use crate::explore::explore_fingerprint;
use crate::incremental::{
    campaign_fingerprint, features_fingerprint, get_or_heal, run_fingerprint,
};
use anacin_event_graph::EventGraph;
use anacin_kernels::feature::SparseFeatures;
use anacin_kernels::kernel::GraphKernel;
use anacin_kernels::matrix::{gram_append, gram_from_features_with_metrics, KernelMatrix};
use anacin_mpisim::engine::{simulate_counted, simulate_replay};
use anacin_mpisim::program::Program;
use anacin_mpisim::replay::MatchRecord;
use anacin_mpisim::trace::Trace;
use anacin_mpisim::SimCounters;
use anacin_obs::progress::RUNS_DONE;
use anacin_obs::{pool, Counter, Span};
use anacin_store::{Artifact, ArtifactStore, DistanceSample, Fingerprint, StoreError};
use std::sync::OnceLock;

/// Where run `i` comes from.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// Seeded run `i` (`config.sim_config(i)`). Its trace, graph and
    /// features are stored under the run keys, the exact matrix under the
    /// campaign key.
    Seeded,
    /// A replay of explored schedule `i` at the base seed. Only its trace
    /// is stored, under its explore key.
    Schedules(&'a [MatchRecord]),
}

/// How one engine call differs from a plain campaign.
pub(crate) struct Plan<'a> {
    pub source: Source<'a>,
    /// Grow the largest stored Gram prefix of this run set instead of
    /// recomputing the matrix (append jobs).
    pub append: bool,
    /// Tracer run id of run 0: sweeps offset each point's runs so ids
    /// never collide on a shared tracer.
    pub run_base: u32,
}

/// Everything one engine call produced.
pub(crate) struct Output<S> {
    /// The per-run function's value for each run, in run order.
    pub per_run: Vec<S>,
    pub matrix: KernelMatrix,
    pub total_events: u64,
    pub total_nodes: u64,
}

/// One finished run, as its worker hands it back.
struct RunOut<S> {
    summary: S,
    features: SparseFeatures,
    events: u64,
    nodes: u64,
}

/// Build `config`'s program under a `build` span. Every campaign, sweep
/// point and exploration builds its program on the calling thread before
/// any worker starts, so this is time the workers wait.
pub(crate) fn build_program(config: &CampaignConfig, ctx: &RunCtx) -> Program {
    let _s = ctx.metrics.map(|m| m.span("build"));
    config.pattern.build(&config.app)
}

/// Run `plan` over `program`, calling `per_run` on each run's trace and
/// graph inside its worker. Records the `campaign` span (with
/// `campaign/gram` and, with a store, `campaign/sync` under it) on the
/// calling thread; on the workers, the `run/simulate`, `run/graph` and
/// `run/features` spans of what each run computes, with a store its
/// `run/load` and `run/publish` spans, and the [`RUNS_DONE`] counter once
/// per finished run.
///
/// With a store, the campaign ends with its one durability barrier
/// ([`ArtifactStore::sync`]) on every path: a cancelled or failed
/// campaign has still published the runs it finished, and a fully warm
/// one published nothing and flushes nothing.
pub(crate) fn run<S: Send>(
    config: &CampaignConfig,
    program: &Program,
    ctx: &RunCtx,
    plan: Plan,
    per_run: &(dyn Fn(&Trace, &EventGraph) -> S + Sync),
) -> Result<Output<S>, CampaignError> {
    let _campaign = ctx.metrics.map(|m| m.span("campaign"));
    let kernel = config.kernel.instantiate();
    let engine = Engine {
        config,
        program,
        ctx,
        kernel: kernel.as_ref(),
        plan: &plan,
        per_run,
        counters: OnceLock::new(),
        runs_done: ctx.metrics.map(|m| m.counter(RUNS_DONE)),
    };
    let out = engine.output();
    let synced = ctx.store.map_or(Ok(()), |store| {
        let _s = ctx.metrics.map(|m| m.span("sync"));
        store.sync()
    });
    let out = out?;
    synced?;
    Ok(out)
}

struct Engine<'a, S> {
    config: &'a CampaignConfig,
    program: &'a Program,
    ctx: &'a RunCtx<'a>,
    kernel: &'a dyn GraphKernel,
    plan: &'a Plan<'a>,
    per_run: &'a (dyn Fn(&Trace, &EventGraph) -> S + Sync),
    /// Created at the first simulation, so a fully warm campaign reports
    /// no `sim/*` counters.
    counters: OnceLock<SimCounters>,
    /// Bumped once per finished run: what progress reports count.
    runs_done: Option<Counter>,
}

impl<S: Send> Engine<'_, S> {
    /// Every run, then the Gram stage.
    fn output(&self) -> Result<Output<S>, CampaignError> {
        let (config, metrics) = (self.config, self.ctx.metrics);
        let runs = self.runs()?;
        if self.ctx.cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(CampaignError::Cancelled {
                completed_runs: runs.len() as u32,
            });
        }
        let (mut per_run, mut feats) = (Vec::new(), Vec::new());
        let (mut total_events, mut total_nodes) = (0, 0);
        for r in runs {
            total_events += r.events;
            total_nodes += r.nodes;
            per_run.push(r.summary);
            feats.push(r.features);
        }
        let matrix = {
            let _s = metrics.map(|m| m.span("gram"));
            self.gram(&feats)?
        };
        if let (Some(m), Source::Seeded) = (metrics, self.plan.source) {
            m.counter("campaign/runs").add(config.runs as u64);
            let nan = anacin_stats::nan_count(&matrix.pairwise_distances());
            m.counter("stats/nan_distances").add(nan as u64);
        }
        Ok(Output {
            per_run,
            matrix,
            total_events,
            total_nodes,
        })
    }

    fn len(&self) -> usize {
        match self.plan.source {
            Source::Seeded => self.config.runs as usize,
            Source::Schedules(s) => s.len(),
        }
    }

    /// Every run, in index order. Once the cancel token fires, workers
    /// stop claiming runs; the run each one is on completes, so a
    /// half-built trace is never observable and (with a store) every
    /// finished run is published.
    fn runs(&self) -> Result<Vec<RunOut<S>>, CampaignError> {
        let n = self.len();
        if let Some(m) = self.ctx.metrics {
            let workers = pool::workers(n, self.config.threads);
            m.set_gauge("kernel/threads", workers as f64);
        }
        // The finished runs are a prefix, so its first failure is the
        // lowest failing run, however the runs interleaved.
        let outs = pool::map_indexed(n, self.config.threads, self.ctx.cancel, |i| self.run_one(i))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        if outs.len() < n {
            return Err(CampaignError::Cancelled {
                completed_runs: outs.len() as u32,
            });
        }
        Ok(outs)
    }

    fn run_one(&self, i: usize) -> Result<RunOut<S>, CampaignError> {
        let trace = self.trace(i)?;
        if let Some(t) = self.ctx.tracer {
            trace.record_into(t, self.plan.run_base + i as u32);
        }
        let graph = self.graph(i, &trace)?;
        let events = trace.total_events() as u64;
        let summary = (self.per_run)(&trace, &graph);
        // Free the trace before feature extraction: at 1024 ranks it is
        // the largest object on a worker.
        drop(trace);
        let features = self.features(i, &graph)?;
        if let Some(done) = &self.runs_done {
            done.inc();
        }
        Ok(RunOut {
            summary,
            features,
            events,
            nodes: graph.node_count() as u64,
        })
    }

    fn trace(&self, i: usize) -> Result<Trace, CampaignError> {
        let (fp, sc) = match self.plan.source {
            Source::Seeded => (
                run_fingerprint(self.config, i as u32),
                self.config.sim_config(i as u32),
            ),
            Source::Schedules(s) => (
                explore_fingerprint(self.config, s[i].id()),
                self.config.sim_config(0),
            ),
        };
        self.load_or_compute(Some(fp), "run/simulate", || {
            let simulated = match self.plan.source {
                Source::Seeded => {
                    let counters = self
                        .ctx
                        .metrics
                        .map(|m| self.counters.get_or_init(|| SimCounters::new(m)));
                    simulate_counted(self.program, &sc, counters)
                }
                Source::Schedules(s) => {
                    if let Some(m) = self.ctx.metrics {
                        m.counter("explore/replays").inc();
                    }
                    simulate_replay(self.program, &sc, &s[i])
                }
            };
            simulated.map_err(|source| CampaignError::Run {
                run: i as u32,
                seed: sc.seed,
                source,
            })
        })
    }

    fn graph(&self, i: usize, trace: &Trace) -> Result<EventGraph, CampaignError> {
        let fp = self.seeded_key(i, run_fingerprint);
        self.load_or_compute(fp, "run/graph", || {
            let g = EventGraph::from_trace(trace);
            if let Some(m) = self.ctx.metrics {
                m.counter("graph/nodes").add(g.node_count() as u64);
                m.counter("graph/edges").add(g.edge_count() as u64);
                m.counter("graph/message_edges")
                    .add(g.message_edge_count() as u64);
            }
            Ok(g)
        })
    }

    fn features(&self, i: usize, graph: &EventGraph) -> Result<SparseFeatures, CampaignError> {
        let fp = self.seeded_key(i, features_fingerprint);
        self.load_or_compute(fp, "run/features", || {
            let f = self.kernel.features(graph);
            if let Some(m) = self.ctx.metrics {
                m.counter("kernel/features").inc();
            }
            Ok(f)
        })
    }

    /// The Gram stage.
    fn gram(&self, feats: &[SparseFeatures]) -> Result<KernelMatrix, CampaignError> {
        let (config, metrics) = (self.config, self.ctx.metrics);
        let name = self.kernel.name();
        let compute = || gram_from_features_with_metrics(&name, feats, config.threads, metrics);
        let store = match (self.ctx.store, self.plan.source) {
            (Some(store), Source::Seeded) => store,
            _ => return Ok(compute()),
        };
        if self.plan.append {
            // The campaign key is a pure function of the run set, so a
            // shorter campaign with the same base seed is exactly a prefix
            // of this one. Growing it costs R + 1 dots per added run.
            for r in (1..=config.runs).rev() {
                let prefix = campaign_fingerprint(&config.clone().runs(r));
                if let Some(mut m) = get_or_heal::<KernelMatrix>(store, prefix)? {
                    for grown in r + 1..=config.runs {
                        m = gram_append(
                            &m,
                            &feats[..grown as usize],
                            config.threads,
                            config.dot,
                            metrics,
                        );
                        publish_matrix(store, &config.clone().runs(grown), &m)?;
                    }
                    return Ok(m);
                }
            }
        }
        if let Some(m) = get_or_heal::<KernelMatrix>(store, campaign_fingerprint(config))? {
            return Ok(m);
        }
        let m = compute();
        publish_matrix(store, config, &m)?;
        Ok(m)
    }

    /// The store key `key(config, i)` of a seeded run; replays of explored
    /// schedules store only their traces.
    fn seeded_key(
        &self,
        i: usize,
        key: fn(&CampaignConfig, u32) -> Fingerprint,
    ) -> Option<Fingerprint> {
        matches!(self.plan.source, Source::Seeded).then(|| key(self.config, i as u32))
    }

    /// The artifact stored under `fp`, read under a `run/load` span; or,
    /// when there is none, `compute`'s under a `stage` span, published
    /// under `fp` under a `run/publish` span.
    fn load_or_compute<A: Artifact>(
        &self,
        fp: Option<Fingerprint>,
        stage: &'static str,
        compute: impl FnOnce() -> Result<A, CampaignError>,
    ) -> Result<A, CampaignError> {
        let store = self.ctx.store.zip(fp);
        if let Some((store, fp)) = store {
            let _s = self.span("run/load");
            if let Some(a) = get_or_heal(store, fp)? {
                return Ok(a);
            }
        }
        let a = {
            let _s = self.span(stage);
            compute()?
        };
        if let Some((store, fp)) = store {
            let _s = self.span("run/publish");
            store.put(fp, &a)?;
        }
        Ok(a)
    }

    /// A per-run span under exactly `path`, when there are metrics.
    fn span(&self, path: &'static str) -> Option<Span> {
        self.ctx.metrics.map(|m| m.span_at(path))
    }
}

/// Publish an exact matrix and its distance sample under `config`'s
/// campaign key.
fn publish_matrix(
    store: &ArtifactStore,
    config: &CampaignConfig,
    m: &KernelMatrix,
) -> Result<(), StoreError> {
    let fp = campaign_fingerprint(config);
    store.put(fp, m)?;
    store.put(fp, &DistanceSample(m.pairwise_distances()))
}
