//! The batch workloads, `wide-stream` and `many-runs`: whole campaigns
//! through the un-suffixed core entry points, no store.

use crate::report::{Metric, Outcome};
use crate::spans::{self, Spans};
use crate::stats::median;
use crate::{
    layer_metrics, parallel_map, same_bits, secs, Options, ServeReadings, Size, SplitMix64,
};
use crate::{Tally, Workload, SETUP_REPS};
use anacin_core::prelude::*;
use anacin_event_graph::EventGraph;
use anacin_kernels::matrix::gram_from_features_with_metrics;
use anacin_kernels::KernelMatrix;
use anacin_miniapps::Pattern;
use anacin_mpisim::{simulate, Trace};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of every batch campaign.
const THREADS: usize = 2;

/// The campaign a batch workload repeats, and which engine runs it.
/// Also returns how many campaigns the untraced measurement runs at
/// least, however short `--seconds` is: about 12 s of work on two cores,
/// so one run's median rides out short bursts of load from other tenants.
pub fn campaign(workload: Workload, size: Size, seed: u64) -> (CampaignConfig, bool, usize) {
    let (procs, runs, streaming, min_campaigns) = match (workload, size) {
        (Workload::WideStream, Size::Full) => (512, 4, true, 3),
        (Workload::WideStream, Size::Tiny) => (16, 3, true, 1),
        (Workload::ManyRuns, Size::Full) => (32, 192, false, 9),
        (Workload::ManyRuns, Size::Tiny) => (8, 12, false, 1),
        (Workload::ServeMix, _) => unreachable!("serve-mix is not a batch workload"),
    };
    let mut config = CampaignConfig::new(Pattern::Amg2013, procs)
        .runs(runs)
        .nd_percent(100.0)
        .base_seed(SplitMix64::new(seed, 0).base_seed());
    config.threads = THREADS;
    (config, streaming, min_campaigns)
}

/// Run the entry point once and return its matrix.
fn entry_point(config: &CampaignConfig, streaming: bool) -> Result<KernelMatrix, String> {
    let matrix = if streaming {
        run_campaign_streaming(config).map(|r| r.matrix)
    } else {
        run_campaign(config).map(|r| r.matrix)
    };
    matrix.map_err(|e| e.to_string())
}

/// Measure a batch workload, then trace and check it.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (config, streaming, min_campaigns) = campaign(opts.workload, opts.size, opts.seed);
    let mut out = Outcome::default();

    // Set-up: building the simulated program from the workload's inputs.
    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(config.pattern.build(black_box(&config.app)));
            secs(t)
        })
        .collect();

    crate::sys::reset_peak_rss();
    let mut campaign_ms = Vec::new();
    let mut reference: Option<KernelMatrix> = None;
    let started = Instant::now();
    while campaign_ms.len() < min_campaigns || secs(started) < opts.seconds {
        let t = Instant::now();
        let result = entry_point(&config, streaming);
        campaign_ms.push(secs(t) * 1e3);
        let problem = match (result, &reference) {
            (Err(e), _) => Some(format!("campaign failed: {e}")),
            (Ok(m), None) => {
                reference = Some(m);
                None
            }
            (Ok(m), Some(r)) => {
                (!same_bits(&m, r)).then(|| "campaign matrix differs between repeats".to_string())
            }
        };
        out.attempt(problem);
    }
    let loop_s = secs(started);
    let peak_rss = crate::sys::peak_rss_mib().unwrap_or(0.0);
    let Some(reference) = reference else {
        return Err(format!("every campaign failed: {:?}", out.problems));
    };

    // Traced pass: the same campaign, layer by layer.
    let spans = Spans::default();
    let t = Instant::now();
    let traced = recompose(&config, streaming, &spans);
    let traced_s = secs(t);
    let tally = match traced {
        Ok((matrix, tally)) => {
            out.attempt((!same_bits(&matrix, &reference)).then(|| {
                "traced recomposition is not bit-identical to the entry point".to_string()
            }));
            tally
        }
        Err(e) => {
            out.attempt(Some(format!("traced pass failed: {e}")));
            Tally::default()
        }
    };

    let n = campaign_ms.len();
    let p50 = median(&campaign_ms);
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setup_s), setup_s.len()),
        Metric::new("campaign_p50_ms", "ms", p50, n),
        Metric::new("cold_campaign_p50_ms", "ms", p50, n),
        Metric::new("campaigns_per_s", "1/s", n as f64 / loop_s, n),
        Metric::once("peak_rss_mib", "MiB", peak_rss),
    ];
    out.per_layer = layer_metrics(
        &spans,
        &tally,
        config.threads,
        traced_s,
        (traced_s * 1e3 / p50 - 1.0) * 100.0,
        ServeReadings::default(),
    );
    out.context.extend([
        (
            "engine",
            if streaming {
                "run_campaign_streaming"
            } else {
                "run_campaign"
            }
            .to_string(),
        ),
        ("pattern", config.pattern.to_string()),
        ("ranks", config.app.procs.to_string()),
        ("runs", config.runs.to_string()),
        ("nd_percent", config.nd_percent.to_string()),
        ("threads", config.threads.to_string()),
        ("base_seed", config.base_seed.to_string()),
        ("store", "none".to_string()),
    ]);
    Ok(out)
}

/// Re-execute one campaign by calling each layer with a span around every
/// call, in the stage order of the engine being traced, and return the
/// recomposed matrix with the work counted on the way.
///
/// Streaming: every run is simulated, graphed and featurised on one
/// worker before the next starts. Materialised: all runs are simulated in
/// parallel, graphed serially on the calling thread, then featurised in
/// parallel. Both end in one Gram call on the same thread count.
pub fn recompose(
    config: &CampaignConfig,
    streaming: bool,
    spans: &Spans,
) -> Result<(KernelMatrix, Tally), String> {
    let program = config.pattern.build(&config.app);
    let kernel = config.kernel.instantiate();
    let kernel = kernel.as_ref();
    let runs = config.runs as usize;
    let sim = |i: usize| {
        spans
            .record(spans::MPISIM, i, || {
                simulate(&program, &config.sim_config(i as u32))
            })
            .map_err(|e| format!("run {i}: {e}"))
    };
    let graph =
        |i: usize, trace: &Trace| spans.record(spans::GRAPH, i, || EventGraph::from_trace(trace));
    let featurise =
        |i: usize, g: &EventGraph| spans.record(spans::FEATURES, i, || kernel.features(g));
    let mut tally = Tally::default();
    let feats = if streaming {
        let per_run = parallel_map(config.threads, runs, |i| {
            let trace = sim(i)?;
            let events = trace.total_events() as u64;
            let g = graph(i, &trace);
            drop(trace);
            Ok::<_, String>((featurise(i, &g), events, g.node_count() as u64))
        });
        let mut feats = Vec::with_capacity(runs);
        for r in per_run {
            let (f, events, nodes) = r?;
            tally.events += events;
            tally.nodes += nodes;
            feats.push(f);
        }
        feats
    } else {
        let traces = parallel_map(config.threads, runs, sim)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        tally.events = traces.iter().map(|t| t.total_events() as u64).sum();
        let graphs: Vec<EventGraph> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| graph(i, t))
            .collect();
        drop(traces);
        tally.nodes = graphs.iter().map(|g| g.node_count() as u64).sum();
        parallel_map(config.threads, runs, |i| featurise(i, &graphs[i]))
    };
    tally.featurized_nodes = tally.nodes;
    tally.dots = (runs * (runs + 1) / 2) as u64;
    // The Gram call hands out pairs of rows, so it keeps at most
    // ceil(runs / 2) workers busy.
    let gram_threads = config.threads.min(runs.div_ceil(2)).max(1);
    let matrix = spans.record_on(spans::GRAM, runs, gram_threads, || {
        gram_from_features_with_metrics(&kernel.name(), &feats, config.threads, None)
    });
    Ok((matrix, tally))
}
