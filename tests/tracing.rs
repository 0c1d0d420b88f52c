//! Tier-1 integration tests of the structured tracing layer (PR 3).
//!
//! The load-bearing property is the observability invariant: attaching a
//! tracer must never change what is measured. Everything else — export
//! determinism, complete delivery, event-count cross-checks — builds on
//! that foundation.

use anacin_obs::tracer::RECORD_BATCH;
use anacin_obs::{
    ChromeJsonSink, FoldedSink, MemorySink, MetricsRegistry, SharedBuffer, SimEventKind, TraceSink,
    TraceSnapshot, Tracer,
};
use anacin_store::ArtifactStore;
use anacin_x::prelude::*;

fn campaign(pattern: Pattern, procs: u32, runs: u32) -> CampaignConfig {
    CampaignConfig::new(pattern, procs).runs(runs)
}

/// Run `run` of `cfg`, simulated afresh: every run is a pure function of
/// its seed, so this is the trace the campaign's worker saw.
fn fresh_trace(cfg: &CampaignConfig, run: u32) -> Trace {
    simulate(&cfg.pattern.build(&cfg.app), &cfg.sim_config(run)).expect("run simulates")
}

/// A campaign traced into `sink` (wall-clock spans too, when a metrics
/// registry is given): its result, once the tracer finished.
fn traced_into(
    cfg: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    sink: impl TraceSink + 'static,
) -> CampaignResult {
    let tracer = Tracer::new(sink);
    if let Some(m) = metrics {
        m.attach_tracer(&tracer);
    }
    let ctx = RunCtx {
        metrics,
        tracer: Some(&tracer),
        ..RunCtx::default()
    };
    let result = run_campaign_with(cfg, &ctx).expect("traced campaign");
    tracer.finish().expect("trace finishes");
    result
}

/// A campaign traced into a memory sink: its result and everything the
/// sink held.
fn traced_campaign(
    cfg: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
) -> (CampaignResult, TraceSnapshot) {
    let sink = MemorySink::new();
    let result = traced_into(cfg, metrics, sink.clone());
    (result, sink.snapshot())
}

/// The file the sink `make` builds over a buffer wrote for a traced
/// campaign.
fn written<S: TraceSink + 'static>(
    cfg: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    make: impl FnOnce(SharedBuffer) -> S,
) -> String {
    let buf = SharedBuffer::new();
    traced_into(cfg, metrics, make(buf.clone()));
    buf.contents()
}

/// A Chrome sink over `buf`.
fn chrome(buf: SharedBuffer) -> ChromeJsonSink<SharedBuffer> {
    ChromeJsonSink::new(buf).expect("sink header")
}

/// Simulated events per run, in run order.
fn events_per_run(snap: &TraceSnapshot) -> Vec<(u32, usize)> {
    let runs = snap.sim.chunk_by(|a, b| a.run == b.run);
    runs.map(|run| (run[0].run, run.len())).collect()
}

/// Serialise traces for bit-identity comparison (Trace has no PartialEq;
/// the JSON form covers every field including match linkage and times).
fn trace_bytes(traces: &[Trace]) -> Vec<String> {
    traces
        .iter()
        .map(|t| serde_json::to_string(t).expect("trace serialises"))
        .collect()
}

#[test]
fn traced_campaign_is_bit_identical_to_untraced() {
    for pattern in [
        Pattern::MessageRace,
        Pattern::Amg2013,
        Pattern::UnstructuredMesh,
    ] {
        let cfg = campaign(pattern, 8, 6);
        let plain = run_campaign(&cfg).expect("plain campaign");
        let reg = MetricsRegistry::new();
        let sink = MemorySink::new();
        let tracer = Tracer::new(sink.clone());
        reg.attach_tracer(&tracer);
        // The traced campaign publishes every trace it simulated.
        let dir = std::env::temp_dir().join(format!(
            "anacin_ws_tracing_{}_{pattern}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = ArtifactStore::open(&dir).expect("open temp store");
        let ctx = RunCtx {
            metrics: Some(&reg),
            tracer: Some(&tracer),
            store: Some(&store),
            ..RunCtx::default()
        };
        let traced = run_campaign_with(&cfg, &ctx).expect("traced campaign");
        // Bit-identical artifacts: every trace byte-for-byte, every kernel
        // distance exactly equal.
        let stored: Vec<Trace> = (0..cfg.runs)
            .map(|run| {
                let fp = run_fingerprint(&cfg, run);
                store.get::<Trace>(fp).unwrap().expect("stored trace")
            })
            .collect();
        let fresh: Vec<Trace> = (0..cfg.runs).map(|run| fresh_trace(&cfg, run)).collect();
        assert_eq!(
            trace_bytes(&fresh),
            trace_bytes(&stored),
            "{pattern}: traces must not change under tracing"
        );
        assert_eq!(plain.schedules, traced.schedules, "{pattern}");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            plain.distance_sample(),
            traced.distance_sample(),
            "{pattern}: kernel distances must not change under tracing"
        );
        // And the tracer did actually observe the campaign.
        tracer.finish().expect("trace finishes");
        assert_eq!(
            sink.snapshot().sim.len() as u64,
            traced.total_events,
            "{pattern}: tracer missed events"
        );
    }
}

#[test]
fn sim_trace_export_is_byte_identical_across_worker_thread_counts() {
    let mut cfg = campaign(Pattern::MessageRace, 8, 8);
    let mut exports = Vec::new();
    for threads in [1usize, 2, 8] {
        cfg.threads = threads;
        // Wall-clock spans depend on real time; with no registry the file
        // has none, and its simulated-time lines must not depend on the
        // workers. The sink writes them in arrival order, so compare
        // them as a multiset: trailing commas stripped, lines sorted.
        let doc = written(&cfg, None, chrome);
        let mut lines: Vec<&str> = doc.lines().map(|l| l.trim_end_matches(',')).collect();
        lines.sort_unstable();
        exports.push(lines.join("\n"));
    }
    assert_eq!(exports[0], exports[1], "1 vs 2 worker threads");
    assert_eq!(exports[0], exports[2], "1 vs 8 worker threads");
}

#[test]
fn traced_event_counts_match_event_graph_node_counts() {
    // The tracer and the event-graph builder both consume the same finished
    // traces, so their event/node counts must agree exactly — for all three
    // paper patterns.
    for pattern in [
        Pattern::MessageRace,
        Pattern::Amg2013,
        Pattern::UnstructuredMesh,
    ] {
        let cfg = campaign(pattern, 6, 5);
        let (result, snap) = traced_campaign(&cfg, None);
        let per_run = events_per_run(&snap);
        assert_eq!(per_run.len(), cfg.runs as usize, "{pattern}");
        let mut nodes = 0;
        for (run, count) in per_run {
            let trace = fresh_trace(&cfg, run);
            let graph_nodes = EventGraph::from_trace(&trace).node_count();
            nodes += graph_nodes as u64;
            assert_eq!(
                count, graph_nodes,
                "{pattern} run {run}: traced events vs graph nodes"
            );
            assert_eq!(
                count,
                trace.total_events(),
                "{pattern} run {run}: traced events vs trace events"
            );
        }
        assert_eq!(result.total_nodes, nodes, "{pattern}");
    }
}

#[test]
fn chrome_export_has_one_track_per_rank_with_monotone_timestamps() {
    let procs = 6u32;
    let cfg = campaign(Pattern::MessageRace, procs, 3);
    let (_, snap) = traced_campaign(&cfg, None);
    for run in 0..3u32 {
        let mut ranks: Vec<u32> = snap
            .sim
            .iter()
            .filter(|e| e.run == run)
            .map(|e| e.rank)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(
            ranks,
            (0..procs).collect::<Vec<u32>>(),
            "run {run}: exactly one track per rank"
        );
        // Per-rank simulated times are monotone (the engine clamps
        // wait-completed receives to the rank's last event time).
        for r in 0..procs {
            let times: Vec<u64> = snap
                .sim
                .iter()
                .filter(|e| e.run == run && e.rank == r)
                .map(|e| e.t_ns)
                .collect();
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "run {run} rank {r}: non-monotone sim times {times:?}"
            );
        }
    }
    // The file itself names each rank's track.
    let json = written(&cfg, None, chrome);
    for r in 0..procs {
        assert!(json.contains(&format!("\"name\":\"rank {r}\"")), "rank {r}");
    }
}

#[test]
fn matched_messages_share_flow_ids_between_send_and_recv() {
    let cfg = campaign(Pattern::MessageRace, 6, 2);
    let (_, snap) = traced_campaign(&cfg, None);
    for run in 0..2u32 {
        let mut sends: Vec<u64> = snap
            .sim
            .iter()
            .filter(|e| e.run == run)
            .filter_map(|e| match e.kind {
                SimEventKind::Send { msg_id } => Some(msg_id),
                _ => None,
            })
            .collect();
        let mut recvs: Vec<u64> = snap
            .sim
            .iter()
            .filter(|e| e.run == run)
            .filter_map(|e| match e.kind {
                SimEventKind::Recv { msg_id, .. } => Some(msg_id),
                _ => None,
            })
            .collect();
        sends.sort_unstable();
        recvs.sort_unstable();
        // Every delivered message was received exactly once in these
        // patterns, so the multisets of flow ids coincide.
        assert_eq!(sends, recvs, "run {run}");
        assert_eq!(
            sends.len() as u64,
            fresh_trace(&cfg, run).meta.messages,
            "run {run}"
        );
    }
}

#[test]
fn memory_sink_holds_every_event_of_a_two_worker_campaign() {
    // Each 64-rank amg2013 run records several full batches, and two
    // workers record into the one tracer at once.
    let mut cfg = campaign(Pattern::Amg2013, 64, 4);
    cfg.threads = 2;
    let (result, snap) = traced_campaign(&cfg, None);
    assert_eq!(snap.sim.len() as u64, result.total_events);
    let per_run = events_per_run(&snap);
    assert_eq!(per_run.len(), 4);
    for (run, count) in per_run {
        assert!(count > 2 * RECORD_BATCH, "run {run}: {count} events");
        assert_eq!(count, fresh_trace(&cfg, run).total_events(), "run {run}");
    }
}

#[test]
fn folded_stacks_cover_the_pipeline_stages() {
    let cfg = campaign(Pattern::MessageRace, 6, 4);
    let reg = MetricsRegistry::new();
    let folded = written(&cfg, Some(&reg), FoldedSink::new);
    assert!(folded.contains("campaign"), "{folded}");
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        assert!(weight.parse::<u64>().is_ok(), "{line}");
    }
}

#[test]
fn per_point_sweep_metrics_are_bit_exact_and_cover_every_point() {
    let base = campaign(Pattern::MessageRace, 6, 4);
    let percents = [0.0, 50.0, 100.0];
    let plain =
        sweep(SweepAxis::NdPercent, &base, &percents, &RunCtx::default()).expect("plain sweep");
    let reg = MetricsRegistry::new();
    let ctx = RunCtx {
        metrics: Some(&reg),
        ..RunCtx::default()
    };
    let instrumented =
        sweep(SweepAxis::NdPercent, &base, &percents, &ctx).expect("instrumented sweep");
    assert_eq!(plain.mean_series(), instrumented.mean_series());
    let metrics = instrumented.metrics.expect("per-point metrics");
    assert_eq!(metrics.points.len(), percents.len());
    for pm in &metrics.points {
        assert_eq!(pm.report.counter("campaign/runs"), Some(4), "{}", pm.label);
    }
    assert_eq!(
        metrics.aggregate.counter("campaign/runs"),
        Some(4 * percents.len() as u64)
    );
}
