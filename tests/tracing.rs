//! Tier-1 integration tests of the structured tracing layer (PR 3).
//!
//! The load-bearing property is the observability invariant: attaching a
//! tracer must never change what is measured. Everything else — export
//! determinism, ring-buffer bounds, event-count cross-checks — builds on
//! that foundation.

use anacin_obs::{MetricsRegistry, SimEventKind, Tracer};
use anacin_x::prelude::*;

fn campaign(pattern: Pattern, procs: u32, runs: u32) -> CampaignConfig {
    CampaignConfig::new(pattern, procs).runs(runs)
}

/// A campaign with a tracer and, optionally, a metrics registry.
fn traced_campaign(
    cfg: &CampaignConfig,
    metrics: Option<&MetricsRegistry>,
    tracer: &Tracer,
) -> CampaignResult {
    let ctx = RunCtx {
        metrics,
        tracer: Some(tracer),
        ..RunCtx::default()
    };
    run_campaign_with(cfg, &ctx).expect("traced campaign")
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
        let tracer = Tracer::new();
        reg.attach_tracer(&tracer);
        let traced = traced_campaign(&cfg, Some(&reg), &tracer);
        // Bit-identical artifacts: every trace byte-for-byte, every kernel
        // distance exactly equal.
        assert_eq!(
            trace_bytes(&plain.traces),
            trace_bytes(&traced.traces),
            "{pattern}: traces must not change under tracing"
        );
        assert_eq!(
            plain.distance_sample(),
            traced.distance_sample(),
            "{pattern}: kernel distances must not change under tracing"
        );
        // And the tracer did actually observe the campaign.
        let snap = tracer.snapshot();
        assert!(!snap.sim.is_empty(), "{pattern}: tracer saw no events");
    }
}

#[test]
fn sim_trace_export_is_byte_identical_across_worker_thread_counts() {
    let mut cfg = campaign(Pattern::MessageRace, 8, 8);
    let mut exports = Vec::new();
    for threads in [1usize, 2, 8] {
        cfg.threads = threads;
        let tracer = Tracer::new();
        traced_campaign(&cfg, None, &tracer);
        // Wall-clock spans depend on real time; the simulated-time export
        // must not.
        exports.push(tracer.snapshot().chrome_trace(false));
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
        let tracer = Tracer::new();
        let result = traced_campaign(&cfg, None, &tracer);
        let per_run = tracer.snapshot().sim_events_per_run();
        assert_eq!(per_run.len(), result.graphs.len(), "{pattern}");
        for (run, count) in per_run {
            let graph_nodes = result.graphs[run as usize].node_count();
            assert_eq!(
                count, graph_nodes,
                "{pattern} run {run}: traced events vs graph nodes"
            );
            assert_eq!(
                count,
                result.traces[run as usize].total_events(),
                "{pattern} run {run}: traced events vs trace events"
            );
        }
    }
}

#[test]
fn chrome_export_has_one_track_per_rank_with_monotone_timestamps() {
    let procs = 6u32;
    let cfg = campaign(Pattern::MessageRace, procs, 3);
    let tracer = Tracer::new();
    traced_campaign(&cfg, None, &tracer);
    let snap = tracer.snapshot();
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
    // The JSON itself mentions each rank's track metadata.
    let json = snap.chrome_trace(false);
    for r in 0..procs {
        assert!(json.contains(&format!("\"name\":\"rank {r}\"")), "rank {r}");
    }
}

#[test]
fn matched_messages_share_flow_ids_between_send_and_recv() {
    let cfg = campaign(Pattern::MessageRace, 6, 2);
    let tracer = Tracer::new();
    let result = traced_campaign(&cfg, None, &tracer);
    let snap = tracer.snapshot();
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
            result.traces[run as usize].meta.messages,
            "run {run}"
        );
    }
}

#[test]
fn ring_overflow_on_a_real_campaign_keeps_newest_and_counts_drops() {
    let cfg = campaign(Pattern::Amg2013, 8, 4);
    let tracer = Tracer::with_capacity(64);
    traced_campaign(&cfg, None, &tracer);
    let snap = tracer.snapshot();
    assert!(snap.recorded > 64, "campaign must overflow the tiny ring");
    assert!(snap.dropped > 0);
    assert_eq!(snap.recorded - snap.dropped, snap.sim.len() as u64);
    assert!(snap.sim.len() <= 64);
    // Oldest-first: the surviving records are from the end of the stream,
    // so the earliest runs' earliest events are gone while the final run's
    // final events survive.
    let last_run = snap.sim.iter().map(|e| e.run).max().expect("non-empty");
    assert_eq!(last_run, 3, "newest run survives the wrap");
}

#[test]
fn folded_stacks_cover_the_pipeline_stages() {
    let cfg = campaign(Pattern::MessageRace, 6, 4);
    let reg = MetricsRegistry::new();
    let tracer = Tracer::new();
    reg.attach_tracer(&tracer);
    traced_campaign(&cfg, Some(&reg), &tracer);
    let folded = tracer.snapshot().folded_stacks();
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
