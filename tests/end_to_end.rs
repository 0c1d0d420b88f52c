//! Cross-crate integration: the full ANACIN-X pipeline from pattern to
//! ranked root cause, exercised through the public facade.

use anacin_x::prelude::*;

/// A campaign and its root-cause ranking (core::root_cause runs the
/// campaign itself).
fn analyzed(cfg: &CampaignConfig) -> (CampaignResult, CallstackRanking) {
    analyze(cfg, &RootCauseConfig::default(), &RunCtx::default()).expect("campaign completes")
}

#[test]
fn full_pipeline_race_to_root_cause() {
    // 1. Pattern → programs (miniapps + mpisim).
    let cfg = CampaignConfig::new(Pattern::MessageRace, 8).runs(10);
    // 2. Campaign → kernel matrix and ranking (core + event-graph +
    //    kernels); each run's trace is a pure function of its seed.
    let (result, ranking) = analyzed(&cfg);
    assert_eq!(result.schedules.len(), 10);
    let traces: Vec<Trace> = (0..cfg.runs)
        .map(|run| simulate(&result.program, &cfg.sim_config(run)).expect("run simulates"))
        .collect();
    for (t, id) in traces.iter().zip(&result.schedules) {
        t.validate().expect("traces are internally consistent");
        assert_eq!(t.meta.unmatched_messages, 0);
        assert_eq!(MatchRecord::from_trace(t).id(), *id);
    }
    // 3. Measurement (stats).
    let m = NdMeasurement::from_campaign("race", &result);
    assert!(m.mean() > 0.0);
    assert_eq!(m.distances.len(), 45);
    // 4. Root cause — the racy aggregation path tops the ranking.
    let top = ranking.top().expect("nonempty ranking");
    assert!(
        top.stack.contains("aggregate_results"),
        "top: {}",
        top.stack
    );
    // 5. Visualisation (viz) renders everything without panicking.
    let violin = m.violin().expect("nonempty violin");
    assert!(!ascii::violins(std::slice::from_ref(&violin), 40).is_empty());
    assert!(svg::violin_svg(&[violin], "t", "d").contains("<polygon"));
    let g = EventGraph::from_trace(&traces[0]);
    assert!(svg::event_graph_svg(&g, "t").contains("<circle"));
}

#[test]
fn deterministic_network_collapses_everything() {
    let cfg = CampaignConfig::new(Pattern::Amg2013, 6)
        .nd_percent(0.0)
        .runs(6);
    let (result, ranking) = analyzed(&cfg);
    assert_eq!(result.mean_distance(), 0.0);
    assert!(ranking.slice_divergence.iter().all(|&d| d == 0.0));
}

#[test]
fn replay_suppresses_nondeterminism_end_to_end() {
    let app = MiniAppConfig::with_procs(8);
    let program = Pattern::UnstructuredMesh.build(&app);
    let reference =
        simulate(&program, &SimConfig::with_nd_percent(100.0, 7)).expect("reference run");
    let record = MatchRecord::from_trace(&reference);
    let g_ref = EventGraph::from_trace(&reference);
    let kernel = WlKernel::default();
    for seed in 50..55 {
        let sim = SimConfig::with_nd_percent(100.0, seed);
        let replayed = simulate_replay(&program, &sim, &record).expect("replayed run");
        let d = distance(&kernel, &g_ref, &EventGraph::from_trace(&replayed));
        assert_eq!(d, 0.0, "seed {seed}: replay must pin the communication");
    }
}

#[test]
fn collectives_app_full_pipeline() {
    let cfg = CampaignConfig::new(Pattern::Collectives, 6).runs(8);
    let (result, ranking) = analyzed(&cfg);
    // The only wildcard is the submission race, so ND is positive but the
    // top-ranked path must be the gather, not the collective traffic.
    assert!(result.mean_distance() > 0.0);
    let top = ranking.top().expect("nonempty");
    assert!(
        top.stack.contains("gather_partials"),
        "top path: {}",
        top.stack
    );
}

#[test]
fn exports_round_trip_through_facade() {
    use anacin_x::event_graph::export;
    let program = Pattern::Amg2013.build(&MiniAppConfig::with_procs(4));
    let t = simulate(&program, &SimConfig::with_nd_percent(100.0, 3)).unwrap();
    let g = EventGraph::from_trace(&t);
    let json = export::to_json(&g).unwrap();
    let g2 = export::from_json(&json).unwrap();
    assert_eq!(g2.node_count(), g.node_count());
    assert!(export::to_dot(&g).contains("digraph"));
    assert!(export::to_graphml(&g).contains("graphml"));
}

#[test]
fn kernel_choices_agree_on_identity() {
    // All kernels must report distance 0 between identical runs.
    let program = Pattern::UnstructuredMesh.build(&MiniAppConfig::with_procs(6));
    let t = simulate(&program, &SimConfig::with_nd_percent(100.0, 1)).unwrap();
    let g = EventGraph::from_trace(&t);
    let kernels: Vec<Box<dyn GraphKernel>> = vec![
        Box::new(WlKernel::default()),
        Box::new(VertexHistogramKernel::default()),
        Box::new(EdgeHistogramKernel::default()),
        Box::new(ShortestPathKernel::default()),
    ];
    for k in &kernels {
        assert_eq!(distance(k.as_ref(), &g, &g), 0.0, "{}", k.name());
    }
}

#[test]
fn seed_is_the_only_source_of_run_variation() {
    // Identical CampaignConfig (same base seed) → bit-identical sample;
    // different base seed → (almost surely) different sample.
    let cfg = CampaignConfig::new(Pattern::Amg2013, 6).runs(6);
    let a = run_campaign(&cfg).unwrap().distance_sample();
    let b = run_campaign(&cfg).unwrap().distance_sample();
    assert_eq!(a, b);
    let c = run_campaign(&cfg.clone().base_seed(999))
        .unwrap()
        .distance_sample();
    assert_ne!(a, c);
}

#[test]
fn stencil_is_the_negative_control() {
    // Fully specified matching: zero kernel distance at 100% ND, through
    // the complete pipeline.
    let cfg = CampaignConfig::new(Pattern::Stencil2d, 9).runs(6);
    let (result, ranking) = analyzed(&cfg);
    assert_eq!(result.mean_distance(), 0.0);
    // And the root-cause analysis reports no divergence anywhere.
    assert!(ranking.slice_divergence.iter().all(|&d| d == 0.0));
    // Contrast with the mesh (randomised wildcard matching) at identical
    // settings.
    let racy = run_campaign(&CampaignConfig::new(Pattern::UnstructuredMesh, 9).runs(6))
        .expect("campaign completes");
    assert!(racy.mean_distance() > 0.0);
}
