//! Scale tests: the simulator and analysis at sizes beyond the paper's
//! 32-process maximum. The moderate case always runs; the large cases are
//! `#[ignore]`d (run with `cargo test --release -- --ignored`).

use anacin_x::prelude::*;

#[test]
fn moderate_scale_end_to_end() {
    // 48 processes, ~4.5k messages/run — comfortably past the paper's
    // largest setting, still sub-second in debug builds.
    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 48).runs(4);
    let (result, ranking) =
        analyze(&cfg, &RootCauseConfig::default(), &RunCtx::default()).expect("campaign completes");
    assert!(result.mean_distance() > 0.0);
    for run in 0..cfg.runs {
        let t = simulate(&result.program, &cfg.sim_config(run)).expect("run simulates");
        assert_eq!(t.meta.unmatched_messages, 0);
    }
    assert!(!ranking.entries.is_empty());
}

#[test]
fn moderate_scale_amg_graph_properties() {
    let program = Pattern::Amg2013.build(&MiniAppConfig::with_procs(40));
    let t = simulate(&program, &SimConfig::with_nd_percent(100.0, 1)).expect("run completes");
    t.validate().unwrap();
    let g = EventGraph::from_trace(&t);
    // 2 phases × 40×39 messages.
    assert_eq!(g.message_edge_count(), 2 * 40 * 39);
    assert!(anacin_x::event_graph::algo::is_dag(&g));
}

#[test]
#[ignore = "large: ~128 processes, run with --ignored"]
fn large_scale_simulation() {
    let program = Pattern::Amg2013.build(&MiniAppConfig::with_procs(128).iterations(2));
    let t = simulate(&program, &SimConfig::with_nd_percent(100.0, 1)).expect("run completes");
    assert_eq!(t.meta.unmatched_messages, 0);
    assert_eq!(t.meta.messages, 2 * 2 * 128 * 127);
    t.validate().unwrap();
}

#[test]
#[ignore = "large: full campaign at 64 processes, run with --ignored"]
fn large_scale_campaign_and_kernels() {
    let cfg = CampaignConfig::new(Pattern::UnstructuredMesh, 64).runs(10);
    let result = run_campaign(&cfg).expect("campaign completes");
    assert!(result.mean_distance() > 0.0);
    assert_eq!(result.matrix.len(), 10);
    // Replay still pins everything at this scale.
    let run0 = simulate(&result.program, &cfg.sim_config(0)).expect("run 0 simulates");
    assert_eq!(MatchRecord::from_trace(&run0).id(), result.schedules[0]);
    let record = MatchRecord::from_trace(&run0);
    let replayed =
        simulate_replay(&result.program, &cfg.sim_config(99), &record).expect("replay completes");
    for r in 0..64 {
        assert_eq!(replayed.match_order(Rank(r)), run0.match_order(Rank(r)));
    }
}
