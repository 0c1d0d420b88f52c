//! Integration tests for the schedule-space explorer: the acceptance
//! criteria of the explore feature, end to end through the facade.
//!
//! * the message race's enumeration is verified against brute force;
//! * the walk's counts on two non-blocking patterns are pinned;
//! * the explored worst-case kernel distance bounds the empirical maximum
//!   over 1000 random samples;
//! * scheduled replay is bit-identical across repeated calls, across
//!   worker thread counts, and through the artifact store.

use anacin_store::{Artifact, ArtifactStore};
use anacin_x::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;

fn race_cfg() -> CampaignConfig {
    CampaignConfig::new(Pattern::MessageRace, 5).runs(20)
}

fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!("anacin-explore-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).unwrap();
    (dir, store)
}

/// With 4 senders racing into rank 0's wildcard receives, the schedule
/// space is exactly the 4! = 24 arrival permutations — and the
/// partial-order-reduced walk must find the same set brute force does,
/// with no more work.
#[test]
fn message_race_enumeration_matches_brute_force() {
    let cfg = race_cfg();
    let program = cfg.pattern.build(&cfg.app);
    let por = explore(&program, &ExploreConfig::default()).unwrap();
    let brute = explore(&program, &ExploreConfig::default().brute_force()).unwrap();
    assert!(por.is_complete(), "POR walk truncated");
    assert!(brute.is_complete(), "brute-force walk truncated");
    let a: HashSet<u64> = por.schedules.iter().map(|s| s.id().0).collect();
    let b: HashSet<u64> = brute.schedules.iter().map(|s| s.id().0).collect();
    assert_eq!(a, b, "pruning changed the schedule set");
    assert_eq!(a.len(), 24, "expected all 4! arrival permutations");
    assert!(por.stats.branches <= brute.stats.branches);
}

/// The walk over non-blocking programs (`isend`/`irecv`/`waitall`) is
/// pinned: these are the counts of every branch, pruned transition and
/// terminal the explorer has always produced on two such patterns.
#[test]
fn nonblocking_pattern_walks_keep_their_counts() {
    let walks = [
        (Pattern::Amg2013, 3, (3_042, 3_798, 64, 196)),
        (
            Pattern::UnstructuredMesh,
            4,
            (65_535, 180_225, 1_296, 1_296),
        ),
    ];
    for (pattern, procs, (branches, pruned, schedules, terminals)) in walks {
        let program = pattern.build(&MiniAppConfig::with_procs(procs));
        let report = explore(&program, &ExploreConfig::default()).unwrap();
        let want = ExploreStats {
            branches,
            pruned,
            dropped: 0,
            schedules,
            terminals,
            deadlocks: 0,
            truncated: false,
        };
        assert_eq!(report.stats, want, "{pattern} at {procs} ranks");
    }
}

/// The explored maximum really is a worst case: 1000 random samples stay
/// inside the enumerated set and never beat the explored max distance.
#[test]
fn explored_worst_case_bounds_a_thousand_samples() {
    let cfg = race_cfg();
    let r = explore_campaign(&cfg, &ExploreConfig::default(), &RunCtx::default()).unwrap();
    assert!(r.report.is_complete());
    let explored_ids: HashSet<u64> = r.report.schedules.iter().map(|s| s.id().0).collect();
    let explored_max = r.max_distance();
    assert!(explored_max > 0.0);

    // Sample 1000 seeds; distances depend only on the realised schedule,
    // so one representative graph per distinct schedule suffices.
    let program = cfg.pattern.build(&cfg.app);
    let mut reps: Vec<EventGraph> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for run in 0..1000u32 {
        let t = simulate(&program, &cfg.sim_config(run)).unwrap();
        let id = Schedule::from_trace(&t).id().0;
        assert!(
            explored_ids.contains(&id),
            "run {run} realised a schedule outside the complete enumeration"
        );
        if seen.insert(id) {
            reps.push(EventGraph::from_trace(&t));
        }
    }
    let kernel = cfg.kernel.instantiate();
    let mut sampled_max = 0.0f64;
    for i in 0..reps.len() {
        for j in (i + 1)..reps.len() {
            sampled_max = sampled_max.max(distance(kernel.as_ref(), &reps[i], &reps[j]));
        }
    }
    assert!(
        explored_max >= sampled_max - 1e-9,
        "1000 samples found distance {sampled_max} above the explored max {explored_max}"
    );
}

/// `simulate_scheduled` is a pure function of `(program, config,
/// schedule)`: repeated calls give byte-identical traces.
#[test]
fn scheduled_replay_is_bit_identical_across_repeats() {
    let cfg = race_cfg();
    let program = cfg.pattern.build(&cfg.app);
    let report = explore(&program, &ExploreConfig::default()).unwrap();
    let sc = cfg.sim_config(0);
    for s in report.schedules.iter().take(6) {
        let a = simulate_scheduled(&program, &sc, s).unwrap();
        let b = simulate_scheduled(&program, &sc, s).unwrap();
        assert_eq!(
            a.to_wire(),
            b.to_wire(),
            "schedule {} not bit-stable",
            s.id()
        );
        assert_eq!(Schedule::from_trace(&a).id(), s.id());
    }
}

/// The whole explore campaign — enumeration order, replayed traces, and
/// the kernel matrix — is invariant under the worker thread count.
#[test]
fn explore_campaign_is_thread_invariant() {
    let base = {
        let mut c = race_cfg();
        c.threads = 1;
        explore_campaign(&c, &ExploreConfig::default(), &RunCtx::default()).unwrap()
    };
    for threads in [2usize, 8] {
        let mut c = race_cfg();
        c.threads = threads;
        let r = explore_campaign(&c, &ExploreConfig::default(), &RunCtx::default()).unwrap();
        assert_eq!(r.report.ids(), base.report.ids(), "{threads} threads");
        assert_eq!(r.traces.len(), base.traces.len());
        for (a, b) in r.traces.iter().zip(base.traces.iter()) {
            assert_eq!(a.to_wire(), b.to_wire(), "{threads} threads");
        }
        assert_eq!(r.matrix, base.matrix, "{threads} threads");
    }
}

/// Explored traces round-trip through the artifact store: a warm
/// re-exploration serves every replay from the store, byte-identical.
#[test]
fn explored_traces_round_trip_through_the_store() {
    let cfg = race_cfg();
    let (dir, store) = tmp_store("roundtrip");
    let ctx = RunCtx {
        store: Some(&store),
        ..RunCtx::default()
    };
    let cold = explore_campaign(&cfg, &ExploreConfig::default(), &ctx).unwrap();
    let hits_before = store.activity().hits;
    let warm = explore_campaign(&cfg, &ExploreConfig::default(), &ctx).unwrap();
    assert!(
        store.activity().hits >= hits_before + cold.traces.len() as u64,
        "warm exploration did not hit the store for every replay"
    );
    for (w, c) in warm.traces.iter().zip(cold.traces.iter()) {
        assert_eq!(w.to_wire(), c.to_wire(), "stored replay not byte-identical");
    }
    assert_eq!(warm.matrix, cold.matrix);
    let _ = std::fs::remove_dir_all(dir);
}
