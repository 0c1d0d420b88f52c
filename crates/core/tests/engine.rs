//! Differential and store-traffic oracles for the one campaign engine.
//!
//! Every mode a campaign can run in — plain, cold store, warm store,
//! append — is the same per-run loop plus one Gram stage, so each must
//! reproduce the plain `run_campaign` matrix bit for bit, and its
//! schedules, at any thread count. And because the store is a read-through cache
//! at every stage, the number of lookups and publications per job is a
//! fixed function of what the store already holds.

use anacin_core::prelude::*;
use anacin_event_graph::LabelPolicy;
use anacin_kernels::feature::DotKind;
use anacin_kernels::matrix::{KernelMatrix, LABEL_MAJOR_MIN_RUNS};
use anacin_miniapps::Pattern;
use anacin_obs::progress::RUNS_DONE;
use anacin_obs::{MetricsRegistry, MetricsReport};
use anacin_store::ArtifactStore;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anacin-engine-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn stored(store: &ArtifactStore) -> RunCtx<'_> {
    RunCtx {
        store: Some(store),
        ..RunCtx::default()
    }
}

fn bits(m: &KernelMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Plain,
    ColdStore,
    WarmStore,
    Append,
}

/// The campaign `mode` produces for `cfg`, starting from an empty store.
fn result_in(mode: Mode, cfg: &CampaignConfig, tag: &str) -> CampaignResult {
    let dir = temp_dir(tag);
    let store = ArtifactStore::open(&dir).expect("open store");
    let ctx = stored(&store);
    let r = match mode {
        Mode::Plain => run_campaign_with(cfg, &RunCtx::default()),
        Mode::ColdStore => run_campaign_with(cfg, &ctx),
        Mode::WarmStore => {
            run_campaign_with(cfg, &ctx).expect("cold pass");
            // A fresh handle has a cold in-memory front, so the warm pass
            // decodes every artifact from disk.
            let warm = ArtifactStore::open(&dir).expect("reopen store");
            let r = run_campaign_with(cfg, &stored(&warm));
            assert_eq!(warm.activity().misses, 0, "warm pass must hit everything");
            r
        }
        Mode::Append => {
            let shorter = cfg.clone().runs(cfg.runs - 1);
            run_campaign_with(&shorter, &ctx).expect("prefix campaign");
            run_campaign_append(cfg, &ctx)
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    r.expect("campaign")
}

#[test]
fn every_mode_reproduces_the_plain_matrix_bit_for_bit() {
    let kernels = [
        KernelChoice::default(),
        KernelChoice::VertexHistogram {
            policy: LabelPolicy::EventType,
        },
        KernelChoice::ShortestPath {
            policy: LabelPolicy::TypeAndPeer,
            max_distance: 3,
        },
    ];
    let modes = [Mode::Plain, Mode::ColdStore, Mode::WarmStore, Mode::Append];
    // 6 runs take the pairwise Gram; one past the crossover, the cold
    // matrices are label-major and the append grows one pairwise row.
    let run_counts = [6, LABEL_MAJOR_MIN_RUNS as u32 + 1];
    for (k, kernel) in kernels.into_iter().enumerate() {
        for runs in run_counts {
            for dot in [DotKind::Scalar, DotKind::Blocked] {
                let mut base = CampaignConfig::new(Pattern::MessageRace, 6).runs(runs);
                base.kernel = kernel;
                let reference = run_campaign(&base).expect("plain campaign");
                for threads in [1usize, 2, 8] {
                    for mode in modes {
                        let mut cfg = base.clone().dot(dot);
                        cfg.threads = threads;
                        let tag = format!("diff-{k}-{runs}-{dot}-{threads}-{mode:?}");
                        let at = format!(
                            "kernel={kernel:?} runs={runs} dot={dot} threads={threads} \
                             mode={mode:?}"
                        );
                        let r = result_in(mode, &cfg, &tag);
                        assert_eq!(bits(&r.matrix), bits(&reference.matrix), "{at}");
                        assert_eq!(r.schedules, reference.schedules, "{at}");
                    }
                }
            }
        }
    }
}

/// (hits, misses, puts) of one job on its own store handle, as the daemon
/// reports them.
fn traffic(dir: &PathBuf, cfg: &CampaignConfig, append: bool) -> (u64, u64, u64) {
    let store = ArtifactStore::open(dir).expect("open store");
    let ctx = stored(&store);
    if append {
        run_campaign_append(cfg, &ctx).expect("append job");
    } else {
        run_campaign_with(cfg, &ctx).expect("campaign job");
    }
    let a = store.activity();
    (a.hits, a.misses, a.puts)
}

#[test]
fn store_traffic_per_job_is_fixed_by_what_the_store_holds() {
    let dir = temp_dir("traffic");
    let cfg = CampaignConfig::new(Pattern::Amg2013, 32).runs(10);
    // Cold: 10 traces, 10 graphs, 10 feature vectors and the matrix all
    // miss; everything is published, the matrix with its distances.
    assert_eq!(traffic(&dir, &cfg, false), (0, 31, 32));
    // Warm: every lookup hits, nothing is published.
    assert_eq!(traffic(&dir, &cfg, false), (31, 0, 0));
    // One run appended: the 11-run matrix misses and the stored 10-run
    // prefix hits; the new run's three artifacts miss and are published,
    // with the grown matrix and its distances.
    assert_eq!(traffic(&dir, &cfg.clone().runs(11), true), (31, 4, 5));
    std::fs::remove_dir_all(&dir).ok();
}

/// With a store, a stage's span times only what a run computes: a cold
/// job computes and publishes every artifact, a warm one only loads
/// them, and both count every run as done.
#[test]
fn store_lookups_and_publications_are_timed_apart_from_computing() {
    let dir = temp_dir("spans");
    let cfg = CampaignConfig::new(Pattern::Amg2013, 8).runs(4);
    let job = || {
        let store = ArtifactStore::open(&dir).expect("open store");
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..stored(&store)
        };
        run_campaign_with(&cfg, &ctx).expect("campaign job");
        reg.report()
    };
    let (cold, warm) = (job(), job());
    let count = |report: &MetricsReport, path: &str| report.span(path).map_or(0, |s| s.count);
    for (report, computed, published) in [(&cold, 4, 12), (&warm, 0, 0)] {
        for stage in ["run/simulate", "run/graph", "run/features"] {
            assert_eq!(count(report, stage), computed, "{stage}");
        }
        assert_eq!(count(report, "run/load"), 12);
        assert_eq!(count(report, "run/publish"), published);
        assert_eq!(report.counter(RUNS_DONE), Some(4));
    }
    std::fs::remove_dir_all(&dir).ok();
}
