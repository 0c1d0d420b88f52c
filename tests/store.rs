//! Cross-crate differential tests of the content-addressed artifact store
//! and the store-backed campaigns built on it: warm and cold runs must
//! be bit-identical to each other and to the plain (store-free) pipeline,
//! an interrupted campaign must resume to exactly the uninterrupted
//! result, run-level artifacts must be reused across kernel sweeps, and
//! a store with truncated, zeroed or deleted files must heal to the same
//! result, recomputing exactly what was damaged, and a campaign must
//! flush what it published once, whichever way it ends.

use anacin_core::prelude::*;
use anacin_event_graph::{EventGraph, LabelPolicy};
use anacin_miniapps::Pattern;
use anacin_mpisim::engine::simulate;
use anacin_mpisim::trace::Trace;
use anacin_obs::tracer::{TraceRecord, Tracer, CHANNEL_BATCHES};
use anacin_obs::{CancelToken, MetricsRegistry, MetricsReport, TraceSink};
use anacin_store::{ActivitySnapshot, ArtifactKind, ArtifactStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn temp_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir = std::env::temp_dir().join(format!("anacin_ws_store_{}_{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open temp store");
    (dir, store)
}

/// A campaign against `store`.
fn stored_campaign(
    cfg: &CampaignConfig,
    store: &ArtifactStore,
) -> Result<CampaignResult, CampaignError> {
    let ctx = RunCtx {
        store: Some(store),
        ..RunCtx::default()
    };
    run_campaign_with(cfg, &ctx)
}

fn bits(m: &anacin_kernels::prelude::KernelMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// Every run's stored trace and graph equal the ones a store-free
/// pipeline computes (each run is a pure function of its seed).
fn assert_stored_runs_are_fresh(cfg: &CampaignConfig, store: &ArtifactStore, label: &str) {
    let program = cfg.pattern.build(&cfg.app);
    for run in 0..cfg.runs {
        let fp = run_fingerprint(cfg, run);
        let fresh = simulate(&program, &cfg.sim_config(run)).expect("run simulates");
        let trace = store.get::<Trace>(fp).unwrap().expect("stored trace");
        let graph = store.get::<EventGraph>(fp).unwrap().expect("stored graph");
        assert_eq!(
            graph,
            EventGraph::from_trace(&fresh),
            "{label} run {run} graph"
        );
        assert_eq!(trace, fresh, "{label} run {run} trace");
    }
}

#[test]
fn cold_and_warm_campaigns_are_bit_identical_to_the_plain_pipeline() {
    let cfg = CampaignConfig::new(Pattern::Amg2013, 6)
        .runs(5)
        .base_seed(11);
    let plain = run_campaign(&cfg).expect("plain campaign");

    let (dir, store) = temp_store("diff");
    let cold = stored_campaign(&cfg, &store).expect("cold campaign");
    let after_cold = store.activity();
    assert!(after_cold.puts > 0, "cold run must publish artifacts");

    // Reopen, as a later process would: the warm pass reads only what
    // the cold pass left on disk.
    let store = ArtifactStore::open(&dir).expect("reopen store");
    let warm = stored_campaign(&cfg, &store).expect("warm campaign");
    let a = store.activity();
    assert_eq!(a.misses, 0, "warm run must hit on every artifact");
    assert_eq!(a.puts, 0, "warm run must publish nothing");

    // Bit-identical across all three paths: traces and graphs (the cold
    // pass published them, the warm pass read them), schedules, Gram
    // matrix.
    assert_stored_runs_are_fresh(&cfg, &store, "stored");
    for (label, r) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(r.schedules, plain.schedules, "{label} schedules differ");
        assert_eq!(bits(&r.matrix), bits(&plain.matrix), "{label} gram bits");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_campaign_resumes_to_the_uninterrupted_result() {
    let full = CampaignConfig::new(Pattern::MessageRace, 8)
        .runs(8)
        .base_seed(3);
    // "Interrupt" after three runs: a prefix campaign populates the store
    // with the first three traces/graphs, exactly the artifacts a killed
    // process would have published.
    let prefix = full.clone().runs(3);

    let (dir, store) = temp_store("resume");
    stored_campaign(&prefix, &store).expect("prefix campaign");

    let store = ArtifactStore::open(&dir).expect("reopen store");
    let resumed = stored_campaign(&full, &store).expect("resumed campaign");
    let a = store.activity();
    assert!(
        a.hits >= 6,
        "resume must reuse the 3 stored traces and graphs, got {} hits",
        a.hits
    );

    let uninterrupted = run_campaign(&full).expect("plain campaign");
    assert_stored_runs_are_fresh(&full, &store, "resumed");
    assert_eq!(resumed.schedules, uninterrupted.schedules);
    assert_eq!(bits(&resumed.matrix), bits(&uninterrupted.matrix));
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold campaign flushes its publications with one barrier, timed by
/// the `campaign/sync` span; the same campaign through a new handle
/// publishes nothing and flushes nothing.
#[test]
fn cold_campaign_flushes_once_and_its_warm_rerun_never() {
    let cfg = CampaignConfig::new(Pattern::Amg2013, 6)
        .runs(5)
        .base_seed(13);
    let (dir, _) = temp_store("sync");
    let (_, cold, report) = rerun(&cfg, &dir);
    assert_eq!((cold.puts, cold.syncs), (3 * 5 + 2, 1));
    assert_eq!(report.span("campaign/sync").map(|s| s.count), Some(1));

    let (_, warm, _) = rerun(&cfg, &dir);
    assert_eq!((warm.misses, warm.puts, warm.syncs), (0, 0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Growing a stored campaign by one run publishes that run and the grown
/// matrix, and flushes them once.
#[test]
fn appending_a_run_flushes_once() {
    let cfg = CampaignConfig::new(Pattern::MessageRace, 6)
        .runs(6)
        .base_seed(4);
    let (dir, store) = temp_store("sync-append");
    stored_campaign(&cfg.clone().runs(5), &store).expect("5-run campaign");

    let store = ArtifactStore::open(&dir).expect("reopen store");
    let ctx = RunCtx {
        store: Some(&store),
        ..RunCtx::default()
    };
    let grown = run_campaign_append(&cfg, &ctx).expect("append campaign");
    assert_eq!(
        bits(&grown.matrix),
        bits(&run_campaign(&cfg).unwrap().matrix)
    );
    let a = store.activity();
    assert_eq!((a.puts, a.syncs), (3 + 2, 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A sink that takes each record only while its gate is open.
struct Gated(Arc<Mutex<()>>);

impl TraceSink for Gated {
    fn accept(&mut self, _: &TraceRecord) -> std::io::Result<()> {
        drop(self.0.lock().unwrap());
        Ok(())
    }
    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A cancelled campaign has still published its finished runs, and
/// flushes them once before it returns. The tracer's writer is held
/// with its channel full, so the single worker waits inside run 0 right
/// after publishing its trace; the token fires there, and run 0 is the
/// only run that completes.
#[test]
fn cancelled_campaign_flushes_its_finished_runs_once() {
    let mut cfg = CampaignConfig::new(Pattern::MessageRace, 4)
        .runs(8)
        .base_seed(9);
    cfg.threads = 1;
    let (dir, store) = temp_store("sync-cancel");
    let gate = Arc::new(Mutex::new(()));
    let tracer = Tracer::new(Gated(Arc::clone(&gate)));
    let token = CancelToken::new();
    let closed = gate.lock().unwrap();
    // The writer holds the first record; the rest fill its channel.
    for _ in 0..=CHANNEL_BATCHES {
        tracer.span_begin("fill");
    }
    let ctx = RunCtx {
        tracer: Some(&tracer),
        cancel: Some(&token),
        store: Some(&store),
        ..RunCtx::default()
    };
    let result = std::thread::scope(|s| {
        let campaign = s.spawn(|| run_campaign_with(&cfg, &ctx));
        while store.activity().puts == 0 {
            std::thread::yield_now();
        }
        token.cancel();
        drop(closed);
        campaign.join().expect("campaign thread")
    });
    tracer.finish().expect("tracer");
    match result {
        Err(CampaignError::Cancelled { completed_runs }) => assert_eq!(completed_runs, 1),
        other => panic!("expected a cancelled campaign, got {:?}", other.map(|_| ())),
    }
    let a = store.activity();
    assert_eq!((a.puts, a.syncs), (3, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kernel_sweep_reuses_run_artifacts_across_kernel_choices() {
    let wl = CampaignConfig::new(Pattern::Collectives, 6)
        .runs(4)
        .base_seed(7);
    let vh = wl.clone().kernel(KernelChoice::VertexHistogram {
        policy: LabelPolicy::default(),
    });

    let (dir, store) = temp_store("kernels");
    stored_campaign(&wl, &store).expect("wl campaign");
    let after_wl = store.activity();

    let vh_result = stored_campaign(&vh, &store).expect("vh campaign");
    let a = store.activity();
    // Traces and graphs are kernel-independent: the second campaign reads
    // all 8 of them back and republishes only its own features (4), Gram
    // matrix (1) and distance sample (1).
    assert_eq!(a.hits - after_wl.hits, 8, "trace+graph reuse");
    assert_eq!(a.puts - after_wl.puts, 6, "kernel-specific artifacts only");

    let vh_plain = run_campaign(&vh).expect("plain vh campaign");
    assert_eq!(bits(&vh_result.matrix), bits(&vh_plain.matrix));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_detects_and_heal_recovers_from_on_disk_corruption() {
    let cfg = CampaignConfig::new(Pattern::Stencil2d, 5)
        .runs(3)
        .base_seed(9);
    let (dir, store) = temp_store("corrupt");
    stored_campaign(&cfg, &store).expect("cold campaign");

    // Flip one byte in the middle of a stored trace frame.
    let path = store.path_of(run_fingerprint(&cfg, 0), ArtifactKind::Trace);
    let mut bytes = std::fs::read(&path).expect("read stored trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite corrupted trace");

    let store = ArtifactStore::open(&dir).expect("reopen store");
    let report = store.verify().expect("verify walk");
    assert_eq!(report.corrupt.len(), 1, "verify must flag the damaged file");

    // A fresh incremental run self-heals: recomputes the damaged run and
    // republishes it, ending bit-identical to the plain pipeline.
    let healed = stored_campaign(&cfg, &store).expect("healing campaign");
    assert!(store.activity().corrupt >= 1);
    let plain = run_campaign(&cfg).expect("plain campaign");
    assert_eq!(bits(&healed.matrix), bits(&plain.matrix));

    let store = ArtifactStore::open(&dir).expect("reopen again");
    assert!(store
        .verify()
        .expect("verify after heal")
        .corrupt
        .is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// How one stored file is damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    /// Cut to a shorter length, 0 and frames under 16 bytes included.
    Truncate,
    /// A random byte range set to zero.
    Zero,
    /// Removed.
    Delete,
}

/// Apply `damage` to the file at `path`. Returns whether its bytes
/// changed: zeroing bytes that are already zero is no damage.
fn damage_file(path: &Path, damage: Damage, rng: &mut SmallRng) -> bool {
    let before = std::fs::read(path).expect("read stored file");
    let (mut bytes, len) = (before.clone(), before.len());
    match damage {
        Damage::Delete => {
            std::fs::remove_file(path).expect("delete stored file");
            return true;
        }
        Damage::Truncate => {
            let cut = if rng.gen_bool(0.5) {
                rng.gen_range(0..16.min(len))
            } else {
                rng.gen_range(0..len)
            };
            bytes.truncate(cut);
        }
        Damage::Zero => {
            let start = rng.gen_range(0..len);
            let end = rng.gen_range(start + 1..=len);
            bytes[start..end].fill(0);
        }
    }
    std::fs::write(path, &bytes).expect("rewrite damaged file");
    bytes != before
}

/// Every file a seeded campaign reads back: each run's trace, graph and
/// feature vector, then the Gram matrix.
fn campaign_files(cfg: &CampaignConfig, store: &ArtifactStore) -> Vec<(ArtifactKind, PathBuf)> {
    let mut files = Vec::new();
    for run in 0..cfg.runs {
        let fp = run_fingerprint(cfg, run);
        files.push((ArtifactKind::Trace, store.path_of(fp, ArtifactKind::Trace)));
        files.push((ArtifactKind::Graph, store.path_of(fp, ArtifactKind::Graph)));
        let fp = features_fingerprint(cfg, run);
        files.push((
            ArtifactKind::Features,
            store.path_of(fp, ArtifactKind::Features),
        ));
    }
    let fp = campaign_fingerprint(cfg);
    files.push((ArtifactKind::Gram, store.path_of(fp, ArtifactKind::Gram)));
    files
}

/// A campaign through a new handle on `dir`, with its store activity
/// and metrics.
fn rerun(cfg: &CampaignConfig, dir: &Path) -> (CampaignResult, ActivitySnapshot, MetricsReport) {
    let store = ArtifactStore::open(dir).expect("reopen store");
    let reg = MetricsRegistry::new();
    let ctx = RunCtx {
        metrics: Some(&reg),
        store: Some(&store),
        ..RunCtx::default()
    };
    let result = run_campaign_with(cfg, &ctx).expect("healing campaign");
    (result, store.activity(), reg.report())
}

/// Crash test: damage a random non-empty subset of a published
/// campaign's files, then rerun it. The result is bit-identical to the
/// store-free pipeline, and the store's counters name exactly the
/// damage: a deleted file is a miss, a truncated or zeroed one is
/// corrupt, each is recomputed and republished once (a Gram matrix with
/// its distance sample), and nothing undamaged is recomputed.
#[test]
fn damaged_store_heals_recomputing_exactly_the_damage() {
    let patterns = [Pattern::MessageRace, Pattern::Amg2013, Pattern::Stencil2d];
    let mut rng = SmallRng::seed_from_u64(0x5EED_C4A5);
    for case in 0..64 {
        let cfg = CampaignConfig::new(patterns[case % patterns.len()], 4)
            .runs(rng.gen_range(4..=6))
            .base_seed(rng.gen_range(0..1_000_000));
        let (dir, store) = temp_store(&format!("crash-{case}"));
        stored_campaign(&cfg, &store).expect("cold campaign");
        let files = campaign_files(&cfg, &store);

        let mut picked: Vec<bool> = files.iter().map(|_| rng.gen_bool(0.3)).collect();
        if !picked.contains(&true) {
            picked[rng.gen_range(0..files.len())] = true;
        }
        let (mut deleted, mut corrupted, mut puts) = (0, 0, 0);
        let (mut traces, mut features) = (0, 0);
        let mut damage_log = Vec::new();
        for ((kind, path), _) in files.iter().zip(&picked).filter(|(_, &p)| p) {
            let damage = [Damage::Truncate, Damage::Zero, Damage::Delete][rng.gen_range(0..3usize)];
            if !damage_file(path, damage, &mut rng) {
                continue;
            }
            damage_log.push((*kind, damage));
            match damage {
                Damage::Delete => deleted += 1,
                Damage::Truncate | Damage::Zero => corrupted += 1,
            }
            puts += if *kind == ArtifactKind::Gram { 2 } else { 1 };
            traces += (*kind == ArtifactKind::Trace) as u64;
            features += (*kind == ArtifactKind::Features) as u64;
        }

        let (healed, a, report) = rerun(&cfg, &dir);
        let plain = run_campaign(&cfg).expect("plain campaign");
        let ctx = format!("case {case}: {cfg:?} damage {damage_log:?}");
        assert_eq!(bits(&healed.matrix), bits(&plain.matrix), "{ctx}");
        assert_eq!(
            (a.misses, a.corrupt, a.puts),
            (deleted, corrupted, puts),
            "{ctx}"
        );
        assert_eq!(report.counter("sim/runs").unwrap_or(0), traces, "{ctx}");
        assert_eq!(
            report.counter("kernel/features").unwrap_or(0),
            features,
            "{ctx}"
        );
        let v = store.verify().expect("verify after heal");
        assert!(v.corrupt.is_empty(), "{ctx}: {:?}", v.corrupt);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// No campaign reads the distance sample back, so damage to it alone
/// leaves a rerun fully warm; `verify` still finds it.
#[test]
fn damaged_distance_sample_is_found_by_verify_not_by_campaigns() {
    let cfg = CampaignConfig::new(Pattern::MessageRace, 4)
        .runs(5)
        .base_seed(21);
    let (dir, store) = temp_store("crash-dist");
    stored_campaign(&cfg, &store).expect("cold campaign");
    let dist = store.path_of(campaign_fingerprint(&cfg), ArtifactKind::Distances);
    let mut rng = SmallRng::seed_from_u64(5);
    assert!(damage_file(&dist, Damage::Truncate, &mut rng));

    let (warm, a, report) = rerun(&cfg, &dir);
    assert_eq!(
        bits(&warm.matrix),
        bits(&run_campaign(&cfg).unwrap().matrix)
    );
    let reads = 3 * cfg.runs as u64 + 1;
    assert_eq!((a.hits, a.misses, a.corrupt, a.puts), (reads, 0, 0, 0));
    assert_eq!(report.counter("sim/runs"), None);
    let v = store.verify().expect("verify");
    assert_eq!(v.corrupt.len(), 1, "{:?}", v.corrupt);
    assert_eq!(v.corrupt[0].0, dist);
    std::fs::remove_dir_all(&dir).ok();
}
