//! Cross-crate differential tests of the content-addressed artifact store
//! and the store-backed campaigns built on it: warm and cold runs must
//! be bit-identical to each other and to the plain (store-free) pipeline,
//! an interrupted campaign must resume to exactly the uninterrupted
//! result, and run-level artifacts must be reused across kernel sweeps.

use anacin_core::prelude::*;
use anacin_event_graph::LabelPolicy;
use anacin_miniapps::Pattern;
use anacin_store::ArtifactStore;
use std::path::PathBuf;

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

    // Reopen (fresh handle, empty LRU) so the warm pass exercises the
    // on-disk read path, not just the in-memory front.
    let store = ArtifactStore::open(&dir).expect("reopen store");
    let warm = stored_campaign(&cfg, &store).expect("warm campaign");
    let a = store.activity();
    assert_eq!(a.misses, 0, "warm run must hit on every artifact");
    assert_eq!(a.puts, 0, "warm run must publish nothing");

    // Bit-identical across all three paths: traces, graphs, Gram matrix.
    for (label, r) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(r.traces, plain.traces, "{label} traces differ");
        assert_eq!(r.graphs, plain.graphs, "{label} graphs differ");
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
    assert_eq!(resumed.traces, uninterrupted.traces);
    assert_eq!(resumed.graphs, uninterrupted.graphs);
    assert_eq!(bits(&resumed.matrix), bits(&uninterrupted.matrix));
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
    let path = store.path_of(run_fingerprint(&cfg, 0), anacin_store::ArtifactKind::Trace);
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
