//! Store keys for incremental, resumable campaigns backed by the
//! content-addressed artifact store (`anacin-store`).
//!
//! Every pipeline product — trace, event graph, per-run feature vector,
//! Gram matrix, distance sample — is a pure function of `(pattern +
//! configuration, seed, ND setting, kernel parameters)`, because the whole
//! pipeline is bit-deterministic for a given key. That makes memoisation
//! sound: a campaign run with a store in its [`RunCtx`](crate::RunCtx)
//! looks every artifact up by fingerprint first and only computes (then
//! publishes) what is missing, so
//!
//! * an interrupted campaign resumes from whatever runs already reached
//!   the store,
//! * regenerating a figure reuses every stored run outright, and
//! * sweeping kernels over the same runs reuses traces and graphs and
//!   recomputes only the kernel-specific stages.
//!
//! The warm path is **bit-identical** to the cold path: codecs are
//! canonical (one byte representation per value) and keys absorb every
//! semantic input, so a warm result and a cold result are the same bytes.
//! The differential tests in this module, in `tests/engine.rs` and in the
//! workspace's `tests/store.rs` assert exactly that.
//!
//! ## Keys
//!
//! Fingerprints absorb a domain-separation label, [`KEY_SCHEMA`], and the
//! canonical JSON of each semantic field (the config types' serde
//! encodings are stable). `threads` and `dot` are deliberately excluded:
//! neither changes a result, so warm hits survive re-running on a
//! different machine shape. Changing pipeline semantics requires bumping
//! [`KEY_SCHEMA`], which cleanly invalidates every old key. A change of
//! feature ids alone bumps [`FEATURE_ID_SCHEMA`] instead, which
//! invalidates only the stored feature vectors.

use crate::config::CampaignConfig;
use anacin_store::{Artifact, ArtifactStore, Fingerprint, FingerprintHasher, StoreError};

/// Version of the key material fed into fingerprints. Bump whenever the
/// pipeline's semantics change in a way that should invalidate previously
/// stored artifacts (every old key then misses cleanly).
pub const KEY_SCHEMA: u32 = 1;

/// Version of the feature ids the kernels emit, absorbed by
/// [`features_fingerprint`] only. Bump it when a kernel's feature ids
/// change but its values do not (a new WL label hash, say): stored
/// feature vectors then miss and are recomputed, while traces, graphs,
/// Gram matrices and distance samples, whose bytes stay the same, stay
/// warm. Version 2 is the WL fold of `crates/kernels/src/wl.rs`; version
/// 1 (absorbed as nothing) hashed WL labels with FNV-1a.
pub const FEATURE_ID_SCHEMA: u32 = 2;

/// Absorb a labelled field as canonical JSON. The config types' serde
/// encodings are deterministic (plain structs and enums, no maps), which
/// makes the JSON a stable canonical form.
fn absorb_json<T: serde::Serialize>(h: &mut FingerprintHasher, label: &str, value: &T) {
    h.write_str(label);
    h.write_str(&serde_json::to_string(value).expect("key material serialises"));
}

/// Absorb the per-run semantic inputs shared by every run-level key:
/// everything that determines the bytes of a trace except the seed.
pub(crate) fn absorb_setting(h: &mut FingerprintHasher, config: &CampaignConfig) {
    h.write_u32(KEY_SCHEMA);
    absorb_json(h, "pattern", &config.pattern);
    absorb_json(h, "app", &config.app);
    h.write_str("nd_percent");
    h.write_f64(config.nd_percent);
    h.write_str("nodes");
    h.write_u32(config.nodes);
    absorb_json(h, "delay", &config.delay);
}

/// The fingerprint naming run `run`'s trace and event graph (same key,
/// distinct [`anacin_store::ArtifactKind`]s).
pub fn run_fingerprint(config: &CampaignConfig, run: u32) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/run");
    absorb_setting(&mut h, config);
    h.write_str("seed");
    h.write_u64(config.base_seed + run as u64);
    h.finish()
}

/// The fingerprint naming run `run`'s feature vector under the campaign's
/// kernel. Extends the run key with the kernel parameters, so sweeping
/// kernels over the same runs stores one vector per (run, kernel).
pub fn features_fingerprint(config: &CampaignConfig, run: u32) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/features");
    h.write_u32(FEATURE_ID_SCHEMA);
    absorb_setting(&mut h, config);
    h.write_str("seed");
    h.write_u64(config.base_seed + run as u64);
    absorb_json(&mut h, "kernel", &config.kernel);
    h.finish()
}

/// The fingerprint naming the campaign-level artifacts (Gram matrix and
/// distance sample): the full run set plus the kernel.
pub fn campaign_fingerprint(config: &CampaignConfig) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str("anacin/campaign");
    absorb_setting(&mut h, config);
    h.write_str("runs");
    h.write_u32(config.runs);
    h.write_str("base_seed");
    h.write_u64(config.base_seed);
    absorb_json(&mut h, "kernel", &config.kernel);
    h.finish()
}

/// Fetch an artifact, treating damage as a clean miss so the caller
/// recomputes and overwrites it (self-healing). Only I/O errors propagate.
pub(crate) fn get_or_heal<A: Artifact>(
    store: &ArtifactStore,
    fp: Fingerprint,
) -> Result<Option<A>, StoreError> {
    match store.get::<A>(fp) {
        Ok(v) => Ok(v),
        // A corrupt frame or an undecodable payload both mean the stored
        // bytes are unusable; recomputing is always safe because `put`
        // republishes atomically over the damaged file.
        Err(StoreError::Corrupt { .. }) | Err(StoreError::Decode(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::fresh_traces;
    use crate::campaign::{run_campaign, run_campaign_append, run_campaign_with, RunCtx};
    use anacin_event_graph::EventGraph;
    use anacin_kernels::matrix::KernelMatrix;
    use anacin_miniapps::Pattern;
    use anacin_mpisim::trace::Trace;
    use anacin_obs::MetricsRegistry;
    use anacin_store::ArtifactKind;
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> (PathBuf, ArtifactStore) {
        let dir = std::env::temp_dir().join(format!(
            "anacin-incremental-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        (dir, store)
    }

    fn stored(store: &ArtifactStore) -> RunCtx<'_> {
        RunCtx {
            store: Some(store),
            ..RunCtx::default()
        }
    }

    fn small_cfg() -> CampaignConfig {
        CampaignConfig::new(Pattern::MessageRace, 6).runs(6)
    }

    /// Every run's trace as `store` holds it under its run key.
    fn stored_traces(store: &ArtifactStore, cfg: &CampaignConfig) -> Vec<Trace> {
        (0..cfg.runs)
            .map(|run| {
                let fp = run_fingerprint(cfg, run);
                store.get::<Trace>(fp).unwrap().expect("stored trace")
            })
            .collect()
    }

    #[test]
    fn warm_run_is_bit_identical_and_simulates_nothing() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("warm");
        let cold = run_campaign_with(&cfg, &stored(&store)).unwrap();

        let reg = MetricsRegistry::new();
        store.attach_metrics(&reg);
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..stored(&store)
        };
        let warm = run_campaign_with(&cfg, &ctx).unwrap();
        let report = reg.report();
        assert_eq!(warm.schedules, cold.schedules);
        assert_eq!(warm.matrix, cold.matrix);
        // The stored runs the warm pass read are byte-identical to what a
        // storeless run simulates and graphs.
        for (run, fresh) in fresh_traces(&cfg).iter().enumerate() {
            let fp = run_fingerprint(&cfg, run as u32);
            let trace = store.get::<Trace>(fp).unwrap().expect("stored trace");
            assert_eq!(trace.to_wire(), fresh.to_wire());
            let graph = store.get::<EventGraph>(fp).unwrap().expect("stored graph");
            assert_eq!(graph, EventGraph::from_trace(fresh));
        }
        // Fully warm: every artifact was a hit, nothing was simulated.
        assert_eq!(report.counter("sim/runs"), None);
        // 6 traces + 6 graphs + 6 feature vectors + 1 matrix.
        assert_eq!(report.counter("store/hits"), Some(19));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_result() {
        let cfg = small_cfg();
        // The "interrupted" campaign: only the first 3 runs reached the
        // store (runs share per-seed keys, so a shorter campaign with the
        // same base seed is exactly a prefix).
        let (dir, store) = tmp_store("resume");
        run_campaign_with(&cfg.clone().runs(3), &stored(&store)).unwrap();
        let before = store.activity();
        let resumed = run_campaign_with(&cfg, &stored(&store)).unwrap();
        let after = store.activity();
        // The 3 stored traces were reused, the other 3 simulated.
        assert!(after.hits >= before.hits + 3);
        let uninterrupted = run_campaign(&cfg).unwrap();
        assert_eq!(resumed.schedules, uninterrupted.schedules);
        assert_eq!(stored_traces(&store, &cfg), fresh_traces(&cfg));
        assert_eq!(resumed.matrix, uninterrupted.matrix);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_artifact_self_heals() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("heal");
        run_campaign_with(&cfg, &stored(&store)).unwrap();
        // Flip one byte in run 0's stored trace.
        let path = store.path_of(run_fingerprint(&cfg, 0), ArtifactKind::Trace);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        // Resume through a new store handle, as a later process would:
        // the damage must be detected, recomputed, and republished.
        let store = ArtifactStore::open(store.root()).unwrap();
        let healed = run_campaign_with(&cfg, &stored(&store)).unwrap();
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(healed.schedules, plain.schedules);
        assert_eq!(healed.matrix, plain.matrix);
        assert!(store.activity().corrupt >= 1);
        // The damaged file was republished: a fresh read decodes cleanly,
        // to exactly the trace a storeless run simulates.
        let reopened = ArtifactStore::open(store.root()).unwrap();
        assert_eq!(stored_traces(&reopened, &cfg), fresh_traces(&cfg));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kernel_sweep_reuses_traces_and_graphs() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("ksweep");
        run_campaign_with(&cfg, &stored(&store)).unwrap();
        let mut other = cfg.clone();
        other.kernel = crate::config::KernelChoice::VertexHistogram {
            policy: anacin_event_graph::LabelPolicy::EventType,
        };
        let before = store.activity();
        run_campaign_with(&other, &stored(&store)).unwrap();
        let after = store.activity();
        // Traces and graphs hit (2 per run); features and matrix recompute.
        assert!(after.hits >= before.hits + 2 * cfg.runs as u64);
        assert!(after.misses > before.misses);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fingerprints_separate_semantic_inputs_and_ignore_threads() {
        let cfg = small_cfg();
        let base = run_fingerprint(&cfg, 0);
        assert_ne!(base, run_fingerprint(&cfg, 1));
        assert_ne!(base, run_fingerprint(&cfg.clone().nd_percent(50.0), 0));
        assert_ne!(base, run_fingerprint(&cfg.clone().base_seed(99), 0));
        assert_ne!(base, run_fingerprint(&cfg.clone().nodes(4), 0));
        // Same seed reached via different (base_seed, run) splits is the
        // same trace, and gets the same key.
        assert_eq!(
            run_fingerprint(&cfg.clone().base_seed(5), 3),
            run_fingerprint(&cfg.clone().base_seed(7), 1)
        );
        // Kernel affects features and campaign keys, not run keys.
        let mut other_kernel = cfg.clone();
        other_kernel.kernel = crate::config::KernelChoice::VertexHistogram {
            policy: anacin_event_graph::LabelPolicy::EventType,
        };
        assert_eq!(base, run_fingerprint(&other_kernel, 0));
        assert_ne!(
            features_fingerprint(&cfg, 0),
            features_fingerprint(&other_kernel, 0)
        );
        assert_ne!(
            campaign_fingerprint(&cfg),
            campaign_fingerprint(&other_kernel)
        );
        // Neither thread count nor the dot-product implementation
        // (bit-identical results) is key material.
        let mut threaded = cfg.clone();
        threaded.threads = 1;
        let blocked = cfg.clone().dot(anacin_kernels::feature::DotKind::Blocked);
        for other in [&threaded, &blocked] {
            assert_eq!(base, run_fingerprint(other, 0));
            assert_eq!(
                features_fingerprint(&cfg, 0),
                features_fingerprint(other, 0)
            );
            assert_eq!(campaign_fingerprint(&cfg), campaign_fingerprint(other));
        }
    }

    #[test]
    fn store_keys_are_pinned() {
        // Run and campaign keys name traces, graphs, Gram matrices and
        // distance samples, whose bytes a change of feature ids leaves
        // alone, so they keep the values of FEATURE_ID_SCHEMA 1. The
        // feature key moved with version 2.
        let cfg = CampaignConfig::new(Pattern::Amg2013, 32).runs(10);
        let hex = |fp: Fingerprint| fp.to_string();
        assert_eq!(
            hex(run_fingerprint(&cfg, 3)),
            "b19276e3e6a42a003754377ece2df106"
        );
        assert_eq!(
            hex(campaign_fingerprint(&cfg)),
            "a4ab4c3a5567b85c92e8005f11840e49"
        );
        let features = hex(features_fingerprint(&cfg, 3));
        assert_ne!(features, "87a7231e2a67ed0ebd99ce6d8ff44328", "version 1");
        assert_eq!(features, "bc74a7ddc7647578a3748fe15e02f5d6");
    }

    #[test]
    fn append_one_run_does_exactly_r_plus_1_dots_and_matches_cold_recompute() {
        let cfg = small_cfg(); // 6 runs
        let (dir, store) = tmp_store("append");
        run_campaign_with(&cfg, &stored(&store)).unwrap();

        // Append one run: the store holds the 6-run matrix, so the kernel
        // stage must do exactly 7 new dot products (one new row, diagonal
        // included) and extract exactly one new feature vector.
        let cfg7 = cfg.clone().runs(7);
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..stored(&store)
        };
        let appended = run_campaign_append(&cfg7, &ctx).unwrap();
        let report = reg.report();
        assert_eq!(report.counter("kernel/dot_products"), Some(7));
        assert_eq!(report.counter("kernel/features"), Some(1));
        assert_eq!(report.counter("sim/runs"), Some(1));

        // The appended matrix and its stored bytes are identical to a cold
        // recompute of the 7-run campaign in a fresh store.
        let (dir2, store2) = tmp_store("append-cold");
        let cold = run_campaign_with(&cfg7, &stored(&store2)).unwrap();
        let bits = |m: &KernelMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&appended.matrix), bits(&cold.matrix));
        let fp = campaign_fingerprint(&cfg7);
        for kind in [ArtifactKind::Gram, ArtifactKind::Distances] {
            let a = std::fs::read(store.path_of(fp, kind)).unwrap();
            let b = std::fs::read(store2.path_of(fp, kind)).unwrap();
            assert_eq!(a, b, "append-published {kind:?} must be byte-identical");
        }
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(dir2);
    }

    #[test]
    fn append_without_stored_prefix_computes_the_full_campaign() {
        let cfg = small_cfg();
        let (dir, store) = tmp_store("append-fallback");
        let viaappend = run_campaign_append(&cfg, &stored(&store)).unwrap();
        let plain = run_campaign(&cfg).unwrap();
        assert_eq!(viaappend.matrix, plain.matrix);
        assert_eq!(viaappend.schedules, plain.schedules);
        assert_eq!(stored_traces(&store, &cfg), fresh_traces(&cfg));
        // And the store is now warm: a second append is a pure read.
        let reg = MetricsRegistry::new();
        let ctx = RunCtx {
            metrics: Some(&reg),
            ..stored(&store)
        };
        let warm = run_campaign_append(&cfg, &ctx).unwrap();
        assert_eq!(warm.matrix, plain.matrix);
        assert_eq!(reg.report().counter("kernel/dot_products"), None);
        let _ = std::fs::remove_dir_all(dir);
    }
}
