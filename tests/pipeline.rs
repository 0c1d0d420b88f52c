//! Differential tests for the per-run pipeline: a resumed store-backed
//! campaign must land on the uninterrupted result bit-for-bit, and the
//! WL relabelling must reproduce an independent reimplementation's label
//! stream exactly.

use anacin_store::ArtifactStore;
use anacin_testkit::prelude::{generate, GenConfig};
use anacin_x::event_graph::label::initial_labels;
use anacin_x::prelude::*;
use std::path::PathBuf;

fn temp_store(tag: &str) -> (PathBuf, ArtifactStore) {
    let dir =
        std::env::temp_dir().join(format!("anacin_ws_pipeline_{}_{}", std::process::id(), tag));
    std::fs::remove_dir_all(&dir).ok();
    let store = ArtifactStore::open(&dir).expect("open temp store");
    (dir, store)
}

fn bits(m: &KernelMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// A spread of testkit-generated programs (collectives, exchanges,
/// wildcards, chaotic ranks), each simulated under full nondeterminism.
fn generated_graphs() -> Vec<EventGraph> {
    let mut graphs = Vec::new();
    for gen_seed in [1u64, 7, 19, 42] {
        let gp = generate(&GenConfig::from_seed(gen_seed));
        for sim_seed in [0u64, 3] {
            let t = simulate(&gp.program, &SimConfig::with_nd_percent(100.0, sim_seed))
                .expect("generated program simulates");
            graphs.push(EventGraph::from_trace(&t));
        }
    }
    graphs
}

/// A resumed campaign seeds the per-run pipeline with the stored runs
/// (only missing runs are simulated, graphed and featurised) and still
/// lands on the uninterrupted result bit-for-bit.
#[test]
fn resumed_campaign_seeds_pipeline_and_matches_uninterrupted_result() {
    let full = CampaignConfig::new(Pattern::MessageRace, 8)
        .runs(8)
        .base_seed(5);
    let prefix = full.clone().runs(3);

    let (dir, store) = temp_store("resume");
    let ctx = RunCtx {
        store: Some(&store),
        ..RunCtx::default()
    };
    run_campaign_with(&prefix, &ctx).expect("interrupted prefix campaign");
    let resumed = run_campaign_with(&full, &ctx).expect("resumed campaign");
    let uninterrupted = run_campaign(&full).expect("uninterrupted campaign");
    // Every trace the resumed campaign read or published is the one a
    // store-free pipeline simulates.
    let program = full.pattern.build(&full.app);
    for run in 0..full.runs {
        let stored = store.get::<Trace>(run_fingerprint(&full, run)).unwrap();
        let fresh = simulate(&program, &full.sim_config(run)).expect("run simulates");
        assert_eq!(stored, Some(fresh), "run {run}");
    }
    assert_eq!(resumed.schedules, uninterrupted.schedules);
    assert_eq!(bits(&resumed.matrix), bits(&uninterrupted.matrix));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// WL oracle: the relabelling reimplemented from the published definition
// (initial labels per policy; each round folds [label, MAX, sorted
// in-neighbour labels, MAX-1, sorted out-neighbour labels] a word at a
// time; features count the fold of each (round, label) pair), checked
// against the kernel's fused two-buffer loop.

/// The fold's start state and one step: xor the word in, multiply by the
/// 64-bit golden ratio to 128 bits, xor the product's halves.
const SEED: u64 = 0x243F_6A88_85A3_08D3;

fn fold(words: &[u64]) -> u64 {
    words.iter().fold(SEED, |h, &w| {
        let p = u128::from(h ^ w) * u128::from(0x9E37_79B9_7F4A_7C15u64);
        (p as u64) ^ ((p >> 64) as u64)
    })
}

fn relabel_reference(g: &EventGraph, labels: &[u64]) -> Vec<u64> {
    let mut next = Vec::with_capacity(labels.len());
    for id in g.node_ids() {
        let mut ins: Vec<u64> = g
            .in_edges(id)
            .iter()
            .map(|&(n, _)| labels[n.index()])
            .collect();
        let mut outs: Vec<u64> = g
            .out_edges(id)
            .iter()
            .map(|&(n, _)| labels[n.index()])
            .collect();
        ins.sort_unstable();
        outs.sort_unstable();
        let mut words = Vec::with_capacity(ins.len() + outs.len() + 3);
        words.push(labels[id.index()]);
        words.push(u64::MAX);
        words.extend_from_slice(&ins);
        words.push(u64::MAX - 1);
        words.extend_from_slice(&outs);
        next.push(fold(&words));
    }
    next
}

fn features_reference(k: &WlKernel, g: &EventGraph) -> SparseFeatures {
    let mut rounds = vec![initial_labels(g, k.policy)];
    for _ in 0..k.iterations {
        let next = relabel_reference(g, rounds.last().expect("nonempty"));
        rounds.push(next);
    }
    let mut f = SparseFeatures::new();
    for (round, labels) in rounds.into_iter().enumerate() {
        for l in labels {
            f.add(fold(&[round as u64, l]), 1.0);
        }
    }
    f
}

/// The WL implementation (each node's label stream folded while its
/// neighbours' labels are read, two reused label buffers, one sort to
/// count) emits feature maps and label streams identical to the direct
/// one-`Vec`-per-node relabelling, across policies and depths.
#[test]
fn wl_features_match_reference_relabelling() {
    let graphs = generated_graphs();
    let policies = [
        LabelPolicy::EventType,
        LabelPolicy::TypeAndPeer,
        LabelPolicy::RankTypePeer,
    ];
    for g in &graphs {
        for policy in policies {
            for iterations in [0u32, 2, 4] {
                let k = WlKernel { iterations, policy };
                assert_eq!(
                    k.features(g),
                    features_reference(&k, g),
                    "policy={policy:?} h={iterations}"
                );
                let rounds = k.label_rounds(g);
                let mut expect = vec![initial_labels(g, policy)];
                for _ in 0..iterations {
                    expect.push(relabel_reference(g, expect.last().expect("nonempty")));
                }
                assert_eq!(rounds, expect, "label rounds diverge");
            }
        }
    }
}
