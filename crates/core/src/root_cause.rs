//! Root-cause (callstack) analysis — the paper's Use Case 3 / Figure 8.
//!
//! "The ANACIN-X environment identifies the callstacks in the application
//! and measures their frequency. … the X-axis corresponds to the list of
//! callstacks … identified as taking place during high periods of
//! non-determinism. The Y-axis corresponds to the normalized relative
//! frequency of the identified callstacks" (§III-C2).
//!
//! Pipeline:
//! 1. slice every run's event graph into the same number of windows by
//!    relative program position (run-invariant membership), inside the
//!    campaign's worker: each run is reduced there to its windows' label
//!    histograms and the `(call path, label)` of each receive, and its
//!    trace and graph are freed;
//! 2. score each window by how much the runs *disagree* in it (mean
//!    pairwise L1 distance between per-window label histograms);
//! 3. keep the top windows, and within them attribute divergence to
//!    receive events: each receive is weighted by how much its *own
//!    label* disagrees across runs in that window, so a deterministic
//!    receive that merely drifts across a window boundary contributes
//!    little, while a wildcard receive that matched a different sender
//!    contributes its full disagreement;
//! 4. report call paths by normalized relative (weighted) frequency —
//!    wildcard receive paths (the true root sources) rise to the top.

use crate::campaign::{seeded_campaign, CampaignError, CampaignResult, RunCtx};
use crate::config::CampaignConfig;
use anacin_event_graph::label::{initial_labels, LabelPolicy};
use anacin_event_graph::slice::slice_by_position;
use anacin_event_graph::EventGraph;
use anacin_kernels::feature::SparseFeatures;
use anacin_mpisim::stack::{CallStackId, CallStackTable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Root-cause analysis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RootCauseConfig {
    /// Number of logical-time windows per run.
    pub slices: usize,
    /// Fraction of divergent windows considered "high non-determinism"
    /// (e.g. 0.25 keeps the top quartile).
    pub top_fraction: f64,
    /// Label policy used for the per-window divergence score.
    pub policy: LabelPolicy,
}

impl Default for RootCauseConfig {
    fn default() -> Self {
        RootCauseConfig {
            slices: 16,
            top_fraction: 0.25,
            policy: LabelPolicy::TypeAndPeer,
        }
    }
}

/// One ranked call path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallstackFrequency {
    /// The full call path, rendered `outer > … > MPI_xxx`.
    pub stack: String,
    /// The innermost frame (the MPI call).
    pub leaf: String,
    /// Occurrences within high-ND windows, across all runs.
    pub count: u64,
    /// Divergence-weighted occurrence mass, normalised over all ranked
    /// paths (sums to 1). This is the Y axis of the paper's Figure 8.
    pub frequency: f64,
}

/// The output of root-cause analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallstackRanking {
    /// Ranked call paths, most frequent first.
    pub entries: Vec<CallstackFrequency>,
    /// Divergence score per window index.
    pub slice_divergence: Vec<f64>,
    /// The window indices classified as high-ND.
    pub high_slices: Vec<usize>,
}

impl CallstackRanking {
    /// The top-ranked call path, if any.
    pub fn top(&self) -> Option<&CallstackFrequency> {
        self.entries.first()
    }
}

/// One window of one run, as far as the analysis reads it.
struct Window {
    /// How many of the window's nodes carry each label.
    labels: SparseFeatures,
    /// `(call path, label)` of each receive, in node order.
    recvs: Vec<(CallStackId, u64)>,
}

/// Reduce one run's graph to its windows. Labels and slices are computed
/// once per graph.
fn windows(g: &EventGraph, config: &RootCauseConfig) -> Vec<Window> {
    let labels = initial_labels(g, config.policy);
    slice_by_position(g, config.slices)
        .into_iter()
        .map(|s| Window {
            labels: s.nodes.iter().map(|id| (labels[id.index()], 1.0)).collect(),
            recvs: (s.nodes.iter())
                .filter(|&&id| g.node(id).kind.is_recv())
                .map(|&id| (g.node(id).stack, labels[id.index()]))
                .collect(),
        })
        .collect()
}

/// Mean of `f(i, j)` over the run pairs `i < j`, summed in that order
/// (`runs >= 2`).
fn mean_pairwise(runs: usize, f: impl Fn(usize, usize) -> f64) -> f64 {
    let mut total = 0.0;
    for i in 0..runs {
        for j in (i + 1)..runs {
            total += f(i, j);
        }
    }
    total / (runs * (runs - 1) / 2) as f64
}

/// Run a campaign and rank the call paths active where its runs diverge.
/// Each run is reduced to its windows inside the campaign's worker, so
/// the analysis holds no trace or graph and runs at any rank count, and
/// with a store in `ctx` a repeated analysis is warm.
///
/// # Panics
/// Panics when the campaign has fewer than two runs (nothing to compare)
/// or `rc.slices == 0`.
pub fn analyze(
    config: &CampaignConfig,
    rc: &RootCauseConfig,
    ctx: &RunCtx,
) -> Result<(CampaignResult, CallstackRanking), CampaignError> {
    assert!(config.runs >= 2, "need at least two runs to compare");
    assert!(rc.slices > 0, "need at least one slice");
    let (result, runs) = seeded_campaign(config, ctx, false, &|_, g| windows(g, rc))?;
    let ranking = rank(&runs, rc, result.stacks());
    Ok((result, ranking))
}

fn rank(
    runs: &[Vec<Window>],
    config: &RootCauseConfig,
    stacks: &CallStackTable,
) -> CallstackRanking {
    let hist = |run: usize, s: usize| &runs[run][s].labels;
    // Divergence per window: mean pairwise L1 across runs.
    let divergence: Vec<f64> = (0..config.slices)
        .map(|s| mean_pairwise(runs.len(), |i, j| hist(i, s).l1_distance(hist(j, s))))
        .collect();
    // High-ND windows: top fraction of strictly positive divergences.
    let mut positive: Vec<usize> = (0..config.slices)
        .filter(|&s| divergence[s] > 0.0)
        .collect();
    positive.sort_by(|&a, &b| {
        divergence[b]
            .partial_cmp(&divergence[a])
            .expect("divergences are finite")
    });
    let keep = ((positive.len() as f64 * config.top_fraction).ceil() as usize)
        .max(1)
        .min(positive.len());
    let mut high: Vec<usize> = positive.into_iter().take(keep).collect();
    high.sort_unstable();
    // Per-window, per-label disagreement: how much each label's count
    // varies across runs (mean pairwise |Δcount|). A receive whose label
    // is identical in every run carries no root-cause signal.
    let label_divergence: Vec<SparseFeatures> = high
        .iter()
        .map(|&s| {
            let mut ids: Vec<u64> = (0..runs.len())
                .flat_map(|r| hist(r, s).iter().map(|(id, _)| id))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter()
                .map(|id| {
                    let count = |r: usize| hist(r, s).get(id);
                    (
                        id,
                        mean_pairwise(runs.len(), |i, j| (count(i) - count(j)).abs()),
                    )
                })
                .collect()
        })
        .collect();
    // Attribute: each receive in a high window adds its label's
    // disagreement to its call path, run by run and in node order.
    let mut paths: BTreeMap<CallStackId, (u64, f64)> = BTreeMap::new();
    for run in runs {
        for (hi, &s) in high.iter().enumerate() {
            for &(stack, label) in &run[s].recvs {
                let path = paths.entry(stack).or_insert((0, 0.0));
                path.0 += 1;
                path.1 += label_divergence[hi].get(label);
            }
        }
    }
    ranking_of(paths, divergence, high, stacks)
}

/// Normalise per-path `(count, weight)` into the ranked table.
fn ranking_of(
    paths: BTreeMap<CallStackId, (u64, f64)>,
    divergence: Vec<f64>,
    high: Vec<usize>,
    stacks: &CallStackTable,
) -> CallstackRanking {
    let total_weight: f64 = paths.values().map(|&(_, w)| w).sum();
    let mut entries: Vec<CallstackFrequency> = paths
        .into_iter()
        .map(|(id, (count, w))| {
            let cs = stacks.resolve(id);
            CallstackFrequency {
                stack: cs.to_string(),
                leaf: cs.leaf().unwrap_or("<unknown>").to_string(),
                count,
                frequency: if total_weight > 0.0 {
                    w / total_weight
                } else {
                    0.0
                },
            }
        })
        .collect();
    entries.sort_by(|a, b| {
        b.frequency
            .partial_cmp(&a.frequency)
            .expect("finite frequencies")
            .then_with(|| b.count.cmp(&a.count))
            .then_with(|| a.stack.cmp(&b.stack))
    });
    CallstackRanking {
        entries,
        slice_divergence: divergence,
        high_slices: high,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::fresh_traces;
    use anacin_miniapps::Pattern;
    use anacin_store::ArtifactStore;
    use std::collections::{HashMap, HashSet};

    /// Label counts of one window of one run, as the reference keeps them.
    type Histogram = HashMap<u64, f64>;

    fn l1(a: &Histogram, b: &Histogram) -> f64 {
        let mut keys: HashSet<u64> = a.keys().copied().collect();
        keys.extend(b.keys().copied());
        keys.into_iter()
            .map(|k| (a.get(&k).copied().unwrap_or(0.0) - b.get(&k).copied().unwrap_or(0.0)).abs())
            .sum()
    }

    fn ranking(cfg: &CampaignConfig) -> CallstackRanking {
        analyze(cfg, &RootCauseConfig::default(), &RunCtx::default())
            .unwrap()
            .1
    }

    /// Per-window label histograms for one run, straight from its graph.
    fn window_histograms(g: &EventGraph, slices: usize, policy: LabelPolicy) -> Vec<Histogram> {
        let labels = initial_labels(g, policy);
        slice_by_position(g, slices)
            .into_iter()
            .map(|s| {
                let mut h: Histogram = HashMap::new();
                for id in &s.nodes {
                    *h.entry(labels[id.index()]).or_insert(0.0) += 1.0;
                }
                h
            })
            .collect()
    }

    /// The analysis as it ran over whole, retained graphs before it became
    /// an engine stage: the reference the per-run windows must reproduce
    /// bit for bit. Only the final normalisation is shared.
    fn reference(
        graphs: &[EventGraph],
        config: &RootCauseConfig,
        stacks: &CallStackTable,
    ) -> CallstackRanking {
        let per_run: Vec<Vec<Histogram>> = graphs
            .iter()
            .map(|g| window_histograms(g, config.slices, config.policy))
            .collect();
        let runs = per_run.len();
        let mut divergence = vec![0.0; config.slices];
        for (s, div) in divergence.iter_mut().enumerate() {
            let mut total = 0.0;
            let mut pairs = 0u64;
            for i in 0..runs {
                for j in (i + 1)..runs {
                    total += l1(&per_run[i][s], &per_run[j][s]);
                    pairs += 1;
                }
            }
            *div = if pairs > 0 { total / pairs as f64 } else { 0.0 };
        }
        let mut positive: Vec<usize> = (0..config.slices)
            .filter(|&s| divergence[s] > 0.0)
            .collect();
        positive.sort_by(|&a, &b| divergence[b].partial_cmp(&divergence[a]).unwrap());
        let keep = ((positive.len() as f64 * config.top_fraction).ceil() as usize)
            .max(1)
            .min(positive.len());
        let mut high: Vec<usize> = positive.into_iter().take(keep).collect();
        high.sort_unstable();
        let label_divergence: Vec<Histogram> = high
            .iter()
            .map(|&s| {
                let mut keys: HashSet<u64> = Default::default();
                for hist in per_run.iter().map(|r| &r[s]) {
                    keys.extend(hist.keys().copied());
                }
                let mut out = HashMap::new();
                for key in keys {
                    let mut total = 0.0;
                    let mut pairs = 0u64;
                    for i in 0..runs {
                        for j in (i + 1)..runs {
                            let a = per_run[i][s].get(&key).copied().unwrap_or(0.0);
                            let b = per_run[j][s].get(&key).copied().unwrap_or(0.0);
                            total += (a - b).abs();
                            pairs += 1;
                        }
                    }
                    out.insert(key, if pairs > 0 { total / pairs as f64 } else { 0.0 });
                }
                out
            })
            .collect();
        let mut paths: BTreeMap<CallStackId, (u64, f64)> = BTreeMap::new();
        for g in graphs {
            let labels = initial_labels(g, config.policy);
            let slices = slice_by_position(g, config.slices);
            for (hi, &s) in high.iter().enumerate() {
                for &id in &slices[s].nodes {
                    let node = g.node(id);
                    if node.kind.is_recv() {
                        let path = paths.entry(node.stack).or_insert((0, 0.0));
                        path.0 += 1;
                        path.1 += label_divergence[hi]
                            .get(&labels[id.index()])
                            .copied()
                            .unwrap_or(0.0);
                    }
                }
            }
        }
        ranking_of(paths, divergence, high, stacks)
    }

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn rankings_keep_the_bits_of_the_graph_based_analysis() {
        for (pattern, procs) in [
            (Pattern::MessageRace, 8),
            (Pattern::Amg2013, 6),
            (Pattern::UnstructuredMesh, 8),
        ] {
            for nd in [50.0, 100.0] {
                let base = CampaignConfig::new(pattern, procs).runs(8).nd_percent(nd);
                let graphs: Vec<EventGraph> = fresh_traces(&base)
                    .iter()
                    .map(EventGraph::from_trace)
                    .collect();
                for slices in [4, 16] {
                    let rc = RootCauseConfig {
                        slices,
                        ..RootCauseConfig::default()
                    };
                    for threads in [1, 2] {
                        let mut cfg = base.clone();
                        cfg.threads = threads;
                        let (result, got) = analyze(&cfg, &rc, &RunCtx::default()).unwrap();
                        let want = reference(&graphs, &rc, result.stacks());
                        let at = format!("{pattern} nd={nd} slices={slices} threads={threads}");
                        assert_eq!(
                            bits(got.slice_divergence.iter().copied()),
                            bits(want.slice_divergence.iter().copied()),
                            "{at}"
                        );
                        assert_eq!(got.high_slices, want.high_slices, "{at}");
                        let key = |r: &CallstackRanking| -> Vec<(String, u64)> {
                            r.entries
                                .iter()
                                .map(|e| (e.stack.clone(), e.count))
                                .collect()
                        };
                        assert_eq!(key(&got), key(&want), "{at}");
                        assert_eq!(
                            bits(got.entries.iter().map(|e| e.frequency)),
                            bits(want.entries.iter().map(|e| e.frequency)),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_analysis_is_warm_and_bit_identical() {
        let cfg = CampaignConfig::new(Pattern::Amg2013, 6).runs(8);
        let rc = RootCauseConfig::default();
        let dir = std::env::temp_dir().join(format!("anacin-root-cause-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let ctx = RunCtx {
            store: Some(&store),
            ..RunCtx::default()
        };
        analyze(&cfg, &rc, &ctx).unwrap();
        let warm_store = ArtifactStore::open(&dir).unwrap();
        let ctx = RunCtx {
            store: Some(&warm_store),
            ..RunCtx::default()
        };
        let (warm, warm_ranking) = analyze(&cfg, &rc, &ctx).unwrap();
        let a = warm_store.activity();
        assert_eq!((a.misses, a.puts), (0, 0), "warm pass recomputed something");
        let (plain, plain_ranking) = analyze(&cfg, &rc, &RunCtx::default()).unwrap();
        assert_eq!(warm.matrix, plain.matrix);
        assert_eq!(warm.schedules, plain.schedules);
        assert_eq!(
            bits(warm_ranking.entries.iter().map(|e| e.frequency)),
            bits(plain_ranking.entries.iter().map(|e| e.frequency))
        );
        assert_eq!(
            bits(warm_ranking.slice_divergence.iter().copied()),
            bits(plain_ranking.slice_divergence.iter().copied())
        );
        assert_eq!(warm_ranking, plain_ranking);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ranks_racy_receive_paths_first() {
        let ranking = ranking(&CampaignConfig::new(Pattern::Amg2013, 6).runs(8));
        assert!(!ranking.entries.is_empty());
        let top = ranking.top().unwrap();
        // The AMG pattern's receives are hypre-style Irecvs — the true
        // root source.
        assert_eq!(top.leaf, "MPI_Irecv", "top path: {}", top.stack);
        assert!(top.stack.contains("hypre"));
        // Frequencies normalise.
        let sum: f64 = ranking.entries.iter().map(|e| e.frequency).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_nd_campaign_has_no_divergence() {
        let ranking = ranking(
            &CampaignConfig::new(Pattern::Amg2013, 4)
                .runs(5)
                .nd_percent(0.0),
        );
        assert!(ranking.slice_divergence.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn divergence_positive_where_races_happen() {
        let ranking = ranking(&CampaignConfig::new(Pattern::MessageRace, 8).runs(8));
        assert!(ranking.slice_divergence.iter().any(|&d| d > 0.0));
        assert!(!ranking.high_slices.is_empty());
        // All highs are in range and sorted.
        for w in ranking.high_slices.windows(2) {
            assert!(w[0] < w[1]);
        }
        // The race's aggregation path surfaces.
        let top = ranking.top().unwrap();
        assert!(
            top.stack.contains("aggregate_results"),
            "top path: {}",
            top.stack
        );
    }

    #[test]
    fn mesh_pattern_surfaces_halo_receives() {
        let ranking = ranking(&CampaignConfig::new(Pattern::UnstructuredMesh, 8).runs(8));
        let top = ranking.top().unwrap();
        assert!(
            top.stack.contains("exchange_halo"),
            "top path: {}",
            top.stack
        );
    }

    #[test]
    #[should_panic(expected = "two runs")]
    fn single_run_panics() {
        ranking(&CampaignConfig::new(Pattern::MessageRace, 4).runs(1));
    }
}
