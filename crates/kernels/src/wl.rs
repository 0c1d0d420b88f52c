//! The Weisfeiler–Lehman subtree kernel.
//!
//! The kernel ANACIN-X uses for its headline measurements. Starting from a
//! node-label policy, `h` rounds of WL relabelling replace each node's
//! label with a hash of `(own label, sorted incoming-neighbour labels,
//! sorted outgoing-neighbour labels)`; the feature map counts every label
//! observed at every round. Two runs whose receives matched different
//! senders produce different label distributions within `h` hops of the
//! divergent receives, so the WL kernel distance grows with the amount of
//! communication reordering — the paper's proxy metric for
//! non-determinism.
//!
//! Direction is respected (in- and out-neighbourhoods hashed separately),
//! matching the directed nature of event graphs.
//!
//! # Relabelling while gathering, counting with one sort
//!
//! Feature extraction keeps two `u64` label buffers, the previous round's
//! and the one being built, and swaps them after each round. A round
//! folds each node's word stream `[own, MAX, sorted in, MAX−1, sorted
//! out]` a word at a time while it reads the neighbours' previous labels:
//! a neighbour list of one or two labels is folded straight from the
//! graph (two in min–max order), a longer one is copied into one reused
//! buffer and sorted first. Each step of the fold is one widening
//! multiply. [`WlKernel::features`]
//! folds every node's label with its round into a feature key, all
//! rounds into one buffer, then sorts the buffer once and weights each
//! distinct key by the length of its run.
//!
//! # Why the hash cannot change a kernel value
//!
//! A label only names a class of nodes with equal word streams. Any hash
//! that separates the same streams splits the nodes into the same classes
//! at every round, so it yields the same feature weights, paired the same
//! way between two graphs; only the ids differ. (The FNV-1a labelling
//! this fold replaced is kept under `#[cfg(test)]` as the oracle that
//! checks it.) A weight is a count of (round, node) pairs, so every
//! product and every partial sum of a dot product is an integer, and
//! `f64` adds integers below 2^53 exactly in any order. A graph of `N`
//! nodes at depth `h` has total weight `(h + 1)·N`, so its dot products
//! stay below `((h + 1)·N)^2`: under 2^53 for any graph below about
//! 2.4 × 10^7 nodes at `h = 3`. Kernel values, Gram matrices and distances
//! are therefore bit-identical under any separating hash; the feature ids
//! themselves are not, which is why they have a store key of their own.

use crate::feature::SparseFeatures;
use crate::kernel::GraphKernel;
use anacin_event_graph::label::{initial_labels, LabelPolicy};
use anacin_event_graph::{EdgeKind, EventGraph, NodeId};

/// Weisfeiler–Lehman subtree kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WlKernel {
    /// Number of relabelling iterations. `0` degenerates to the vertex
    /// histogram kernel over the initial labels.
    pub iterations: u32,
    /// Initial node-label policy.
    pub policy: LabelPolicy,
}

impl Default for WlKernel {
    fn default() -> Self {
        WlKernel {
            iterations: 3,
            policy: LabelPolicy::default(),
        }
    }
}

/// The fold's fixed start state.
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One step of the fold: mix word `w` into state `h` with one widening
/// multiply and xor the product's two halves (the folded multiply of
/// foldhash and wyhash).
#[inline]
fn step(h: u64, w: u64) -> u64 {
    let p = u128::from(h ^ w) * 0x9E37_79B9_7F4A_7C15;
    p as u64 ^ (p >> 64) as u64
}

/// Fold the previous labels of `edges`' far ends into `h` in increasing
/// order. Most event-graph nodes have one or two neighbours each way, so
/// those need no buffer; three or more are sorted in `scratch` first.
#[inline]
fn fold_sorted(
    h: u64,
    edges: &[(NodeId, EdgeKind)],
    labels: &[u64],
    scratch: &mut Vec<u64>,
) -> u64 {
    match edges {
        [] => h,
        [(n, _)] => step(h, labels[n.index()]),
        [(a, _), (b, _)] => {
            let (x, y) = (labels[a.index()], labels[b.index()]);
            step(step(h, x.min(y)), x.max(y))
        }
        _ => {
            scratch.clear();
            scratch.extend(edges.iter().map(|&(n, _)| labels[n.index()]));
            scratch.sort_unstable();
            scratch.iter().fold(h, |h, &w| step(h, w))
        }
    }
}

impl WlKernel {
    /// Drive the refinement, invoking `visit(round, labels)` once per
    /// round (round 0 = initial labels). `labels[v]` is node `v`'s raw
    /// `u64` label for that round.
    fn for_each_round(&self, g: &EventGraph, mut visit: impl FnMut(usize, &[u64])) {
        let mut labels = initial_labels(g, self.policy);
        let mut next = vec![0; labels.len()];
        let mut scratch = Vec::new();
        visit(0, &labels);
        for round in 1..=self.iterations as usize {
            for (v, out) in next.iter_mut().enumerate() {
                let id = NodeId(v as u32);
                let h = step(step(SEED, labels[v]), u64::MAX);
                let h = fold_sorted(h, g.in_edges(id), &labels, &mut scratch);
                let h = step(h, u64::MAX - 1);
                *out = fold_sorted(h, g.out_edges(id), &labels, &mut scratch);
            }
            std::mem::swap(&mut labels, &mut next);
            visit(round, &labels);
        }
    }

    /// Every round's raw `u64` label per node: `label_rounds(g)[r][v]` is
    /// node `v`'s label after `r` rounds, round 0 being the initial
    /// labels. These are the labels [`GraphKernel::features`] counts. Only
    /// tests call it: the pipeline reference test compares it with an
    /// independent relabelling.
    pub fn label_rounds(&self, g: &EventGraph) -> Vec<Vec<u64>> {
        let mut rounds = Vec::with_capacity(self.iterations as usize + 1);
        self.for_each_round(g, |_, labels| rounds.push(labels.to_vec()));
        rounds
    }
}

impl GraphKernel for WlKernel {
    fn name(&self) -> String {
        format!("wl(h={},{:?})", self.iterations, self.policy)
    }

    fn features(&self, g: &EventGraph) -> SparseFeatures {
        let rounds = self.iterations as usize + 1;
        let mut keys: Vec<u64> = Vec::with_capacity(g.node_count() * rounds);
        self.for_each_round(g, |round, labels| {
            // The key is the fold of `[round, label]`, so the same label
            // at two rounds is two features (standard WL).
            let salt = step(SEED, round as u64);
            keys.extend(labels.iter().map(|&label| step(salt, label)));
        });
        SparseFeatures::from_keys(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::kernel_distance;
    use anacin_event_graph::label::fnv1a_words;
    use anacin_event_graph::EventGraph;
    use anacin_mpisim::prelude::*;
    use std::collections::HashMap;

    /// The FNV-1a one-`Vec`-per-node relabelling round: the differential
    /// oracle for the fold above, which must split the nodes into the
    /// same classes.
    fn relabel_legacy(g: &EventGraph, labels: &[u64]) -> Vec<u64> {
        let mut next = Vec::with_capacity(labels.len());
        let mut scratch_in: Vec<u64> = Vec::new();
        let mut scratch_out: Vec<u64> = Vec::new();
        for id in g.node_ids() {
            scratch_in.clear();
            scratch_out.clear();
            scratch_in.extend(g.in_edges(id).iter().map(|&(n, _)| labels[n.index()]));
            scratch_out.extend(g.out_edges(id).iter().map(|&(n, _)| labels[n.index()]));
            scratch_in.sort_unstable();
            scratch_out.sort_unstable();
            let mut words = Vec::with_capacity(scratch_in.len() + scratch_out.len() + 3);
            words.push(labels[id.index()]);
            words.push(u64::MAX);
            words.extend_from_slice(&scratch_in);
            words.push(u64::MAX - 1);
            words.extend_from_slice(&scratch_out);
            next.push(fnv1a_words(&words));
        }
        next
    }

    fn label_rounds_legacy(k: &WlKernel, g: &EventGraph) -> Vec<Vec<u64>> {
        let mut rounds = Vec::with_capacity(k.iterations as usize + 1);
        rounds.push(initial_labels(g, k.policy));
        for _ in 0..k.iterations {
            let next = relabel_legacy(g, rounds.last().expect("nonempty"));
            rounds.push(next);
        }
        rounds
    }

    fn features_legacy(k: &WlKernel, g: &EventGraph) -> SparseFeatures {
        let mut f = SparseFeatures::new();
        for (round, labels) in label_rounds_legacy(k, g).into_iter().enumerate() {
            for l in labels {
                f.bump(fnv1a_words(&[round as u64, l]));
            }
        }
        f
    }

    fn sorted_weights(f: &SparseFeatures) -> Vec<f64> {
        let mut w: Vec<f64> = f.iter().map(|(_, w)| w).collect();
        w.sort_by(f64::total_cmp);
        w
    }

    /// Check `k` on `graphs` against the FNV-1a oracle: at every round
    /// the labels split the nodes into the oracle's classes (one
    /// old-to-new map per round, one-to-one, shared by all the graphs),
    /// each graph's sorted feature weights equal the oracle's, and every
    /// dot product between two of the graphs has the oracle's bits.
    fn assert_matches_oracle(k: &WlKernel, graphs: &[EventGraph]) {
        let rounds = k.iterations as usize + 1;
        let mut maps = vec![(HashMap::new(), HashMap::new()); rounds];
        for g in graphs {
            let ours = k.label_rounds(g);
            let oracle = label_rounds_legacy(k, g);
            assert_eq!(ours.len(), rounds);
            for (r, (fwd, back)) in maps.iter_mut().enumerate() {
                assert_eq!(ours[r].len(), oracle[r].len());
                for (&new, &old) in ours[r].iter().zip(&oracle[r]) {
                    assert_eq!(*fwd.entry(old).or_insert(new), new, "{k:?} round {r}");
                    assert_eq!(*back.entry(new).or_insert(old), old, "{k:?} round {r}");
                }
            }
        }
        let ours: Vec<SparseFeatures> = graphs.iter().map(|g| k.features(g)).collect();
        let oracle: Vec<SparseFeatures> = graphs.iter().map(|g| features_legacy(k, g)).collect();
        for (a, b) in ours.iter().zip(&oracle) {
            assert_eq!(sorted_weights(a), sorted_weights(b), "{k:?}");
        }
        for i in 0..graphs.len() {
            for j in i..graphs.len() {
                assert_eq!(
                    ours[i].dot(&ours[j]).to_bits(),
                    oracle[i].dot(&oracle[j]).to_bits(),
                    "{k:?} k({i}, {j})"
                );
            }
        }
    }

    fn race_graph(n: u32, nd: f64, seed: u64) -> EventGraph {
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn features_match_legacy_oracle() {
        // The full configuration sweep: every label policy, several
        // iteration depths, deterministic and racy graphs.
        let policies = [
            LabelPolicy::EventType,
            LabelPolicy::TypeAndPeer,
            LabelPolicy::RankAndType,
            LabelPolicy::RankTypePeer,
            LabelPolicy::Callstack,
        ];
        let graphs: Vec<EventGraph> = (0..4).map(|seed| race_graph(5, 100.0, seed)).collect();
        for policy in policies {
            for iterations in [0, 1, 3, 5] {
                assert_matches_oracle(&WlKernel { iterations, policy }, &graphs);
            }
        }
    }

    #[test]
    fn label_rounds_match_legacy_oracle() {
        let graphs: Vec<EventGraph> = (0..4).map(|seed| race_graph(6, 100.0, seed)).collect();
        let k = WlKernel {
            iterations: 4,
            policy: LabelPolicy::TypeAndPeer,
        };
        assert_matches_oracle(&k, &graphs);
    }

    #[test]
    fn neighbour_lists_fold_in_increasing_order() {
        // Graphs built from traces have at most two neighbours each way,
        // but a graph read back from JSON or a store can have more. Every
        // list length folds its labels in increasing order, whatever the
        // order of the edges.
        let labels = [7, u64::MAX, 3, 0, 42, 3];
        let mut scratch = Vec::new();
        for len in 0..=labels.len() {
            for rot in 0..len.max(1) {
                let edges: Vec<(NodeId, EdgeKind)> = (0..len)
                    .rev()
                    .map(|i| (NodeId(((i + rot) % len) as u32), EdgeKind::Message))
                    .collect();
                let mut sorted: Vec<u64> = edges.iter().map(|&(n, _)| labels[n.index()]).collect();
                sorted.sort_unstable();
                let want = sorted.iter().fold(SEED, |h, &w| step(h, w));
                let got = fold_sorted(SEED, &edges, &labels, &mut scratch);
                assert_eq!(got, want, "{len} labels, rotation {rot}");
            }
        }
    }

    #[test]
    fn h0_feature_count_equals_node_count() {
        let g = race_graph(4, 0.0, 0);
        let k = WlKernel {
            iterations: 0,
            policy: LabelPolicy::EventType,
        };
        let f = k.features(&g);
        let total: f64 = f.iter().map(|(_, w)| w).sum();
        assert_eq!(total, g.node_count() as f64);
        // Four event classes present.
        assert_eq!(f.nnz(), 4);
    }

    #[test]
    fn feature_total_is_nodes_times_rounds() {
        let g = race_graph(5, 0.0, 0);
        let k = WlKernel {
            iterations: 3,
            ..WlKernel::default()
        };
        let f = k.features(&g);
        let total: f64 = f.iter().map(|(_, w)| w).sum();
        assert_eq!(total, (g.node_count() * 4) as f64);
    }

    #[test]
    fn identical_graphs_have_zero_distance() {
        let g1 = race_graph(6, 100.0, 42);
        let g2 = race_graph(6, 100.0, 42);
        let k = WlKernel::default();
        let d = kernel_distance(k.value(&g1, &g1), k.value(&g2, &g2), k.value(&g1, &g2));
        assert_eq!(d, 0.0);
    }

    #[test]
    fn reordered_matches_have_positive_distance_under_peer_labels() {
        let base = race_graph(6, 100.0, 0);
        let mut other = None;
        for seed in 1..60 {
            let g = race_graph(6, 100.0, seed);
            if g.match_order(Rank(0)) != base.match_order(Rank(0)) {
                other = Some(g);
                break;
            }
        }
        let other = other.expect("expected a reordering seed");
        let k = WlKernel {
            iterations: 2,
            policy: LabelPolicy::TypeAndPeer,
        };
        let d = kernel_distance(
            k.value(&base, &base),
            k.value(&other, &other),
            k.value(&base, &other),
        );
        assert!(d > 0.0, "WL must see the reordering");
    }

    #[test]
    fn event_type_labels_blind_to_pure_sender_permutation() {
        // The message-race senders are structurally identical, so two runs
        // differing only in match order are isomorphic; with
        // permutation-invariant labels WL cannot (and should not)
        // distinguish them. This is exactly why ANACIN-X uses richer
        // labels — demonstrated here and in the ablation bench.
        let base = race_graph(6, 100.0, 0);
        let mut other = None;
        for seed in 1..60 {
            let g = race_graph(6, 100.0, seed);
            if g.match_order(Rank(0)) != base.match_order(Rank(0)) {
                other = Some(g);
                break;
            }
        }
        let other = other.expect("expected a reordering seed");
        let k = WlKernel {
            iterations: 3,
            policy: LabelPolicy::EventType,
        };
        let d = kernel_distance(
            k.value(&base, &base),
            k.value(&other, &other),
            k.value(&base, &other),
        );
        assert!(
            d.abs() < 1e-9,
            "pure sender permutations are isomorphic; got {d}"
        );
    }

    #[test]
    fn more_iterations_never_decrease_self_similarity() {
        let g = race_graph(5, 100.0, 3);
        let mut prev = 0.0;
        for h in 0..5 {
            let k = WlKernel {
                iterations: h,
                ..WlKernel::default()
            };
            let v = k.value(&g, &g);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn label_rounds_shape() {
        let g = race_graph(4, 0.0, 0);
        let k = WlKernel {
            iterations: 2,
            ..WlKernel::default()
        };
        let rounds = k.label_rounds(&g);
        assert_eq!(rounds.len(), 3);
        for r in &rounds {
            assert_eq!(r.len(), g.node_count());
        }
        // Round 1 must refine round 0: at least as many distinct labels.
        let distinct = |v: &Vec<u64>| v.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct(&rounds[1]) >= distinct(&rounds[0]));
    }

    #[test]
    fn empty_graph_features_are_empty() {
        let b = ProgramBuilder::new(1);
        let t = simulate(&b.build(), &SimConfig::with_nd_percent(0.0, 0)).unwrap();
        let g = EventGraph::from_trace(&t);
        assert_matches_oracle(&WlKernel::default(), &[g]);
    }

    #[test]
    fn kernel_name_mentions_config() {
        let k = WlKernel::default();
        assert!(k.name().starts_with("wl(h=3"));
    }

    mod generated {
        use super::*;
        use proptest::prelude::*;

        const POLICIES: [LabelPolicy; 5] = [
            LabelPolicy::EventType,
            LabelPolicy::TypeAndPeer,
            LabelPolicy::RankAndType,
            LabelPolicy::RankTypePeer,
            LabelPolicy::Callstack,
        ];

        fn message_graph(msgs: &[(u32, u32)], nd: f64, seed: u64) -> EventGraph {
            let world = 6u32;
            let mut b = ProgramBuilder::new(world);
            let mut inbound = vec![0u32; world as usize];
            for &(src, dst) in msgs {
                b.rank(Rank(src)).send(Rank(dst), Tag(0), 8);
                inbound[dst as usize] += 1;
            }
            for (r, &n) in inbound.iter().enumerate() {
                for _ in 0..n {
                    b.rank(Rank(r as u32)).recv_any(TagSpec::Tag(Tag(0)));
                }
            }
            let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
            EventGraph::from_trace(&t)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The fused two-buffer WL path splits nodes into the FNV-1a
            /// oracle's classes and gives its kernel values bit for bit on
            /// randomly generated programs (two runs each), across every
            /// label policy and several refinement depths.
            #[test]
            fn bounded_memory_wl_matches_legacy_on_generated_programs(
                msgs in prop::collection::vec(
                    (0..6u32, 0..6u32).prop_filter("no self sends", |(s, d)| s != d),
                    0..24,
                ),
                nd in 0.0f64..=100.0,
                seed in 0u64..200,
                policy_idx in 0usize..5,
                iterations in 0u32..4,
            ) {
                let graphs = [seed, seed + 1].map(|s| message_graph(&msgs, nd, s));
                let k = WlKernel {
                    iterations,
                    policy: POLICIES[policy_idx],
                };
                assert_matches_oracle(&k, &graphs);
            }
        }
    }
}
