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
//! # Relabelling from the labels, counting with one sort
//!
//! Feature extraction keeps two `u64` label buffers, the previous round's
//! and the one being built, and swaps them after each round. With the
//! gather buffers they are the whole per-graph arena, allocated once per
//! extraction call and reused across all `iterations` rounds. A round
//! reads each neighbour's previous raw label directly, one load per
//! neighbour, and hashes the word stream `[own, MAX, sorted in, MAX−1,
//! sorted out]`. [`WlKernel::features`] salts every node's label with its
//! round into a feature key, all rounds into one buffer, then sorts the
//! buffer once and weights each distinct key by the length of its run.
//!
//! Both steps are exact. Every round's labels are the raw `u64` labels the
//! historical one-`Vec`-per-node implementation computes (kept under
//! `#[cfg(test)]` as the differential oracle). A key's weight is the
//! number of (round, node) pairs that salt to it, where that
//! implementation added 1.0 once per pair: the same `f64` below 2^53,
//! even for a key two rounds share. The emitted [`SparseFeatures`] are
//! therefore byte-identical to it, so store fingerprints and artifact
//! bytes are unchanged.

use crate::feature::SparseFeatures;
use crate::kernel::GraphKernel;
use anacin_event_graph::label::{initial_labels, LabelPolicy};
use anacin_event_graph::{EventGraph, NodeId};

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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Independent FNV chains hashed in interleaved lanes during relabelling.
/// Each chain is a serial xor-multiply dependency, so independent chains
/// give the out-of-order core latency to hide; 8 lanes fit comfortably in
/// registers (4 lanes measured at parity). Lane count cannot change a bit
/// of any label: lanes only interleave *independent* chains, each folding
/// its node's exact historical byte sequence.
const LANES: usize = 8;

/// Nodes per relabelling shard. Bounds the gather buffer at one shard's
/// word streams (own label + two separators + degree words per node) —
/// a few hundred KiB for typical event graphs — independent of total
/// graph size. Must be a multiple of [`LANES`] so every full shard hits
/// the interleaved fast path.
const SHARD_NODES: usize = 4096;

/// One FNV-1a step: fold a `u64` word into state `h`, byte by byte —
/// exactly what [`fnv1a_words`](anacin_event_graph::label::fnv1a_words)
/// does per word, so folding a node's word sequence through this
/// reproduces its digest bit-for-bit.
#[inline]
fn absorb_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Phase 2 of a relabelling shard: hash [`LANES`] nodes' word streams as
/// interleaved independent FNV chains, writing digests into `out` (one
/// slot per node in the shard). Returns the number of nodes hashed — the
/// largest multiple of [`LANES`] not exceeding the shard's node count; the
/// caller hashes the remaining tail serially. The lane width is a
/// constant, so the state array lives in registers.
fn hash_interleaved(words: &[u64], word_ends: &[u32], out: &mut [u64]) -> usize {
    const L: usize = LANES;
    let n = word_ends.len();
    let range = |i: usize| -> (usize, usize) {
        let s = if i == 0 { 0 } else { word_ends[i - 1] as usize };
        (s, word_ends[i] as usize)
    };
    let mut node = 0usize;
    while node + L <= n {
        let mut starts = [0usize; L];
        let mut lens = [0usize; L];
        let mut states = [FNV_OFFSET; L];
        let mut max_len = 0usize;
        for (l, (start, len)) in starts.iter_mut().zip(lens.iter_mut()).enumerate() {
            let (s, e) = range(node + l);
            *start = s;
            *len = e - s;
            max_len = max_len.max(e - s);
        }
        for pos in 0..max_len {
            for l in 0..L {
                if pos < lens[l] {
                    states[l] = absorb_word(states[l], words[starts[l] + pos]);
                }
            }
        }
        out[node..node + L].copy_from_slice(&states);
        node += L;
    }
    node
}

/// Streaming FNV-1a over `u64` words. `absorb` word-by-word produces
/// exactly the digest
/// [`fnv1a_words`](anacin_event_graph::label::fnv1a_words) yields over
/// the concatenated slice, so relabelling never materialises a per-node
/// word `Vec`.
struct WordHasher(u64);

impl WordHasher {
    fn new() -> Self {
        WordHasher(FNV_OFFSET)
    }

    #[inline]
    fn absorb(&mut self, w: u64) {
        self.0 = absorb_word(self.0, w);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Per-graph arena for WL refinement: the last completed round's labels,
/// the round being built, and the gather buffers of a relabelling round.
/// One allocation set serves all `iterations` rounds of one extraction
/// call.
struct Arena {
    /// Raw `u64` label per node after the last completed round.
    labels: Vec<u64>,
    /// Raw `u64` labels of the round being built; swapped with `labels`
    /// when the round completes.
    next: Vec<u64>,
    /// Flattened word streams for one shard: every node's hash input
    /// `[own, MAX, sorted in, MAX−1, sorted out]` back to back.
    words: Vec<u64>,
    /// Exclusive end offset of each node's word range in `words`.
    word_ends: Vec<u32>,
}

impl Arena {
    fn new(initial: Vec<u64>) -> Self {
        Arena {
            next: vec![0; initial.len()],
            labels: initial,
            words: Vec::new(),
            word_ends: Vec::new(),
        }
    }

    /// One relabelling round: hash every node's word stream over
    /// `self.labels` into `self.next`, `shard` nodes at a time with
    /// [`LANES`] interleaved hash chains, then swap the buffers so
    /// `self.labels` holds the new round. The hashed word sequence per
    /// node is exactly the historical `[own, MAX, sorted in, MAX−1, sorted
    /// out]`, so the output labels are bit-identical to the oracle's at
    /// any shard size.
    ///
    /// Each shard runs two phases: flatten the shard's word streams into
    /// the arena buffer, then hash several nodes' streams as independent
    /// lanes. The FNV fold is a serial xor-multiply chain per node, so
    /// hashing one node at a time is latency-bound; interleaved lanes give
    /// the out-of-order core independent chains to overlap, without
    /// changing any lane's byte sequence. Sharding keeps `words` at
    /// O(shard's edges) rather than O(graph's edges) — the difference
    /// between a transient scratch buffer and a second copy of the graph
    /// at multi-million-node scale — and cannot change any label: every
    /// node's word stream is byte-identical regardless of which shard
    /// gathers it.
    fn relabel_sharded(&mut self, g: &EventGraph, shard: usize) {
        assert!(
            shard > 0 && shard.is_multiple_of(LANES),
            "shard must be a multiple of the lane width"
        );
        let Arena {
            labels,
            next,
            words,
            word_ends,
        } = self;
        let total = g.node_count();
        let mut shard_start = 0usize;
        while shard_start < total {
            let shard_end = (shard_start + shard).min(total);
            // Phase 1: gather this shard. Neighbour labels are pushed
            // straight into the flat buffer and each in-/out-range sorted
            // in place. `word_ends[i]` is node `shard_start + i`'s
            // exclusive end within the shard-local `words`.
            words.clear();
            word_ends.clear();
            for idx in shard_start..shard_end {
                let id = NodeId(idx as u32);
                words.push(labels[idx]);
                words.push(u64::MAX); // separator
                let s = words.len();
                words.extend(g.in_edges(id).iter().map(|&(n, _)| labels[n.index()]));
                words[s..].sort_unstable();
                words.push(u64::MAX - 1); // separator
                let s = words.len();
                words.extend(g.out_edges(id).iter().map(|&(n, _)| labels[n.index()]));
                words[s..].sort_unstable();
                word_ends.push(words.len() as u32);
            }
            // Phase 2: hash LANES nodes at a time, then the tail serially.
            let n = word_ends.len();
            let out = &mut next[shard_start..shard_start + n];
            let mut node = hash_interleaved(words, word_ends, out);
            while node < n {
                let s = if node == 0 {
                    0
                } else {
                    word_ends[node - 1] as usize
                };
                let e = word_ends[node] as usize;
                let mut h = WordHasher::new();
                for &w in &words[s..e] {
                    h.absorb(w);
                }
                out[node] = h.finish();
                node += 1;
            }
            shard_start = shard_end;
        }
        std::mem::swap(labels, next);
    }
}

impl WlKernel {
    /// A WL kernel with `iterations` rounds and the default label policy.
    pub fn with_iterations(iterations: u32) -> Self {
        WlKernel {
            iterations,
            ..WlKernel::default()
        }
    }

    /// Drive the refinement, invoking `visit(round, labels)` once per
    /// round (round 0 = initial labels). `labels[v]` is node `v`'s raw
    /// `u64` label for that round.
    fn for_each_round(&self, g: &EventGraph, mut visit: impl FnMut(usize, &[u64])) {
        let mut arena = Arena::new(initial_labels(g, self.policy));
        visit(0, &arena.labels);
        for round in 1..=self.iterations {
            arena.relabel_sharded(g, SHARD_NODES);
            visit(round as usize, &arena.labels);
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
            // Salt the label with the round index so the same hash at
            // different rounds is a different feature (standard WL):
            // `absorb_word(salt, label)` is `fnv1a_words(&[round, label])`.
            let salt = absorb_word(FNV_OFFSET, round as u64);
            keys.extend(labels.iter().map(|&label| absorb_word(salt, label)));
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

    /// The one-`Vec`-per-node relabelling round, verbatim: the
    /// differential oracle for the arena implementation above.
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
    fn sharded_relabel_is_shard_size_invariant() {
        // A 40-rank race graph has 158 nodes: several full shards plus a
        // partial tail at the small shard sizes below. Every shard size —
        // including the production one, which covers the graph in a single
        // shard here — must agree with the legacy oracle on every round,
        // through both halves of the two-buffer swap.
        let g = race_graph(40, 100.0, 9);
        assert!(g.node_count() > 64, "graph must span multiple small shards");
        let init = initial_labels(&g, LabelPolicy::TypeAndPeer);
        let legacy1 = relabel_legacy(&g, &init);
        let legacy2 = relabel_legacy(&g, &legacy1);
        for shard in [8, 16, 64, SHARD_NODES] {
            let mut arena = Arena::new(init.clone());
            arena.relabel_sharded(&g, shard);
            assert_eq!(arena.labels, legacy1, "round 1, shard={shard}");
            arena.relabel_sharded(&g, shard);
            assert_eq!(arena.labels, legacy2, "round 2, shard={shard}");
        }
    }

    #[test]
    fn interleaved_features_match_the_legacy_oracle() {
        // 7-rank race graphs have node counts that are not multiples of
        // the lane width, so both the interleaved path and the serial tail
        // are exercised.
        for seed in 0..4 {
            let g = race_graph(7, 100.0, seed);
            let k = WlKernel {
                iterations: 3,
                policy: LabelPolicy::TypeAndPeer,
            };
            assert_eq!(k.features(&g), features_legacy(&k, &g));
        }
    }

    #[test]
    fn word_hasher_matches_fnv1a_words() {
        for words in [
            &[][..],
            &[0u64][..],
            &[1, 2, 3][..],
            &[u64::MAX, 0, u64::MAX - 1, 42][..],
        ] {
            let mut h = WordHasher::new();
            for &w in words {
                h.absorb(w);
            }
            assert_eq!(h.finish(), fnv1a_words(words));
        }
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
        for seed in 0..4 {
            let g = race_graph(5, 100.0, seed);
            for policy in policies {
                for iterations in [0, 1, 3, 5] {
                    let k = WlKernel { iterations, policy };
                    assert_eq!(
                        k.features(&g),
                        features_legacy(&k, &g),
                        "policy={policy:?} h={iterations}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_rounds_match_legacy_oracle() {
        for seed in 0..4 {
            let g = race_graph(6, 100.0, seed);
            let k = WlKernel {
                iterations: 4,
                policy: LabelPolicy::TypeAndPeer,
            };
            assert_eq!(k.label_rounds(&g), label_rounds_legacy(&k, &g));
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
        let k = WlKernel::with_iterations(3);
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
            let k = WlKernel::with_iterations(h);
            let v = k.value(&g, &g);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn label_rounds_shape() {
        let g = race_graph(4, 0.0, 0);
        let k = WlKernel::with_iterations(2);
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
        let k = WlKernel::default();
        assert_eq!(k.features(&g), features_legacy(&k, &g));
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

            /// The sharded two-buffer WL path is bit-identical to the
            /// legacy one-`Vec`-per-node oracle on randomly generated
            /// programs, across every label policy and several
            /// refinement depths.
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
                let g = message_graph(&msgs, nd, seed);
                let k = WlKernel {
                    iterations,
                    policy: POLICIES[policy_idx],
                };
                prop_assert_eq!(k.features(&g), features_legacy(&k, &g));
                prop_assert_eq!(k.label_rounds(&g), label_rounds_legacy(&k, &g));
            }
        }
    }
}
