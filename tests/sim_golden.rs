//! Golden trace digests: the simulator's output, pinned byte for byte.
//!
//! Each case simulates one packaged pattern at one rank count and ND
//! percentage, encodes the trace with its canonical store codec
//! (`Artifact::to_wire`) and hashes the bytes with FNV-1a, which, unlike
//! `DefaultHasher`, is stable across Rust releases. Any change to the
//! engine's matching, timing, tie-breaking or event placement changes a
//! digest, so an optimisation of the interpreter must leave this table
//! untouched.
//!
//! Run `i` of a case uses seed `base + i` on `1 + i` nodes, so the two
//! runs differ even at ND 0, where every seed yields the same trace.
//!
//! The same traces pin WL feature extraction. `FEATURE_GOLDEN` holds the
//! digest of each run's `.feat` wire bytes under the default kernel, and
//! `WL_CONFIG_GOLDEN` covers every label policy at three depths on one
//! case. Stored feature vectors are these bytes, so a rewrite of the
//! relabelling or of the label counting must leave both tables untouched
//! too, unless it changes the feature ids on purpose and bumps
//! `FEATURE_ID_SCHEMA` (the feature store key) in the same commit.
//!
//! `GRAM_GOLDEN` and `GRAM_CONFIG_GOLDEN` pin what the paper measures:
//! the bits of each case's 2 × 2 kernel matrix over its two runs. A
//! change of feature ids that keeps every kernel value (a new label
//! hash, say) re-records the two feature tables and leaves these alone.

use anacin_event_graph::label::{fnv1a, fnv1a_words};
use anacin_store::Artifact;
use anacin_x::prelude::*;

/// `(pattern, procs, nd_percent, [run 0 digest, run 1 digest])`.
#[rustfmt::skip]
const GOLDEN: [(Pattern, u32, u32, [u64; 2]); 45] = [
    (Pattern::MessageRace, 16, 0, [0x705055288ce245b8, 0x4f84ea48d5c8067c]),
    (Pattern::MessageRace, 16, 50, [0x23fc632893aa17a0, 0x6a99e10b0a0a74f8]),
    (Pattern::MessageRace, 16, 100, [0xef517f0dce2e90a2, 0xed4d71c37fddaea1]),
    (Pattern::MessageRace, 33, 0, [0x5d95a0ae6233a2a8, 0x77602a3b91ff0fb6]),
    (Pattern::MessageRace, 33, 50, [0xb715fc7772a84a30, 0xa7ba3f79860c1812]),
    (Pattern::MessageRace, 33, 100, [0xc07db6785a1d79d6, 0x74d2c7a2b02ba878]),
    (Pattern::MessageRace, 96, 0, [0x17dfcde4e70820d3, 0x16aa21e1c6b4701f]),
    (Pattern::MessageRace, 96, 50, [0x86ba1dd19ab3cc17, 0xe3c0e789c8514d1b]),
    (Pattern::MessageRace, 96, 100, [0x9f216f68ed639bed, 0x64f3ff39737102dc]),
    (Pattern::Amg2013, 16, 0, [0x6167458dccd2a0f3, 0xd411e810fd4590bd]),
    (Pattern::Amg2013, 16, 50, [0xa02b45ba3ed2801f, 0x3f147d25a9dba3b8]),
    (Pattern::Amg2013, 16, 100, [0xe23e28e0e17c696d, 0x8c131572f70acbe5]),
    (Pattern::Amg2013, 33, 0, [0x282c37156d7e0550, 0xfab8889049cca218]),
    (Pattern::Amg2013, 33, 50, [0x6b047867bf8c466b, 0xf96a61c77115553a]),
    (Pattern::Amg2013, 33, 100, [0xc30d7d70af422556, 0x4dcd98adb7b6e303]),
    (Pattern::Amg2013, 96, 0, [0xb1bc22342d2e4e7d, 0x534ae815c261e447]),
    (Pattern::Amg2013, 96, 50, [0x1c9c1e2096c8abb2, 0xb70ebdc41dfa9b84]),
    (Pattern::Amg2013, 96, 100, [0x91fe5cc28c4a7611, 0x9b0bf968c733217f]),
    (Pattern::UnstructuredMesh, 16, 0, [0x5815a9cc8d2ae113, 0xf397b7943734fd87]),
    (Pattern::UnstructuredMesh, 16, 50, [0xa0548d45f675dfc3, 0xbebf13f5d6a9c7d4]),
    (Pattern::UnstructuredMesh, 16, 100, [0xe0fef7d7406c873c, 0x07ab027baa01496b]),
    (Pattern::UnstructuredMesh, 33, 0, [0xf46067dc5ea2e024, 0x1d55d5236a0fa147]),
    (Pattern::UnstructuredMesh, 33, 50, [0x08f00e82b2e33b26, 0xed051b5c72b0ea4c]),
    (Pattern::UnstructuredMesh, 33, 100, [0xa53f3a451edc115c, 0x758d3cb4f1760376]),
    (Pattern::UnstructuredMesh, 96, 0, [0xcd819fe89783f225, 0x3620dcdcd35da660]),
    (Pattern::UnstructuredMesh, 96, 50, [0x4d1dd3d36fd74661, 0xbf4ae686aae50d0b]),
    (Pattern::UnstructuredMesh, 96, 100, [0x3a6fa419ec3115ac, 0x256ea52f74f751cf]),
    (Pattern::Collectives, 16, 0, [0x4f849aa1b4c00b6e, 0x809d25fd98c95367]),
    (Pattern::Collectives, 16, 50, [0x3023a3921b01739c, 0xd930602c2e6058bc]),
    (Pattern::Collectives, 16, 100, [0x0becc02714443795, 0x1ce901ebb2d5df08]),
    (Pattern::Collectives, 33, 0, [0x3cc0c916c29c65d1, 0xecf9ca4454ae60aa]),
    (Pattern::Collectives, 33, 50, [0xfd44dbac6814d786, 0x6e9cc8c110b44063]),
    (Pattern::Collectives, 33, 100, [0x943ef96a93b4b406, 0xcc91c3806d740eb8]),
    (Pattern::Collectives, 96, 0, [0x2b8a69536a07f84a, 0x4b4ee2e08f87a890]),
    (Pattern::Collectives, 96, 50, [0x804e8edb5f742db7, 0x4d84c16249321d70]),
    (Pattern::Collectives, 96, 100, [0x22c6b905a930a292, 0x00d9216317e0c73b]),
    (Pattern::Stencil2d, 16, 0, [0xb39f173ec9b71029, 0x1f36e538cf6ad51e]),
    (Pattern::Stencil2d, 16, 50, [0x9a7fd79ce64684be, 0x138e3e3ca6c4a045]),
    (Pattern::Stencil2d, 16, 100, [0x4d49ae6fa537de7c, 0x3cf8e9dd97bc26ff]),
    (Pattern::Stencil2d, 33, 0, [0x1638f9fb1df3d44f, 0x969c840ce8f69055]),
    (Pattern::Stencil2d, 33, 50, [0x9ff77f8a8c549868, 0x71f9772a746d18b9]),
    (Pattern::Stencil2d, 33, 100, [0x3215048293c333c4, 0xa5e8b01f767cc751]),
    (Pattern::Stencil2d, 96, 0, [0xf105b7eaf4fd45be, 0x7c21a2d150b49a45]),
    (Pattern::Stencil2d, 96, 50, [0x1f6b8e158d194b67, 0x0681aa9fd0eaa795]),
    (Pattern::Stencil2d, 96, 100, [0xb0cdd030de6402f8, 0xd34b8843a910a3ce]),
];

/// `(pattern, procs, nd_percent, [run 0 digest, run 1 digest])` of the
/// default WL kernel's `.feat` wire bytes over `GOLDEN`'s traces.
#[rustfmt::skip]
const FEATURE_GOLDEN: [(Pattern, u32, u32, [u64; 2]); 45] = [
    (Pattern::MessageRace, 16, 0, [0x9eae0039264276ad, 0x9eae0039264276ad]),
    (Pattern::MessageRace, 16, 50, [0x69edb4309bd8df76, 0xab5676ba9798b5d7]),
    (Pattern::MessageRace, 16, 100, [0x923dcfd10ef462a4, 0xb52ff9d98b227dee]),
    (Pattern::MessageRace, 33, 0, [0xe27ef84a9b9224e9, 0xe27ef84a9b9224e9]),
    (Pattern::MessageRace, 33, 50, [0xb99e20993f5803ce, 0x866dd8c1fbd3b2db]),
    (Pattern::MessageRace, 33, 100, [0xc414ead2ed196e16, 0x2e972e2a1fd6f883]),
    (Pattern::MessageRace, 96, 0, [0x1cddf1f9de351d57, 0x1cddf1f9de351d57]),
    (Pattern::MessageRace, 96, 50, [0x3d534451a7ae262a, 0x3ccdfbac3fbfee82]),
    (Pattern::MessageRace, 96, 100, [0x408ce30624e436a0, 0xfd8ff8d153d17a1c]),
    (Pattern::Amg2013, 16, 0, [0xd7d5cf454aff9201, 0xc1b7e2dff4285a12]),
    (Pattern::Amg2013, 16, 50, [0x3fae9ed81e3fb833, 0xa550bf4f3972c591]),
    (Pattern::Amg2013, 16, 100, [0xe7e015adc697ce95, 0x80fd1d7a9c2e6008]),
    (Pattern::Amg2013, 33, 0, [0xcf7f0cc951eb27cd, 0xb1ca77f813f86706]),
    (Pattern::Amg2013, 33, 50, [0x01c2097623b77e37, 0x5e53a31d5219b488]),
    (Pattern::Amg2013, 33, 100, [0x2edc9d5ed0c2d51b, 0x3bbfece8acb5a0c5]),
    (Pattern::Amg2013, 96, 0, [0x7508f4a7399f895a, 0x6a2baa692f27d231]),
    (Pattern::Amg2013, 96, 50, [0x1b1acfdd904ce288, 0x5d32217f4cb95c60]),
    (Pattern::Amg2013, 96, 100, [0xfd94b937d1d8bd75, 0xd2dc9d215e5dbf0c]),
    (Pattern::UnstructuredMesh, 16, 0, [0xded9da8dc2cacff0, 0xba800066d77a508f]),
    (Pattern::UnstructuredMesh, 16, 50, [0xa22712f23699ef3c, 0x91371c42caa9dafb]),
    (Pattern::UnstructuredMesh, 16, 100, [0xc24fbddaee84e7ea, 0x0cf15ca2ba4851a1]),
    (Pattern::UnstructuredMesh, 33, 0, [0xa7051febec0767bf, 0xe7be5c521fe9a3a9]),
    (Pattern::UnstructuredMesh, 33, 50, [0x6f4476586f5436da, 0xf64bd62ba3b94931]),
    (Pattern::UnstructuredMesh, 33, 100, [0x26db844a949889c3, 0xb18af731b966f7c0]),
    (Pattern::UnstructuredMesh, 96, 0, [0x9994464e81553bb0, 0x32e10e3edca13962]),
    (Pattern::UnstructuredMesh, 96, 50, [0xb91709d240024419, 0x21eb59ec7c477473]),
    (Pattern::UnstructuredMesh, 96, 100, [0x7926aa56fc279e87, 0x9048fa1b34643dcc]),
    (Pattern::Collectives, 16, 0, [0xedabbeba26770bcb, 0x1d8d0f7c758f0086]),
    (Pattern::Collectives, 16, 50, [0xa26a286fe93745a5, 0x2a098102f00d11b8]),
    (Pattern::Collectives, 16, 100, [0x6161b7d28fcfdbd1, 0xcfce0d97f3e60d7a]),
    (Pattern::Collectives, 33, 0, [0xe85858172e7c849a, 0x172317ed6b5322dc]),
    (Pattern::Collectives, 33, 50, [0x372663c70afe4219, 0x64978d69e4918842]),
    (Pattern::Collectives, 33, 100, [0xc65b13c6b6088a2b, 0x8d084eb7c2e6b7a9]),
    (Pattern::Collectives, 96, 0, [0xd614e5247bae2671, 0xc1b2f1444cfa1941]),
    (Pattern::Collectives, 96, 50, [0x22382f40b79d8e2e, 0x1eda2cbb24dbae19]),
    (Pattern::Collectives, 96, 100, [0xe2cb56651a69507c, 0xe30ab8d5904c7b9a]),
    (Pattern::Stencil2d, 16, 0, [0x814f28d1c5f4ba66, 0x814f28d1c5f4ba66]),
    (Pattern::Stencil2d, 16, 50, [0x814f28d1c5f4ba66, 0x814f28d1c5f4ba66]),
    (Pattern::Stencil2d, 16, 100, [0x814f28d1c5f4ba66, 0x814f28d1c5f4ba66]),
    (Pattern::Stencil2d, 33, 0, [0x6ee29013609a3b55, 0x6ee29013609a3b55]),
    (Pattern::Stencil2d, 33, 50, [0x6ee29013609a3b55, 0x6ee29013609a3b55]),
    (Pattern::Stencil2d, 33, 100, [0x6ee29013609a3b55, 0x6ee29013609a3b55]),
    (Pattern::Stencil2d, 96, 0, [0x68f3c41dfd4f5eca, 0x68f3c41dfd4f5eca]),
    (Pattern::Stencil2d, 96, 50, [0x68f3c41dfd4f5eca, 0x68f3c41dfd4f5eca]),
    (Pattern::Stencil2d, 96, 100, [0x68f3c41dfd4f5eca, 0x68f3c41dfd4f5eca]),
];

/// `(policy, iterations, digest)` of the `.feat` wire bytes of amg2013 at
/// 33 ranks and ND 100, run 0, for every label policy at three depths.
#[rustfmt::skip]
const WL_CONFIG_GOLDEN: [(LabelPolicy, u32, u64); 15] = [
    (LabelPolicy::EventType, 0, 0xf2a4cf6e93cc8210),
    (LabelPolicy::EventType, 1, 0x3fa2aeeb3a139d48),
    (LabelPolicy::EventType, 3, 0x66072603f0a31fc4),
    (LabelPolicy::TypeAndPeer, 0, 0x316c29af222841d2),
    (LabelPolicy::TypeAndPeer, 1, 0xed786cc7487a0848),
    (LabelPolicy::TypeAndPeer, 3, 0x2edc9d5ed0c2d51b),
    (LabelPolicy::RankAndType, 0, 0xf8582d0a838fb333),
    (LabelPolicy::RankAndType, 1, 0x4bf8a4a790c6de9e),
    (LabelPolicy::RankAndType, 3, 0xcdd926c0e310e816),
    (LabelPolicy::RankTypePeer, 0, 0xe0b94d522d1baa71),
    (LabelPolicy::RankTypePeer, 1, 0x284f31f7ffe4132b),
    (LabelPolicy::RankTypePeer, 3, 0x399ae0817112b662),
    (LabelPolicy::Callstack, 0, 0x2fcb2e7caf3f0355),
    (LabelPolicy::Callstack, 1, 0xdce6933fe6eba0da),
    (LabelPolicy::Callstack, 3, 0x67ca1e3524ddd075),
];

/// `(pattern, procs, nd_percent, digest)` of the default WL kernel's
/// `[k(a,a), k(a,b), k(b,b)]` bits over `GOLDEN`'s runs 0 and 1.
#[rustfmt::skip]
const GRAM_GOLDEN: [(Pattern, u32, u32, u64); 45] = [
    (Pattern::MessageRace, 16, 0, 0xb18f25d0ee01bae0),
    (Pattern::MessageRace, 16, 50, 0x4def099fa77564ca),
    (Pattern::MessageRace, 16, 100, 0x74c9a5bd2291c5fa),
    (Pattern::MessageRace, 33, 0, 0x672c292c50ce1cb0),
    (Pattern::MessageRace, 33, 50, 0x7105f584a2e5472a),
    (Pattern::MessageRace, 33, 100, 0xf351e9736de0497e),
    (Pattern::MessageRace, 96, 0, 0x6ba68f983375eb7e),
    (Pattern::MessageRace, 96, 50, 0xb2e7a5f2dfb4ddee),
    (Pattern::MessageRace, 96, 100, 0xad08db227cc3268a),
    (Pattern::Amg2013, 16, 0, 0xd9169a19052b519d),
    (Pattern::Amg2013, 16, 50, 0x2baa7f8459068007),
    (Pattern::Amg2013, 16, 100, 0xeda7f3eafd604f40),
    (Pattern::Amg2013, 33, 0, 0xd4427dbbb5f605da),
    (Pattern::Amg2013, 33, 50, 0x7e0c79fd23fc262a),
    (Pattern::Amg2013, 33, 100, 0x0010eba686c39834),
    (Pattern::Amg2013, 96, 0, 0xc7a43b7111a12108),
    (Pattern::Amg2013, 96, 50, 0x9e1043605a3f1545),
    (Pattern::Amg2013, 96, 100, 0x3402fcbe517dd37a),
    (Pattern::UnstructuredMesh, 16, 0, 0x82942800c4a86bf9),
    (Pattern::UnstructuredMesh, 16, 50, 0x92f514c9a57e589b),
    (Pattern::UnstructuredMesh, 16, 100, 0xefc9859624cd7f8a),
    (Pattern::UnstructuredMesh, 33, 0, 0x09986e5568c00a02),
    (Pattern::UnstructuredMesh, 33, 50, 0x567a0da32d25e299),
    (Pattern::UnstructuredMesh, 33, 100, 0x6883c41a0b9a6ae9),
    (Pattern::UnstructuredMesh, 96, 0, 0x101abe49e556a067),
    (Pattern::UnstructuredMesh, 96, 50, 0x06b65d43ef590ff3),
    (Pattern::UnstructuredMesh, 96, 100, 0x5aa408f78387a540),
    (Pattern::Collectives, 16, 0, 0x7cb78e022319640a),
    (Pattern::Collectives, 16, 50, 0x230c05e5871e5188),
    (Pattern::Collectives, 16, 100, 0x3e20eaf21aa2635a),
    (Pattern::Collectives, 33, 0, 0xf2b461f0ef1753c7),
    (Pattern::Collectives, 33, 50, 0xd8dd74ab97ba1552),
    (Pattern::Collectives, 33, 100, 0xac788a76eabeade3),
    (Pattern::Collectives, 96, 0, 0x866255efae09cbea),
    (Pattern::Collectives, 96, 50, 0x569892c2d3686187),
    (Pattern::Collectives, 96, 100, 0xb6fcd23c4a0490b8),
    (Pattern::Stencil2d, 16, 0, 0xa77eacd9276f26fe),
    (Pattern::Stencil2d, 16, 50, 0xa77eacd9276f26fe),
    (Pattern::Stencil2d, 16, 100, 0xa77eacd9276f26fe),
    (Pattern::Stencil2d, 33, 0, 0x0b00bd434585ab51),
    (Pattern::Stencil2d, 33, 50, 0x0b00bd434585ab51),
    (Pattern::Stencil2d, 33, 100, 0x0b00bd434585ab51),
    (Pattern::Stencil2d, 96, 0, 0xce8323acb775fba0),
    (Pattern::Stencil2d, 96, 50, 0xce8323acb775fba0),
    (Pattern::Stencil2d, 96, 100, 0xce8323acb775fba0),
];

/// `(policy, iterations, digest)` of the kernel matrix bits over runs 0
/// and 1 of `WL_CONFIG_GOLDEN`'s case.
#[rustfmt::skip]
const GRAM_CONFIG_GOLDEN: [(LabelPolicy, u32, u64); 15] = [
    (LabelPolicy::EventType, 0, 0xedb1ca448fb2d81c),
    (LabelPolicy::EventType, 1, 0x412f80bcf4d5eb41),
    (LabelPolicy::EventType, 3, 0xda5a9dd56e5ffb2e),
    (LabelPolicy::TypeAndPeer, 0, 0xda6930952292d564),
    (LabelPolicy::TypeAndPeer, 1, 0x450b2755af2c2102),
    (LabelPolicy::TypeAndPeer, 3, 0x0010eba686c39834),
    (LabelPolicy::RankAndType, 0, 0x55375c1fc507bcc5),
    (LabelPolicy::RankAndType, 1, 0x8beb18a465fc2cf9),
    (LabelPolicy::RankAndType, 3, 0xd9e903f393e1b409),
    (LabelPolicy::RankTypePeer, 0, 0xbc356a408099331a),
    (LabelPolicy::RankTypePeer, 1, 0x9725fb8ba88b900f),
    (LabelPolicy::RankTypePeer, 3, 0x5707f889685c13af),
    (LabelPolicy::Callstack, 0, 0x44e8a00938a24252),
    (LabelPolicy::Callstack, 1, 0x9f300243dd8da64c),
    (LabelPolicy::Callstack, 3, 0x6fe1c27304eb457a),
];

const POLICIES: [LabelPolicy; 5] = [
    LabelPolicy::EventType,
    LabelPolicy::TypeAndPeer,
    LabelPolicy::RankAndType,
    LabelPolicy::RankTypePeer,
    LabelPolicy::Callstack,
];

fn trace(pattern: Pattern, procs: u32, nd: u32, run: u32) -> Trace {
    let cfg = CampaignConfig::new(pattern, procs)
        .nd_percent(nd as f64)
        .nodes(1 + run)
        .base_seed(0x5EED + u64::from(nd));
    let program = pattern.build(&cfg.app);
    simulate(&program, &cfg.sim_config(run))
        .unwrap_or_else(|e| panic!("{pattern} {procs} nd {nd} run {run}: {e}"))
}

fn feature_digest(kernel: &WlKernel, trace: &Trace) -> u64 {
    fnv1a(&kernel.features(&EventGraph::from_trace(trace)).to_wire())
}

/// FNV-1a of the bits of `kernel`'s 2 × 2 matrix over runs `a` and `b`.
fn gram_digest(kernel: &WlKernel, [a, b]: &[Trace; 2]) -> u64 {
    let graphs = [a, b].map(EventGraph::from_trace);
    let m = gram_matrix(kernel, &graphs, 1);
    fnv1a_words(&[m.value(0, 0), m.value(0, 1), m.value(1, 1)].map(f64::to_bits))
}

type Case = (Pattern, u32, u32, [u64; 2]);

/// Every case's `f` of its runs 0 and 1, in `GOLDEN`'s order.
fn cases<T>(f: impl Fn(&[Trace; 2]) -> T) -> Vec<(Pattern, u32, u32, T)> {
    let mut actual = Vec::new();
    for pattern in Pattern::ALL {
        for procs in [16, 33, 96] {
            for nd in [0, 50, 100] {
                let runs = [0, 1].map(|run| trace(pattern, procs, nd, run));
                actual.push((pattern, procs, nd, f(&runs)));
            }
        }
    }
    actual
}

/// Every case's `[run 0, run 1]` digests under `hash`, in `GOLDEN`'s order.
fn case_digests(hash: impl Fn(&Trace) -> u64) -> Vec<Case> {
    cases(|runs| runs.each_ref().map(&hash))
}

fn case_row(&(p, n, nd, [a, b]): &Case) -> String {
    format!("    (Pattern::{p:?}, {n}, {nd}, [{a:#018x}, {b:#018x}]),\n")
}

fn config_row(&(p, h, d): &(LabelPolicy, u32, u64)) -> String {
    format!("    (LabelPolicy::{p:?}, {h}, {d:#018x}),\n")
}

/// Assert `actual == golden` row by row. A failure prints this run's
/// whole table, one `row` per entry, so a deliberate change can be
/// reviewed line by line.
fn assert_golden<T: PartialEq + std::fmt::Debug>(
    what: &str,
    actual: &[T],
    golden: &[T],
    row: impl Fn(&T) -> String,
) {
    let table: String = actual.iter().map(row).collect();
    assert_eq!(actual.len(), golden.len(), "case list changed:\n{table}");
    for (got, want) in actual.iter().zip(golden) {
        assert_eq!(
            got, want,
            "{what} digest changed; this run's table:\n{table}"
        );
    }
}

#[test]
fn traces_match_the_golden_digests() {
    let actual = case_digests(|trace| fnv1a(&trace.to_wire()));
    assert_golden("trace", &actual, &GOLDEN, case_row);
}

#[test]
fn features_match_the_golden_digests() {
    let wl = WlKernel::default();
    let actual = case_digests(|trace| feature_digest(&wl, trace));
    assert_golden("feature", &actual, &FEATURE_GOLDEN, case_row);
}

/// Every label policy at depths 0, 1 and 3, in `WL_CONFIG_GOLDEN`'s
/// order, with `f`'s value under that kernel.
fn config_digests(f: impl Fn(&WlKernel) -> u64) -> Vec<(LabelPolicy, u32, u64)> {
    let mut actual = Vec::new();
    for policy in POLICIES {
        for iterations in [0, 1, 3] {
            let wl = WlKernel { iterations, policy };
            actual.push((policy, iterations, f(&wl)));
        }
    }
    actual
}

#[test]
fn wl_configurations_match_the_golden_digests() {
    let trace = trace(Pattern::Amg2013, 33, 100, 0);
    let actual = config_digests(|wl| feature_digest(wl, &trace));
    assert_golden("feature", &actual, &WL_CONFIG_GOLDEN, config_row);
}

#[test]
fn gram_matches_the_golden_digests() {
    let wl = WlKernel::default();
    let actual = cases(|runs| gram_digest(&wl, runs));
    assert_golden("gram", &actual, &GRAM_GOLDEN, |&(p, n, nd, d)| {
        format!("    (Pattern::{p:?}, {n}, {nd}, {d:#018x}),\n")
    });
    let runs = [0, 1].map(|run| trace(Pattern::Amg2013, 33, 100, run));
    let actual = config_digests(|wl| gram_digest(wl, &runs));
    assert_golden("gram", &actual, &GRAM_CONFIG_GOLDEN, config_row);
}
