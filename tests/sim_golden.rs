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
//! case. Feature bytes feed store fingerprints and every Gram bit, so a
//! rewrite of the relabelling or of the label counting must leave both
//! tables untouched too.

use anacin_event_graph::label::fnv1a;
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
    (Pattern::MessageRace, 16, 0, [0x79c0bdf38db8c725, 0x79c0bdf38db8c725]),
    (Pattern::MessageRace, 16, 50, [0x75cde4bf897c8aeb, 0x253dffd6a20ba870]),
    (Pattern::MessageRace, 16, 100, [0x9aeb6345e72555e6, 0x59ff32ab4462c6ea]),
    (Pattern::MessageRace, 33, 0, [0xba174b704a90d01a, 0xba174b704a90d01a]),
    (Pattern::MessageRace, 33, 50, [0xb355512b52305623, 0x62efef78682ea167]),
    (Pattern::MessageRace, 33, 100, [0x064a065e70b35115, 0x881b52f556188f29]),
    (Pattern::MessageRace, 96, 0, [0xb4634308450d21b9, 0xb4634308450d21b9]),
    (Pattern::MessageRace, 96, 50, [0x7100810b29831eda, 0x029f25200ef0606e]),
    (Pattern::MessageRace, 96, 100, [0x89c0147392f123d9, 0x3699714542cf54ac]),
    (Pattern::Amg2013, 16, 0, [0xd3fda8d1607a2b49, 0xe0706d933dcc803d]),
    (Pattern::Amg2013, 16, 50, [0xe915af3e073c9c5f, 0xdacc52e2781704c5]),
    (Pattern::Amg2013, 16, 100, [0xb834825edffc4399, 0x9283e4fb80d6474f]),
    (Pattern::Amg2013, 33, 0, [0x67303257e65c2bc4, 0x5222607180426b4b]),
    (Pattern::Amg2013, 33, 50, [0x72b8ae17ae76e4c6, 0xa7831d9130261d72]),
    (Pattern::Amg2013, 33, 100, [0x6f1ba515949601b4, 0xf7a7083ecb2e3da5]),
    (Pattern::Amg2013, 96, 0, [0xe604bc20a701613e, 0x2330c4e4f159ace7]),
    (Pattern::Amg2013, 96, 50, [0xe605b2537415e1e9, 0xb5f1a68716de2cac]),
    (Pattern::Amg2013, 96, 100, [0x2b88b26b206731ef, 0xef4ec3fdd1ccf66d]),
    (Pattern::UnstructuredMesh, 16, 0, [0x619758d50df5ce4a, 0x24c1c30def04dcdb]),
    (Pattern::UnstructuredMesh, 16, 50, [0x5d6f8e2602e2b921, 0xce2fb249e8183147]),
    (Pattern::UnstructuredMesh, 16, 100, [0xe0ad4270dc2738bc, 0xfab1d72c3b84a1c2]),
    (Pattern::UnstructuredMesh, 33, 0, [0x329b700d3b867f6e, 0x12b412776201ce6f]),
    (Pattern::UnstructuredMesh, 33, 50, [0xf35f1ace8503abfc, 0x818d433b68455305]),
    (Pattern::UnstructuredMesh, 33, 100, [0x335471b8f1350762, 0x928af34b700b93af]),
    (Pattern::UnstructuredMesh, 96, 0, [0xc2f2745b841ffcf7, 0xd1e30d6be90fc9e3]),
    (Pattern::UnstructuredMesh, 96, 50, [0xe62b1d4c7f576b1f, 0x2d6028fd2baad0e2]),
    (Pattern::UnstructuredMesh, 96, 100, [0x4ae3e07e3c46081b, 0xa40d609fa6f8c948]),
    (Pattern::Collectives, 16, 0, [0x4543d6511dcf5cf9, 0xefe263ae32775542]),
    (Pattern::Collectives, 16, 50, [0xd577caa04dcd550c, 0xe12c7723eb03dcfa]),
    (Pattern::Collectives, 16, 100, [0xb9d4029d19404a96, 0xd361f1b932f0c60e]),
    (Pattern::Collectives, 33, 0, [0x546b2fc5a7963d32, 0x5cde86915f536240]),
    (Pattern::Collectives, 33, 50, [0xe1ad943ac5640754, 0x5fc33f2e4cc6538b]),
    (Pattern::Collectives, 33, 100, [0x207f37203d366a48, 0x81c7708dcdaff356]),
    (Pattern::Collectives, 96, 0, [0x9fee23ae5ca0c756, 0x53d56e6aa49b82a8]),
    (Pattern::Collectives, 96, 50, [0xa9e001bfbded4ad8, 0x4edf8c3f5d523104]),
    (Pattern::Collectives, 96, 100, [0x46ee2e5b6e2978c3, 0x148cd0cead2ad823]),
    (Pattern::Stencil2d, 16, 0, [0x5808523cc86095e0, 0x5808523cc86095e0]),
    (Pattern::Stencil2d, 16, 50, [0x5808523cc86095e0, 0x5808523cc86095e0]),
    (Pattern::Stencil2d, 16, 100, [0x5808523cc86095e0, 0x5808523cc86095e0]),
    (Pattern::Stencil2d, 33, 0, [0xdab73cf4a754dfff, 0xdab73cf4a754dfff]),
    (Pattern::Stencil2d, 33, 50, [0xdab73cf4a754dfff, 0xdab73cf4a754dfff]),
    (Pattern::Stencil2d, 33, 100, [0xdab73cf4a754dfff, 0xdab73cf4a754dfff]),
    (Pattern::Stencil2d, 96, 0, [0xe09730f3170a6908, 0xe09730f3170a6908]),
    (Pattern::Stencil2d, 96, 50, [0xe09730f3170a6908, 0xe09730f3170a6908]),
    (Pattern::Stencil2d, 96, 100, [0xe09730f3170a6908, 0xe09730f3170a6908]),
];

/// `(policy, iterations, digest)` of the `.feat` wire bytes of amg2013 at
/// 33 ranks and ND 100, run 0, for every label policy at three depths.
#[rustfmt::skip]
const WL_CONFIG_GOLDEN: [(LabelPolicy, u32, u64); 15] = [
    (LabelPolicy::EventType, 0, 0xa50a95a0fb4dee9b),
    (LabelPolicy::EventType, 1, 0xaec978d16f0394c6),
    (LabelPolicy::EventType, 3, 0x93b35545ee56c780),
    (LabelPolicy::TypeAndPeer, 0, 0x790c278eed20a678),
    (LabelPolicy::TypeAndPeer, 1, 0xc1e3ce81664a8d10),
    (LabelPolicy::TypeAndPeer, 3, 0x6f1ba515949601b4),
    (LabelPolicy::RankAndType, 0, 0xaadea2ea2e34a437),
    (LabelPolicy::RankAndType, 1, 0xf103f22cb334ac30),
    (LabelPolicy::RankAndType, 3, 0xe0b2b950d3f11ed3),
    (LabelPolicy::RankTypePeer, 0, 0xde1dc4d9295a5b39),
    (LabelPolicy::RankTypePeer, 1, 0xd4469a04d4f7d278),
    (LabelPolicy::RankTypePeer, 3, 0x20f93eed75fb60da),
    (LabelPolicy::Callstack, 0, 0x1e08bbdb2b97f6ce),
    (LabelPolicy::Callstack, 1, 0xc0659dcfdc15172c),
    (LabelPolicy::Callstack, 3, 0xfc93154d5a7935a2),
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

type Case = (Pattern, u32, u32, [u64; 2]);

/// Every case's `[run 0, run 1]` digests under `hash`, in `GOLDEN`'s order.
fn case_digests(hash: impl Fn(&Trace) -> u64) -> Vec<Case> {
    let mut actual = Vec::new();
    for pattern in Pattern::ALL {
        for procs in [16, 33, 96] {
            for nd in [0, 50, 100] {
                let d = [0, 1].map(|run| hash(&trace(pattern, procs, nd, run)));
                actual.push((pattern, procs, nd, d));
            }
        }
    }
    actual
}

fn case_row(&(p, n, nd, [a, b]): &Case) -> String {
    format!("    (Pattern::{p:?}, {n}, {nd}, [{a:#018x}, {b:#018x}]),\n")
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

#[test]
fn wl_configurations_match_the_golden_digests() {
    let trace = trace(Pattern::Amg2013, 33, 100, 0);
    let mut actual = Vec::new();
    for policy in [
        LabelPolicy::EventType,
        LabelPolicy::TypeAndPeer,
        LabelPolicy::RankAndType,
        LabelPolicy::RankTypePeer,
        LabelPolicy::Callstack,
    ] {
        for iterations in [0, 1, 3] {
            let wl = WlKernel { iterations, policy };
            actual.push((policy, iterations, feature_digest(&wl, &trace)));
        }
    }
    assert_golden("feature", &actual, &WL_CONFIG_GOLDEN, |(p, h, d)| {
        format!("    (LabelPolicy::{p:?}, {h}, {d:#018x}),\n")
    });
}
