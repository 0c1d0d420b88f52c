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

fn digest(pattern: Pattern, procs: u32, nd: u32, run: u32) -> u64 {
    let cfg = CampaignConfig::new(pattern, procs)
        .nd_percent(nd as f64)
        .nodes(1 + run)
        .base_seed(0x5EED + u64::from(nd));
    let program = pattern.build(&cfg.app);
    let trace = simulate(&program, &cfg.sim_config(run))
        .unwrap_or_else(|e| panic!("{pattern} {procs} nd {nd} run {run}: {e}"));
    fnv1a(&trace.to_wire())
}

#[test]
fn traces_match_the_golden_digests() {
    let mut actual = Vec::new();
    for pattern in Pattern::ALL {
        for procs in [16, 33, 96] {
            for nd in [0, 50, 100] {
                let d = [digest(pattern, procs, nd, 0), digest(pattern, procs, nd, 1)];
                actual.push((pattern, procs, nd, d));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(p, n, nd, [a, b])| {
            format!("    (Pattern::{p:?}, {n}, {nd}, [{a:#018x}, {b:#018x}]),\n")
        })
        .collect();
    assert_eq!(actual.len(), GOLDEN.len(), "case list changed:\n{table}");
    for (got, want) in actual.iter().zip(&GOLDEN) {
        assert_eq!(
            got, want,
            "trace digest changed; this run's table:\n{table}"
        );
    }
}
