//! Property tests for the schedule explorer.
//!
//! The load-bearing one is **pruning soundness**: on programs tiny enough
//! to brute-force, DFS with sleep-set reduction + eager delivery must
//! produce exactly the same set of distinct schedule fingerprints as the
//! unpruned enumeration of every delivery interleaving. The others pin the
//! replay loop: every explored schedule replays through the real engine
//! back to its own fingerprint, and sampled runs always land inside a
//! complete explored set.

use anacin_mpisim::explore::{explore, ExploreConfig};
use anacin_mpisim::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-derived tiny program: 1–2 sender ranks each pushing 1–2
/// messages (tags 0/1, sometimes synchronous) at rank 0, which consumes
/// them through a random mix of blocking/nonblocking, wildcard/specific
/// receives. Small enough that brute-force enumeration of all delivery
/// interleavings stays well under the branch budget, rich enough to cover
/// every explorer code path — including receives that can starve into a
/// deadlock terminal.
fn tiny_program(seed: u64) -> Program {
    let mut x = seed;
    let senders = 1 + (mix(&mut x) % 2) as u32; // 1..=2
    let mut b = ProgramBuilder::new(senders + 1);
    let mut sent: Vec<(u32, i32)> = Vec::new();
    for s in 1..=senders {
        let msgs = 1 + (mix(&mut x) % 2) as u32; // 1..=2 per sender
        for _ in 0..msgs {
            let tag = (mix(&mut x) % 2) as i32;
            if mix(&mut x).is_multiple_of(4) {
                b.rank(Rank(s)).ssend(Rank(0), Tag(tag), 1);
            } else {
                b.rank(Rank(s)).send(Rank(0), Tag(tag), 1);
            }
            sent.push((s, tag));
        }
    }
    let mut pending = Vec::new();
    for &(src, tag) in &sent {
        // Half the receives target one sent message's (src, tag), so
        // completions are common; the rest are drawn blind, so starvation
        // and deadlock terminals appear too.
        let (src_spec, tag_spec) = if mix(&mut x).is_multiple_of(2) {
            (SrcSpec::Rank(Rank(src)), TagSpec::Tag(Tag(tag)))
        } else {
            let src_spec = match mix(&mut x) % 3 {
                0 => SrcSpec::Any,
                _ => SrcSpec::Rank(Rank(1 + (mix(&mut x) % senders as u64) as u32)),
            };
            let tag_spec = match mix(&mut x) % 3 {
                0 => TagSpec::Any,
                _ => TagSpec::Tag(Tag((mix(&mut x) % 2) as i32)),
            };
            (src_spec, tag_spec)
        };
        let wildcard_src = src_spec == SrcSpec::Any;
        let mut r0 = b.rank(Rank(0));
        if mix(&mut x).is_multiple_of(2) {
            let req = match (wildcard_src, src_spec) {
                (true, _) => r0.irecv_any(tag_spec),
                (false, SrcSpec::Rank(r)) => r0.irecv(r, tag_spec),
                _ => unreachable!(),
            };
            pending.push(req);
        } else {
            match (wildcard_src, src_spec) {
                (true, _) => {
                    r0.recv_any(tag_spec);
                }
                (false, SrcSpec::Rank(r)) => {
                    r0.recv(r, tag_spec);
                }
                _ => unreachable!(),
            }
        }
    }
    if !pending.is_empty() {
        b.rank(Rank(0)).waitall(pending);
    }
    b.build()
}

fn generous() -> ExploreConfig {
    ExploreConfig {
        max_schedules: 4096,
        max_branches: 1 << 20,
        max_frontier: 1 << 16,
        prune: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partial-order reduction never changes the set of distinct
    /// schedules: pruned DFS == unpruned brute force, on every tiny
    /// program.
    #[test]
    fn pruning_is_sound_on_tiny_programs(seed in 0u64..1 << 48) {
        let p = tiny_program(seed);
        let pruned = explore(&p, &generous()).unwrap();
        let brute = explore(&p, &generous().brute_force()).unwrap();
        prop_assert!(pruned.is_complete(), "pruned walk truncated on a tiny program");
        prop_assert!(brute.is_complete(), "brute walk truncated on a tiny program");
        let pruned_ids: HashSet<u64> = pruned.schedules.iter().map(|s| s.id().0).collect();
        let brute_ids: HashSet<u64> = brute.schedules.iter().map(|s| s.id().0).collect();
        prop_assert_eq!(pruned_ids, brute_ids);
        // Reduction must reduce (or at least not inflate) work.
        prop_assert!(pruned.stats.branches <= brute.stats.branches);
    }

    /// Every explored schedule round-trips through the real engine: the
    /// replayed trace realises exactly the schedule that was fed in.
    #[test]
    fn explored_schedules_replay_to_their_own_id(seed in 0u64..1 << 48, nd_seed in 0u64..1000) {
        let p = tiny_program(seed);
        let report = explore(&p, &generous()).unwrap();
        prop_assert!(report.is_complete());
        for s in &report.schedules {
            let t = simulate_replay(&p, &SimConfig::with_nd_percent(100.0, nd_seed), s)
                .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
            prop_assert_eq!(MatchRecord::from_trace(&t).id(), s.id());
        }
    }

    /// Random-seed sampling can only ever realise enumerated schedules:
    /// the sampled fingerprint is a member of any complete explored set.
    #[test]
    fn sampling_stays_inside_the_explored_set(seed in 0u64..1 << 48, sim_seed in 0u64..10_000) {
        let p = tiny_program(seed);
        let report = explore(&p, &generous()).unwrap();
        prop_assert!(report.is_complete());
        let ids: HashSet<u64> = report.schedules.iter().map(|s| s.id().0).collect();
        // Deadlock-capable draws may fail to simulate; that is fine — the
        // oracle only constrains runs that complete.
        if let Ok(t) = simulate(&p, &SimConfig::with_nd_percent(100.0, sim_seed)) {
            prop_assert!(
                ids.contains(&MatchRecord::from_trace(&t).id().0),
                "sampled schedule missing from a complete enumeration"
            );
        }
    }
}
