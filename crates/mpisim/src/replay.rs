//! Record-and-replay of message-matching decisions.
//!
//! This module implements the technique the paper's related work attributes
//! to ReMPI (Sato et al., SC'15): record the outcome of every wildcard
//! receive in one run, then *force* those outcomes in subsequent runs,
//! suppressing communication non-determinism entirely. The course module
//! uses it to demonstrate that once match order is pinned, the kernel
//! distance between runs collapses to zero even at 100% injected ND.
//!
//! A [`MatchRecord`] stores, for each rank and each receive (in program
//! order), the `(source rank, channel sequence)` of the matched message.
//! [`crate::engine::simulate_replay`] consults it when posting receives.
//! The same table is the schedule explorer's unit: each distinct schedule
//! [`crate::explore::explore`] enumerates is a `MatchRecord`, named by
//! its [`ScheduleId`].

use crate::explore::ScheduleId;
use crate::trace::{EventKind, Trace, TraceEvent};
use crate::types::{ChannelSeq, Rank};
use serde::{Deserialize, Serialize};

/// splitmix64 — the same finalizer the network delay model seeds with;
/// statistically strong enough for fingerprinting decision sequences.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Recorded matching decisions of one run: one complete resolution of a
/// program's message races.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchRecord {
    /// `decisions[rank][post_ordinal]` is the matched `(src, seq)` of the
    /// receive posted `post_ordinal`-th on `rank`. Non-wildcard receives
    /// are recorded too (they keep ordinals aligned) but are not enforced
    /// on replay. `None` marks ordinals whose receive never completed.
    decisions: Vec<Vec<Option<(Rank, ChannelSeq)>>>,
}

impl MatchRecord {
    /// Extract the matching decisions from a completed trace, keyed by
    /// posting ordinal (event order and posting order differ for
    /// nonblocking receives).
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_rank_events((0..trace.world_size()).map(|r| trace.rank_events(Rank(r))))
    }

    /// The decisions read off each rank's `Recv` events, in rank order —
    /// a finished trace's, or the schedule explorer's engine state's.
    pub(crate) fn from_rank_events<'e>(ranks: impl Iterator<Item = &'e [TraceEvent]>) -> Self {
        let decisions = ranks
            .map(|events| {
                let mut d: Vec<Option<(Rank, ChannelSeq)>> = Vec::new();
                for ev in events {
                    if let EventKind::Recv {
                        src,
                        seq,
                        post_ordinal,
                        ..
                    } = ev.kind
                    {
                        let i = post_ordinal as usize;
                        if d.len() <= i {
                            d.resize(i + 1, None);
                        }
                        d[i] = Some((src, seq));
                    }
                }
                d
            })
            .collect();
        MatchRecord { decisions }
    }

    /// Canonical splitmix64 fingerprint over the rank-major decision
    /// sequence (presence, source and channel position all mixed in).
    /// Explored schedules and sampled traces meet on this:
    /// `MatchRecord::from_trace(t).id()` is a member of the explored id
    /// set iff the run `t` resolved its races in an enumerated way.
    pub fn id(&self) -> ScheduleId {
        let mut h: u64 = 0x5EED_5C4E_D01E_0001;
        for rank_decisions in &self.decisions {
            h = splitmix64(h ^ 0xA11C_E5ED ^ rank_decisions.len() as u64);
            for d in rank_decisions {
                match d {
                    None => h = splitmix64(h ^ 0x7077),
                    Some((src, seq)) => {
                        h = splitmix64(h ^ 0xC0DE ^ (u64::from(src.0) << 1 | 1));
                        h = splitmix64(h ^ seq.0.rotate_left(17));
                    }
                }
            }
        }
        ScheduleId(h)
    }

    /// The decision for the receive posted `ordinal`-th by `rank`, if
    /// recorded.
    pub fn matched(&self, rank: Rank, ordinal: usize) -> Option<(Rank, ChannelSeq)> {
        self.decisions
            .get(rank.index())
            .and_then(|v| v.get(ordinal))
            .copied()
            .flatten()
    }

    /// Recorded receives per rank, in rank order. A record fits a program
    /// with as many ranks, each posting as many receives.
    pub fn shape(&self) -> Vec<usize> {
        self.decisions
            .iter()
            .map(|v| v.iter().flatten().count())
            .collect()
    }

    /// Total recorded receives.
    pub fn total(&self) -> usize {
        self.shape().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, simulate_replay, SimConfig};
    use crate::program::{Program, ProgramBuilder};
    use crate::types::{Tag, TagSpec};

    fn message_race(n: u32) -> Program {
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..n {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        b.build()
    }

    #[test]
    fn record_extracts_all_receives() {
        let p = message_race(5);
        let t = simulate(&p, &SimConfig::with_nd_percent(100.0, 1)).unwrap();
        let rec = MatchRecord::from_trace(&t);
        assert_eq!(rec.shape(), [4, 0, 0, 0, 0]);
        assert_eq!(rec.total(), 4);
        assert_eq!(
            rec.matched(Rank(0), 0).unwrap().0,
            t.match_order(Rank(0))[0]
        );
        assert!(rec.matched(Rank(0), 99).is_none());
        assert!(rec.matched(Rank(4), 0).is_none());
    }

    #[test]
    fn replay_pins_match_order_across_seeds() {
        let p = message_race(8);
        // Record under one seed.
        let recorded = simulate(&p, &SimConfig::with_nd_percent(100.0, 11)).unwrap();
        let rec = MatchRecord::from_trace(&recorded);
        let want = recorded.match_order(Rank(0));
        // Replaying under many different seeds (fresh delay draws!) must
        // reproduce the recorded match order every time.
        for seed in 0..15 {
            let t = simulate_replay(&p, &SimConfig::with_nd_percent(100.0, seed), &rec).unwrap();
            assert_eq!(t.match_order(Rank(0)), want, "seed {seed} diverged");
            t.validate().unwrap();
        }
    }

    #[test]
    fn free_runs_do_diverge_where_replay_does_not() {
        // Companion to the test above: without replay the same seeds give
        // multiple distinct orders, proving replay is doing the work.
        let p = message_race(8);
        let mut free_orders = std::collections::HashSet::new();
        for seed in 0..15 {
            let t = simulate(&p, &SimConfig::with_nd_percent(100.0, seed)).unwrap();
            free_orders.insert(t.match_order(Rank(0)));
        }
        assert!(free_orders.len() > 1);
    }

    #[test]
    fn replay_of_deterministic_run_is_noop() {
        let p = message_race(4);
        let base = simulate(&p, &SimConfig::deterministic()).unwrap();
        let rec = MatchRecord::from_trace(&base);
        let t = simulate_replay(&p, &SimConfig::deterministic(), &rec).unwrap();
        assert_eq!(t.match_order(Rank(0)), base.match_order(Rank(0)));
    }

    #[test]
    fn record_roundtrips_through_serde_and_forces_identical_matching() {
        // A wildcard-heavy program: every receive on rank 0 is nonblocking
        // ANY_SOURCE/ANY_TAG, waited out of posting order, so the record is
        // carrying real racing decisions, not deterministic filler.
        let n = 7u32;
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(r as i32 % 3), 1);
        }
        {
            let mut r0 = b.rank(Rank(0));
            let reqs: Vec<_> = (1..n).map(|_| r0.irecv_any(TagSpec::Any)).collect();
            for req in reqs.into_iter().rev() {
                r0.wait(req);
            }
        }
        let p = b.build();
        let recorded = simulate(&p, &SimConfig::with_nd_percent(100.0, 9)).unwrap();
        assert_eq!(recorded.wildcard_recv_count(), (n - 1) as usize);
        let rec = MatchRecord::from_trace(&recorded);

        // The record must survive a serialize/deserialize round trip…
        let json = serde_json::to_string(&rec).unwrap();
        let back: MatchRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);

        // …and the deserialized copy must force the recorded matching on
        // replay, exactly as the in-memory original does.
        for seed in 40..50 {
            let from_orig =
                simulate_replay(&p, &SimConfig::with_nd_percent(100.0, seed), &rec).unwrap();
            let from_back =
                simulate_replay(&p, &SimConfig::with_nd_percent(100.0, seed), &back).unwrap();
            assert_eq!(
                from_orig.match_order(Rank(0)),
                recorded.match_order(Rank(0))
            );
            assert_eq!(
                from_back.match_order(Rank(0)),
                recorded.match_order(Rank(0))
            );
            for ((_, a), (_, b)) in from_orig.iter().zip(from_back.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn replay_with_nonblocking_receives() {
        let n = 6u32;
        let mut b = ProgramBuilder::new(n);
        for r in 1..n {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        {
            let mut r0 = b.rank(Rank(0));
            let reqs: Vec<_> = (1..n).map(|_| r0.irecv_any(TagSpec::Any)).collect();
            r0.waitall(reqs);
        }
        let p = b.build();
        let recorded = simulate(&p, &SimConfig::with_nd_percent(100.0, 3)).unwrap();
        let rec = MatchRecord::from_trace(&recorded);
        for seed in 20..30 {
            let t = simulate_replay(&p, &SimConfig::with_nd_percent(100.0, seed), &rec).unwrap();
            assert_eq!(t.match_order(Rank(0)), recorded.match_order(Rank(0)));
        }
    }
}
