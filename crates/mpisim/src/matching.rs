//! MPI message-matching semantics.
//!
//! Each rank owns a [`MatchEngine`] holding the two canonical MPI queues:
//! the *unexpected-message queue* (messages that arrived before a matching
//! receive was posted, in arrival order) and the *posted-receive queue*
//! (receives not yet satisfied, in post order). Matching follows the MPI
//! standard:
//!
//! * when a message arrives, it is delivered to the **first posted** receive
//!   whose source/tag specification it satisfies;
//! * when a receive is posted, it consumes the **first arrived** matching
//!   message from the unexpected queue;
//! * messages on the same `(src, dst)` channel are matched in send order
//!   (non-overtaking). The engine guarantees this by clamping per-channel
//!   delivery times monotonically, so arrival order within a channel equals
//!   send order and the two scans above preserve it.
//!
//! A receive may carry a *forced match* constraint — the record/replay
//! mechanism (`crate::replay`) pins a wildcard receive to the exact message
//! it consumed in a recorded run.
//!
//! ## Per-channel layout
//!
//! Both queues are *partitioned by the concrete source rank* instead of
//! being flat `VecDeque`s scanned front to back:
//!
//! * unexpected messages live in one FIFO per `(src, dst)` channel;
//! * posted receives with a concrete source spec live in one FIFO per
//!   source; source-wildcard receives live in a dedicated FIFO.
//!
//! Every entry carries a monotone *stamp* (arrival order for messages,
//! post order for receives), so the MPI-ordained global scan order can be
//! recovered as a minimum over per-queue heads. A receive with source
//! `Rank(s)` (or a replay constraint pinning source `s`) only ever
//! inspects channel `s`; an arrival from `s` only ever inspects the
//! `s`-specific receive FIFO and the wildcard FIFO. This turns the former
//! O(pending) scans — quadratic over a deep all-to-all phase — into scans
//! bounded by the one queue that can possibly match, while producing the
//! *bit-identical* match decisions (asserted against the flat reference
//! implementation below).
//!
//! Determinism audit (schedule explorer prerequisite): every container is
//! a `Vec`/`VecDeque` — there is no hash map (or other
//! iteration-order-unstable structure) anywhere in the matching path.
//! Cross-queue choices are resolved by unique integer stamps, so iteration
//! order of the channel list cannot influence the result. `Clone` is
//! derived so the explorer can snapshot a destination's matching state at
//! each branch point.

use crate::types::{ChannelSeq, Rank, ReqSlot, SimTime, SrcSpec, Tag, TagSpec};
use std::collections::VecDeque;

/// A message travelling through (or parked at) the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InFlightMsg {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Position of this message on the `(src, dst)` channel.
    pub seq: ChannelSeq,
    /// Rank-local index of the send event that injected the message.
    pub send_event_idx: u32,
    /// Delivery time at the destination.
    pub arrival: SimTime,
    /// True for synchronous (`MPI_Ssend`) messages: the sender is blocked
    /// until this message is matched.
    pub sync: bool,
}

/// How a posted receive completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostKind {
    /// A blocking `MPI_Recv`; the rank is descheduled until it matches.
    Blocking,
    /// A nonblocking `MPI_Irecv` completing into the given request slot.
    Nonblocking(ReqSlot),
}

/// A receive waiting in the posted queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostedRecv {
    /// Source specification.
    pub src: SrcSpec,
    /// Tag specification.
    pub tag: TagSpec,
    /// Rank-local index of the receive's trace event (blocking receives
    /// only; nonblocking completions are emitted at the wait).
    pub event_idx: u32,
    /// Posting ordinal of the receive on its rank (record/replay key).
    pub ordinal: u32,
    /// Blocking or nonblocking completion.
    pub kind: PostKind,
    /// Local time at which the receive was posted.
    pub posted_at: SimTime,
    /// Replay constraint: only the message with this `(src, seq)` may match.
    pub forced: Option<(Rank, ChannelSeq)>,
}

impl PostedRecv {
    /// Does `msg` satisfy this receive (including any replay constraint)?
    #[inline]
    pub fn accepts(&self, msg: &InFlightMsg) -> bool {
        if !self.src.matches(msg.src) || !self.tag.matches(msg.tag) {
            return false;
        }
        match self.forced {
            Some((src, seq)) => msg.src == src && msg.seq == seq,
            None => true,
        }
    }

    /// The only source rank whose messages can satisfy this receive, if
    /// the spec (or a replay constraint) pins one.
    #[inline]
    fn pinned_src(&self) -> Option<Rank> {
        match (self.forced, self.src) {
            // A forced match names its source explicitly; even if the src
            // spec disagrees (which `accepts` would reject anyway), only
            // that channel can possibly produce a match.
            (Some((src, _)), _) => Some(src),
            (None, SrcSpec::Rank(r)) => Some(r),
            (None, SrcSpec::Any) => None,
        }
    }
}

/// A queue entry tagged with its global insertion stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Stamped<T> {
    stamp: u64,
    item: T,
}

/// Per-destination matching state (see module docs for the layout).
#[derive(Debug, Default, Clone)]
pub struct MatchEngine {
    /// Parked messages per source channel, each FIFO in arrival order.
    unexpected: Vec<VecDeque<Stamped<InFlightMsg>>>,
    /// Source channels whose unexpected FIFO may be nonempty (compacted
    /// lazily; membership tracked by `busy`). Scan order over this list is
    /// irrelevant — winners are chosen by stamp minimum.
    busy_chans: Vec<u32>,
    /// `busy[c]` ⇔ channel `c` is present in `busy_chans`.
    busy: Vec<bool>,
    unexpected_count: usize,
    arrival_stamp: u64,
    /// Posted receives with a pinned source, per source channel.
    specific: Vec<VecDeque<Stamped<PostedRecv>>>,
    specific_count: usize,
    /// Posted receives with an unconstrained (`Any`) source.
    wildcard: VecDeque<Stamped<PostedRecv>>,
    post_stamp: u64,
}

impl MatchEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the per-channel tables to cover source rank `src`.
    fn ensure_chan(&mut self, src: Rank) {
        let need = src.index() + 1;
        if self.unexpected.len() < need {
            self.unexpected.resize_with(need, VecDeque::new);
            self.busy.resize(need, false);
            self.specific.resize_with(need, VecDeque::new);
        }
    }

    /// Handle a message arrival. Returns the satisfied receive paired with
    /// the message, or parks the message in the unexpected queue.
    ///
    /// Only two FIFOs can hold an accepting receive: the one specific to
    /// `msg.src` and the wildcard FIFO. The first accepting entry of each
    /// is found by a local scan; the earlier *post stamp* wins — exactly
    /// the receive a front-to-back scan of the flat posted queue would
    /// have selected.
    pub fn on_arrival(&mut self, msg: InFlightMsg) -> Option<(PostedRecv, InFlightMsg)> {
        self.ensure_chan(msg.src);
        let chan = msg.src.index();
        let spec_hit = self.specific[chan]
            .iter()
            .position(|r| r.item.accepts(&msg))
            .map(|pos| (pos, self.specific[chan][pos].stamp));
        let wild_hit = self
            .wildcard
            .iter()
            .position(|r| r.item.accepts(&msg))
            .map(|pos| (pos, self.wildcard[pos].stamp));
        let winner = match (spec_hit, wild_hit) {
            (Some((sp, ss)), Some((_, ws))) if ss < ws => Some((true, sp)),
            (Some(_), Some((wp, _))) => Some((false, wp)),
            (Some((sp, _)), None) => Some((true, sp)),
            (None, Some((wp, _))) => Some((false, wp)),
            (None, None) => None,
        };
        match winner {
            Some((true, pos)) => {
                let recv = self.specific[chan].remove(pos).expect("position in range");
                self.specific_count -= 1;
                Some((recv.item, msg))
            }
            Some((false, pos)) => {
                let recv = self.wildcard.remove(pos).expect("position in range");
                Some((recv.item, msg))
            }
            None => {
                let stamp = self.arrival_stamp;
                self.arrival_stamp += 1;
                self.unexpected[chan].push_back(Stamped { stamp, item: msg });
                self.unexpected_count += 1;
                if !self.busy[chan] {
                    self.busy[chan] = true;
                    self.busy_chans.push(chan as u32);
                }
                None
            }
        }
    }

    /// Handle a newly posted receive. Returns the receive paired with the
    /// matched message, or parks the receive in the posted queue.
    ///
    /// A source-pinned receive inspects only its channel's FIFO; a true
    /// wildcard takes the minimum arrival stamp over the first accepting
    /// message of every busy channel — the message a front-to-back scan
    /// of the flat unexpected queue would have found first.
    pub fn on_post(&mut self, recv: PostedRecv) -> Option<(PostedRecv, InFlightMsg)> {
        let hit = match recv.pinned_src() {
            Some(src) => {
                self.ensure_chan(src);
                let chan = src.index();
                self.unexpected[chan]
                    .iter()
                    .position(|m| recv.accepts(&m.item))
                    .map(|pos| (chan, pos))
            }
            None => self.scan_any(&recv),
        };
        match hit {
            Some((chan, pos)) => {
                let msg = self.unexpected[chan]
                    .remove(pos)
                    .expect("position in range");
                self.unexpected_count -= 1;
                Some((recv, msg.item))
            }
            None => {
                let stamp = self.post_stamp;
                self.post_stamp += 1;
                match recv.pinned_src() {
                    Some(src) => {
                        self.ensure_chan(src);
                        self.specific[src.index()].push_back(Stamped { stamp, item: recv });
                        self.specific_count += 1;
                    }
                    None => self.wildcard.push_back(Stamped { stamp, item: recv }),
                }
                None
            }
        }
    }

    /// First-arrived accepting message across all busy channels, as
    /// `(channel, position)`. Compacts emptied channels out of the busy
    /// list on the way.
    fn scan_any(&mut self, recv: &PostedRecv) -> Option<(usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        let mut i = 0;
        while i < self.busy_chans.len() {
            let chan = self.busy_chans[i] as usize;
            if self.unexpected[chan].is_empty() {
                self.busy[chan] = false;
                self.busy_chans.swap_remove(i);
                continue;
            }
            if let Some(pos) = self.unexpected[chan]
                .iter()
                .position(|m| recv.accepts(&m.item))
            {
                let stamp = self.unexpected[chan][pos].stamp;
                if best.is_none_or(|(bs, _, _)| stamp < bs) {
                    best = Some((stamp, chan, pos));
                }
            }
            i += 1;
        }
        best.map(|(_, chan, pos)| (chan, pos))
    }

    /// Drain parked messages in arrival order (end-of-run diagnostics).
    pub fn drain_unexpected(&mut self) -> impl Iterator<Item = InFlightMsg> + '_ {
        let mut all: Vec<Stamped<InFlightMsg>> = Vec::with_capacity(self.unexpected_count);
        for q in &mut self.unexpected {
            all.extend(q.drain(..));
        }
        all.sort_by_key(|s| s.stamp);
        self.unexpected_count = 0;
        self.busy_chans.clear();
        self.busy.iter_mut().for_each(|b| *b = false);
        all.into_iter().map(|s| s.item)
    }

    /// Iterate over posted-but-unsatisfied receives in post order
    /// (deadlock diagnostics, explorer branch-relevance checks).
    pub fn posted_iter(&self) -> impl Iterator<Item = &PostedRecv> {
        let mut all: Vec<&Stamped<PostedRecv>> = self
            .specific
            .iter()
            .flatten()
            .chain(self.wildcard.iter())
            .collect();
        all.sort_by_key(|s| s.stamp);
        all.into_iter().map(|s| &s.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Number of parked (arrived but unmatched) messages.
    fn unexpected_len(e: &MatchEngine) -> usize {
        e.unexpected_count
    }

    /// Number of posted-but-unsatisfied receives.
    fn posted_len(e: &MatchEngine) -> usize {
        e.specific_count + e.wildcard.len()
    }

    /// The original flat-queue engine, kept verbatim as the differential
    /// oracle: both queues are `VecDeque`s scanned front to back, mid-queue
    /// removal via `remove(pos)`.
    #[derive(Debug, Default, Clone)]
    struct RefEngine {
        unexpected: VecDeque<InFlightMsg>,
        posted: VecDeque<PostedRecv>,
    }

    impl RefEngine {
        fn on_arrival(&mut self, msg: InFlightMsg) -> Option<(PostedRecv, InFlightMsg)> {
            if let Some(pos) = self.posted.iter().position(|r| r.accepts(&msg)) {
                let recv = self.posted.remove(pos).expect("position is in range");
                Some((recv, msg))
            } else {
                self.unexpected.push_back(msg);
                None
            }
        }

        fn on_post(&mut self, recv: PostedRecv) -> Option<(PostedRecv, InFlightMsg)> {
            if let Some(pos) = self.unexpected.iter().position(|m| recv.accepts(m)) {
                let msg = self.unexpected.remove(pos).expect("position is in range");
                Some((recv, msg))
            } else {
                self.posted.push_back(recv);
                None
            }
        }
    }

    fn msg(src: u32, tag: i32, seq: u64, arrival: u64) -> InFlightMsg {
        InFlightMsg {
            src: Rank(src),
            dst: Rank(0),
            tag: Tag(tag),
            bytes: 8,
            seq: ChannelSeq(seq),
            send_event_idx: 0,
            arrival: SimTime(arrival),
            sync: false,
        }
    }

    fn recv(src: SrcSpec, tag: TagSpec) -> PostedRecv {
        PostedRecv {
            src,
            tag,
            event_idx: 0,
            ordinal: 0,
            kind: PostKind::Blocking,
            posted_at: SimTime::ZERO,
            forced: None,
        }
    }

    #[test]
    fn arrival_matches_first_posted() {
        let mut e = MatchEngine::new();
        assert!(e
            .on_post(recv(SrcSpec::Rank(Rank(9)), TagSpec::Any))
            .is_none());
        assert!(e.on_post(recv(SrcSpec::Any, TagSpec::Any)).is_none());
        let (r, m) = e.on_arrival(msg(1, 0, 0, 10)).expect("must match");
        // First posted receive is src-specific and does not accept rank 1;
        // the wildcard (second posted) wins.
        assert_eq!(r.src, SrcSpec::Any);
        assert_eq!(m.src, Rank(1));
        assert_eq!(posted_len(&e), 1);
    }

    #[test]
    fn post_matches_earliest_arrival() {
        let mut e = MatchEngine::new();
        assert!(e.on_arrival(msg(2, 0, 0, 20)).is_none());
        assert!(e.on_arrival(msg(1, 0, 0, 30)).is_none());
        let (_, m) = e
            .on_post(recv(SrcSpec::Any, TagSpec::Any))
            .expect("must match");
        assert_eq!(m.src, Rank(2), "earliest arrival wins");
        assert_eq!(unexpected_len(&e), 1);
    }

    #[test]
    fn tag_filtering() {
        let mut e = MatchEngine::new();
        e.on_arrival(msg(1, 7, 0, 10));
        assert!(e
            .on_post(recv(SrcSpec::Any, TagSpec::Tag(Tag(8))))
            .is_none());
        let got = e.on_post(recv(SrcSpec::Any, TagSpec::Tag(Tag(7))));
        assert!(got.is_some());
    }

    #[test]
    fn forced_match_skips_other_messages() {
        let mut e = MatchEngine::new();
        e.on_arrival(msg(1, 0, 0, 10));
        e.on_arrival(msg(2, 0, 0, 11));
        let mut r = recv(SrcSpec::Any, TagSpec::Any);
        r.forced = Some((Rank(2), ChannelSeq(0)));
        let (_, m) = e.on_post(r).expect("forced message is present");
        assert_eq!(m.src, Rank(2));
        assert_eq!(unexpected_len(&e), 1);
    }

    #[test]
    fn forced_match_blocks_until_target_arrives() {
        let mut e = MatchEngine::new();
        let mut r = recv(SrcSpec::Any, TagSpec::Any);
        r.forced = Some((Rank(2), ChannelSeq(1)));
        assert!(e.on_post(r).is_none());
        // A non-target message parks.
        assert!(e.on_arrival(msg(2, 0, 0, 5)).is_none());
        assert_eq!(unexpected_len(&e), 1);
        // The target matches.
        let got = e.on_arrival(msg(2, 0, 1, 6));
        assert!(got.is_some());
    }

    #[test]
    fn channel_order_preserved_within_channel() {
        // Two messages from the same source; the earlier-arriving (lower
        // seq, by engine clamping) must match the first wildcard receive.
        let mut e = MatchEngine::new();
        e.on_arrival(msg(1, 0, 0, 10));
        e.on_arrival(msg(1, 0, 1, 12));
        let (_, m1) = e.on_post(recv(SrcSpec::Any, TagSpec::Any)).unwrap();
        let (_, m2) = e.on_post(recv(SrcSpec::Any, TagSpec::Any)).unwrap();
        assert_eq!(m1.seq, ChannelSeq(0));
        assert_eq!(m2.seq, ChannelSeq(1));
    }

    #[test]
    fn drain_unexpected_reports_leftovers() {
        let mut e = MatchEngine::new();
        e.on_arrival(msg(1, 0, 0, 10));
        e.on_arrival(msg(2, 0, 0, 11));
        let left: Vec<_> = e.drain_unexpected().collect();
        assert_eq!(left.len(), 2);
        // Drain preserves arrival order across channels.
        assert_eq!((left[0].src, left[1].src), (Rank(1), Rank(2)));
        assert_eq!(unexpected_len(&e), 0);
    }

    #[test]
    fn mid_queue_removal_preserves_scan_order() {
        // Regression for the determinism audit: consuming an element from
        // the middle of either queue must leave the remaining elements in
        // their original relative order, or replay and exploration would
        // silently diverge from free runs.
        let mut e = MatchEngine::new();
        e.on_arrival(msg(1, 1, 0, 10));
        e.on_arrival(msg(2, 2, 0, 11));
        e.on_arrival(msg(3, 3, 0, 12));
        // Take the middle message (tag 2) out of the unexpected queue…
        let (_, m) = e.on_post(recv(SrcSpec::Any, TagSpec::Tag(Tag(2)))).unwrap();
        assert_eq!(m.src, Rank(2));
        // …then wildcard posts must still see 1 before 3.
        let (_, a) = e.on_post(recv(SrcSpec::Any, TagSpec::Any)).unwrap();
        let (_, b) = e.on_post(recv(SrcSpec::Any, TagSpec::Any)).unwrap();
        assert_eq!((a.src, b.src), (Rank(1), Rank(3)));

        // Same property for the posted queue: match the middle receive…
        let mut e = MatchEngine::new();
        assert!(e
            .on_post(recv(SrcSpec::Rank(Rank(1)), TagSpec::Any))
            .is_none());
        assert!(e
            .on_post(recv(SrcSpec::Rank(Rank(2)), TagSpec::Any))
            .is_none());
        assert!(e.on_post(recv(SrcSpec::Any, TagSpec::Any)).is_none());
        let (r, _) = e.on_arrival(msg(2, 0, 0, 5)).unwrap();
        assert_eq!(r.src, SrcSpec::Rank(Rank(2)));
        // …and an untargeted message must still prefer the earlier post.
        let (r, _) = e.on_arrival(msg(1, 0, 0, 6)).unwrap();
        assert_eq!(r.src, SrcSpec::Rank(Rank(1)));
        assert_eq!(posted_len(&e), 1);
    }

    #[test]
    fn cloned_engine_is_independent_and_identical() {
        let mut e = MatchEngine::new();
        e.on_arrival(msg(1, 0, 0, 10));
        assert!(e
            .on_post(recv(SrcSpec::Any, TagSpec::Tag(Tag(9))))
            .is_none());
        let mut snap = e.clone();
        assert_eq!(unexpected_len(&snap), unexpected_len(&e));
        assert_eq!(posted_len(&snap), posted_len(&e));
        // Mutating the clone leaves the original untouched.
        let got = snap.on_post(recv(SrcSpec::Any, TagSpec::Any));
        assert!(got.is_some());
        assert_eq!(unexpected_len(&snap), 0);
        assert_eq!(unexpected_len(&e), 1);
    }

    #[test]
    fn accepts_respects_src_and_tag_and_force() {
        let m = msg(3, 5, 2, 0);
        let mut r = recv(SrcSpec::Rank(Rank(3)), TagSpec::Tag(Tag(5)));
        assert!(r.accepts(&m));
        r.forced = Some((Rank(3), ChannelSeq(2)));
        assert!(r.accepts(&m));
        r.forced = Some((Rank(3), ChannelSeq(3)));
        assert!(!r.accepts(&m));
        let r2 = recv(SrcSpec::Rank(Rank(4)), TagSpec::Any);
        assert!(!r2.accepts(&m));
    }

    #[test]
    fn posted_iter_is_in_post_order_across_queues() {
        let mut e = MatchEngine::new();
        assert!(e
            .on_post(recv(SrcSpec::Rank(Rank(5)), TagSpec::Any))
            .is_none());
        assert!(e
            .on_post(recv(SrcSpec::Any, TagSpec::Tag(Tag(1))))
            .is_none());
        assert!(e
            .on_post(recv(SrcSpec::Rank(Rank(2)), TagSpec::Any))
            .is_none());
        let srcs: Vec<SrcSpec> = e.posted_iter().map(|p| p.src).collect();
        assert_eq!(
            srcs,
            vec![SrcSpec::Rank(Rank(5)), SrcSpec::Any, SrcSpec::Rank(Rank(2))]
        );
    }

    #[test]
    fn deep_queue_wildcard_posts_preserve_cross_channel_arrival_order() {
        // Deep-queue regression: hundreds of parked messages across many
        // channels; wildcard posts must consume them in exact global
        // arrival order, not per-channel round-robin order.
        let mut e = MatchEngine::new();
        let mut expect = Vec::new();
        // Interleave arrivals: channels 0..16, 16 messages each, in a
        // fixed but scrambled channel pattern.
        let mut seqs = [0u64; 16];
        for i in 0..256u64 {
            let src = ((i * 7) % 16) as u32;
            let seq = seqs[src as usize];
            seqs[src as usize] += 1;
            assert!(e.on_arrival(msg(src, 0, seq, i)).is_none());
            expect.push((Rank(src), ChannelSeq(seq)));
        }
        assert_eq!(unexpected_len(&e), 256);
        for (i, (src, seq)) in expect.iter().enumerate() {
            let (_, m) = e
                .on_post(recv(SrcSpec::Any, TagSpec::Any))
                .unwrap_or_else(|| panic!("post {i} must match"));
            assert_eq!((m.src, m.seq), (*src, *seq), "post {i}");
        }
        assert_eq!(unexpected_len(&e), 0);
    }

    #[test]
    fn deep_queue_arrivals_prefer_earliest_post_across_queues() {
        // Deep posted queues: alternate specific and wildcard receives,
        // then deliver; each arrival must take the earliest-posted
        // accepting receive regardless of which FIFO it sits in.
        let mut e = MatchEngine::new();
        // posts: [Rank(1), Any, Rank(1), Any, ...] × 64
        for _ in 0..64 {
            assert!(e
                .on_post(recv(SrcSpec::Rank(Rank(1)), TagSpec::Any))
                .is_none());
            assert!(e.on_post(recv(SrcSpec::Any, TagSpec::Any)).is_none());
        }
        // Messages from rank 1 alternate between the specific and the
        // wildcard queue, in post order.
        for i in 0..128u64 {
            let (r, _) = e.on_arrival(msg(1, 0, i, i)).expect("must match");
            let want = if i % 2 == 0 {
                SrcSpec::Rank(Rank(1))
            } else {
                SrcSpec::Any
            };
            assert_eq!(r.src, want, "arrival {i}");
        }
        assert_eq!(posted_len(&e), 0);
    }

    /// Random op-sequence differential test: the per-channel engine must
    /// produce byte-identical match decisions to the flat reference
    /// engine, including queue contents at every step.
    #[test]
    fn differential_vs_flat_reference_engine() {
        for trial in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ trial);
            let mut fast = MatchEngine::new();
            let mut slow = RefEngine::default();
            let world = 1 + (trial % 9) as u32; // 1..=9 source ranks
            let mut chan_seq = vec![0u64; world as usize];
            let mut parked: Vec<InFlightMsg> = Vec::new(); // oracle for force targets
            for step in 0..400u64 {
                if rng.gen_range(0..2) == 0 {
                    let src = rng.gen_range(0..world);
                    let tag = rng.gen_range(0..3);
                    let seq = chan_seq[src as usize];
                    chan_seq[src as usize] += 1;
                    let m = msg(src, tag, seq, step);
                    let a = fast.on_arrival(m.clone());
                    let b = slow.on_arrival(m.clone());
                    assert_eq!(a, b, "trial {trial} step {step}: arrival diverged");
                    if a.is_none() {
                        parked.push(m);
                    } else {
                        parked.retain(|p| !(p.src == m.src && p.seq == m.seq));
                    }
                } else {
                    let src = match rng.gen_range(0..3) {
                        0 => SrcSpec::Any,
                        _ => SrcSpec::Rank(Rank(rng.gen_range(0..world))),
                    };
                    let tag = match rng.gen_range(0..3) {
                        0 => TagSpec::Any,
                        _ => TagSpec::Tag(Tag(rng.gen_range(0..3))),
                    };
                    let mut r = recv(src, tag);
                    // Occasionally force a match onto a parked message.
                    if rng.gen_range(0..8) == 0 && !parked.is_empty() {
                        let target = &parked[rng.gen_range(0..parked.len())];
                        r.forced = Some((target.src, target.seq));
                    }
                    let a = fast.on_post(r.clone());
                    let b = slow.on_post(r);
                    assert_eq!(a, b, "trial {trial} step {step}: post diverged");
                    if let Some((_, m)) = &a {
                        parked.retain(|p| !(p.src == m.src && p.seq == m.seq));
                    }
                }
                assert_eq!(unexpected_len(&fast), slow.unexpected.len());
                assert_eq!(posted_len(&fast), slow.posted.len());
            }
            // Terminal states agree element-for-element, in order.
            let fast_left: Vec<_> = fast.drain_unexpected().collect();
            let slow_left: Vec<_> = slow.unexpected.drain(..).collect();
            assert_eq!(fast_left, slow_left, "trial {trial}: leftover messages");
            let fast_posted: Vec<_> = fast.posted_iter().cloned().collect();
            let slow_posted: Vec<_> = slow.posted.iter().cloned().collect();
            assert_eq!(fast_posted, slow_posted, "trial {trial}: leftover receives");
        }
    }
}
