//! Execution traces: the simulator's output and the analysis input.
//!
//! A [`Trace`] records, per rank and in program order, one event for every
//! MPI call that the paper's event graphs model: `Init`, `Send`, `Recv`,
//! and `Finalize`. Receive events carry the identity of the send event they
//! matched, so the event-graph builder can add message edges without
//! re-running the matcher.

use crate::stack::{CallStackId, CallStackTable};
use crate::types::{ChannelSeq, Rank, SimTime, Tag};
use anacin_obs::tracer::RECORD_BATCH;
use anacin_obs::{message_id, SimEvent, SimEventKind, TraceRecord, Tracer};
use serde::{Deserialize, Serialize};

/// Global identity of an event: `(rank, rank-local index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId {
    /// Rank the event occurred on.
    pub rank: Rank,
    /// Index of the event within the rank's trace (program order).
    pub idx: u32,
}

impl EventId {
    /// Construct an event id.
    pub fn new(rank: Rank, idx: u32) -> Self {
        EventId { rank, idx }
    }
}

/// What happened at an event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The rank entered the job (`MPI_Init`).
    Init,
    /// The rank left the job (`MPI_Finalize`).
    Finalize,
    /// The rank injected a message.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size in bytes.
        bytes: u64,
        /// Position on the `(self, dst)` channel.
        seq: ChannelSeq,
    },
    /// The rank completed a receive.
    Recv {
        /// The matched sender.
        src: Rank,
        /// Tag of the matched message.
        tag: Tag,
        /// Payload size in bytes.
        bytes: u64,
        /// The send event that produced the matched message.
        send_event: EventId,
        /// Channel sequence number of the matched message.
        seq: ChannelSeq,
        /// True when the receive was posted with a source or tag wildcard —
        /// the class of receive that admits races.
        wildcard: bool,
        /// The posting ordinal of the receive on its rank. Nonblocking
        /// receives appear in the trace at the wait that completes them,
        /// so event order need not equal posting order; record/replay is
        /// keyed by this ordinal.
        post_ordinal: u32,
    },
}

impl EventKind {
    /// A short mnemonic: "init", "send", "recv", "finalize".
    pub fn mnemonic(&self) -> &'static str {
        match self {
            EventKind::Init => "init",
            EventKind::Finalize => "finalize",
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
        }
    }

    /// True for send events.
    pub fn is_send(&self) -> bool {
        matches!(self, EventKind::Send { .. })
    }

    /// True for receive events.
    pub fn is_recv(&self) -> bool {
        matches!(self, EventKind::Recv { .. })
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Simulated completion time of the event.
    pub time: SimTime,
    /// Call path that issued the operation.
    pub stack: CallStackId,
}

/// Summary metadata for a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// RNG seed of the run.
    pub seed: u64,
    /// The non-determinism fraction the network was configured with.
    pub nd_fraction: f64,
    /// Number of compute nodes simulated.
    pub nodes: u32,
    /// Simulated makespan (latest event time).
    pub makespan: SimTime,
    /// Total messages delivered.
    pub messages: u64,
    /// Messages that were never received (normally zero).
    pub unmatched_messages: u64,
}

/// A complete execution trace.
///
/// Events live in one rank-major *arena*: a single flat allocation sliced
/// per rank by an offsets table. At HPC scale (1024 ranks × tens of
/// millions of events) this replaces one heap allocation per rank with
/// one for the whole trace, keeps rank iteration cache-linear, and lets
/// downstream consumers (graph construction, feature extraction) stream
/// the trace without any `Vec<Vec<_>>` intermediate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    world_size: u32,
    /// All events, rank-major: rank `r`'s events in program order occupy
    /// `events[offsets[r] .. offsets[r + 1]]`.
    events: Vec<TraceEvent>,
    /// Per-rank extents into `events`; `world_size + 1` entries.
    offsets: Vec<u64>,
    stacks: CallStackTable,
    /// Run metadata.
    pub meta: TraceMeta,
}

impl Trace {
    /// Assemble a trace from per-rank event lists (used by the engine).
    /// Each inner vector is consumed — and its allocation released —
    /// as soon as it has been copied into the arena, so peak memory stays
    /// bounded by the arena plus the not-yet-drained tail.
    pub(crate) fn new(
        world_size: u32,
        events: Vec<Vec<TraceEvent>>,
        stacks: CallStackTable,
        meta: TraceMeta,
    ) -> Self {
        debug_assert_eq!(events.len(), world_size as usize);
        let total: usize = events.iter().map(Vec::len).sum();
        let mut flat = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(world_size as usize + 1);
        offsets.push(0u64);
        for rank_events in events {
            debug_assert!(
                rank_events.len() <= u32::MAX as usize,
                "per-rank event count exceeds the u32 EventId space"
            );
            flat.extend(rank_events);
            offsets.push(flat.len() as u64);
        }
        Trace {
            world_size,
            events: flat,
            offsets,
            stacks,
            meta,
        }
    }

    /// Assemble a trace directly from an arena and offsets table (used by
    /// the artifact decoder, which reads events in rank-major order and
    /// can therefore fill the arena with no per-rank staging).
    pub(crate) fn from_flat(
        world_size: u32,
        events: Vec<TraceEvent>,
        offsets: Vec<u64>,
        stacks: CallStackTable,
        meta: TraceMeta,
    ) -> Self {
        debug_assert_eq!(offsets.len(), world_size as usize + 1);
        debug_assert_eq!(*offsets.first().unwrap_or(&1), 0);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), events.len() as u64);
        debug_assert!(offsets
            .windows(2)
            .all(|w| { w[0] <= w[1] && w[1] - w[0] <= u32::MAX as u64 }));
        Trace {
            world_size,
            events,
            offsets,
            stacks,
            meta,
        }
    }

    /// Number of ranks.
    pub fn world_size(&self) -> u32 {
        self.world_size
    }

    /// Rank `r`'s events in program order.
    pub fn rank_events(&self, rank: Rank) -> &[TraceEvent] {
        let lo = self.offsets[rank.index()] as usize;
        let hi = self.offsets[rank.index() + 1] as usize;
        &self.events[lo..hi]
    }

    /// Look up an event by id.
    pub fn event(&self, id: EventId) -> &TraceEvent {
        &self.rank_events(id.rank)[id.idx as usize]
    }

    /// The interned call-path table.
    pub fn stacks(&self) -> &CallStackTable {
        &self.stacks
    }

    /// Total number of events.
    pub fn total_events(&self) -> usize {
        self.events.len()
    }

    /// Iterate over all events as `(id, event)` pairs, rank-major.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &TraceEvent)> {
        (0..self.world_size).flat_map(move |r| {
            let rank = Rank(r);
            self.rank_events(rank)
                .iter()
                .enumerate()
                .map(move |(i, e)| {
                    (
                        EventId {
                            rank,
                            idx: i as u32,
                        },
                        e,
                    )
                })
        })
    }

    /// The sequence of matched sources for each receive on `rank`, in
    /// program order — the "match order" that differs across
    /// non-deterministic runs.
    pub fn match_order(&self, rank: Rank) -> Vec<Rank> {
        self.rank_events(rank)
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Recv { src, .. } => Some(src),
                _ => None,
            })
            .collect()
    }

    /// Count of receive events that were posted with a wildcard.
    pub fn wildcard_recv_count(&self) -> usize {
        self.iter()
            .filter(|(_, e)| matches!(e.kind, EventKind::Recv { wildcard: true, .. }))
            .count()
    }

    /// Emit every event of this trace onto `tracer` as simulated-time
    /// timeline records, tagged with the campaign run index `run` (the
    /// seed is taken from [`TraceMeta`]). Matched sends and receives
    /// share an [`message_id`] derived from `(run, src, dst, channel
    /// seq)`, computable independently on either side, so exporters can
    /// draw inter-rank message arrows.
    ///
    /// Events go to the tracer in batches of [`RECORD_BATCH`]; while the
    /// tracer's channel is full this waits, so no event is dropped. It
    /// reads a *finished* trace — it runs after the simulation has
    /// completed, so tracing cannot perturb simulated time or the
    /// injection RNG by construction.
    pub fn record_into(&self, tracer: &Tracer, run: u32) {
        let mut batch = Vec::with_capacity(RECORD_BATCH.min(self.total_events()));
        for (id, e) in self.iter() {
            let kind = match e.kind {
                EventKind::Init => SimEventKind::Init,
                EventKind::Finalize => SimEventKind::Finalize,
                EventKind::Send { dst, seq, .. } => SimEventKind::Send {
                    msg_id: message_id(run, id.rank.0, dst.0, seq.0),
                },
                EventKind::Recv {
                    src, seq, wildcard, ..
                } => SimEventKind::Recv {
                    msg_id: message_id(run, src.0, id.rank.0, seq.0),
                    wildcard,
                },
            };
            batch.push(TraceRecord::Sim(SimEvent {
                run,
                seed: self.meta.seed,
                rank: id.rank.0,
                idx: id.idx,
                kind,
                t_ns: e.time.nanos(),
            }));
            if batch.len() == RECORD_BATCH {
                tracer.record_batch(std::mem::replace(
                    &mut batch,
                    Vec::with_capacity(RECORD_BATCH),
                ));
            }
        }
        tracer.record_batch(batch);
    }

    /// Check internal consistency: every receive's `send_event` must point
    /// at a send with matching destination, tag and seq. Returns the number
    /// of receive events verified.
    pub fn validate(&self) -> Result<usize, String> {
        let mut checked = 0;
        for (id, e) in self.iter() {
            if let EventKind::Recv {
                src,
                tag,
                send_event,
                seq,
                ..
            } = e.kind
            {
                if send_event.rank != src {
                    return Err(format!(
                        "recv {id:?} claims src {src} but send event is on {}",
                        send_event.rank
                    ));
                }
                let se = (send_event.rank.index() < self.world_size as usize)
                    .then(|| self.rank_events(send_event.rank))
                    .and_then(|v| v.get(send_event.idx as usize))
                    .ok_or_else(|| format!("recv {id:?} references missing send {send_event:?}"))?;
                match se.kind {
                    EventKind::Send {
                        dst,
                        tag: stag,
                        seq: sseq,
                        ..
                    } => {
                        if dst != id.rank || stag != tag || sseq != seq {
                            return Err(format!(
                                "recv {id:?} does not correspond to send {send_event:?}"
                            ));
                        }
                    }
                    _ => {
                        return Err(format!(
                            "recv {id:?} references non-send event {send_event:?}"
                        ))
                    }
                }
                checked += 1;
            }
        }
        Ok(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        // rank 0: init, send(->1), finalize ; rank 1: init, recv(<-0), finalize
        let stacks = CallStackTable::new();
        let r0 = vec![
            TraceEvent {
                kind: EventKind::Init,
                time: SimTime(0),
                stack: CallStackId::UNKNOWN,
            },
            TraceEvent {
                kind: EventKind::Send {
                    dst: Rank(1),
                    tag: Tag(0),
                    bytes: 8,
                    seq: ChannelSeq(0),
                },
                time: SimTime(10),
                stack: CallStackId::UNKNOWN,
            },
            TraceEvent {
                kind: EventKind::Finalize,
                time: SimTime(20),
                stack: CallStackId::UNKNOWN,
            },
        ];
        let r1 = vec![
            TraceEvent {
                kind: EventKind::Init,
                time: SimTime(0),
                stack: CallStackId::UNKNOWN,
            },
            TraceEvent {
                kind: EventKind::Recv {
                    src: Rank(0),
                    tag: Tag(0),
                    bytes: 8,
                    send_event: EventId::new(Rank(0), 1),
                    seq: ChannelSeq(0),
                    wildcard: true,
                    post_ordinal: 0,
                },
                time: SimTime(15),
                stack: CallStackId::UNKNOWN,
            },
            TraceEvent {
                kind: EventKind::Finalize,
                time: SimTime(25),
                stack: CallStackId::UNKNOWN,
            },
        ];
        Trace::new(
            2,
            vec![r0, r1],
            stacks,
            TraceMeta {
                seed: 0,
                nd_fraction: 0.0,
                nodes: 1,
                makespan: SimTime(25),
                messages: 1,
                unmatched_messages: 0,
            },
        )
    }

    #[test]
    fn accessors() {
        let t = tiny_trace();
        assert_eq!(t.world_size(), 2);
        assert_eq!(t.total_events(), 6);
        assert_eq!(t.rank_events(Rank(0)).len(), 3);
        assert_eq!(t.event(EventId::new(Rank(1), 1)).kind.mnemonic(), "recv");
        assert_eq!(t.wildcard_recv_count(), 1);
        assert_eq!(t.match_order(Rank(1)), vec![Rank(0)]);
        assert_eq!(t.match_order(Rank(0)), Vec::<Rank>::new());
    }

    #[test]
    fn iter_yields_ids_in_rank_major_order() {
        let t = tiny_trace();
        let ids: Vec<_> = t.iter().map(|(id, _)| (id.rank.0, id.idx)).collect();
        assert_eq!(ids, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn validate_accepts_consistent_trace() {
        assert_eq!(tiny_trace().validate(), Ok(1));
    }

    #[test]
    fn validate_rejects_wrong_linkage() {
        let mut t = tiny_trace();
        // Corrupt the recv (rank 1, idx 1 — arena slot offsets[1] + 1) to
        // point at the finalize event.
        let slot = t.offsets[1] as usize + 1;
        if let EventKind::Recv { send_event, .. } = &mut t.events[slot].kind {
            *send_event = EventId::new(Rank(0), 2);
        }
        assert!(t.validate().is_err());
    }

    #[test]
    fn record_into_emits_every_event_with_shared_message_ids() {
        let t = tiny_trace();
        let sink = anacin_obs::MemorySink::new();
        let tracer = Tracer::new(sink.clone());
        t.record_into(&tracer, 3);
        assert_eq!(tracer.finish().unwrap(), t.total_events() as u64);
        let snap = sink.snapshot();
        assert_eq!(snap.sim.len(), t.total_events());
        assert!(snap.sim.iter().all(|e| e.run == 3 && e.seed == t.meta.seed));
        let send_id = snap
            .sim
            .iter()
            .find_map(|e| match e.kind {
                SimEventKind::Send { msg_id } => Some(msg_id),
                _ => None,
            })
            .expect("send recorded");
        let (recv_id, wildcard) = snap
            .sim
            .iter()
            .find_map(|e| match e.kind {
                SimEventKind::Recv { msg_id, wildcard } => Some((msg_id, wildcard)),
                _ => None,
            })
            .expect("recv recorded");
        assert_eq!(send_id, recv_id, "matched pair shares a message id");
        assert!(wildcard);
        // Simulated timestamps carry over unchanged.
        let send_ev = snap
            .sim
            .iter()
            .find(|e| matches!(e.kind, SimEventKind::Send { .. }))
            .unwrap();
        assert_eq!(send_ev.t_ns, 10);
    }

    #[test]
    fn event_kind_helpers() {
        let t = tiny_trace();
        assert!(t.event(EventId::new(Rank(0), 1)).kind.is_send());
        assert!(t.event(EventId::new(Rank(1), 1)).kind.is_recv());
        assert!(!t.event(EventId::new(Rank(0), 0)).kind.is_send());
    }
}
