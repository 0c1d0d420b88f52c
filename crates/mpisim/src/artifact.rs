//! Store codec for [`Trace`]: the `anacin_store::Artifact`
//! implementation.
//!
//! Lives in this crate (not `crates/store`) because trace assembly is
//! `pub(crate)`: the decoder rebuilds a [`Trace`] through
//! `Trace::new`, and the call-stack table through its public interning
//! API — ids are assigned densely in interning order, so re-interning the
//! stored paths in table order reproduces every id exactly.
//!
//! The encoding is canonical: a trace has exactly one byte representation
//! (event lists are already ordered; the stack table is written in id
//! order), which is what lets warm store reads be bit-identical to cold
//! recomputation.

use crate::stack::{CallStack, CallStackId, CallStackTable};
use crate::trace::{EventId, EventKind, Trace, TraceEvent, TraceMeta};
use crate::types::{ChannelSeq, Rank, SimTime, Tag};
use anacin_store::{Artifact, ArtifactKind, ByteReader, ByteWriter, WireError};

const TAG_INIT: u8 = 0;
const TAG_FINALIZE: u8 = 1;
const TAG_SEND: u8 = 2;
const TAG_RECV: u8 = 3;

fn encode_event(e: &TraceEvent, w: &mut ByteWriter) {
    match &e.kind {
        EventKind::Init => w.u8(TAG_INIT),
        EventKind::Finalize => w.u8(TAG_FINALIZE),
        EventKind::Send {
            dst,
            tag,
            bytes,
            seq,
        } => {
            w.u8(TAG_SEND);
            w.u32(dst.0);
            w.i32(tag.0);
            w.u64(*bytes);
            w.u64(seq.0);
        }
        EventKind::Recv {
            src,
            tag,
            bytes,
            send_event,
            seq,
            wildcard,
            post_ordinal,
        } => {
            w.u8(TAG_RECV);
            w.u32(src.0);
            w.i32(tag.0);
            w.u64(*bytes);
            w.u32(send_event.rank.0);
            w.u32(send_event.idx);
            w.u64(seq.0);
            w.bool(*wildcard);
            w.u32(*post_ordinal);
        }
    }
    w.u64(e.time.0);
    w.u32(e.stack.0);
}

fn decode_event(r: &mut ByteReader<'_>) -> Result<TraceEvent, WireError> {
    let kind = match r.u8()? {
        TAG_INIT => EventKind::Init,
        TAG_FINALIZE => EventKind::Finalize,
        TAG_SEND => EventKind::Send {
            dst: Rank(r.u32()?),
            tag: Tag(r.i32()?),
            bytes: r.u64()?,
            seq: ChannelSeq(r.u64()?),
        },
        TAG_RECV => EventKind::Recv {
            src: Rank(r.u32()?),
            tag: Tag(r.i32()?),
            bytes: r.u64()?,
            send_event: EventId::new(Rank(r.u32()?), r.u32()?),
            seq: ChannelSeq(r.u64()?),
            wildcard: r.bool()?,
            post_ordinal: r.u32()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    Ok(TraceEvent {
        kind,
        time: SimTime(r.u64()?),
        stack: CallStackId(r.u32()?),
    })
}

impl Artifact for Trace {
    const KIND: ArtifactKind = ArtifactKind::Trace;

    fn encode_into(&self, w: &mut ByteWriter) {
        w.u32(self.world_size());
        // Stack table in id order; id 0 is always the unknown path.
        let stacks = self.stacks();
        w.seq_len(stacks.len());
        for (_, stack) in stacks.iter() {
            w.seq_len(stack.depth());
            for frame in stack.frames() {
                w.str(frame);
            }
        }
        for rank in 0..self.world_size() {
            let events = self.rank_events(Rank(rank));
            w.seq_len(events.len());
            for e in events {
                encode_event(e, w);
            }
        }
        let m = &self.meta;
        w.u64(m.seed);
        w.f64(m.nd_fraction);
        w.u32(m.nodes);
        w.u64(m.makespan.0);
        w.u64(m.messages);
        w.u64(m.unmatched_messages);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let world_size = r.u32()?;
        let n_stacks = r.seq_len(8)?;
        let mut stacks = CallStackTable::new();
        for i in 0..n_stacks {
            let depth = r.seq_len(8)?;
            let mut frames = Vec::with_capacity(depth);
            for _ in 0..depth {
                frames.push(r.str()?);
            }
            let id = stacks.intern(CallStack::new(frames));
            if id.index() != i {
                // A valid encoding writes a dense, duplicate-free table;
                // anything else is payload damage the checksum missed.
                return Err(WireError::BadTag(id.0 as u8));
            }
        }
        // The wire layout is rank-major, so the arena can be filled
        // directly — no per-rank `Vec<Vec<_>>` staging.
        let mut events = Vec::new();
        let mut offsets = Vec::with_capacity(world_size as usize + 1);
        offsets.push(0u64);
        for _ in 0..world_size {
            let n = r.seq_len(13)?;
            events.reserve(n);
            for _ in 0..n {
                events.push(decode_event(r)?);
            }
            offsets.push(events.len() as u64);
        }
        let meta = TraceMeta {
            seed: r.u64()?,
            nd_fraction: r.f64()?,
            nodes: r.u32()?,
            makespan: SimTime(r.u64()?),
            messages: r.u64()?,
            unmatched_messages: r.u64()?,
        };
        Ok(Trace::from_flat(world_size, events, offsets, stacks, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::program::ProgramBuilder;
    use crate::types::TagSpec;

    fn traced_run(seed: u64) -> Trace {
        let mut b = ProgramBuilder::new(4);
        for r in 1..4 {
            b.rank(Rank(r)).scoped("exchange", |rb| {
                rb.send(Rank(0), Tag(0), 64);
            });
        }
        for _ in 1..4 {
            b.rank(Rank(0)).scoped("collect", |rb| {
                rb.recv_any(TagSpec::Any);
            });
        }
        simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap()
    }

    #[test]
    fn trace_round_trips_bit_exactly() {
        for seed in 0..5 {
            let t = traced_run(seed);
            let bytes = t.to_wire();
            let back = Trace::from_wire(&bytes).unwrap();
            assert_eq!(back, t, "seed {seed}");
            // Canonical: re-encoding the decode yields identical bytes.
            assert_eq!(back.to_wire(), bytes, "seed {seed}");
        }
    }

    #[test]
    fn decoded_trace_table_reinterns_to_same_ids() {
        let t = traced_run(1);
        let back = Trace::from_wire(&t.to_wire()).unwrap();
        // Every stored id resolves to the same path as in the original.
        for (id, stack) in t.stacks().iter() {
            assert_eq!(back.stacks().resolve(id), stack);
        }
        // The decoded table's lookup index is live: re-interning an
        // existing path returns its original id without growing the table.
        let (last_id, last_stack) = t.stacks().iter().last().unwrap();
        let last_stack = last_stack.clone();
        let mut table = back.stacks().clone();
        let before = table.len();
        assert_eq!(table.intern(last_stack), last_id);
        assert_eq!(table.len(), before);
    }

    #[test]
    fn truncated_trace_fails_to_decode() {
        let t = traced_run(0);
        let bytes = t.to_wire();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Trace::from_wire(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn validate_passes_after_round_trip() {
        let t = traced_run(3);
        let back = Trace::from_wire(&t.to_wire()).unwrap();
        assert_eq!(back.validate(), t.validate());
        assert_eq!(back.match_order(Rank(0)), t.match_order(Rank(0)));
    }
}
