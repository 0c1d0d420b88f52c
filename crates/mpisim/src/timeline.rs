//! Per-rank activity timelines derived from a trace.
//!
//! A coarse Gantt view of an execution: for each rank, the simulated-time
//! segments leading up to each event, labelled by what the rank was
//! progressing towards. Waiting on a receive shows up as long `Recv`
//! segments — the visual footprint of message delays, and a favourite
//! course visual ("where did my run's time go, and why does it differ
//! between runs?").

use crate::trace::{EventKind, Trace};
use crate::types::{Rank, SimTime};
use serde::{Deserialize, Serialize};

/// The activity classes of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activity {
    /// Progressing towards a send (local work + send overheads).
    Sending,
    /// Progressing towards a receive completion (may include blocking).
    Receiving,
    /// Trailing segment up to finalize.
    WindingDown,
}

impl Activity {
    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Activity::Sending => "send",
            Activity::Receiving => "recv",
            Activity::WindingDown => "finalize",
        }
    }
}

/// One timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (the event's completion time).
    pub end: SimTime,
    /// What the rank was doing.
    pub activity: Activity,
}

impl Segment {
    /// Segment duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.nanos().saturating_sub(self.start.nanos())
    }
}

/// Timelines for every rank of a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timeline {
    /// `segments[r]` is rank r's segments in time order.
    pub segments: Vec<Vec<Segment>>,
    /// The run's makespan.
    pub makespan: SimTime,
}

impl Timeline {
    /// Build the timeline of a trace.
    pub fn of(trace: &Trace) -> Timeline {
        let mut segments = Vec::with_capacity(trace.world_size() as usize);
        for r in 0..trace.world_size() {
            let mut segs = Vec::new();
            let mut cursor = SimTime::ZERO;
            for ev in trace.rank_events(Rank(r)) {
                let activity = match ev.kind {
                    EventKind::Init => continue,
                    EventKind::Send { .. } => Activity::Sending,
                    EventKind::Recv { .. } => Activity::Receiving,
                    EventKind::Finalize => Activity::WindingDown,
                };
                // Clamp: wait-emitted receive events may carry completion
                // times earlier than the preceding event's time.
                let end = ev.time.max(cursor);
                segs.push(Segment {
                    start: cursor,
                    end,
                    activity,
                });
                cursor = end;
            }
            segments.push(segs);
        }
        Timeline {
            segments,
            makespan: trace.meta.makespan,
        }
    }

    /// Total nanoseconds rank `r` spent in each activity class, returned
    /// as `(sending, receiving, winding_down)`.
    pub fn totals(&self, rank: Rank) -> (u64, u64, u64) {
        let mut s = (0, 0, 0);
        for seg in &self.segments[rank.index()] {
            match seg.activity {
                Activity::Sending => s.0 += seg.duration(),
                Activity::Receiving => s.1 += seg.duration(),
                Activity::WindingDown => s.2 += seg.duration(),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn pingpong_timeline() -> Timeline {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0))
            .compute(1000)
            .send(Rank(1), Tag(0), 8)
            .recv(Rank(1), Tag(1).into());
        b.rank(Rank(1))
            .recv(Rank(0), Tag(0).into())
            .send(Rank(0), Tag(1), 8);
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        Timeline::of(&t)
    }

    #[test]
    fn segments_are_contiguous_and_monotone() {
        let tl = pingpong_timeline();
        for segs in &tl.segments {
            let mut cursor = SimTime::ZERO;
            for s in segs {
                assert_eq!(s.start, cursor);
                assert!(s.end >= s.start);
                cursor = s.end;
            }
        }
    }

    #[test]
    fn blocked_receiver_accumulates_receiving_time() {
        let tl = pingpong_timeline();
        // Rank 1 waits for rank 0's compute(1000) + latency before its recv.
        let (_, recv_ns, _) = tl.totals(Rank(1));
        assert!(recv_ns >= 1000, "recv time {recv_ns}");
    }

    #[test]
    fn activity_labels() {
        assert_eq!(Activity::Sending.label(), "send");
        assert_eq!(Activity::Receiving.label(), "recv");
        assert_eq!(Activity::WindingDown.label(), "finalize");
    }

    #[test]
    fn timeline_covers_makespan() {
        let tl = pingpong_timeline();
        let last_end = tl
            .segments
            .iter()
            .filter_map(|s| s.last())
            .map(|s| s.end)
            .max()
            .unwrap();
        assert_eq!(last_end, tl.makespan);
    }

    #[test]
    fn compute_only_rank() {
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(0)).compute(500);
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        let tl = Timeline::of(&t);
        assert_eq!(tl.segments[0].len(), 1);
        assert_eq!(tl.segments[0][0].activity, Activity::WindingDown);
        assert_eq!(tl.segments[0][0].duration(), 500);
    }
}
