//! Trace sinks: where a [`crate::Tracer`]'s writer thread puts records.
//!
//! A [`TraceSink`] consumes [`TraceRecord`]s one at a time, in the order
//! the writer thread receives them, so a campaign's trace goes to disk
//! *during* the run instead of accumulating in memory — the difference
//! between tracing working and not working at 1024 ranks / tens of
//! millions of events.
//!
//! Two file formats, both read back by [`crate::view`]:
//!
//! * [`ChromeJsonSink`] — Chrome Trace Event JSON (Perfetto /
//!   `chrome://tracing`). One process per campaign run, named with the
//!   run's seed, holds one track per simulated rank in **simulated
//!   time**; matched messages carry flow events (`ph` `s`/`f`) sharing
//!   the message id, so viewers draw inter-rank arrows. Simulated events
//!   are written the moment they arrive (memory stays O(runs × ranks)
//!   for the track-metadata dedup sets). Wall-clock span marks are
//!   buffered (O(runs × stages), tiny) because begin/end balancing needs
//!   the whole sequence; at finish they become one more process with a
//!   track per OS thread in **wall time** and balanced `B`/`E` pairs,
//!   a section that is empty when no span completed (no registry
//!   attached).
//! * [`FoldedSink`] — folded flamegraph stacks (`a;b;c <self-time-µs>`,
//!   the inferno / `flamegraph.pl` input), derived wholly from the
//!   buffered span marks at finish.
//!
//! [`MemorySink`] keeps every record for tests, which read a sink's file
//! back through [`crate::view`] and compare it with those records.
//! [`CountingWriter`] backs overhead benchmarks: full formatting work,
//! bytes counted and discarded.

use crate::tracer::{
    chrome_rank_meta, chrome_run_meta, chrome_sim_flow, chrome_sim_slice, chrome_wall_events,
    folded_from_spans, SpanMark, TraceRecord, TraceSnapshot, CHROME_FOOTER, CHROME_HEADER,
};
use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer of trace records, owned by a [`crate::Tracer`]'s writer
/// thread.
///
/// `accept` is called once per record in arrival order; `finish` exactly
/// once, after the last record. Implementations must tolerate `accept`
/// never being called (empty trace).
pub trait TraceSink: Send {
    /// Consume one record.
    fn accept(&mut self, record: &TraceRecord) -> io::Result<()>;
    /// Finalise the output (write trailers, flush).
    fn finish(&mut self) -> io::Result<()>;
}

/// A sink keeping every record in memory. Clones share one store: hand
/// one clone to [`crate::Tracer::new`] and read [`MemorySink::snapshot`]
/// from another once the tracer's `finish()` has returned.
#[derive(Clone, Default)]
pub struct MemorySink {
    records: Arc<Mutex<TraceSnapshot>>,
}

impl MemorySink {
    /// An empty memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything received so far, simulated events sorted by
    /// `(run, rank, idx)` so exports do not depend on which worker
    /// simulated which run.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut snap = self.records.lock().expect("memory sink poisoned").clone();
        snap.sim.sort_by_key(|e| (e.run, e.rank, e.idx));
        snap
    }
}

impl TraceSink for MemorySink {
    fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
        let mut snap = self.records.lock().expect("memory sink poisoned");
        match record {
            TraceRecord::Sim(e) => snap.sim.push(e.clone()),
            TraceRecord::SpanBegin(m) => snap.spans.push((false, m.clone())),
            TraceRecord::SpanEnd(m) => snap.spans.push((true, m.clone())),
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Incremental Chrome Trace Event JSON writer.
pub struct ChromeJsonSink<W: Write + Send> {
    w: W,
    wrote_event: bool,
    seen_runs: HashSet<u32>,
    seen_tracks: HashSet<(u32, u32)>,
    spans: Vec<(bool, SpanMark)>,
}

impl ChromeJsonSink<BufWriter<std::fs::File>> {
    /// Create `path` and stream a Chrome JSON trace into it.
    pub fn create(path: &str) -> io::Result<Self> {
        Self::new(BufWriter::new(std::fs::File::create(path)?))
    }
}

impl<W: Write + Send> ChromeJsonSink<W> {
    /// Wrap `w`; writes the document header immediately.
    pub fn new(mut w: W) -> io::Result<Self> {
        w.write_all(CHROME_HEADER.as_bytes())?;
        Ok(ChromeJsonSink {
            w,
            wrote_event: false,
            seen_runs: HashSet::new(),
            seen_tracks: HashSet::new(),
            spans: Vec::new(),
        })
    }

    fn write_event(&mut self, event: impl fmt::Display) -> io::Result<()> {
        if self.wrote_event {
            self.w.write_all(b",\n")?;
        }
        self.wrote_event = true;
        write!(self.w, "{event}")
    }
}

impl<W: Write + Send> TraceSink for ChromeJsonSink<W> {
    fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
        match record {
            TraceRecord::Sim(e) => {
                if self.seen_runs.insert(e.run) {
                    self.write_event(chrome_run_meta(e.run, e.seed))?;
                }
                if self.seen_tracks.insert((e.run, e.rank)) {
                    self.write_event(chrome_rank_meta(e.run, e.rank))?;
                }
                self.write_event(chrome_sim_slice(e))?;
                if let Some(flow) = chrome_sim_flow(e) {
                    self.write_event(flow)?;
                }
            }
            TraceRecord::SpanBegin(m) => self.spans.push((false, m.clone())),
            TraceRecord::SpanEnd(m) => self.spans.push((true, m.clone())),
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        for event in chrome_wall_events(&self.spans) {
            self.write_event(event)?;
        }
        self.w.write_all(CHROME_FOOTER.as_bytes())?;
        self.w.flush()
    }
}

/// Incremental folded-stacks writer. Span marks are buffered (small —
/// two per pipeline span instance) because self-time needs matched
/// pairs; simulated events are discarded on arrival, so memory stays
/// bounded at any event volume.
pub struct FoldedSink<W: Write + Send> {
    w: W,
    spans: Vec<(bool, SpanMark)>,
}

impl FoldedSink<BufWriter<std::fs::File>> {
    /// Create `path` and stream folded stacks into it.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> FoldedSink<W> {
    /// Wrap `w`; the file is written at finish.
    pub fn new(w: W) -> Self {
        FoldedSink {
            w,
            spans: Vec::new(),
        }
    }
}

impl<W: Write + Send> TraceSink for FoldedSink<W> {
    fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
        match record {
            TraceRecord::SpanBegin(m) => self.spans.push((false, m.clone())),
            TraceRecord::SpanEnd(m) => self.spans.push((true, m.clone())),
            TraceRecord::Sim(_) => {}
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.w
            .write_all(folded_from_spans(&self.spans).as_bytes())?;
        self.w.flush()
    }
}

/// A `Write` that counts bytes and discards them; the shared counter
/// outlives the sink. Backs trace-overhead benchmarks: the full
/// formatting cost is paid, nothing touches the filesystem.
#[derive(Clone)]
pub struct CountingWriter {
    bytes: Arc<AtomicU64>,
}

impl CountingWriter {
    /// A writer feeding the shared byte counter `bytes`.
    pub fn new(bytes: Arc<AtomicU64>) -> Self {
        CountingWriter { bytes }
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A `Write` into a shared in-memory buffer, retrievable after the sink
/// is consumed (tests read back what a sink wrote).
#[derive(Clone, Default)]
pub struct SharedBuffer {
    buf: Arc<std::sync::Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.buf.lock().expect("shared buffer poisoned")).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf
            .lock()
            .expect("shared buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{SimEvent, SimEventKind, Tracer};
    use crate::view::ChromeView;

    fn sim(run: u32, rank: u32, idx: u32) -> TraceRecord {
        TraceRecord::Sim(SimEvent {
            run,
            seed: 7,
            rank,
            idx,
            kind: SimEventKind::Init,
            t_ns: idx as u64 * 10,
        })
    }

    /// Hands every record to both sinks, so one recording yields two
    /// sinks' output.
    struct Tee<A, B>(A, B);

    impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
        fn accept(&mut self, record: &TraceRecord) -> io::Result<()> {
            self.0.accept(record)?;
            self.1.accept(record)
        }

        fn finish(&mut self) -> io::Result<()> {
            self.0.finish()?;
            self.1.finish()
        }
    }

    /// A tracer teeing into `sink` and a memory sink, plus that memory
    /// sink.
    fn teed(sink: impl TraceSink + 'static) -> (Tracer, MemorySink) {
        let memory = MemorySink::new();
        (Tracer::new(Tee(sink, memory.clone())), memory)
    }

    /// Read a Chrome document back, one event line at a time.
    fn view_of(doc: &str) -> ChromeView {
        let mut view = ChromeView::default();
        for line in doc.lines() {
            if let Some(body) = ChromeView::event_line(line) {
                view.add(&serde_json::from_str_value(body).unwrap());
            }
        }
        view
    }

    #[test]
    fn streamed_chrome_equals_snapshot_after_sort() {
        let buf = SharedBuffer::new();
        let (t, memory) = teed(ChromeJsonSink::new(buf.clone()).unwrap());
        t.span_begin("campaign");
        for run in 0..2 {
            for rank in 0..3 {
                for idx in 0..4 {
                    t.record(sim(run, rank, idx));
                }
            }
        }
        t.span_end("campaign");
        assert_eq!(t.finish().unwrap(), 2 * 3 * 4 + 2);
        // Read back and sorted by track, the file holds every track the
        // memory sink got, with its count and time range, and the span.
        let view = view_of(&buf.contents());
        let tracks: Vec<_> = view
            .tracks()
            .iter()
            .map(|t| (t.run, t.rank, t.count, t.min_ts, t.max_ts))
            .collect();
        let snap = memory.snapshot();
        let expected: Vec<(i128, i128, usize, f64, f64)> = snap
            .sim
            .chunks(4)
            .map(|track| {
                let (first, last) = (&track[0], &track[3]);
                let us = |e: &SimEvent| e.t_ns as f64 / 1e3;
                (first.run.into(), first.rank.into(), 4, us(first), us(last))
            })
            .collect();
        assert_eq!(tracks, expected);
        let span = &snap.matched_spans()[0];
        let totals = view.span_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!((totals[0].0.as_str(), totals[0].1), ("campaign", 1));
        let ns = (span.end_ns - span.begin_ns) as f64;
        assert!(
            (totals[0].2 * 1e3 - ns).abs() < 1e-3,
            "{totals:?} vs {ns} ns"
        );
    }

    #[test]
    fn empty_stream_is_a_valid_document() {
        let buf = SharedBuffer::new();
        let t = Tracer::new(ChromeJsonSink::new(buf.clone()).unwrap());
        assert_eq!(t.finish().unwrap(), 0);
        assert_eq!(buf.contents(), format!("{CHROME_HEADER}{CHROME_FOOTER}"));
        let mut view = ChromeView::default();
        view.add_document(&serde_json::from_str_value(&buf.contents()).unwrap())
            .unwrap();
        assert!(view.tracks().is_empty() && view.span_totals().is_empty());
    }

    #[test]
    fn counting_writer_counts_formatted_bytes() {
        let bytes = Arc::new(AtomicU64::new(0));
        let buf = SharedBuffer::new();
        let t = Tracer::new(Tee(
            ChromeJsonSink::new(CountingWriter::new(Arc::clone(&bytes))).unwrap(),
            ChromeJsonSink::new(buf.clone()).unwrap(),
        ));
        for idx in 0..8 {
            t.record(sim(0, 0, idx));
        }
        t.finish().unwrap();
        assert_eq!(bytes.load(Ordering::Relaxed), buf.contents().len() as u64);
    }

    #[test]
    fn failing_sink_surfaces_from_finish() {
        struct Failing;
        impl TraceSink for Failing {
            fn accept(&mut self, _r: &TraceRecord) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
            fn finish(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let t = Tracer::new(Failing);
        // More batches than the channel holds: once the writer has
        // stopped, recording must discard instead of waiting forever.
        for idx in 0..2 * crate::tracer::CHANNEL_BATCHES as u32 {
            t.record(sim(0, 0, idx));
        }
        let err = t.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    /// The first finish takes the sink away; finishing again is an error.
    #[test]
    fn finish_without_sink_is_an_error() {
        let t = Tracer::new(MemorySink::new());
        t.finish().unwrap();
        assert!(t.finish().is_err());
    }
}
