//! Structured execution tracing: a tracer that streams every record to
//! one sink, plus the Chrome-trace and flamegraph line formatters the
//! sinks write with and the span matcher [`crate::view`] reads with.
//!
//! The metrics registry ([`crate::MetricsRegistry`]) answers *how much* —
//! totals and span statistics. This module answers *when* and *where*:
//! it records individual events on a timeline, in two classes:
//!
//! * **Simulated-time MPI events** ([`SimEvent`]) — one per traced MPI
//!   call (`init`/`send`/`recv`/`finalize`), per rank, stamped with the
//!   *simulated* clock and tagged with the `(run, seed)` of the campaign
//!   run that produced it. Matched sends and receives share a
//!   [`message_id`], so viewers can draw inter-rank message arrows.
//! * **Wall-clock pipeline spans** ([`SpanMark`]) — begin/end marks
//!   emitted by [`crate::Span`] when a tracer is attached to the registry,
//!   stamped with the wall clock (nanoseconds since the tracer's epoch)
//!   and the recording OS thread. The span *path* already carries the
//!   nesting the thread-local span stack resolved (`campaign/simulate`),
//!   so the trace preserves the full stage tree.
//!
//! A [`Tracer`] is a handle on exactly one [`TraceSink`]. [`Tracer::new`]
//! starts a writer thread that owns the sink and receives record batches
//! over a bounded channel of [`CHANNEL_BATCHES`] batches. Recording
//! threads only move records into the channel; the writer thread formats
//! them. When the channel is full a recording thread waits for the
//! writer instead of dropping records, so every record reaches the sink
//! and memory stays bounded by the channel depth however long a campaign
//! runs. [`Tracer::finish`] closes the channel, lets the writer drain it,
//! finishes the sink and returns how many records it wrote.
//!
//! Tracing is observability-only, like the rest of this crate: recording
//! reads finished state (the simulator emits its events *after* a run
//! completes, from the immutable trace) and therefore can never perturb
//! simulated time or the injection RNG. A traced run is bit-identical to
//! a plain run; `tests/tracing.rs` asserts this differentially.

use crate::sink::TraceSink;
use std::cell::Cell;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Records per batch of a bulk producer ([`Tracer::record_batch`]): large
/// enough to amortise the channel hand-off, small enough to bound what
/// one batch holds.
pub const RECORD_BATCH: usize = 4096;

/// Depth of the writer's channel, in batches. At [`RECORD_BATCH`] records
/// a batch, at most 262,144 records wait for the writer.
pub const CHANNEL_BATCHES: usize = 64;

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A small dense identifier of the calling OS thread, stable for the
/// thread's lifetime (used as the Chrome-trace `tid` of wall-clock
/// tracks).
pub fn current_thread_id() -> u32 {
    THREAD_ID.with(|id| match id.get() {
        Some(v) => v,
        None => {
            let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            id.set(Some(v));
            v
        }
    })
}

/// The deterministic identity of one matched message: mixes
/// `(run, src, dst, channel seq)` into a 64-bit id shared by the send and
/// the receive of the message (a splitmix64-style finalizer per word).
pub fn message_id(run: u32, src: u32, dst: u32, seq: u64) -> u64 {
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
    let mut h = 0x9e3779b97f4a7c15u64;
    for w in [run as u64, src as u64, dst as u64, seq] {
        h = mix(h ^ w).wrapping_add(0x9e3779b97f4a7c15);
    }
    h
}

/// What a simulated MPI event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// `MPI_Init`.
    Init,
    /// `MPI_Finalize`.
    Finalize,
    /// A message injection; `msg_id` is shared with the matching receive.
    Send {
        /// Matched-message identity ([`message_id`]).
        msg_id: u64,
    },
    /// A completed receive. Nonblocking receives complete at the wait
    /// that observes them, mirroring the simulator's trace placement.
    Recv {
        /// Matched-message identity ([`message_id`]).
        msg_id: u64,
        /// True when the receive was posted with a wildcard.
        wildcard: bool,
    },
}

impl SimEventKind {
    /// Short mnemonic, also the Chrome-trace event name.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            SimEventKind::Init => "init",
            SimEventKind::Finalize => "finalize",
            SimEventKind::Send { .. } => "send",
            SimEventKind::Recv { .. } => "recv",
        }
    }
}

/// One simulated-time MPI event.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// Campaign run index that produced the event.
    pub run: u32,
    /// Simulator seed of that run.
    pub seed: u64,
    /// Rank the event occurred on.
    pub rank: u32,
    /// Event index within the rank (program order).
    pub idx: u32,
    /// What happened.
    pub kind: SimEventKind,
    /// Simulated completion time, nanoseconds.
    pub t_ns: u64,
}

/// One wall-clock span boundary (begin or end).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanMark {
    /// Nesting-resolved span path, e.g. `campaign/simulate`.
    pub path: String,
    /// Recording OS thread ([`current_thread_id`]).
    pub thread: u32,
    /// Wall time, nanoseconds since the tracer's epoch.
    pub t_ns: u64,
}

/// One traced record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A simulated-time MPI event.
    Sim(SimEvent),
    /// A pipeline span opened.
    SpanBegin(SpanMark),
    /// A pipeline span closed.
    SpanEnd(SpanMark),
}

struct TracerInner {
    epoch: Instant,
    /// The writer's channel; `None` once [`Tracer::finish`] closed it.
    tx: Mutex<Option<SyncSender<Vec<TraceRecord>>>>,
    /// The writer thread, until the first [`Tracer::finish`] joins it.
    writer: Mutex<Option<JoinHandle<io::Result<u64>>>>,
}

impl Drop for TracerInner {
    /// The last handle went without `finish`: still close the channel and
    /// let the writer finish the sink, so the thread is never detached.
    /// Its result has no caller to go to.
    fn drop(&mut self) {
        // Each slot only ever holds a whole value, so a poisoned one is
        // still valid.
        drop(self.tx.get_mut().unwrap_or_else(|e| e.into_inner()).take());
        let writer = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(writer) = writer.take() {
            let _ = writer.join();
        }
    }
}

/// A thread-safe execution tracer streaming into one [`TraceSink`].
/// Cloning yields another handle onto the same sink.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer writing every record it receives to `sink`, on a writer
    /// thread that owns the sink until [`Tracer::finish`].
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        let (tx, rx) = mpsc::sync_channel(CHANNEL_BATCHES);
        let writer = std::thread::Builder::new()
            .name("trace-writer".to_string())
            .spawn(move || write_all(sink, rx))
            .expect("spawn trace writer thread");
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                tx: Mutex::new(Some(tx)),
                writer: Mutex::new(Some(writer)),
            }),
        }
    }

    /// The writer's channel; `None` once finished.
    fn channel(&self) -> MutexGuard<'_, Option<SyncSender<Vec<TraceRecord>>>> {
        self.inner.tx.lock().expect("tracer channel poisoned")
    }

    /// Wall time in nanoseconds since this tracer was created (the epoch
    /// of every [`SpanMark`]).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record one event.
    pub fn record(&self, record: TraceRecord) {
        self.record_batch(vec![record]);
    }

    /// Record a batch of events, in order. Waits while the writer's
    /// channel is full. After [`Tracer::finish`], or once the sink has
    /// failed, the batch is discarded.
    pub fn record_batch(&self, batch: Vec<TraceRecord>) {
        if batch.is_empty() {
            return;
        }
        let tx = self.channel().clone();
        if let Some(tx) = tx {
            // A send fails only when the writer stopped on a sink error,
            // which `finish` reports.
            let _ = tx.send(batch);
        }
    }

    /// Convenience: record a span-begin mark on the current thread at the
    /// current wall time.
    pub fn span_begin(&self, path: &str) {
        self.record(TraceRecord::SpanBegin(SpanMark {
            path: path.to_string(),
            thread: current_thread_id(),
            t_ns: self.now_ns(),
        }));
    }

    /// Convenience: record a span-end mark on the current thread at the
    /// current wall time.
    pub fn span_end(&self, path: &str) {
        self.record(TraceRecord::SpanEnd(SpanMark {
            path: path.to_string(),
            thread: current_thread_id(),
            t_ns: self.now_ns(),
        }));
    }

    /// Close the channel, wait until the writer has handed every record
    /// recorded so far to the sink, and finish the sink. Returns how many
    /// records the sink wrote, or the sink's first I/O error. Only the
    /// first call finishes; later ones are errors.
    pub fn finish(&self) -> io::Result<u64> {
        drop(self.channel().take());
        let writer = self
            .inner
            .writer
            .lock()
            .expect("tracer writer poisoned")
            .take();
        writer
            .ok_or_else(|| io::Error::other("trace already finished"))?
            .join()
            .map_err(|_| io::Error::other("trace writer panicked"))?
    }
}

/// The writer thread: hand every batch to `sink` in arrival order until
/// the channel closes, then finish it. Returning early on an error drops
/// the receiver, so later sends fail instead of waiting.
fn write_all(mut sink: impl TraceSink, rx: Receiver<Vec<TraceRecord>>) -> io::Result<u64> {
    let mut written = 0u64;
    for batch in rx {
        for record in &batch {
            sink.accept(record)?;
        }
        written += batch.len() as u64;
    }
    sink.finish()?;
    Ok(written)
}

/// A matched wall-clock span instance reconstructed from begin/end marks.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedSpan {
    /// Nesting-resolved span path.
    pub path: String,
    /// Recording OS thread.
    pub thread: u32,
    /// Begin wall time, nanoseconds since the tracer epoch.
    pub begin_ns: u64,
    /// End wall time, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Wall time spent in this span minus its nested child spans.
    pub self_ns: u64,
}

/// Every record of a traced execution: what a [`crate::MemorySink`] holds
/// once its tracer has finished. It is the test recorder: tests read a
/// sink's file back through [`crate::view`] and compare it with these
/// records.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Simulated MPI events, sorted by `(run, rank, idx)` — a
    /// deterministic order for a given program and seed set, independent
    /// of worker-thread scheduling.
    pub sim: Vec<SimEvent>,
    /// Span marks `(is_end, mark)` in arrival order, which keeps each
    /// thread's marks in the order that thread recorded them.
    pub spans: Vec<(bool, SpanMark)>,
}

impl TraceSnapshot {
    /// Reconstruct well-nested span instances per thread. Begin marks
    /// without a matching end (or vice versa) are discarded, so the
    /// result is always balanced.
    pub fn matched_spans(&self) -> Vec<MatchedSpan> {
        matched_spans_of(&self.spans)
    }
}

/// The `pid` of campaign run 0's process in a Chrome export; run `r` is
/// `RUN_PID_BASE + r`. The wall-clock process is `pid` 1.
pub(crate) const RUN_PID_BASE: u32 = 1000;

/// Opening bytes of a Chrome Trace Event Format export. Event objects
/// follow one per line, comma-separated; [`CHROME_FOOTER`] closes the
/// document.
pub(crate) const CHROME_HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

/// Closing bytes of a Chrome Trace Event Format export.
pub(crate) const CHROME_FOOTER: &str = "\n]}\n";

/// Chrome-trace metadata naming the process of campaign run `run`
/// (`pid = RUN_PID_BASE + run`, labelled with the run's seed).
pub(crate) fn chrome_run_meta(run: u32, seed: u64) -> String {
    let pid = RUN_PID_BASE + run;
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"sim run {run} (seed {seed})\"}}}}"
    )
}

/// Chrome-trace metadata naming run `run`'s track for `rank`.
pub(crate) fn chrome_rank_meta(run: u32, rank: u32) -> String {
    let pid = RUN_PID_BASE + run;
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{rank},\
         \"args\":{{\"name\":\"rank {rank}\"}}}}"
    )
}

/// The near-zero-duration slice of one simulated MPI event (flows bind
/// to these), formatted where it is displayed.
pub(crate) fn chrome_sim_slice(e: &SimEvent) -> impl fmt::Display + '_ {
    SimLine { e, flow: false }
}

/// The flow event of a matched message (`ph: "s"` at the send, `"f"` at
/// the receive); `None` for events that carry no message.
pub(crate) fn chrome_sim_flow(e: &SimEvent) -> Option<impl fmt::Display + '_> {
    matches!(
        e.kind,
        SimEventKind::Send { .. } | SimEventKind::Recv { .. }
    )
    .then_some(SimLine { e, flow: true })
}

/// One Chrome line of a simulated event: its slice, or its flow event.
/// Formatting straight into the destination keeps the writer thread from
/// allocating per line.
struct SimLine<'a> {
    e: &'a SimEvent,
    flow: bool,
}

impl fmt::Display for SimLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pid, rank, ts) = (RUN_PID_BASE + self.e.run, self.e.rank, Micros(self.e.t_ns));
        if !self.flow {
            write!(
                f,
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{rank},\"ts\":{ts},\"dur\":0.001,\"args\":",
                self.e.kind.mnemonic()
            )?;
        }
        // Slice arms close the `args` object and then the slice.
        match (self.flow, self.e.kind) {
            (false, SimEventKind::Send { msg_id }) => write!(f, "{{\"msg\":{msg_id}}}}}"),
            (false, SimEventKind::Recv { msg_id, wildcard }) => {
                write!(f, "{{\"msg\":{msg_id},\"wildcard\":{wildcard}}}}}")
            }
            (false, _) => f.write_str("{}}"),
            (true, SimEventKind::Send { msg_id }) => write!(
                f,
                "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":{msg_id},\
                 \"pid\":{pid},\"tid\":{rank},\"ts\":{ts}}}"
            ),
            (true, SimEventKind::Recv { msg_id, .. }) => write!(
                f,
                "{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\
                 \"id\":{msg_id},\"pid\":{pid},\"tid\":{rank},\"ts\":{ts}}}"
            ),
            (true, _) => Ok(()),
        }
    }
}

/// The one span matcher: pair begin/end marks per thread, LIFO. An end
/// mark closes the innermost open span of its thread when the paths
/// agree; any other mark stays unpaired and is discarded by every
/// export and by [`crate::view`]. Yields `(begin index, end index, self
/// time)` in end-mark order, self time being the span's duration minus
/// its nested child spans.
pub(crate) fn pair_marks(spans: &[(bool, SpanMark)]) -> Vec<(usize, usize, u64)> {
    // Per-thread stacks of (begin index, child time).
    let mut stacks: Vec<(u32, Vec<(usize, u64)>)> = Vec::new();
    let mut out = Vec::new();
    for (i, (is_end, m)) in spans.iter().enumerate() {
        let stack = match stacks.iter_mut().find(|(t, _)| *t == m.thread) {
            Some((_, s)) => s,
            None => {
                stacks.push((m.thread, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        if !*is_end {
            stack.push((i, 0));
        } else if let Some(&(bi, child_ns)) = stack.last() {
            let begin = &spans[bi].1;
            if begin.path == m.path {
                stack.pop();
                let dur = m.t_ns.saturating_sub(begin.t_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.1 += dur;
                }
                out.push((bi, i, dur.saturating_sub(child_ns)));
            }
        }
    }
    out
}

/// Matched span instances of raw begin/end marks ([`pair_marks`]).
fn matched_spans_of(spans: &[(bool, SpanMark)]) -> Vec<MatchedSpan> {
    pair_marks(spans)
        .into_iter()
        .map(|(bi, ei, self_ns)| {
            let (begin, end) = (&spans[bi].1, &spans[ei].1);
            MatchedSpan {
                path: end.path.clone(),
                thread: end.thread,
                begin_ns: begin.t_ns,
                end_ns: end.t_ns,
                self_ns,
            }
        })
        .collect()
}

/// The wall-clock section of a Chrome export: process/thread metadata
/// for every thread that completed a span, then the marks of every
/// matched span (the one matcher behind
/// [`TraceSnapshot::matched_spans`]) in arrival order, so `B`/`E` balance.
/// Empty when no span completed.
pub(crate) fn chrome_wall_events(spans: &[(bool, SpanMark)]) -> Vec<String> {
    let mut events = Vec::new();
    let mut keep = vec![false; spans.len()];
    for (bi, ei, _) in pair_marks(spans) {
        keep[bi] = true;
        keep[ei] = true;
    }
    let mut threads: Vec<u32> = spans
        .iter()
        .enumerate()
        .filter(|(i, (is_end, _))| keep[*i] && *is_end)
        .map(|(_, (_, m))| m.thread)
        .collect();
    threads.sort_unstable();
    threads.dedup();
    if !threads.is_empty() {
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"pipeline (wall clock)\"}}"
                .to_string(),
        );
    }
    for t in threads {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"thread {t}\"}}}}"
        ));
    }
    for (i, (is_end, m)) in spans.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let ph = if *is_end { "E" } else { "B" };
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"wall\",\"ph\":\"{ph}\",\"pid\":1,\
             \"tid\":{},\"ts\":{}}}",
            escape(&m.path),
            m.thread,
            Micros(m.t_ns)
        ));
    }
    events
}

/// Fold raw span marks into flamegraph stacks (one line per stack,
/// `a;b;c <self-time-µs>`, the inferno / `flamegraph.pl` input). Self
/// time excludes nested child spans, so the flamegraph does not
/// double-count.
pub(crate) fn folded_from_spans(spans: &[(bool, SpanMark)]) -> String {
    let mut totals: Vec<(String, u64)> = Vec::new();
    for s in matched_spans_of(spans) {
        let key = s.path.replace('/', ";");
        match totals.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += s.self_ns,
            None => totals.push((key, s.self_ns)),
        }
    }
    totals.sort();
    let mut out = String::new();
    for (key, self_ns) in totals {
        let us = self_ns / 1_000;
        if us > 0 {
            out.push_str(&key);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
    }
    out
}

/// Nanoseconds → Chrome-trace microsecond timestamp (printed as an exact
/// short decimal, so equal inputs always print identically).
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (whole, frac) = (self.0 / 1_000, self.0 % 1_000);
        if frac == 0 {
            write!(f, "{whole}.0")
        } else if frac % 100 == 0 {
            write!(f, "{whole}.{}", frac / 100)
        } else if frac % 10 == 0 {
            write!(f, "{whole}.{:02}", frac / 10)
        } else {
            write!(f, "{whole}.{frac:03}")
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{ChromeJsonSink, FoldedSink, MemorySink, SharedBuffer};

    fn sim(run: u32, rank: u32, idx: u32, t_ns: u64) -> TraceRecord {
        TraceRecord::Sim(SimEvent {
            run,
            seed: 7,
            rank,
            idx,
            kind: SimEventKind::Init,
            t_ns,
        })
    }

    fn mark(path: &str, t_ns: u64) -> SpanMark {
        SpanMark {
            path: path.into(),
            thread: 0,
            t_ns,
        }
    }

    /// What a memory sink holds after `records` went through a tracer.
    fn traced(records: impl IntoIterator<Item = TraceRecord>) -> TraceSnapshot {
        let sink = MemorySink::new();
        let t = Tracer::new(sink.clone());
        for r in records {
            t.record(r);
        }
        t.finish().unwrap();
        sink.snapshot()
    }

    /// The Chrome document a sink writes for `records`.
    fn chrome(records: impl IntoIterator<Item = TraceRecord>) -> String {
        let buf = SharedBuffer::new();
        let t = Tracer::new(ChromeJsonSink::new(buf.clone()).unwrap());
        for r in records {
            t.record(r);
        }
        t.finish().unwrap();
        buf.contents()
    }

    #[test]
    fn concurrent_recording_never_panics_and_accounts_every_record() {
        let sink = MemorySink::new();
        let t = Tracer::new(sink.clone());
        std::thread::scope(|s| {
            for th in 0..4u32 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..5_000u32 {
                        t.record(sim(th, 0, i, i as u64));
                    }
                });
            }
        });
        assert_eq!(t.finish().unwrap(), 20_000);
        let snap = sink.snapshot();
        assert_eq!(snap.sim.len(), 20_000);
        for run in 0..4 {
            let count = snap.sim.iter().filter(|e| e.run == run).count();
            assert_eq!(count, 5_000, "run {run}");
        }
    }

    #[test]
    fn records_sent_after_finish_are_discarded() {
        let sink = MemorySink::new();
        let t = Tracer::new(sink.clone());
        t.record(sim(0, 0, 0, 0));
        assert_eq!(t.finish().unwrap(), 1);
        t.record(sim(0, 0, 1, 1));
        t.record_batch(vec![sim(0, 0, 2, 2), sim(0, 0, 3, 3)]);
        t.span_begin("late");
        assert_eq!(sink.snapshot().sim.len(), 1);
        assert!(sink.snapshot().spans.is_empty());
    }

    #[test]
    fn dropping_the_last_handle_finishes_the_sink() {
        let buf = SharedBuffer::new();
        let t = Tracer::new(ChromeJsonSink::new(buf.clone()).unwrap());
        t.clone().record(sim(0, 0, 0, 0));
        drop(t);
        let doc = buf.contents();
        assert!(doc.contains("\"cat\":\"sim\""), "{doc}");
        assert!(doc.ends_with(CHROME_FOOTER), "{doc}");
    }

    #[test]
    fn message_id_is_deterministic_and_distinguishes_inputs() {
        assert_eq!(message_id(0, 1, 2, 3), message_id(0, 1, 2, 3));
        let ids = [
            message_id(0, 1, 2, 3),
            message_id(1, 1, 2, 3),
            message_id(0, 2, 1, 3),
            message_id(0, 1, 2, 4),
        ];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn matched_spans_reconstruct_nesting_and_self_time() {
        let snap = traced([
            TraceRecord::SpanBegin(mark("campaign", 0)),
            TraceRecord::SpanBegin(mark("campaign/simulate", 10)),
            TraceRecord::SpanEnd(mark("campaign/simulate", 40)),
            TraceRecord::SpanEnd(mark("campaign", 100)),
        ]);
        let spans = snap.matched_spans();
        assert_eq!(spans.len(), 2);
        let inner = spans
            .iter()
            .find(|s| s.path == "campaign/simulate")
            .unwrap();
        assert_eq!((inner.begin_ns, inner.end_ns, inner.self_ns), (10, 40, 30));
        let outer = spans.iter().find(|s| s.path == "campaign").unwrap();
        // Outer span lasted 100 ns, 30 of which belong to the child.
        assert_eq!(outer.self_ns, 70);
    }

    #[test]
    fn unbalanced_marks_are_discarded() {
        let records = [
            // An end without a begin, then a clean pair.
            TraceRecord::SpanEnd(mark("orphan", 5)),
            TraceRecord::SpanBegin(mark("ok", 10)),
            TraceRecord::SpanEnd(mark("ok", 20)),
            // A begin that never ends.
            TraceRecord::SpanBegin(mark("dangling", 30)),
        ];
        let spans = traced(records.clone()).matched_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].path, "ok");
        // The chrome export stays balanced too.
        let json = chrome(records);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert!(!json.contains("orphan"));
        assert!(!json.contains("dangling"));
    }

    #[test]
    fn chrome_trace_has_one_track_per_rank_and_flows() {
        let msg = message_id(0, 1, 0, 0);
        let json = chrome(
            [
                (0u32, 0u32, SimEventKind::Init, 0u64),
                (1, 0, SimEventKind::Init, 0),
                (1, 1, SimEventKind::Send { msg_id: msg }, 100),
                (
                    0,
                    1,
                    SimEventKind::Recv {
                        msg_id: msg,
                        wildcard: true,
                    },
                    250,
                ),
                (0, 2, SimEventKind::Finalize, 300),
                (1, 2, SimEventKind::Finalize, 300),
            ]
            .map(|(rank, idx, kind, t_ns)| {
                TraceRecord::Sim(SimEvent {
                    run: 0,
                    seed: 7,
                    rank,
                    idx,
                    kind,
                    t_ns,
                })
            }),
        );
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"name\":\"sim run 0 (seed 7)\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains(&format!("\"id\":{msg}")));
        // And it is valid JSON for the workspace parser.
        serde_json::from_str_value(&json).expect("well-formed JSON");
    }

    #[test]
    fn chrome_export_is_deterministic_across_record_order() {
        let e0 = SimEvent {
            run: 0,
            seed: 1,
            rank: 0,
            idx: 0,
            kind: SimEventKind::Init,
            t_ns: 0,
        };
        let e1 = SimEvent {
            run: 0,
            seed: 1,
            rank: 1,
            idx: 0,
            kind: SimEventKind::Init,
            t_ns: 0,
        };
        // The sink writes in arrival order, so the documents agree as
        // line multisets: trailing commas stripped, lines sorted.
        let canonical = |records: [SimEvent; 2]| {
            let doc = chrome(records.map(TraceRecord::Sim));
            let mut lines: Vec<String> = doc
                .lines()
                .map(|l| l.trim_end_matches(',').to_string())
                .collect();
            lines.sort();
            lines
        };
        assert_eq!(canonical([e0.clone(), e1.clone()]), canonical([e1, e0]));
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let buf = SharedBuffer::new();
        let t = Tracer::new(FoldedSink::new(buf.clone()));
        t.span_begin("campaign");
        t.span_begin("campaign/simulate");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span_end("campaign/simulate");
        t.span_end("campaign");
        t.finish().unwrap();
        let folded = buf.contents();
        assert!(folded.contains("campaign;simulate "), "{folded}");
        for line in folded.lines() {
            let (_, n) = line.rsplit_once(' ').expect("space-separated folded line");
            assert!(n.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn micros_prints_exact_short_decimals() {
        let micros = |ns| Micros(ns).to_string();
        assert_eq!(micros(0), "0.0");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_000), "1.0");
        assert_eq!(micros(1_500), "1.5");
        assert_eq!(micros(123_456), "123.456");
        assert_eq!(micros(120_000), "120.0");
        assert_eq!(micros(120_010), "120.01");
    }

    #[test]
    fn thread_ids_are_distinct_across_threads() {
        let here = current_thread_id();
        let there = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(here, there);
        assert_eq!(here, current_thread_id());
    }
}
