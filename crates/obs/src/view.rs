//! Readers of the trace files the sinks write: what `anacin trace view`
//! prints. They sit beside the writers in [`crate::sink`] and
//! [`crate::tracer`], so this crate is the one place that knows the
//! format, and tests check the sinks by reading their files back here.
//!
//! * [`ChromeView`] reads a Chrome Trace Event document one parsed event
//!   at a time. The caller owns the file and the JSON parse (this crate
//!   depends on `serde` only); [`ChromeView::event_line`] says which lines
//!   of a file hold an event, and [`ChromeView::add_document`] reads a
//!   whole document's `traceEvents` array instead.
//! * [`folded_summary`] reads a folded-stacks file.

use crate::tracer::{pair_marks, SpanMark, RUN_PID_BASE};
use serde::{map_get, Value};

/// Scalar aggregates of one `(run, rank)` track's simulated events.
/// Holding only these, never the timestamps themselves, is what lets
/// `trace view` stream arbitrarily large files in constant memory per
/// track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Track {
    /// Campaign run: the events' `pid` less the run pid offset.
    pub run: i128,
    /// Rank: the events' `tid`.
    pub rank: i128,
    /// Simulated events on the track.
    pub count: usize,
    /// Earliest timestamp, µs.
    pub min_ts: f64,
    /// Latest timestamp, µs.
    pub max_ts: f64,
    /// The previous event's timestamp, for the incremental gap
    /// (timestamps are monotone per track by construction).
    prev_ts: f64,
    /// Longest gap between consecutive events, µs.
    max_gap: f64,
}

/// Incremental reader of a Chrome trace: feed events one at a time, in
/// file order, then read the tracks and span totals or render the
/// summary.
#[derive(Debug, Default)]
pub struct ChromeView {
    tracks: Vec<Track>,
    /// Wall-clock `B`/`E` marks in file order, paired by the writer's own
    /// matcher.
    marks: Vec<(bool, SpanMark)>,
    /// Each mark's timestamp (µs) as read.
    mark_ts: Vec<f64>,
}

impl ChromeView {
    /// The JSON text of `line` when the line holds one event object, as
    /// every line of a file [`crate::ChromeJsonSink`] writes does apart
    /// from the document's first and last; `None` otherwise.
    pub fn event_line(line: &str) -> Option<&str> {
        let body = line.trim().trim_end_matches(',');
        (body.starts_with('{') && body.ends_with('}') && body.contains("\"ph\"")).then_some(body)
    }

    /// Read one event: a simulated-time slice or a wall-clock span mark.
    /// Anything else (metadata, flows, other tools' events) is skipped.
    pub fn add(&mut self, ev: &Value) {
        let Some(obj) = ev.as_object() else { return };
        let ph = map_get(obj, "ph").as_str().unwrap_or("");
        let cat = map_get(obj, "cat").as_str().unwrap_or("");
        let tid = map_get(obj, "tid").as_int().unwrap_or(0);
        let ts = map_get(obj, "ts").as_f64().unwrap_or(0.0);
        if cat == "sim" && ph == "X" {
            let run = map_get(obj, "pid").as_int().unwrap_or(0) - i128::from(RUN_PID_BASE);
            match self
                .tracks
                .iter_mut()
                .find(|t| (t.run, t.rank) == (run, tid))
            {
                Some(t) => {
                    t.count += 1;
                    t.min_ts = t.min_ts.min(ts);
                    t.max_ts = t.max_ts.max(ts);
                    t.max_gap = t.max_gap.max(ts - t.prev_ts);
                    t.prev_ts = ts;
                }
                None => self.tracks.push(Track {
                    run,
                    rank: tid,
                    count: 1,
                    min_ts: ts,
                    max_ts: ts,
                    prev_ts: ts,
                    max_gap: 0.0,
                }),
            }
        } else if cat == "wall" && (ph == "B" || ph == "E") {
            let mark = SpanMark {
                path: map_get(obj, "name").as_str().unwrap_or("").to_string(),
                thread: u32::try_from(tid).unwrap_or(0),
                t_ns: (ts * 1e3).round() as u64,
            };
            self.marks.push((ph == "E", mark));
            self.mark_ts.push(ts);
        }
    }

    /// Read every event of a whole document's `traceEvents` array.
    pub fn add_document(&mut self, doc: &Value) -> Result<(), String> {
        let root = doc.as_object().ok_or("trace root must be an object")?;
        let events = map_get(root, "traceEvents")
            .as_array()
            .ok_or("missing traceEvents array")?;
        for ev in events {
            self.add(ev);
        }
        Ok(())
    }

    /// Every track read so far, sorted by `(run, rank)`.
    pub fn tracks(&self) -> Vec<Track> {
        let mut tracks = self.tracks.clone();
        tracks.sort_by_key(|t| (t.run, t.rank));
        tracks
    }

    /// `(path, count, total µs)` of every wall-clock span path with a
    /// matched `B`/`E` pair, in the order each path first completed.
    pub fn span_totals(&self) -> Vec<(String, u64, f64)> {
        let mut totals: Vec<(String, u64, f64)> = Vec::new();
        for (bi, ei, _) in pair_marks(&self.marks) {
            let path = &self.marks[ei].1.path;
            let dur = (self.mark_ts[ei] - self.mark_ts[bi]).max(0.0);
            match totals.iter_mut().find(|(p, _, _)| p == path) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += dur;
                }
                None => totals.push((path.clone(), 1, dur)),
            }
        }
        totals
    }

    /// The ASCII summary: per-rank event counts with proportional bars,
    /// the busiest rank, the longest inter-event gap on any rank, and the
    /// top-5 wall-clock spans by total time.
    pub fn render(&self) -> Result<String, String> {
        let tracks = self.tracks();
        let mut spans = self.span_totals();
        if tracks.is_empty() && spans.is_empty() {
            return Err("no sim events or wall spans found (is this an anacin trace?)".to_string());
        }
        let mut runs: Vec<i128> = tracks.iter().map(|t| t.run).collect();
        runs.dedup();
        let total_events: usize = tracks.iter().map(|t| t.count).sum();
        let mut out = format!(
            "sim events: {} across {} run(s), {} rank track(s)\n",
            total_events,
            runs.len(),
            tracks.len()
        );
        let max_count = tracks.iter().map(|t| t.count).max().unwrap_or(1);
        for t in &tracks {
            let bar_len = (t.count * 40 / max_count.max(1)).max(1);
            out.push_str(&format!(
                "  run {:>3} rank {:>3}: {:>6} events  {:<40}  [{:.1} µs sim-time]\n",
                t.run,
                t.rank,
                t.count,
                "#".repeat(bar_len),
                t.max_ts - t.min_ts
            ));
        }
        if let Some(t) = tracks.iter().max_by_key(|t| t.count) {
            out.push_str(&format!(
                "busiest rank: run {} rank {} ({} events)\n",
                t.run, t.rank, t.count
            ));
        }
        let longest = tracks
            .iter()
            .filter(|t| t.count > 1)
            .max_by(|a, b| a.max_gap.total_cmp(&b.max_gap));
        if let Some(t) = longest {
            out.push_str(&format!(
                "longest gap: {:.3} µs on run {} rank {}\n",
                t.max_gap, t.run, t.rank
            ));
        }
        if !spans.is_empty() {
            spans.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
            out.push_str("top spans by total wall time:\n");
            for (name, count, total_us) in spans.iter().take(5) {
                out.push_str(&format!(
                    "  {:<34} {:>6} x {:>12.3} ms\n",
                    name,
                    count,
                    total_us / 1e3
                ));
            }
        }
        Ok(out)
    }
}

/// The ASCII summary of a folded-stacks file (`a;b;c <self-µs>` per line,
/// the inferno / `flamegraph.pl` input format): the top stacks by
/// self-time with proportional bars, plus the file's totals.
pub fn folded_summary(data: &str) -> Result<String, String> {
    let mut stacks: Vec<(&str, u64)> = Vec::new();
    for (lineno, line) in data.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: not 'stack <value>'", lineno + 1))?;
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {}: bad self-time '{value}'", lineno + 1))?;
        stacks.push((stack, value));
    }
    if stacks.is_empty() {
        return Err("no stacks found (is this a folded flamegraph file?)".to_string());
    }
    let total: u64 = stacks.iter().map(|&(_, v)| v).sum();
    stacks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    let mut out = format!(
        "{} stack(s), {:.3} ms total self-time\ntop stacks by self-time:\n",
        stacks.len(),
        total as f64 / 1e3
    );
    let max = stacks.first().map(|&(_, v)| v).unwrap_or(1).max(1);
    for (stack, value) in stacks.iter().take(10) {
        let bar_len = ((*value as usize * 32) / max as usize).max(1);
        out.push_str(&format!(
            "  {:<44} {:>12.3} ms {:>5.1}%  {}\n",
            stack,
            *value as f64 / 1e3,
            *value as f64 * 100.0 / total as f64,
            "#".repeat(bar_len)
        ));
    }
    Ok(out)
}
