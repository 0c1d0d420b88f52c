//! Gantt rendering of execution timelines (ASCII + SVG).
//!
//! One horizontal bar per rank; receive segments (where ranks sit waiting
//! on messages) show up as the dominant colour in delay-heavy runs — the
//! visual counterpart of the kernel-distance numbers.

use crate::svg::svg_header;
use anacin_mpisim::timeline::{Activity, Timeline};
use anacin_mpisim::types::Rank;
use std::fmt::Write as _;

fn glyph(a: Activity) -> char {
    match a {
        Activity::Sending => 'S',
        Activity::Receiving => 'r',
        Activity::WindingDown => '.',
    }
}

fn fill(a: Activity) -> &'static str {
    match a {
        Activity::Sending => "#1f77b4",
        Activity::Receiving => "#d62728",
        Activity::WindingDown => "#bbbbbb",
    }
}

/// Render a timeline as fixed-width ASCII lanes (`S` = progressing sends,
/// `r` = progressing receives, `.` = winding down).
pub fn gantt_ascii(tl: &Timeline, width: usize) -> String {
    let span = tl.makespan.nanos().max(1) as f64;
    let mut out = String::new();
    for (r, segs) in tl.segments.iter().enumerate() {
        let mut lane = vec![' '; width];
        for s in segs {
            let a = (s.start.nanos() as f64 / span * width as f64).floor() as usize;
            let b = (s.end.nanos() as f64 / span * width as f64).ceil() as usize;
            for cell in lane.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = glyph(s.activity);
            }
        }
        let _ = writeln!(out, "rank {r:>3} |{}|", lane.iter().collect::<String>());
    }
    let _ = writeln!(out, "0ns {:>w$}ns", tl.makespan.nanos(), w = width);
    out
}

/// Render a timeline as an SVG Gantt chart.
pub fn gantt_svg(tl: &Timeline, title: &str) -> String {
    let lane_h = 22.0;
    let margin = 70.0;
    let plot_w = 640.0;
    let n = tl.segments.len();
    let height = margin * 2.0 + lane_h * n as f64;
    let width = margin * 2.0 + plot_w;
    let span = tl.makespan.nanos().max(1) as f64;
    let x_of = |t: u64| margin + t as f64 / span * plot_w;
    let mut s = svg_header(width, height, title);
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"14\" text-anchor=\"middle\">{title}</text>",
        width / 2.0
    );
    for (r, segs) in tl.segments.iter().enumerate() {
        let y = margin + r as f64 * lane_h;
        let _ = writeln!(
            s,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"end\">rank {r}</text>",
            margin - 8.0,
            y + lane_h * 0.65
        );
        for seg in segs {
            let x1 = x_of(seg.start.nanos());
            let x2 = x_of(seg.end.nanos());
            let _ = writeln!(
                s,
                "<rect x=\"{x1:.1}\" y=\"{:.1}\" width=\"{:.2}\" height=\"{:.1}\" \
                 fill=\"{}\" stroke=\"white\" stroke-width=\"0.5\"/>",
                y + 3.0,
                (x2 - x1).max(0.5),
                lane_h - 6.0,
                fill(seg.activity)
            );
        }
    }
    // Legend.
    for (i, a) in [
        Activity::Sending,
        Activity::Receiving,
        Activity::WindingDown,
    ]
    .iter()
    .enumerate()
    {
        let x = margin + i as f64 * 130.0;
        let y = height - 24.0;
        let _ = writeln!(
            s,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"12\" height=\"12\" fill=\"{}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\">{}</text>",
            fill(*a),
            x + 16.0,
            y + 10.0,
            a.label()
        );
    }
    s.push_str("</svg>\n");
    s
}

/// Summarise where time went, one line per rank.
pub fn time_breakdown(tl: &Timeline) -> String {
    let mut out = String::new();
    for r in 0..tl.segments.len() {
        let rank = Rank(r as u32);
        let (send, recv, wind) = tl.totals(rank);
        let total = (send + recv + wind).max(1);
        let _ = writeln!(
            out,
            "rank {r:>3}: {:>5.1}% sending, {:>5.1}% receiving/waiting, {:>5.1}% winding down",
            send as f64 / total as f64 * 100.0,
            recv as f64 / total as f64 * 100.0,
            wind as f64 / total as f64 * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_mpisim::prelude::*;

    fn timeline() -> Timeline {
        let mut b = ProgramBuilder::new(2);
        b.rank(Rank(0)).compute(2000).send(Rank(1), Tag(0), 8);
        b.rank(Rank(1)).recv(Rank(0), Tag(0).into());
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        Timeline::of(&t)
    }

    #[test]
    fn ascii_has_one_lane_per_rank() {
        let s = gantt_ascii(&timeline(), 40);
        assert!(s.contains("rank   0 |"));
        assert!(s.contains("rank   1 |"));
        // The blocked receiver shows receive glyphs.
        let lane1 = s.lines().nth(1).unwrap();
        assert!(lane1.contains('r'));
    }

    #[test]
    fn svg_structure() {
        let svg = gantt_svg(&timeline(), "pingpong timeline");
        assert!(svg.contains("pingpong timeline"));
        assert!(svg.matches("<rect").count() >= 4); // bg + segments + legend
        assert!(svg.contains("#d62728"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn breakdown_percentages() {
        let text = time_breakdown(&timeline());
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains('%'));
    }
}
