//! Self-contained SVG writers for the paper's three figure families:
//! event graphs (Figs. 1–4), violin plots (Figs. 5–7), and callstack bar
//! charts (Fig. 8), plus a generic line chart.
//!
//! No drawing dependencies: the writers emit plain SVG 1.1 strings.

use crate::color;
use anacin_event_graph::{EdgeKind, EventGraph};
use anacin_mpisim::types::Rank;
use anacin_stats::prelude::ViolinSummary;
use std::fmt::Write as _;

/// The opening of every SVG this crate writes: the root element, the
/// title and a white background.
pub(crate) fn svg_header(width: f64, height: f64, title: &str) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" font-family=\"sans-serif\">\n\
         <title>{title}</title>\n\
         <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
    )
}

/// Escape text content for XML (and HTML).
pub(crate) fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render an event graph in the paper's style: one horizontal row per
/// rank, green start/end, blue sends, red receives, grey program edges,
/// black message edges.
pub fn event_graph_svg(g: &EventGraph, title: &str) -> String {
    let dx = 60.0;
    let dy = 70.0;
    let margin = 60.0;
    let max_len = (0..g.world_size())
        .map(|r| g.rank_nodes(Rank(r)).count())
        .max()
        .unwrap_or(1);
    let width = margin * 2.0 + dx * (max_len.saturating_sub(1)) as f64;
    let height = margin * 2.0 + dy * (g.world_size().saturating_sub(1)) as f64;
    let pos = |id: anacin_event_graph::NodeId| {
        let n = g.node(id);
        (
            margin + n.rank_idx as f64 * dx,
            margin + n.rank.0 as f64 * dy,
        )
    };
    let mut s = svg_header(width, height, title);
    // Edges first (under the nodes).
    for (a, b, kind) in g.edges() {
        let (x1, y1) = pos(a);
        let (x2, y2) = pos(b);
        let (stroke, dash) = match kind {
            EdgeKind::Program => ("#999999", ""),
            EdgeKind::Message => ("#222222", " stroke-dasharray=\"4 2\""),
        };
        let _ = writeln!(
            s,
            "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
             stroke=\"{stroke}\" stroke-width=\"1.5\"{dash}/>"
        );
    }
    // Rank labels.
    for r in 0..g.world_size() {
        let y = margin + r as f64 * dy;
        let _ = writeln!(
            s,
            "<text x=\"8\" y=\"{:.1}\" font-size=\"12\">Process {r}</text>",
            y + 4.0
        );
    }
    // Nodes.
    for id in g.node_ids() {
        let (x, y) = pos(id);
        let fill = color::node_fill(&g.node(id).kind);
        let _ = writeln!(
            s,
            "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"9\" fill=\"{fill}\" stroke=\"#333\"/>"
        );
    }
    s.push_str("</svg>\n");
    s
}

/// Render a family of violins on a shared Y axis (kernel distance), one
/// violin per setting — the paper's Figures 5–7 shape.
pub fn violin_svg(violins: &[ViolinSummary], title: &str, y_label: &str) -> String {
    let slot = 140.0;
    let margin = 70.0;
    let plot_h = 320.0;
    let width = margin * 2.0 + slot * violins.len() as f64;
    let height = margin * 2.0 + plot_h;
    // Shared value range.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in violins {
        for &x in &v.kde_xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    if !lo.is_finite() || hi <= lo {
        lo = 0.0;
        hi = 1.0;
    }
    let y_of = |val: f64| margin + plot_h - (val - lo) / (hi - lo) * plot_h;
    let mut s = svg_header(width, height, title);
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"14\" text-anchor=\"middle\">{}</text>",
        width / 2.0,
        esc(title)
    );
    // Y axis.
    let _ = writeln!(
        s,
        "<line x1=\"{m:.1}\" y1=\"{t:.1}\" x2=\"{m:.1}\" y2=\"{b:.1}\" stroke=\"{ax}\"/>",
        m = margin,
        t = margin,
        b = margin + plot_h,
        ax = color::AXIS_STROKE
    );
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let val = lo + (hi - lo) * frac;
        let y = y_of(val);
        let _ = writeln!(
            s,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"end\">{:.3}</text>",
            margin - 6.0,
            y + 3.0,
            val
        );
    }
    let _ = writeln!(
        s,
        "<text x=\"16\" y=\"{:.1}\" font-size=\"12\" transform=\"rotate(-90 16 {:.1})\" \
         text-anchor=\"middle\">{}</text>",
        margin + plot_h / 2.0,
        margin + plot_h / 2.0,
        esc(y_label)
    );
    // Violins.
    for (i, v) in violins.iter().enumerate() {
        let cx = margin + slot * (i as f64 + 0.5);
        let peak = v.peak_density().max(f64::MIN_POSITIVE);
        let half_w = slot * 0.35;
        let mut pts_right = Vec::with_capacity(v.kde_xs.len());
        let mut pts_left = Vec::with_capacity(v.kde_xs.len());
        for (x, d) in v.kde_xs.iter().zip(&v.kde_densities) {
            let y = y_of(*x);
            let w = d / peak * half_w;
            pts_right.push(format!("{:.1},{:.1}", cx + w, y));
            pts_left.push(format!("{:.1},{:.1}", cx - w, y));
        }
        pts_left.reverse();
        let _ = writeln!(
            s,
            "<polygon points=\"{} {}\" fill=\"{}\" fill-opacity=\"0.7\" stroke=\"#446\"/>",
            pts_right.join(" "),
            pts_left.join(" "),
            color::VIOLIN_FILL
        );
        // Median marker and quartile box.
        let med_y = y_of(v.summary.median);
        let _ = writeln!(
            s,
            "<line x1=\"{:.1}\" y1=\"{med_y:.1}\" x2=\"{:.1}\" y2=\"{med_y:.1}\" \
             stroke=\"{}\" stroke-width=\"2\"/>",
            cx - half_w * 0.5,
            cx + half_w * 0.5,
            color::MEDIAN_STROKE
        );
        let _ = writeln!(
            s,
            "<line x1=\"{cx:.1}\" y1=\"{:.1}\" x2=\"{cx:.1}\" y2=\"{:.1}\" \
             stroke=\"{}\" stroke-width=\"1\"/>",
            y_of(v.summary.q3),
            y_of(v.summary.q1),
            color::MEDIAN_STROKE
        );
        let _ = writeln!(
            s,
            "<text x=\"{cx:.1}\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\">{}</text>",
            margin + plot_h + 24.0,
            esc(&v.label)
        );
    }
    s.push_str("</svg>\n");
    s
}

/// Render a labelled vertical bar chart (normalized callstack frequencies,
/// the paper's Figure 8 shape).
pub fn bar_chart_svg(items: &[(String, f64)], title: &str, y_label: &str) -> String {
    let slot = 90.0;
    let margin = 70.0;
    let plot_h = 300.0;
    let label_h = 120.0;
    let width = margin * 2.0 + slot * items.len() as f64;
    let height = margin + plot_h + label_h;
    let peak = items
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut s = svg_header(width, height, title);
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"14\" text-anchor=\"middle\">{}</text>",
        width / 2.0,
        esc(title)
    );
    let _ = writeln!(
        s,
        "<line x1=\"{m:.1}\" y1=\"{t:.1}\" x2=\"{m:.1}\" y2=\"{b:.1}\" stroke=\"{ax}\"/>",
        m = margin,
        t = margin,
        b = margin + plot_h,
        ax = color::AXIS_STROKE
    );
    let _ = writeln!(
        s,
        "<text x=\"16\" y=\"{:.1}\" font-size=\"12\" transform=\"rotate(-90 16 {:.1})\" \
         text-anchor=\"middle\">{}</text>",
        margin + plot_h / 2.0,
        margin + plot_h / 2.0,
        esc(y_label)
    );
    for (i, (label, v)) in items.iter().enumerate() {
        let x = margin + slot * i as f64 + slot * 0.15;
        let h = v / peak * plot_h;
        let y = margin + plot_h - h;
        let _ = writeln!(
            s,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{h:.1}\" fill=\"{}\"/>",
            slot * 0.7,
            color::BAR_FILL
        );
        let lx = x + slot * 0.35;
        let ly = margin + plot_h + 12.0;
        let _ = writeln!(
            s,
            "<text x=\"{lx:.1}\" y=\"{ly:.1}\" font-size=\"9\" text-anchor=\"end\" \
             transform=\"rotate(-45 {lx:.1} {ly:.1})\">{}</text>",
            esc(label)
        );
        let _ = writeln!(
            s,
            "<text x=\"{lx:.1}\" y=\"{:.1}\" font-size=\"10\" text-anchor=\"middle\">{v:.3}</text>",
            y - 4.0
        );
    }
    s.push_str("</svg>\n");
    s
}

/// Render an `(x, y)` series as a line chart with point markers.
pub fn line_chart_svg(series: &[(f64, f64)], title: &str, x_label: &str, y_label: &str) -> String {
    let margin = 70.0;
    let plot_w = 460.0;
    let plot_h = 300.0;
    let width = margin * 2.0 + plot_w;
    let height = margin * 2.0 + plot_h;
    let (mut xlo, mut xhi, mut ylo, mut yhi) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for &(x, y) in series {
        xlo = xlo.min(x);
        xhi = xhi.max(x);
        ylo = ylo.min(y);
        yhi = yhi.max(y);
    }
    if !xlo.is_finite() || xhi <= xlo {
        xlo = 0.0;
        xhi = 1.0;
    }
    if !ylo.is_finite() || yhi <= ylo {
        ylo = 0.0;
        yhi = ylo + 1.0;
    }
    let px = |x: f64| margin + (x - xlo) / (xhi - xlo) * plot_w;
    let py = |y: f64| margin + plot_h - (y - ylo) / (yhi - ylo) * plot_h;
    let mut s = svg_header(width, height, title);
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"14\" text-anchor=\"middle\">{}</text>",
        width / 2.0,
        esc(title)
    );
    let _ = writeln!(
        s,
        "<line x1=\"{m:.1}\" y1=\"{b:.1}\" x2=\"{r:.1}\" y2=\"{b:.1}\" stroke=\"{ax}\"/>\
         <line x1=\"{m:.1}\" y1=\"{t:.1}\" x2=\"{m:.1}\" y2=\"{b:.1}\" stroke=\"{ax}\"/>",
        m = margin,
        t = margin,
        b = margin + plot_h,
        r = margin + plot_w,
        ax = color::AXIS_STROKE
    );
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" text-anchor=\"middle\">{}</text>",
        margin + plot_w / 2.0,
        margin + plot_h + 36.0,
        esc(x_label)
    );
    let _ = writeln!(
        s,
        "<text x=\"16\" y=\"{:.1}\" font-size=\"12\" transform=\"rotate(-90 16 {:.1})\" \
         text-anchor=\"middle\">{}</text>",
        margin + plot_h / 2.0,
        margin + plot_h / 2.0,
        esc(y_label)
    );
    if series.len() >= 2 {
        let pts: Vec<String> = series
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
            .collect();
        let _ = writeln!(
            s,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{}\" stroke-width=\"2\"/>",
            pts.join(" "),
            color::BAR_FILL
        );
    }
    for &(x, y) in series {
        let _ = writeln!(
            s,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"{}\"/>",
            px(x),
            py(y),
            color::BAR_FILL
        );
        let _ = writeln!(
            s,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" text-anchor=\"middle\">{x}</text>",
            px(x),
            margin + plot_h + 14.0
        );
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_mpisim::prelude::*;

    fn race_graph() -> EventGraph {
        let mut b = ProgramBuilder::new(4);
        for r in 1..4 {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..4 {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::deterministic()).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn event_graph_svg_structure() {
        let g = race_graph();
        let svg = event_graph_svg(&g, "fig2");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<circle").count(), g.node_count());
        assert_eq!(svg.matches("<line").count(), g.edge_count());
        // Paper colours present.
        assert!(svg.contains("#2e8b57"));
        assert!(svg.contains("#1f77b4"));
        assert!(svg.contains("#d62728"));
        // Rank labels.
        for r in 0..4 {
            assert!(svg.contains(&format!("Process {r}")));
        }
    }

    #[test]
    fn violin_svg_structure() {
        let v1 = ViolinSummary::from_sample("16 procs", &[1.0, 1.5, 2.0, 2.2]).unwrap();
        let v2 = ViolinSummary::from_sample("32 procs", &[3.0, 3.5, 4.0, 4.4]).unwrap();
        let svg = violin_svg(&[v1, v2], "Fig 5", "kernel distance");
        assert_eq!(svg.matches("<polygon").count(), 2);
        assert!(svg.contains("16 procs"));
        assert!(svg.contains("32 procs"));
        assert!(svg.contains("kernel distance"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn bar_chart_svg_structure() {
        let items = vec![
            ("a > MPI_Irecv".to_string(), 0.6),
            ("b > MPI_Send".to_string(), 0.4),
        ];
        let svg = bar_chart_svg(&items, "Fig 8", "relative frequency");
        assert_eq!(svg.matches("<rect").count(), 3); // background + 2 bars
        assert!(svg.contains("MPI_Irecv"));
        assert!(svg.contains("relative frequency"));
    }

    #[test]
    fn line_chart_svg_structure() {
        let series: Vec<(f64, f64)> = (0..11).map(|i| (i as f64 * 10.0, i as f64)).collect();
        let svg = line_chart_svg(&series, "Fig 7", "% nd", "kernel distance");
        assert!(svg.contains("<polyline"));
        assert_eq!(svg.matches("<circle").count(), 11);
        assert!(svg.contains("% nd"));
    }

    #[test]
    fn xml_escaping() {
        assert_eq!(esc("a > b & c < d"), "a &gt; b &amp; c &lt; d");
        let items = vec![("main > f<T>".to_string(), 1.0)];
        let svg = bar_chart_svg(&items, "t", "y");
        assert!(svg.contains("main &gt; f&lt;T&gt;"));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let svg = line_chart_svg(&[], "empty", "x", "y");
        assert!(svg.contains("</svg>"));
        let v = ViolinSummary::from_sample("const", &[2.0, 2.0, 2.0]).unwrap();
        let svg2 = violin_svg(&[v], "t", "y");
        assert!(svg2.contains("<polygon"));
    }
}
