//! Distance-matrix heatmaps and run-embedding scatter plots (ASCII + SVG).
//!
//! Companions to the violin view: the heatmap shows *which* run pairs
//! diverge, the scatter shows the geometry of the run sample in kernel
//! space (via `anacin_kernels::embed`).

use crate::svg::svg_header;
use std::fmt::Write as _;

const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];

/// Render a symmetric matrix (given as closure) as an ASCII heatmap.
pub fn heatmap_ascii(n: usize, value: impl Fn(usize, usize) -> f64) -> String {
    let mut peak = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            peak = peak.max(value(i, j));
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "    {}",
        (0..n)
            .map(|j| format!("{:>2}", j % 100))
            .collect::<String>()
    );
    for i in 0..n {
        let _ = write!(s, "{i:>3} ");
        for j in 0..n {
            let v = value(i, j);
            let shade = if peak <= 0.0 {
                SHADES[0]
            } else {
                SHADES[((v / peak) * (SHADES.len() - 1) as f64).round() as usize]
            };
            s.push(shade);
            s.push(shade);
        }
        s.push('\n');
    }
    let _ = writeln!(s, "scale: blank = 0, full block = {peak:.4}");
    s
}

/// Render a symmetric matrix as an SVG heatmap.
pub fn heatmap_svg(n: usize, value: impl Fn(usize, usize) -> f64, title: &str) -> String {
    let cell = 18.0;
    let margin = 50.0;
    let size = margin * 2.0 + cell * n as f64;
    let mut peak = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            peak = peak.max(value(i, j));
        }
    }
    let mut s = svg_header(size, size, title);
    for i in 0..n {
        for j in 0..n {
            let v = if peak > 0.0 { value(i, j) / peak } else { 0.0 };
            // White → dark blue ramp.
            let shade = (255.0 * (1.0 - v * 0.85)) as u8;
            let _ = writeln!(
                s,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{cell}\" height=\"{cell}\" \
                 fill=\"rgb({shade},{shade},255)\" stroke=\"#eee\"/>",
                margin + j as f64 * cell,
                margin + i as f64 * cell
            );
        }
        let _ = writeln!(
            s,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"9\" text-anchor=\"end\">{i}</text>",
            margin - 4.0,
            margin + i as f64 * cell + cell * 0.7
        );
    }
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"13\" text-anchor=\"middle\">{title}</text>",
        size / 2.0
    );
    s.push_str("</svg>\n");
    s
}

/// Render 2-D points as an SVG scatter plot (one dot per run).
pub fn scatter_svg(points: &[(f64, f64)], title: &str) -> String {
    let margin = 50.0;
    let plot = 360.0;
    let size = margin * 2.0 + plot;
    let (mut xlo, mut xhi, mut ylo, mut yhi) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for &(x, y) in points {
        xlo = xlo.min(x);
        xhi = xhi.max(x);
        ylo = ylo.min(y);
        yhi = yhi.max(y);
    }
    if !xlo.is_finite() || xhi <= xlo {
        xlo = -1.0;
        xhi = 1.0;
    }
    if !ylo.is_finite() || yhi <= ylo {
        ylo = -1.0;
        yhi = 1.0;
    }
    let px = |x: f64| margin + (x - xlo) / (xhi - xlo) * plot;
    let py = |y: f64| margin + plot - (y - ylo) / (yhi - ylo) * plot;
    let mut s = svg_header(size, size, title);
    let _ = writeln!(
        s,
        "<rect x=\"{margin}\" y=\"{margin}\" width=\"{plot}\" height=\"{plot}\" fill=\"none\" \
         stroke=\"#888\"/>"
    );
    for (i, &(x, y)) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"5\" fill=\"{}\" fill-opacity=\"0.75\"/>",
            px(x),
            py(y),
            crate::color::BAR_FILL
        );
        let _ = writeln!(
            s,
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"8\">{i}</text>",
            px(x) + 6.0,
            py(y) - 4.0
        );
    }
    let _ = writeln!(
        s,
        "<text x=\"{:.1}\" y=\"24\" font-size=\"13\" text-anchor=\"middle\">{title}</text>",
        size / 2.0
    );
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_heatmap_shades_scale() {
        let s = heatmap_ascii(3, |i, j| (i as f64 - j as f64).abs());
        assert!(s.contains('█'));
        assert!(s.contains("scale:"));
        // Diagonal is blank (zero distance).
        assert_eq!(s.lines().count(), 5); // header + 3 rows + scale
    }

    #[test]
    fn ascii_heatmap_all_zero() {
        let s = heatmap_ascii(2, |_, _| 0.0);
        assert!(!s.contains('█'));
    }

    #[test]
    fn svg_heatmap_cell_count() {
        let svg = heatmap_svg(4, |i, j| (i + j) as f64, "pairwise distances");
        assert_eq!(svg.matches("<rect").count(), 1 + 16); // background + cells
        assert!(svg.contains("pairwise distances"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn scatter_marks_every_point() {
        let pts = vec![(0.0, 0.0), (1.0, 1.0), (-1.0, 2.0)];
        let svg = scatter_svg(&pts, "runs in kernel space");
        assert_eq!(svg.matches("<circle").count(), 3);
        assert!(svg.contains("runs in kernel space"));
    }

    #[test]
    fn scatter_degenerate_inputs() {
        assert!(scatter_svg(&[], "empty").contains("</svg>"));
        assert!(scatter_svg(&[(2.0, 2.0)], "one").contains("<circle"));
    }
}
