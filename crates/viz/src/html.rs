//! Self-contained HTML campaign reports.
//!
//! One file, no external assets: embeds the violin, heatmap, embedding
//! scatter and event-graph SVGs, the measurement table, and the root-cause
//! ranking. The course's take-home artifact — students attach it to their
//! assignment instead of screenshots.

use crate::svg::esc;
use std::fmt::Write as _;

/// One section of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section heading.
    pub title: String,
    /// Explanatory paragraph (plain text; HTML-escaped on render).
    pub prose: String,
    /// Optional inline SVG (inserted verbatim).
    pub svg: Option<String>,
    /// Optional preformatted block (tables, ASCII art; escaped).
    pub pre: Option<String>,
}

/// A report under construction.
#[derive(Debug, Clone, Default)]
pub struct HtmlReport {
    title: String,
    subtitle: String,
    sections: Vec<Section>,
}

impl HtmlReport {
    /// Start a report.
    pub fn new(title: impl Into<String>, subtitle: impl Into<String>) -> Self {
        HtmlReport {
            title: title.into(),
            subtitle: subtitle.into(),
            sections: Vec::new(),
        }
    }

    /// Append a section.
    pub fn section(&mut self, section: Section) -> &mut Self {
        self.sections.push(section);
        self
    }

    /// Convenience: append a prose + preformatted section.
    pub fn text_section(
        &mut self,
        title: impl Into<String>,
        prose: impl Into<String>,
        pre: impl Into<String>,
    ) -> &mut Self {
        self.section(Section {
            title: title.into(),
            prose: prose.into(),
            svg: None,
            pre: Some(pre.into()),
        })
    }

    /// Convenience: append a prose + SVG section.
    pub fn svg_section(
        &mut self,
        title: impl Into<String>,
        prose: impl Into<String>,
        svg: impl Into<String>,
    ) -> &mut Self {
        self.section(Section {
            title: title.into(),
            prose: prose.into(),
            svg: Some(svg.into()),
            pre: None,
        })
    }

    /// Number of sections so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no section has been added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Render the self-contained HTML document.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
             <title>{}</title>\n<style>\n\
             body {{ font-family: sans-serif; max-width: 70rem; margin: 2rem auto; \
             padding: 0 1rem; color: #222; }}\n\
             h1 {{ border-bottom: 2px solid #1f77b4; padding-bottom: 0.3rem; }}\n\
             h2 {{ color: #1f77b4; margin-top: 2rem; }}\n\
             pre {{ background: #f6f8fa; padding: 0.8rem; overflow-x: auto; \
             border-radius: 6px; font-size: 0.85rem; }}\n\
             .subtitle {{ color: #666; }}\n\
             figure {{ margin: 1rem 0; text-align: center; }}\n\
             </style>\n</head>\n<body>\n<h1>{}</h1>\n<p class=\"subtitle\">{}</p>\n",
            esc(&self.title),
            esc(&self.title),
            esc(&self.subtitle)
        );
        for sec in &self.sections {
            let _ = write!(
                s,
                "<h2>{}</h2>\n<p>{}</p>\n",
                esc(&sec.title),
                esc(&sec.prose)
            );
            if let Some(svg) = &sec.svg {
                let _ = write!(s, "<figure>\n{svg}\n</figure>\n");
            }
            if let Some(pre) = &sec.pre {
                let _ = writeln!(s, "<pre>{}</pre>", esc(pre));
            }
        }
        s.push_str("</body>\n</html>\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sections_in_order() {
        let mut r = HtmlReport::new("Campaign", "race @ 100%");
        r.text_section("Summary", "stats below", "mean 1.0\nmedian 2.0");
        r.svg_section("Violin", "distribution", "<svg><circle/></svg>");
        let html = r.render();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<h1>Campaign</h1>"));
        let i_sum = html.find("Summary").unwrap();
        let i_vio = html.find("Violin").unwrap();
        assert!(i_sum < i_vio);
        assert!(html.contains("<svg><circle/></svg>"));
        assert!(html.contains("mean 1.0"));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn escapes_text_but_not_svg() {
        let mut r = HtmlReport::new("a < b", "x & y");
        r.text_section("T", "1 < 2", "a > b");
        let html = r.render();
        assert!(html.contains("a &lt; b"));
        assert!(html.contains("x &amp; y"));
        assert!(html.contains("1 &lt; 2"));
        assert!(html.contains("a &gt; b"));
    }

    #[test]
    fn empty_report_is_valid_html() {
        let html = HtmlReport::new("t", "s").render();
        assert!(html.contains("</html>"));
    }
}
