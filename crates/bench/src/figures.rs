//! Regeneration of every table and figure in the paper.
//!
//! One function per artifact. Each returns a [`FigureOutput`] holding the
//! printable series/rows (what the paper reports), optionally an SVG
//! rendering, and a list of *shape checks* — the qualitative claims the
//! paper makes about the artifact (who is bigger, what trend holds) that
//! our reproduction must reproduce. EXPERIMENTS.md records these
//! paper-vs-measured comparisons.

use anacin_core::prelude::*;
use anacin_course::prelude::{table_i, table_ii};
use anacin_event_graph::EventGraph;
use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::prelude::*;
use anacin_stats::prelude::*;
use anacin_viz::{ascii, svg};

/// Experiment scale: paper-faithful or laptop-quick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Process count for the "small" violin (paper: 16).
    pub procs_small: u32,
    /// Process count for the "large" violin (paper: 32).
    pub procs_large: u32,
    /// AMG process count for Figures 7/8 (paper: 32).
    pub amg_procs: u32,
    /// Runs per setting (paper: 20).
    pub runs: u32,
}

impl Scale {
    /// The paper's scale: 16/32 processes, 20 runs per setting.
    pub fn paper() -> Scale {
        Scale {
            procs_small: 16,
            procs_large: 32,
            amg_procs: 32,
            runs: 20,
        }
    }

    /// A reduced scale for fast test runs. 16 runs per setting keeps the
    /// Fig. 7 Spearman check well clear of its 0.85 threshold at this
    /// process count; 8 runs leaves it rank-noise-limited.
    pub fn quick() -> Scale {
        Scale {
            procs_small: 6,
            procs_large: 12,
            amg_procs: 6,
            runs: 16,
        }
    }
}

/// One regenerated artifact.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Artifact id, e.g. "fig7" or "tables".
    pub id: String,
    /// Title, matching the paper's caption.
    pub title: String,
    /// The printable rows/series the paper reports.
    pub text: String,
    /// SVG rendering, where the artifact is graphical.
    pub svg: Option<String>,
    /// Shape checks: `(claim, holds)`.
    pub checks: Vec<(String, bool)>,
}

impl FigureOutput {
    /// True when every shape check holds.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn graph_of(pattern: Pattern, cfg: &MiniAppConfig, nd: f64, seed: u64) -> EventGraph {
    let p = pattern.build(cfg);
    let t = simulate(&p, &SimConfig::with_nd_percent(nd, seed)).expect("pattern completes");
    EventGraph::from_trace(&t)
}

/// Tables I and II: the course structure.
pub fn tables() -> FigureOutput {
    let text = format!("{}\n{}", table_i(), table_ii());
    let checks = vec![
        (
            "Table I lists 6 goals over 3 levels".to_string(),
            anacin_course::prelude::GOALS.len() == 6,
        ),
        (
            "Table II lists 2 prerequisites per level".to_string(),
            anacin_course::prelude::PREREQUISITES.len() == 6,
        ),
    ];
    FigureOutput {
        id: "tables".to_string(),
        title: "Tables I & II: learning objectives and prerequisites".to_string(),
        text,
        svg: None,
        checks,
    }
}

/// Figure 1: an event graph of an MPI communication pattern between three
/// processes.
pub fn fig1() -> FigureOutput {
    // Three processes exchanging a short chain of point-to-point
    // messages, as in the paper's illustrative example.
    let mut b = ProgramBuilder::new(3);
    b.rank(Rank(0))
        .send(Rank(1), Tag(0), 1)
        .recv(Rank(2), Tag(2).into());
    b.rank(Rank(1))
        .recv(Rank(0), Tag(0).into())
        .send(Rank(2), Tag(1), 1);
    b.rank(Rank(2))
        .recv(Rank(1), Tag(1).into())
        .send(Rank(0), Tag(2), 1);
    let t = simulate(&b.build(), &SimConfig::deterministic()).expect("completes");
    let g = EventGraph::from_trace(&t);
    let checks = vec![
        ("three process rows".to_string(), g.world_size() == 3),
        (
            "nodes are MPI events linked by on-process and inter-process edges".to_string(),
            g.message_edge_count() == 3 && g.edge_count() > g.message_edge_count(),
        ),
    ];
    FigureOutput {
        id: "fig1".to_string(),
        title: "Fig. 1: event graph of an MPI communication pattern on 3 processes".to_string(),
        text: ascii::event_graph_lanes(&g),
        svg: Some(svg::event_graph_svg(&g, "Fig. 1")),
        checks,
    }
}

/// Figure 2: message-race event graph on 4 processes.
pub fn fig2() -> FigureOutput {
    let g = graph_of(Pattern::MessageRace, &MiniAppConfig::with_procs(4), 0.0, 1);
    let checks = vec![
        (
            "three senders, each sending one message to rank 0".to_string(),
            g.message_edge_count() == 3,
        ),
        ("rank 0 receives from all three other ranks".to_string(), {
            let mut srcs = g.match_order(Rank(0));
            srcs.sort();
            srcs == vec![Rank(1), Rank(2), Rank(3)]
        }),
    ];
    FigureOutput {
        id: "fig2".to_string(),
        title: "Fig. 2: message race communication pattern on 4 MPI processes".to_string(),
        text: ascii::event_graph_lanes(&g),
        svg: Some(svg::event_graph_svg(&g, "Fig. 2")),
        checks,
    }
}

/// Figure 3: AMG 2013 pattern on 2 processes.
pub fn fig3() -> FigureOutput {
    let g = graph_of(Pattern::Amg2013, &MiniAppConfig::with_procs(2), 0.0, 1);
    let checks = vec![
        (
            "each process sends one message to the other, twice".to_string(),
            g.message_edge_count() == 4,
        ),
        ("two process rows".to_string(), g.world_size() == 2),
    ];
    FigureOutput {
        id: "fig3".to_string(),
        title: "Fig. 3: AMG 2013 communication pattern on 2 MPI processes".to_string(),
        text: ascii::event_graph_lanes(&g),
        svg: Some(svg::event_graph_svg(&g, "Fig. 3")),
        checks,
    }
}

/// Figure 4: two independent 100%-ND runs of the message race with
/// different communication patterns.
pub fn fig4() -> FigureOutput {
    let cfg = MiniAppConfig::with_procs(4);
    let ga = graph_of(Pattern::MessageRace, &cfg, 100.0, 1);
    let mut gb = None;
    let mut seed_b = 0;
    for seed in 2..200 {
        let g = graph_of(Pattern::MessageRace, &cfg, 100.0, seed);
        if g.match_order(Rank(0)) != ga.match_order(Rank(0)) {
            seed_b = seed;
            gb = Some(g);
            break;
        }
    }
    let gb = gb.expect("a differing run exists within 200 seeds");
    let text = format!(
        "(a) seed 1:\n{}\n(b) seed {}:\n{}\nmatch order (a): {:?}\nmatch order (b): {:?}\n",
        ascii::event_graph_lanes(&ga),
        seed_b,
        ascii::event_graph_lanes(&gb),
        ga.match_order(Rank(0)),
        gb.match_order(Rank(0)),
    );
    let svg_combined = format!(
        "{}\n{}",
        svg::event_graph_svg(&ga, "Fig. 4a"),
        svg::event_graph_svg(&gb, "Fig. 4b")
    );
    let checks = vec![
        (
            "same code, same inputs, different match order".to_string(),
            ga.match_order(Rank(0)) != gb.match_order(Rank(0)),
        ),
        (
            "both runs have identical node structure".to_string(),
            ga.node_count() == gb.node_count() && ga.edge_count() == gb.edge_count(),
        ),
    ];
    FigureOutput {
        id: "fig4".to_string(),
        title: "Fig. 4: two non-deterministic executions of the message race (4 processes, \
                100% ND)"
            .to_string(),
        text,
        svg: Some(svg_combined),
        checks,
    }
}

fn violin_figure(
    id: &str,
    title: &str,
    sweep: &Sweep,
    claim: String,
    claim_holds: bool,
) -> FigureOutput {
    let violins: Vec<ViolinSummary> = sweep
        .points
        .iter()
        .filter_map(|p| p.measurement.violin())
        .collect();
    let mut text = ascii::violins(&violins, 48);
    text.push('\n');
    text.push_str(&sweep_table(sweep));
    FigureOutput {
        id: id.to_string(),
        title: title.to_string(),
        text,
        svg: Some(svg::violin_svg(&violins, title, "kernel distance")),
        checks: vec![(claim, claim_holds)],
    }
}

/// Figure 5: kernel distances for unstructured mesh at two process counts
/// (paper: 32 vs 16; more processes ⇒ more non-determinism).
pub fn fig5(scale: &Scale) -> FigureOutput {
    let base = CampaignConfig::new(Pattern::UnstructuredMesh, scale.procs_small).runs(scale.runs);
    let procs = [scale.procs_small as f64, scale.procs_large as f64];
    let sweep =
        sweep(SweepAxis::Procs, &base, &procs, &RunCtx::default()).expect("sweep completes");
    let small = &sweep.points[0].measurement;
    let large = &sweep.points[1].measurement;
    let holds = large.summary.median > small.summary.median
        && large.significantly_greater_than(small, 0.05);
    violin_figure(
        "fig5",
        &format!(
            "Fig. 5: kernel distances, Unstructured Mesh, {} runs ({} vs {} processes)",
            scale.runs, scale.procs_large, scale.procs_small
        ),
        &sweep,
        format!(
            "{} processes more non-deterministic than {} (median {:.3} > {:.3}, MWU p<0.05)",
            scale.procs_large, scale.procs_small, large.summary.median, small.summary.median
        ),
        holds,
    )
}

/// Figure 6: kernel distances for unstructured mesh at 1 vs 2 iterations
/// (paper: 16 processes; more iterations ⇒ more non-determinism).
pub fn fig6(scale: &Scale) -> FigureOutput {
    let base = CampaignConfig::new(Pattern::UnstructuredMesh, scale.procs_small).runs(scale.runs);
    let sweep = sweep(
        SweepAxis::Iterations,
        &base,
        &[1.0, 2.0],
        &RunCtx::default(),
    )
    .expect("sweep completes");
    let one = &sweep.points[0].measurement;
    let two = &sweep.points[1].measurement;
    let holds =
        two.summary.median > one.summary.median && two.significantly_greater_than(one, 0.05);
    violin_figure(
        "fig6",
        &format!(
            "Fig. 6: kernel distances, Unstructured Mesh, {} runs, {} processes (2 vs 1 \
             iterations)",
            scale.runs, scale.procs_small
        ),
        &sweep,
        format!(
            "2 iterations more non-deterministic than 1 (median {:.3} > {:.3}, MWU p<0.05)",
            two.summary.median, one.summary.median
        ),
        holds,
    )
}

/// Figure 7: kernel distance vs percentage of non-determinism for AMG
/// 2013 (paper: 32 processes, 0..100% step 10, 1 node, 1 iteration,
/// 1-byte messages; monotone increase).
pub fn fig7(scale: &Scale) -> FigureOutput {
    let base = CampaignConfig::new(Pattern::Amg2013, scale.amg_procs).runs(scale.runs);
    let percents = SweepAxis::NdPercent.default_points(&base);
    let sweep =
        sweep(SweepAxis::NdPercent, &base, &percents, &RunCtx::default()).expect("sweep completes");
    let rho = sweep.spearman_monotonicity();
    let at_zero = sweep.points[0].measurement.mean();
    let series = sweep.mean_series();
    let violins: Vec<ViolinSummary> = sweep
        .points
        .iter()
        .filter_map(|p| p.measurement.violin())
        .collect();
    let mut text = ascii::series_table(&series, "nd %", "kernel distance");
    text.push('\n');
    text.push_str(&ascii::violins(&violins, 48));
    let title = format!(
        "Fig. 7: kernel distance vs % non-determinism, AMG 2013, {} processes, {} runs/point",
        scale.amg_procs, scale.runs
    );
    let svg_out = format!(
        "{}\n{}",
        svg::line_chart_svg(
            &series,
            &title,
            "percentage of non-determinism",
            "kernel distance"
        ),
        svg::violin_svg(&violins, &title, "kernel distance")
    );
    FigureOutput {
        id: "fig7".to_string(),
        title,
        text,
        svg: Some(svg_out),
        checks: vec![
            (
                format!("distance increases with injected ND% (Spearman rho = {rho:.3} > 0.85)"),
                rho > 0.85,
            ),
            (
                "distance at 0% non-determinism is zero".to_string(),
                at_zero == 0.0,
            ),
        ],
    }
}

/// Figure 8: normalized relative frequency of callstacks in
/// high-non-determinism regions of AMG 2013 (same settings as Fig. 7).
pub fn fig8(scale: &Scale) -> FigureOutput {
    let cfg = CampaignConfig::new(Pattern::Amg2013, scale.amg_procs).runs(scale.runs);
    let (_, ranking) =
        analyze(&cfg, &RootCauseConfig::default(), &RunCtx::default()).expect("campaign completes");
    let items: Vec<(String, f64)> = ranking
        .entries
        .iter()
        .take(8)
        .map(|e| (e.stack.clone(), e.frequency))
        .collect();
    let mut text = ascii::bar_chart(&items, 48);
    text.push('\n');
    text.push_str(&ranking_table(&ranking, 8));
    let top_is_recv = ranking
        .top()
        .map(|t| t.leaf.to_ascii_lowercase().contains("recv"))
        .unwrap_or(false);
    let freqs_normalised = {
        let sum: f64 = ranking.entries.iter().map(|e| e.frequency).sum();
        (sum - 1.0).abs() < 1e-9
    };
    let title = format!(
        "Fig. 8: callstack frequencies in high-ND regions, AMG 2013, {} processes",
        scale.amg_procs
    );
    FigureOutput {
        id: "fig8".to_string(),
        title: title.clone(),
        text,
        svg: Some(svg::bar_chart_svg(
            &items,
            &title,
            "normalized relative frequency",
        )),
        checks: vec![
            (
                "top-ranked call path is a (wildcard) receive — the root source".to_string(),
                top_is_recv,
            ),
            (
                "relative frequencies are normalized (sum to 1)".to_string(),
                freqs_normalised,
            ),
        ],
    }
}

/// Regenerate an artifact by id ("tables", "fig1" … "fig8", or "1".."8").
pub fn by_id(id: &str, scale: &Scale) -> Option<FigureOutput> {
    match id.trim_start_matches("fig") {
        "tables" | "table" => Some(tables()),
        "1" => Some(fig1()),
        "2" => Some(fig2()),
        "3" => Some(fig3()),
        "4" => Some(fig4()),
        "5" => Some(fig5(scale)),
        "6" => Some(fig6(scale)),
        "7" => Some(fig7(scale)),
        "8" => Some(fig8(scale)),
        _ => None,
    }
}

/// All artifact ids, in paper order.
pub const ALL_IDS: [&str; 9] = [
    "tables", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_figures_pass_their_checks() {
        for f in [tables(), fig1(), fig2(), fig3(), fig4()] {
            assert!(f.passed(), "{}: {:?}", f.id, f.checks);
            assert!(!f.text.is_empty());
        }
    }

    #[test]
    fn fig5_quick_scale_passes() {
        let f = fig5(&Scale::quick());
        assert!(f.passed(), "{:?}", f.checks);
        assert!(f.svg.as_deref().unwrap().contains("<polygon"));
    }

    #[test]
    fn fig6_quick_scale_passes() {
        let f = fig6(&Scale::quick());
        assert!(f.passed(), "{:?}", f.checks);
    }

    #[test]
    fn fig7_quick_scale_passes() {
        let f = fig7(&Scale::quick());
        assert!(f.passed(), "{:?}", f.checks);
        assert!(f.svg.as_deref().unwrap().contains("<polyline"));
    }

    #[test]
    fn fig8_quick_scale_passes() {
        let f = fig8(&Scale::quick());
        assert!(f.passed(), "{:?}", f.checks);
        assert!(f.text.contains("MPI_Irecv"));
    }

    #[test]
    fn by_id_resolves_every_artifact() {
        let s = Scale::quick();
        for id in ALL_IDS {
            // Only resolve the cheap ones here; the heavy ones are covered
            // above. by_id must at least recognise the id.
            if matches!(id, "tables" | "fig1" | "fig2" | "fig3") {
                assert!(by_id(id, &s).is_some(), "{id}");
            }
        }
        assert!(by_id("nope", &s).is_none());
        assert!(by_id("fig1", &s).is_some(), "'figN' form must normalise");
    }
}
