//! The use cases as *executable lessons* (the paper's three, plus an
//! extension lesson on consequences and remedies).
//!
//! The paper builds Use Cases 1–3 on its figures, so a lesson runs the
//! figures of its use case ([`crate::figures`]) and prints each under the
//! Table I goal it checks: an instructor can verify the course material
//! reproduces on their machine with one command. Use Case 4 has no
//! figure; it checks its claims in the figures' `(claim, holds)` form.

use crate::figures::{by_id, FigureOutput, Scale};
use anacin_event_graph::EventGraph;
use anacin_kernels::prelude::{distance, WlKernel};
use anacin_miniapps::{MiniAppConfig, Pattern};
use anacin_mpisim::prelude::*;

/// One of the paper's use cases: the figures students read in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseCase {
    /// Use-case number (1–3).
    pub number: u8,
    /// Title of the lesson.
    pub title: &'static str,
    /// `(goal, figure id)`: each figure with the Table I goal it checks,
    /// in the order the lesson shows them.
    pub figures: &'static [(&'static str, &'static str)],
}

/// Use Cases 1–3 and the figures each one shows.
pub const USE_CASES: [UseCase; 3] = [
    UseCase {
        number: 1,
        title: "Use Case 1: Distributed Computing and Non-determinism",
        figures: &[("A.1", "fig2"), ("A.1", "fig3"), ("A.2", "fig4")],
    },
    UseCase {
        number: 2,
        title: "Use Case 2: Factors that Impact Non-determinism",
        figures: &[("B.1", "fig5"), ("B.2", "fig6")],
    },
    UseCase {
        number: 3,
        title: "Use Case 3: Root Sources of Non-determinism",
        figures: &[("C.1", "fig7"), ("C.2", "fig8")],
    },
];

/// The output of running a lesson.
#[derive(Debug, Clone)]
pub struct LessonReport {
    /// Use-case number (1–4).
    pub use_case: u8,
    /// Title of the lesson.
    pub title: &'static str,
    /// What the lesson shows, each part with the Table I goal it checks
    /// (none for Use Case 4's).
    pub parts: Vec<(Option<&'static str>, FigureOutput)>,
}

impl LessonReport {
    /// True when every claim holds.
    pub fn passed(&self) -> bool {
        self.parts.iter().all(|(_, part)| part.passed())
    }

    /// The lesson as `anacin course --lesson N` prints it: its title, then
    /// each part as [`FigureOutput::render`] prints it, labelled with its
    /// goal.
    pub fn render(&self) -> String {
        let mut out = format!("=== {} ===\n\n", self.title);
        for (goal, part) in &self.parts {
            out.push_str(&part.render(goal.map(|g| format!("Goal {g}")).as_deref()));
            out.push('\n');
        }
        out
    }
}

/// Run lesson `number` (1–4) at `scale`: Use Cases 1–3 run their
/// figures, and Use Case 4 checks reductions and record/replay. `None`
/// for any other number.
pub fn lesson(number: u8, scale: &Scale) -> Option<LessonReport> {
    if number == 4 {
        return Some(use_case_4(scale));
    }
    let use_case = USE_CASES.iter().find(|u| u.number == number)?;
    let parts = use_case
        .figures
        .iter()
        .map(|&(goal, id)| (Some(goal), by_id(id, scale).expect("a figure id")))
        .collect();
    Some(LessonReport {
        use_case: number,
        title: use_case.title,
        parts,
    })
}

/// Use Case 4 (extension): from non-determinism to irreproducible
/// science, and back.
///
/// Beyond the paper's three use cases: demonstrates (a) the numerical
/// consequence of match-order non-determinism (the Enzo phenomenon the
/// paper's introduction motivates with) and (b) its two remedies —
/// canonical reduction orders and ReMPI-style record/replay.
fn use_case_4(scale: &Scale) -> LessonReport {
    use anacin_numerics::prelude::*;

    // (a) Irreproducible reductions.
    // Floors: with fewer than ~11 contributors (or few runs) the sequential
    // f32 sums can coincide bitwise across every arrival order, making the
    // irreproducibility demonstration vacuous at reduced lesson scales.
    let exp = ReductionExperiment {
        procs: scale.procs_small.max(12),
        runs: scale.runs.max(12),
        ..Default::default()
    };
    let report = anacin_numerics::run(&exp);
    let text = report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "  {:>14}: {} distinct result(s), spread {:.3e}\n",
                o.algorithm, o.distinct, o.spread
            )
        })
        .collect();
    let seq = report.outcome(Reduction::Sequential);
    let sorted = report.outcome(Reduction::Sorted);
    let reductions = FigureOutput {
        id: "reductions".to_string(),
        title: format!(
            "Reduction reproducibility over {} runs ({} contributors)",
            exp.runs,
            exp.procs - 1
        ),
        text,
        svg: None,
        checks: vec![
            (
                format!(
                    "arrival-order reductions are irreproducible across runs ({} distinct \
                     sequential sums)",
                    seq.distinct
                ),
                seq.distinct > 1,
            ),
            (
                format!(
                    "canonical (sorted) reduction order restores bitwise reproducibility ({} \
                     distinct sorted sums)",
                    sorted.distinct
                ),
                sorted.distinct == 1,
            ),
        ],
    };

    // (b) Record/replay pins the communication itself.
    let program = Pattern::UnstructuredMesh.build(&MiniAppConfig::with_procs(scale.procs_small));
    let reference =
        simulate(&program, &SimConfig::with_nd_percent(100.0, 42)).expect("reference run");
    let record = MatchRecord::from_trace(&reference);
    let g_ref = EventGraph::from_trace(&reference);
    let kernel = WlKernel::default();
    let mut max_replay: f64 = 0.0;
    let mut max_free: f64 = 0.0;
    for seed in 100..(100 + scale.runs as u64) {
        let sim = SimConfig::with_nd_percent(100.0, seed);
        let free = simulate(&program, &sim).expect("free run");
        let replayed = simulate_replay(&program, &sim, &record).expect("replayed run");
        max_free = max_free.max(distance(&kernel, &g_ref, &EventGraph::from_trace(&free)));
        max_replay = max_replay.max(distance(
            &kernel,
            &g_ref,
            &EventGraph::from_trace(&replayed),
        ));
    }
    let replay = FigureOutput {
        id: "replay".to_string(),
        title: "Record/replay".to_string(),
        text: format!(
            "free runs reach kernel distance {max_free:.3}; replayed runs stay at \
             {max_replay:.3}\n"
        ),
        svg: None,
        checks: vec![(
            format!(
                "replaying recorded match decisions suppresses all communication ND (max free \
                 {max_free:.3}, max replayed {max_replay:.3})"
            ),
            max_replay == 0.0 && max_free > 0.0,
        )],
    };

    LessonReport {
        use_case: 4,
        title: "Use Case 4 (extension): Consequences and Remedies",
        parts: vec![(None, reductions), (None, replay)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::ALL_IDS;
    use crate::levels::GOALS;

    #[test]
    fn use_case_1_passes() {
        let r = lesson(1, &Scale::quick()).unwrap();
        let text = r.render();
        assert_eq!(r.use_case, 1);
        assert!(r.passed(), "{text}");
        assert!(text.contains("=== Goal A.1 — Fig. 2: "), "{text}");
        assert!(text.contains("=== Goal A.2 — Fig. 4: "), "{text}");
    }

    #[test]
    fn use_case_2_passes() {
        let r = lesson(2, &Scale::quick()).unwrap();
        let text = r.render();
        assert_eq!(r.use_case, 2);
        assert!(r.passed(), "{text}");
        assert!(text.contains("=== Goal B.1 — Fig. 5: "), "{text}");
        assert!(text.contains("=== Goal B.2 — Fig. 6: "), "{text}");
    }

    #[test]
    fn use_case_3_passes() {
        let r = lesson(3, &Scale::quick()).unwrap();
        let text = r.render();
        assert_eq!(r.use_case, 3);
        assert!(r.passed(), "{text}");
        assert!(text.contains("=== Goal C.1 — Fig. 7: "), "{text}");
        assert!(text.contains("=== Goal C.2 — Fig. 8: "), "{text}");
    }

    #[test]
    fn each_use_case_shows_its_figures_under_their_goals() {
        let shown: Vec<(u8, &[(&str, &str)])> =
            USE_CASES.iter().map(|u| (u.number, u.figures)).collect();
        assert_eq!(
            shown,
            [
                (1, &[("A.1", "fig2"), ("A.1", "fig3"), ("A.2", "fig4")][..]),
                (2, &[("B.1", "fig5"), ("B.2", "fig6")][..]),
                (3, &[("C.1", "fig7"), ("C.2", "fig8")][..]),
            ]
        );
        for (goal, id) in USE_CASES.iter().flat_map(|u| u.figures) {
            assert!(GOALS.iter().any(|g| g.id == *goal), "{goal}");
            assert!(ALL_IDS.contains(id), "{id}");
        }
        assert!(lesson(5, &Scale::quick()).is_none());
    }

    #[test]
    fn use_case_4_passes() {
        let r = use_case_4(&Scale::quick());
        let text = r.render();
        assert_eq!(r.use_case, 4);
        assert!(r.passed(), "{text}");
        assert!(text.contains("=== Record/replay ==="), "{text}");
    }
}
