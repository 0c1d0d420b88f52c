//! # anacin-course
//!
//! The research-based course module itself — the paper's deliverable —
//! encoded as data and executable lessons:
//!
//! * [`levels`] — the three levels and their learning objectives
//!   (paper Table I);
//! * [`prereqs`] — prerequisite knowledge per level (paper Table II);
//! * [`figures`] — every table and figure of the paper, regenerated with
//!   its shape checks (`anacin figure`);
//! * [`lessons`] — the use cases as *executable* lessons: Use Cases 1–3
//!   run the figures students read in them, each under the Table I goal
//!   it checks (runs differ at 100% ND; more processes/iterations ⇒ more
//!   ND; the ND% knob is monotone; racy receives top the callstack
//!   ranking), and Use Case 4 checks reductions and record/replay;
//! * [`quiz`] — the comprehension questions each use case opens with,
//!   with reference answers.
//!
//! ```
//! use anacin_course::prelude::*;
//!
//! // Table I is data, not prose:
//! assert_eq!(goals_of(Level::Advanced).len(), 2);
//! // And the lessons actually run their figures:
//! let report = lesson(1, &Scale::quick()).unwrap();
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]

pub mod exercises;
pub mod figures;
pub mod lessons;
pub mod levels;
pub mod prereqs;
pub mod quiz;
pub mod related_work;
pub mod tutorial;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::exercises::{by_id as exercise_by_id, Exercise, EXERCISES};
    pub use crate::figures::{FigureOutput, Scale};
    pub use crate::lessons::{lesson, LessonReport, UseCase, USE_CASES};
    pub use crate::levels::{goals_of, table_i, Goal, Level, GOALS};
    pub use crate::prereqs::{prereqs_of, table_ii, Prerequisite, PREREQUISITES};
    pub use crate::quiz::{questions_of, Question, QUESTIONS};
    pub use crate::related_work::{comparison, Tool, TOOLS};
    pub use crate::tutorial::{agenda, total_minutes, Session, HALF_DAY};
}

pub use lessons::LessonReport;
pub use levels::Level;
