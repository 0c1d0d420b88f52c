//! Structural diff between two runs of the same program.
//!
//! The kernel distance is a *scalar* proxy; sometimes a student (or a
//! debugger) wants the concrete answer: *which receives matched a
//! different sender?* Two event graphs built from the same program share
//! their node set, so the diff is a positional comparison of receive
//! nodes — effectively a textual "race report" complementing Figure 4.

use crate::graph::{EventGraph, NodeId, NodeKind};
use anacin_mpisim::types::Rank;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One receive that matched differently in the two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecvDiff {
    /// The receiving rank.
    pub rank: Rank,
    /// The receive's index within its rank (program position).
    pub rank_idx: u32,
    /// Matched sender in run A.
    pub src_a: Rank,
    /// Matched sender in run B.
    pub src_b: Rank,
}

/// The diff between two runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunDiff {
    /// Receives that matched different senders, in (rank, position) order.
    pub differing: Vec<RecvDiff>,
    /// Total receives compared.
    pub total_receives: usize,
}

impl RunDiff {
    /// True when the two runs matched every message identically.
    pub fn identical(&self) -> bool {
        self.differing.is_empty()
    }

    /// Fraction of receives that diverged, in `[0, 1]`.
    pub fn divergence_fraction(&self) -> f64 {
        if self.total_receives == 0 {
            0.0
        } else {
            self.differing.len() as f64 / self.total_receives as f64
        }
    }
}

impl fmt::Display for RunDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} of {} receives matched different senders ({:.1}%)",
            self.differing.len(),
            self.total_receives,
            self.divergence_fraction() * 100.0
        )?;
        for d in &self.differing {
            writeln!(
                f,
                "  {} recv#{}: run A matched {}, run B matched {}",
                d.rank, d.rank_idx, d.src_a, d.src_b
            )?;
        }
        Ok(())
    }
}

/// Error when diffing graphs of different programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureMismatch(pub String);

impl fmt::Display for StructureMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graphs are not runs of the same program: {}", self.0)
    }
}

impl std::error::Error for StructureMismatch {}

/// Diff two runs of the same program.
///
/// Fails with [`StructureMismatch`] when the graphs do not share their
/// node skeleton (different programs or different configurations).
pub fn diff(a: &EventGraph, b: &EventGraph) -> Result<RunDiff, StructureMismatch> {
    if a.world_size() != b.world_size() {
        return Err(StructureMismatch(format!(
            "world sizes differ: {} vs {}",
            a.world_size(),
            b.world_size()
        )));
    }
    if a.node_count() != b.node_count() {
        return Err(StructureMismatch(format!(
            "node counts differ: {} vs {}",
            a.node_count(),
            b.node_count()
        )));
    }
    let mut differing = Vec::new();
    let mut total = 0usize;
    for i in 0..a.node_count() {
        let id = NodeId(i as u32);
        let na = a.node(id);
        let nb = b.node(id);
        match (&na.kind, &nb.kind) {
            (NodeKind::Recv { src: sa, .. }, NodeKind::Recv { src: sb, .. }) => {
                total += 1;
                if sa != sb {
                    differing.push(RecvDiff {
                        rank: na.rank,
                        rank_idx: na.rank_idx,
                        src_a: *sa,
                        src_b: *sb,
                    });
                }
            }
            (ka, kb) if ka.mnemonic() != kb.mnemonic() => {
                return Err(StructureMismatch(format!(
                    "node {i} is {} in A but {} in B",
                    ka.mnemonic(),
                    kb.mnemonic()
                )));
            }
            _ => {}
        }
    }
    Ok(RunDiff {
        differing,
        total_receives: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anacin_mpisim::prelude::*;

    fn race(seed: u64) -> EventGraph {
        let mut b = ProgramBuilder::new(5);
        for r in 1..5 {
            b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
        }
        for _ in 1..5 {
            b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
        }
        let t = simulate(&b.build(), &SimConfig::with_nd_percent(100.0, seed)).unwrap();
        EventGraph::from_trace(&t)
    }

    #[test]
    fn identical_runs_diff_empty() {
        let a = race(3);
        let b = race(3);
        let d = diff(&a, &b).unwrap();
        assert!(d.identical());
        assert_eq!(d.divergence_fraction(), 0.0);
        assert_eq!(d.total_receives, 4);
    }

    #[test]
    fn reordered_runs_report_the_racy_receives() {
        let a = race(0);
        let mut other = None;
        for seed in 1..60 {
            let g = race(seed);
            if g.match_order(Rank(0)) != a.match_order(Rank(0)) {
                other = Some(g);
                break;
            }
        }
        let b = other.expect("a reordering seed exists");
        let d = diff(&a, &b).unwrap();
        assert!(!d.identical());
        // All divergent receives are on the racing root.
        assert!(d.differing.iter().all(|x| x.rank == Rank(0)));
        // A permutation differs in at least two positions.
        assert!(d.differing.len() >= 2);
        assert!(d.divergence_fraction() > 0.0);
        let text = d.to_string();
        assert!(text.contains("matched different senders"));
        assert!(text.contains("rank 0 recv#"));
    }

    #[test]
    fn different_programs_are_rejected() {
        let a = race(0);
        let mut b = ProgramBuilder::new(5);
        b.rank(Rank(1)).send(Rank(0), Tag(0), 1);
        b.rank(Rank(0)).recv_any(TagSpec::Any);
        let g = EventGraph::from_trace(&simulate(&b.build(), &SimConfig::deterministic()).unwrap());
        let err = diff(&a, &g).unwrap_err();
        assert!(err.to_string().contains("not runs of the same program"));
        // Different world size.
        let mut b2 = ProgramBuilder::new(3);
        b2.rank(Rank(1)).send(Rank(0), Tag(0), 1);
        b2.rank(Rank(0)).recv_any(TagSpec::Any);
        let g2 =
            EventGraph::from_trace(&simulate(&b2.build(), &SimConfig::deterministic()).unwrap());
        assert!(diff(&a, &g2).is_err());
    }
}
