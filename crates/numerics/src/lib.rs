//! # anacin-numerics
//!
//! The numerical consequence of communication non-determinism, and its
//! mitigations — the phenomenon that motivates the paper ("in the Enzo
//! software package … different galactic halos were identified across
//! different runs due to the non-deterministic order of message
//! exchanges", §I).
//!
//! [`sum`] implements reductions with different order sensitivity;
//! [`experiment`] runs the message-race pattern under injected ND and
//! reduces each run's contributions in arrival order, demonstrating that:
//!
//! * a naive sequential accumulation is **irreproducible** across runs;
//! * compensated (Kahan) summation tightens the spread;
//! * canonicalising the order (sorted reduction) restores **bitwise**
//!   reproducibility — the "intelligent runtime selection of reduction
//!   algorithms" fix from the paper's reference \[4\].
//!
//! ```
//! use anacin_numerics::prelude::*;
//!
//! let report = run(&ReductionExperiment { procs: 12, runs: 12, ..Default::default() });
//! assert!(report.outcome(Reduction::Sequential).distinct > 1);
//! assert_eq!(report.outcome(Reduction::Sorted).distinct, 1);
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod sum;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::experiment::{
        contributions, run, ReductionExperiment, ReductionOutcome, ReductionReport,
    };
    pub use crate::sum::{
        kahan_sum, pairwise_sum, promote_sum, sequential_sum, sorted_sum, Reduction,
    };
}

pub use experiment::{run, ReductionExperiment, ReductionReport};
pub use sum::Reduction;
