//! Mini-application configuration.

use serde::{Deserialize, Serialize};

/// Parameters shared by every packaged communication pattern. These mirror
//  the knobs ANACIN-X exposes to students (paper §II-B): number of MPI
/// processes, percentage of non-determinism, number of compute nodes,
/// number of communication-pattern iterations, and message size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MiniAppConfig {
    /// Number of MPI processes.
    pub procs: u32,
    /// Number of communication-pattern iterations within one execution.
    pub iterations: u32,
    /// Payload size per message, in bytes (the paper's figures use 1).
    pub message_bytes: u64,
    /// Seed fixing the random topology of the unstructured-mesh pattern.
    /// Part of the *program*, not the run: every run of a configuration
    /// uses the same mesh, exactly as a real mesh app re-runs the same
    /// decomposition.
    pub topology_seed: u64,
    /// Out-degree of each rank in the unstructured-mesh pattern.
    pub mesh_degree: u32,
}

impl Default for MiniAppConfig {
    fn default() -> Self {
        MiniAppConfig {
            procs: 4,
            iterations: 1,
            message_bytes: 1,
            topology_seed: 0xA17AC1,
            mesh_degree: 3,
        }
    }
}

impl MiniAppConfig {
    /// A configuration with the given process count, other fields default.
    pub fn with_procs(procs: u32) -> Self {
        MiniAppConfig {
            procs,
            ..Default::default()
        }
    }

    /// Builder-style: set the iteration count.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Panic-checked validation used by the pattern builders.
    pub(crate) fn validate(&self, min_procs: u32) {
        assert!(
            self.procs >= min_procs,
            "pattern requires at least {min_procs} processes, got {}",
            self.procs
        );
        assert!(self.iterations >= 1, "iterations must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = MiniAppConfig::with_procs(16).iterations(2);
        assert_eq!(c.procs, 16);
        assert_eq!(c.iterations, 2);
    }

    #[test]
    fn default_matches_paper_defaults() {
        let c = MiniAppConfig::default();
        assert_eq!(c.message_bytes, 1, "paper figures use 1-byte messages");
        assert_eq!(c.iterations, 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn validate_rejects_too_few_procs() {
        MiniAppConfig::with_procs(1).validate(2);
    }
}
