//! # anacin-testkit
//!
//! A deterministic-simulation test harness for the `anacin-rs` pipeline:
//! seeded random generation of arbitrary-but-terminating MPI programs
//! ([`generator`]), structural trace validation ([`validate`]), and
//! differential/metamorphic oracles ([`oracles`]) that must hold for every
//! program at every non-determinism level.
//!
//! The design follows deterministic-simulation testing as practised on
//! distributed databases: because the simulator is a pure function of
//! `(program, config)`, a single `u64` seed reproduces any failure exactly
//! — the generator, the network delays and the matcher all derive from it.
//! The harness therefore needs no golden outputs; it checks *laws*:
//!
//! ```
//! use anacin_testkit::prelude::*;
//!
//! // One seed = one random program + the full oracle battery.
//! let summary = check_seed(42).expect("all oracles hold");
//! assert!(summary.validation.messages > 0);
//! ```
//!
//! The property suites drive [`check_seed`](oracles::check_seed)
//! across hundreds of seeds; the CLI exposes the same entry points as
//! `anacin testkit gen` and `anacin testkit check`.

#![warn(missing_docs)]

pub mod generator;
pub mod oracles;
pub mod validate;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::generator::{generate, GenConfig, GeneratedProgram, RoundKind};
    pub use crate::oracles::{
        check_generated, check_seed, oracle_append_invariance, oracle_bit_reproducibility,
        oracle_kernel_axioms, oracle_nd0_seed_invariance, oracle_replay_zero_distance,
        oracle_schedule_exhaustiveness, oracle_thread_invariance, OracleSummary,
    };
    pub use crate::validate::{validate_replay_alignment, validate_trace, ValidationReport};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use anacin_mpisim::prelude::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 7, 0xDEAD_BEEF] {
            let a = generate(&GenConfig::from_seed(seed));
            let b = generate(&GenConfig::from_seed(seed));
            assert_eq!(a.program.world_size(), b.program.world_size());
            assert_eq!(a.round_kinds, b.round_kinds);
            assert_eq!(a.chaotic_ranks, b.chaotic_ranks);
            for r in 0..a.program.world_size() {
                assert_eq!(a.program.ops(Rank(r)), b.program.ops(Rank(r)));
            }
        }
    }

    #[test]
    fn generated_programs_are_statically_clean() {
        for seed in 0..40 {
            let gp = generate(&GenConfig::from_seed(seed));
            gp.program
                .check_balance()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            gp.program
                .check_requests()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn chaotic_ranks_only_in_pure_p2p_programs() {
        for seed in 0..200 {
            let gp = generate(&GenConfig::from_seed(seed));
            if !gp.chaotic_ranks.is_empty() {
                assert!(
                    gp.round_kinds.iter().all(|k| *k == RoundKind::PointToPoint),
                    "seed {seed}: chaotic ranks in a program with collectives/exchanges"
                );
            }
        }
    }

    #[test]
    fn config_clamps_out_of_range_values() {
        let cfg = GenConfig {
            world_size: 99,
            rounds: 100,
            max_sends: 0,
            wildcard_prob: 2.0,
            nonblocking_prob: -1.0,
            collective_prob: 0.0,
            exchange_prob: 0.0,
            chaos_prob: 0.0,
            seed: 5,
        };
        let gp = generate(&cfg);
        assert_eq!(gp.program.world_size(), 16);
        assert_eq!(gp.round_kinds.len(), 8);
        check_generated(&gp).unwrap();
    }

    #[test]
    fn full_battery_over_a_seed_range() {
        for seed in 0..12 {
            let summary = check_seed(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(summary.kernel_pairs > 0);
        }
    }

    #[test]
    fn validator_rejects_cross_program_traces() {
        // A trace from one program must not validate against a different
        // program's op counts.
        let a = generate(&GenConfig::from_seed(3));
        let b = generate(&GenConfig::from_seed(4));
        let t = simulate(&a.program, &SimConfig::deterministic()).unwrap();
        assert!(validate_trace(&a.program, &t).is_ok());
        assert!(validate_trace(&b.program, &t).is_err());
    }

    #[test]
    fn exhaustiveness_oracle_reports_a_failed_walk() {
        let mut b = ProgramBuilder::new(1);
        b.rank(Rank(0)).wait(anacin_mpisim::types::ReqSlot(3));
        let err = oracle_schedule_exhaustiveness(&b.build(), &[1], &ExploreConfig::default())
            .unwrap_err();
        assert!(err.contains("unknown request slot 3"), "{err}");
    }

    /// Nightly-tier sweep: thousands of generated programs through the
    /// full battery. A 20k-seed run of this sweep is what surfaced the
    /// ssend-to-chaotic-rank deadlock documented in [`crate::generator`].
    #[test]
    #[ignore = "minutes-long sweep; run with `cargo test --release -- --ignored`"]
    fn stress_sweep_five_thousand_seeds() {
        for seed in 0..5000u64 {
            check_seed(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// Nightly-tier exhaustiveness sweep: 500 small generated programs,
    /// each checked under [`oracle_schedule_exhaustiveness`] — a complete
    /// `mpisim::explore` enumeration must contain the schedule of every
    /// sampled run, and explored schedules must replay to themselves.
    /// Programs whose walk truncates are skipped (and counted, so the
    /// sweep fails loudly if it stops asserting anything at all).
    #[test]
    #[ignore = "nightly sweep; run with `cargo test --release -- --ignored`"]
    fn nightly_schedule_exhaustiveness_sweep() {
        let mut truncated = 0usize;
        for seed in 0..500u64 {
            // Small pure-p2p shapes: big enough to race, small enough
            // that the default budgets enumerate completely.
            let cfg = GenConfig {
                world_size: 2 + (seed % 3) as u32,
                rounds: 1 + (seed / 3 % 2) as u32,
                max_sends: 1 + (seed / 7 % 2) as u32,
                wildcard_prob: (seed % 11) as f64 / 10.0,
                nonblocking_prob: (seed % 7) as f64 / 6.0,
                collective_prob: 0.0,
                exchange_prob: 0.0,
                chaos_prob: if seed % 5 == 0 { 0.3 } else { 0.0 },
                seed,
            };
            let gp = generate(&cfg);
            let sample: Vec<u64> = (0..20)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            match oracle_schedule_exhaustiveness(&gp.program, &sample, &ExploreConfig::default()) {
                Ok(Some(_)) => {}
                Ok(None) => truncated += 1,
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        assert!(
            truncated < 250,
            "{truncated}/500 programs truncated — the sweep is asserting too little"
        );
    }

    #[test]
    fn replay_alignment_catches_foreign_records() {
        // Align a replayed trace against the record of a *different* run:
        // with 100% ND on a wildcard-heavy program this must eventually
        // disagree (differential sanity that the checker can fail at all).
        let mut disagreed = false;
        for seed in 0..50 {
            let gp = generate(&GenConfig::from_seed(seed));
            let t1 = simulate(&gp.program, &SimConfig::with_nd_percent(100.0, 1)).unwrap();
            let t2 = simulate(&gp.program, &SimConfig::with_nd_percent(100.0, 2)).unwrap();
            let rec1 = anacin_mpisim::replay::MatchRecord::from_trace(&t1);
            if validate_replay_alignment(&t2, &rec1).is_err() {
                disagreed = true;
                break;
            }
        }
        assert!(disagreed, "no seed produced divergent free runs");
    }
}
