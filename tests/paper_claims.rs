//! The paper's qualitative claims, verified at laptop scale.
//!
//! Each test corresponds to a figure's caption-level claim; EXPERIMENTS.md
//! records the paper-scale numbers. These run at `Scale::quick()` so the
//! suite stays fast in debug builds.

use anacin_x::course::figures::{self, Scale};

#[test]
fn tables_reproduce() {
    let f = figures::tables();
    assert!(f.passed(), "{:?}", f.checks);
    assert!(f.text.contains("Table I"));
    assert!(f.text.contains("Table II"));
}

#[test]
fn fig1_event_graph_model() {
    let f = figures::fig1();
    assert!(f.passed(), "{:?}", f.checks);
}

#[test]
fn fig2_message_race_shape() {
    let f = figures::fig2();
    assert!(f.passed(), "{:?}", f.checks);
    // Four rows, as in the paper.
    assert!(f.text.contains("rank 3"));
}

#[test]
fn fig3_amg_two_process_shape() {
    let f = figures::fig3();
    assert!(f.passed(), "{:?}", f.checks);
}

#[test]
fn fig4_same_code_different_runs() {
    let f = figures::fig4();
    assert!(f.passed(), "{:?}", f.checks);
    assert!(f.text.contains("match order (a)"));
}

#[test]
fn fig5_more_processes_more_nd() {
    let f = figures::fig5(&Scale::quick());
    assert!(f.passed(), "{:?}", f.checks);
    assert!(f.svg.as_deref().unwrap().contains("<polygon"));
}

#[test]
fn fig6_more_iterations_more_nd() {
    let f = figures::fig6(&Scale::quick());
    assert!(f.passed(), "{:?}", f.checks);
}

#[test]
fn fig7_nd_percentage_is_monotone_knob() {
    let f = figures::fig7(&Scale::quick());
    assert!(f.passed(), "{:?}", f.checks);
    assert!(f.svg.as_deref().unwrap().contains("<polyline"));
}

#[test]
fn fig8_root_sources_are_wildcard_receives() {
    let f = figures::fig8(&Scale::quick());
    assert!(f.passed(), "{:?}", f.checks);
    assert!(f.text.contains("hypre"), "AMG call paths expected");
    assert!(f.text.contains("MPI_Irecv"));
}

#[test]
fn fig7_shape_is_robust_to_the_delay_distribution() {
    // DESIGN.md ablation #4: the monotone ND%→distance trend must not
    // depend on the congestion-delay distribution.
    use anacin_x::mpisim::network::DelayDistribution;
    use anacin_x::prelude::*;
    for delay in [
        DelayDistribution::Exponential { mean_ns: 100.0 },
        DelayDistribution::Uniform {
            lo_ns: 0.0,
            hi_ns: 200.0,
        },
        DelayDistribution::Pareto {
            xm_ns: 40.0,
            alpha: 2.0,
        },
    ] {
        let base = CampaignConfig::new(Pattern::MessageRace, 8)
            .runs(8)
            .delay(delay);
        let percents = [0.0, 25.0, 50.0, 75.0, 100.0];
        let sweep = sweep(SweepAxis::NdPercent, &base, &percents, &RunCtx::default()).unwrap();
        let rho = sweep.spearman_monotonicity();
        assert!(rho > 0.8, "{delay:?}: rho = {rho}");
        assert_eq!(sweep.points[0].measurement.mean(), 0.0, "{delay:?}");
    }
}
