//! Root-cause hunting in an AMG-style application (Use Case 3 / Fig. 8).
//!
//! Scenario: a scientist's multigrid solver gives slightly different
//! answers run to run, and they want to know *which code path* to look
//! at. We run the AMG 2013 pattern (whose call paths mimic hypre's),
//! measure where in logical time the runs diverge, and rank the call
//! paths active there — the wildcard `MPI_Irecv`s inside the hypre-style
//! communication handles come out on top.
//!
//! Run with: `cargo run --release --example root_cause_hunt`

use anacin_x::prelude::*;

fn main() {
    // 1. Collect a sample of runs at full non-determinism, and localise
    //    the divergence along logical time as each run completes.
    let cfg = CampaignConfig::new(Pattern::Amg2013, 8).runs(12);
    let rc = RootCauseConfig::default();
    let (result, ranking) = analyze(&cfg, &rc, &RunCtx::default()).expect("campaign completes");
    println!(
        "ran {} executions of {} on {} processes; mean kernel distance {:.3}\n",
        cfg.runs,
        cfg.pattern,
        cfg.app.procs,
        result.mean_distance()
    );

    // 2. Where in logical time the runs disagree.
    println!(
        "windows with the most run-to-run disagreement: {:?} (of {})",
        ranking.high_slices, rc.slices
    );
    let series: Vec<(f64, f64)> = ranking
        .slice_divergence
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as f64, d))
        .collect();
    println!("{}", ascii::series_table(&series, "window", "divergence"));

    // 3. Rank the call paths active in those windows.
    println!("call paths in high-non-determinism windows (normalized frequency):");
    let items: Vec<(String, f64)> = ranking
        .entries
        .iter()
        .take(6)
        .map(|e| (e.stack.clone(), e.frequency))
        .collect();
    print!("{}", ascii::bar_chart(&items, 44));

    let top = ranking.top().expect("nonempty ranking");
    println!(
        "\nroot source of non-determinism: {}\n(the wildcard receive inside the hypre-style \
         communication handle — exactly where a developer should add ordering or switch to \
         deterministic reductions)",
        top.stack
    );
    assert!(
        top.leaf.to_ascii_lowercase().contains("recv"),
        "expected a receive on top"
    );
}
