//! Differential and metamorphic oracles over the simulator pipeline.
//!
//! An *oracle* here is a property that must hold for **every** program the
//! generator can produce, at **every** non-determinism level — so the
//! harness never needs a known-good output to compare against:
//!
//! * **bit reproducibility** — the simulator is a pure function of
//!   `(program, config)`: the same seed yields the identical trace;
//! * **seed invariance at 0% ND** — with non-determinism off, the seed
//!   must not matter: all seeds give the same match order and zero kernel
//!   distance;
//! * **replay collapses ND to zero** — recording one run's matching
//!   decisions and replaying them under fresh seeds must reproduce the
//!   recorded match order exactly and give zero kernel distance, at any ND
//!   level (the paper's ReMPI demonstration, promoted to a law);
//! * **kernel-distance axioms** — for every kernel in `anacin-kernels`,
//!   `d(g, g) = 0`, `d(g, h) = d(h, g)`, `d(g, h) >= 0`;
//! * **thread invariance** — Gram matrices are identical whatever worker
//!   thread count computed them;
//! * **schedule exhaustiveness** — a complete `mpisim::explore`
//!   enumeration contains the schedule realised by every sampled run, and
//!   explored schedules replay through the engine to their own ids.

use crate::generator::{generate, GenConfig, GeneratedProgram};
use crate::validate::{validate_replay_alignment, validate_trace, ValidationReport};
use anacin_event_graph::EventGraph;
use anacin_kernels::prelude::*;
use anacin_mpisim::prelude::*;
use anacin_mpisim::replay::MatchRecord;

/// Kernel-distance equality tolerance. Most feature maps are
/// integer-counted and exact, but the graphlet kernel's sampled
/// frequencies leave `sqrt`-of-epsilon residue in self-distances
/// (~1.5e-8 observed), so the tolerance sits comfortably above that.
const TOL: f64 = 1e-6;

/// All kernels under test, boxed once.
fn all_kernels() -> Vec<(&'static str, Box<dyn GraphKernel>)> {
    vec![
        ("wl", Box::new(WlKernel::default())),
        (
            "vertex-histogram",
            Box::new(VertexHistogramKernel::default()),
        ),
        ("edge-histogram", Box::new(EdgeHistogramKernel::default())),
        ("shortest-path", Box::new(ShortestPathKernel::default())),
        ("graphlet", Box::new(GraphletKernel::default())),
    ]
}

fn sim(p: &Program, nd: f64, seed: u64) -> Result<Trace, String> {
    simulate(p, &SimConfig::with_nd_percent(nd, seed))
        .map_err(|e| format!("simulate(nd={nd}, seed={seed}) failed: {e:?}"))
}

fn traces_identical(a: &Trace, b: &Trace) -> bool {
    (0..a.world_size()).all(|r| a.rank_events(Rank(r)) == b.rank_events(Rank(r)))
        && a.meta.makespan == b.meta.makespan
}

/// Same program, same config, twice: the traces must be identical events,
/// times and all.
pub fn oracle_bit_reproducibility(p: &Program, nd: f64, seed: u64) -> Result<(), String> {
    let a = sim(p, nd, seed)?;
    let b = sim(p, nd, seed)?;
    if !traces_identical(&a, &b) {
        return Err(format!(
            "two simulations with nd={nd} seed={seed} produced different traces"
        ));
    }
    Ok(())
}

/// At 0% ND the seed must be irrelevant: identical match orders and zero
/// kernel distance across all `seeds`.
pub fn oracle_nd0_seed_invariance(p: &Program, seeds: &[u64]) -> Result<(), String> {
    let base = sim(p, 0.0, seeds[0])?;
    let base_graph = EventGraph::from_trace(&base);
    let wl = WlKernel::default();
    for &seed in &seeds[1..] {
        let t = sim(p, 0.0, seed)?;
        for r in 0..p.world_size() {
            if t.match_order(Rank(r)) != base.match_order(Rank(r)) {
                return Err(format!(
                    "0% ND but seeds {} and {seed} disagree on rank {r}'s match order",
                    seeds[0]
                ));
            }
        }
        let d = distance(&wl, &base_graph, &EventGraph::from_trace(&t));
        if d > TOL {
            return Err(format!(
                "0% ND but seeds {} and {seed} are {d} apart in WL kernel distance",
                seeds[0]
            ));
        }
    }
    Ok(())
}

/// Record one run at `nd`, replay it under each of `replay_seeds`: the
/// replayed trace must align with the record receive-for-receive and sit at
/// zero kernel distance from the recorded run.
pub fn oracle_replay_zero_distance(
    p: &Program,
    nd: f64,
    record_seed: u64,
    replay_seeds: &[u64],
) -> Result<usize, String> {
    let recorded = sim(p, nd, record_seed)?;
    let record = MatchRecord::from_trace(&recorded);
    let recorded_graph = EventGraph::from_trace(&recorded);
    let wl = WlKernel::default();
    let mut checked = 0;
    for &seed in replay_seeds {
        let replayed = simulate_replay(p, &SimConfig::with_nd_percent(nd, seed), &record)
            .map_err(|e| format!("replay under seed {seed} failed: {e:?}"))?;
        checked += validate_replay_alignment(&replayed, &record)?;
        for r in 0..p.world_size() {
            if replayed.match_order(Rank(r)) != recorded.match_order(Rank(r)) {
                return Err(format!(
                    "replay under seed {seed} changed rank {r}'s match order"
                ));
            }
        }
        let d = distance(&wl, &recorded_graph, &EventGraph::from_trace(&replayed));
        if d > TOL {
            return Err(format!(
                "replay under seed {seed} left WL kernel distance {d}, expected 0"
            ));
        }
    }
    Ok(checked)
}

/// The kernel-distance axioms — identity, symmetry, non-negativity — for
/// every kernel in `anacin-kernels`, over every pair in `graphs`.
pub fn oracle_kernel_axioms(graphs: &[EventGraph]) -> Result<usize, String> {
    let mut checked = 0;
    for (name, k) in all_kernels() {
        for (i, g) in graphs.iter().enumerate() {
            let self_d = distance(k.as_ref(), g, g);
            if self_d.is_nan() || self_d.abs() > TOL {
                return Err(format!("{name}: d(g{i}, g{i}) = {self_d}, expected 0"));
            }
            for (j, h) in graphs.iter().enumerate().skip(i + 1) {
                let gh = distance(k.as_ref(), g, h);
                let hg = distance(k.as_ref(), h, g);
                if !gh.is_finite() || gh < 0.0 {
                    return Err(format!("{name}: d(g{i}, g{j}) = {gh}, not a distance"));
                }
                if (gh - hg).abs() > TOL {
                    return Err(format!(
                        "{name}: d(g{i}, g{j}) = {gh} but d(g{j}, g{i}) = {hg}"
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// A complete schedule-space enumeration contains the schedule realised
/// by **every** sampled run — `mpisim::explore` is exhaustive, not just
/// sound. Returns `Ok(None)` when a budget truncated the walk (nothing
/// can be asserted about an incomplete set), otherwise `Ok(Some(n))`
/// with the size of the enumerated space. Seeds whose free run deadlocks
/// are skipped: the oracle constrains only runs that complete. A walk
/// that fails with a simulator error is an `Err`.
pub fn oracle_schedule_exhaustiveness(
    p: &Program,
    seeds: &[u64],
    xcfg: &ExploreConfig,
) -> Result<Option<usize>, String> {
    let report =
        explore(p, xcfg).map_err(|e| format!("exploring the schedule space failed: {e}"))?;
    if !report.is_complete() {
        return Ok(None);
    }
    let ids: std::collections::HashSet<u64> = report.schedules.iter().map(|s| s.id().0).collect();
    for &seed in seeds {
        let Ok(t) = simulate(p, &SimConfig::with_nd_percent(100.0, seed)) else {
            continue;
        };
        let id = Schedule::from_trace(&t).id();
        if !ids.contains(&id.0) {
            return Err(format!(
                "seed {seed} realised schedule {id} missing from a complete \
                 enumeration of {} schedule(s)",
                ids.len()
            ));
        }
    }
    // Round-trip spot check: the first explored schedule replays through
    // the real engine back to its own fingerprint.
    if let Some(s) = report.schedules.first() {
        let seed = seeds.first().copied().unwrap_or(1);
        let t = simulate_scheduled(p, &SimConfig::with_nd_percent(100.0, seed), s)
            .map_err(|e| format!("replaying an explored schedule failed: {e:?}"))?;
        let rt = Schedule::from_trace(&t).id();
        if rt != s.id() {
            return Err(format!("explored schedule {} replayed to {rt}", s.id()));
        }
    }
    Ok(Some(report.schedules.len()))
}

/// Growing a Gram matrix one run at a time with `gram_append` must be
/// bit-identical to the one-shot recompute — under both dot kinds, and
/// also for salted replicas of the runs grown past
/// [`LABEL_MAJOR_MIN_RUNS`], where the recompute is label-major — and
/// the appended matrix must still satisfy the distance axioms: zero
/// diagonal (a replayed run is zero distance from itself), symmetry,
/// and non-negativity.
pub fn oracle_append_invariance(graphs: &[EventGraph]) -> Result<(), String> {
    let wl = WlKernel::default();
    let feats: Vec<SparseFeatures> = graphs.iter().map(|g| wl.features(g)).collect();
    if feats.is_empty() {
        return Ok(());
    }
    // Each replica keeps its source run's labels plus one of its own.
    let wide: Vec<SparseFeatures> = (0..=LABEL_MAJOR_MIN_RUNS)
        .map(|i| {
            let mut pairs: Vec<(u64, f64)> = feats[i % feats.len()].iter().collect();
            pairs.push((u64::MAX - i as u64, 0.5 + i as f64));
            SparseFeatures::from_pairs(pairs)
        })
        .collect();
    for (set, start) in [(&feats, 1), (&wide, LABEL_MAJOR_MIN_RUNS - 1)] {
        let full = gram_from_features_with_metrics("wl", set, 2, None);
        for dot in [DotKind::Scalar, DotKind::Blocked] {
            let mut grown = gram_from_features_with_metrics("wl", &set[..start], 2, None);
            for upto in start + 1..=set.len() {
                grown = gram_append(&grown, &set[..upto], 2, dot, None);
            }
            check_appended(&grown, &full, dot)?;
        }
    }
    Ok(())
}

/// `grown` equals `full` bit for bit and satisfies the distance axioms.
fn check_appended(grown: &KernelMatrix, full: &KernelMatrix, dot: DotKind) -> Result<(), String> {
    let n = full.len();
    for i in 0..n {
        for j in 0..n {
            if grown.value(i, j).to_bits() != full.value(i, j).to_bits() {
                return Err(format!(
                    "gram_append({dot}) diverged from the {n}-run recompute at ({i},{j}): \
                     {} vs {}",
                    grown.value(i, j),
                    full.value(i, j)
                ));
            }
        }
    }
    for i in 0..n {
        let self_d = grown.distance(i, i);
        if self_d != 0.0 {
            return Err(format!("appended gram: d({i},{i}) = {self_d}, expected 0"));
        }
        for j in i + 1..n {
            let dij = grown.distance(i, j);
            let dji = grown.distance(j, i);
            if !dij.is_finite() || dij < 0.0 || dij.to_bits() != dji.to_bits() {
                return Err(format!(
                    "appended gram: d({i},{j}) = {dij}, d({j},{i}) = {dji}"
                ));
            }
        }
    }
    Ok(())
}

/// The landmark approximation must stay on the right side of its
/// claims: the matrix is symmetric, the reported Frobenius bound
/// dominates the true error against the exact matrix, a full landmark
/// set reproduces the exact matrix to rounding, and a duplicated run
/// (the replay case) stays at ~zero approximate distance from its twin.
pub fn oracle_approx_bound(graphs: &[EventGraph]) -> Result<(), String> {
    let wl = WlKernel::default();
    let mut feats: Vec<SparseFeatures> = graphs.iter().map(|g| wl.features(g)).collect();
    // Duplicate the first run: an exact replay in feature space.
    feats.push(feats[0].clone());
    let n = feats.len();
    let exact = gram_from_features_with_metrics("wl", &feats, 2, None);
    let scale: f64 = (0..n).map(|i| exact.value(i, i)).sum::<f64>().max(1.0);
    for k in [n.div_ceil(2), n] {
        let approx = landmark_gram("wl", &feats, k, 2, DotKind::Scalar, None);
        if !approx.error_bound.is_finite() || approx.error_bound < 0.0 {
            return Err(format!(
                "landmark_gram(k={k}) reported error bound {}",
                approx.error_bound
            ));
        }
        let mut err2 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let asym = (approx.matrix.value(i, j) - approx.matrix.value(j, i)).abs();
                if asym > TOL * scale {
                    return Err(format!("landmark_gram(k={k}) asymmetric at ({i},{j})"));
                }
                let e = exact.value(i, j) - approx.matrix.value(i, j);
                err2 += e * e;
            }
        }
        if err2.sqrt() > approx.error_bound + TOL * scale {
            return Err(format!(
                "landmark_gram(k={k}) true error {} exceeds reported bound {}",
                err2.sqrt(),
                approx.error_bound
            ));
        }
        if k == n && err2.sqrt() > TOL * scale {
            return Err(format!(
                "full landmark set left Frobenius error {}",
                err2.sqrt()
            ));
        }
        let twin_d = approx.matrix.distance(0, n - 1).abs();
        if k == n && twin_d > TOL * scale.sqrt() {
            return Err(format!(
                "replayed run sits {twin_d} from its twin in the approximate matrix"
            ));
        }
    }
    Ok(())
}

/// Gram matrices must not depend on the worker thread count.
pub fn oracle_thread_invariance(graphs: &[EventGraph]) -> Result<(), String> {
    let wl = WlKernel::default();
    let serial = gram_matrix(&wl, graphs, 1);
    let parallel = gram_matrix(&wl, graphs, 4);
    for i in 0..graphs.len() {
        for j in 0..graphs.len() {
            if serial.value(i, j) != parallel.value(i, j) {
                return Err(format!(
                    "gram[{i}][{j}] differs across thread counts: {} vs {}",
                    serial.value(i, j),
                    parallel.value(i, j)
                ));
            }
        }
    }
    Ok(())
}

/// Everything the harness asserts about one generated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSummary {
    /// Validator counts from the highest-ND run.
    pub validation: ValidationReport,
    /// Receives whose replay decisions were checked against the record.
    pub replayed_receives: usize,
    /// Kernel-axiom pairs checked (per kernel).
    pub kernel_pairs: usize,
}

/// Generate the program for `seed` and run the full battery: structural
/// validation at 0/50/100% ND plus every oracle. This is the harness's
/// single-seed entry point, shared by the property suite and the CLI.
pub fn check_seed(seed: u64) -> Result<OracleSummary, String> {
    check_generated(&generate(&GenConfig::from_seed(seed)))
}

/// Run the full battery against an already generated program.
pub fn check_generated(gp: &GeneratedProgram) -> Result<OracleSummary, String> {
    let p = &gp.program;
    let seed = gp.config.seed;
    p.check_balance()
        .map_err(|e| format!("generator emitted unbalanced program: {e}"))?;
    p.check_requests()
        .map_err(|e| format!("generator emitted bad request usage: {e}"))?;

    let mut validation = ValidationReport::default();
    let mut graphs = Vec::new();
    for nd in [0.0, 50.0, 100.0] {
        let t = sim(p, nd, seed)?;
        validation = validate_trace(p, &t).map_err(|e| format!("nd={nd}: {e}"))?;
        graphs.push(EventGraph::from_trace(&t));
    }

    oracle_bit_reproducibility(p, 100.0, seed)?;
    oracle_nd0_seed_invariance(p, &[seed, seed ^ 1, seed.wrapping_add(17)])?;
    let replayed_receives =
        oracle_replay_zero_distance(p, 100.0, seed, &[seed ^ 2, seed.wrapping_add(33)])?;
    let kernel_pairs = oracle_kernel_axioms(&graphs)?;
    oracle_thread_invariance(&graphs)?;
    oracle_append_invariance(&graphs)?;
    oracle_approx_bound(&graphs)?;

    Ok(OracleSummary {
        validation,
        replayed_receives,
        kernel_pairs,
    })
}
