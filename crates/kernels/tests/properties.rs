//! Property-based tests of kernel mathematics.

use anacin_event_graph::{EventGraph, LabelPolicy};
use anacin_kernels::prelude::*;
use anacin_mpisim::prelude::*;
use proptest::prelude::*;

fn race_graph(procs: u32, nd: f64, seed: u64) -> EventGraph {
    let mut b = ProgramBuilder::new(procs);
    for r in 1..procs {
        b.rank(Rank(r)).send(Rank(0), Tag(0), 1);
    }
    for _ in 1..procs {
        b.rank(Rank(0)).recv_any(TagSpec::Tag(Tag(0)));
    }
    let t = simulate(&b.build(), &SimConfig::with_nd_percent(nd, seed)).unwrap();
    EventGraph::from_trace(&t)
}

fn arb_kernel() -> impl Strategy<Value = usize> {
    0usize..5
}

fn kernel_by_index(i: usize) -> Box<dyn GraphKernel> {
    match i {
        0 => Box::new(WlKernel::default()),
        1 => Box::new(WlKernel {
            iterations: 1,
            policy: LabelPolicy::RankTypePeer,
        }),
        2 => Box::new(VertexHistogramKernel::default()),
        3 => Box::new(EdgeHistogramKernel::default()),
        _ => Box::new(ShortestPathKernel::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel values are symmetric and satisfy Cauchy–Schwarz:
    /// k(G,H)² ≤ k(G,G)·k(H,H).
    #[test]
    fn kernels_are_symmetric_and_cauchy_schwarz(
        ki in arb_kernel(),
        procs in 2u32..8,
        seed_a in 0u64..40,
        seed_b in 40u64..80,
    ) {
        let k = kernel_by_index(ki);
        let g = race_graph(procs, 100.0, seed_a);
        let h = race_graph(procs, 100.0, seed_b);
        let kgh = k.value(&g, &h);
        let khg = k.value(&h, &g);
        prop_assert!((kgh - khg).abs() < 1e-9);
        let kgg = k.value(&g, &g);
        let khh = k.value(&h, &h);
        prop_assert!(kgh * kgh <= kgg * khh * (1.0 + 1e-9));
        // Distance properties follow.
        let d = kernel_distance(kgg, khh, kgh);
        prop_assert!(d >= 0.0);
        prop_assert_eq!(kernel_distance(kgg, kgg, kgg), 0.0);
    }

    /// Feature dot products agree with distance(): ‖φ(G)−φ(H)‖² equals
    /// k(G,G)+k(H,H)−2k(G,H) by expansion.
    #[test]
    fn distance_expansion_identity(
        ki in arb_kernel(),
        seed in 0u64..60,
    ) {
        let k = kernel_by_index(ki);
        let g = race_graph(5, 100.0, seed);
        let h = race_graph(5, 100.0, seed + 1000);
        let fg = k.features(&g);
        let fh = k.features(&h);
        let direct = {
            let mut diff2 = 0.0;
            let mut ids: std::collections::HashSet<u64> =
                fg.iter().map(|(id, _)| id).collect();
            ids.extend(fh.iter().map(|(id, _)| id));
            for id in ids {
                diff2 += (fg.get(id) - fh.get(id)).powi(2);
            }
            diff2.sqrt()
        };
        let via_kernel = kernel_distance(fg.norm_sq(), fh.norm_sq(), fg.dot(&fh));
        prop_assert!((direct - via_kernel).abs() < 1e-6,
            "direct {direct} vs kernel {via_kernel}");
    }

    /// MDS embeddings never exaggerate distances (classical MDS projects,
    /// so embedded distances are bounded by the originals up to noise).
    #[test]
    fn mds_is_contractive(
        n in 2usize..8,
        spread in 0.1f64..10.0,
    ) {
        // Points on a line with the given spacing.
        let e = mds_from_distances(n, |i, j| (i as f64 - j as f64).abs() * spread);
        prop_assert_eq!(e.points.len(), n);
        for i in 0..n {
            for j in 0..n {
                let de = embedded_distance(e.points[i], e.points[j]);
                let orig = (i as f64 - j as f64).abs() * spread;
                prop_assert!(de <= orig + 1e-6, "({i},{j}): {de} > {orig}");
            }
        }
    }

    /// Growing a Gram matrix run-by-run with `gram_append` is
    /// bit-identical to the full recompute, for any prefix split, thread
    /// count, and dot kind — including a matrix grown pairwise past
    /// `LABEL_MAJOR_MIN_RUNS`, whose recompute is label-major.
    #[test]
    fn gram_append_matches_full_recompute(
        small_n in 2usize..7,
        above_crossover in 0usize..2,
        split in 1usize..6,
        threads in 1usize..5,
        dot_i in 0usize..2,
        seed in 0u64..20,
    ) {
        let dot = if dot_i == 0 { DotKind::Scalar } else { DotKind::Blocked };
        let (n, start) = if above_crossover == 1 {
            (LABEL_MAJOR_MIN_RUNS + 1, LABEL_MAJOR_MIN_RUNS + 1 - split.min(3))
        } else {
            (small_n, split.min(small_n - 1))
        };
        let k = WlKernel::default();
        let graphs: Vec<_> = (0..n)
            .map(|i| race_graph(5, 100.0, seed + i as u64))
            .collect();
        let feats: Vec<_> = graphs.iter().map(|g| k.features(g)).collect();
        let full = gram_from_features_with_metrics("wl", &feats, threads, None);
        let mut grown = gram_from_features_with_metrics("wl", &feats[..start], threads, None);
        for upto in start + 1..=n {
            grown = gram_append(&grown, &feats[..upto], threads, dot, None);
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(grown.value(i, j).to_bits(), full.value(i, j).to_bits());
            }
        }
    }

    /// The landmark approximation is symmetric, its reported Frobenius
    /// bound dominates the true error, and a full landmark set
    /// reproduces the exact matrix to rounding.
    #[test]
    fn landmark_bound_dominates_true_error(
        n in 2usize..7,
        k_landmarks in 1usize..7,
        seed in 0u64..20,
    ) {
        let kern = WlKernel::default();
        let graphs: Vec<_> = (0..n)
            .map(|i| race_graph(4, 100.0, seed + i as u64))
            .collect();
        let feats: Vec<_> = graphs.iter().map(|g| kern.features(g)).collect();
        let exact = gram_from_features_with_metrics("wl", &feats, 1, None);
        let approx = landmark_gram("wl", &feats, k_landmarks, 1, DotKind::Scalar, None);
        let scale: f64 = (0..n).map(|i| exact.value(i, i)).sum::<f64>().max(1.0);
        let mut err2 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let e = exact.value(i, j) - approx.matrix.value(i, j);
                err2 += e * e;
                let asym = (approx.matrix.value(i, j) - approx.matrix.value(j, i)).abs();
                prop_assert!(asym < 1e-9 * scale, "asymmetry {asym} at ({i},{j})");
            }
        }
        prop_assert!(approx.error_bound.is_finite() && approx.error_bound >= 0.0);
        prop_assert!(
            err2.sqrt() <= approx.error_bound + 1e-6 * scale,
            "true error {} exceeds reported bound {}", err2.sqrt(), approx.error_bound
        );
        if k_landmarks >= n {
            prop_assert!(err2.sqrt() <= 1e-6 * scale,
                "full landmark set left error {}", err2.sqrt());
        }
    }

    /// The exact Gram matrix equals serial merge-join dots bit for bit on
    /// both sides of `LABEL_MAJOR_MIN_RUNS`, for every kernel kind, at ND
    /// 0 and 100 and any thread count, with some vectors emptied, some
    /// moved to ids no other run holds, and weights scaled off the
    /// integers.
    #[test]
    fn gram_equals_serial_dots_across_the_crossover(
        size_i in 0usize..3,
        threads_i in 0usize..3,
        ki in arb_kernel(),
        nd_i in 0usize..2,
        empty_every in 2usize..9,
        disjoint_every in 2usize..9,
        scaled in 0usize..2,
        seed in 0u64..1000,
    ) {
        let c = LABEL_MAJOR_MIN_RUNS;
        let n = [c - 1, c, 3 * c][size_i];
        let threads = [1, 2, 8][threads_i];
        let k = kernel_by_index(ki);
        let nd = [0.0, 100.0][nd_i];
        let mut feats: Vec<SparseFeatures> = (0..n)
            .map(|i| k.features(&race_graph(5, nd, seed + i as u64)))
            .collect();
        for (i, f) in feats.iter_mut().enumerate() {
            if i % empty_every == 0 {
                *f = SparseFeatures::new();
            } else if i % disjoint_every == 0 {
                let salt = (i as u64 + 1) << 48;
                *f = f.iter().map(|(id, w)| (id ^ salt, w)).collect();
            }
            if scaled == 1 {
                f.scale(1.0 / (3.0 + i as f64));
            }
        }
        let m = gram_from_features_with_metrics("k", &feats, threads, None);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    m.value(i, j).to_bits(),
                    feats[i].dot(&feats[j]).to_bits(),
                    "({}, {})", i, j
                );
            }
        }
    }

    /// The Gram matrix is thread-count invariant.
    #[test]
    fn gram_matrix_parallel_determinism(
        threads in 1usize..9,
        seed in 0u64..20,
    ) {
        let graphs: Vec<_> = (0..5).map(|i| race_graph(5, 100.0, seed + i)).collect();
        let k = WlKernel::default();
        let base = gram_matrix(&k, &graphs, 1);
        let par = gram_matrix(&k, &graphs, threads);
        for i in 0..5 {
            for j in 0..5 {
                prop_assert_eq!(base.value(i, j), par.value(i, j));
            }
        }
    }
}
