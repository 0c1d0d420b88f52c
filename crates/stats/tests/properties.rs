//! Property-based tests of the statistics toolbox.

use anacin_stats::prelude::*;
use proptest::prelude::*;

fn sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Summary invariants: min ≤ q1 ≤ median ≤ q3 ≤ max, mean within
    /// [min, max], order invariance.
    #[test]
    fn summary_invariants(mut xs in sample()) {
        let s = Summary::of(&xs).unwrap();
        prop_assert!(s.min <= s.q1);
        prop_assert!(s.q1 <= s.median);
        prop_assert!(s.median <= s.q3);
        prop_assert!(s.q3 <= s.max);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        // Order invariance (up to summation rounding in mean/std).
        xs.reverse();
        let s2 = Summary::of(&xs).unwrap();
        prop_assert_eq!(s2.min, s.min);
        prop_assert_eq!(s2.max, s.max);
        prop_assert_eq!(s2.median, s.median);
        let scale = s.std_dev.abs().max(s.mean.abs()).max(1.0);
        prop_assert!((s2.mean - s.mean).abs() <= 1e-12 * scale);
        prop_assert!((s2.std_dev - s.std_dev).abs() <= 1e-12 * scale);
    }

    /// Quantiles are monotone in q and bounded by the sample range.
    #[test]
    fn quantile_monotonicity(xs in sample(), qa in 0.0f64..=1.0, qb in 0.0f64..=1.0) {
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let vlo = quantile(&xs, lo);
        let vhi = quantile(&xs, hi);
        prop_assert!(vlo <= vhi + 1e-12);
        prop_assert!(vlo >= quantile(&xs, 0.0) - 1e-12);
        prop_assert!(vhi <= quantile(&xs, 1.0) + 1e-12);
    }

    /// The KDE is a density: non-negative everywhere sampled, and it
    /// integrates to ≈ 1 on a grid spanning the data.
    #[test]
    fn kde_is_a_density(xs in prop::collection::vec(-100.0f64..100.0, 2..60)) {
        let c = kde_curve(&xs, 256);
        prop_assert!(c.densities.iter().all(|&d| d >= 0.0 && d.is_finite()));
        let integral = c.integral();
        prop_assert!((integral - 1.0).abs() < 0.05, "integral {integral}");
    }

    /// Ranks are a permutation-respecting map: the multiset of ranks sums
    /// to n(n+1)/2 regardless of ties.
    #[test]
    fn ranks_sum_invariant(xs in sample()) {
        let r = ranks(&xs);
        let n = xs.len() as f64;
        let total: f64 = r.iter().sum();
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Correlations live in [-1, 1] and self-correlation of a
    /// non-constant sample is 1.
    #[test]
    fn correlation_bounds(xs in prop::collection::vec(-1e3f64..1e3, 3..50)) {
        let ys: Vec<f64> = xs.iter().rev().copied().collect();
        for v in [pearson(&xs, &ys), spearman(&xs, &ys), kendall_tau(&xs, &ys)] {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v), "{v}");
        }
        let distinct: std::collections::HashSet<u64> =
            xs.iter().map(|x| x.to_bits()).collect();
        if distinct.len() > 1 {
            prop_assert!((pearson(&xs, &xs) - 1.0).abs() < 1e-9);
            prop_assert!((spearman(&xs, &xs) - 1.0).abs() < 1e-9);
        }
    }

    /// Bootstrap CIs bracket the point estimate and shrink when the
    /// sample is constant.
    #[test]
    fn bootstrap_brackets(xs in prop::collection::vec(-1e3f64..1e3, 2..60), seed in 0u64..100) {
        let ci = mean_ci(&xs, seed);
        prop_assert!(ci.lo <= ci.point + 1e-9);
        prop_assert!(ci.point <= ci.hi + 1e-9);
    }

    /// The Mann–Whitney U statistic is bounded by n1*n2 and the two
    /// one-sided tests are complementary.
    #[test]
    fn mwu_bounds(
        a in prop::collection::vec(-1e3f64..1e3, 2..30),
        b in prop::collection::vec(-1e3f64..1e3, 2..30),
    ) {
        let r = mann_whitney_u(&a, &b);
        prop_assert!(r.u >= 0.0);
        prop_assert!(r.u <= (a.len() * b.len()) as f64 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&r.p_greater));
        prop_assert!((0.0..=1.0).contains(&r.p_two_sided));
    }
}
