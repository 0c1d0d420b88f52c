//! Summation algorithms with different sensitivity to operand order.
//!
//! Floating-point addition is not associative, so a reduction whose
//! operand order follows message *arrival* order inherits the execution's
//! communication non-determinism — the mechanism behind the paper's Enzo
//! example (different galactic halos across runs) and the reproducible-
//! reduction work it cites (Chapp et al., CLUSTER'15).

/// Left-to-right sequential sum in the given order — what a naive
/// `MPI_ANY_SOURCE` accumulation loop computes.
pub fn sequential_sum(values: &[f32]) -> f32 {
    values.iter().copied().fold(0.0f32, |acc, x| acc + x)
}

/// Kahan (compensated) summation: order-sensitive in principle, but the
/// compensation term absorbs most of the order-dependent roundoff.
pub fn kahan_sum(values: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    let mut c = 0.0f32;
    for &x in values {
        let y = x - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    sum
}

/// Pairwise (tree) summation over the given order: lower error than
/// sequential, still order-sensitive.
pub fn pairwise_sum(values: &[f32]) -> f32 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => {
            let (a, b) = values.split_at(n / 2);
            pairwise_sum(a) + pairwise_sum(b)
        }
    }
}

/// Order-*insensitive* sum: sort by total order first (the "intelligent
/// runtime selection" fix — canonicalise the reduction order), then sum
/// sequentially. Identical result for any input permutation.
pub fn sorted_sum(values: &[f32]) -> f32 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    sequential_sum(&v)
}

/// Exact sum via f64 accumulation, rounded once at the end — a cheap
/// near-deterministic alternative when the dynamic range fits f64.
pub fn promote_sum(values: &[f32]) -> f32 {
    values.iter().map(|&x| x as f64).sum::<f64>() as f32
}

/// Reduction algorithms under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// [`sequential_sum`].
    Sequential,
    /// [`kahan_sum`].
    Kahan,
    /// [`pairwise_sum`].
    Pairwise,
    /// [`sorted_sum`].
    Sorted,
    /// [`promote_sum`].
    Promoted,
}

impl Reduction {
    /// All algorithms, in presentation order.
    pub const ALL: [Reduction; 5] = [
        Reduction::Sequential,
        Reduction::Kahan,
        Reduction::Pairwise,
        Reduction::Sorted,
        Reduction::Promoted,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Reduction::Sequential => "sequential",
            Reduction::Kahan => "kahan",
            Reduction::Pairwise => "pairwise",
            Reduction::Sorted => "sorted",
            Reduction::Promoted => "promoted-f64",
        }
    }

    /// Apply the algorithm to `values` in the given order.
    pub fn apply(&self, values: &[f32]) -> f32 {
        match self {
            Reduction::Sequential => sequential_sum(values),
            Reduction::Kahan => kahan_sum(values),
            Reduction::Pairwise => pairwise_sum(values),
            Reduction::Sorted => sorted_sum(values),
            Reduction::Promoted => promote_sum(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic cancellation triple: (1e8 + 1) - 1e8 vs 1e8 - 1e8 + 1.
    const TRIPLE: [f32; 3] = [1.0e8, 1.0, -1.0e8];

    #[test]
    fn sequential_sum_is_order_sensitive() {
        let a = sequential_sum(&TRIPLE); // (1e8 + 1) - 1e8 = 0 in f32
        let b = sequential_sum(&[1.0e8, -1.0e8, 1.0]); // 0 + 1 = 1
        assert_ne!(a, b);
        assert_eq!(b, 1.0);
    }

    #[test]
    fn sorted_sum_is_order_invariant() {
        let perms: [[f32; 3]; 3] = [
            [1.0e8, 1.0, -1.0e8],
            [1.0, 1.0e8, -1.0e8],
            [-1.0e8, 1.0e8, 1.0],
        ];
        let base = sorted_sum(&perms[0]);
        for p in &perms {
            assert_eq!(sorted_sum(p), base);
        }
    }

    #[test]
    fn kahan_recovers_small_addends() {
        // Sequentially adding 1.0 to 1e8 loses every addend (ulp(1e8) = 8
        // in f32); Kahan's compensation recovers them.
        let mut v = vec![1.0e8f32];
        v.extend(std::iter::repeat_n(1.0f32, 1024));
        assert_eq!(sequential_sum(&v), 1.0e8);
        assert_eq!(kahan_sum(&v), 1.0e8 + 1024.0);
    }

    #[test]
    fn promoted_sum_is_exact_here() {
        assert_eq!(promote_sum(&TRIPLE), 1.0);
    }

    #[test]
    fn pairwise_matches_exact_on_benign_input() {
        let v: Vec<f32> = (1..=64).map(|i| i as f32).collect();
        assert_eq!(pairwise_sum(&v), 64.0 * 65.0 / 2.0);
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[3.5]), 3.5);
    }

    #[test]
    fn enum_plumbing() {
        for r in Reduction::ALL {
            assert!(!r.name().is_empty());
            let _ = r.apply(&TRIPLE);
        }
    }
}
