//! Fixed-width histogram binning (used by bar-chart renderers and
//! diagnostics).

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub lo: f64,
    /// Exclusive upper edge of the last bin.
    pub hi: f64,
    /// Bin counts.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Bin `sample` into `bins` equal-width bins spanning its range.
    /// The maximum value is placed in the last bin.
    ///
    /// # Panics
    /// Panics when `bins == 0`.
    pub fn of(sample: &[f64], bins: usize) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        if sample.is_empty() {
            return Histogram {
                lo: 0.0,
                hi: 1.0,
                counts: vec![0; bins],
            };
        }
        let lo = sample.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0u64; bins];
        for &x in sample {
            let b = (((x - lo) / width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        Histogram { lo, hi, counts }
    }

    /// Total count.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Relative frequencies summing to 1 (all zeros for an empty sample).
    pub fn frequencies(&self) -> Vec<f64> {
        let t = self.total();
        if t == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / t as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_sample() {
        let h = Histogram::of(&[0.0, 1.0, 2.0, 3.0, 4.0], 5);
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn max_lands_in_last_bin() {
        let h = Histogram::of(&[0.0, 10.0], 2);
        assert_eq!(h.counts, vec![1, 1]);
    }

    #[test]
    fn constant_sample() {
        let h = Histogram::of(&[7.0; 4], 3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts[0], 4);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let h = Histogram::of(&[1.0, 2.0, 2.0, 5.0], 4);
        let f: f64 = h.frequencies().iter().sum();
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_all_zero() {
        let h = Histogram::of(&[], 3);
        assert_eq!(h.total(), 0);
        assert_eq!(h.frequencies(), vec![0.0, 0.0, 0.0]);
    }
}
