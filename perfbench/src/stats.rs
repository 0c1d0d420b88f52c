//! Order statistics over timing samples.

/// The `q`-quantile (`0.0..=1.0`) by linear interpolation between the
/// closest ranks. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| anacin_stats::quantile::quantile(samples, q))
}

/// The median, or 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }
}
