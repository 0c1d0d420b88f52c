//! Quantiles with linear interpolation (type-7, the R/NumPy default).

/// Quantile of an already-sorted sample, `q ∈ [0, 1]`, linear
/// interpolation between order statistics.
///
/// # Panics
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Quantile of an unsorted sample (sorts a copy).
///
/// NaNs are totally ordered after every finite value (`f64::total_cmp`)
/// rather than panicking; callers that care can screen with
/// [`crate::nan_count`] first.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn median_interpolation() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn matches_numpy_type7() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25) - 1.75).abs() < 1e-12);
        // numpy.percentile([15,20,35,40,50], 40) == 29.0
        assert!((quantile(&[15.0, 20.0, 35.0, 40.0, 50.0], 0.4) - 29.0).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn nan_does_not_panic_and_sorts_last() {
        // A contaminated sample must not abort an analysis pipeline: NaNs
        // order after every finite value, so low quantiles stay finite.
        let s = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert!(quantile(&s, 1.0).is_nan());
    }

    #[test]
    fn all_nan_single_element() {
        assert!(quantile(&[f64::NAN], 0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "[0,1]")]
    fn out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }
}
