//! Gaussian kernel density estimation — the smooth body of a violin plot.

use std::f64::consts::PI;

/// Silverman's rule-of-thumb bandwidth. Falls back to a small positive
/// value for degenerate (constant) samples so the KDE stays well-defined.
pub fn silverman_bandwidth(sample: &[f64]) -> f64 {
    let n = sample.len();
    if n < 2 {
        return 1.0;
    }
    let mean = sample.iter().sum::<f64>() / n as f64;
    let var = sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let sd = var.sqrt();
    let iqr = crate::quantile::quantile(sample, 0.75) - crate::quantile::quantile(sample, 0.25);
    let sigma = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    let h = 0.9 * sigma * (n as f64).powf(-0.2);
    if h > 0.0 {
        h
    } else {
        // Constant sample: any positive bandwidth gives a spike at the value.
        (mean.abs() * 1e-3).max(1e-9)
    }
}

/// Evaluate the Gaussian KDE of `sample` with bandwidth `h` at `x`.
pub fn kde_at(sample: &[f64], h: f64, x: f64) -> f64 {
    assert!(h > 0.0, "bandwidth must be positive");
    if sample.is_empty() {
        return 0.0;
    }
    let norm = 1.0 / ((2.0 * PI).sqrt() * h * sample.len() as f64);
    sample
        .iter()
        .map(|&xi| {
            let z = (x - xi) / h;
            (-0.5 * z * z).exp()
        })
        .sum::<f64>()
        * norm
}

/// A KDE evaluated on a regular grid.
#[derive(Debug, Clone, PartialEq)]
pub struct KdeCurve {
    /// Grid positions.
    pub xs: Vec<f64>,
    /// Density at each grid position.
    pub densities: Vec<f64>,
    /// The bandwidth used.
    pub bandwidth: f64,
}

/// Evaluate the KDE on `points` grid positions spanning the sample range
/// extended by two bandwidths on each side (the conventional violin body).
pub fn kde_curve(sample: &[f64], points: usize) -> KdeCurve {
    assert!(points >= 2, "need at least two grid points");
    let h = silverman_bandwidth(sample);
    let (lo, hi) = sample
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, u), &x| {
            (l.min(x), u.max(x))
        });
    let (lo, hi) = if sample.is_empty() {
        (0.0, 1.0)
    } else {
        (lo - 2.0 * h, hi + 2.0 * h)
    };
    let step = (hi - lo) / (points - 1) as f64;
    let xs: Vec<f64> = (0..points).map(|i| lo + step * i as f64).collect();
    let densities = xs.iter().map(|&x| kde_at(sample, h, x)).collect();
    KdeCurve {
        xs,
        densities,
        bandwidth: h,
    }
}

impl KdeCurve {
    /// Numerically integrate the curve (trapezoid); ≈ 1 for a well-chosen
    /// grid.
    pub fn integral(&self) -> f64 {
        let mut total = 0.0;
        for i in 1..self.xs.len() {
            let dx = self.xs[i] - self.xs[i - 1];
            total += 0.5 * (self.densities[i] + self.densities[i - 1]) * dx;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kde_integrates_to_one() {
        let sample = [1.0, 2.0, 2.5, 3.0, 10.0, 11.0];
        let c = kde_curve(&sample, 512);
        assert!(
            (c.integral() - 1.0).abs() < 0.02,
            "integral {}",
            c.integral()
        );
    }

    #[test]
    fn kde_peaks_near_modes() {
        let sample = [0.0, 0.1, -0.1, 0.05, 5.0];
        let c = kde_curve(&sample, 256);
        let argmax =
            c.xs.iter()
                .zip(&c.densities)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
        assert!(argmax.abs() < 0.5, "peak at {argmax}, expected near 0");
    }

    #[test]
    fn symmetric_sample_symmetric_density() {
        let sample = [-1.0, 1.0];
        let h = silverman_bandwidth(&sample);
        assert!((kde_at(&sample, h, 0.5) - kde_at(&sample, h, -0.5)).abs() < 1e-12);
    }

    #[test]
    fn constant_sample_is_well_defined() {
        let sample = [3.0; 10];
        let h = silverman_bandwidth(&sample);
        assert!(h > 0.0);
        let c = kde_curve(&sample, 64);
        assert!(c.densities.iter().any(|&d| d > 0.0));
        assert!(c.densities.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn empty_sample_zero_density() {
        assert_eq!(kde_at(&[], 1.0, 0.0), 0.0);
        let c = kde_curve(&[], 16);
        assert!(c.densities.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn nan_sample_bandwidth_is_positive() {
        // A NaN poisons mean/sd, but the fallback must still yield a
        // positive bandwidth rather than panicking in the sort.
        let h = silverman_bandwidth(&[1.0, f64::NAN, 2.0]);
        assert!(h > 0.0, "bandwidth {h}");
    }

    #[test]
    fn single_element_bandwidth_is_positive() {
        assert!(silverman_bandwidth(&[42.0]) > 0.0);
        assert!(silverman_bandwidth(&[]) > 0.0);
    }

    #[test]
    fn nan_count_helper() {
        assert_eq!(crate::nan_count(&[1.0, f64::NAN, 2.0, f64::NAN]), 2);
        assert_eq!(crate::nan_count(&[]), 0);
        assert_eq!(crate::nan_count(&[0.0]), 0);
    }

    #[test]
    fn bandwidth_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(silverman_bandwidth(&large) < silverman_bandwidth(&small));
    }
}
