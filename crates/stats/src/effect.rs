//! Kendall's τ-b, a rank correlation over concordant and discordant
//! pairs: a candidate statistic for Fig. 7's monotonicity claim.

/// Kendall's τ-b rank correlation (tie-corrected).
///
/// # Panics
/// Panics when lengths differ or are < 2.
pub fn kendall_tau(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must be paired");
    assert!(x.len() >= 2, "need at least two pairs");
    let n = x.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                ties_x += 1;
                ties_y += 1;
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if dx * dy > 0.0 {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as i64;
    let denom = (((n0 - ties_x) as f64) * ((n0 - ties_y) as f64)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kendall_perfect_orders() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((kendall_tau(&x, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&x, &[40.0, 30.0, 20.0, 10.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn kendall_handles_ties() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [5.0, 6.0, 7.0, 8.0];
        let tau = kendall_tau(&x, &y);
        assert!(tau > 0.8 && tau <= 1.0);
        // All-tied x gives 0.
        assert_eq!(kendall_tau(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), 0.0);
    }
}
