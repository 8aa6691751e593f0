//! Small statistics toolkit for experiment analysis: simple linear
//! regression (the download-linearity check) and comparison helpers
//! used by the shape assertions.

/// Result of an ordinary least-squares fit `y = slope·x + intercept`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Least-squares fit over paired samples. Returns `None` with fewer than
/// two points or zero variance in `x`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r2,
    })
}

/// Relative difference `|a - b| / max(|a|, |b|)`; 0 for two zeros.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let m = a.abs().max(b.abs());
    if m == 0.0 {
        0.0
    } else {
        (a - b).abs() / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fits_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0]; // y = 2x + 1
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r2_degrades_with_noise() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let clean: Vec<f64> = xs.iter().map(|x| 3.0 * x).collect();
        let noisy: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x + if i % 2 == 0 { 20.0 } else { -20.0 })
            .collect();
        let fc = linear_fit(&xs, &clean).unwrap();
        let fnz = linear_fit(&xs, &noisy).unwrap();
        assert!(fc.r2 > fnz.r2);
        assert!(fnz.r2 > 0.5);
    }

    #[test]
    fn degenerate_fits() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(
            linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none(),
            "zero x variance"
        );
        assert!(
            linear_fit(&[1.0, 2.0], &[1.0, 2.0, 3.0]).is_none(),
            "length mismatch"
        );
        // Constant y: perfect fit with slope 0.
        let f = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }

    #[test]
    fn rel_diff_cases() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(10.0, 11.0) - 1.0 / 11.0).abs() < 1e-12);
        assert_eq!(rel_diff(-5.0, 5.0), 2.0);
    }

    proptest! {
        /// The fitted line minimises residuals at least as well as the
        /// flat line through the mean (r2 >= 0 by construction).
        #[test]
        fn prop_r2_in_unit_interval(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..50)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            if let Some(f) = linear_fit(&xs, &ys) {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&f.r2));
            }
        }
    }
}
