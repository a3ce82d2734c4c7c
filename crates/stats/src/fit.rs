//! Least-squares curve fitting for measured performance curves.
//!
//! The paper's future work wants the congestion behaviour *modeled*, not
//! just tabulated. Fitting `SSS(u)` with an exponential (linear in
//! log-space) or a saturation law gives the decision model a smooth,
//! differentiable stand-in for Figure 2(a)'s measurements.

use serde::{Deserialize, Serialize};

/// A fitted line `y = slope·x + intercept` with its goodness of fit —
/// the log-space core of [`ExponentialFit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination (1 = perfect).
    pub r_squared: f64,
}

impl LinearFit {
    /// Ordinary least squares over `(x, y)` pairs.
    ///
    /// Returns `None` for fewer than two points, non-finite input, or a
    /// degenerate x range.
    pub fn fit(points: &[(f64, f64)]) -> Option<LinearFit> {
        if points.len() < 2 {
            return None;
        }
        if points.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return None;
        }
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|(x, _)| x).sum();
        let sy: f64 = points.iter().map(|(_, y)| y).sum();
        let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None; // vertical line
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;

        let mean_y = sy / n;
        let ss_tot: f64 = points.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
        let ss_res: f64 = points
            .iter()
            .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
            .sum();
        let r_squared = if ss_tot <= 1e-30 {
            1.0 // constant data, perfectly fit by the constant line
        } else {
            1.0 - ss_res / ss_tot
        };
        Some(LinearFit {
            slope,
            intercept,
            r_squared,
        })
    }
}

/// An exponential growth law `y = a·e^(b·x)`, fit by OLS in log space.
///
/// Suits Figure 2(a)'s worst-case transfer times, which grow slowly
/// until the knee and explode past it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialFit {
    /// Scale factor `a` (> 0).
    pub a: f64,
    /// Growth rate `b`.
    pub b: f64,
    /// R² of the underlying log-space linear fit.
    pub r_squared: f64,
}

impl ExponentialFit {
    /// Fit `y = a·e^(b·x)`; requires all y strictly positive.
    pub fn fit(points: &[(f64, f64)]) -> Option<ExponentialFit> {
        if points.iter().any(|(_, y)| *y <= 0.0) {
            return None;
        }
        let logged: Vec<(f64, f64)> = points.iter().map(|(x, y)| (*x, y.ln())).collect();
        let line = LinearFit::fit(&logged)?;
        Some(ExponentialFit {
            a: line.intercept.exp(),
            b: line.slope,
            r_squared: line.r_squared,
        })
    }

    /// Evaluate at `x`.
    pub fn at(&self, x: f64) -> f64 {
        self.a * (self.b * x).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let f = LinearFit::fit(&pts).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept - 2.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!((f.slope * 20.0 + f.intercept - 62.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_good_r2() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64 / 10.0;
                // Deterministic "noise".
                (x, 2.0 * x + 1.0 + 0.05 * (i as f64).sin())
            })
            .collect();
        let f = LinearFit::fit(&pts).unwrap();
        assert!((f.slope - 2.0).abs() < 0.05);
        assert!(f.r_squared > 0.99);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(LinearFit::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none()); // vertical
        assert!(LinearFit::fit(&[(1.0, f64::NAN), (2.0, 3.0)]).is_none());
    }

    #[test]
    fn constant_data_fits_perfectly() {
        let f = LinearFit::fit(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert!(f.slope.abs() < 1e-12);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    fn exponential_recovered() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64 / 10.0;
                (x, 0.5 * (2.0 * x).exp())
            })
            .collect();
        let f = ExponentialFit::fit(&pts).unwrap();
        assert!((f.a - 0.5).abs() < 1e-9);
        assert!((f.b - 2.0).abs() < 1e-9);
        assert!((f.at(1.0) - 0.5 * 2.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn exponential_rejects_nonpositive_y() {
        assert!(ExponentialFit::fit(&[(0.0, 0.0), (1.0, 2.0)]).is_none());
        assert!(ExponentialFit::fit(&[(0.0, -1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn congestion_like_curve_fits_exponentially() {
        // Shape like Figure 2(a): slow growth then explosion.
        let pts = [
            (0.16, 0.3),
            (0.32, 0.6),
            (0.48, 1.0),
            (0.64, 1.2),
            (0.80, 2.2),
            (0.92, 5.0),
            (0.94, 9.0),
        ];
        let f = ExponentialFit::fit(&pts).unwrap();
        assert!(f.b > 0.0, "growth rate must be positive");
        assert!(f.r_squared > 0.85, "r² {}", f.r_squared);
        // Extrapolating past the knee keeps exploding.
        assert!(f.at(1.1) > f.at(0.94));
    }
}
