//! Streaming statistics, confidence intervals, and regression fits.
//!
//! The experiment harnesses aggregate per-seed measurements with [`Summary`]
//! and estimate Θ-notation growth exponents with [`loglog_slope`], which fits
//! `log y = α·log x + c` by ordinary least squares ([`linear_fit`]).

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use manet_util::stats::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Normal-approximation 95% confidence half-width of the mean.
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64) * (other.n as f64) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Result of an ordinary least squares fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit).
    pub r_squared: f64,
}

/// Fits `y ≈ slope·x + intercept` by ordinary least squares.
///
/// Returns `None` when fewer than two points are given, the slices differ in
/// length, or all `x` are identical.
///
/// # Example
///
/// ```
/// use manet_util::stats::linear_fit;
///
/// let fit = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Estimates the growth exponent `α` such that `y ∝ x^α` by fitting a line in
/// log–log space. Pairs with non-positive coordinates are skipped.
///
/// Used to check the paper's Θ-notation claims (Section 6): e.g. HELLO
/// frequency should grow with exponent ≈ 1 in the transmission range.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    let mut lx = Vec::with_capacity(xs.len());
    let mut ly = Vec::with_capacity(ys.len());
    for (&x, &y) in xs.iter().zip(ys) {
        if x > 0.0 && y > 0.0 {
            lx.push(x.ln());
            ly.push(y.ln());
        }
    }
    linear_fit(&lx, &ly)
}

/// Root-mean-square relative error between paired observations, used to score
/// analysis-vs-simulation agreement. Pairs whose reference value is zero are
/// skipped; returns `None` when no usable pair exists or lengths differ.
pub fn rms_relative_error(reference: &[f64], measured: &[f64]) -> Option<f64> {
    if reference.len() != measured.len() {
        return None;
    }
    let mut acc = 0.0;
    let mut n = 0usize;
    for (&r, &m) in reference.iter().zip(measured) {
        if r != 0.0 {
            let e = (m - r) / r;
            acc += e * e;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some((acc / n as f64).sqrt())
    }
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns `None` when lengths differ, fewer than two points, or either
/// series is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let fit = linear_fit(xs, ys)?;
    let r = fit.r_squared.sqrt();
    Some(if fit.slope < 0.0 { -r } else { r })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..37].iter().copied().collect();
        let right: Summary = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -3.0 * x + 7.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 3.0).abs() < 1e-12);
        assert!((fit.intercept - 7.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn loglog_slope_recovers_power_law() {
        let xs: Vec<f64> = (1..20).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x.powf(1.5)).collect();
        let fit = loglog_slope(&xs, &ys).unwrap();
        assert!((fit.slope - 1.5).abs() < 1e-9, "slope {}", fit.slope);
    }

    #[test]
    fn loglog_slope_skips_nonpositive() {
        let fit = loglog_slope(&[0.0, 1.0, 2.0, 4.0], &[9.0, 1.0, 2.0, 4.0]).unwrap();
        assert!((fit.slope - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rms_relative_error_zero_for_identical() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(rms_relative_error(&a, &a), Some(0.0));
        assert_eq!(rms_relative_error(&a, &[1.0, 2.0]), None);
        assert_eq!(rms_relative_error(&[0.0], &[1.0]), None);
    }

    #[test]
    fn pearson_signs() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }
}

/// Batch-means estimate of a steady-state time series' mean and 95% CI.
///
/// Correlated per-tick samples make the naive `Summary` CI overconfident;
/// splitting the series into `batches` contiguous batches and treating
/// batch means as (approximately) independent is the standard remedy for
/// steady-state simulation output (Law & Kelton). Returns
/// `(mean, ci95_half_width)`; `None` when fewer than `2·batches` samples
/// are available.
///
/// # Panics
///
/// Panics if `batches < 2`.
pub fn batch_means(series: &[f64], batches: usize) -> Option<(f64, f64)> {
    assert!(batches >= 2, "need at least 2 batches");
    if series.len() < 2 * batches {
        return None;
    }
    let batch_len = series.len() / batches;
    let mut means = Summary::new();
    for b in 0..batches {
        let chunk = &series[b * batch_len..(b + 1) * batch_len];
        means.push(chunk.iter().sum::<f64>() / chunk.len() as f64);
    }
    Some((means.mean(), means.ci95_half_width()))
}

/// Lag-1 autocorrelation of a series (`None` for fewer than 3 samples or a
/// constant series). Values near 1 mean per-sample CIs are badly
/// overconfident; prefer [`batch_means`].
pub fn lag1_autocorrelation(series: &[f64]) -> Option<f64> {
    if series.len() < 3 {
        return None;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|x| (x - mean) * (x - mean)).sum();
    if var == 0.0 {
        return None;
    }
    let cov: f64 = series
        .windows(2)
        .map(|w| (w[0] - mean) * (w[1] - mean))
        .sum();
    Some(cov / var)
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batch_means_of_iid_matches_summary() {
        let mut rng = crate::Rng::seed_from_u64(4);
        let series: Vec<f64> = (0..10_000).map(|_| rng.f64()).collect();
        let (mean, ci) = batch_means(&series, 20).unwrap();
        assert!((mean - 0.5).abs() < 0.02);
        assert!(ci > 0.0 && ci < 0.05);
    }

    #[test]
    fn batch_means_widens_ci_for_correlated_series() {
        // A slow random walk pinned to its mean: heavy autocorrelation.
        let mut rng = crate::Rng::seed_from_u64(5);
        let mut x = 0.0;
        let series: Vec<f64> = (0..20_000)
            .map(|_| {
                x = 0.999 * x + 0.01 * (rng.f64() - 0.5);
                x
            })
            .collect();
        let rho = lag1_autocorrelation(&series).unwrap();
        assert!(rho > 0.95, "rho {rho}");
        let naive: Summary = series.iter().copied().collect();
        let (_, batch_ci) = batch_means(&series, 10).unwrap();
        assert!(
            batch_ci > 2.0 * naive.ci95_half_width(),
            "batch CI {batch_ci} vs naive {}",
            naive.ci95_half_width()
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(batch_means(&[1.0, 2.0, 3.0], 2), None);
        assert_eq!(lag1_autocorrelation(&[1.0, 2.0]), None);
        assert_eq!(lag1_autocorrelation(&[5.0; 10]), None);
        let (m, _) = batch_means(&[1.0; 100], 4).unwrap();
        assert_eq!(m, 1.0);
    }
}
