//! Statistical machinery for fault-injection campaigns.
//!
//! The paper's footnote 4 calibrates its campaigns with the standard
//! statistical fault-injection sample-size model (Leveugle et al., DATE
//! 2009): treating each injection as a Bernoulli trial with the
//! conservative `p = 0.5`, a sample of `n` faults from a population of `N`
//! possible (bit, cycle) pairs estimates the AVF within margin
//!
//! ```text
//! e = z · sqrt( p(1-p)/n · (N-n)/(N-1) )
//! ```
//!
//! With 2,000 injections and 99 % confidence this gives the paper's quoted
//! **2.88 %** margin (the finite-population factor is ≈ 1 for any real
//! structure).

/// z-score for 90 % confidence.
pub const Z_90: f64 = 1.645;
/// z-score for 95 % confidence.
pub const Z_95: f64 = 1.960;
/// z-score for 99 % confidence (the paper's choice).
pub const Z_99: f64 = 2.576;

/// The error margin of an `n`-injection campaign over a population of
/// `population` fault sites, at confidence `z`.
///
/// Uses the conservative `p = 0.5`. Returns 0 when `n >= population`
/// (exhaustive injection is exact).
///
/// # Example
/// ```
/// use grel_core::stats::{error_margin, Z_99};
/// // The paper's footnote: 2,000 injections -> 2.88% at 99% confidence.
/// let e = error_margin(u64::MAX, 2000, Z_99);
/// assert!((e - 0.0288).abs() < 0.0001);
/// ```
pub fn error_margin(population: u64, n: u64, z: f64) -> f64 {
    assert!(n > 0, "campaign must have at least one injection");
    if n >= population {
        return 0.0;
    }
    let nn = n as f64;
    let pop = population as f64;
    let fpc = (pop - nn) / (pop - 1.0);
    z * (0.25 / nn * fpc).sqrt()
}

/// The number of injections needed to reach margin `e` at confidence `z`
/// over a population of `population` sites (Leveugle's formula).
///
/// # Example
/// ```
/// use grel_core::stats::{required_sample_size, Z_99};
/// let n = required_sample_size(u64::MAX, 0.0288, Z_99);
/// assert!((1990..=2010).contains(&n), "n = {n}");
/// ```
pub fn required_sample_size(population: u64, e: f64, z: f64) -> u64 {
    assert!(e > 0.0, "margin must be positive");
    let pop = population as f64;
    let n = pop / (1.0 + e * e * (pop - 1.0) / (z * z * 0.25));
    n.ceil() as u64
}

/// A binomial proportion with its confidence interval: the AVF estimate a
/// campaign produces.
///
/// # Example
/// ```
/// use grel_core::stats::Proportion;
/// let p = Proportion::new(140, 2000, u64::MAX);
/// assert!((p.value - 0.07).abs() < 1e-12);
/// assert!(p.margin_99 > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Point estimate (`hits / trials`).
    pub value: f64,
    /// Number of positive outcomes.
    pub hits: u64,
    /// Number of trials.
    pub trials: u64,
    /// Size of the sampled fault-site population (carried so intervals
    /// at other confidence levels keep the finite-population correction).
    pub population: u64,
    /// Error margin at 99 % confidence (conservative `p = 0.5` model).
    pub margin_99: f64,
}

impl Proportion {
    /// Builds the estimate for `hits` out of `trials` samples drawn from
    /// `population` sites.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, or if `hits > trials` — a proportion
    /// above 1 is not an estimate but an accounting bug (e.g. merging
    /// tallies from different campaigns), and silently producing
    /// `AVF > 1` would poison every downstream FIT/EPF figure.
    pub fn new(hits: u64, trials: u64, population: u64) -> Self {
        assert!(trials > 0, "proportion needs at least one trial");
        assert!(
            hits <= trials,
            "proportion needs hits <= trials (got {hits}/{trials})"
        );
        Proportion {
            value: hits as f64 / trials as f64,
            hits,
            trials,
            population,
            margin_99: error_margin(population, trials, Z_99),
        }
    }

    /// The error margin at confidence `z`, with the same conservative
    /// `p = 0.5` model and finite-population correction as
    /// [`error_margin`]. Zero when the campaign was exhaustive
    /// (`trials >= population`).
    pub fn margin(&self, z: f64) -> f64 {
        error_margin(self.population, self.trials, z)
    }

    /// The interval `[value - margin(z), value + margin(z)]` clamped to
    /// `[0, 1]`. Degenerates to the point `(value, value)` when the
    /// campaign sampled the whole population.
    ///
    /// # Example
    /// ```
    /// use grel_core::stats::{Proportion, Z_90, Z_99};
    /// let p = Proportion::new(140, 2000, u64::MAX);
    /// let (lo90, hi90) = p.interval(Z_90);
    /// let (lo99, hi99) = p.interval(Z_99);
    /// assert!(lo99 < lo90 && hi90 < hi99, "99% interval is wider");
    /// ```
    pub fn interval(&self, z: f64) -> (f64, f64) {
        let m = self.margin(z);
        ((self.value - m).max(0.0), (self.value + m).min(1.0))
    }

    /// The interval at the paper's 99 % confidence level
    /// ([`interval`](Self::interval) at [`Z_99`]).
    pub fn interval_99(&self) -> (f64, f64) {
        (
            (self.value - self.margin_99).max(0.0),
            (self.value + self.margin_99).min(1.0),
        )
    }

    /// The Wilson score interval at confidence `z`, with the same
    /// finite-population correction as [`interval`](Self::interval).
    ///
    /// Unlike the normal approximation, the Wilson interval stays
    /// honest at the extremes the adaptive sampler lives in — a stratum
    /// with 0 failures out of 20 pilots gets a strictly positive upper
    /// bound instead of a degenerate `[0, 0]` — which is what makes it
    /// usable as a per-stratum standard-deviation floor for Neyman
    /// allocation. Both bounds are inside `[0, 1]` by construction, the
    /// interval is nested in `z` (a larger z only widens it), and it
    /// converges to the normal-approximation interval as trials grow.
    ///
    /// The finite-population correction enters as an effective sample
    /// size `n / fpc²` (`fpc² = (N - n)/(N - 1)`), which preserves the
    /// exact-score nesting property; an exhaustive campaign
    /// (`trials >= population`) degenerates to the point estimate.
    ///
    /// # Example
    /// ```
    /// use grel_core::stats::{Proportion, Z_99};
    /// let p = Proportion::new(0, 20, u64::MAX);
    /// let (lo, hi) = p.wilson(Z_99);
    /// assert_eq!(lo, 0.0);
    /// assert!(hi > 0.0, "zero failures still leave upside uncertainty");
    /// ```
    pub fn wilson(&self, z: f64) -> (f64, f64) {
        if self.trials >= self.population {
            return (self.value, self.value);
        }
        let n = self.trials as f64;
        let pop = self.population as f64;
        // fpc² = (N-n)/(N-1); dividing n by it inflates the effective
        // sample size, shrinking the score interval the same way the
        // fpc shrinks the normal margin.
        let fpc2 = (pop - n) / (pop - 1.0);
        let n_eff = n / fpc2;
        let p = self.value;
        let z2 = z * z;
        let denom = 1.0 + z2 / n_eff;
        let center = (p + z2 / (2.0 * n_eff)) / denom;
        let halfwidth = z / denom * (p * (1.0 - p) / n_eff + z2 / (4.0 * n_eff * n_eff)).sqrt();
        // The Wilson interval provably contains the point estimate;
        // snap the bounds to it so floating-point rounding can never
        // leave `p̂` a few ulps outside (0 failures must give lo == 0).
        let lo = (center - halfwidth).max(0.0).min(self.value);
        let hi = (center + halfwidth).min(1.0).max(self.value);
        (lo, hi)
    }
}

/// Pearson correlation coefficient of two equal-length samples (used for
/// the paper's AVF ↔ occupancy observation).
///
/// Returns 0 for degenerate inputs (fewer than two points or zero
/// variance).
///
/// # Example
/// ```
/// use grel_core::stats::pearson;
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "samples must pair up");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n as f64;
    let my = y.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_footnote_margin() {
        // "2,000 fault injections ... 2.88% error margin for 99%
        // confidence level"
        let e = error_margin(1u64 << 60, 2000, Z_99);
        assert!((e - 0.0288).abs() < 1e-4, "e = {e}");
    }

    #[test]
    fn margin_shrinks_with_samples() {
        let pop = 1u64 << 40;
        assert!(error_margin(pop, 100, Z_99) > error_margin(pop, 1000, Z_99));
        assert!(error_margin(pop, 1000, Z_95) < error_margin(pop, 1000, Z_99));
    }

    #[test]
    fn exhaustive_campaign_is_exact() {
        assert_eq!(error_margin(500, 500, Z_99), 0.0);
        assert_eq!(error_margin(500, 600, Z_99), 0.0);
    }

    #[test]
    fn sample_size_round_trips_margin() {
        let pop = 1u64 << 50;
        for &target in &[0.05, 0.02, 0.01] {
            let n = required_sample_size(pop, target, Z_95);
            let e = error_margin(pop, n, Z_95);
            assert!(e <= target + 1e-9, "margin {e} for requested {target}");
        }
    }

    #[test]
    fn finite_population_reduces_sample() {
        // A small population needs fewer samples than an infinite one.
        let small = required_sample_size(10_000, 0.01, Z_99);
        let big = required_sample_size(1u64 << 60, 0.01, Z_99);
        assert!(small < big);
    }

    #[test]
    fn proportion_interval() {
        let p = Proportion::new(0, 100, 1u64 << 40);
        assert_eq!(p.value, 0.0);
        assert_eq!(p.interval_99().0, 0.0, "clamped at zero");
        let q = Proportion::new(100, 100, 1u64 << 40);
        assert_eq!(q.interval_99().1, 1.0, "clamped at one");
    }

    #[test]
    fn interval_generalizes_interval_99() {
        let p = Proportion::new(30, 200, 1u64 << 40);
        assert_eq!(p.interval(Z_99), p.interval_99());
        assert!(p.margin(Z_90) < p.margin(Z_95));
        assert!(p.margin(Z_95) < p.margin(Z_99));
    }

    #[test]
    fn exhaustive_proportion_interval_degenerates() {
        // trials == population: the campaign measured every site, so any
        // confidence level collapses to the point estimate.
        let p = Proportion::new(3, 10, 10);
        assert_eq!(p.margin(Z_99), 0.0);
        assert_eq!(p.interval(Z_90), (p.value, p.value));
        assert_eq!(p.interval(Z_99), (p.value, p.value));
    }

    #[test]
    fn wilson_brackets_the_estimate_and_stays_in_unit_range() {
        for &(hits, trials) in &[(0u64, 20u64), (1, 20), (10, 20), (20, 20), (140, 2000)] {
            let p = Proportion::new(hits, trials, 1u64 << 40);
            let (lo, hi) = p.wilson(Z_99);
            assert!((0.0..=1.0).contains(&lo), "{hits}/{trials}: lo = {lo}");
            assert!((0.0..=1.0).contains(&hi), "{hits}/{trials}: hi = {hi}");
            assert!(lo <= p.value && p.value <= hi, "{hits}/{trials}");
        }
    }

    #[test]
    fn wilson_zero_failures_keep_positive_upper_bound() {
        let p = Proportion::new(0, 32, 1u64 << 40);
        let (lo, hi) = p.wilson(Z_99);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.25, "hi = {hi}");
    }

    #[test]
    fn wilson_is_nested_in_z() {
        let p = Proportion::new(7, 50, 1u64 << 40);
        let (lo95, hi95) = p.wilson(Z_95);
        let (lo99, hi99) = p.wilson(Z_99);
        assert!(lo99 <= lo95 && hi95 <= hi99);
    }

    #[test]
    fn wilson_converges_to_normal_interval() {
        // Wald and Wilson differ by O(z²/n); at n = 200,000 the gap
        // must be far inside the z²/n envelope.
        let trials = 200_000;
        let p = Proportion::new(trials / 10, trials, u64::MAX);
        let (wlo, whi) = p.wilson(Z_99);
        let m = Z_99 * (p.value * (1.0 - p.value) / trials as f64).sqrt();
        let (nlo, nhi) = (p.value - m, p.value + m);
        let tol = 1.5 * Z_99 * Z_99 / trials as f64;
        assert!((wlo - nlo).abs() < tol, "lo gap {}", (wlo - nlo).abs());
        assert!((whi - nhi).abs() < tol, "hi gap {}", (whi - nhi).abs());
    }

    #[test]
    fn wilson_exhaustive_degenerates_to_point() {
        let p = Proportion::new(3, 10, 10);
        assert_eq!(p.wilson(Z_90), (p.value, p.value));
        assert_eq!(p.wilson(Z_99), (p.value, p.value));
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0, "zero variance");
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0, "single point");
        let r = pearson(&[1.0, 2.0, 3.0, 4.0], &[1.1, 1.9, 3.2, 3.8]);
        assert!(r > 0.99);
    }

    #[test]
    #[should_panic(expected = "at least one injection")]
    fn zero_sample_rejected() {
        let _ = error_margin(100, 0, Z_99);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trial_proportion_rejected() {
        let _ = Proportion::new(0, 0, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "hits <= trials")]
    fn overfull_proportion_rejected() {
        let _ = Proportion::new(101, 100, 1 << 20);
    }
}
