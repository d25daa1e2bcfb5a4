//! Error-protection trade-off evaluation.
//!
//! The paper motivates EPF as the metric an architect uses to decide
//! whether a protection mechanism is worth its performance cost: "Larger
//! EPF numbers show a larger number of executions between failures and
//! different protection mechanisms can deliver different improvements in
//! the FIT rates and can also have different impact on performance."
//! This module closes that loop: given a measured evaluation point, it
//! projects FIT, EIT and EPF under standard SRAM protection schemes.

use crate::epf::{epf, FitBreakdown};
use std::fmt;

/// A storage-array protection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Unprotected SRAM (the paper's measured baseline).
    None,
    /// Per-word parity: single-bit flips are *detected* (SDCs become
    /// DUEs) but not corrected. FIT is unchanged; the SDC/DUE mix shifts.
    Parity,
    /// SECDED ECC: single-bit flips are corrected; only multi-bit upsets
    /// (modelled as a residual fraction) still fail.
    Secded,
}

impl Protection {
    /// Fraction of single-bit failures that survive the scheme.
    ///
    /// SECDED's residual covers the multi-bit events a single-bit study
    /// cannot see; 8 % is a common planning number for adjacent MBUs at
    /// these nodes.
    pub fn residual_failure_fraction(self) -> f64 {
        match self {
            Protection::None | Protection::Parity => 1.0,
            Protection::Secded => 0.08,
        }
    }

    /// Relative runtime cost of the scheme (extra access latency /
    /// pipeline bubbles), as a cycle multiplier.
    pub fn runtime_overhead(self) -> f64 {
        match self {
            Protection::None => 1.0,
            Protection::Parity => 1.02,
            Protection::Secded => 1.06,
        }
    }

    /// Whether surviving failures are detected (DUE) rather than silent.
    pub fn detects(self) -> bool {
        matches!(self, Protection::Parity | Protection::Secded)
    }

    /// All schemes, weakest first.
    pub fn all() -> [Protection; 3] {
        [Protection::None, Protection::Parity, Protection::Secded]
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protection::None => "none",
            Protection::Parity => "parity",
            Protection::Secded => "SECDED",
        })
    }
}

/// Projected reliability/performance of one evaluation point under a
/// protection scheme.
#[derive(Debug, Clone, Copy)]
pub struct ProtectedPoint {
    /// The scheme applied (to the studied storage structures).
    pub scheme: Protection,
    /// Total FIT after protection.
    pub fit_gpu: f64,
    /// Fraction of remaining failures that are silent corruptions.
    pub sdc_share: f64,
    /// Executions in 10⁹ hours after the runtime overhead.
    pub eit: f64,
    /// Executions per failure.
    pub epf: f64,
}

/// Projects a measured point (`fit`, `eit`, baseline SDC share) under a
/// protection scheme.
///
/// # Example
/// ```
/// use grel_core::protection::{project, Protection};
/// use grel_core::FitBreakdown;
///
/// let fit = FitBreakdown { rf: 80.0, lds: 20.0, srf: 0.0 };
/// let base = project(&fit, 1e15, 0.7, Protection::None);
/// let ecc = project(&fit, 1e15, 0.7, Protection::Secded);
/// assert!(ecc.epf > base.epf, "ECC buys executions between failures");
/// assert_eq!(ecc.sdc_share, 0.0, "surviving failures are detected");
/// ```
pub fn project(
    fit: &FitBreakdown,
    eit_baseline: f64,
    sdc_share_baseline: f64,
    scheme: Protection,
) -> ProtectedPoint {
    let fit_gpu = fit.total() * scheme.residual_failure_fraction();
    let eit = eit_baseline / scheme.runtime_overhead();
    ProtectedPoint {
        scheme,
        fit_gpu,
        sdc_share: if scheme.detects() {
            0.0
        } else {
            sdc_share_baseline
        },
        eit,
        epf: epf(eit, fit_gpu),
    }
}

/// Projects a point under every scheme, weakest first.
pub fn protection_sweep(
    fit: &FitBreakdown,
    eit_baseline: f64,
    sdc_share_baseline: f64,
) -> Vec<ProtectedPoint> {
    Protection::all()
        .into_iter()
        .map(|s| project(fit, eit_baseline, sdc_share_baseline, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit() -> FitBreakdown {
        FitBreakdown {
            rf: 100.0,
            lds: 50.0,
            srf: 10.0,
        }
    }

    #[test]
    fn parity_converts_sdc_to_due_without_fit_change() {
        let base = project(&fit(), 1e15, 0.6, Protection::None);
        let par = project(&fit(), 1e15, 0.6, Protection::Parity);
        assert_eq!(par.fit_gpu, base.fit_gpu);
        assert_eq!(base.sdc_share, 0.6);
        assert_eq!(par.sdc_share, 0.0);
        assert!(par.epf < base.epf, "parity costs a little performance");
    }

    #[test]
    fn secded_cuts_fit_by_the_residual() {
        let base = project(&fit(), 1e15, 0.6, Protection::None);
        let ecc = project(&fit(), 1e15, 0.6, Protection::Secded);
        assert!((ecc.fit_gpu - base.fit_gpu * 0.08).abs() < 1e-9);
        assert!(ecc.epf > base.epf * 10.0, "order-of-magnitude EPF gain");
    }

    #[test]
    fn sweep_is_ordered_and_complete() {
        let sweep = protection_sweep(&fit(), 1e15, 0.5);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].scheme, Protection::None);
        assert_eq!(sweep[2].scheme, Protection::Secded);
        // EIT monotonically decreases with protection overhead.
        assert!(sweep[0].eit > sweep[1].eit && sweep[1].eit > sweep[2].eit);
    }

    #[test]
    fn display_names() {
        assert_eq!(Protection::Secded.to_string(), "SECDED");
        assert_eq!(Protection::None.to_string(), "none");
    }

    #[test]
    fn zero_fit_gives_infinite_epf() {
        let z = FitBreakdown::default();
        let p = project(&z, 1e15, 0.0, Protection::Secded);
        assert!(p.epf.is_infinite());
    }
}
