//! FIT, EIT and the paper's combined metric: Executions Per Failure.
//!
//! AVF alone compares structures, not systems: it ignores clock frequency,
//! structure sizes and how long the program runs. The paper therefore
//! defines **EPF = EIT / FIT_GPU** (Fig. 3):
//!
//! * `FIT_structure = raw_FIT/Mbit × Mbits × AVF` — failures in 10⁹ device
//!   hours contributed by one structure;
//! * `FIT_GPU` — the sum over the studied structures of all SMs;
//! * `EIT` — complete workload executions in 10⁹ hours, from the measured
//!   cycle count and the shader clock;
//! * `EPF` — how many executions complete between failures.

use simt_sim::{ArchConfig, Structure};

/// Seconds in 10⁹ hours (the FIT time base).
pub const FIT_HOURS_SECONDS: f64 = 3.6e12;

/// Bits in one structure across all SMs of the device.
///
/// # Example
/// ```
/// use grel_core::epf::structure_bits;
/// use gpu_archs::quadro_fx_5600;
/// use simt_sim::Structure;
/// // 8192 words × 32 bits × 16 SMs
/// assert_eq!(structure_bits(&quadro_fx_5600(), Structure::VectorRegisterFile),
///            8192 * 32 * 16);
/// ```
pub fn structure_bits(arch: &ArchConfig, structure: Structure) -> u64 {
    arch.words_per_sm(structure) as u64 * 32 * arch.num_sms as u64
}

/// FIT of one structure given its measured AVF.
///
/// # Example
/// ```
/// use grel_core::epf::structure_fit;
/// use gpu_archs::quadro_fx_5600;
/// use simt_sim::Structure;
/// let fit = structure_fit(&quadro_fx_5600(), Structure::VectorRegisterFile, 0.1);
/// assert!(fit > 0.0);
/// ```
pub fn structure_fit(arch: &ArchConfig, structure: Structure, avf: f64) -> f64 {
    let mbits = structure_bits(arch, structure) as f64 / 1e6;
    arch.raw_fit_per_mbit * mbits * avf
}

/// The FIT contributions of the studied structures of one device running
/// one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FitBreakdown {
    /// Vector register file FIT.
    pub rf: f64,
    /// Local memory FIT.
    pub lds: f64,
    /// Scalar register file FIT (0 on devices without one).
    pub srf: f64,
}

impl FitBreakdown {
    /// Builds the breakdown from per-structure AVFs.
    pub fn from_avf(arch: &ArchConfig, avf_rf: f64, avf_lds: f64, avf_srf: f64) -> Self {
        FitBreakdown {
            rf: structure_fit(arch, Structure::VectorRegisterFile, avf_rf),
            lds: structure_fit(arch, Structure::LocalMemory, avf_lds),
            srf: if arch.srf_words_per_sm() > 0 {
                structure_fit(arch, Structure::ScalarRegisterFile, avf_srf)
            } else {
                0.0
            },
        }
    }

    /// `FIT_GPU`: total failures in 10⁹ hours.
    pub fn total(&self) -> f64 {
        self.rf + self.lds + self.srf
    }
}

/// Executions In Time: complete workload executions in 10⁹ device hours.
///
/// # Example
/// ```
/// use grel_core::epf::eit;
/// use gpu_archs::geforce_gtx_480;
/// // A 1.401 GHz device finishing a run in 1.401e6 cycles executes
/// // 1e-3 s per run -> 3.6e15 runs per 1e9 hours.
/// let e = eit(&geforce_gtx_480(), 1_401_000);
/// assert!((e - 3.6e15).abs() / 3.6e15 < 1e-9);
/// ```
pub fn eit(arch: &ArchConfig, cycles: u64) -> f64 {
    assert!(cycles > 0, "execution must take at least one cycle");
    let seconds = cycles as f64 / (arch.clock_mhz as f64 * 1e6);
    FIT_HOURS_SECONDS / seconds
}

/// Executions Per Failure: `EIT / FIT_GPU`.
///
/// Returns `f64::INFINITY` for a zero-FIT workload (nothing vulnerable).
///
/// # Example
/// ```
/// use grel_core::epf::epf;
/// assert_eq!(epf(1e15, 1e2), 1e13);
/// assert!(epf(1e15, 0.0).is_infinite());
/// ```
pub fn epf(eit: f64, fit_gpu: f64) -> f64 {
    if fit_gpu == 0.0 {
        f64::INFINITY
    } else {
        eit / fit_gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, hd_radeon_7970, quadro_fx_5600};

    #[test]
    fn bits_scale_with_device() {
        let si = hd_radeon_7970();
        assert_eq!(
            structure_bits(&si, Structure::VectorRegisterFile),
            65536 * 32 * 32
        );
        assert_eq!(
            structure_bits(&si, Structure::ScalarRegisterFile),
            2048 * 32 * 32
        );
        assert_eq!(
            structure_bits(&quadro_fx_5600(), Structure::ScalarRegisterFile),
            0
        );
    }

    #[test]
    fn fit_is_linear_in_avf() {
        let a = quadro_fx_5600();
        let f1 = structure_fit(&a, Structure::LocalMemory, 0.2);
        let f2 = structure_fit(&a, Structure::LocalMemory, 0.4);
        assert!((f2 / f1 - 2.0).abs() < 1e-12);
        assert_eq!(structure_fit(&a, Structure::LocalMemory, 0.0), 0.0);
    }

    #[test]
    fn breakdown_totals() {
        let a = hd_radeon_7970();
        let b = FitBreakdown::from_avf(&a, 0.1, 0.2, 0.05);
        assert!(b.rf > 0.0 && b.lds > 0.0 && b.srf > 0.0);
        assert!((b.total() - (b.rf + b.lds + b.srf)).abs() < 1e-9);
        let nv = FitBreakdown::from_avf(&quadro_fx_5600(), 0.1, 0.2, 0.05);
        assert_eq!(nv.srf, 0.0, "no scalar file on NVIDIA");
    }

    #[test]
    fn faster_device_has_higher_eit_for_same_cycles() {
        let g80 = quadro_fx_5600(); // 1350 MHz
        let si = hd_radeon_7970(); // 925 MHz
        assert!(eit(&g80, 1_000_000) > eit(&si, 1_000_000));
    }

    #[test]
    fn epf_magnitude_is_paper_scale() {
        // Typical numbers: ~1e6-cycle workloads, AVF ~ 10% => EPF within
        // the paper's 1e12..1e16 span.
        for arch in all_devices() {
            let e = eit(&arch, 2_000_000);
            let fit = FitBreakdown::from_avf(&arch, 0.10, 0.10, 0.05).total();
            let v = epf(e, fit);
            assert!(
                (1e10..1e18).contains(&v),
                "{}: EPF {v:e} out of plausible span",
                arch.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycles_rejected() {
        let _ = eit(&quadro_fx_5600(), 0);
    }
}
