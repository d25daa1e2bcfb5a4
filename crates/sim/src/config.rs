//! Architecture configuration: the knobs that differentiate the four
//! modelled GPU designs.

use crate::cache::CacheGeom;
use crate::fault::Structure;
use simt_isa::ArchCaps;

/// GPU vendor family (decides the programming-model terminology only; all
/// behavioural differences are explicit [`ArchConfig`] fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// NVIDIA (G80 / GT200 / Fermi in the study).
    Nvidia,
    /// AMD (Southern Islands in the study).
    Amd,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Vendor::Nvidia => "NVIDIA",
            Vendor::Amd => "AMD",
        })
    }
}

/// Warp scheduling policy of an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// Loose round-robin: rotate through warp slots, issue the first ready
    /// warp after the last issued one.
    Lrr,
    /// Greedy-then-oldest: keep issuing the same warp until it stalls, then
    /// fall back to the oldest ready warp.
    Gto,
}

/// Instruction and memory latencies, in SM cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latencies {
    /// Simple integer / logic / move ALU result latency.
    pub alu: u32,
    /// Integer multiply / divide class latency.
    pub imul: u32,
    /// Float add/mul/fma latency.
    pub fp: u32,
    /// Special-function unit latency (sqrt, rcp, exp2, log2, fdiv).
    pub sfu: u32,
    /// Shared-memory (LDS) access latency.
    pub lds: u32,
    /// L1 hit latency.
    pub l1_hit: u32,
    /// L2 hit latency.
    pub l2_hit: u32,
    /// DRAM access latency.
    pub dram: u32,
    /// Extra cycles per additional memory transaction of an uncoalesced
    /// warp access.
    pub mem_serialize: u32,
}

/// Complete description of one GPU design.
///
/// The four devices of the study are constructed by the `gpu-archs` crate;
/// [`ArchConfig::small_test_gpu`] provides a tiny configuration for unit
/// tests.
///
/// # Example
/// ```
/// use simt_sim::ArchConfig;
/// let a = ArchConfig::small_test_gpu();
/// assert!(a.rf_words_per_sm() > 0);
/// assert_eq!(a.caps().warp_size, a.warp_size);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Marketing name of the device (e.g. `GeForce GTX 480`).
    pub name: String,
    /// Microarchitecture name (e.g. `Fermi`).
    pub microarch: String,
    /// Vendor family.
    pub vendor: Vendor,
    /// Warp (NVIDIA) / wavefront (AMD) width in threads.
    pub warp_size: u32,
    /// Number of streaming multiprocessors / compute units.
    pub num_sms: u32,
    /// SIMD lanes fed per cycle; a warp instruction occupies its pipeline
    /// for `warp_size / simd_width` cycles.
    pub simd_width: u32,
    /// Shader clock in MHz (used by the EPF metric, not by the cycle loop).
    pub clock_mhz: u32,
    /// Vector register file bytes per SM.
    pub regfile_bytes_per_sm: u32,
    /// Scalar register file bytes per SM (0 on architectures without a
    /// scalar unit).
    pub sregfile_bytes_per_sm: u32,
    /// Local/shared memory (LDS) bytes per SM.
    pub lds_bytes_per_sm: u32,
    /// Hardware warp contexts per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Warp instructions issued per SM per cycle.
    pub issue_width: u32,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Latency table.
    pub lat: Latencies,
    /// Number of LDS banks (word-interleaved).
    pub lds_banks: u32,
    /// Extra cycles per conflicting LDS bank access.
    pub lds_bank_penalty: u32,
    /// Per-SM L1 data cache (None = uncached global loads, as on G80/GT200).
    pub l1: Option<CacheGeom>,
    /// Device-level L2 cache.
    pub l2: Option<CacheGeom>,
    /// Coalescing segment size in bytes (64 on G80/GT200, 128 on Fermi/SI).
    pub coalesce_bytes: u32,
    /// Raw soft-error rate of the SRAM arrays, in FIT per Mbit, used by the
    /// FIT/EPF metrics. Technology-node dependent.
    pub raw_fit_per_mbit: f64,
}

impl ArchConfig {
    /// Lowering capabilities implied by this configuration.
    pub fn caps(&self) -> ArchCaps {
        ArchCaps {
            has_scalar_unit: self.sregfile_bytes_per_sm > 0,
            warp_size: self.warp_size,
        }
    }

    /// Vector register file size per SM, in 32-bit words.
    pub fn rf_words_per_sm(&self) -> u32 {
        self.regfile_bytes_per_sm / 4
    }

    /// Scalar register file size per SM, in 32-bit words.
    pub fn srf_words_per_sm(&self) -> u32 {
        self.sregfile_bytes_per_sm / 4
    }

    /// LDS size per SM, in 32-bit words.
    pub fn lds_words_per_sm(&self) -> u32 {
        self.lds_bytes_per_sm / 4
    }

    /// Size of one SM's instance of `structure`, in 32-bit words (0 when
    /// the device lacks it): the storage axis of the fault-site space.
    pub fn words_per_sm(&self, structure: Structure) -> u32 {
        match structure {
            Structure::VectorRegisterFile => self.rf_words_per_sm(),
            Structure::LocalMemory => self.lds_words_per_sm(),
            Structure::ScalarRegisterFile => self.srf_words_per_sm(),
        }
    }

    /// Maximum resident threads per SM.
    pub fn max_threads_per_sm(&self) -> u32 {
        self.max_warps_per_sm * self.warp_size
    }

    /// Cycles a warp instruction occupies its SIMD pipeline.
    pub fn warp_issue_cycles(&self) -> u32 {
        (self.warp_size / self.simd_width).max(1)
    }

    /// A deliberately tiny 2-SM device for unit tests: warp size 8, small
    /// register file and LDS, short latencies.
    ///
    /// # Example
    /// ```
    /// use simt_sim::ArchConfig;
    /// let a = ArchConfig::small_test_gpu();
    /// assert_eq!(a.num_sms, 2);
    /// assert_eq!(a.warp_size, 8);
    /// ```
    pub fn small_test_gpu() -> Self {
        ArchConfig {
            name: "TestGPU".into(),
            microarch: "test".into(),
            vendor: Vendor::Nvidia,
            warp_size: 8,
            num_sms: 2,
            simd_width: 8,
            clock_mhz: 1000,
            regfile_bytes_per_sm: 16 * 1024,
            sregfile_bytes_per_sm: 0,
            lds_bytes_per_sm: 4 * 1024,
            max_warps_per_sm: 16,
            max_blocks_per_sm: 4,
            issue_width: 1,
            scheduler: SchedulerPolicy::Lrr,
            lat: Latencies {
                alu: 2,
                imul: 4,
                fp: 4,
                sfu: 8,
                lds: 4,
                l1_hit: 6,
                l2_hit: 20,
                dram: 60,
                mem_serialize: 2,
            },
            lds_banks: 8,
            lds_bank_penalty: 1,
            l1: Some(CacheGeom {
                bytes: 1024,
                line_bytes: 64,
                assoc: 2,
            }),
            l2: Some(CacheGeom {
                bytes: 8 * 1024,
                line_bytes: 64,
                assoc: 4,
            }),
            coalesce_bytes: 64,
            raw_fit_per_mbit: 1000.0,
        }
    }

    /// Same as [`ArchConfig::small_test_gpu`] but with a scalar unit and
    /// wavefront width 16 — a miniature Southern-Islands-style device for
    /// tests.
    pub fn small_test_gpu_scalar() -> Self {
        let mut a = Self::small_test_gpu();
        a.name = "TestGPU-S".into();
        a.vendor = Vendor::Amd;
        a.warp_size = 16;
        a.simd_width = 8;
        a.sregfile_bytes_per_sm = 1024;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_sizes() {
        let a = ArchConfig::small_test_gpu();
        assert_eq!(a.rf_words_per_sm(), 4096);
        assert_eq!(a.lds_words_per_sm(), 1024);
        assert_eq!(a.srf_words_per_sm(), 0);
        assert_eq!(a.max_threads_per_sm(), 128);
        assert_eq!(a.warp_issue_cycles(), 1);
    }

    #[test]
    fn words_per_sm_reports_sizes() {
        let a = ArchConfig::small_test_gpu();
        assert_eq!(a.words_per_sm(Structure::VectorRegisterFile), 4096);
        assert_eq!(a.words_per_sm(Structure::LocalMemory), 1024);
        assert_eq!(a.words_per_sm(Structure::ScalarRegisterFile), 0);
    }

    #[test]
    fn caps_reflect_scalar_unit() {
        assert!(!ArchConfig::small_test_gpu().caps().has_scalar_unit);
        let s = ArchConfig::small_test_gpu_scalar();
        assert!(s.caps().has_scalar_unit);
        assert_eq!(s.caps().warp_size, 16);
        assert_eq!(s.warp_issue_cycles(), 2);
    }

    #[test]
    fn vendor_display() {
        assert_eq!(Vendor::Nvidia.to_string(), "NVIDIA");
        assert_eq!(Vendor::Amd.to_string(), "AMD");
    }
}
