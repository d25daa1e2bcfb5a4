//! # gpu-archs — the four GPU designs of the ISPASS 2017 study
//!
//! Device models for:
//!
//! | Device | Microarchitecture | ISA model |
//! |---|---|---|
//! | [`hd_radeon_7970`] | AMD Southern Islands (Tahiti) | scalar + vector files, wavefront 64 |
//! | [`quadro_fx_5600`] | NVIDIA G80 | vector-only, warp 32, uncached global loads |
//! | [`quadro_fx_5800`] | NVIDIA GT200 | vector-only, warp 32, uncached global loads |
//! | [`geforce_gtx_480`] | NVIDIA Fermi (GF100) | vector-only, warp 32, L1+L2 |
//!
//! Geometry (SM/CU counts, register-file and shared-memory sizes, clocks,
//! warp widths, scheduler generations, coalescing rules and cache
//! hierarchies) follows the public specifications of each device and the
//! configurations shipped with GPGPU-Sim 3.2.2 / Multi2Sim 4.2, the
//! simulators the original paper builds GUFI and SIFI on.
//!
//! Raw FIT rates per Mbit are *technology-scaled defaults* (the paper does
//! not publish its raw rates); override them via the mutable fields if you
//! have better numbers — EPF shapes are insensitive to a common factor.
//!
//! # Example
//! ```
//! use gpu_archs::{all_devices, hd_radeon_7970};
//! assert_eq!(all_devices().len(), 4);
//! let si = hd_radeon_7970();
//! assert!(si.caps().has_scalar_unit);
//! assert_eq!(si.warp_size, 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simt_sim::{ArchConfig, CacheGeom, Latencies, SchedulerPolicy, Vendor};

/// AMD HD Radeon 7970 (Southern Islands, Tahiti XT).
///
/// 32 compute units at 925 MHz; per CU: 256 KiB vector register file
/// (4 SIMDs × 64 KiB), 8 KiB scalar register file, 64 KiB LDS with 32
/// banks; wavefront width 64 executed on 16-wide SIMDs (4 cycles per
/// wavefront instruction); 16 KiB per-CU L1 and a shared 768 KiB L2.
///
/// # Example
/// ```
/// use gpu_archs::hd_radeon_7970;
/// let a = hd_radeon_7970();
/// assert_eq!(a.num_sms, 32);
/// assert_eq!(a.regfile_bytes_per_sm, 256 * 1024);
/// ```
pub fn hd_radeon_7970() -> ArchConfig {
    ArchConfig {
        name: "HD Radeon 7970".into(),
        microarch: "Southern Islands".into(),
        vendor: Vendor::Amd,
        warp_size: 64,
        num_sms: 32,
        simd_width: 16,
        clock_mhz: 925,
        regfile_bytes_per_sm: 256 * 1024,
        sregfile_bytes_per_sm: 8 * 1024,
        lds_bytes_per_sm: 64 * 1024,
        max_warps_per_sm: 40,
        max_blocks_per_sm: 16,
        issue_width: 4,
        scheduler: SchedulerPolicy::Lrr,
        lat: Latencies {
            alu: 4,
            imul: 8,
            fp: 4,
            sfu: 16,
            lds: 32,
            l1_hit: 70,
            l2_hit: 200,
            dram: 420,
            mem_serialize: 4,
        },
        lds_banks: 32,
        lds_bank_penalty: 2,
        l1: Some(CacheGeom {
            bytes: 16 * 1024,
            line_bytes: 64,
            assoc: 4,
        }),
        l2: Some(CacheGeom {
            bytes: 768 * 1024,
            line_bytes: 64,
            assoc: 16,
        }),
        coalesce_bytes: 128,
        // 28 nm SRAM.
        raw_fit_per_mbit: 650.0,
    }
}

/// NVIDIA Quadro FX 5600 (G80, the first CUDA-capable generation).
///
/// 16 SMs at 1350 MHz shader clock; per SM: 32 KiB register file
/// (8192 × 32-bit), 16 KiB shared memory with 16 banks; warp 32 on 8-wide
/// SIMD (4 cycles per warp instruction); global loads are uncached and
/// coalesce into 64-byte segments per half-warp.
///
/// # Example
/// ```
/// use gpu_archs::quadro_fx_5600;
/// let a = quadro_fx_5600();
/// assert_eq!(a.rf_words_per_sm(), 8192);
/// assert!(a.l1.is_none(), "G80 global loads are uncached");
/// ```
pub fn quadro_fx_5600() -> ArchConfig {
    ArchConfig {
        name: "Quadro FX 5600".into(),
        microarch: "G80".into(),
        vendor: Vendor::Nvidia,
        warp_size: 32,
        num_sms: 16,
        simd_width: 8,
        clock_mhz: 1350,
        regfile_bytes_per_sm: 32 * 1024,
        sregfile_bytes_per_sm: 0,
        lds_bytes_per_sm: 16 * 1024,
        max_warps_per_sm: 24,
        max_blocks_per_sm: 8,
        issue_width: 1,
        scheduler: SchedulerPolicy::Lrr,
        lat: Latencies {
            alu: 10,
            imul: 16,
            fp: 10,
            sfu: 26,
            lds: 26,
            l1_hit: 420, // unused: no L1
            l2_hit: 420, // unused: no L2
            dram: 420,
            mem_serialize: 6,
        },
        lds_banks: 16,
        lds_bank_penalty: 2,
        l1: None,
        l2: None,
        coalesce_bytes: 64,
        // 90 nm SRAM.
        raw_fit_per_mbit: 1100.0,
    }
}

/// NVIDIA Quadro FX 5800 (GT200).
///
/// 30 SMs at 1296 MHz; per SM: 64 KiB register file (16384 × 32-bit),
/// 16 KiB shared memory with 16 banks; warp 32 on 8-wide SIMD; relaxed
/// coalescing (64-byte segments) but still no data cache for global loads.
///
/// # Example
/// ```
/// use gpu_archs::quadro_fx_5800;
/// let a = quadro_fx_5800();
/// assert_eq!(a.num_sms, 30);
/// assert_eq!(a.rf_words_per_sm(), 16384);
/// ```
pub fn quadro_fx_5800() -> ArchConfig {
    ArchConfig {
        name: "Quadro FX 5800".into(),
        microarch: "GT200".into(),
        vendor: Vendor::Nvidia,
        warp_size: 32,
        num_sms: 30,
        simd_width: 8,
        clock_mhz: 1296,
        regfile_bytes_per_sm: 64 * 1024,
        sregfile_bytes_per_sm: 0,
        lds_bytes_per_sm: 16 * 1024,
        max_warps_per_sm: 32,
        max_blocks_per_sm: 8,
        issue_width: 1,
        scheduler: SchedulerPolicy::Lrr,
        lat: Latencies {
            alu: 8,
            imul: 14,
            fp: 8,
            sfu: 24,
            lds: 24,
            l1_hit: 440,
            l2_hit: 440,
            dram: 440,
            mem_serialize: 4,
        },
        lds_banks: 16,
        lds_bank_penalty: 2,
        l1: None,
        l2: None,
        coalesce_bytes: 64,
        // 65 nm SRAM.
        raw_fit_per_mbit: 900.0,
    }
}

/// NVIDIA GeForce GTX 480 (Fermi, GF100).
///
/// 15 SMs at 1401 MHz; per SM: 128 KiB register file (32768 × 32-bit),
/// 48 KiB shared memory with 32 banks, dual warp schedulers (GTO-style
/// greedy), 16-wide half-pipelines; 16 KiB L1 (the 48/16 split configured
/// for shared-heavy workloads) and a shared 768 KiB L2; 128-byte
/// coalescing.
///
/// # Example
/// ```
/// use gpu_archs::geforce_gtx_480;
/// let a = geforce_gtx_480();
/// assert_eq!(a.rf_words_per_sm(), 32768);
/// assert!(a.l1.is_some() && a.l2.is_some());
/// ```
pub fn geforce_gtx_480() -> ArchConfig {
    ArchConfig {
        name: "GeForce GTX 480".into(),
        microarch: "Fermi".into(),
        vendor: Vendor::Nvidia,
        warp_size: 32,
        num_sms: 15,
        simd_width: 16,
        clock_mhz: 1401,
        regfile_bytes_per_sm: 128 * 1024,
        sregfile_bytes_per_sm: 0,
        lds_bytes_per_sm: 48 * 1024,
        max_warps_per_sm: 48,
        max_blocks_per_sm: 8,
        issue_width: 2,
        scheduler: SchedulerPolicy::Gto,
        lat: Latencies {
            alu: 6,
            imul: 12,
            fp: 6,
            sfu: 20,
            lds: 20,
            l1_hit: 80,
            l2_hit: 220,
            dram: 450,
            mem_serialize: 4,
        },
        lds_banks: 32,
        lds_bank_penalty: 2,
        l1: Some(CacheGeom {
            bytes: 16 * 1024,
            line_bytes: 128,
            assoc: 4,
        }),
        l2: Some(CacheGeom {
            bytes: 768 * 1024,
            line_bytes: 128,
            assoc: 16,
        }),
        coalesce_bytes: 128,
        // 40 nm SRAM.
        raw_fit_per_mbit: 800.0,
    }
}

/// All four devices of the study, in the paper's figure order:
/// HD Radeon 7970, Quadro FX 5600, Quadro FX 5800, GeForce GTX 480.
///
/// # Example
/// ```
/// use gpu_archs::all_devices;
/// let names: Vec<_> = all_devices().iter().map(|a| a.name.clone()).collect();
/// assert_eq!(names[0], "HD Radeon 7970");
/// assert_eq!(names[3], "GeForce GTX 480");
/// ```
pub fn all_devices() -> Vec<ArchConfig> {
    vec![
        hd_radeon_7970(),
        quadro_fx_5600(),
        quadro_fx_5800(),
        geforce_gtx_480(),
    ]
}

/// Looks a device up by (case-insensitive) name or microarchitecture.
///
/// # Example
/// ```
/// use gpu_archs::device_by_name;
/// assert!(device_by_name("fermi").is_some());
/// assert!(device_by_name("Quadro FX 5600").is_some());
/// assert!(device_by_name("voodoo2").is_none());
/// ```
pub fn device_by_name(name: &str) -> Option<ArchConfig> {
    let n = name.to_ascii_lowercase();
    all_devices()
        .into_iter()
        .find(|a| a.name.to_ascii_lowercase() == n || a.microarch.to_ascii_lowercase() == n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_devices() {
        let devs = all_devices();
        assert_eq!(devs.len(), 4);
        let mut names: Vec<_> = devs.iter().map(|a| a.name.clone()).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn only_si_has_scalar_unit() {
        for a in all_devices() {
            let is_amd = a.vendor == Vendor::Amd;
            assert_eq!(a.caps().has_scalar_unit, is_amd, "{}", a.name);
            assert_eq!(a.warp_size, if is_amd { 64 } else { 32 });
        }
    }

    #[test]
    fn register_file_sizes_match_specs() {
        assert_eq!(hd_radeon_7970().rf_words_per_sm(), 65536);
        assert_eq!(quadro_fx_5600().rf_words_per_sm(), 8192);
        assert_eq!(quadro_fx_5800().rf_words_per_sm(), 16384);
        assert_eq!(geforce_gtx_480().rf_words_per_sm(), 32768);
    }

    #[test]
    fn shared_memory_sizes_match_specs() {
        assert_eq!(hd_radeon_7970().lds_bytes_per_sm, 65536);
        assert_eq!(quadro_fx_5600().lds_bytes_per_sm, 16384);
        assert_eq!(quadro_fx_5800().lds_bytes_per_sm, 16384);
        assert_eq!(geforce_gtx_480().lds_bytes_per_sm, 49152);
    }

    #[test]
    fn pre_fermi_is_uncached() {
        assert!(quadro_fx_5600().l1.is_none());
        assert!(quadro_fx_5600().l2.is_none());
        assert!(quadro_fx_5800().l1.is_none());
        assert!(geforce_gtx_480().l1.is_some());
    }

    #[test]
    fn warp_issue_cycles_per_generation() {
        assert_eq!(quadro_fx_5600().warp_issue_cycles(), 4);
        assert_eq!(quadro_fx_5800().warp_issue_cycles(), 4);
        assert_eq!(geforce_gtx_480().warp_issue_cycles(), 2);
        assert_eq!(hd_radeon_7970().warp_issue_cycles(), 4);
    }

    #[test]
    fn lookup_by_name_and_microarch() {
        assert_eq!(device_by_name("g80").unwrap().name, "Quadro FX 5600");
        assert_eq!(device_by_name("GT200").unwrap().name, "Quadro FX 5800");
        assert_eq!(
            device_by_name("southern islands").unwrap().name,
            "HD Radeon 7970"
        );
        assert_eq!(
            device_by_name("GeForce GTX 480").unwrap().microarch,
            "Fermi"
        );
    }

    #[test]
    fn fit_rates_positive() {
        for a in all_devices() {
            assert!(a.raw_fit_per_mbit > 0.0, "{}", a.name);
            assert!(a.clock_mhz > 0);
        }
    }
}

/// Builder for custom device models, starting from an existing device.
///
/// Lets reliability studies sweep a single parameter (register-file size,
/// clock, SM count, scheduler…) while keeping everything else fixed — the
/// "resource sizes" axis the paper's introduction names.
///
/// # Example
/// ```
/// use gpu_archs::{geforce_gtx_480, DeviceBuilder};
/// use simt_sim::SchedulerPolicy;
///
/// let half_rf = DeviceBuilder::from(geforce_gtx_480())
///     .name("GTX 480 (half RF)")
///     .regfile_kib(64)
///     .scheduler(SchedulerPolicy::Lrr)
///     .build();
/// assert_eq!(half_rf.rf_words_per_sm(), 16384);
/// assert_eq!(half_rf.name, "GTX 480 (half RF)");
/// ```
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    cfg: ArchConfig,
}

impl DeviceBuilder {
    /// Starts from an existing device configuration.
    pub fn from(cfg: ArchConfig) -> Self {
        DeviceBuilder { cfg }
    }

    /// Sets the marketing name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Sets the number of SMs / compute units.
    pub fn num_sms(mut self, n: u32) -> Self {
        self.cfg.num_sms = n;
        self
    }

    /// Sets the shader clock in MHz.
    pub fn clock_mhz(mut self, mhz: u32) -> Self {
        self.cfg.clock_mhz = mhz;
        self
    }

    /// Sets the vector register file size per SM, in KiB.
    pub fn regfile_kib(mut self, kib: u32) -> Self {
        self.cfg.regfile_bytes_per_sm = kib * 1024;
        self
    }

    /// Sets the local memory size per SM, in KiB.
    pub fn lds_kib(mut self, kib: u32) -> Self {
        self.cfg.lds_bytes_per_sm = kib * 1024;
        self
    }

    /// Sets the warp scheduling policy.
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.cfg.scheduler = policy;
        self
    }

    /// Sets the maximum resident warps per SM.
    pub fn max_warps(mut self, n: u32) -> Self {
        self.cfg.max_warps_per_sm = n;
        self
    }

    /// Sets the raw soft-error rate in FIT per Mbit.
    pub fn raw_fit_per_mbit(mut self, fit: f64) -> Self {
        self.cfg.raw_fit_per_mbit = fit;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no SMs, empty register
    /// file, zero clock, or a warp wider than 64 lanes).
    pub fn build(self) -> ArchConfig {
        let c = &self.cfg;
        assert!(c.num_sms > 0, "device needs at least one SM");
        assert!(c.regfile_bytes_per_sm >= 1024, "register file too small");
        assert!(c.clock_mhz > 0, "clock must be positive");
        assert!(c.warp_size <= 64, "lane masks support up to 64 lanes");
        self.cfg
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn builder_overrides_selected_fields_only() {
        let base = quadro_fx_5800();
        let tweaked = DeviceBuilder::from(base.clone())
            .name("GT200-lite")
            .num_sms(8)
            .regfile_kib(32)
            .build();
        assert_eq!(tweaked.num_sms, 8);
        assert_eq!(tweaked.regfile_bytes_per_sm, 32 * 1024);
        assert_eq!(tweaked.lds_bytes_per_sm, base.lds_bytes_per_sm);
        assert_eq!(tweaked.warp_size, base.warp_size);
        assert_eq!(tweaked.lat, base.lat);
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn degenerate_device_rejected() {
        let _ = DeviceBuilder::from(quadro_fx_5600()).num_sms(0).build();
    }

    #[test]
    fn built_devices_keep_derived_quantities_consistent() {
        let half = DeviceBuilder::from(geforce_gtx_480())
            .regfile_kib(64)
            .build();
        assert_eq!(half.rf_words_per_sm(), 16384);
        assert_eq!(half.caps(), geforce_gtx_480().caps(), "caps unchanged");
    }
}
