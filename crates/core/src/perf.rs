//! Performance profiling of workloads — the "performance" half of the
//! paper's reliability-vs-performance correlation.
//!
//! The paper's thesis is that neither AVF nor throughput alone guides a
//! designer: EPF needs both. [`profile`] captures the performance side of
//! one (device, workload) pairing in a single fault-free run: cycles,
//! instruction mix, IPC, memory transactions and cache behaviour.

use gpu_workloads::Workload;
use simt_sim::{ArchConfig, Gpu, NoopObserver, SimError};

/// Performance profile of one workload on one device.
#[derive(Debug, Clone)]
pub struct PerfProfile {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Total application cycles.
    pub cycles: u64,
    /// Warp-level (vector) instructions issued.
    pub warp_instructions: u64,
    /// Scalar instructions issued (Southern Islands only).
    pub scalar_instructions: u64,
    /// Thread-level instructions (sum over active lanes).
    pub thread_instructions: u64,
    /// Coalesced global-memory transactions.
    pub mem_transactions: u64,
    /// L1 hit rate (0 when the device has no L1 or no accesses).
    pub l1_hit_rate: f64,
    /// L2 hit rate, when an L2 exists.
    pub l2_hit_rate: Option<f64>,
    /// Kernel launches executed.
    pub launches: u32,
    /// Mean fraction of cycles each SM spent issuing (load × balance).
    pub sm_utilization: f64,
    /// Wall-clock execution time on the modelled device, in microseconds.
    pub device_time_us: f64,
}

impl PerfProfile {
    /// Warp instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// Average active lanes per warp instruction (SIMD efficiency
    /// numerator; divide by the warp size for the efficiency ratio).
    pub fn lanes_per_instruction(&self) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.thread_instructions as f64 / self.warp_instructions as f64
        }
    }
}

/// Profiles one fault-free execution.
///
/// # Errors
///
/// Propagates launch failures.
///
/// # Example
/// ```
/// use grel_core::perf::profile;
/// use gpu_archs::geforce_gtx_480;
/// use gpu_workloads::VectorAdd;
///
/// let p = profile(&geforce_gtx_480(), &VectorAdd::new(1024, 1))?;
/// assert!(p.cycles > 0);
/// assert!(p.ipc() > 0.0);
/// assert!(p.l2_hit_rate.is_some(), "Fermi has an L2");
/// # Ok::<(), simt_sim::SimError>(())
/// ```
pub fn profile(arch: &ArchConfig, workload: &dyn Workload) -> Result<PerfProfile, SimError> {
    let mut gpu = Gpu::new(arch.clone());
    workload.run(&mut gpu, &mut NoopObserver)?;
    let totals = gpu.exec_totals();
    let cycles = gpu.app_cycle();
    let sm_utilization = if cycles == 0 {
        0.0
    } else {
        totals.busy_cycles as f64 / (cycles as f64 * arch.num_sms as f64)
    };
    Ok(PerfProfile {
        device: arch.name.clone(),
        workload: workload.name().to_string(),
        cycles,
        warp_instructions: totals.warp_instructions,
        scalar_instructions: totals.scalar_instructions,
        thread_instructions: totals.thread_instructions,
        mem_transactions: gpu.mem_transactions(),
        l1_hit_rate: gpu.l1_stats().hit_rate(),
        l2_hit_rate: gpu.l2_stats().map(|s| s.hit_rate()),
        launches: gpu.launches(),
        sm_utilization,
        device_time_us: cycles as f64 / arch.clock_mhz as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{hd_radeon_7970, quadro_fx_5600};
    use gpu_workloads::{MatrixMul, VectorAdd};

    #[test]
    fn profile_reports_consistent_counters() {
        let p = profile(&quadro_fx_5600(), &VectorAdd::new(512, 1)).unwrap();
        assert!(p.cycles > 0);
        assert!(p.warp_instructions > 0);
        assert!(p.thread_instructions >= p.warp_instructions);
        assert!(p.mem_transactions > 0, "vectoradd moves memory");
        assert_eq!(p.scalar_instructions, 0, "no scalar unit on G80");
        assert_eq!(p.l2_hit_rate, None, "no L2 on G80");
        assert_eq!(p.launches, 1);
        assert!(p.device_time_us > 0.0);
    }

    #[test]
    fn si_uses_its_scalar_pipe() {
        let p = profile(&hd_radeon_7970(), &MatrixMul::new(32, 1)).unwrap();
        assert!(p.scalar_instructions > 0, "tile loop counters run scalar");
    }

    #[test]
    fn lanes_per_instruction_bounded_by_warp() {
        let arch = quadro_fx_5600();
        let p = profile(&arch, &VectorAdd::new(512, 1)).unwrap();
        let lanes = p.lanes_per_instruction();
        assert!(lanes > 0.0 && lanes <= arch.warp_size as f64, "{lanes}");
    }

    #[test]
    fn ipc_zero_for_empty_profile() {
        let p = PerfProfile {
            device: "d".into(),
            workload: "w".into(),
            cycles: 0,
            warp_instructions: 0,
            scalar_instructions: 0,
            thread_instructions: 0,
            mem_transactions: 0,
            l1_hit_rate: 0.0,
            l2_hit_rate: None,
            launches: 0,
            sm_utilization: 0.0,
            device_time_us: 0.0,
        };
        assert_eq!(p.ipc(), 0.0);
        assert_eq!(p.lanes_per_instruction(), 0.0);
    }
}
