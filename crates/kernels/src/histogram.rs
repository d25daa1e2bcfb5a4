//! `histogram` — 64-bin histogram with per-block shared bins and a global
//! atomic merge (CUDA/APP SDK).

use crate::common::uniform_u32;
use crate::Workload;
use simt_isa::{AtomOp, CmpOp, Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// Histograms `n` integer samples into `bins` buckets: each block
/// accumulates into shared-memory bins with LDS atomics, then merges into
/// the global result with global atomics.
///
/// The atomic-heavy benchmark of the set; a register fault that corrupts a
/// sample value indexes outside the shared bins and raises a DUE, just as
/// the real kernel would fault.
///
/// # Example
/// ```
/// use gpu_workloads::{Histogram, Workload};
/// let w = Histogram::new(2048, 64, 1);
/// assert!(w.uses_local_memory());
/// let total: u32 = w.reference().iter().sum();
/// assert_eq!(total, 2048);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    n: u32,
    bins: u32,
    block: u32,
    input: Arc<[u32]>,
}

impl Histogram {
    /// Histograms `n` seeded samples in `[0, bins)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is 0 or exceeds the 256-thread block.
    pub fn new(n: u32, bins: u32, seed: u64) -> Self {
        let block = 256;
        assert!(bins > 0 && bins <= block, "bins must be in 1..={block}");
        Histogram {
            n,
            bins,
            block,
            input: uniform_u32(n as usize, bins, seed ^ 0x415).into(),
        }
    }

    /// Default size used by the figure harness (16384 samples, 64 bins).
    pub fn default_size(seed: u64) -> Self {
        Self::new(16384, 64, seed)
    }

    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("histogram", 4);
        let (pin, phist, pn, pbins) = (kb.param(0), kb.param(1), kb.param(2), kb.param(3));
        let gid = kb.vreg();
        let v = kb.vreg();
        let addr = kb.vreg();
        let tid4 = kb.vreg();
        let old = kb.vreg();
        let p = kb.preg();
        let inb = kb.preg();
        kb.shared(self.bins * 4);

        // Zero the shared bins.
        kb.shl_imm(tid4, Special::TidX, 2);
        kb.isetp_lt_u(p, Special::TidX, pbins);
        kb.if_begin(p);
        kb.st(MemSpace::Shared, tid4, 0u32);
        kb.if_end();
        kb.bar();
        // Vote into the shared bins.
        kb.global_tid_x(gid);
        kb.isetp_lt_u(inb, gid, pn);
        kb.if_begin(inb);
        kb.word_addr(addr, pin, gid);
        kb.ld(MemSpace::Global, v, addr);
        kb.shl_imm(addr, v, 2);
        kb.atom(MemSpace::Shared, AtomOp::Add, old, addr, 1u32);
        kb.if_end();
        kb.bar();
        // Merge into the global histogram.
        kb.isetp(CmpOp::ULt, p, Special::TidX, pbins);
        kb.if_begin(p);
        kb.ld(MemSpace::Shared, v, tid4);
        kb.mov(addr, Special::TidX);
        kb.word_addr(addr, phist, addr);
        kb.atom(MemSpace::Global, AtomOp::Add, old, addr, v);
        kb.if_end();
        kb.exit();
        kb.build().expect("histogram kernel is valid")
    }
}

/// Launch plan: upload samples, one atomic-voting launch, read the bins.
#[derive(Clone)]
struct HistogramPlan {
    w: Histogram,
    stage: u32,
    hist: Option<Buffer>,
}

impl LaunchPlan for HistogramPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        match self.stage {
            1 => {
                let kernel = crate::lower_for(&self.w.kernel(), gpu)?;
                let bin = gpu.alloc_words(self.w.n);
                let hist = gpu.alloc_words(self.w.bins);
                gpu.write_words(bin, &self.w.input);
                self.hist = Some(hist);
                let grid = self.w.n.div_ceil(self.w.block);
                Ok(PlanStep::Launch {
                    kernel,
                    cfg: LaunchConfig::linear(grid, self.w.block),
                    params: vec![bin.addr(), hist.addr(), self.w.n, self.w.bins],
                })
            }
            _ => Ok(PlanStep::Done(
                gpu.read_words(self.hist.expect("launched"), self.w.bins),
            )),
        }
    }

    // The finishing `next` call's host reads are exactly the `Done`
    // vector, in order, and no step decision depends on them: batched
    // replay may classify final-read divergence directly.
    fn outputs_verbatim(&self) -> bool {
        true
    }

    fn clone_plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(self.clone())
    }
}

impl Workload for Histogram {
    fn name(&self) -> &str {
        "histogram"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(HistogramPlan {
            w: self.clone(),
            stage: 0,
            hist: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let mut hist = vec![0u32; self.bins as usize];
        for &v in &self.input[..] {
            hist[v as usize] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, hd_radeon_7970};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = Histogram::new(2048, 64, 31);
        for arch in all_devices() {
            let mut gpu = Gpu::new(arch.clone());
            assert_eq!(
                w.run(&mut gpu, &mut NoopObserver).unwrap(),
                w.reference(),
                "{}",
                arch.name
            );
        }
    }

    #[test]
    fn counts_sum_to_n() {
        let w = Histogram::new(1000, 16, 3);
        let mut gpu = Gpu::new(hd_radeon_7970());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        assert_eq!(out.iter().sum::<u32>(), 1000);
    }

    #[test]
    fn single_bin_collects_everything() {
        let w = Histogram::new(512, 1, 3);
        let mut gpu = Gpu::new(hd_radeon_7970());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        assert_eq!(out, vec![512]);
    }

    #[test]
    #[should_panic(expected = "bins must be")]
    fn rejects_too_many_bins() {
        let _ = Histogram::new(100, 300, 0);
    }
}
