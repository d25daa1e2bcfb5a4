//! `scan` — multi-block inclusive prefix sum (Hillis–Steele in shared
//! memory, CUDA/APP SDK formulation with a block-sums fix-up pass).

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// Inclusive prefix sum of `n` floats in three launches: per-block
/// Hillis–Steele scan (collecting block sums), a scan of the block sums,
/// and a uniform fix-up add.
///
/// # Example
/// ```
/// use gpu_workloads::{Scan, Workload};
/// let w = Scan::new(512, 128, 3);
/// assert!(w.uses_local_memory());
/// assert_eq!(w.reference().len(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct Scan {
    n: u32,
    block: u32,
    input: Arc<[f32]>,
}

impl Scan {
    /// Scans `n` elements with blocks of `block` threads.
    ///
    /// # Panics
    ///
    /// Panics unless `block` and the block count are powers of two and `n`
    /// is a multiple of `block`.
    pub fn new(n: u32, block: u32, seed: u64) -> Self {
        assert!(block.is_power_of_two(), "block must be a power of two");
        assert!(
            n.is_multiple_of(block) && n > 0,
            "n must be a positive multiple of block"
        );
        assert!(
            (n / block).is_power_of_two(),
            "block count must be a power of two"
        );
        Scan {
            n,
            block,
            input: uniform_f32(n as usize, seed ^ 0x5ca).into(),
        }
    }

    /// Default size used by the figure harness (4096 elements, block 256).
    pub fn default_size(seed: u64) -> Self {
        Self::new(4096, 256, seed)
    }

    /// Per-block inclusive Hillis–Steele scan; also emits the block total.
    fn scan_kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("scan", 3);
        let (pin, pout, psums) = (kb.param(0), kb.param(1), kb.param(2));
        let off = kb.sreg();
        let off4 = kb.sreg();
        let gid = kb.vreg();
        let v = kb.vreg();
        let t = kb.vreg();
        let tid4 = kb.vreg();
        let addr = kb.vreg();
        let last = kb.vreg();
        let p = kb.preg();
        let q = kb.preg();
        kb.shared(1024); // blocks up to 256 threads

        // sdata[tid] = in[gid]
        kb.global_tid_x(gid);
        kb.word_addr(addr, pin, gid);
        kb.ld(MemSpace::Global, v, addr);
        kb.shl_imm(tid4, Special::TidX, 2);
        kb.st(MemSpace::Shared, tid4, v);
        kb.bar();
        // for (offset = 1; offset < ntid; offset <<= 1)
        kb.mov(off, 1u32);
        kb.loop_begin();
        {
            kb.isetp(CmpOp::UGe, p, off, Special::NTidX);
            kb.brk(p);
            // t = tid >= offset ? sdata[tid - offset] : 0
            kb.movf(t, 0.0);
            kb.isetp(CmpOp::UGe, q, Special::TidX, off);
            kb.if_begin(q);
            kb.shl_imm(off4, off, 2);
            kb.isub(addr, tid4, off4);
            kb.ld(MemSpace::Shared, t, addr);
            kb.if_end();
            kb.bar();
            // sdata[tid] += t
            kb.ld(MemSpace::Shared, v, tid4);
            kb.fadd(v, v, t);
            kb.st(MemSpace::Shared, tid4, v);
            kb.bar();
            kb.shl_imm(off, off, 1);
        }
        kb.loop_end();
        // out[gid] = sdata[tid]
        kb.ld(MemSpace::Shared, v, tid4);
        kb.word_addr(addr, pout, gid);
        kb.st(MemSpace::Global, addr, v);
        // if (tid == ntid - 1) sums[ctaid] = sdata[tid]
        kb.isub(last, Special::NTidX, 1u32);
        kb.isetp(CmpOp::Eq, p, Special::TidX, last);
        kb.if_begin(p);
        kb.mov(addr, Special::CtaIdX);
        kb.word_addr(addr, psums, addr);
        kb.st(MemSpace::Global, addr, v);
        kb.if_end();
        kb.exit();
        kb.build().expect("scan kernel is valid")
    }

    /// Adds the scanned sum of all preceding blocks to each element.
    fn fixup_kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("scan_fixup", 2);
        let (pout, pssums) = (kb.param(0), kb.param(1));
        let gid = kb.vreg();
        let v = kb.vreg();
        let t = kb.vreg();
        let addr = kb.vreg();
        let saddr = kb.vreg();
        let p = kb.preg();
        kb.isetp(CmpOp::UGt, p, Special::CtaIdX, 0u32);
        kb.if_begin(p);
        kb.global_tid_x(gid);
        kb.word_addr(addr, pout, gid);
        kb.ld(MemSpace::Global, v, addr);
        kb.mov(saddr, Special::CtaIdX);
        kb.isub(saddr, saddr, 1u32);
        kb.word_addr(saddr, pssums, saddr);
        kb.ld(MemSpace::Global, t, saddr);
        kb.fadd(v, v, t);
        kb.st(MemSpace::Global, addr, v);
        kb.if_end();
        kb.exit();
        kb.build().expect("scan fixup kernel is valid")
    }

    /// Host mirror of one Hillis–Steele block scan.
    fn host_block_scan(vals: &mut [f32]) {
        let n = vals.len();
        let mut offset = 1;
        while offset < n {
            let t: Vec<f32> = (0..n)
                .map(|i| if i >= offset { vals[i - offset] } else { 0.0 })
                .collect();
            for i in 0..n {
                vals[i] += t[i];
            }
            offset <<= 1;
        }
    }
}

/// Launch plan: per-block scan, block-sums scan, uniform fix-up, readback.
#[derive(Clone)]
struct ScanPlan {
    w: Scan,
    stage: u32,
    scan_k: Option<simt_isa::LoweredKernel>,
    bufs: Option<(Buffer, Buffer, Buffer, Buffer, Buffer)>,
}

impl LaunchPlan for ScanPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        let blocks = self.w.n / self.w.block;
        match self.stage {
            1 => {
                let scan_k = crate::lower_for(&self.w.scan_kernel(), gpu)?;
                let bin = gpu.alloc_words(self.w.n);
                let bout = gpu.alloc_words(self.w.n);
                let sums = gpu.alloc_words(blocks);
                let ssums = gpu.alloc_words(blocks);
                let scratch = gpu.alloc_words(1);
                gpu.write_floats(bin, &self.w.input);
                self.bufs = Some((bin, bout, sums, ssums, scratch));
                self.scan_k = Some(scan_k.clone());
                Ok(PlanStep::Launch {
                    kernel: scan_k,
                    cfg: LaunchConfig::linear(blocks, self.w.block),
                    params: vec![bin.addr(), bout.addr(), sums.addr()],
                })
            }
            2 => {
                let (_, _, sums, ssums, scratch) = self.bufs.expect("allocated");
                Ok(PlanStep::Launch {
                    kernel: self.scan_k.clone().expect("lowered in stage 1"),
                    cfg: LaunchConfig::linear(1, blocks),
                    params: vec![sums.addr(), ssums.addr(), scratch.addr()],
                })
            }
            3 => {
                let (_, bout, _, ssums, _) = self.bufs.expect("allocated");
                Ok(PlanStep::Launch {
                    kernel: crate::lower_for(&self.w.fixup_kernel(), gpu)?,
                    cfg: LaunchConfig::linear(blocks, self.w.block),
                    params: vec![bout.addr(), ssums.addr()],
                })
            }
            _ => {
                let (_, bout, _, _, _) = self.bufs.expect("allocated");
                Ok(PlanStep::Done(gpu.read_words(bout, self.w.n)))
            }
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

impl Workload for Scan {
    fn name(&self) -> &str {
        "scan"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(ScanPlan {
            w: self.clone(),
            stage: 0,
            scan_k: None,
            bufs: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let b = self.block as usize;
        let blocks = (self.n / self.block) as usize;
        let mut out = self.input.to_vec();
        let mut sums = vec![0.0f32; blocks];
        for i in 0..blocks {
            Self::host_block_scan(&mut out[i * b..(i + 1) * b]);
            sums[i] = out[(i + 1) * b - 1];
        }
        Self::host_block_scan(&mut sums);
        for i in 1..blocks {
            for x in &mut out[i * b..(i + 1) * b] {
                *x += sums[i - 1];
            }
        }
        f32_words(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, geforce_gtx_480};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = Scan::new(512, 128, 23);
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
    fn scan_of_ones_is_iota() {
        let mut w = Scan::new(256, 64, 0);
        w.input = vec![1.0; 256].into();
        let mut gpu = Gpu::new(geforce_gtx_480());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        let floats = crate::common::words_f32(&out);
        for (i, v) in floats.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f32, "prefix {i}");
        }
    }

    #[test]
    fn inclusive_last_equals_total() {
        let w = Scan::new(256, 64, 9);
        let floats = crate::common::words_f32(&w.reference());
        let seq: f32 = w.input.iter().sum();
        assert!((floats[255] - seq).abs() < 1e-2);
    }
}
