//! `reduction` — two-level parallel tree sum in shared memory
//! (CUDA/APP SDK).

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// Sums `n` floats with the classic shared-memory tree: each block reduces
/// `block` elements, a second launch reduces the per-block partials.
///
/// # Example
/// ```
/// use gpu_workloads::{Reduction, Workload};
/// let w = Reduction::new(1024, 256, 3);
/// assert!(w.uses_local_memory());
/// assert_eq!(w.reference().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Reduction {
    n: u32,
    block: u32,
    input: Arc<[f32]>,
}

impl Reduction {
    /// Sums `n` elements using blocks of `block` threads.
    ///
    /// # Panics
    ///
    /// Panics unless `block` is a power of two, `n` a multiple of `block`,
    /// and the block count a power of two (second-level tree requirement).
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
        Reduction {
            n,
            block,
            input: uniform_f32(n as usize, seed ^ 0x5ed).into(),
        }
    }

    /// Default size used by the figure harness (16384 elements, block 256).
    pub fn default_size(seed: u64) -> Self {
        Self::new(16384, 256, seed)
    }

    /// The tree-reduction kernel: works for any power-of-two block size,
    /// so both levels reuse it.
    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("reduction", 3);
        let (pin, pout, pn) = (kb.param(0), kb.param(1), kb.param(2));
        let s = kb.sreg();
        let s4 = kb.sreg();
        let gid = kb.vreg();
        let v = kb.vreg();
        let tid4 = kb.vreg();
        let addr = kb.vreg();
        let t = kb.vreg();
        let inb = kb.preg();
        let p = kb.preg();
        kb.shared(1024); // covers blocks up to 256 threads

        // v = gid < n ? in[gid] : 0
        kb.global_tid_x(gid);
        kb.movf(v, 0.0);
        kb.isetp_lt_u(inb, gid, pn);
        kb.if_begin(inb);
        kb.word_addr(addr, pin, gid);
        kb.ld(MemSpace::Global, v, addr);
        kb.if_end();
        // sdata[tid] = v
        kb.shl_imm(tid4, Special::TidX, 2);
        kb.st(MemSpace::Shared, tid4, v);
        kb.bar();
        // for (s = ntid/2; s > 0; s >>= 1)
        kb.shr(s, Special::NTidX, 1u32);
        kb.loop_begin();
        {
            kb.isetp(CmpOp::Eq, p, s, 0u32);
            kb.brk(p);
            // if (tid < s) sdata[tid] += sdata[tid + s]
            kb.isetp_lt_u(p, Special::TidX, s);
            kb.if_begin(p);
            kb.ld(MemSpace::Shared, v, tid4);
            kb.shl_imm(s4, s, 2);
            kb.iadd(addr, tid4, s4);
            kb.ld(MemSpace::Shared, t, addr);
            kb.fadd(v, v, t);
            kb.st(MemSpace::Shared, tid4, v);
            kb.if_end();
            kb.bar();
            kb.shr(s, s, 1u32);
        }
        kb.loop_end();
        // if (tid == 0) out[ctaid] = sdata[0]
        kb.isetp(CmpOp::Eq, p, Special::TidX, 0u32);
        kb.if_begin(p);
        kb.ld(MemSpace::Shared, v, tid4);
        kb.mov(addr, Special::CtaIdX);
        kb.word_addr(addr, pout, addr);
        kb.st(MemSpace::Global, addr, v);
        kb.if_end();
        kb.exit();
        kb.build().expect("reduction kernel is valid")
    }

    /// Host mirror of the shared-memory tree order.
    fn tree_reduce(vals: &[f32]) -> f32 {
        let mut v = vals.to_vec();
        let mut s = v.len() / 2;
        while s > 0 {
            for i in 0..s {
                v[i] += v[i + s];
            }
            s /= 2;
        }
        v[0]
    }
}

/// Launch plan: first-level block reduction, second-level reduction of the
/// partials (same kernel), read the scalar result.
#[derive(Clone)]
struct ReductionPlan {
    w: Reduction,
    stage: u32,
    kernel: Option<simt_isa::LoweredKernel>,
    partial: Option<Buffer>,
    out: Option<Buffer>,
}

impl LaunchPlan for ReductionPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        let blocks = self.w.n / self.w.block;
        match self.stage {
            1 => {
                let kernel = crate::lower_for(&self.w.kernel(), gpu)?;
                let bin = gpu.alloc_words(self.w.n);
                let partial = gpu.alloc_words(blocks);
                let out = gpu.alloc_words(1);
                gpu.write_floats(bin, &self.w.input);
                self.partial = Some(partial);
                self.out = Some(out);
                self.kernel = Some(kernel.clone());
                Ok(PlanStep::Launch {
                    kernel,
                    cfg: LaunchConfig::linear(blocks, self.w.block),
                    params: vec![bin.addr(), partial.addr(), self.w.n],
                })
            }
            2 => Ok(PlanStep::Launch {
                kernel: self.kernel.clone().expect("lowered in stage 1"),
                cfg: LaunchConfig::linear(1, blocks),
                params: vec![
                    self.partial.expect("allocated").addr(),
                    self.out.expect("allocated").addr(),
                    blocks,
                ],
            }),
            _ => Ok(PlanStep::Done(
                gpu.read_words(self.out.expect("allocated"), 1),
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

impl Workload for Reduction {
    fn name(&self) -> &str {
        "reduction"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(ReductionPlan {
            w: self.clone(),
            stage: 0,
            kernel: None,
            partial: None,
            out: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let blocks = (self.n / self.block) as usize;
        let b = self.block as usize;
        let partials: Vec<f32> = (0..blocks)
            .map(|i| Self::tree_reduce(&self.input[i * b..(i + 1) * b]))
            .collect();
        f32_words(&[Self::tree_reduce(&partials)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, quadro_fx_5800};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = Reduction::new(1024, 128, 17);
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
    fn sum_is_close_to_sequential() {
        let w = Reduction::new(512, 64, 5);
        let tree = f32::from_bits(w.reference()[0]);
        let seq: f32 = w.input.iter().sum();
        assert!((tree - seq).abs() < 1e-2, "tree {tree} vs seq {seq}");
    }

    #[test]
    fn ones_sum_exactly() {
        let mut w = Reduction::new(256, 64, 0);
        w.input = vec![1.0; 256].into();
        let mut gpu = Gpu::new(quadro_fx_5800());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        assert_eq!(f32::from_bits(out[0]), 256.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_block() {
        let _ = Reduction::new(300, 100, 0);
    }
}
