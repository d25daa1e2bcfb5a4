//! `vectoradd` — element-wise float vector addition (CUDA/APP SDK).

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{Kernel, KernelBuilder, MemSpace};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// `c[i] = a[i] + b[i]` over `n` floats, one thread per element.
///
/// The no-local-memory, bandwidth-bound baseline of the benchmark set: a
/// short register lifetime per thread, so its register-file AVF is driven
/// almost entirely by occupancy.
///
/// # Example
/// ```
/// use gpu_workloads::{VectorAdd, Workload};
/// let w = VectorAdd::new(256, 1);
/// assert_eq!(w.name(), "vectoradd");
/// assert!(!w.uses_local_memory());
/// assert_eq!(w.reference().len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct VectorAdd {
    n: u32,
    block: u32,
    a: Arc<[f32]>,
    b: Arc<[f32]>,
}

impl VectorAdd {
    /// A workload over `n` elements with seeded inputs.
    pub fn new(n: u32, seed: u64) -> Self {
        VectorAdd {
            n,
            block: 128,
            a: uniform_f32(n as usize, seed ^ 0xadd0).into(),
            b: uniform_f32(n as usize, seed ^ 0xadd1).into(),
        }
    }

    /// The default size used by the figure harness (8192 elements).
    pub fn default_size(seed: u64) -> Self {
        Self::new(32768, seed)
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("vectoradd", 4);
        let (pa, pb, pc, pn) = (kb.param(0), kb.param(1), kb.param(2), kb.param(3));
        let gid = kb.vreg();
        let off = kb.vreg();
        let va = kb.vreg();
        let vb = kb.vreg();
        let addr = kb.vreg();
        let inb = kb.preg();
        kb.global_tid_x(gid);
        kb.isetp_lt_u(inb, gid, pn);
        kb.if_begin(inb);
        kb.shl_imm(off, gid, 2);
        kb.iadd(addr, off, pa);
        kb.ld(MemSpace::Global, va, addr);
        kb.iadd(addr, off, pb);
        kb.ld(MemSpace::Global, vb, addr);
        kb.fadd(va, va, vb);
        kb.iadd(addr, off, pc);
        kb.st(MemSpace::Global, addr, va);
        kb.if_end();
        kb.exit();
        kb.build().expect("vectoradd kernel is valid")
    }
}

/// Launch plan: upload `a`/`b`, one kernel launch, read back `c`.
#[derive(Clone)]
struct VectorAddPlan {
    w: VectorAdd,
    stage: u32,
    out: Option<Buffer>,
}

impl LaunchPlan for VectorAddPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        match self.stage {
            1 => {
                let kernel = crate::lower_for(&self.w.kernel(), gpu)?;
                let a = gpu.alloc_words(self.w.n);
                let b = gpu.alloc_words(self.w.n);
                let c = gpu.alloc_words(self.w.n);
                gpu.write_floats(a, &self.w.a);
                gpu.write_floats(b, &self.w.b);
                self.out = Some(c);
                let grid = self.w.n.div_ceil(self.w.block);
                Ok(PlanStep::Launch {
                    kernel,
                    cfg: LaunchConfig::linear(grid, self.w.block),
                    params: vec![a.addr(), b.addr(), c.addr(), self.w.n],
                })
            }
            _ => Ok(PlanStep::Done(
                gpu.read_words(self.out.expect("launched"), self.w.n),
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

impl Workload for VectorAdd {
    fn name(&self) -> &str {
        "vectoradd"
    }

    fn uses_local_memory(&self) -> bool {
        false
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(VectorAddPlan {
            w: self.clone(),
            stage: 0,
            out: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let c: Vec<f32> = self.a.iter().zip(&self.b[..]).map(|(x, y)| x + y).collect();
        f32_words(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, quadro_fx_5600};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = VectorAdd::new(512, 11);
        for arch in all_devices() {
            let mut gpu = Gpu::new(arch.clone());
            let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
            assert_eq!(out, w.reference(), "{}", arch.name);
        }
    }

    #[test]
    fn non_multiple_of_block_is_guarded() {
        let w = VectorAdd::new(300, 3);
        let mut gpu = Gpu::new(quadro_fx_5600());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        assert_eq!(out.len(), 300);
        assert_eq!(out, w.reference());
    }

    #[test]
    fn deterministic_across_runs() {
        let w = VectorAdd::new(256, 5);
        let mut g1 = Gpu::new(quadro_fx_5600());
        let mut g2 = Gpu::new(quadro_fx_5600());
        let o1 = w.run(&mut g1, &mut NoopObserver).unwrap();
        let o2 = w.run(&mut g2, &mut NoopObserver).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(
            g1.app_cycle(),
            g2.app_cycle(),
            "timing is deterministic too"
        );
    }
}
