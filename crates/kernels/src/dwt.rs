//! `dwtHaar1D` — 1-D Haar discrete wavelet transform (CUDA/APP SDK),
//! one decomposition level per launch, staged through shared memory.

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

const INV_SQRT2: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// Full Haar decomposition of `n` floats: log₂(n) launches, each pairing
/// neighbours into an approximation (`(a+b)/√2`) and a detail
/// (`(a−b)/√2`), with the pair staged through shared memory as the SDK
/// kernel does.
///
/// Output layout is the standard in-place pyramid: `coef[0]` is the final
/// approximation, `coef[half..2·half]` the details of the level with that
/// half-length.
///
/// # Example
/// ```
/// use gpu_workloads::{DwtHaar1D, Workload};
/// let w = DwtHaar1D::new(256, 7);
/// assert!(w.uses_local_memory());
/// assert_eq!(w.reference().len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct DwtHaar1D {
    n: u32,
    block: u32,
    input: Arc<[f32]>,
}

impl DwtHaar1D {
    /// Transforms `n` seeded samples.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two ≥ 2.
    pub fn new(n: u32, seed: u64) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        DwtHaar1D {
            n,
            block: 128,
            input: uniform_f32(n as usize, seed ^ 0xd7).into(),
        }
    }

    /// Default size used by the figure harness (2048 samples).
    pub fn default_size(seed: u64) -> Self {
        Self::new(2048, seed)
    }

    /// One decomposition level: `half` output pairs.
    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("dwtHaar1D", 4);
        let (pin, papprox, pdetail, phalf) = (kb.param(0), kb.param(1), kb.param(2), kb.param(3));
        let gid = kb.vreg();
        let a = kb.vreg();
        let b = kb.vreg();
        let addr = kb.vreg();
        let saddr = kb.vreg();
        let inb = kb.preg();
        kb.shared(2 * self.block * 4);

        kb.global_tid_x(gid);
        kb.isetp_lt_u(inb, gid, phalf);
        kb.if_begin(inb);
        // Stage the pair in[2*gid], in[2*gid+1] through shared memory.
        kb.shl_imm(addr, gid, 3); // byte offset of in[2*gid]
        kb.iadd(addr, addr, pin);
        kb.ld(MemSpace::Global, a, addr);
        kb.ld_off(MemSpace::Global, b, addr, 4);
        kb.shl_imm(saddr, Special::TidX, 3);
        kb.st(MemSpace::Shared, saddr, a);
        kb.st_off(MemSpace::Shared, saddr, 4, b);
        kb.bar();
        kb.ld(MemSpace::Shared, a, saddr);
        kb.ld_off(MemSpace::Shared, b, saddr, 4);
        // approx = (a + b) * 1/sqrt(2) ; detail = (a - b) * 1/sqrt(2)
        let sum = kb.vreg();
        let diff = kb.vreg();
        kb.fadd(sum, a, b);
        kb.fmul(sum, sum, INV_SQRT2.to_bits());
        kb.fsub(diff, a, b);
        kb.fmul(diff, diff, INV_SQRT2.to_bits());
        kb.word_addr(addr, papprox, gid);
        kb.st(MemSpace::Global, addr, sum);
        kb.word_addr(addr, pdetail, gid);
        kb.st(MemSpace::Global, addr, diff);
        kb.if_end();
        kb.exit();
        kb.build().expect("dwtHaar1D kernel is valid")
    }
}

/// Launch plan: one decomposition level per launch, ping-ponging the
/// approximation buffers, then read the coefficient pyramid.
#[derive(Clone)]
struct DwtPlan {
    w: DwtHaar1D,
    kernel: Option<simt_isa::LoweredKernel>,
    coef: Option<Buffer>,
    bufs: Option<[Buffer; 2]>,
    half: u32,
}

impl LaunchPlan for DwtPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        if self.coef.is_none() {
            self.kernel = Some(crate::lower_for(&self.w.kernel(), gpu)?);
            let coef = gpu.alloc_words(self.w.n);
            let ping = gpu.alloc_words(self.w.n);
            let pong = gpu.alloc_words(self.w.n / 2);
            gpu.write_floats(ping, &self.w.input);
            self.coef = Some(coef);
            self.bufs = Some([ping, pong]);
            self.half = self.w.n / 2;
        }
        let coef = self.coef.expect("initialised");
        if self.half >= 1 {
            let bufs = self.bufs.as_mut().expect("initialised");
            let half = self.half;
            let threads = half.min(self.w.block);
            let grid = half.div_ceil(threads);
            // The last level's approximation is the pyramid root coef[0].
            let approx = if half == 1 { coef } else { bufs[1] };
            let step = PlanStep::Launch {
                kernel: self.kernel.clone().expect("initialised"),
                cfg: LaunchConfig::linear(grid, threads),
                params: vec![bufs[0].addr(), approx.addr(), coef.addr() + half * 4, half],
            };
            bufs.swap(0, 1);
            self.half /= 2;
            return Ok(step);
        }
        Ok(PlanStep::Done(gpu.read_words(coef, self.w.n)))
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

impl Workload for DwtHaar1D {
    fn name(&self) -> &str {
        "dwtHaar1D"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(DwtPlan {
            w: self.clone(),
            kernel: None,
            coef: None,
            bufs: None,
            half: 0,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let mut coef = vec![0.0f32; self.n as usize];
        let mut cur = self.input.to_vec();
        let mut half = (self.n / 2) as usize;
        while half >= 1 {
            let mut next = vec![0.0f32; half];
            for i in 0..half {
                let (a, b) = (cur[2 * i], cur[2 * i + 1]);
                next[i] = (a + b) * INV_SQRT2;
                coef[half + i] = (a - b) * INV_SQRT2;
            }
            cur = next;
            half /= 2;
        }
        coef[0] = cur[0];
        f32_words(&coef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, quadro_fx_5600};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = DwtHaar1D::new(256, 29);
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
    fn constant_signal_has_zero_details() {
        let mut w = DwtHaar1D::new(64, 0);
        w.input = vec![2.0; 64].into();
        let mut gpu = Gpu::new(quadro_fx_5600());
        let out = crate::common::words_f32(&w.run(&mut gpu, &mut NoopObserver).unwrap());
        for (i, v) in out.iter().enumerate().skip(1) {
            assert_eq!(*v, 0.0, "detail {i} of a constant signal");
        }
        // Energy concentrates in coef[0]: 2.0 * sqrt(64) = 16.
        assert!((out[0] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn energy_is_preserved() {
        let w = DwtHaar1D::new(128, 8);
        let out = crate::common::words_f32(&w.reference());
        let e_in: f32 = w.input.iter().map(|x| x * x).sum();
        let e_out: f32 = out.iter().map(|x| x * x).sum();
        assert!(
            (e_in - e_out).abs() / e_in < 1e-4,
            "Parseval: {e_in} vs {e_out}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        let _ = DwtHaar1D::new(100, 0);
    }
}
