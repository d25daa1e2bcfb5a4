//! `matrixMul` — tiled dense matrix multiplication through shared memory
//! (CUDA/APP SDK).

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Dim, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

const TILE: u32 = 16;

/// `C = A × B` for `n × n` float matrices, 16×16 tiles staged in shared
/// memory with the classic double-barrier loop, inner product unrolled.
///
/// The compute-bound benchmark of the set: long accumulator lifetimes in
/// the register file and heavy LDS reuse.
///
/// # Example
/// ```
/// use gpu_workloads::{MatrixMul, Workload};
/// let w = MatrixMul::new(32, 5);
/// assert_eq!(w.name(), "matrixMul");
/// assert!(w.uses_local_memory());
/// ```
#[derive(Debug, Clone)]
pub struct MatrixMul {
    n: u32,
    a: Arc<[f32]>,
    b: Arc<[f32]>,
}

impl MatrixMul {
    /// An `n × n` multiply with seeded inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a multiple of the 16-element tile.
    pub fn new(n: u32, seed: u64) -> Self {
        assert!(
            n.is_multiple_of(TILE) && n > 0,
            "n must be a positive multiple of {TILE}"
        );
        MatrixMul {
            n,
            a: uniform_f32((n * n) as usize, seed ^ 0x3a7a).into(),
            b: uniform_f32((n * n) as usize, seed ^ 0x3a7b).into(),
        }
    }

    /// Default size used by the figure harness (96 × 96).
    pub fn default_size(seed: u64) -> Self {
        Self::new(96, seed)
    }

    /// Matrix edge length.
    pub fn n(&self) -> u32 {
        self.n
    }

    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("matrixMul", 4);
        let (pa, pb, pc, pn) = (kb.param(0), kb.param(1), kb.param(2), kb.param(3));
        let ntiles = kb.sreg();
        let m = kb.sreg();
        let m16 = kb.sreg();
        let row = kb.vreg();
        let col = kb.vreg();
        let acc = kb.vreg();
        let idx = kb.vreg();
        let v = kb.vreg();
        let sa = kb.vreg();
        let as_base = kb.vreg();
        let bs_base = kb.vreg();
        let done = kb.preg();
        let as_off = kb.shared(TILE * TILE * 4);
        let bs_off = kb.shared(TILE * TILE * 4);

        kb.imad(row, Special::CtaIdY, TILE, Special::TidY);
        kb.imad(col, Special::CtaIdX, TILE, Special::TidX);
        kb.movf(acc, 0.0);
        // Shared bases for the unrolled inner product.
        kb.imul(as_base, Special::TidY, TILE * 4); // tid.y row of As
        kb.shl_imm(bs_base, Special::TidX, 2); // tid.x col of Bs
        kb.udiv(ntiles, pn, TILE);
        kb.mov(m, 0u32);
        kb.loop_begin();
        {
            kb.isetp(CmpOp::UGe, done, m, ntiles);
            kb.brk(done);
            kb.imul(m16, m, TILE);
            // As[tid.y][tid.x] = A[row*n + m*16 + tid.x]
            kb.imad(idx, row, pn, m16);
            kb.iadd(idx, idx, Special::TidX);
            kb.word_addr(idx, pa, idx);
            kb.ld(MemSpace::Global, v, idx);
            kb.imad(sa, Special::TidY, TILE, Special::TidX);
            kb.shl_imm(sa, sa, 2);
            kb.st_off(MemSpace::Shared, sa, as_off as i32, v);
            // Bs[tid.y][tid.x] = B[(m*16 + tid.y)*n + col]
            kb.iadd(idx, m16, Special::TidY);
            kb.imad(idx, idx, pn, col);
            kb.word_addr(idx, pb, idx);
            kb.ld(MemSpace::Global, v, idx);
            kb.st_off(MemSpace::Shared, sa, bs_off as i32, v);
            kb.bar();
            // acc += As[tid.y][k] * Bs[k][tid.x], unrolled over k.
            let t0 = kb.vreg();
            let t1 = kb.vreg();
            for k in 0..TILE {
                kb.ld_off(MemSpace::Shared, t0, as_base, (as_off + k * 4) as i32);
                kb.ld_off(
                    MemSpace::Shared,
                    t1,
                    bs_base,
                    (bs_off + k * TILE * 4) as i32,
                );
                kb.ffma(acc, t0, t1, acc);
            }
            kb.bar();
            kb.iadd(m, m, 1u32);
        }
        kb.loop_end();
        // C[row*n + col] = acc
        kb.imad(idx, row, pn, col);
        kb.word_addr(idx, pc, idx);
        kb.st(MemSpace::Global, idx, acc);
        kb.exit();
        kb.build().expect("matrixMul kernel is valid")
    }
}

/// Launch plan: upload `A`/`B`, one tiled launch, read back `C`.
#[derive(Clone)]
struct MatrixMulPlan {
    w: MatrixMul,
    stage: u32,
    out: Option<Buffer>,
}

impl LaunchPlan for MatrixMulPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        let words = self.w.n * self.w.n;
        match self.stage {
            1 => {
                let kernel = crate::lower_for(&self.w.kernel(), gpu)?;
                let a = gpu.alloc_words(words);
                let b = gpu.alloc_words(words);
                let c = gpu.alloc_words(words);
                gpu.write_floats(a, &self.w.a);
                gpu.write_floats(b, &self.w.b);
                self.out = Some(c);
                let blocks = self.w.n / TILE;
                Ok(PlanStep::Launch {
                    kernel,
                    cfg: LaunchConfig::new(Dim::new(blocks, blocks), Dim::new(TILE, TILE)),
                    params: vec![a.addr(), b.addr(), c.addr(), self.w.n],
                })
            }
            _ => Ok(PlanStep::Done(
                gpu.read_words(self.out.expect("launched"), words),
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

impl Workload for MatrixMul {
    fn name(&self) -> &str {
        "matrixMul"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(MatrixMulPlan {
            w: self.clone(),
            stage: 0,
            out: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.n as usize;
        let mut c = vec![0.0f32; n * n];
        for row in 0..n {
            for col in 0..n {
                // Mirror the kernel exactly: fused multiply-adds in k order.
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc = self.a[row * n + k].mul_add(self.b[k * n + col], acc);
                }
                c[row * n + col] = acc;
            }
        }
        f32_words(&c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, hd_radeon_7970};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = MatrixMul::new(32, 13);
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
    fn identity_times_matrix_is_matrix() {
        let mut w = MatrixMul::new(16, 2);
        let mut a = vec![0.0; 256];
        for i in 0..16 {
            a[i * 16 + i] = 1.0;
        }
        w.a = a.into();
        let mut gpu = Gpu::new(hd_radeon_7970());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        assert_eq!(out, f32_words(&w.b));
    }

    #[test]
    fn scalar_loop_counter_stays_scalar_on_si() {
        // On Southern Islands the tile counter lowers to the scalar file.
        let w = MatrixMul::new(16, 2);
        let k = simt_isa::lower(&w.kernel(), hd_radeon_7970().caps()).unwrap();
        assert!(
            k.sregs_per_warp() >= 3,
            "ntiles, m, m16 in scalar registers"
        );
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_bad_size() {
        let _ = MatrixMul::new(30, 0);
    }
}
