//! `transpose` — tiled matrix transpose through padded shared memory
//! (CUDA/APP SDK).

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Dim, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

const TILE: u32 = 16;
/// Tile rows are padded by one word to spread accesses across LDS banks.
const PITCH: u32 = TILE + 1;

/// Out-of-place transpose of an `n × n` float matrix using 16×16 shared
/// tiles with +1 padding (the classic bank-conflict-free formulation).
///
/// Every element passes through local memory exactly once, making this the
/// highest-LDS-traffic benchmark of the set relative to its runtime.
///
/// # Example
/// ```
/// use gpu_workloads::{Transpose, Workload};
/// let w = Transpose::new(32, 9);
/// assert!(w.uses_local_memory());
/// assert_eq!(w.reference().len(), 32 * 32);
/// ```
#[derive(Debug, Clone)]
pub struct Transpose {
    n: u32,
    input: Arc<[f32]>,
}

impl Transpose {
    /// An `n × n` transpose with seeded input.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a multiple of the 16-element tile.
    pub fn new(n: u32, seed: u64) -> Self {
        assert!(
            n.is_multiple_of(TILE) && n > 0,
            "n must be a positive multiple of {TILE}"
        );
        Transpose {
            n,
            input: uniform_f32((n * n) as usize, seed ^ 0x7a05).into(),
        }
    }

    /// Default size used by the figure harness (128 × 128).
    pub fn default_size(seed: u64) -> Self {
        Self::new(128, seed)
    }

    /// Matrix edge length.
    pub fn n(&self) -> u32 {
        self.n
    }

    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("transpose", 3);
        let (pin, pout, pn) = (kb.param(0), kb.param(1), kb.param(2));
        let x = kb.vreg();
        let y = kb.vreg();
        let idx = kb.vreg();
        let v = kb.vreg();
        let saddr = kb.vreg();
        kb.shared(PITCH * TILE * 4);

        // x = ctaid.x*TILE + tid.x ; y = ctaid.y*TILE + tid.y
        kb.imad(x, Special::CtaIdX, TILE, Special::TidX);
        kb.imad(y, Special::CtaIdY, TILE, Special::TidY);
        // tile[tid.y*PITCH + tid.x] = in[y*n + x]
        kb.imad(idx, y, pn, x);
        kb.word_addr(idx, pin, idx);
        kb.ld(MemSpace::Global, v, idx);
        kb.imad(saddr, Special::TidY, PITCH, Special::TidX);
        kb.shl_imm(saddr, saddr, 2);
        kb.st(MemSpace::Shared, saddr, v);
        kb.bar();
        // out[(ctaid.x*TILE + tid.y)*n + ctaid.y*TILE + tid.x] =
        //     tile[tid.x*PITCH + tid.y]
        kb.imad(saddr, Special::TidX, PITCH, Special::TidY);
        kb.shl_imm(saddr, saddr, 2);
        kb.ld(MemSpace::Shared, v, saddr);
        kb.imad(x, Special::CtaIdY, TILE, Special::TidX);
        kb.imad(y, Special::CtaIdX, TILE, Special::TidY);
        kb.imad(idx, y, pn, x);
        kb.word_addr(idx, pout, idx);
        kb.st(MemSpace::Global, idx, v);
        kb.exit();
        kb.build().expect("transpose kernel is valid")
    }
}

/// Launch plan: upload the matrix, one tiled launch, read the transpose.
#[derive(Clone)]
struct TransposePlan {
    w: Transpose,
    stage: u32,
    out: Option<Buffer>,
}

impl LaunchPlan for TransposePlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        let words = self.w.n * self.w.n;
        match self.stage {
            1 => {
                let kernel = crate::lower_for(&self.w.kernel(), gpu)?;
                let bin = gpu.alloc_words(words);
                let bout = gpu.alloc_words(words);
                gpu.write_floats(bin, &self.w.input);
                self.out = Some(bout);
                let blocks = self.w.n / TILE;
                Ok(PlanStep::Launch {
                    kernel,
                    cfg: LaunchConfig::new(Dim::new(blocks, blocks), Dim::new(TILE, TILE)),
                    params: vec![bin.addr(), bout.addr(), self.w.n],
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

impl Workload for Transpose {
    fn name(&self) -> &str {
        "transpose"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(TransposePlan {
            w: self.clone(),
            stage: 0,
            out: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.n as usize;
        let mut out = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                out[x * n + y] = self.input[y * n + x];
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
        let w = Transpose::new(32, 21);
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
    fn transpose_is_involution() {
        let w = Transpose::new(16, 4);
        let once = crate::common::words_f32(&w.reference());
        // Transposing the transpose restores the input.
        let n = 16usize;
        let mut twice = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                twice[x * n + y] = once[y * n + x];
            }
        }
        assert_eq!(twice, *w.input);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_non_tile_multiple() {
        let _ = Transpose::new(20, 0);
    }

    #[test]
    fn default_size_runs() {
        let w = Transpose::default_size(1);
        let mut gpu = Gpu::new(geforce_gtx_480());
        assert_eq!(w.run(&mut gpu, &mut NoopObserver).unwrap(), w.reference());
    }
}
