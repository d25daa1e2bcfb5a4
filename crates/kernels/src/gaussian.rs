//! `gaussian` — Gaussian elimination (Rodinia): iterative `Fan1`/`Fan2`
//! kernel pairs, one per pivot column.

use crate::common::{f32_words, uniform_f32};
use crate::Workload;
use simt_isa::{CmpOp, Kernel, KernelBuilder, MemSpace};
use simt_sim::{Buffer, Dim, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// Forward elimination of an `n × n` system `A·x = b` with the Rodinia
/// kernel pair: `Fan1` computes the column of multipliers, `Fan2` updates
/// the trailing submatrix and right-hand side; `n − 1` iterations of two
/// launches each (the paper's most launch-heavy workload).
///
/// Outputs are the eliminated `A` followed by the updated `b`, exactly
/// what the GPU produces (Rodinia's back-substitution is host-side).
///
/// # Example
/// ```
/// use gpu_workloads::{Gaussian, Workload};
/// let w = Gaussian::new(16, 3);
/// assert!(!w.uses_local_memory());
/// assert_eq!(w.reference().len(), 16 * 16 + 16);
/// ```
#[derive(Debug, Clone)]
pub struct Gaussian {
    n: u32,
    a: Arc<[f32]>,
    b: Arc<[f32]>,
}

impl Gaussian {
    /// An `n × n` system with a seeded, diagonally dominant matrix (so no
    /// pivot degenerates).
    pub fn new(n: u32, seed: u64) -> Self {
        assert!(n >= 2, "system must be at least 2x2");
        let mut a = uniform_f32((n * n) as usize, seed ^ 0x6a55);
        let b = uniform_f32(n as usize, seed ^ 0x6a56);
        for i in 0..n as usize {
            a[i * n as usize + i] += n as f32; // diagonal dominance
        }
        Gaussian {
            n,
            a: a.into(),
            b: b.into(),
        }
    }

    /// Default size used by the figure harness (32 × 32).
    pub fn default_size(seed: u64) -> Self {
        Self::new(32, seed)
    }

    /// `Fan1`: m[i][t] = a[i][t] / a[t][t] for rows i > t.
    fn fan1(&self) -> Kernel {
        let mut kb = KernelBuilder::new("gaussian_fan1", 4);
        let (pm, pa, pn, pt) = (kb.param(0), kb.param(1), kb.param(2), kb.param(3));
        let rows = kb.sreg(); // n - 1 - t
        let gid = kb.vreg();
        let row = kb.vreg();
        let num = kb.vreg();
        let den = kb.vreg();
        let addr = kb.vreg();
        let inb = kb.preg();
        kb.isub(rows, pn, pt);
        kb.isub(rows, rows, 1u32);
        kb.global_tid_x(gid);
        kb.isetp_lt_u(inb, gid, rows);
        kb.if_begin(inb);
        // row = t + 1 + gid
        kb.iadd(row, gid, pt);
        kb.iadd(row, row, 1u32);
        // num = a[row*n + t] ; den = a[t*n + t]
        kb.imad(addr, row, pn, pt);
        kb.word_addr(addr, pa, addr);
        kb.ld(MemSpace::Global, num, addr);
        kb.imad(addr, pt, pn, pt);
        kb.word_addr(addr, pa, addr);
        kb.ld(MemSpace::Global, den, addr);
        kb.fdiv(num, num, den);
        // m[row*n + t] = num
        kb.imad(addr, row, pn, pt);
        kb.word_addr(addr, pm, addr);
        kb.st(MemSpace::Global, addr, num);
        kb.if_end();
        kb.exit();
        kb.build().expect("fan1 kernel is valid")
    }

    /// `Fan2`: a[i][j] -= m[i][t] * a[t][j] (and b[i] -= m[i][t] * b[t]).
    fn fan2(&self) -> Kernel {
        let mut kb = KernelBuilder::new("gaussian_fan2", 5);
        let (pm, pa, pb, pn, pt) = (
            kb.param(0),
            kb.param(1),
            kb.param(2),
            kb.param(3),
            kb.param(4),
        );
        let rows = kb.sreg(); // n - 1 - t
        let cols = kb.sreg(); // n - t
        let x = kb.vreg();
        let y = kb.vreg();
        let row = kb.vreg();
        let col = kb.vreg();
        let mult = kb.vreg();
        let v = kb.vreg();
        let pivot = kb.vreg();
        let addr = kb.vreg();
        let px = kb.preg();
        let py = kb.preg();
        kb.isub(rows, pn, pt);
        kb.isub(rows, rows, 1u32);
        kb.isub(cols, pn, pt);
        kb.global_tid_x(x); // row offset
        kb.global_tid_y(y); // column offset
        kb.isetp_lt_u(px, x, rows);
        kb.if_begin(px);
        kb.isetp_lt_u(py, y, cols);
        kb.if_begin(py);
        // row = t + 1 + x ; col = t + y
        kb.iadd(row, x, pt);
        kb.iadd(row, row, 1u32);
        kb.iadd(col, y, pt);
        // mult = m[row*n + t]
        kb.imad(addr, row, pn, pt);
        kb.word_addr(addr, pm, addr);
        kb.ld(MemSpace::Global, mult, addr);
        // a[row*n + col] -= mult * a[t*n + col]  (mul then sub, as Rodinia)
        kb.imad(addr, pt, pn, col);
        kb.word_addr(addr, pa, addr);
        kb.ld(MemSpace::Global, pivot, addr);
        kb.fmul(pivot, mult, pivot);
        kb.imad(addr, row, pn, col);
        kb.word_addr(addr, pa, addr);
        kb.ld(MemSpace::Global, v, addr);
        kb.fsub(v, v, pivot);
        kb.st(MemSpace::Global, addr, v);
        // if (y == 0) b[row] -= mult * b[t]
        kb.isetp(CmpOp::Eq, py, y, 0u32);
        kb.if_begin(py);
        kb.word_addr(addr, pb, pt);
        kb.ld(MemSpace::Global, pivot, addr);
        kb.fmul(pivot, mult, pivot);
        kb.word_addr(addr, pb, row);
        kb.ld(MemSpace::Global, v, addr);
        kb.fsub(v, v, pivot);
        kb.st(MemSpace::Global, addr, v);
        kb.if_end();
        kb.if_end();
        kb.if_end();
        kb.exit();
        kb.build().expect("fan2 kernel is valid")
    }
}

/// Launch plan: alternating `Fan1`/`Fan2` launches for each pivot column
/// `t`, then read the eliminated matrix and right-hand side.
#[derive(Clone)]
struct GaussianPlan {
    w: Gaussian,
    fan1: Option<simt_isa::LoweredKernel>,
    fan2: Option<simt_isa::LoweredKernel>,
    bufs: Option<(Buffer, Buffer, Buffer)>,
    t: u32,
    next_is_fan2: bool,
}

impl LaunchPlan for GaussianPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        let n = self.w.n;
        if self.bufs.is_none() {
            self.fan1 = Some(crate::lower_for(&self.w.fan1(), gpu)?);
            self.fan2 = Some(crate::lower_for(&self.w.fan2(), gpu)?);
            let a = gpu.alloc_words(n * n);
            let b = gpu.alloc_words(n);
            let m = gpu.alloc_words(n * n);
            gpu.write_floats(a, &self.w.a);
            gpu.write_floats(b, &self.w.b);
            self.bufs = Some((a, b, m));
        }
        let (a, b, m) = self.bufs.expect("initialised");
        if self.t < n - 1 {
            let t = self.t;
            let rows = n - 1 - t;
            if !self.next_is_fan2 {
                self.next_is_fan2 = true;
                return Ok(PlanStep::Launch {
                    kernel: self.fan1.clone().expect("initialised"),
                    cfg: LaunchConfig::linear(rows.div_ceil(64), 64),
                    params: vec![m.addr(), a.addr(), n, t],
                });
            }
            self.next_is_fan2 = false;
            self.t += 1;
            let cols = n - t;
            return Ok(PlanStep::Launch {
                kernel: self.fan2.clone().expect("initialised"),
                cfg: LaunchConfig::new(
                    Dim::new(rows.div_ceil(16), cols.div_ceil(16)),
                    Dim::new(16, 16),
                ),
                params: vec![m.addr(), a.addr(), b.addr(), n, t],
            });
        }
        let mut out = gpu.read_words(a, n * n);
        out.extend(gpu.read_words(b, n));
        Ok(PlanStep::Done(out))
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

impl Workload for Gaussian {
    fn name(&self) -> &str {
        "gaussian"
    }

    fn uses_local_memory(&self) -> bool {
        false
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(GaussianPlan {
            w: self.clone(),
            fan1: None,
            fan2: None,
            bufs: None,
            t: 0,
            next_is_fan2: false,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.n as usize;
        let mut a = self.a.to_vec();
        let mut b = self.b.to_vec();
        let mut m = vec![0.0f32; n * n];
        for t in 0..n - 1 {
            for i in t + 1..n {
                m[i * n + t] = a[i * n + t] / a[t * n + t];
            }
            for i in t + 1..n {
                for j in t..n {
                    a[i * n + j] -= m[i * n + t] * a[t * n + j];
                }
                b[i] -= m[i * n + t] * b[t];
            }
        }
        let mut out = f32_words(&a);
        out.extend(f32_words(&b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::words_f32;
    use gpu_archs::{all_devices, quadro_fx_5800};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = Gaussian::new(16, 37);
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
    fn elimination_zeroes_lower_triangle() {
        let w = Gaussian::new(8, 5);
        let mut gpu = Gpu::new(quadro_fx_5800());
        let out = words_f32(&w.run(&mut gpu, &mut NoopObserver).unwrap());
        let n = 8usize;
        for i in 1..n {
            for j in 0..i {
                assert!(
                    out[i * n + j].abs() < 1e-3,
                    "a[{i}][{j}] = {} not eliminated",
                    out[i * n + j]
                );
            }
        }
    }

    #[test]
    fn solution_solves_system() {
        // Back-substitute the GPU result and check A·x ≈ b on the inputs.
        let w = Gaussian::new(8, 11);
        let mut gpu = Gpu::new(quadro_fx_5800());
        let out = words_f32(&w.run(&mut gpu, &mut NoopObserver).unwrap());
        let n = 8usize;
        let (a_el, b_el) = out.split_at(n * n);
        let mut x = vec![0.0f32; n];
        for i in (0..n).rev() {
            let mut s = b_el[i];
            for j in i + 1..n {
                s -= a_el[i * n + j] * x[j];
            }
            x[i] = s / a_el[i * n + i];
        }
        for i in 0..n {
            let lhs: f32 = (0..n).map(|j| w.a[i * n + j] * x[j]).sum();
            assert!((lhs - w.b[i]).abs() < 1e-2, "row {i}: {lhs} vs {}", w.b[i]);
        }
    }
}
