//! `backprop` — one training step of a two-layer perceptron (Rodinia):
//! GPU layer-forward with a shared-memory tree reduction, host output
//! layer and deltas, GPU weight adjustment.

use crate::common::{f32_words, sigmoid, uniform_f32};
use crate::Workload;
use simt_isa::{CmpOp, Kernel, KernelBuilder, MemSpace, Special};
use simt_sim::{Buffer, Dim, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// Hidden units (fixed at 16 as in Rodinia's `bpnn` GPU path).
pub const HID: u32 = 16;
const ETA: f32 = 0.3;
const MOMENTUM: f32 = 0.3;

/// One backpropagation step for a network with `n_in` input units and 16
/// hidden units: `bpnn_layerforward` (shared-memory partial products +
/// tree reduction per 16-input block) and `bpnn_adjust_weights` on the
/// GPU, sigmoid/output layer/deltas on the host — the exact split Rodinia
/// uses.
///
/// Outputs are the partial-sum matrix, the adjusted input→hidden weights
/// and the stored weight deltas.
///
/// # Example
/// ```
/// use gpu_workloads::{Backprop, Workload};
/// let w = Backprop::new(64, 5);
/// assert!(w.uses_local_memory());
/// ```
#[derive(Debug, Clone)]
pub struct Backprop {
    n_in: u32,
    input: Arc<[f32]>,
    w1: Arc<[f32]>,
    w2: Arc<[f32]>,
    target: f32,
}

impl Backprop {
    /// A network with `n_in` input units (must be a multiple of 16).
    pub fn new(n_in: u32, seed: u64) -> Self {
        assert!(
            n_in.is_multiple_of(16) && n_in > 0,
            "n_in must be a positive multiple of 16"
        );
        Backprop {
            n_in,
            input: uniform_f32(n_in as usize, seed ^ 0xb9).into(),
            w1: uniform_f32((n_in * HID) as usize, seed ^ 0xba).into(),
            w2: uniform_f32(HID as usize, seed ^ 0xbb).into(),
            target: 0.7,
        }
    }

    /// Default size used by the figure harness (1024 input units).
    pub fn default_size(seed: u64) -> Self {
        Self::new(1024, seed)
    }

    /// `bpnn_layerforward`: per 16×16 block, stage the input slice and the
    /// weight×input products in shared memory, tree-reduce over the input
    /// dimension, emit one partial sum per hidden unit.
    fn layerforward(&self) -> Kernel {
        let mut kb = KernelBuilder::new("backprop_layerforward", 3);
        let (pinput, pw1, ppartial) = (kb.param(0), kb.param(1), kb.param(2));
        let v = kb.vreg();
        let w = kb.vreg();
        let addr = kb.vreg();
        let saddr = kb.vreg();
        let idx = kb.vreg();
        let t = kb.vreg();
        let p = kb.preg();
        let node_off = kb.shared(16 * 4);
        let wm_off = kb.shared(16 * 16 * 4);

        // index_in = ctaid.y*16 + tid.y
        kb.imad(idx, Special::CtaIdY, 16u32, Special::TidY);
        // if (tx == 0) input_node[ty] = input[index_in]
        kb.isetp(CmpOp::Eq, p, Special::TidX, 0u32);
        kb.if_begin(p);
        kb.word_addr(addr, pinput, idx);
        kb.ld(MemSpace::Global, v, addr);
        kb.imad(saddr, Special::TidY, 4u32, node_off);
        kb.st(MemSpace::Shared, saddr, v);
        kb.if_end();
        kb.bar();
        // wm[ty][tx] = w1[index_in*HID + tx] * input_node[ty]
        kb.imad(addr, idx, HID, Special::TidX);
        kb.word_addr(addr, pw1, addr);
        kb.ld(MemSpace::Global, w, addr);
        kb.imad(saddr, Special::TidY, 4u32, node_off);
        kb.ld(MemSpace::Shared, v, saddr);
        kb.fmul(w, w, v);
        kb.imad(saddr, Special::TidY, 16u32, Special::TidX);
        kb.imad(saddr, saddr, 4u32, wm_off);
        kb.st(MemSpace::Shared, saddr, w);
        kb.bar();
        // Tree-reduce over ty exactly as Rodinia: for power in 2,4,8,16.
        for i in 1..=4u32 {
            let power = 1u32 << i;
            kb.and(t, Special::TidY, power - 1);
            kb.isetp(CmpOp::Eq, p, t, 0u32);
            kb.if_begin(p);
            kb.ld(MemSpace::Shared, v, saddr);
            kb.ld_off(MemSpace::Shared, t, saddr, ((power / 2) * 16 * 4) as i32);
            kb.fadd(v, v, t);
            kb.st(MemSpace::Shared, saddr, v);
            kb.if_end();
            kb.bar();
        }
        // if (ty == 0) partial[ctaid.y*HID + tx] = wm[0][tx]
        kb.isetp(CmpOp::Eq, p, Special::TidY, 0u32);
        kb.if_begin(p);
        kb.imad(saddr, Special::TidX, 4u32, wm_off);
        kb.ld(MemSpace::Shared, v, saddr);
        kb.imad(addr, Special::CtaIdY, HID, Special::TidX);
        kb.word_addr(addr, ppartial, addr);
        kb.st(MemSpace::Global, addr, v);
        kb.if_end();
        kb.exit();
        kb.build().expect("layerforward kernel is valid")
    }

    /// `bpnn_adjust_weights`: `dw = η·δ[j]·x[i] + μ·oldw[i][j]`,
    /// `w += dw`, `oldw = dw`.
    fn adjust_weights(&self) -> Kernel {
        let mut kb = KernelBuilder::new("backprop_adjust", 6);
        let (pdelta, pinput, pw1, poldw, peta, pmom) = (
            kb.param(0),
            kb.param(1),
            kb.param(2),
            kb.param(3),
            kb.param(4),
            kb.param(5),
        );
        let row = kb.vreg();
        let idx = kb.vreg();
        let d = kb.vreg();
        let x = kb.vreg();
        let old = kb.vreg();
        let dw = kb.vreg();
        let addr = kb.vreg();
        let v = kb.vreg();

        kb.imad(row, Special::CtaIdY, 16u32, Special::TidY);
        kb.imad(idx, row, HID, Special::TidX);
        // d = delta[tx] ; x = input[row]
        kb.word_addr(addr, pdelta, Special::TidX);
        kb.ld(MemSpace::Global, d, addr);
        kb.word_addr(addr, pinput, row);
        kb.ld(MemSpace::Global, x, addr);
        // dw = eta*d*x + momentum*oldw[idx]
        kb.fmul(dw, d, x);
        kb.fmul(dw, dw, peta);
        kb.word_addr(addr, poldw, idx);
        kb.ld(MemSpace::Global, old, addr);
        kb.ffma(dw, old, pmom, dw);
        kb.st(MemSpace::Global, addr, dw); // oldw[idx] = dw
        kb.word_addr(addr, pw1, idx);
        kb.ld(MemSpace::Global, v, addr);
        kb.fadd(v, v, dw);
        kb.st(MemSpace::Global, addr, v);
        kb.exit();
        kb.build().expect("adjust kernel is valid")
    }

    /// Host mirror of the block tree reduction for one (block, hidden)
    /// pair.
    fn host_partial(&self, by: usize, j: usize) -> f32 {
        let mut wm: Vec<f32> = (0..16)
            .map(|ty| {
                let i = by * 16 + ty;
                self.w1[i * HID as usize + j] * self.input[i]
            })
            .collect();
        for i in 1..=4u32 {
            let power = (1u32 << i) as usize;
            for ty in (0..16).step_by(power) {
                wm[ty] += wm[ty + power / 2];
            }
        }
        wm[0]
    }

    /// Host phases shared by `run` and `reference`: hidden activations,
    /// output, deltas.
    fn host_deltas(&self, partial: &[f32]) -> Vec<f32> {
        let blocks = (self.n_in / 16) as usize;
        let hid = HID as usize;
        let hidden: Vec<f32> = (0..hid)
            .map(|j| {
                let mut s = 0.0f32;
                for by in 0..blocks {
                    s += partial[by * hid + j];
                }
                sigmoid(s)
            })
            .collect();
        let mut o = 0.0f32;
        for (h, w2) in hidden.iter().zip(&self.w2[..]) {
            o += h * w2;
        }
        let out = sigmoid(o);
        let delta_out = out * (1.0 - out) * (self.target - out);
        (0..hid)
            .map(|j| hidden[j] * (1.0 - hidden[j]) * self.w2[j] * delta_out)
            .collect()
    }
}

/// Launch plan: layer-forward launch, host delta computation, weight
/// adjustment launch, readback of partials/weights/deltas.
#[derive(Clone)]
struct BackpropPlan {
    w: Backprop,
    stage: u32,
    bufs: Option<(Buffer, Buffer, Buffer, Buffer, Buffer)>,
}

impl BackpropPlan {
    fn grid(&self) -> LaunchConfig {
        LaunchConfig::new(Dim::new(1, self.w.n_in / 16), Dim::new(16, 16))
    }
}

impl LaunchPlan for BackpropPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        let blocks = self.w.n_in / 16;
        match self.stage {
            1 => {
                let k1 = crate::lower_for(&self.w.layerforward(), gpu)?;
                let binput = gpu.alloc_words(self.w.n_in);
                let bw1 = gpu.alloc_words(self.w.n_in * HID);
                let bpartial = gpu.alloc_words(blocks * HID);
                let bdelta = gpu.alloc_words(HID);
                let boldw = gpu.alloc_words(self.w.n_in * HID);
                gpu.write_floats(binput, &self.w.input);
                gpu.write_floats(bw1, &self.w.w1);
                self.bufs = Some((binput, bw1, bpartial, bdelta, boldw));
                Ok(PlanStep::Launch {
                    kernel: k1,
                    cfg: self.grid(),
                    params: vec![binput.addr(), bw1.addr(), bpartial.addr()],
                })
            }
            2 => {
                // Host phase between the launches: hidden activations,
                // output layer, deltas.
                let (binput, bw1, bpartial, bdelta, boldw) = self.bufs.expect("allocated");
                let partial = gpu.read_floats(bpartial, blocks * HID);
                let delta = self.w.host_deltas(&partial);
                gpu.write_floats(bdelta, &delta);
                Ok(PlanStep::Launch {
                    kernel: crate::lower_for(&self.w.adjust_weights(), gpu)?,
                    cfg: self.grid(),
                    params: vec![
                        bdelta.addr(),
                        binput.addr(),
                        bw1.addr(),
                        boldw.addr(),
                        ETA.to_bits(),
                        MOMENTUM.to_bits(),
                    ],
                })
            }
            _ => {
                let (_, bw1, bpartial, _, boldw) = self.bufs.expect("allocated");
                let mut out = gpu.read_words(bpartial, blocks * HID);
                out.extend(gpu.read_words(bw1, self.w.n_in * HID));
                out.extend(gpu.read_words(boldw, self.w.n_in * HID));
                Ok(PlanStep::Done(out))
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

impl Workload for Backprop {
    fn name(&self) -> &str {
        "backprop"
    }

    fn uses_local_memory(&self) -> bool {
        true
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(BackpropPlan {
            w: self.clone(),
            stage: 0,
            bufs: None,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let blocks = (self.n_in / 16) as usize;
        let hid = HID as usize;
        let partial: Vec<f32> = (0..blocks * hid)
            .map(|i| self.host_partial(i / hid, i % hid))
            .collect();
        let delta = self.host_deltas(&partial);
        let mut w1 = self.w1.to_vec();
        let mut oldw = vec![0.0f32; self.n_in as usize * hid];
        for row in 0..self.n_in as usize {
            for (j, d) in delta.iter().enumerate() {
                let idx = row * hid + j;
                let dw = MOMENTUM.mul_add(oldw[idx], d * self.input[row] * ETA);
                oldw[idx] = dw;
                w1[idx] += dw;
            }
        }
        let mut out = f32_words(&partial);
        out.extend(f32_words(&w1));
        out.extend(f32_words(&oldw));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::words_f32;
    use gpu_archs::{all_devices, quadro_fx_5600};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = Backprop::new(64, 43);
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
    fn partial_sums_match_direct_dot_product() {
        let w = Backprop::new(32, 3);
        let r = words_f32(&w.reference());
        // partial[by*HID + j] should be close to the direct dot product of
        // inputs 16·by..16·(by+1) with weight column j.
        for by in 0..2usize {
            for j in 0..HID as usize {
                let direct: f32 = (0..16)
                    .map(|ty| {
                        let i = by * 16 + ty;
                        w.w1[i * HID as usize + j] * w.input[i]
                    })
                    .sum();
                let tree = r[by * HID as usize + j];
                assert!((tree - direct).abs() < 1e-3, "partial[{by}][{j}]");
            }
        }
    }

    #[test]
    fn weights_move_toward_target() {
        let w = Backprop::new(32, 5);
        let mut gpu = Gpu::new(quadro_fx_5600());
        let out = words_f32(&w.run(&mut gpu, &mut NoopObserver).unwrap());
        let hid = HID as usize;
        let blocks = 2usize;
        let w1_new = &out[blocks * hid..blocks * hid + 32 * hid];
        assert!(
            w1_new.iter().zip(&w.w1[..]).any(|(a, b)| a != b),
            "training must change at least one weight"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_bad_input_size() {
        let _ = Backprop::new(40, 0);
    }
}
