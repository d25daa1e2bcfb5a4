//! `kmeans` — iterative k-means clustering (Rodinia): GPU nearest-centroid
//! assignment, host centroid update.

use crate::common::uniform_f32;
use crate::Workload;
use simt_isa::{CmpOp, Kernel, KernelBuilder, MemSpace};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError};
use std::sync::Arc;

/// `iters` rounds of k-means over `n` points with `FEATURES` features and
/// `k` clusters: the assignment kernel runs on the GPU (distance loop over
/// centroids, features unrolled, branch-free best tracking via selects,
/// exactly like Rodinia's `kmeans_cuda_kernel`), the averaging runs on the
/// host.
///
/// Output is the final membership vector.
///
/// # Example
/// ```
/// use gpu_workloads::{Kmeans, Workload};
/// let w = Kmeans::new(256, 4, 2, 1);
/// assert!(!w.uses_local_memory());
/// assert_eq!(w.reference().len(), 256);
/// ```
#[derive(Debug, Clone)]
pub struct Kmeans {
    n: u32,
    k: u32,
    iters: u32,
    points: Arc<[f32]>,
}

/// Features per point (unrolled in the kernel).
pub const FEATURES: u32 = 4;

impl Kmeans {
    /// Clusters `n` seeded points into `k` clusters for `iters` rounds.
    pub fn new(n: u32, k: u32, iters: u32, seed: u64) -> Self {
        assert!(k >= 1 && n >= k, "need at least one point per cluster");
        Kmeans {
            n,
            k,
            iters,
            points: uniform_f32((n * FEATURES) as usize, seed ^ 0x43a).into(),
        }
    }

    /// Default size used by the figure harness (2048 points, 8 clusters,
    /// 3 iterations).
    pub fn default_size(seed: u64) -> Self {
        Self::new(2048, 8, 3, seed)
    }

    fn kernel(&self) -> Kernel {
        let mut kb = KernelBuilder::new("kmeans", 5);
        let (ppts, pcent, pmemb, pn, pk) = (
            kb.param(0),
            kb.param(1),
            kb.param(2),
            kb.param(3),
            kb.param(4),
        );
        let c = kb.sreg();
        let caddr = kb.sreg();
        let gid = kb.vreg();
        let paddr = kb.vreg();
        let best = kb.vreg();
        let best_d = kb.vreg();
        let dist = kb.vreg();
        let diff = kb.vreg();
        let pv = kb.vreg();
        let cv = kb.vreg();
        let addr = kb.vreg();
        let inb = kb.preg();
        let done = kb.preg();
        let closer = kb.preg();

        kb.global_tid_x(gid);
        kb.isetp_lt_u(inb, gid, pn);
        kb.if_begin(inb);
        // paddr = &points[gid * FEATURES]
        kb.imad(paddr, gid, FEATURES * 4, ppts);
        kb.mov(best, 0u32);
        kb.movf(best_d, f32::INFINITY);
        kb.mov(c, 0u32);
        kb.loop_begin();
        {
            kb.isetp(CmpOp::UGe, done, c, pk);
            kb.brk(done);
            // caddr = &centroids[c * FEATURES]
            kb.imad(caddr, c, FEATURES * 4, pcent);
            kb.movf(dist, 0.0);
            for j in 0..FEATURES {
                kb.ld_off(MemSpace::Global, pv, paddr, (j * 4) as i32);
                kb.ld_off(MemSpace::Global, cv, caddr, (j * 4) as i32);
                kb.fsub(diff, pv, cv);
                kb.ffma(dist, diff, diff, dist);
            }
            // Branch-free best tracking.
            kb.fsetp(CmpOp::SLt, closer, dist, best_d);
            kb.sel(closer, best_d, dist, best_d);
            kb.sel(closer, best, c, best);
            kb.iadd(c, c, 1u32);
        }
        kb.loop_end();
        kb.word_addr(addr, pmemb, gid);
        kb.st(MemSpace::Global, addr, best);
        kb.if_end();
        kb.exit();
        kb.build().expect("kmeans kernel is valid")
    }

    /// Host mirror of one assignment round (for the reference).
    fn host_assign(&self, centroids: &[f32]) -> Vec<u32> {
        let (n, k, f) = (self.n as usize, self.k as usize, FEATURES as usize);
        (0..n)
            .map(|p| {
                let mut best = 0u32;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    let mut dist = 0.0f32;
                    for j in 0..f {
                        let diff = self.points[p * f + j] - centroids[c * f + j];
                        dist = diff.mul_add(diff, dist);
                    }
                    if dist < best_d {
                        best_d = dist;
                        best = c as u32;
                    }
                }
                best
            })
            .collect()
    }

    /// Host centroid update shared by `run` and `reference` (must be a
    /// single implementation so fault-free runs stay bit-identical).
    fn update_centroids(&self, membership: &[u32]) -> Vec<f32> {
        let (k, f) = (self.k as usize, FEATURES as usize);
        let mut sums = vec![0.0f32; k * f];
        let mut counts = vec![0u32; k];
        for (p, &m) in membership.iter().enumerate() {
            // A fault-corrupted membership index must not crash the host
            // phase: clamp like Rodinia's bounds-checked accumulation.
            let m = (m as usize).min(k - 1);
            counts[m] += 1;
            for j in 0..f {
                sums[m * f + j] += self.points[p * f + j];
            }
        }
        let mut cent = self.initial_centroids();
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..f {
                    cent[c * f + j] = sums[c * f + j] / counts[c] as f32;
                }
            }
        }
        cent
    }

    /// Initial centroids: the first `k` points (Rodinia's choice).
    fn initial_centroids(&self) -> Vec<f32> {
        self.points[..(self.k * FEATURES) as usize].to_vec()
    }
}

/// Launch plan: one assignment launch per round with a host centroid
/// update between rounds; the host state (current centroids, last
/// membership) lives in the plan so checkpoints capture it.
#[derive(Clone)]
struct KmeansPlan {
    w: Kmeans,
    kernel: Option<simt_isa::LoweredKernel>,
    bufs: Option<(Buffer, Buffer, Buffer)>,
    centroids: Vec<f32>,
    membership: Vec<u32>,
    iter: u32,
}

impl KmeansPlan {
    /// Uploads the current centroids and emits the assignment launch.
    fn launch_round(&mut self, gpu: &mut Gpu) -> PlanStep {
        let (pts, cent, memb) = self.bufs.expect("initialised");
        gpu.write_floats(cent, &self.centroids);
        PlanStep::Launch {
            kernel: self.kernel.clone().expect("initialised"),
            cfg: LaunchConfig::linear(self.w.n.div_ceil(128), 128),
            params: vec![pts.addr(), cent.addr(), memb.addr(), self.w.n, self.w.k],
        }
    }
}

impl LaunchPlan for KmeansPlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        if self.bufs.is_none() {
            self.kernel = Some(crate::lower_for(&self.w.kernel(), gpu)?);
            let pts = gpu.alloc_words(self.w.n * FEATURES);
            let cent = gpu.alloc_words(self.w.k * FEATURES);
            let memb = gpu.alloc_words(self.w.n);
            gpu.write_floats(pts, &self.w.points);
            self.bufs = Some((pts, cent, memb));
            self.centroids = self.w.initial_centroids();
            self.membership = vec![0u32; self.w.n as usize];
            if self.w.iters == 0 {
                return Ok(PlanStep::Done(self.membership.clone()));
            }
            return Ok(self.launch_round(gpu));
        }
        // A round's launch just completed: read the assignments and update
        // the centroids on the host.
        let (_, _, memb) = self.bufs.expect("initialised");
        self.membership = gpu.read_words(memb, self.w.n);
        self.centroids = self.w.update_centroids(&self.membership);
        self.iter += 1;
        if self.iter < self.w.iters {
            Ok(self.launch_round(gpu))
        } else {
            Ok(PlanStep::Done(self.membership.clone()))
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

impl Workload for Kmeans {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn uses_local_memory(&self) -> bool {
        false
    }

    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(KmeansPlan {
            w: self.clone(),
            kernel: None,
            bufs: None,
            centroids: Vec::new(),
            membership: Vec::new(),
            iter: 0,
        })
    }

    fn reference(&self) -> Vec<u32> {
        let mut centroids = self.initial_centroids();
        let mut membership = Vec::new();
        for _ in 0..self.iters {
            membership = self.host_assign(&centroids);
            centroids = self.update_centroids(&membership);
        }
        membership
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::{all_devices, geforce_gtx_480};
    use simt_sim::NoopObserver;

    #[test]
    fn matches_reference_on_every_device() {
        let w = Kmeans::new(256, 4, 2, 41);
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
    fn memberships_are_valid_clusters() {
        let w = Kmeans::new(200, 5, 3, 2);
        let memb = w.reference();
        assert!(memb.iter().all(|&m| m < 5));
        // Every cluster that seeded from a point keeps at least its seed
        // point nearby — at minimum the assignment is non-degenerate:
        assert!(memb.iter().any(|&m| m != memb[0]) || w.k == 1);
    }

    #[test]
    fn one_cluster_is_trivial() {
        let w = Kmeans::new(64, 1, 2, 3);
        let mut gpu = Gpu::new(geforce_gtx_480());
        let out = w.run(&mut gpu, &mut NoopObserver).unwrap();
        assert_eq!(out, vec![0u32; 64]);
    }

    #[test]
    fn iterations_refine_centroids() {
        let w1 = Kmeans::new(256, 4, 1, 7);
        let w3 = Kmeans::new(256, 4, 3, 7);
        // Same inputs, more rounds: assignments exist and are comparable.
        assert_eq!(w1.reference().len(), w3.reference().len());
    }
}
