//! # gpu-workloads — the ten benchmarks of the ISPASS 2017 study
//!
//! The original paper evaluates ten benchmarks available in both the CUDA
//! SDK and the AMD APP SDK (seven) plus Rodinia (three), using the *same*
//! algorithm on every device. This crate provides them as MASS kernels
//! with seeded input generators and host-side golden references that
//! mirror the GPU's floating-point operation order **exactly**, so a
//! fault-free simulation matches the reference bit-for-bit:
//!
//! | Workload | Origin | Local memory | Structure |
//! |---|---|---|---|
//! | [`Backprop`] | Rodinia | yes | 2 kernels + host layer |
//! | [`DwtHaar1D`] | CUDA/APP SDK | yes | log₂(n) launches |
//! | [`Gaussian`] | Rodinia | no | 2 kernels × (n−1) iterations |
//! | [`Histogram`] | CUDA/APP SDK | yes | shared bins + global merge |
//! | [`Kmeans`] | Rodinia | no | iterative, host centroid update |
//! | [`MatrixMul`] | CUDA/APP SDK | yes | tiled, barrier-synchronised |
//! | [`Reduction`] | CUDA/APP SDK | yes | 2-level tree |
//! | [`Scan`] | CUDA/APP SDK | yes | 3 kernels (Hillis–Steele) |
//! | [`Transpose`] | CUDA/APP SDK | yes | padded tiles |
//! | [`VectorAdd`] | CUDA/APP SDK | no | single kernel |
//!
//! The "Local memory" column matches Fig. 2 of the paper, which evaluates
//! LDS vulnerability only for the seven benchmarks that use it.
//!
//! Each workload holds its generated inputs as immutable `Arc<[T]>`
//! slices. A launch plan carries a clone of its workload, and every
//! checkpoint restore clones the plan, so the inputs are shared rather
//! than copied.
//!
//! # Example
//! ```
//! use gpu_workloads::{VectorAdd, Workload};
//! use gpu_archs::quadro_fx_5600;
//! use simt_sim::{Gpu, NoopObserver};
//!
//! let w = VectorAdd::new(1024, 42);
//! let mut gpu = Gpu::new(quadro_fx_5600());
//! let out = w.run(&mut gpu, &mut NoopObserver)?;
//! assert_eq!(out, w.reference());
//! # Ok::<(), simt_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backprop;
pub mod common;
pub mod dwt;
pub mod gaussian;
pub mod histogram;
pub mod kmeans;
pub mod matmul;
pub mod reduction;
pub mod scan;
pub mod transpose;
pub mod vectoradd;

pub use backprop::Backprop;
pub use dwt::DwtHaar1D;
pub use gaussian::Gaussian;
pub use histogram::Histogram;
pub use kmeans::Kmeans;
pub use matmul::MatrixMul;
pub use reduction::Reduction;
pub use scan::Scan;
pub use transpose::Transpose;
pub use vectoradd::VectorAdd;

use simt_sim::{Gpu, LaunchPlan, Session, SimError, SimObserver};

/// Lowers a kernel for the device's capabilities, mapping ISA errors to a
/// launch-configuration failure.
pub(crate) fn lower_for(
    kernel: &simt_isa::Kernel,
    gpu: &Gpu,
) -> Result<simt_isa::LoweredKernel, SimError> {
    simt_isa::lower(kernel, gpu.arch().caps()).map_err(|e| SimError::LaunchConfig {
        reason: e.to_string(),
    })
}

/// A benchmark that can run on any modelled GPU and knows its own golden
/// output.
///
/// Implementations are deterministic: the same seed produces the same
/// inputs, the same launch schedule and — on a fault-free device — an
/// output bit-identical to [`Workload::reference`].
///
/// Execution is described by [`Workload::plan`] — an explicit, resumable
/// schedule of kernel launches and host steps — which a
/// [`simt_sim::Session`] drives cycle-by-cycle. [`Workload::run`] is a
/// convenience wrapper that drives a fresh session to completion.
pub trait Workload: Send + Sync {
    /// Benchmark name as used in the paper's figures (e.g. `matrixMul`).
    fn name(&self) -> &str;

    /// Whether the kernels use local/shared memory (Fig. 2 membership).
    fn uses_local_memory(&self) -> bool;

    /// The workload's deterministic launch plan: the full schedule of
    /// kernel launches and host-side steps, resumable and cloneable so a
    /// [`simt_sim::Session`] can checkpoint and replay it mid-flight.
    fn plan(&self) -> Box<dyn LaunchPlan>;

    /// Executes the full workload (all launches plus any host phases) on
    /// `gpu`, returning the concatenated output words.
    ///
    /// This is a thin shim over [`Workload::plan`]: it drives a
    /// [`simt_sim::Session`] to completion and produces identical outputs
    /// and cycle counts to stepping the plan by hand.
    ///
    /// # Errors
    ///
    /// Propagates launch failures, including [`simt_sim::Due`]s raised
    /// under fault injection.
    fn run(&self, gpu: &mut Gpu, mut obs: &mut dyn SimObserver) -> Result<Vec<u32>, SimError> {
        Session::new(gpu, self.plan()).run_to_completion(&mut obs)
    }

    /// The host-computed golden output (bit-exact against a fault-free
    /// [`Workload::run`]).
    fn reference(&self) -> Vec<u32>;
}

/// All ten benchmarks with their default (paper-scale-reduced) sizes and
/// the given input seed, in the paper's alphabetical figure order.
///
/// # Example
/// ```
/// use gpu_workloads::all_workloads;
/// let ws = all_workloads(7);
/// assert_eq!(ws.len(), 10);
/// assert_eq!(ws[0].name(), "backprop");
/// assert_eq!(ws[9].name(), "vectoradd");
/// ```
pub fn all_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Backprop::default_size(seed)),
        Box::new(DwtHaar1D::default_size(seed)),
        Box::new(Gaussian::default_size(seed)),
        Box::new(Histogram::default_size(seed)),
        Box::new(Kmeans::default_size(seed)),
        Box::new(MatrixMul::default_size(seed)),
        Box::new(Reduction::default_size(seed)),
        Box::new(Scan::default_size(seed)),
        Box::new(Transpose::default_size(seed)),
        Box::new(VectorAdd::default_size(seed)),
    ]
}

/// The seven local-memory-using benchmarks of Fig. 2.
///
/// # Example
/// ```
/// use gpu_workloads::local_memory_workloads;
/// let ws = local_memory_workloads(7);
/// assert_eq!(ws.len(), 7);
/// assert!(ws.iter().all(|w| w.uses_local_memory()));
/// ```
pub fn local_memory_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    all_workloads(seed)
        .into_iter()
        .filter(|w| w.uses_local_memory())
        .collect()
}

/// Looks a workload up by name (paper spelling, case-insensitive).
///
/// # Example
/// ```
/// use gpu_workloads::workload_by_name;
/// assert!(workload_by_name("matrixMul", 1).is_some());
/// assert!(workload_by_name("nonesuch", 1).is_none());
/// ```
pub fn workload_by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let n = name.to_ascii_lowercase();
    all_workloads(seed)
        .into_iter()
        .find(|w| w.name().to_ascii_lowercase() == n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_paper_figures() {
        let ws = all_workloads(1);
        let names: Vec<&str> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "backprop",
                "dwtHaar1D",
                "gaussian",
                "histogram",
                "kmeans",
                "matrixMul",
                "reduction",
                "scan",
                "transpose",
                "vectoradd"
            ]
        );
        // Fig. 2 membership: gaussian, kmeans, vectoradd have no LDS use.
        let lds: Vec<&str> = ws
            .iter()
            .filter(|w| w.uses_local_memory())
            .map(|w| w.name())
            .collect();
        assert_eq!(
            lds,
            vec![
                "backprop",
                "dwtHaar1D",
                "histogram",
                "matrixMul",
                "reduction",
                "scan",
                "transpose"
            ]
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(
            workload_by_name("MATRIXMUL", 1).unwrap().name(),
            "matrixMul"
        );
        assert_eq!(
            workload_by_name("dwthaar1d", 1).unwrap().name(),
            "dwtHaar1D"
        );
    }
}
