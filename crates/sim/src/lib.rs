//! # simt-sim — a cycle-level SIMT GPU simulator for reliability studies
//!
//! This crate is the substrate of the ISPASS 2017 reproduction: it plays the
//! role GPGPU-Sim 3.2.2 plays for NVIDIA GPUs and Multi2Sim 4.2 plays for
//! AMD GPUs in the original study. One simulator core, parameterised by an
//! [`ArchConfig`], models all four devices (G80, GT200, Fermi, Southern
//! Islands).
//!
//! Reliability work needs three things beyond ordinary performance
//! simulation, and they shape the design:
//!
//! 1. **Physical storage layout** — the vector register file, scalar
//!    register file and local memory (LDS) of every SM are real arrays of
//!    words whose *physical bit addresses* are stable, so a fault site
//!    ([`FaultSite`]) names an exact flip target, allocated or not.
//! 2. **Observer hooks** — every register/LDS read and write, block
//!    dispatch/retire and launch boundary is reported through the
//!    [`SimObserver`] trait (monomorphised, so the no-op observer costs
//!    nothing). ACE analysis and occupancy tracking in `grel-core` are pure
//!    consumers of these events.
//! 3. **Failure semantics** — a corrupted address, divergent barrier or
//!    runaway loop ends the launch with a [`Due`] (detected unrecoverable
//!    error), the outcome class the paper's fault-injection campaigns
//!    record alongside SDCs.
//!
//! ## Quick start
//!
//! ```
//! use simt_isa::{KernelBuilder, MemSpace, lower};
//! use simt_sim::{ArchConfig, Gpu, LaunchConfig};
//!
//! // out[i] = i  (one block of 64 threads)
//! let mut b = KernelBuilder::new("iota", 1);
//! let out = b.param(0);
//! let gid = b.vreg();
//! let addr = b.vreg();
//! b.global_tid_x(gid);
//! b.word_addr(addr, out, gid);
//! b.st(MemSpace::Global, addr, gid);
//! let kernel = b.build()?;
//!
//! let arch = ArchConfig::small_test_gpu();
//! let lowered = lower(&kernel, arch.caps())?;
//! let mut gpu = Gpu::new(arch);
//! let buf = gpu.alloc_words(64);
//! gpu.launch(&lowered, LaunchConfig::linear(1, 64), &[buf.addr()])?;
//! let words = gpu.read_words(buf, 64);
//! assert_eq!(words[7], 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod launch;
pub mod mem;
pub mod observer;
pub mod overlay;
pub mod regfile;
pub mod session;
pub mod sm;
pub mod trace;
pub mod warp;

pub use cache::{Cache, CacheGeom, CacheStats};
pub use config::{ArchConfig, Latencies, SchedulerPolicy, Vendor};
pub use error::{Due, SimError};
pub use fault::{ControlTarget, FaultKind, FaultModelKind, FaultSite, InvalidFaultSite, Structure};
pub use gpu::{Buffer, Gpu, LaunchProgress};
pub use launch::{Dim, LaunchConfig, LaunchStats};
pub use observer::{
    BlockRegions, CountingObserver, HotspotCounters, HotspotObserver, NoopObserver, SimObserver,
};
pub use overlay::{BatchPlane, MAX_BATCH_SCENARIOS};
pub use regfile::StuckBit;
pub use session::{Checkpoint, LaunchPlan, PlanStep, Session, SessionStatus, SessionTelemetry};
pub use trace::{GlobalWrite, GlobalWriteLog, TraceObserver, TraceRecord, TAINT_CAP};
