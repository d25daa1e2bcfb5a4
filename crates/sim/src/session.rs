//! Resumable execution sessions: deterministic launch plans driven
//! step-by-step with whole-state snapshot/restore.
//!
//! A [`LaunchPlan`] is a workload's explicit schedule — the sequence of
//! kernel launches plus the host-side work between them (input upload,
//! intermediate readback, final output collection). A [`Session`] drives a
//! plan against a [`Gpu`] one application cycle at a time, which makes two
//! things possible that the monolithic `launch()` loop cannot offer:
//!
//! * **checkpointing** — [`Session::snapshot`] captures the full simulator
//!   state (register files, LDS, global memory, warp contexts, caches,
//!   cycle counters, in-flight launch position *and* plan position) as a
//!   [`Checkpoint`]; [`Session::restore`] rewinds to it exactly. Replaying
//!   from a checkpoint is byte-identical to replaying from cycle zero.
//! * **mid-kernel instrumentation** — callers decide what happens between
//!   any two cycles (arm a fault, take a snapshot, inspect state) without
//!   the simulator needing to know why.
//!
//! Fault-injection campaigns exploit this: the golden run records a ladder
//! of checkpoints, and each injection replays from the nearest checkpoint
//! at-or-before its fault cycle instead of from scratch.
//!
//! # Example
//!
//! ```
//! use simt_sim::session::{LaunchPlan, PlanStep, Session};
//! use simt_sim::{ArchConfig, Gpu, LaunchConfig, NoopObserver, SimError};
//! use simt_isa::{lower, KernelBuilder, MemSpace};
//!
//! /// out[i] = i, then read the buffer back.
//! #[derive(Clone)]
//! struct IotaPlan {
//!     stage: u32,
//!     buf: Option<simt_sim::Buffer>,
//! }
//!
//! impl LaunchPlan for IotaPlan {
//!     fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
//!         self.stage += 1;
//!         match self.stage {
//!             1 => {
//!                 let buf = gpu.alloc_words(64);
//!                 self.buf = Some(buf);
//!                 let mut b = KernelBuilder::new("iota", 1);
//!                 let out = b.param(0);
//!                 let gid = b.vreg();
//!                 let addr = b.vreg();
//!                 b.global_tid_x(gid);
//!                 b.word_addr(addr, out, gid);
//!                 b.st(MemSpace::Global, addr, gid);
//!                 let k = lower(&b.build().unwrap(), gpu.arch().caps()).unwrap();
//!                 Ok(PlanStep::Launch {
//!                     kernel: k,
//!                     cfg: LaunchConfig::linear(1, 64),
//!                     params: vec![buf.addr()],
//!                 })
//!             }
//!             _ => Ok(PlanStep::Done(gpu.read_words(self.buf.unwrap(), 64))),
//!         }
//!     }
//!
//!     fn clone_plan(&self) -> Box<dyn LaunchPlan> {
//!         Box::new(self.clone())
//!     }
//! }
//!
//! let mut gpu = Gpu::new(ArchConfig::small_test_gpu());
//! let mut s = Session::new(&mut gpu, Box::new(IotaPlan { stage: 0, buf: None }));
//! let out = s.run_to_completion(&mut NoopObserver)?;
//! assert_eq!(out[7], 7);
//! # Ok::<(), SimError>(())
//! ```

use crate::error::SimError;
use crate::gpu::{Gpu, LaunchProgress};
use crate::launch::{LaunchConfig, LaunchStats};
use crate::observer::SimObserver;
use simt_isa::LoweredKernel;
use std::time::Instant;

/// One step of a workload's deterministic launch schedule.
///
/// The size gap between the variants is fine: a `PlanStep` is produced
/// once per kernel launch and consumed immediately by the session — it
/// is never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PlanStep {
    /// Launch a kernel. The plan lowers the kernel for the device it is
    /// handed (via `gpu.arch().caps()`), so one plan serves every
    /// architecture.
    Launch {
        /// The lowered kernel to execute.
        kernel: LoweredKernel,
        /// Grid/block shape.
        cfg: LaunchConfig,
        /// Kernel parameter words.
        params: Vec<u32>,
    },
    /// The workload is complete; these are its concatenated output words.
    Done(Vec<u32>),
}

/// A workload's explicit, resumable launch schedule.
///
/// `next` is called once per step: host-side work (allocation, upload,
/// readback, pivot selection, centroid updates, …) happens inside it, and
/// it returns either the next kernel launch or the final output. Host
/// steps consume zero application cycles.
///
/// Plans must be deterministic and cloneable: [`LaunchPlan::clone_plan`]
/// must capture the complete plan position and host state, so a cloned
/// plan resumed against a cloned [`Gpu`] continues identically. That pair
/// of clones *is* a [`Checkpoint`].
pub trait LaunchPlan: Send + Sync {
    /// Performs the next host-side step and reports what follows it.
    ///
    /// # Errors
    ///
    /// Plans propagate [`SimError`]s raised by host-visible device reads;
    /// most plans are infallible here and only launches themselves fail.
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError>;

    /// Deep-copies the plan, including its position and host state.
    fn clone_plan(&self) -> Box<dyn LaunchPlan>;

    /// Whether the final [`PlanStep::Done`] vector is *exactly* the
    /// concatenation, in order, of the device words host-read during the
    /// `next` call that returns it — with no host-side transformation —
    /// and whether the plan's step decisions (what to launch, when to
    /// finish) never depend on values read back from the device in that
    /// final call.
    ///
    /// Batched replay uses this contract to classify a scenario whose
    /// divergence is first observed at output collection *without* a
    /// private replay: a divergent word read there differs from the
    /// golden output by the overlay invariant, so the scenario is an SDC
    /// outright; one never read is masked. Plans that post-process reads
    /// into their outputs (or steer on them at the finish) must keep the
    /// conservative default, which forks such scenarios instead.
    fn outputs_verbatim(&self) -> bool {
        false
    }
}

/// A point-in-time capture of a whole execution session.
///
/// Owns a deep clone of the device and of the plan; restoring (or cloning
/// out of) a checkpoint yields execution byte-identical to having never
/// left it. `Checkpoint` is `Send + Sync`, so one golden-run ladder can be
/// shared read-only across injection worker threads.
pub struct Checkpoint {
    gpu: Gpu,
    plan: Box<dyn LaunchPlan>,
    outputs: Option<Vec<u32>>,
}

impl Checkpoint {
    /// The application cycle at which this checkpoint was taken.
    pub fn cycle(&self) -> u64 {
        self.gpu.app_cycle()
    }

    /// The captured device state (clone it to replay from here).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Approximate heap footprint of this checkpoint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.gpu.state_bytes()
    }
}

impl Clone for Checkpoint {
    fn clone(&self) -> Self {
        Checkpoint {
            gpu: self.gpu.clone(),
            plan: self.plan.clone_plan(),
            outputs: self.outputs.clone(),
        }
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("cycle", &self.cycle())
            .field("finished", &self.outputs.is_some())
            .finish()
    }
}

/// Plain counters for a session's snapshot/restore activity.
///
/// The simulator crate stays dependency-free, so these are raw `u64`s
/// rather than registry metrics; `grel-core` bridges them into its
/// telemetry hook after each replay. Costs are attributed to the session
/// that *performed* the work: a [`Session::resume`] counts as one
/// restore on the new session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTelemetry {
    /// Checkpoints captured by [`Session::snapshot`].
    pub snapshots: u64,
    /// Total bytes across all captured checkpoints.
    pub snapshot_bytes: u64,
    /// Wall time spent capturing checkpoints, in nanoseconds.
    pub snapshot_nanos: u64,
    /// Restores performed ([`Session::restore`] + [`Session::resume`]).
    pub restores: u64,
    /// Wall time spent restoring state, in nanoseconds.
    pub restore_nanos: u64,
}

impl SessionTelemetry {
    /// Folds another session's counters into this one.
    pub fn merge(&mut self, other: &SessionTelemetry) {
        self.snapshots += other.snapshots;
        self.snapshot_bytes += other.snapshot_bytes;
        self.snapshot_nanos += other.snapshot_nanos;
        self.restores += other.restores;
        self.restore_nanos += other.restore_nanos;
    }
}

// Compile-time audit of the thread-safety bounds the parallel campaign
// runner relies on. `grel-core` shares one immutable checkpoint ladder
// by reference across its injection workers and hands each worker its
// own device and session, so these bounds are load-bearing: losing one
// (say, by storing an `Rc` inside `Gpu`) must fail the build here, at
// the layer that owns the types, not at some distant spawn site.
const _: () = {
    const fn requires_send_sync<T: Send + Sync>() {}
    const fn requires_send<T: Send>() {}
    // Shared read-only across workers (the ladder rungs).
    requires_send_sync::<Checkpoint>();
    // Plans are cloned out of checkpoints on worker threads.
    requires_send_sync::<Box<dyn LaunchPlan>>();
    // Each worker owns a device and drives sessions over it.
    requires_send_sync::<Gpu>();
    requires_send::<Session<'static>>();
};

/// Result of advancing a session by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// More steps remain.
    Running,
    /// The plan returned its final output; the session is complete.
    Finished,
}

/// Drives a [`LaunchPlan`] against a device one cycle at a time.
///
/// The session borrows the device mutably for its whole life, so the
/// caller keeps ownership (and can inspect the device afterwards, e.g. to
/// read performance counters).
pub struct Session<'g> {
    gpu: &'g mut Gpu,
    plan: Box<dyn LaunchPlan>,
    outputs: Option<Vec<u32>>,
    launch_stats: Vec<LaunchStats>,
    telemetry: SessionTelemetry,
    /// Scenarios whose divergent words were read during a verbatim
    /// plan's final output collection (SDC by construction; see
    /// [`LaunchPlan::outputs_verbatim`]).
    final_divergence: u64,
}

impl<'g> Session<'g> {
    /// Starts a session at the beginning of `plan`.
    pub fn new(gpu: &'g mut Gpu, plan: Box<dyn LaunchPlan>) -> Self {
        Session {
            gpu,
            plan,
            outputs: None,
            launch_stats: Vec::new(),
            telemetry: SessionTelemetry::default(),
            final_divergence: 0,
        }
    }

    /// Resumes a session from a checkpoint, overwriting `gpu` with the
    /// captured device state. Counts as one restore in the new session's
    /// [`SessionTelemetry`].
    pub fn resume(gpu: &'g mut Gpu, ckpt: &Checkpoint) -> Self {
        let started = Instant::now();
        *gpu = ckpt.gpu.clone();
        let plan = ckpt.plan.clone_plan();
        let telemetry = SessionTelemetry {
            restores: 1,
            restore_nanos: started.elapsed().as_nanos() as u64,
            ..SessionTelemetry::default()
        };
        Session {
            gpu,
            plan,
            outputs: ckpt.outputs.clone(),
            launch_stats: Vec::new(),
            telemetry,
            final_divergence: 0,
        }
    }

    /// Snapshot/restore counters accumulated by this session.
    pub fn telemetry(&self) -> &SessionTelemetry {
        &self.telemetry
    }

    /// The device being driven.
    pub fn gpu(&self) -> &Gpu {
        self.gpu
    }

    /// Mutable access to the device (e.g. to arm a fault mid-plan).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        self.gpu
    }

    /// Bounds the replay on the borrowed device: a launch still in
    /// flight when the application clock reaches `limit` raises
    /// [`Due::WatchdogTimeout`](crate::error::Due::WatchdogTimeout),
    /// which campaigns classify as a hang. Control faults and scheduler
    /// corruptions can park a warp forever; without this bound such
    /// replays would never terminate.
    pub fn set_watchdog(&mut self, limit: u64) {
        self.gpu.set_watchdog(limit);
    }

    /// Arms a single fault on the borrowed device (replacing any
    /// pending faults) — the convenience used by replay drivers between
    /// restore and resume.
    pub fn arm_fault(&mut self, site: crate::fault::FaultSite) {
        self.gpu.arm_fault(site);
    }

    /// Scenarios whose divergence was first observed at a verbatim
    /// plan's final output collection: SDCs by construction, needing no
    /// private replay (see [`LaunchPlan::outputs_verbatim`]). Zero until
    /// the session finishes, and always zero for non-verbatim plans
    /// (their output-read divergence forks instead).
    pub fn final_scenario_divergence(&self) -> u64 {
        self.final_divergence
    }

    /// Whether the plan has produced its final output.
    pub fn finished(&self) -> bool {
        self.outputs.is_some()
    }

    /// The final output words, once [`Session::finished`].
    pub fn outputs(&self) -> Option<&[u32]> {
        self.outputs.as_deref()
    }

    /// Per-launch statistics for every launch completed by *this* session
    /// (restores do not clear it; resumed sessions start empty).
    pub fn launch_stats(&self) -> &[LaunchStats] {
        &self.launch_stats
    }

    /// Advances by one step: one application cycle if a launch is in
    /// flight, otherwise one host-side plan step (which consumes zero
    /// cycles). Safe to call after completion (returns `Finished`).
    ///
    /// # Errors
    ///
    /// Propagates launch failures ([`SimError::Due`] under fault
    /// injection, [`SimError::LaunchConfig`] from invalid plans).
    pub fn step<O: SimObserver>(&mut self, obs: &mut O) -> Result<SessionStatus, SimError> {
        if self.outputs.is_some() {
            return Ok(SessionStatus::Finished);
        }
        if self.gpu.launch_in_flight() {
            if let LaunchProgress::Finished(stats) = self.gpu.tick(obs)? {
                self.launch_stats.push(stats);
            }
            return Ok(SessionStatus::Running);
        }
        let step = self.plan.next(self.gpu)?;
        // Route the plan step's host-read divergence: a verbatim plan's
        // finishing reads *are* the outputs (divergence there is an SDC
        // verdict, not a fork); any other host read feeds host logic, so
        // the touched scenarios must leave the shared pass.
        let touched = self.gpu.take_host_touches();
        match step {
            PlanStep::Launch {
                kernel,
                cfg,
                params,
            } => {
                self.gpu.raise_scenario_forks(touched);
                self.gpu.begin_launch(&kernel, cfg, &params, obs)?;
                Ok(SessionStatus::Running)
            }
            PlanStep::Done(out) => {
                if self.plan.outputs_verbatim() {
                    self.final_divergence = touched;
                } else {
                    self.gpu.raise_scenario_forks(touched);
                }
                self.outputs = Some(out);
                Ok(SessionStatus::Finished)
            }
        }
    }

    /// Runs until the plan's target application cycle is reached (state is
    /// then *between* cycles, ready for [`Session::snapshot`]) or the plan
    /// completes, whichever comes first.
    ///
    /// # Errors
    ///
    /// Same as [`Session::step`].
    pub fn run_until_cycle<O: SimObserver>(
        &mut self,
        cycle: u64,
        obs: &mut O,
    ) -> Result<SessionStatus, SimError> {
        while self.outputs.is_none() && self.gpu.app_cycle() < cycle {
            self.step(obs)?;
        }
        Ok(if self.outputs.is_some() {
            SessionStatus::Finished
        } else {
            SessionStatus::Running
        })
    }

    /// Runs the plan to completion and returns the final output words.
    ///
    /// # Errors
    ///
    /// Same as [`Session::step`].
    pub fn run_to_completion<O: SimObserver>(&mut self, obs: &mut O) -> Result<Vec<u32>, SimError> {
        while self.step(obs)? == SessionStatus::Running {}
        Ok(self.outputs.clone().expect("finished session has outputs"))
    }

    /// Captures the complete session state (device + plan position).
    pub fn snapshot(&mut self) -> Checkpoint {
        let started = Instant::now();
        let ckpt = Checkpoint {
            gpu: self.gpu.clone(),
            plan: self.plan.clone_plan(),
            outputs: self.outputs.clone(),
        };
        self.telemetry.snapshots += 1;
        self.telemetry.snapshot_bytes += ckpt.size_bytes() as u64;
        self.telemetry.snapshot_nanos += started.elapsed().as_nanos() as u64;
        ckpt
    }

    /// Rewinds the session (and the borrowed device) to `ckpt`.
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        let started = Instant::now();
        *self.gpu = ckpt.gpu.clone();
        self.plan = ckpt.plan.clone_plan();
        self.outputs = ckpt.outputs.clone();
        self.telemetry.restores += 1;
        self.telemetry.restore_nanos += started.elapsed().as_nanos() as u64;
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("cycle", &self.gpu.app_cycle())
            .field("in_flight", &self.gpu.launch_in_flight())
            .field("finished", &self.outputs.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::observer::NoopObserver;
    use simt_isa::{lower, KernelBuilder, MemSpace};

    /// Two back-to-back iota launches into one buffer, then readback.
    #[derive(Clone)]
    struct TwoLaunchPlan {
        stage: u32,
        buf: Option<crate::gpu::Buffer>,
    }

    impl TwoLaunchPlan {
        fn kernel(gpu: &Gpu) -> LoweredKernel {
            let mut b = KernelBuilder::new("iota", 1);
            let out = b.param(0);
            let gid = b.vreg();
            let addr = b.vreg();
            b.global_tid_x(gid);
            b.word_addr(addr, out, gid);
            b.st(MemSpace::Global, addr, gid);
            lower(&b.build().unwrap(), gpu.arch().caps()).unwrap()
        }
    }

    impl LaunchPlan for TwoLaunchPlan {
        fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
            self.stage += 1;
            match self.stage {
                1 => {
                    self.buf = Some(gpu.alloc_words(64));
                    Ok(PlanStep::Launch {
                        kernel: Self::kernel(gpu),
                        cfg: LaunchConfig::linear(4, 16),
                        params: vec![self.buf.unwrap().addr()],
                    })
                }
                2 => Ok(PlanStep::Launch {
                    kernel: Self::kernel(gpu),
                    cfg: LaunchConfig::linear(4, 16),
                    params: vec![self.buf.unwrap().addr()],
                }),
                _ => Ok(PlanStep::Done(gpu.read_words(self.buf.unwrap(), 64))),
            }
        }

        fn clone_plan(&self) -> Box<dyn LaunchPlan> {
            Box::new(self.clone())
        }
    }

    fn plan() -> Box<dyn LaunchPlan> {
        Box::new(TwoLaunchPlan {
            stage: 0,
            buf: None,
        })
    }

    #[test]
    fn session_matches_monolithic_launches() {
        let arch = ArchConfig::small_test_gpu();

        let mut mono = Gpu::new(arch.clone());
        let buf = mono.alloc_words(64);
        let k = TwoLaunchPlan::kernel(&mono);
        let cfg = LaunchConfig::linear(4, 16);
        mono.launch(&k, cfg, &[buf.addr()]).unwrap();
        mono.launch(&k, cfg, &[buf.addr()]).unwrap();
        let mono_out = mono.read_words(buf, 64);

        let mut gpu = Gpu::new(arch);
        let mut s = Session::new(&mut gpu, plan());
        let out = s.run_to_completion(&mut NoopObserver).unwrap();
        assert_eq!(out, mono_out);
        assert_eq!(s.launch_stats().len(), 2);
        assert_eq!(gpu.app_cycle(), mono.app_cycle(), "cycle-exact equivalence");
        assert_eq!(gpu.launches(), 2);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_kernel() {
        let arch = ArchConfig::small_test_gpu();
        let mut gpu = Gpu::new(arch.clone());
        let mut s = Session::new(&mut gpu, plan());

        // Straight run for the truth.
        let truth = s.run_to_completion(&mut NoopObserver).unwrap();
        let truth_cycles = s.gpu().app_cycle();

        // Run a few cycles in, snapshot, finish, then rewind and finish
        // again: both completions must agree with the truth.
        let mut gpu2 = Gpu::new(arch);
        let mut s2 = Session::new(&mut gpu2, plan());
        s2.run_until_cycle(5, &mut NoopObserver).unwrap();
        let ckpt = s2.snapshot();
        assert_eq!(ckpt.cycle(), 5);
        assert!(ckpt.size_bytes() > 0);
        let first = s2.run_to_completion(&mut NoopObserver).unwrap();
        let first_cycles = s2.gpu().app_cycle();
        s2.restore(&ckpt);
        assert_eq!(s2.gpu().app_cycle(), 5);
        let second = s2.run_to_completion(&mut NoopObserver).unwrap();
        assert_eq!(first, truth);
        assert_eq!(second, truth);
        assert_eq!(first_cycles, truth_cycles);
        assert_eq!(s2.gpu().app_cycle(), truth_cycles);
    }

    #[test]
    fn resume_from_checkpoint_on_fresh_device() {
        let arch = ArchConfig::small_test_gpu();
        let mut gpu = Gpu::new(arch.clone());
        let mut s = Session::new(&mut gpu, plan());
        let truth = s.run_to_completion(&mut NoopObserver).unwrap();

        let mut gpu2 = Gpu::new(arch.clone());
        let mut s2 = Session::new(&mut gpu2, plan());
        s2.run_until_cycle(7, &mut NoopObserver).unwrap();
        let ckpt = s2.snapshot();
        drop(s2);

        let mut gpu3 = Gpu::new(arch);
        let mut s3 = Session::resume(&mut gpu3, &ckpt);
        assert_eq!(s3.gpu().app_cycle(), 7);
        let out = s3.run_to_completion(&mut NoopObserver).unwrap();
        assert_eq!(out, truth);
    }

    #[test]
    fn step_after_finish_is_idempotent() {
        let mut gpu = Gpu::new(ArchConfig::small_test_gpu());
        let mut s = Session::new(&mut gpu, plan());
        s.run_to_completion(&mut NoopObserver).unwrap();
        assert_eq!(s.step(&mut NoopObserver).unwrap(), SessionStatus::Finished);
        assert!(s.finished());
        assert!(s.outputs().is_some());
    }

    #[test]
    fn telemetry_counts_snapshots_and_restores() {
        let mut gpu = Gpu::new(ArchConfig::small_test_gpu());
        let mut s = Session::new(&mut gpu, plan());
        assert_eq!(*s.telemetry(), SessionTelemetry::default());
        s.run_until_cycle(5, &mut NoopObserver).unwrap();
        let ckpt = s.snapshot();
        let after_snap = *s.telemetry();
        assert_eq!(after_snap.snapshots, 1);
        assert_eq!(after_snap.snapshot_bytes, ckpt.size_bytes() as u64);
        assert_eq!(after_snap.restores, 0);
        s.restore(&ckpt);
        assert_eq!(s.telemetry().restores, 1);

        let mut gpu2 = Gpu::new(ArchConfig::small_test_gpu());
        let resumed = Session::resume(&mut gpu2, &ckpt);
        assert_eq!(resumed.telemetry().restores, 1);
        assert_eq!(resumed.telemetry().snapshots, 0);

        let mut merged = after_snap;
        merged.merge(resumed.telemetry());
        assert_eq!(merged.snapshots, 1);
        assert_eq!(merged.restores, 1);
    }

    #[test]
    fn checkpoints_are_shareable_across_threads() {
        let arch = ArchConfig::small_test_gpu();
        let mut gpu = Gpu::new(arch);
        let mut s = Session::new(&mut gpu, plan());
        s.run_until_cycle(3, &mut NoopObserver).unwrap();
        let ckpt = s.snapshot();
        let truth = s.run_to_completion(&mut NoopObserver).unwrap();

        let outs: Vec<Vec<u32>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let ckpt = &ckpt;
                    scope.spawn(move || {
                        let mut g = Gpu::new(ArchConfig::small_test_gpu());
                        let mut s = Session::resume(&mut g, ckpt);
                        s.run_to_completion(&mut NoopObserver).unwrap()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for o in outs {
            assert_eq!(o, truth);
        }
    }
}
