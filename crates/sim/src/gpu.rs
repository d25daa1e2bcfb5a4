//! The GPU device: global memory, SMs, block dispatcher, launch loop,
//! watchdog and fault arming.

use crate::config::ArchConfig;
use crate::error::{Due, SimError};
use crate::fault::{FaultKind, FaultSite, Structure};
use crate::launch::{LaunchConfig, LaunchStats};
use crate::mem::{GlobalMemory, MemorySystem};
use crate::observer::{NoopObserver, SimObserver};
use crate::overlay::BatchPlane;
use crate::pages::Pages;
use crate::regfile::StuckBit;
use crate::sm::{Ctx, Sm};
use simt_isa::LoweredKernel;

/// A device-memory allocation handle.
///
/// # Example
/// ```
/// use simt_sim::{ArchConfig, Gpu};
/// let mut gpu = Gpu::new(ArchConfig::small_test_gpu());
/// let b = gpu.alloc_words(8);
/// assert_eq!(b.words(), 8);
/// assert!(b.addr() >= 256, "null guard reserved");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer {
    addr: u32,
    words: u32,
}

impl Buffer {
    /// Device byte address of the buffer (pass as a kernel parameter).
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// Size in 32-bit words.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Device byte address of word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of the buffer.
    pub fn word_addr(&self, i: u32) -> u32 {
        assert!(
            i < self.words,
            "word {i} out of buffer of {} words",
            self.words
        );
        self.addr + i * 4
    }
}

/// State of a launch that has begun but not yet completed.
///
/// Kept on the [`Gpu`] itself so that cloning the device mid-kernel (the
/// session snapshot path) captures everything needed to resume the launch
/// loop cycle-exactly.
#[derive(Debug, Clone)]
struct InFlight {
    kernel: LoweredKernel,
    cfg: LaunchConfig,
    params: Vec<u32>,
    next_block: u32,
    total_blocks: u32,
    start_cycle: u64,
    stats0: (u64, u64, u64, u64),
    mem_trans0: u64,
}

/// Per-cycle progress of an in-flight launch (see [`Gpu::tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchProgress {
    /// The launch consumed one cycle and is still executing.
    Running,
    /// The launch completed this call; its statistics are final.
    Finished(LaunchStats),
}

/// A simulated GPU device.
///
/// Owns the global-memory arena, the SM array with their physical register
/// files and LDS, the memory timing model, and the *application clock*: a
/// cycle counter that increases monotonically across launches so that a
/// fault site drawn over a whole multi-kernel workload lands in exactly
/// one launch.
///
/// See the crate-level docs for a complete example.
#[derive(Debug, Clone)]
pub struct Gpu {
    arch: ArchConfig,
    mem: GlobalMemory,
    mem_sys: MemorySystem,
    sms: Vec<Sm>,
    app_cycle: u64,
    armed_faults: Vec<FaultSite>,
    /// The bit-plane batch; without sites outside a batched replay pass.
    plane: BatchPlane,
    watchdog_limit: Option<u64>,
    launches: u32,
    in_flight: Option<InFlight>,
}

impl Gpu {
    /// Creates an idle device.
    pub fn new(arch: ArchConfig) -> Self {
        let mem_sys = MemorySystem::new(
            arch.num_sms,
            arch.l1,
            arch.l2,
            arch.lat,
            arch.coalesce_bytes,
        );
        let sms = (0..arch.num_sms).map(|i| Sm::new(i, &arch)).collect();
        Gpu {
            arch,
            mem: GlobalMemory::new(),
            mem_sys,
            sms,
            app_cycle: 0,
            armed_faults: Vec::new(),
            plane: BatchPlane::default(),
            watchdog_limit: None,
            launches: 0,
            in_flight: None,
        }
    }

    /// The architecture this device models.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The application clock: total device cycles consumed by all launches
    /// so far.
    pub fn app_cycle(&self) -> u64 {
        self.app_cycle
    }

    /// Number of completed launches.
    pub fn launches(&self) -> u32 {
        self.launches
    }

    /// Aggregate L1 hit/miss counters over all SMs (all launches).
    pub fn l1_stats(&self) -> crate::cache::CacheStats {
        self.mem_sys.l1_stats()
    }

    /// L2 hit/miss counters, if the device has an L2.
    pub fn l2_stats(&self) -> Option<crate::cache::CacheStats> {
        self.mem_sys.l2_stats()
    }

    /// Total coalesced memory transactions issued (all launches).
    pub fn mem_transactions(&self) -> u64 {
        self.mem_sys.transactions
    }

    /// Per-SM execution counters (all launches), for load-imbalance
    /// analysis.
    pub fn per_sm_stats(&self) -> Vec<crate::sm::SmStats> {
        self.sms.iter().map(|sm| sm.stats).collect()
    }

    /// Storage pages copied on a first write (see
    /// [`Pages::page_copies`]): zero pages, and pages shared with a
    /// checkpoint. Summed over every SM and global memory, and carried
    /// through clones like [`Gpu::exec_totals`].
    pub fn page_copies(&self) -> u64 {
        self.sms.iter().map(Sm::page_copies).sum::<u64>() + self.mem.words().page_copies()
    }

    /// Freezes every storage page of the device, the RF, SRF and LDS
    /// of each SM and global memory (see [`Pages::freeze`]). No word
    /// changes; a clone taken next shares every page with the device,
    /// which copies a page again only on its next write to it.
    pub(crate) fn freeze(&mut self) {
        self.sms.iter_mut().for_each(Sm::freeze);
        self.mem.freeze();
    }

    /// The physical words of SM `sm`'s storage structure (empty when the
    /// device lacks the structure).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is not an SM of the device.
    pub fn storage(&self, sm: u32, structure: Structure) -> &Pages {
        self.sms[sm as usize].storage(structure)
    }

    /// The global-memory words, from address 0 to the heap top.
    pub fn global_words(&self) -> &Pages {
        self.mem.words()
    }

    /// Cumulative execution counters summed over all SMs (all launches).
    pub fn exec_totals(&self) -> crate::sm::SmStats {
        let mut t = crate::sm::SmStats::default();
        for sm in &self.sms {
            t.warp_instructions += sm.stats.warp_instructions;
            t.scalar_instructions += sm.stats.scalar_instructions;
            t.thread_instructions += sm.stats.thread_instructions;
            t.blocks_retired += sm.stats.blocks_retired;
            t.busy_cycles += sm.stats.busy_cycles;
        }
        t
    }

    // ---- memory API ----

    /// Allocates `n` words of device memory.
    pub fn alloc_words(&mut self, n: u32) -> Buffer {
        Buffer {
            addr: self.mem.alloc_words(n),
            words: n,
        }
    }

    /// Copies words to the device.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the buffer.
    pub fn write_words(&mut self, buf: Buffer, data: &[u32]) {
        assert!(data.len() as u32 <= buf.words, "write exceeds buffer");
        for (i, &w) in data.iter().enumerate() {
            self.mem
                .write_word(buf.addr + i as u32 * 4, w)
                .expect("buffer-bounded host write cannot fault");
        }
    }

    /// Copies `f32` values to the device (bit-pattern preserving).
    pub fn write_floats(&mut self, buf: Buffer, data: &[f32]) {
        assert!(data.len() as u32 <= buf.words, "write exceeds buffer");
        for (i, &v) in data.iter().enumerate() {
            self.mem
                .write_word(buf.addr + i as u32 * 4, v.to_bits())
                .expect("buffer-bounded host write cannot fault");
        }
    }

    /// Reads `n` words back from the device.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the buffer.
    pub fn read_words(&self, buf: Buffer, n: u32) -> Vec<u32> {
        assert!(n <= buf.words, "read exceeds buffer");
        (0..n)
            .map(|i| {
                self.mem
                    .read_word(buf.addr + i * 4)
                    .expect("buffer-bounded host read cannot fault")
            })
            .collect()
    }

    /// Reads `n` `f32` values back from the device.
    pub fn read_floats(&self, buf: Buffer, n: u32) -> Vec<f32> {
        self.read_words(buf, n)
            .into_iter()
            .map(f32::from_bits)
            .collect()
    }

    // ---- reliability API ----

    /// Arms a single-bit fault to be injected when the application clock
    /// reaches `site.cycle`. Replaces any previously armed faults.
    pub fn arm_fault(&mut self, site: FaultSite) {
        self.armed_faults = vec![site];
    }

    /// Arms several faults at once (multi-bit-upset studies). Each fires
    /// at its own cycle; all previously armed faults are replaced.
    pub fn arm_faults(&mut self, sites: &[FaultSite]) {
        self.armed_faults = sites.to_vec();
    }

    // ---- bit-plane batched replay ----

    /// Arms a batched bit-plane over `sites`: each site becomes a
    /// *scenario* whose flip is asserted into the overlay shards (not
    /// the physical storage) when the application clock reaches its
    /// cycle. The device then executes pure golden state; scenario
    /// divergence is carried lazily until a fork trigger.
    ///
    /// # Panics
    ///
    /// Same as [`BatchPlane::new`] (1..=64 transient sites).
    pub fn arm_scenarios(&mut self, sites: &[FaultSite]) {
        self.plane = BatchPlane::new(sites.to_vec());
    }

    /// Drains the plane's pending-fork mask, which every fork trigger
    /// sets. Returns the *newly* forked scenarios and sweeps their dead
    /// overlay cells from every shard.
    pub fn take_scenario_forks(&mut self) -> u64 {
        let new = self.plane.take_forks();
        if new != 0 {
            for sm in &mut self.sms {
                if let Some(ov) = sm.overlay.as_deref_mut() {
                    ov.maps_mut().iter_mut().for_each(|m| m.drop_scenarios(new));
                }
            }
            if let Some(ov) = self.mem.overlay.as_deref_mut() {
                ov.map.drop_scenarios(new);
            }
        }
        new
    }

    /// Drains the scenarios whose divergent global-memory words were
    /// read by the host since the last drain (see
    /// [`GlobalOverlay::take_host_touches`](crate::overlay::GlobalOverlay::take_host_touches)).
    pub(crate) fn take_host_touches(&mut self) -> u64 {
        self.mem
            .overlay
            .as_deref_mut()
            .map_or(0, |ov| ov.take_host_touches())
    }

    /// Requests forks for the scenarios in `mask`; they surface at the
    /// next [`Gpu::take_scenario_forks`] drain.
    pub(crate) fn raise_scenario_forks(&mut self, mask: u64) {
        self.plane.pending_forks |= mask;
    }

    /// Collapses the device onto scenario `s`'s faulty state: its
    /// overlay values become physical storage, the plane and all shards
    /// are dropped, and the private replay continues on real state.
    pub fn materialize_scenario(&mut self, s: usize) {
        for sm in &mut self.sms {
            sm.materialize_scenario(s as u8);
        }
        self.mem.materialize_scenario(s as u8);
        self.plane = BatchPlane::default();
    }

    /// Drops the batch plane and every overlay shard without touching
    /// physical state (the shared-pass fallback path).
    pub fn clear_scenarios(&mut self) {
        for sm in &mut self.sms {
            sm.overlay = None;
        }
        self.mem.overlay = None;
        self.plane = BatchPlane::default();
    }

    /// Asserts overlay flips for scenarios whose injection cycle is now.
    fn arm_due_scenarios(&mut self) {
        let plane = &mut self.plane;
        let n = self.sms.len().max(1);
        for (i, site) in plane.sites.iter().enumerate() {
            let bit = 1u64 << i;
            if plane.armed & bit != 0 || plane.forked & bit != 0 || site.cycle != self.app_cycle {
                continue;
            }
            plane.armed |= bit;
            let sm = &mut self.sms[site.sm as usize % n];
            // An out-of-range word cannot affect execution: the scenario
            // never diverges — same no-op as `Sm::flip_bit`.
            if let Some(cur) = sm.storage(site.structure).get_checked(site.word as usize) {
                sm.overlay
                    .get_or_insert_with(Default::default)
                    .map_mut(site.structure)
                    .assert_value(site.word, i as u8, cur ^ (1 << site.bit));
            }
        }
    }

    /// Sets the application-cycle budget; exceeding it ends the current
    /// launch with [`Due::WatchdogTimeout`].
    pub fn set_watchdog(&mut self, total_app_cycles: u64) {
        self.watchdog_limit = Some(total_app_cycles);
    }

    fn apply_fault<O: SimObserver>(&mut self, site: FaultSite, obs: &mut O) {
        let idx = site.sm as usize % self.sms.len().max(1);
        let sm = &mut self.sms[idx];
        match site.kind {
            FaultKind::TransientFlip => sm.flip_bit(site.structure, site.word, site.bit),
            FaultKind::StuckAt0 | FaultKind::StuckAt1 => {
                sm.arm_stuck(StuckBit {
                    structure: site.structure,
                    word: site.word,
                    bit: site.bit,
                    stuck_value: site.kind == FaultKind::StuckAt1,
                });
            }
            FaultKind::Control(target) => {
                let cycle = self.app_cycle;
                if sm.apply_control_fault(target, site.word, site.bit) {
                    obs.on_control_corrupt(site, cycle);
                }
            }
        }
        obs.on_fault_injected(site);
    }

    // ---- launch ----

    /// Launches a kernel with the no-op observer.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] when the block does not fit the device;
    /// [`SimError::Due`] when execution raises a detected unrecoverable
    /// error (bad access, divergent barrier, watchdog).
    pub fn launch(
        &mut self,
        kernel: &LoweredKernel,
        cfg: LaunchConfig,
        params: &[u32],
    ) -> Result<LaunchStats, SimError> {
        self.launch_observed(kernel, cfg, params, &mut NoopObserver)
    }

    /// Launches a kernel, streaming events into `obs`.
    ///
    /// Equivalent to [`Gpu::begin_launch`] followed by [`Gpu::tick`] until
    /// completion; cycle counts and observer event streams are identical
    /// between the two drive styles.
    ///
    /// # Errors
    ///
    /// Same as [`Gpu::launch`].
    pub fn launch_observed<O: SimObserver>(
        &mut self,
        kernel: &LoweredKernel,
        cfg: LaunchConfig,
        params: &[u32],
        obs: &mut O,
    ) -> Result<LaunchStats, SimError> {
        self.begin_launch(kernel, cfg, params, obs)?;
        loop {
            if let LaunchProgress::Finished(stats) = self.tick(obs)? {
                return Ok(stats);
            }
        }
    }

    /// Starts a launch without running any cycles: validates the
    /// configuration, resets per-launch storage, dispatches the first wave
    /// of blocks and records the in-flight state on the device so
    /// [`Gpu::tick`] (and device clones) can carry it forward.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] when the block does not fit the device;
    /// never a [`Due`] (execution has not started yet).
    pub fn begin_launch<O: SimObserver>(
        &mut self,
        kernel: &LoweredKernel,
        cfg: LaunchConfig,
        params: &[u32],
        obs: &mut O,
    ) -> Result<(), SimError> {
        assert!(self.in_flight.is_none(), "launch already in flight");
        self.validate_launch(kernel, cfg, params)?;
        let start_cycle = self.app_cycle;
        obs.on_launch_begin(kernel.name(), start_cycle);

        // Fresh storage state per launch: deterministic contents, empty
        // caches, no residual residency.
        for sm in &mut self.sms {
            sm.reset();
        }
        self.mem_sys.flush();

        let total_blocks = cfg.grid.count();
        let mut next_block = 0u32;
        self.fill_sms(kernel, cfg, params, &mut next_block, total_blocks, obs);

        self.in_flight = Some(InFlight {
            kernel: kernel.clone(),
            cfg,
            params: params.to_vec(),
            next_block,
            total_blocks,
            start_cycle,
            stats0: self.counters(),
            mem_trans0: self.mem_sys.transactions,
        });
        Ok(())
    }

    /// Whether a launch begun with [`Gpu::begin_launch`] is still running.
    pub fn launch_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Advances the in-flight launch by exactly one application cycle
    /// (completion check, watchdog, fault application, SM stepping, block
    /// refill — in the same order as the monolithic launch loop).
    ///
    /// # Errors
    ///
    /// [`SimError::Due`] ends the launch exactly as [`Gpu::launch`] would;
    /// the in-flight state is cleared either way.
    ///
    /// # Panics
    ///
    /// Panics if no launch is in flight.
    pub fn tick<O: SimObserver>(&mut self, obs: &mut O) -> Result<LaunchProgress, SimError> {
        let mut fl = self.in_flight.take().expect("no launch in flight");

        if self.sms.iter().all(|sm| !sm.busy()) && fl.next_block >= fl.total_blocks {
            obs.on_launch_end(self.app_cycle);
            self.launches += 1;
            let stats1 = self.counters();
            return Ok(LaunchProgress::Finished(LaunchStats {
                cycles: self.app_cycle - fl.start_cycle,
                warp_instructions: stats1.0 - fl.stats0.0,
                scalar_instructions: stats1.1 - fl.stats0.1,
                thread_instructions: stats1.2 - fl.stats0.2,
                mem_transactions: self.mem_sys.transactions - fl.mem_trans0,
                blocks: (stats1.3 - fl.stats0.3) as u32,
                start_cycle: fl.start_cycle,
            }));
        }
        if let Some(limit) = self.watchdog_limit {
            if self.app_cycle >= limit {
                let parked: u32 = self.sms.iter().map(Sm::parked_warps).sum();
                obs.on_hang(self.app_cycle, parked);
                obs.on_launch_end(self.app_cycle);
                return Err(SimError::Due(Due::WatchdogTimeout { limit }));
            }
        }
        if !self.armed_faults.is_empty() {
            let due_now: Vec<FaultSite> = self
                .armed_faults
                .iter()
                .copied()
                .filter(|s| s.cycle == self.app_cycle)
                .collect();
            if !due_now.is_empty() {
                self.armed_faults.retain(|s| s.cycle != self.app_cycle);
                for site in due_now {
                    self.apply_fault(site, obs);
                }
            }
        }
        if !self.plane.sites.is_empty() {
            self.arm_due_scenarios();
        }
        let mut cx = Ctx {
            cycle: self.app_cycle,
            arch: &self.arch,
            cfg: fl.cfg,
            mem: &mut self.mem,
            mem_sys: &mut self.mem_sys,
            obs: &mut *obs,
            forks: &mut self.plane.pending_forks,
        };
        for sm in &mut self.sms {
            if let Err(d) = sm.step(&fl.kernel, &mut cx) {
                cx.obs.on_launch_end(cx.cycle);
                return Err(SimError::Due(d));
            }
        }
        if self.sms.iter().any(|sm| sm.retired_flag) {
            for sm in &mut self.sms {
                sm.retired_flag = false;
            }
            let (kernel, cfg, params) = (&fl.kernel, fl.cfg, &fl.params);
            let mut next_block = fl.next_block;
            self.fill_sms(kernel, cfg, params, &mut next_block, fl.total_blocks, obs);
            fl.next_block = next_block;
        }
        self.app_cycle += 1;
        self.in_flight = Some(fl);
        Ok(LaunchProgress::Running)
    }

    /// Rough size in bytes of the device state a clone captures; used by
    /// checkpoint memory budgeting.
    pub fn state_bytes(&self) -> usize {
        let per_sm = (self.arch.rf_words_per_sm()
            + self.arch.srf_words_per_sm()
            + self.arch.lds_words_per_sm()) as usize
            * 4;
        let sms = self.sms.len() * (per_sm + 4096);
        let mem = self.mem.heap_top() as usize;
        mem + sms + 4096
    }

    fn counters(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for sm in &self.sms {
            t.0 += sm.stats.warp_instructions;
            t.1 += sm.stats.scalar_instructions;
            t.2 += sm.stats.thread_instructions;
            t.3 += sm.stats.blocks_retired;
        }
        t
    }

    fn fill_sms<O: SimObserver>(
        &mut self,
        kernel: &LoweredKernel,
        cfg: LaunchConfig,
        params: &[u32],
        next_block: &mut u32,
        total_blocks: u32,
        obs: &mut O,
    ) {
        let mut cx = Ctx {
            cycle: self.app_cycle,
            arch: &self.arch,
            cfg,
            mem: &mut self.mem,
            mem_sys: &mut self.mem_sys,
            obs,
            forks: &mut self.plane.pending_forks,
        };
        // Round-robin across SMs, stopping when a full round places nothing.
        'outer: while *next_block < total_blocks {
            let mut placed = false;
            for sm in &mut self.sms {
                if *next_block >= total_blocks {
                    break 'outer;
                }
                let bid = *next_block;
                let ctaid = (bid % cfg.grid.x, bid / cfg.grid.x);
                if sm.try_dispatch(kernel, ctaid, params, &mut cx) {
                    *next_block += 1;
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }
    }

    fn validate_launch(
        &self,
        kernel: &LoweredKernel,
        cfg: LaunchConfig,
        params: &[u32],
    ) -> Result<(), SimError> {
        if params.len() != kernel.num_params() as usize {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "kernel {} expects {} params, got {}",
                    kernel.name(),
                    kernel.num_params(),
                    params.len()
                ),
            });
        }
        if kernel.caps() != self.arch.caps() {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "kernel {} lowered for caps {:?}, device has {:?}",
                    kernel.name(),
                    kernel.caps(),
                    self.arch.caps()
                ),
            });
        }
        if cfg.grid.count() == 0 || cfg.block.count() == 0 {
            return Err(SimError::LaunchConfig {
                reason: "empty grid or block".into(),
            });
        }
        let warps = cfg.warps_per_block(self.arch.warp_size);
        if warps > self.arch.max_warps_per_sm {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "block needs {warps} warps, SM has {} slots",
                    self.arch.max_warps_per_sm
                ),
            });
        }
        let rf_need = warps * self.arch.warp_size * kernel.vregs_per_thread() as u32;
        if rf_need > self.arch.rf_words_per_sm() {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "block needs {rf_need} RF words, SM has {}",
                    self.arch.rf_words_per_sm()
                ),
            });
        }
        let srf_need = warps * kernel.sregs_per_warp() as u32;
        if srf_need > self.arch.srf_words_per_sm() {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "block needs {srf_need} scalar RF words, SM has {}",
                    self.arch.srf_words_per_sm()
                ),
            });
        }
        let lds_need = kernel.shared_bytes();
        if lds_need > self.arch.lds_bytes_per_sm {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "kernel needs {lds_need} LDS bytes, SM has {}",
                    self.arch.lds_bytes_per_sm
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Structure;
    use simt_isa::{lower, KernelBuilder, MemSpace};

    fn arch() -> ArchConfig {
        ArchConfig::small_test_gpu()
    }

    fn iota_kernel(a: &ArchConfig) -> LoweredKernel {
        let mut b = KernelBuilder::new("iota", 1);
        let out = b.param(0);
        let gid = b.vreg();
        let addr = b.vreg();
        b.global_tid_x(gid);
        b.word_addr(addr, out, gid);
        b.st(MemSpace::Global, addr, gid);
        lower(&b.build().unwrap(), a.caps()).unwrap()
    }

    #[test]
    fn buffer_api() {
        let mut gpu = Gpu::new(arch());
        let b = gpu.alloc_words(4);
        gpu.write_words(b, &[1, 2, 3, 4]);
        assert_eq!(gpu.read_words(b, 4), vec![1, 2, 3, 4]);
        assert_eq!(b.word_addr(2), b.addr() + 8);
        gpu.write_floats(b, &[1.5]);
        assert_eq!(gpu.read_floats(b, 1), vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "out of buffer")]
    fn buffer_word_addr_bounds() {
        let mut gpu = Gpu::new(arch());
        let b = gpu.alloc_words(2);
        let _ = b.word_addr(2);
    }

    #[test]
    fn iota_runs_on_multiple_blocks() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        let buf = gpu.alloc_words(64);
        let stats = gpu
            .launch(&k, LaunchConfig::linear(8, 8), &[buf.addr()])
            .unwrap();
        assert_eq!(gpu.read_words(buf, 64), (0..64).collect::<Vec<_>>());
        assert_eq!(stats.blocks, 8);
        assert!(stats.cycles > 0);
        assert!(stats.warp_instructions >= 8 * 3);
        assert_eq!(gpu.launches(), 1);
        assert_eq!(gpu.app_cycle(), stats.cycles);
    }

    #[test]
    fn app_cycle_accumulates_across_launches() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        let buf = gpu.alloc_words(16);
        let s1 = gpu
            .launch(&k, LaunchConfig::linear(2, 8), &[buf.addr()])
            .unwrap();
        let s2 = gpu
            .launch(&k, LaunchConfig::linear(2, 8), &[buf.addr()])
            .unwrap();
        assert_eq!(s2.start_cycle, s1.cycles);
        assert_eq!(gpu.app_cycle(), s1.cycles + s2.cycles);
        assert_eq!(
            s1.cycles, s2.cycles,
            "identical launches take identical time"
        );
    }

    #[test]
    fn param_count_mismatch_rejected() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        let err = gpu.launch(&k, LaunchConfig::linear(1, 8), &[]).unwrap_err();
        assert!(matches!(err, SimError::LaunchConfig { .. }));
    }

    #[test]
    fn wrong_caps_rejected() {
        let a = arch();
        let mut b = KernelBuilder::new("k", 0);
        b.exit();
        let k = lower(
            &b.build().unwrap(),
            ArchConfig::small_test_gpu_scalar().caps(),
        )
        .unwrap();
        let mut gpu = Gpu::new(a);
        assert!(matches!(
            gpu.launch(&k, LaunchConfig::linear(1, 8), &[]),
            Err(SimError::LaunchConfig { .. })
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        let buf = gpu.alloc_words(4);
        // 17 warps of 8 > 16 slots.
        assert!(matches!(
            gpu.launch(&k, LaunchConfig::linear(1, 17 * 8), &[buf.addr()]),
            Err(SimError::LaunchConfig { .. })
        ));
    }

    #[test]
    fn watchdog_fires() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        let buf = gpu.alloc_words(1024);
        gpu.set_watchdog(3);
        let err = gpu
            .launch(&k, LaunchConfig::linear(64, 8), &[buf.addr()])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Due(Due::WatchdogTimeout { limit: 3 })
        ));
    }

    #[test]
    fn oob_store_is_due() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        // 4 words requested; 256-byte alignment pads the heap to 64 words,
        // so use 128 threads to overrun the allocation for real.
        let buf = gpu.alloc_words(4);
        let err = gpu
            .launch(&k, LaunchConfig::linear(16, 8), &[buf.addr()])
            .unwrap_err();
        assert!(matches!(err, SimError::Due(Due::GlobalOutOfBounds { .. })));
    }

    #[test]
    fn fault_flip_in_free_space_is_masked() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a.clone());
        let buf = gpu.alloc_words(16);
        let golden = {
            let mut g = Gpu::new(a);
            let gb = g.alloc_words(16);
            g.launch(&k, LaunchConfig::linear(2, 8), &[gb.addr()])
                .unwrap();
            g.read_words(gb, 16)
        };
        gpu.arm_fault(FaultSite::new(
            Structure::VectorRegisterFile,
            1,
            gpu.arch.rf_words_per_sm() - 1,
            31,
            1,
        ));
        gpu.launch(&k, LaunchConfig::linear(2, 8), &[buf.addr()])
            .unwrap();
        assert_eq!(
            gpu.read_words(buf, 16),
            golden,
            "flip in unused word is masked"
        );
    }

    #[test]
    fn stuck_fault_in_free_space_is_masked_but_armed() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a.clone());
        let buf = gpu.alloc_words(16);
        let golden = {
            let mut g = Gpu::new(a);
            let gb = g.alloc_words(16);
            g.launch(&k, LaunchConfig::linear(2, 8), &[gb.addr()])
                .unwrap();
            g.read_words(gb, 16)
        };
        let site = FaultSite::new(
            Structure::VectorRegisterFile,
            1,
            gpu.arch.rf_words_per_sm() - 1,
            31,
            1,
        )
        .with_kind(FaultKind::StuckAt1);
        gpu.arm_fault(site);
        let mut obs = crate::observer::CountingObserver::default();
        gpu.launch_observed(&k, LaunchConfig::linear(2, 8), &[buf.addr()], &mut obs)
            .unwrap();
        assert_eq!(gpu.read_words(buf, 16), golden, "stuck bit in unused word");
        assert_eq!(obs.faults, 1);
        // The permanent fault stays armed on the SM for later launches.
        let sm1 = &gpu.sms[1];
        assert_eq!(sm1.stuck.len(), 1);
        assert!(sm1.stuck[0].stuck_value);
    }

    #[test]
    fn control_fault_on_scheduler_hangs_the_launch() {
        let a = arch();
        let k = iota_kernel(&a);
        let mut gpu = Gpu::new(a);
        let buf = gpu.alloc_words(64);
        gpu.set_watchdog(10_000);
        // Push warp slot 0's next_issue far beyond the watchdog bound.
        let site = FaultSite::new(Structure::VectorRegisterFile, 0, 0, 31, 1).with_kind(
            FaultKind::Control(crate::fault::ControlTarget::SchedulerSlot),
        );
        gpu.arm_fault(site);
        let mut obs = crate::observer::CountingObserver::default();
        let err = gpu
            .launch_observed(&k, LaunchConfig::linear(8, 8), &[buf.addr()], &mut obs)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Due(Due::WatchdogTimeout { limit: 10_000 })
        ));
        assert_eq!(obs.control_corrupts, 1, "live slot was corrupted");
        assert_eq!(obs.hangs, 1, "watchdog reported the hang");
    }
}
