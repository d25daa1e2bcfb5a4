//! The streaming multiprocessor (compute unit): block residency, warp
//! scheduling and instruction execution.

use crate::config::{ArchConfig, SchedulerPolicy};
use crate::error::Due;
use crate::fault::{ControlTarget, Structure};
use crate::launch::LaunchConfig;
use crate::mem::{GlobalMemory, MemorySystem, MAX_LANES};
use crate::observer::{BlockRegions, SimObserver};
use crate::regfile::{RegionAllocator, SmOverlay, StuckBit};
use crate::warp::{LaneMask, Warp};
use simt_isa::op::{eval_atom, eval_binop, eval_cmp, eval_terop, eval_unop};
use simt_isa::{Instr, LoweredKernel, MemSpace, Operand, Reg, SReg, Special, VReg};

/// A block resident on an SM.
#[derive(Debug, Clone)]
pub struct ResidentBlock {
    /// Block coordinates.
    pub ctaid: (u32, u32),
    /// Vector-RF region (words).
    pub rf_base: u32,
    /// Vector-RF region length (words).
    pub rf_len: u32,
    /// Scalar-RF region (words).
    pub srf_base: u32,
    /// Scalar-RF region length (words).
    pub srf_len: u32,
    /// LDS region (words).
    pub lds_base: u32,
    /// LDS region length (words).
    pub lds_len: u32,
    /// Warp slots owned by this block.
    pub warp_slots: Vec<usize>,
    /// Warps that have not finished.
    pub running_warps: u32,
    /// Warps currently parked at the barrier.
    pub at_barrier: u32,
}

/// Per-SM execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Vector (warp-level) instructions issued.
    pub warp_instructions: u64,
    /// Scalar instructions issued.
    pub scalar_instructions: u64,
    /// Thread-level instructions (sum of active lanes).
    pub thread_instructions: u64,
    /// Blocks retired.
    pub blocks_retired: u64,
    /// Cycles in which this SM issued at least one instruction.
    pub busy_cycles: u64,
}

/// One streaming multiprocessor with its physical storage structures.
#[derive(Debug, Clone)]
pub struct Sm {
    /// SM index within the device.
    pub id: u32,
    pub(crate) rf: Vec<u32>,
    pub(crate) srf: Vec<u32>,
    pub(crate) lds: Vec<u32>,
    rf_alloc: RegionAllocator,
    srf_alloc: RegionAllocator,
    lds_alloc: RegionAllocator,
    warps: Vec<Option<Warp>>,
    blocks: Vec<Option<ResidentBlock>>,
    /// Armed permanent stuck-at cells, re-asserted by the store
    /// intercepts on every write (empty in fault-free runs).
    stuck: Vec<StuckBit>,
    /// Batched-replay overlay shard; `None` outside a batched pass.
    pub(crate) overlay: Option<Box<SmOverlay>>,
    sched_ptr: usize,
    gto_current: Option<usize>,
    /// Earliest cycle at which any warp can issue, stored by a [`Sm::step`]
    /// that issued nothing; `step` returns at once before it. Only an
    /// issue, a dispatch, a reset or a control fault changes issuability,
    /// and all but the issue reset it to 0.
    wake: u64,
    /// Set when a block retired since the device last redistributed work.
    pub retired_flag: bool,
    /// Execution counters.
    pub stats: SmStats,
}

/// How an operand is resolved for a warp-wide execution.
enum Resolved {
    /// Same value for every lane (immediates, uniform specials).
    Uniform(u32),
    /// A scalar register, kept with its physical word so the batched
    /// replay can look up per-scenario divergence.
    Sreg {
        /// Physical SRF word.
        phys: u32,
        /// Golden value.
        value: u32,
    },
    /// A per-lane vector register.
    VReg(u16),
    /// A per-lane special value.
    Special(Special),
}

/// Golden value of an operand validated to be warp-uniform.
fn uniform_value(r: &Resolved) -> u32 {
    match *r {
        Resolved::Uniform(v) | Resolved::Sreg { value: v, .. } => v,
        _ => unreachable!("validated scalar sources are uniform"),
    }
}

/// Iterates the set bit indices of a mask, lowest first.
fn set_bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// Iterates the set scenario indices of a batch mask.
fn scn_bits(mask: u64) -> impl Iterator<Item = u8> {
    set_bits(mask).map(|s| s as u8)
}

impl Sm {
    /// Creates an idle SM with the architecture's storage sizes.
    pub fn new(id: u32, arch: &ArchConfig) -> Self {
        Sm {
            id,
            rf: vec![0; arch.rf_words_per_sm() as usize],
            srf: vec![0; arch.srf_words_per_sm() as usize],
            lds: vec![0; arch.lds_words_per_sm() as usize],
            rf_alloc: RegionAllocator::new(arch.rf_words_per_sm()),
            srf_alloc: RegionAllocator::new(arch.srf_words_per_sm()),
            lds_alloc: RegionAllocator::new(arch.lds_words_per_sm()),
            warps: (0..arch.max_warps_per_sm).map(|_| None).collect(),
            blocks: (0..arch.max_blocks_per_sm).map(|_| None).collect(),
            stuck: Vec::new(),
            overlay: None,
            sched_ptr: 0,
            gto_current: None,
            wake: 0,
            retired_flag: false,
            stats: SmStats::default(),
        }
    }

    /// Clears all storage and residency state (start of a launch).
    ///
    /// Armed stuck-at cells survive the reset (they are permanent
    /// faults) and re-assert on the zeroed storage.
    pub fn reset(&mut self) {
        self.rf.fill(0);
        self.srf.fill(0);
        self.lds.fill(0);
        for i in 0..self.stuck.len() {
            let s = self.stuck[i];
            self.force_stuck_now(s);
        }
        // The storage reset zeroes golden and faulty state alike, so all
        // batched-scenario divergence dies with it (pending forks
        // survive until the driver drains them).
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.clear_cells();
        }
        self.rf_alloc.reset();
        self.srf_alloc.reset();
        self.lds_alloc.reset();
        for w in &mut self.warps {
            *w = None;
        }
        for b in &mut self.blocks {
            *b = None;
        }
        self.sched_ptr = 0;
        self.gto_current = None;
        self.wake = 0;
        self.retired_flag = false;
    }

    /// Whether any block is resident.
    pub fn busy(&self) -> bool {
        self.blocks.iter().any(Option::is_some)
    }

    /// Vector-RF words currently allocated (occupancy numerator).
    pub fn rf_allocated(&self) -> u32 {
        self.rf_alloc.allocated()
    }

    /// LDS words currently allocated.
    pub fn lds_allocated(&self) -> u32 {
        self.lds_alloc.allocated()
    }

    /// Scalar-RF words currently allocated.
    pub fn srf_allocated(&self) -> u32 {
        self.srf_alloc.allocated()
    }

    /// Flips one bit of the vector register file.
    pub fn flip_rf_bit(&mut self, word: u32, bit: u8) {
        if let Some(w) = self.rf.get_mut(word as usize) {
            *w ^= 1 << bit;
        }
    }

    /// Flips one bit of the scalar register file.
    pub fn flip_srf_bit(&mut self, word: u32, bit: u8) {
        if let Some(w) = self.srf.get_mut(word as usize) {
            *w ^= 1 << bit;
        }
    }

    /// Flips one bit of the LDS.
    pub fn flip_lds_bit(&mut self, word: u32, bit: u8) {
        if let Some(w) = self.lds.get_mut(word as usize) {
            *w ^= 1 << bit;
        }
    }

    /// Forces a stuck cell's polarity onto current storage (no observer:
    /// arming is not a program write).
    fn force_stuck_now(&mut self, s: StuckBit) {
        let target = match s.structure {
            Structure::VectorRegisterFile => self.rf.get_mut(s.word as usize),
            Structure::ScalarRegisterFile => self.srf.get_mut(s.word as usize),
            Structure::LocalMemory => self.lds.get_mut(s.word as usize),
        };
        if let Some(w) = target {
            *w = s.force(*w);
        }
    }

    /// Arms a permanent stuck-at cell: the bit is forced immediately and
    /// re-asserted on every subsequent write through the store
    /// intercepts (and across [`Sm::reset`]).
    pub fn arm_stuck(&mut self, s: StuckBit) {
        self.force_stuck_now(s);
        self.stuck.push(s);
    }

    /// The armed stuck-at cells.
    pub fn stuck_faults(&self) -> &[StuckBit] {
        &self.stuck
    }

    /// Applies a control-unit fault: flips `bit` of the targeted
    /// parallelism-management state. `word` selects the warp slot (the
    /// block slot for barrier counters). Returns `true` when live state
    /// was corrupted — an empty or finished slot is a no-op, i.e. the
    /// fault is architecturally masked.
    pub fn apply_control_fault(&mut self, target: ControlTarget, word: u32, bit: u8) -> bool {
        // Every target edits warp or barrier state behind the scheduler.
        self.wake = 0;
        match target {
            ControlTarget::SchedulerSlot => match self.warp_slot_mut(word) {
                Some(w) => {
                    w.next_issue ^= 1u64 << bit;
                    true
                }
                None => false,
            },
            ControlTarget::ActiveMask => match self.warp_slot_mut(word) {
                Some(w) => {
                    w.active ^= 1u64 << bit;
                    true
                }
                None => false,
            },
            ControlTarget::Scoreboard => match self.warp_slot_mut(word) {
                Some(w) if !w.vreg_ready.is_empty() => {
                    let idx = bit as usize % w.vreg_ready.len();
                    w.vreg_ready[idx] ^= 1u64 << bit;
                    true
                }
                _ => false,
            },
            ControlTarget::BarrierCounter => {
                let n = self.blocks.len();
                if n == 0 {
                    return false;
                }
                match self.blocks[word as usize % n].as_mut() {
                    Some(b) => {
                        b.at_barrier ^= 1u32 << bit;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// The live (unfinished) warp in slot `word % slots`, if any.
    fn warp_slot_mut(&mut self, word: u32) -> Option<&mut Warp> {
        let n = self.warps.len();
        if n == 0 {
            return None;
        }
        self.warps[word as usize % n]
            .as_mut()
            .filter(|w| !w.finished)
    }

    /// Warps currently parked at a barrier (hang attribution: nonzero
    /// parked warps at watchdog expiry indicate a barrier deadlock).
    pub fn parked_warps(&self) -> u32 {
        self.warps
            .iter()
            .flatten()
            .filter(|w| w.at_barrier && !w.finished)
            .count() as u32
    }

    // ---- storage write intercepts ----
    //
    // Every program-visible write of the three storage arrays funnels
    // through these helpers so permanent faults can re-assert. The
    // fault-free path costs one `is_empty` check; observer call order is
    // identical to the historical direct stores.

    /// Forces armed stuck bits of `(structure, word)` into `value`.
    fn stuck_adjust(&self, structure: Structure, word: u32, value: u32) -> u32 {
        let mut v = value;
        for s in &self.stuck {
            if s.structure == structure && s.word == word {
                v = s.force(v);
            }
        }
        v
    }

    /// Stores to a vector-RF word, re-asserting stuck bits.
    fn store_rf<O: SimObserver>(&mut self, phys: u32, value: u32, cycle: u64, obs: &mut O) {
        let stored = if self.stuck.is_empty() {
            value
        } else {
            self.stuck_adjust(Structure::VectorRegisterFile, phys, value)
        };
        self.rf[phys as usize] = stored;
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.clear_word(Structure::VectorRegisterFile, phys);
        }
        obs.on_rf_write(self.id, phys, cycle);
        if stored != value {
            obs.on_stuck_reassert(self.id, Structure::VectorRegisterFile, phys, cycle);
        }
    }

    /// Stores to a scalar-RF word, re-asserting stuck bits.
    fn store_srf<O: SimObserver>(&mut self, phys: u32, value: u32, cycle: u64, obs: &mut O) {
        let stored = if self.stuck.is_empty() {
            value
        } else {
            self.stuck_adjust(Structure::ScalarRegisterFile, phys, value)
        };
        self.srf[phys as usize] = stored;
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.clear_word(Structure::ScalarRegisterFile, phys);
        }
        obs.on_srf_write(self.id, phys, cycle);
        if stored != value {
            obs.on_stuck_reassert(self.id, Structure::ScalarRegisterFile, phys, cycle);
        }
    }

    /// Stores to an LDS word, re-asserting stuck bits.
    fn store_lds<O: SimObserver>(&mut self, word: u32, value: u32, cycle: u64, obs: &mut O) {
        let stored = if self.stuck.is_empty() {
            value
        } else {
            self.stuck_adjust(Structure::LocalMemory, word, value)
        };
        self.lds[word as usize] = stored;
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.clear_word(Structure::LocalMemory, word);
        }
        obs.on_lds_write(self.id, word, cycle);
        if stored != value {
            obs.on_stuck_reassert(self.id, Structure::LocalMemory, word, cycle);
        }
    }

    // ---- batched-replay overlay plumbing ----
    //
    // During a bit-plane batched pass the SM executes pure golden state;
    // each scenario's divergence lives in overlay cells. Reads gather the
    // scenario masks of their source words, divergent results re-assert
    // on the destination after the golden write cleared it, and any
    // divergence that would change *control or addressing* (predicates,
    // addresses, atomics) forks the scenario out of the pass instead.
    // All helpers fast-path to nothing when no overlay is present.

    /// Scenario-divergence mask of a resolved operand for one warp lane.
    fn scn_mask(&self, warp: &Warp, r: &Resolved, lane: u32, warp_size: u32) -> u64 {
        let Some(ov) = self.overlay.as_deref() else {
            return 0;
        };
        match *r {
            Resolved::Uniform(_) | Resolved::Special(_) => 0,
            Resolved::Sreg { phys, .. } => ov
                .cell(Structure::ScalarRegisterFile, phys)
                .map_or(0, |c| c.mask),
            Resolved::VReg(reg) => {
                let phys = warp.rf_base + reg as u32 * warp_size + lane;
                ov.cell(Structure::VectorRegisterFile, phys)
                    .map_or(0, |c| c.mask)
            }
        }
    }

    /// Scenario `s`'s value of a resolved operand (golden unless overlaid).
    fn scn_value(
        &self,
        warp: &Warp,
        r: &Resolved,
        lane: u32,
        warp_size: u32,
        s: u8,
        golden: u32,
    ) -> u32 {
        let Some(ov) = self.overlay.as_deref() else {
            return golden;
        };
        let cell = match *r {
            Resolved::Uniform(_) | Resolved::Special(_) => None,
            Resolved::Sreg { phys, .. } => ov.cell(Structure::ScalarRegisterFile, phys),
            Resolved::VReg(reg) => {
                let phys = warp.rf_base + reg as u32 * warp_size + lane;
                ov.cell(Structure::VectorRegisterFile, phys)
            }
        };
        cell.and_then(|c| c.get(s)).unwrap_or(golden)
    }

    /// Divergent per-scenario results of one destination write: every
    /// scenario touching a source recomputes the op with its substituted
    /// operands; results equal to the golden value re-converge and are
    /// dropped. Must be called *before* the golden write (the
    /// destination may alias a source).
    #[allow(clippy::too_many_arguments)]
    fn scn_divergent(
        &self,
        warp: &Warp,
        srcs: &[&Resolved],
        golds: &[u32],
        lane: u32,
        warp_size: u32,
        golden_out: u32,
        f: &dyn Fn(&[u32]) -> u32,
    ) -> Vec<(u8, u32)> {
        if self.overlay.is_none() {
            return Vec::new();
        }
        let mut m = 0u64;
        for r in srcs {
            m |= self.scn_mask(warp, r, lane, warp_size);
        }
        if m == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut vals = [0u32; 3];
        for s in scn_bits(m) {
            for (i, r) in srcs.iter().enumerate() {
                vals[i] = self.scn_value(warp, r, lane, warp_size, s, golds[i]);
            }
            let v = f(&vals[..srcs.len()]);
            if v != golden_out {
                out.push((s, v));
            }
        }
        out
    }

    /// Re-asserts divergent results on a destination word (after the
    /// golden write cleared its cell).
    fn scn_assert(&mut self, structure: Structure, word: u32, entries: Vec<(u8, u32)>) {
        if entries.is_empty() {
            return;
        }
        let ov = self.overlay.get_or_insert_with(Default::default);
        for (s, v) in entries {
            ov.assert_value(structure, word, s, v);
        }
    }

    /// Requests forks for the scenarios in `mask`: their divergence is
    /// about to change control flow, addressing or an atomic, which the
    /// shared golden pass cannot carry.
    fn scn_fork(&mut self, mask: u64) {
        if mask != 0 {
            self.overlay
                .get_or_insert_with(Default::default)
                .pending_forks |= mask;
        }
    }

    /// Writes scenario `s`'s divergent words into physical storage and
    /// drops the overlay shard (forked private replays run on real state).
    pub(crate) fn materialize_scenario(&mut self, s: u8) {
        if let Some(ov) = self.overlay.take() {
            for (structure, word, v) in ov.scenario_values(s) {
                let arr = match structure {
                    Structure::VectorRegisterFile => &mut self.rf,
                    Structure::ScalarRegisterFile => &mut self.srf,
                    Structure::LocalMemory => &mut self.lds,
                };
                if let Some(slot) = arr.get_mut(word as usize) {
                    *slot = v;
                }
            }
        }
    }

    /// Attempts to make the block `ctaid` resident; returns `false` when a
    /// resource (warp slots, block slot, RF, SRF, LDS) is exhausted.
    #[allow(clippy::too_many_arguments)]
    pub fn try_dispatch<O: SimObserver>(
        &mut self,
        kernel: &LoweredKernel,
        cfg: &LaunchConfig,
        ctaid: (u32, u32),
        params: &[u32],
        arch: &ArchConfig,
        cycle: u64,
        obs: &mut O,
    ) -> bool {
        let warp_size = arch.warp_size;
        let threads = cfg.threads_per_block();
        let warps_n = cfg.warps_per_block(warp_size);
        let free_slots: Vec<usize> = self
            .warps
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.is_none().then_some(i))
            .take(warps_n as usize)
            .collect();
        if free_slots.len() < warps_n as usize {
            return false;
        }
        let Some(block_slot) = self.blocks.iter().position(Option::is_none) else {
            return false;
        };
        let rf_len = warps_n * warp_size * kernel.vregs_per_thread() as u32;
        let srf_len = warps_n * kernel.sregs_per_warp() as u32;
        let lds_len = kernel.shared_bytes().div_ceil(4);
        let Some(rf_base) = self.rf_alloc.alloc(rf_len) else {
            return false;
        };
        let Some(srf_base) = self.srf_alloc.alloc(srf_len) else {
            self.rf_alloc.free(rf_base, rf_len);
            return false;
        };
        let Some(lds_base) = self.lds_alloc.alloc(lds_len) else {
            self.rf_alloc.free(rf_base, rf_len);
            self.srf_alloc.free(srf_base, srf_len);
            return false;
        };

        self.wake = 0;
        let vregs = kernel.vregs_per_thread() as u32;
        let sregs = kernel.sregs_per_warp() as u32;
        let mut warp_slots = Vec::with_capacity(warps_n as usize);
        for w in 0..warps_n {
            let lanes = (threads - w * warp_size).min(warp_size);
            let slot = free_slots[w as usize];
            let warp = Warp::new(
                w,
                lanes,
                kernel.vregs_per_thread(),
                kernel.sregs_per_warp(),
                kernel.num_pregs(),
                rf_base + w * vregs * warp_size,
                srf_base + w * sregs,
                lds_base,
                lds_len * 4,
                ctaid,
                block_slot,
            );
            // Preload kernel parameters into their lowered registers.
            for (i, &value) in params.iter().enumerate() {
                match kernel.param_reg(i as u16) {
                    Reg::S(SReg(r)) => {
                        let phys = warp.srf_base + r as u32;
                        self.store_srf(phys, value, cycle, obs);
                    }
                    Reg::V(VReg(r)) => {
                        for lane in 0..lanes {
                            let phys = warp.rf_base + r as u32 * warp_size + lane;
                            self.store_rf(phys, value, cycle, obs);
                        }
                    }
                }
            }
            self.warps[slot] = Some(warp);
            warp_slots.push(slot);
        }
        self.blocks[block_slot] = Some(ResidentBlock {
            ctaid,
            rf_base,
            rf_len,
            srf_base,
            srf_len,
            lds_base,
            lds_len,
            warp_slots,
            running_warps: warps_n,
            at_barrier: 0,
        });
        obs.on_block_dispatch(
            self.id,
            BlockRegions {
                rf_base,
                rf_len,
                srf_base,
                srf_len,
                lds_base,
                lds_len,
            },
            cycle,
        );
        true
    }

    /// The earliest cycle at which the warp in `slot` can issue, or
    /// `u64::MAX` for an empty slot, a finished warp or one parked at a
    /// barrier (those wait for an event, not a cycle).
    fn slot_issue_cycle(&self, slot: usize, kernel: &LoweredKernel) -> u64 {
        match &self.warps[slot] {
            Some(w) if !w.finished && !w.at_barrier => issue_cycle(w, &kernel.body()[w.pc]),
            _ => u64::MAX,
        }
    }

    /// Picks the next warp to issue from, per the scheduling policy. When
    /// no warp can issue at `cycle`, returns the earliest cycle at which
    /// one can (the pick scans every slot before it fails).
    fn pick_warp(
        &mut self,
        kernel: &LoweredKernel,
        cycle: u64,
        policy: SchedulerPolicy,
    ) -> Result<usize, u64> {
        let n = self.warps.len();
        let mut wake = u64::MAX;
        match policy {
            SchedulerPolicy::Lrr => {
                for off in 1..=n {
                    let slot = (self.sched_ptr + off) % n;
                    let at = self.slot_issue_cycle(slot, kernel);
                    if at <= cycle {
                        self.sched_ptr = slot;
                        return Ok(slot);
                    }
                    wake = wake.min(at);
                }
                Err(wake)
            }
            SchedulerPolicy::Gto => {
                if let Some(cur) = self.gto_current {
                    if self.slot_issue_cycle(cur, kernel) <= cycle {
                        return Ok(cur);
                    }
                }
                for slot in 0..n {
                    let at = self.slot_issue_cycle(slot, kernel);
                    if at <= cycle {
                        self.gto_current = Some(slot);
                        return Ok(slot);
                    }
                    wake = wake.min(at);
                }
                self.gto_current = None;
                Err(wake)
            }
        }
    }

    /// Runs one SM cycle: issues up to `issue_width` instructions.
    ///
    /// # Errors
    ///
    /// Propagates any [`Due`] raised by the executed instructions.
    #[allow(clippy::too_many_arguments)]
    pub fn step<O: SimObserver>(
        &mut self,
        cycle: u64,
        kernel: &LoweredKernel,
        cfg: &LaunchConfig,
        arch: &ArchConfig,
        mem: &mut GlobalMemory,
        mem_sys: &mut MemorySystem,
        obs: &mut O,
    ) -> Result<(), Due> {
        // Exact: a pick before `wake` would fail, and a failed pick leaves
        // the scheduler state (`sched_ptr`, `gto_current`) as it is.
        if cycle < self.wake {
            return Ok(());
        }
        let mut issued = false;
        for _ in 0..arch.issue_width {
            match self.pick_warp(kernel, cycle, arch.scheduler) {
                Ok(slot) => {
                    self.exec_instr(slot, cycle, kernel, cfg, arch, mem, mem_sys, obs)?;
                    issued = true;
                }
                Err(wake) => {
                    if !issued {
                        self.wake = wake;
                    }
                    break;
                }
            }
        }
        if issued {
            self.stats.busy_cycles += 1;
        }
        Ok(())
    }

    /// Executes the next instruction of the warp in `slot`.
    #[allow(clippy::too_many_arguments)]
    fn exec_instr<O: SimObserver>(
        &mut self,
        slot: usize,
        cycle: u64,
        kernel: &LoweredKernel,
        cfg: &LaunchConfig,
        arch: &ArchConfig,
        mem: &mut GlobalMemory,
        mem_sys: &mut MemorySystem,
        obs: &mut O,
    ) -> Result<(), Due> {
        let mut warp = self.warps[slot].take().expect("picked warp exists");
        let idx = warp.pc;
        let instr = kernel.body()[idx];
        let warp_size = arch.warp_size;
        let ntid = (cfg.block.x, cfg.block.y);
        let nctaid = (cfg.grid.x, cfg.grid.y);
        let issue_cycles = arch.warp_issue_cycles() as u64;
        let mut barrier_requested = false;

        let result = (|| -> Result<(), Due> {
            match instr {
                Instr::Un { op, dst, a } => {
                    let lat = un_latency(arch, op);
                    self.exec_alu1(
                        &mut warp,
                        dst,
                        a,
                        |x| eval_unop(op, x),
                        lat,
                        cycle,
                        warp_size,
                        ntid,
                        nctaid,
                        obs,
                    );
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::Bin { op, dst, a, b } => {
                    let lat = bin_latency(arch, op);
                    self.exec_alu2(
                        &mut warp,
                        dst,
                        a,
                        b,
                        |x, y| eval_binop(op, x, y),
                        lat,
                        cycle,
                        warp_size,
                        ntid,
                        nctaid,
                        obs,
                    );
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::Ter { op, dst, a, b, c } => {
                    let lat = match op {
                        simt_isa::TerOp::IMad => arch.lat.imul,
                        simt_isa::TerOp::FFma => arch.lat.fp,
                    };
                    self.exec_alu3(
                        &mut warp,
                        dst,
                        a,
                        b,
                        c,
                        |x, y, z| eval_terop(op, x, y, z),
                        lat,
                        cycle,
                        warp_size,
                        ntid,
                        nctaid,
                        obs,
                    );
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::SetP {
                    op,
                    float,
                    pd,
                    a,
                    b,
                } => {
                    let ra = self.resolve_cfg(&warp, a, ntid, nctaid, cycle, obs);
                    let rb = self.resolve_cfg(&warp, b, ntid, nctaid, cycle, obs);
                    let mut mask: LaneMask = 0;
                    for lane in lanes(warp.active) {
                        let x =
                            self.lane_value(&warp, &ra, lane, warp_size, ntid, nctaid, cycle, obs);
                        let y =
                            self.lane_value(&warp, &rb, lane, warp_size, ntid, nctaid, cycle, obs);
                        let bit = eval_cmp(op, x, y, float);
                        if bit {
                            mask |= 1 << lane;
                        }
                        // A scenario whose compare flips the predicate
                        // would diverge in *control flow* — the shared
                        // pass cannot carry that, so it forks.
                        if self.overlay.is_some() {
                            let m = self.scn_mask(&warp, &ra, lane, warp_size)
                                | self.scn_mask(&warp, &rb, lane, warp_size);
                            let mut forks = 0u64;
                            for s in scn_bits(m) {
                                let xs = self.scn_value(&warp, &ra, lane, warp_size, s, x);
                                let ys = self.scn_value(&warp, &rb, lane, warp_size, s, y);
                                if eval_cmp(op, xs, ys, float) != bit {
                                    forks |= 1 << s;
                                }
                            }
                            self.scn_fork(forks);
                        }
                    }
                    let old = warp.preds[pd.0 as usize];
                    warp.preds[pd.0 as usize] = (old & !warp.active) | mask;
                    warp.pred_ready[pd.0 as usize] = cycle + arch.lat.alu as u64;
                    self.stats.warp_instructions += 1;
                    self.stats.thread_instructions += warp.active.count_ones() as u64;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::Sel { p, dst, a, b } => {
                    let pmask = warp.preds[p.0 as usize];
                    let ra = self.resolve_cfg(&warp, a, ntid, nctaid, cycle, obs);
                    let rb = self.resolve_cfg(&warp, b, ntid, nctaid, cycle, obs);
                    let d = vreg_of(dst);
                    for lane in lanes(warp.active) {
                        let x =
                            self.lane_value(&warp, &ra, lane, warp_size, ntid, nctaid, cycle, obs);
                        let y =
                            self.lane_value(&warp, &rb, lane, warp_size, ntid, nctaid, cycle, obs);
                        let take_x = pmask >> lane & 1 == 1;
                        let v = if take_x { x } else { y };
                        // The predicate is golden for every unforked
                        // scenario (a divergent SetP forks), so the
                        // select direction is shared; only values differ.
                        let dv = self.scn_divergent(
                            &warp,
                            &[&ra, &rb],
                            &[x, y],
                            lane,
                            warp_size,
                            v,
                            &|q| {
                                if take_x {
                                    q[0]
                                } else {
                                    q[1]
                                }
                            },
                        );
                        self.write_vreg(&warp, d, lane, v, warp_size, cycle, obs);
                        if !dv.is_empty() {
                            let phys = warp.rf_base + d as u32 * warp_size + lane;
                            self.scn_assert(Structure::VectorRegisterFile, phys, dv);
                        }
                    }
                    warp.vreg_ready[d as usize] = cycle + arch.lat.alu as u64;
                    self.stats.warp_instructions += 1;
                    self.stats.thread_instructions += warp.active.count_ones() as u64;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::Ld {
                    space,
                    dst,
                    addr,
                    offset,
                } => {
                    self.exec_load(
                        &mut warp, space, dst, addr, offset, cycle, arch, mem, mem_sys, ntid,
                        nctaid, obs,
                    )?;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::St {
                    space,
                    addr,
                    offset,
                    src,
                } => {
                    self.exec_store(
                        &mut warp, space, addr, offset, src, cycle, arch, mem, mem_sys, ntid,
                        nctaid, obs,
                    )?;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::Atom {
                    space,
                    op,
                    dst,
                    addr,
                    offset,
                    src,
                } => {
                    self.exec_atomic(
                        &mut warp, space, op, dst, addr, offset, src, cycle, arch, mem, mem_sys,
                        ntid, nctaid, obs,
                    )?;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::Bar => {
                    if warp.active != warp.runnable_lanes() {
                        return Err(Due::BarrierDivergence { sm: self.id, cycle });
                    }
                    barrier_requested = true;
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
                Instr::IfBegin { p, negate } => {
                    let pm = warp.preds[p.0 as usize];
                    let taken = if negate { !pm } else { pm };
                    warp.exec_if_begin(idx, taken, kernel.control());
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::Else => {
                    warp.exec_else();
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::IfEnd => {
                    warp.exec_if_end();
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::LoopBegin => {
                    warp.exec_loop_begin(idx, kernel.control());
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::Break { p, negate } => {
                    let pm = warp.preds[p.0 as usize];
                    let mask = if negate { !pm } else { pm };
                    warp.exec_break(mask);
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::LoopEnd => {
                    warp.exec_loop_end();
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::Exit => {
                    warp.exec_exit();
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + 1;
                }
                Instr::Nop => {
                    self.stats.warp_instructions += 1;
                    warp.next_issue = cycle + issue_cycles;
                    warp.pc += 1;
                }
            }
            Ok(())
        })();

        // Running off the end of the body terminates the warp like `exit`.
        if !warp.finished && warp.pc >= kernel.body().len() {
            warp.exec_exit();
        }
        let finished = warp.finished;
        let block_slot = warp.block_slot;
        if barrier_requested {
            warp.at_barrier = true;
        }
        self.warps[slot] = Some(warp);
        result?;

        if finished {
            let block = self.blocks[block_slot].as_mut().expect("block resident");
            block.running_warps -= 1;
            if block.running_warps == 0 {
                self.retire_block(block_slot, cycle, obs);
            } else if block.at_barrier == block.running_warps {
                self.release_barrier(block_slot);
            }
        } else if barrier_requested {
            let block = self.blocks[block_slot].as_mut().expect("block resident");
            block.at_barrier += 1;
            if block.at_barrier == block.running_warps {
                self.release_barrier(block_slot);
            }
        }
        Ok(())
    }

    fn release_barrier(&mut self, block_slot: usize) {
        let block = self.blocks[block_slot].as_mut().expect("block resident");
        for &s in &block.warp_slots {
            if let Some(w) = self.warps[s].as_mut() {
                w.at_barrier = false;
            }
        }
        block.at_barrier = 0;
    }

    fn retire_block<O: SimObserver>(&mut self, block_slot: usize, cycle: u64, obs: &mut O) {
        let block = self.blocks[block_slot].take().expect("block resident");
        for s in &block.warp_slots {
            self.warps[*s] = None;
        }
        self.rf_alloc.free(block.rf_base, block.rf_len);
        self.srf_alloc.free(block.srf_base, block.srf_len);
        self.lds_alloc.free(block.lds_base, block.lds_len);
        self.stats.blocks_retired += 1;
        self.retired_flag = true;
        obs.on_block_retire(
            self.id,
            BlockRegions {
                rf_base: block.rf_base,
                rf_len: block.rf_len,
                srf_base: block.srf_base,
                srf_len: block.srf_len,
                lds_base: block.lds_base,
                lds_len: block.lds_len,
            },
            cycle,
        );
    }

    // ---- operand plumbing ----

    /// Resolves uniform operands once per instruction; defers per-lane ones.
    fn resolve<O: SimObserver>(
        &mut self,
        warp: &Warp,
        op: Operand,
        cycle: u64,
        obs: &mut O,
    ) -> Resolved {
        match op {
            Operand::Imm(v) => Resolved::Uniform(v),
            Operand::Reg(Reg::S(SReg(r))) => {
                let phys = warp.srf_base + r as u32;
                obs.on_srf_read(self.id, phys, cycle);
                Resolved::Sreg {
                    phys,
                    value: self.srf[phys as usize],
                }
            }
            Operand::Reg(Reg::V(VReg(r))) => Resolved::VReg(r),
            Operand::Special(s) if !s.is_per_lane() => {
                Resolved::Uniform(self.uniform_special(warp, s))
            }
            Operand::Special(s) => Resolved::Special(s),
        }
    }

    fn uniform_special(&self, warp: &Warp, s: Special) -> u32 {
        match s {
            Special::CtaIdX => warp.ctaid.0,
            Special::CtaIdY => warp.ctaid.1,
            Special::WarpId => warp.warp_in_block,
            // NTid/NCta are substituted by lane_value (needs cfg); handled
            // there — this arm is unreachable for them.
            _ => unreachable!("per-launch specials resolved in lane_value"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lane_value<O: SimObserver>(
        &mut self,
        warp: &Warp,
        r: &Resolved,
        lane: u32,
        warp_size: u32,
        ntid: (u32, u32),
        _nctaid: (u32, u32),
        cycle: u64,
        obs: &mut O,
    ) -> u32 {
        match *r {
            Resolved::Uniform(v) | Resolved::Sreg { value: v, .. } => v,
            Resolved::VReg(reg) => {
                let phys = warp.rf_base + reg as u32 * warp_size + lane;
                obs.on_rf_read(self.id, phys, cycle);
                self.rf[phys as usize]
            }
            Resolved::Special(s) => match s {
                Special::TidX => warp.tid(lane, warp_size, ntid.0).0,
                Special::TidY => warp.tid(lane, warp_size, ntid.0).1,
                Special::LaneId => lane,
                _ => unreachable!("uniform specials resolved earlier"),
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn write_vreg<O: SimObserver>(
        &mut self,
        warp: &Warp,
        reg: u16,
        lane: u32,
        value: u32,
        warp_size: u32,
        cycle: u64,
        obs: &mut O,
    ) {
        let phys = warp.rf_base + reg as u32 * warp_size + lane;
        self.store_rf(phys, value, cycle, obs);
    }

    /// `resolve` fix-up for NTid/NCta specials, which need launch config.
    fn resolve_cfg<O: SimObserver>(
        &mut self,
        warp: &Warp,
        op: Operand,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        cycle: u64,
        obs: &mut O,
    ) -> Resolved {
        match op {
            Operand::Special(Special::NTidX) => Resolved::Uniform(ntid.0),
            Operand::Special(Special::NTidY) => Resolved::Uniform(ntid.1),
            Operand::Special(Special::NCtaIdX) => Resolved::Uniform(nctaid.0),
            Operand::Special(Special::NCtaIdY) => Resolved::Uniform(nctaid.1),
            other => self.resolve(warp, other, cycle, obs),
        }
    }

    // ---- ALU bodies ----

    #[allow(clippy::too_many_arguments)]
    fn exec_alu1<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        dst: Reg,
        a: Operand,
        f: impl Fn(u32) -> u32,
        lat: u32,
        cycle: u64,
        warp_size: u32,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        obs: &mut O,
    ) {
        let ra = self.resolve_cfg(warp, a, ntid, nctaid, cycle, obs);
        match dst {
            Reg::S(SReg(r)) => {
                let x = uniform_value(&ra);
                let phys = warp.srf_base + r as u32;
                let v = f(x);
                let dv = self.scn_divergent(warp, &[&ra], &[x], 0, warp_size, v, &|q| f(q[0]));
                self.store_srf(phys, v, cycle, obs);
                self.scn_assert(Structure::ScalarRegisterFile, phys, dv);
                warp.sreg_ready[r as usize] = cycle + lat as u64;
                self.stats.scalar_instructions += 1;
            }
            Reg::V(VReg(r)) => {
                for lane in lanes(warp.active) {
                    let x = self.lane_value(warp, &ra, lane, warp_size, ntid, nctaid, cycle, obs);
                    let v = f(x);
                    let dv =
                        self.scn_divergent(warp, &[&ra], &[x], lane, warp_size, v, &|q| f(q[0]));
                    self.write_vreg(warp, r, lane, v, warp_size, cycle, obs);
                    if !dv.is_empty() {
                        let phys = warp.rf_base + r as u32 * warp_size + lane;
                        self.scn_assert(Structure::VectorRegisterFile, phys, dv);
                    }
                }
                warp.vreg_ready[r as usize] = cycle + lat as u64;
                self.stats.warp_instructions += 1;
                self.stats.thread_instructions += warp.active.count_ones() as u64;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_alu2<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        dst: Reg,
        a: Operand,
        b: Operand,
        f: impl Fn(u32, u32) -> u32,
        lat: u32,
        cycle: u64,
        warp_size: u32,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        obs: &mut O,
    ) {
        let ra = self.resolve_cfg(warp, a, ntid, nctaid, cycle, obs);
        let rb = self.resolve_cfg(warp, b, ntid, nctaid, cycle, obs);
        match dst {
            Reg::S(SReg(r)) => {
                let (x, y) = (uniform_value(&ra), uniform_value(&rb));
                let phys = warp.srf_base + r as u32;
                let v = f(x, y);
                let dv = self.scn_divergent(warp, &[&ra, &rb], &[x, y], 0, warp_size, v, &|q| {
                    f(q[0], q[1])
                });
                self.store_srf(phys, v, cycle, obs);
                self.scn_assert(Structure::ScalarRegisterFile, phys, dv);
                warp.sreg_ready[r as usize] = cycle + lat as u64;
                self.stats.scalar_instructions += 1;
            }
            Reg::V(VReg(r)) => {
                for lane in lanes(warp.active) {
                    let x = self.lane_value(warp, &ra, lane, warp_size, ntid, nctaid, cycle, obs);
                    let y = self.lane_value(warp, &rb, lane, warp_size, ntid, nctaid, cycle, obs);
                    let v = f(x, y);
                    let dv =
                        self.scn_divergent(warp, &[&ra, &rb], &[x, y], lane, warp_size, v, &|q| {
                            f(q[0], q[1])
                        });
                    self.write_vreg(warp, r, lane, v, warp_size, cycle, obs);
                    if !dv.is_empty() {
                        let phys = warp.rf_base + r as u32 * warp_size + lane;
                        self.scn_assert(Structure::VectorRegisterFile, phys, dv);
                    }
                }
                warp.vreg_ready[r as usize] = cycle + lat as u64;
                self.stats.warp_instructions += 1;
                self.stats.thread_instructions += warp.active.count_ones() as u64;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_alu3<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        dst: Reg,
        a: Operand,
        b: Operand,
        c: Operand,
        f: impl Fn(u32, u32, u32) -> u32,
        lat: u32,
        cycle: u64,
        warp_size: u32,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        obs: &mut O,
    ) {
        let ra = self.resolve_cfg(warp, a, ntid, nctaid, cycle, obs);
        let rb = self.resolve_cfg(warp, b, ntid, nctaid, cycle, obs);
        let rc = self.resolve_cfg(warp, c, ntid, nctaid, cycle, obs);
        match dst {
            Reg::S(SReg(r)) => {
                let (x, y, z) = (uniform_value(&ra), uniform_value(&rb), uniform_value(&rc));
                let phys = warp.srf_base + r as u32;
                let v = f(x, y, z);
                let dv =
                    self.scn_divergent(warp, &[&ra, &rb, &rc], &[x, y, z], 0, warp_size, v, &|q| {
                        f(q[0], q[1], q[2])
                    });
                self.store_srf(phys, v, cycle, obs);
                self.scn_assert(Structure::ScalarRegisterFile, phys, dv);
                warp.sreg_ready[r as usize] = cycle + lat as u64;
                self.stats.scalar_instructions += 1;
            }
            Reg::V(VReg(r)) => {
                for lane in lanes(warp.active) {
                    let x = self.lane_value(warp, &ra, lane, warp_size, ntid, nctaid, cycle, obs);
                    let y = self.lane_value(warp, &rb, lane, warp_size, ntid, nctaid, cycle, obs);
                    let z = self.lane_value(warp, &rc, lane, warp_size, ntid, nctaid, cycle, obs);
                    let v = f(x, y, z);
                    let dv = self.scn_divergent(
                        warp,
                        &[&ra, &rb, &rc],
                        &[x, y, z],
                        lane,
                        warp_size,
                        v,
                        &|q| f(q[0], q[1], q[2]),
                    );
                    self.write_vreg(warp, r, lane, v, warp_size, cycle, obs);
                    if !dv.is_empty() {
                        let phys = warp.rf_base + r as u32 * warp_size + lane;
                        self.scn_assert(Structure::VectorRegisterFile, phys, dv);
                    }
                }
                warp.vreg_ready[r as usize] = cycle + lat as u64;
                self.stats.warp_instructions += 1;
                self.stats.thread_instructions += warp.active.count_ones() as u64;
            }
        }
    }

    // ---- memory bodies ----

    /// Checks a block-relative LDS byte address; returns the physical word.
    fn lds_word(&self, warp: &Warp, addr: u32, cycle: u64) -> Result<u32, Due> {
        if !addr.is_multiple_of(4) || addr.saturating_add(4) > warp.lds_bytes {
            return Err(Due::SharedOutOfBounds {
                addr,
                sm: self.id,
                cycle,
            });
        }
        Ok(warp.lds_base + addr / 4)
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_load<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        space: MemSpace,
        dst: Reg,
        addr: Operand,
        offset: i32,
        cycle: u64,
        arch: &ArchConfig,
        mem: &mut GlobalMemory,
        mem_sys: &mut MemorySystem,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        obs: &mut O,
    ) -> Result<(), Due> {
        let ra = self.resolve_cfg(warp, addr, ntid, nctaid, cycle, obs);
        match dst {
            Reg::S(SReg(r)) => {
                // Scalar load: uniform address, global space only.
                let base = uniform_value(&ra);
                let a = base.wrapping_add(offset as u32);
                // A divergent address changes what is read *and* the
                // access timing: fork. A divergent memory word read via
                // the golden address propagates to the destination.
                let forks = self.scn_mask(warp, &ra, 0, warp_size_of(arch));
                self.scn_fork(forks);
                let v = mem.load(a, self.id, cycle)?;
                let dv = mem
                    .overlay
                    .as_deref()
                    .and_then(|ov| ov.cell(a / 4))
                    .map(|c| c.entries().to_vec())
                    .unwrap_or_default();
                let lat = mem_sys.access_latency(self.id, &[a]);
                let phys = warp.srf_base + r as u32;
                self.store_srf(phys, v, cycle, obs);
                self.scn_assert(Structure::ScalarRegisterFile, phys, dv);
                warp.sreg_ready[r as usize] = cycle + lat as u64;
                self.stats.scalar_instructions += 1;
            }
            Reg::V(VReg(r)) => {
                match space {
                    MemSpace::Global => {
                        let mut addrs = LaneBuf::new();
                        for lane in lanes(warp.active) {
                            let base = self.lane_value(
                                warp,
                                &ra,
                                lane,
                                warp_size_of(arch),
                                ntid,
                                nctaid,
                                cycle,
                                obs,
                            );
                            let a = base.wrapping_add(offset as u32);
                            let forks = self.scn_mask(warp, &ra, lane, arch.warp_size);
                            self.scn_fork(forks);
                            let v = mem.load(a, self.id, cycle)?;
                            let dv = mem
                                .overlay
                                .as_deref()
                                .and_then(|ov| ov.cell(a / 4))
                                .map(|c| c.entries().to_vec())
                                .unwrap_or_default();
                            self.write_vreg(warp, r, lane, v, arch.warp_size, cycle, obs);
                            if !dv.is_empty() {
                                let phys = warp.rf_base + r as u32 * arch.warp_size + lane;
                                self.scn_assert(Structure::VectorRegisterFile, phys, dv);
                            }
                            addrs.push(a);
                        }
                        let lat = mem_sys.access_latency(self.id, addrs.as_slice());
                        warp.vreg_ready[r as usize] = cycle + lat as u64;
                    }
                    MemSpace::Shared => {
                        let mut words = LaneBuf::new();
                        for lane in lanes(warp.active) {
                            let base = self.lane_value(
                                warp,
                                &ra,
                                lane,
                                arch.warp_size,
                                ntid,
                                nctaid,
                                cycle,
                                obs,
                            );
                            let a = base.wrapping_add(offset as u32);
                            let forks = self.scn_mask(warp, &ra, lane, arch.warp_size);
                            self.scn_fork(forks);
                            let w = self.lds_word(warp, a, cycle)?;
                            let v = self.lds[w as usize];
                            let dv = self
                                .overlay
                                .as_deref()
                                .and_then(|ov| ov.cell(Structure::LocalMemory, w))
                                .map(|c| c.entries().to_vec())
                                .unwrap_or_default();
                            obs.on_lds_read(self.id, w, cycle);
                            self.write_vreg(warp, r, lane, v, arch.warp_size, cycle, obs);
                            if !dv.is_empty() {
                                let phys = warp.rf_base + r as u32 * arch.warp_size + lane;
                                self.scn_assert(Structure::VectorRegisterFile, phys, dv);
                            }
                            words.push(w);
                        }
                        let degree = lds_conflict_degree(words.as_slice(), arch.lds_banks);
                        let lat = arch.lat.lds + (degree - 1) * arch.lds_bank_penalty;
                        warp.vreg_ready[r as usize] = cycle + lat as u64;
                    }
                }
                self.stats.warp_instructions += 1;
                self.stats.thread_instructions += warp.active.count_ones() as u64;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_store<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        space: MemSpace,
        addr: Operand,
        offset: i32,
        src: Operand,
        cycle: u64,
        arch: &ArchConfig,
        mem: &mut GlobalMemory,
        mem_sys: &mut MemorySystem,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        obs: &mut O,
    ) -> Result<(), Due> {
        let ra = self.resolve_cfg(warp, addr, ntid, nctaid, cycle, obs);
        let rs = self.resolve_cfg(warp, src, ntid, nctaid, cycle, obs);
        match space {
            MemSpace::Global => {
                let mut addrs = LaneBuf::new();
                for lane in lanes(warp.active) {
                    let base =
                        self.lane_value(warp, &ra, lane, arch.warp_size, ntid, nctaid, cycle, obs);
                    let v =
                        self.lane_value(warp, &rs, lane, arch.warp_size, ntid, nctaid, cycle, obs);
                    let a = base.wrapping_add(offset as u32);
                    // Divergent address: the scenario writes somewhere
                    // else entirely — fork. Divergent value at the golden
                    // address: propagate into the memory overlay.
                    let forks = self.scn_mask(warp, &ra, lane, arch.warp_size);
                    self.scn_fork(forks);
                    let dv =
                        self.scn_divergent(warp, &[&rs], &[v], lane, arch.warp_size, v, &|q| q[0]);
                    mem.store(a, v, self.id, cycle)?;
                    if !dv.is_empty() {
                        let ov = mem.overlay.get_or_insert_with(Default::default);
                        for (s, vs) in dv {
                            ov.assert_value(a / 4, s, vs);
                        }
                    }
                    obs.on_global_write(self.id, a, v, cycle);
                    addrs.push(a);
                }
                let _ = mem_sys.access_latency(self.id, addrs.as_slice());
            }
            MemSpace::Shared => {
                for lane in lanes(warp.active) {
                    let base =
                        self.lane_value(warp, &ra, lane, arch.warp_size, ntid, nctaid, cycle, obs);
                    let v =
                        self.lane_value(warp, &rs, lane, arch.warp_size, ntid, nctaid, cycle, obs);
                    let a = base.wrapping_add(offset as u32);
                    let forks = self.scn_mask(warp, &ra, lane, arch.warp_size);
                    self.scn_fork(forks);
                    let dv =
                        self.scn_divergent(warp, &[&rs], &[v], lane, arch.warp_size, v, &|q| q[0]);
                    let w = self.lds_word(warp, a, cycle)?;
                    self.store_lds(w, v, cycle, obs);
                    self.scn_assert(Structure::LocalMemory, w, dv);
                }
            }
        }
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += warp.active.count_ones() as u64;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_atomic<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        space: MemSpace,
        op: simt_isa::AtomOp,
        dst: Reg,
        addr: Operand,
        offset: i32,
        src: Operand,
        cycle: u64,
        arch: &ArchConfig,
        mem: &mut GlobalMemory,
        mem_sys: &mut MemorySystem,
        ntid: (u32, u32),
        nctaid: (u32, u32),
        obs: &mut O,
    ) -> Result<(), Due> {
        let ra = self.resolve_cfg(warp, addr, ntid, nctaid, cycle, obs);
        let rs = self.resolve_cfg(warp, src, ntid, nctaid, cycle, obs);
        let d = vreg_of(dst);
        let mut distinct = LaneBuf::new();
        for lane in lanes(warp.active) {
            let base = self.lane_value(warp, &ra, lane, arch.warp_size, ntid, nctaid, cycle, obs);
            let v = self.lane_value(warp, &rs, lane, arch.warp_size, ntid, nctaid, cycle, obs);
            let a = base.wrapping_add(offset as u32);
            // An atomic is a read-modify-write: divergence in the
            // address, the operand *or* the target word makes the
            // scenario's whole chain diverge — always fork.
            let mut forks = self.scn_mask(warp, &ra, lane, arch.warp_size)
                | self.scn_mask(warp, &rs, lane, arch.warp_size);
            let old = match space {
                MemSpace::Global => {
                    if let Some(ov) = mem.overlay.as_deref() {
                        forks |= ov.cell(a / 4).map_or(0, |c| c.mask);
                    }
                    self.scn_fork(forks);
                    let old = mem.load(a, self.id, cycle)?;
                    let (new, old) = eval_atom(op, old, v);
                    mem.store(a, new, self.id, cycle)?;
                    obs.on_global_write(self.id, a, new, cycle);
                    old
                }
                MemSpace::Shared => {
                    let w = self.lds_word(warp, a, cycle)?;
                    if let Some(ov) = self.overlay.as_deref() {
                        forks |= ov.cell(Structure::LocalMemory, w).map_or(0, |c| c.mask);
                    }
                    self.scn_fork(forks);
                    obs.on_lds_read(self.id, w, cycle);
                    let (new, old) = eval_atom(op, self.lds[w as usize], v);
                    self.store_lds(w, new, cycle, obs);
                    old
                }
            };
            self.write_vreg(warp, d, lane, old, arch.warp_size, cycle, obs);
            if !distinct.as_slice().contains(&a) {
                distinct.push(a);
            }
        }
        let lat = match space {
            MemSpace::Global => mem_sys.atomic_latency(distinct.len as u32),
            MemSpace::Shared => {
                arch.lat.lds + (distinct.len as u32).saturating_sub(1) * arch.lds_bank_penalty
            }
        };
        warp.vreg_ready[d as usize] = cycle + lat as u64;
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += warp.active.count_ones() as u64;
        Ok(())
    }
}

/// Up to [`MAX_LANES`] per-lane words of one warp instruction, kept on
/// the stack.
struct LaneBuf {
    words: [u32; MAX_LANES],
    len: usize,
}

impl LaneBuf {
    fn new() -> Self {
        LaneBuf {
            words: [0; MAX_LANES],
            len: 0,
        }
    }

    fn push(&mut self, w: u32) {
        self.words[self.len] = w;
        self.len += 1;
    }

    fn as_slice(&self) -> &[u32] {
        &self.words[..self.len]
    }
}

/// LDS bank-conflict degree of the physical words one warp access
/// touches: the most distinct words that share a bank (lanes reading the
/// same word get a broadcast, not a conflict), and at least 1.
/// Allocates nothing.
///
/// # Example
/// ```
/// use simt_sim::sm::lds_conflict_degree;
/// assert_eq!(lds_conflict_degree(&[0, 1, 2, 3], 8), 1);
/// assert_eq!(lds_conflict_degree(&[0, 8, 8, 16], 8), 3);
/// ```
///
/// # Panics
///
/// Panics if `words` holds more than [`MAX_LANES`] words or `banks` is 0.
pub fn lds_conflict_degree(words: &[u32], banks: u32) -> u32 {
    let mut buf = [0; MAX_LANES];
    let buf = &mut buf[..words.len()];
    buf.copy_from_slice(words);
    // Group by bank, repeats of a word next to each other.
    buf.sort_unstable_by_key(|&w| (w % banks, w));
    let (mut degree, mut run) = (1, 0);
    for i in 0..buf.len() {
        if i == 0 || buf[i] % banks != buf[i - 1] % banks {
            run = 1;
        } else if buf[i] != buf[i - 1] {
            run += 1;
        }
        degree = degree.max(run);
    }
    degree
}

/// The earliest cycle at which `warp` can issue `instr`: its issue timing
/// and the scoreboard times of every register and predicate the
/// instruction reads or writes. The warp is issuable at `cycle` exactly
/// when this is `<= cycle`.
fn issue_cycle(warp: &Warp, instr: &Instr) -> u64 {
    let ready = |r: Reg| match r {
        Reg::V(VReg(i)) => warp.vreg_ready[i as usize],
        Reg::S(SReg(i)) => warp.sreg_ready[i as usize],
    };
    let mut at = warp.next_issue;
    if let Some(d) = instr.dst_reg() {
        at = at.max(ready(d));
    }
    instr.for_each_src(|op| {
        if let Operand::Reg(r) = op {
            at = at.max(ready(r));
        }
    });
    if let Some(p) = instr.src_pred() {
        at = at.max(warp.pred_ready[p.0 as usize]);
    }
    if let Some(p) = instr.dst_pred() {
        at = at.max(warp.pred_ready[p.0 as usize]);
    }
    at
}

/// Iterates the set lane indices of a mask.
fn lanes(mask: LaneMask) -> impl Iterator<Item = u32> {
    set_bits(mask)
}

fn vreg_of(r: Reg) -> u16 {
    match r {
        Reg::V(VReg(i)) => i,
        Reg::S(_) => unreachable!("validated: per-lane destination is a vector register"),
    }
}

fn warp_size_of(arch: &ArchConfig) -> u32 {
    arch.warp_size
}

fn un_latency(arch: &ArchConfig, op: simt_isa::UnOp) -> u32 {
    if op.is_sfu() {
        arch.lat.sfu
    } else if op.is_float() {
        arch.lat.fp
    } else {
        arch.lat.alu
    }
}

fn bin_latency(arch: &ArchConfig, op: simt_isa::BinOp) -> u32 {
    if op.is_sfu() {
        arch.lat.sfu
    } else if op.is_float() {
        arch.lat.fp
    } else if op.is_imul_class() {
        arch.lat.imul
    } else {
        arch.lat.alu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_iteration() {
        let v: Vec<u32> = lanes(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
        assert_eq!(lanes(0).count(), 0);
    }

    #[test]
    fn conflict_degree() {
        // 8 banks: words 0..8 hit distinct banks.
        assert_eq!(lds_conflict_degree(&[0, 1, 2, 3], 8), 1);
        // words 0 and 8 share bank 0.
        assert_eq!(lds_conflict_degree(&[0, 8], 8), 2);
        // Same word twice: broadcast, no conflict.
        assert_eq!(lds_conflict_degree(&[0, 0, 0], 8), 1);
        assert_eq!(lds_conflict_degree(&[], 8), 1);
        assert_eq!(lds_conflict_degree(&[0, 8, 16, 24], 8), 4);
    }

    #[test]
    fn sm_construction_and_flips() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        assert!(!sm.busy());
        assert_eq!(sm.rf_allocated(), 0);
        sm.flip_rf_bit(10, 3);
        assert_eq!(sm.rf[10], 8);
        sm.flip_rf_bit(10, 3);
        assert_eq!(sm.rf[10], 0);
        sm.flip_lds_bit(0, 0);
        assert_eq!(sm.lds[0], 1);
        // Out-of-range flips are ignored (defensive).
        sm.flip_rf_bit(u32::MAX, 0);
        sm.flip_srf_bit(0, 5); // srf is empty on this config
    }

    #[test]
    fn reset_clears_state() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        sm.rf[0] = 77;
        sm.lds[1] = 88;
        sm.reset();
        assert_eq!(sm.rf[0], 0);
        assert_eq!(sm.lds[1], 0);
        assert!(!sm.busy());
    }

    #[test]
    fn stuck_bit_forces_reasserts_and_survives_reset() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        sm.rf[10] = 0b1000;
        sm.arm_stuck(StuckBit {
            structure: Structure::VectorRegisterFile,
            word: 10,
            bit: 3,
            stuck_value: false,
        });
        assert_eq!(sm.rf[10], 0, "forced at arm time");
        let mut obs = crate::observer::CountingObserver::default();
        sm.store_rf(10, u32::MAX, 5, &mut obs);
        assert_eq!(sm.rf[10], !0b1000, "re-asserted on write");
        assert_eq!(obs.rf_writes, 1);
        assert_eq!(obs.stuck_reasserts, 1);
        // A write that agrees with the stuck polarity is not a reassert.
        sm.store_rf(10, 0, 6, &mut obs);
        assert_eq!(obs.stuck_reasserts, 1);
        // Permanent faults survive the inter-launch reset.
        sm.arm_stuck(StuckBit {
            structure: Structure::LocalMemory,
            word: 2,
            bit: 0,
            stuck_value: true,
        });
        sm.reset();
        assert_eq!(sm.lds[2], 1, "stuck-at-1 re-asserts after reset");
        assert_eq!(sm.stuck_faults().len(), 2);
    }

    #[test]
    fn control_fault_on_empty_slots_is_masked() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        for t in ControlTarget::ALL {
            assert!(
                !sm.apply_control_fault(t, 0, 5),
                "{t}: empty slot must be a no-op"
            );
        }
        assert_eq!(sm.parked_warps(), 0);
    }
}
