//! The streaming multiprocessor (compute unit): block residency, warp
//! scheduling and instruction execution.

use crate::config::{ArchConfig, SchedulerPolicy};
use crate::error::Due;
use crate::fault::{ControlTarget, Structure};
use crate::launch::LaunchConfig;
use crate::mem::{GlobalMemory, MemorySystem, MAX_LANES};
use crate::observer::{BlockRegions, SimObserver};
use crate::overlay::{OverlayCell, SmOverlay};
use crate::pages::Pages;
use crate::regfile::{RegionAllocator, StuckBit};
use crate::warp::{lanes, LaneMask, Warp};
use simt_isa::op::{
    eval_atom, eval_binop, eval_binop_row, eval_cmp, eval_cmp_row, eval_terop, eval_terop_row,
    eval_unop, eval_unop_row,
};
use simt_isa::{
    AtomOp, Instr, LoweredKernel, MemSpace, Operand, PReg, Reg, SReg, Special, TerOp, VReg,
};

/// A block resident on an SM.
#[derive(Debug, Clone)]
pub struct ResidentBlock {
    /// Block coordinates.
    pub ctaid: (u32, u32),
    /// The RF, SRF and LDS regions the block holds.
    pub regions: BlockRegions,
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
    /// Lanes per warp: the row length of a vector register.
    warp_size: u32,
    /// The RF, LDS and SRF words, keyed by [`Structure::index`].
    storage: [Pages; 3],
    /// One allocator per structure, keyed by [`Structure::index`].
    alloc: [RegionAllocator; 3],
    warps: Vec<Option<Warp>>,
    blocks: Vec<Option<ResidentBlock>>,
    /// Armed permanent stuck-at cells, re-asserted by the store
    /// intercept on every write (empty in fault-free runs).
    pub(crate) stuck: Vec<StuckBit>,
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

/// The per-instruction execution context: everything an SM's execute
/// helpers borrow besides the SM and the issuing warp. The device builds
/// one per cycle (and one per block dispatch round) and lends it to
/// every SM in turn.
pub(crate) struct Ctx<'a, O> {
    /// The application cycle being executed.
    pub(crate) cycle: u64,
    /// The device architecture (latencies, issue width, LDS banking).
    pub(crate) arch: &'a ArchConfig,
    /// The launch dimensions (`ntid`, `nctaid`, threads per block).
    pub(crate) cfg: LaunchConfig,
    /// Device global memory and its overlay shard.
    pub(crate) mem: &'a mut GlobalMemory,
    /// The cache and coalescing timing model.
    pub(crate) mem_sys: &'a mut MemorySystem,
    /// The event sink.
    pub(crate) obs: &'a mut O,
    /// The batch plane's pending-fork mask, which every SM fork trigger
    /// sets (always zero outside a batched pass: no cell diverges).
    pub(crate) forks: &'a mut u64,
}

/// How an operand is resolved for a warp-wide execution.
#[derive(Clone, Copy)]
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
    /// A per-lane special value (`TidX`, `TidY`, `LaneId`).
    Special(Special),
}

/// The address of a memory instruction: its space, its base operand
/// (resolved once per instruction) and its constant byte offset.
#[derive(Clone, Copy)]
struct Access {
    space: MemSpace,
    base: Resolved,
    offset: u32,
}

/// `(scenario, value)` overlay entries a written word carries.
type Carry = Vec<(u8, u32)>;

/// Iterates the set scenario indices of a batch mask.
fn scn_bits(mask: u64) -> impl Iterator<Item = u8> {
    lanes(mask).map(|s| s as u8)
}

/// The entries of an overlay cell, if there is one.
fn carry_of(cell: Option<&OverlayCell>) -> Carry {
    cell.map(|c| c.entries().to_vec()).unwrap_or_default()
}

impl Sm {
    /// Creates an idle SM with the architecture's storage sizes.
    pub fn new(id: u32, arch: &ArchConfig) -> Self {
        Sm {
            id,
            warp_size: arch.warp_size,
            storage: Structure::ALL.map(|s| Pages::new(arch.words_per_sm(s) as usize)),
            alloc: Structure::ALL.map(|s| RegionAllocator::new(arch.words_per_sm(s))),
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
        self.storage.iter_mut().for_each(Pages::reset);
        for i in 0..self.stuck.len() {
            let s = self.stuck[i];
            self.force_stuck_now(s);
        }
        // The storage reset zeroes golden and faulty state alike, so all
        // batched-scenario divergence dies with it.
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.maps_mut().iter_mut().for_each(|m| m.clear());
        }
        self.alloc.iter_mut().for_each(RegionAllocator::reset);
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

    /// The physical words of one storage structure.
    #[inline(always)]
    pub(crate) fn storage(&self, structure: Structure) -> &Pages {
        &self.storage[structure.index()]
    }

    /// Freezes the pages of every storage structure (see
    /// [`Pages::freeze`]).
    pub(crate) fn freeze(&mut self) {
        self.storage.iter_mut().for_each(Pages::freeze);
    }

    /// Pages the SM's storage copied on a first write (see
    /// [`Pages::page_copies`]).
    pub(crate) fn page_copies(&self) -> u64 {
        self.storage.iter().map(Pages::page_copies).sum()
    }

    /// Flips one bit of a storage word. A word off the structure is
    /// ignored: the flip lands nowhere.
    pub fn flip_bit(&mut self, structure: Structure, word: u32, bit: u8) {
        let words = &mut self.storage[structure.index()];
        if let Some(w) = words.get_checked(word as usize) {
            words.set(word as usize, w ^ (1 << bit));
        }
    }

    /// Forces a stuck cell's polarity onto current storage (no observer:
    /// arming is not a program write).
    fn force_stuck_now(&mut self, s: StuckBit) {
        let words = &mut self.storage[s.structure.index()];
        if let Some(w) = words.get_checked(s.word as usize) {
            words.set(s.word as usize, s.force(w));
        }
    }

    /// Arms a permanent stuck-at cell: the bit is forced immediately and
    /// re-asserted on every subsequent write through the store
    /// intercept (and across [`Sm::reset`]).
    pub fn arm_stuck(&mut self, s: StuckBit) {
        self.force_stuck_now(s);
        self.stuck.push(s);
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
                Some(w) if !w.vreg_ready().is_empty() => {
                    let scoreboard = w.vreg_ready_mut();
                    let idx = bit as usize % scoreboard.len();
                    scoreboard[idx] ^= 1u64 << bit;
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

    // ---- the store intercept ----

    /// Stores `value` to `(structure, word)`: the
    /// [intercept](Sm::intercept) and then a one-word storage write.
    /// The execute bodies' lane walks run the intercept per lane and
    /// write the destination row once instead.
    #[inline(always)]
    fn store<O: SimObserver>(
        &mut self,
        structure: Structure,
        word: u32,
        value: u32,
        carry: &[(u8, u32)],
        cx: &mut Ctx<'_, O>,
    ) {
        let stored = self.intercept(structure, word, value, carry, cx);
        self.storage[structure.index()].set(word as usize, stored);
    }

    /// Whether a write has intercept work besides its event: an overlay
    /// of the SM or of global memory, or an armed stuck bit, exists.
    /// Each lane walk asks once; unguarded, a lane's write is its event
    /// alone.
    fn guarded(&self, mem: &GlobalMemory) -> bool {
        self.overlay.is_some() || mem.overlay.is_some() || !self.stuck.is_empty()
    }

    /// The store intercept of one word, less the storage write itself:
    /// the one path of every guarded program-visible write of the three
    /// storage arrays. It re-asserts armed stuck bits, kills the word's
    /// batched divergence, reports the write, and then re-asserts
    /// `carry`, the divergent scenario values the word holds from here
    /// on. Returns the value to store. A lane walk runs it lane by lane,
    /// so each lane's write event follows its reads.
    #[inline(always)]
    fn intercept<O: SimObserver>(
        &mut self,
        structure: Structure,
        word: u32,
        value: u32,
        carry: &[(u8, u32)],
        cx: &mut Ctx<'_, O>,
    ) -> u32 {
        let mut stored = value;
        for s in &self.stuck {
            if s.structure == structure && s.word == word {
                stored = s.force(stored);
            }
        }
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.map_mut(structure).clear_word(word);
        }
        cx.obs.on_write(self.id, structure, word, cx.cycle);
        if stored != value {
            cx.obs.on_stuck_reassert(self.id, structure, word, cx.cycle);
        }
        if !carry.is_empty() {
            let map = self
                .overlay
                .get_or_insert_with(Default::default)
                .map_mut(structure);
            for &(s, v) in carry {
                map.assert_value(word, s, v);
            }
        }
        stored
    }

    /// The structure and first word of `dst`'s row: lane `l` of a vector
    /// register is word `start + l`; a scalar register is the one word
    /// `start`, which lane 0 writes.
    fn dst_row(&self, warp: &Warp, dst: Reg) -> (Structure, u32) {
        match dst {
            Reg::S(SReg(r)) => (Structure::ScalarRegisterFile, warp.srf_base + r as u32),
            Reg::V(VReg(r)) => (Structure::VectorRegisterFile, self.vword(warp, r, 0)),
        }
    }

    /// Physical vector-RF word of `(reg, lane)` in `warp`'s region.
    fn vword(&self, warp: &Warp, reg: u16, lane: u32) -> u32 {
        warp.rf_base + reg as u32 * self.warp_size + lane
    }

    // ---- batched-replay overlay plumbing ----
    //
    // During a bit-plane batched pass the SM executes pure golden state;
    // each scenario's divergence lives in overlay cells. Reads gather the
    // scenario masks of their source words, divergent results re-assert
    // on the destination after the golden write cleared it, and any
    // divergence that would change *control or addressing* forks the
    // scenario out of the pass instead: the fork triggers set the
    // device's one pending-fork mask, `Ctx::forks`, in three places:
    // `lane_addr_read` (the address of every load, store and atomic, global
    // and LDS), the `SetP` arm of `exec_op` (a predicate) and
    // `exec_atomic` (an atomic's operand or target word). All helpers
    // fast-path to nothing when no overlay is present.

    /// The overlay cell of a resolved operand's word for one lane, if a
    /// scenario diverges there.
    #[inline(always)]
    fn scn_cell(&self, warp: &Warp, r: &Resolved, lane: u32) -> Option<&OverlayCell> {
        let ov = self.overlay.as_deref()?;
        match *r {
            Resolved::Uniform(_) | Resolved::Special(_) => None,
            Resolved::Sreg { phys, .. } => ov.map(Structure::ScalarRegisterFile).cell(phys),
            Resolved::VReg(reg) => ov
                .map(Structure::VectorRegisterFile)
                .cell(self.vword(warp, reg, lane)),
        }
    }

    /// Scenario-divergence mask of a resolved operand for one lane.
    fn scn_mask(&self, warp: &Warp, r: &Resolved, lane: u32) -> u64 {
        self.scn_cell(warp, r, lane).map_or(0, |c| c.mask)
    }

    /// Calls `f` for every scenario that diverges in one of `rs` at
    /// `lane`, with that scenario's operand values (golden where it does
    /// not diverge).
    #[inline(always)]
    fn scn_each<const N: usize>(
        &self,
        warp: &Warp,
        rs: &[Resolved; N],
        golds: [u32; N],
        lane: u32,
        mut f: impl FnMut(u8, [u32; N]),
    ) {
        if self.overlay.is_none() {
            return;
        }
        let mut m = 0u64;
        for r in rs {
            m |= self.scn_mask(warp, r, lane);
        }
        for s in scn_bits(m) {
            let mut vals = golds;
            for (v, r) in vals.iter_mut().zip(rs) {
                if let Some(x) = self.scn_cell(warp, r, lane).and_then(|c| c.get(s)) {
                    *v = x;
                }
            }
            f(s, vals);
        }
    }

    /// Divergent per-scenario results of one destination write: every
    /// scenario touching a source recomputes the op with its substituted
    /// operands; results equal to the golden value re-converge and are
    /// dropped. Must be called *before* the golden write (the
    /// destination may alias a source).
    #[inline(always)]
    fn scn_divergent<const N: usize>(
        &self,
        warp: &Warp,
        rs: &[Resolved; N],
        golds: [u32; N],
        lane: u32,
        golden_out: u32,
        f: impl Fn([u32; N]) -> u32,
    ) -> Carry {
        let mut out = Vec::new();
        self.scn_each(warp, rs, golds, lane, |s, vals| {
            let v = f(vals);
            if v != golden_out {
                out.push((s, v));
            }
        });
        out
    }

    /// Writes scenario `s`'s divergent words into physical storage and
    /// drops the overlay shard (forked private replays run on real state).
    pub(crate) fn materialize_scenario(&mut self, s: u8) {
        if let Some(ov) = self.overlay.take() {
            for structure in Structure::ALL {
                let words = &mut self.storage[structure.index()];
                for (word, v) in ov.map(structure).scenario_values(s) {
                    if words.get_checked(word as usize).is_some() {
                        words.set(word as usize, v);
                    }
                }
            }
        }
    }

    /// Attempts to make the block `ctaid` resident; returns `false` when a
    /// resource (warp slots, block slot, RF, SRF, LDS) is exhausted.
    pub(crate) fn try_dispatch<O: SimObserver>(
        &mut self,
        kernel: &LoweredKernel,
        ctaid: (u32, u32),
        params: &[u32],
        cx: &mut Ctx<'_, O>,
    ) -> bool {
        let warp_size = self.warp_size;
        let threads = cx.cfg.threads_per_block();
        let warps_n = cx.cfg.warps_per_block(warp_size);
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
        let vregs = kernel.vregs_per_thread() as u32;
        let sregs = kernel.sregs_per_warp() as u32;
        let mut regions = BlockRegions::default();
        for s in Structure::ALL {
            let len = match s {
                Structure::VectorRegisterFile => warps_n * warp_size * vregs,
                Structure::LocalMemory => kernel.shared_bytes().div_ceil(4),
                Structure::ScalarRegisterFile => warps_n * sregs,
            };
            let Some(base) = self.alloc[s.index()].alloc(len) else {
                // The regions not taken yet are empty: freeing them is a
                // no-op.
                self.free_regions(regions);
                return false;
            };
            regions = regions.with_region(s, base, len);
        }
        let (rf_base, _) = regions.region(Structure::VectorRegisterFile);
        let (srf_base, _) = regions.region(Structure::ScalarRegisterFile);
        let (lds_base, lds_len) = regions.region(Structure::LocalMemory);

        self.wake = 0;
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
                let reg = kernel.param_reg(i as u16);
                let words = if matches!(reg, Reg::S(_)) { 1 } else { lanes };
                let (structure, start) = self.dst_row(&warp, reg);
                for lane in 0..words {
                    self.store(structure, start + lane, value, &[], cx);
                }
            }
            self.warps[slot] = Some(warp);
            warp_slots.push(slot);
        }
        self.blocks[block_slot] = Some(ResidentBlock {
            ctaid,
            regions,
            warp_slots,
            running_warps: warps_n,
            at_barrier: 0,
        });
        cx.obs.on_block_dispatch(self.id, regions, cx.cycle);
        true
    }

    /// Returns a block's regions to their allocators.
    fn free_regions(&mut self, regions: BlockRegions) {
        for s in Structure::ALL {
            let (base, len) = regions.region(s);
            self.alloc[s.index()].free(base, len);
        }
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
    pub(crate) fn step<O: SimObserver>(
        &mut self,
        kernel: &LoweredKernel,
        cx: &mut Ctx<'_, O>,
    ) -> Result<(), Due> {
        // Exact: a pick before `wake` would fail, and a failed pick leaves
        // the scheduler state (`sched_ptr`, `gto_current`) as it is.
        if cx.cycle < self.wake {
            return Ok(());
        }
        let mut issued = false;
        for _ in 0..cx.arch.issue_width {
            match self.pick_warp(kernel, cx.cycle, cx.arch.scheduler) {
                Ok(slot) => {
                    self.exec_instr(slot, kernel, cx)?;
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

    /// Executes the next instruction of the warp in `slot`, then settles
    /// its block: a finished warp may retire the block, and a warp that
    /// reached a barrier may release it.
    fn exec_instr<O: SimObserver>(
        &mut self,
        slot: usize,
        kernel: &LoweredKernel,
        cx: &mut Ctx<'_, O>,
    ) -> Result<(), Due> {
        let mut warp = self.warps[slot].take().expect("picked warp exists");
        let instr = kernel.body()[warp.pc];
        let result = if exec_control(&mut warp, instr, kernel) {
            self.stats.warp_instructions += 1;
            warp.next_issue = cx.cycle + 1;
            Ok(())
        } else {
            let r = self.exec_op(&mut warp, instr, cx);
            if r.is_ok() {
                warp.next_issue = cx.cycle + cx.arch.warp_issue_cycles() as u64;
                warp.pc += 1;
            }
            r
        };
        let barrier_requested = result.is_ok() && matches!(instr, Instr::Bar);

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
                self.retire_block(block_slot, cx);
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

    fn retire_block<O: SimObserver>(&mut self, block_slot: usize, cx: &mut Ctx<'_, O>) {
        let block = self.blocks[block_slot].take().expect("block resident");
        for s in &block.warp_slots {
            self.warps[*s] = None;
        }
        self.free_regions(block.regions);
        self.stats.blocks_retired += 1;
        self.retired_flag = true;
        cx.obs.on_block_retire(self.id, block.regions, cx.cycle);
    }

    /// Executes one instruction that is not control flow. On success the
    /// caller advances the warp past it.
    fn exec_op<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        instr: Instr,
        cx: &mut Ctx<'_, O>,
    ) -> Result<(), Due> {
        let arch = cx.arch;
        match instr {
            Instr::Un { op, dst, a } => {
                let row = |[x]: &[&[u32]; 1], out: &mut [u32]| eval_unop_row(op, x, out);
                let f = |_, [x]: [u32; 1]| eval_unop(op, x);
                self.exec_alu(warp, dst, [a], un_latency(arch, op), (row, f), cx);
            }
            Instr::Bin { op, dst, a, b } => {
                let row = |[x, y]: &[&[u32]; 2], out: &mut [u32]| eval_binop_row(op, x, y, out);
                let f = |_, [x, y]: [u32; 2]| eval_binop(op, x, y);
                self.exec_alu(warp, dst, [a, b], bin_latency(arch, op), (row, f), cx);
            }
            Instr::Ter { op, dst, a, b, c } => {
                let lat = match op {
                    TerOp::IMad => arch.lat.imul,
                    TerOp::FFma => arch.lat.fp,
                };
                let row = |[x, y, z]: &[&[u32]; 3], out: &mut [u32]| {
                    eval_terop_row(op, x, y, z, out);
                };
                let f = |_, [x, y, z]: [u32; 3]| eval_terop(op, x, y, z);
                self.exec_alu(warp, dst, [a, b, c], lat, (row, f), cx);
            }
            Instr::Sel { p, dst, a, b } => {
                // The predicate is golden for every unforked scenario (a
                // divergent SetP forks), so the select direction is
                // shared; only values differ.
                let pmask = warp.preds()[p.0 as usize];
                let pick = move |lane: u32, [x, y]: [u32; 2]| {
                    if pmask >> lane & 1 == 1 {
                        x
                    } else {
                        y
                    }
                };
                let row = |[x, y]: &[&[u32]; 2], out: &mut [u32]| {
                    for (l, o) in out.iter_mut().enumerate() {
                        *o = pick(l as u32, [x[l], y[l]]);
                    }
                };
                self.exec_alu(warp, dst, [a, b], arch.lat.alu, (row, pick), cx);
            }
            Instr::SetP {
                op,
                float,
                pd,
                a,
                b,
            } => {
                let rs = self.resolve_all(warp, [a, b], cx);
                let rows = self.fetch_rows(warp, &rs, warp.active, cx);
                let [x, y] = rows.slices();
                let mask = eval_cmp_row(op, x, y, float) & warp.active;
                for lane in lanes(warp.active) {
                    self.lane_reads(warp, &rs, lane, cx);
                    let bit = mask >> lane & 1 == 1;
                    // A scenario whose compare flips the predicate would
                    // diverge in *control flow* — the shared pass cannot
                    // carry that, so it forks.
                    self.scn_each(warp, &rs, rows.lane(lane), lane, |s, [xs, ys]| {
                        if eval_cmp(op, xs, ys, float) != bit {
                            *cx.forks |= 1 << s;
                        }
                    });
                }
                let old = warp.preds()[pd.0 as usize];
                warp.preds_mut()[pd.0 as usize] = (old & !warp.active) | mask;
                warp.pred_ready_mut()[pd.0 as usize] = cx.cycle + arch.lat.alu as u64;
                self.count_warp_instr(warp);
            }
            Instr::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                let at = self.access(warp, space, addr, offset, cx);
                self.exec_load(warp, dst, at, cx)?;
            }
            Instr::St {
                space,
                addr,
                offset,
                src,
            } => {
                let at = self.access(warp, space, addr, offset, cx);
                let src = self.resolve(warp, src, cx);
                self.exec_store(warp, at, src, cx)?;
            }
            Instr::Atom {
                space,
                op,
                dst,
                addr,
                offset,
                src,
            } => {
                let at = self.access(warp, space, addr, offset, cx);
                let src = self.resolve(warp, src, cx);
                self.exec_atomic(warp, op, dst, at, src, cx)?;
            }
            Instr::Bar => {
                if warp.active != warp.runnable_lanes() {
                    return Err(Due::BarrierDivergence {
                        sm: self.id,
                        cycle: cx.cycle,
                    });
                }
                self.stats.warp_instructions += 1;
            }
            Instr::Nop => self.stats.warp_instructions += 1,
            _ => unreachable!("control flow executes in exec_control"),
        }
        Ok(())
    }

    /// Counts one warp instruction over the warp's active lanes.
    fn count_warp_instr(&mut self, warp: &Warp) {
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += warp.active.count_ones() as u64;
    }

    /// Scoreboards `dst` until `ready` and counts the instruction: a
    /// scalar one for a scalar destination, else a warp one.
    fn complete(&mut self, warp: &mut Warp, dst: Reg, ready: u64) {
        match dst {
            Reg::S(SReg(r)) => {
                warp.sreg_ready_mut()[r as usize] = ready;
                self.stats.scalar_instructions += 1;
            }
            Reg::V(VReg(r)) => {
                warp.vreg_ready_mut()[r as usize] = ready;
                self.count_warp_instr(warp);
            }
        }
    }

    // ---- operand plumbing ----

    /// Resolves uniform operands once per instruction; defers per-lane ones.
    fn resolve<O: SimObserver>(&self, warp: &Warp, op: Operand, cx: &mut Ctx<'_, O>) -> Resolved {
        let (ntid, nctaid) = (cx.cfg.block, cx.cfg.grid);
        match op {
            Operand::Imm(v) => Resolved::Uniform(v),
            Operand::Reg(Reg::S(SReg(r))) => {
                let phys = warp.srf_base + r as u32;
                cx.obs
                    .on_read(self.id, Structure::ScalarRegisterFile, phys, cx.cycle);
                Resolved::Sreg {
                    phys,
                    value: self
                        .storage(Structure::ScalarRegisterFile)
                        .get(phys as usize),
                }
            }
            Operand::Reg(Reg::V(VReg(r))) => Resolved::VReg(r),
            Operand::Special(s) => Resolved::Uniform(match s {
                Special::CtaIdX => warp.ctaid.0,
                Special::CtaIdY => warp.ctaid.1,
                Special::WarpId => warp.warp_in_block,
                Special::NTidX => ntid.x,
                Special::NTidY => ntid.y,
                Special::NCtaIdX => nctaid.x,
                Special::NCtaIdY => nctaid.y,
                Special::TidX | Special::TidY | Special::LaneId => return Resolved::Special(s),
            }),
        }
    }

    /// Resolves `ops` in source order.
    fn resolve_all<O: SimObserver, const N: usize>(
        &self,
        warp: &Warp,
        ops: [Operand; N],
        cx: &mut Ctx<'_, O>,
    ) -> [Resolved; N] {
        let mut rs = [Resolved::Uniform(0); N];
        for (r, op) in rs.iter_mut().zip(ops) {
            *r = self.resolve(warp, op, cx);
        }
        rs
    }

    /// The resolved address of a memory instruction.
    fn access<O: SimObserver>(
        &self,
        warp: &Warp,
        space: MemSpace,
        addr: Operand,
        offset: i32,
        cx: &mut Ctx<'_, O>,
    ) -> Access {
        Access {
            space,
            base: self.resolve(warp, addr, cx),
            offset: offset as u32,
        }
    }

    /// Every lane's values of `rs`, one row per operand: a vector
    /// register's row is one page read. The rows cover the warp and
    /// every lane of `mask` (a control fault can set a mask bit past the
    /// warp). Reports nothing: [`Sm::lane_reads`] reports each lane's
    /// reads where the lane walk reaches it.
    #[inline(always)]
    fn fetch_rows<O: SimObserver, const N: usize>(
        &self,
        warp: &Warp,
        rs: &[Resolved; N],
        mask: LaneMask,
        cx: &Ctx<'_, O>,
    ) -> Rows<N> {
        let len = (self.warp_size as usize).max(64 - mask.leading_zeros() as usize);
        let mut rows = Rows {
            words: [[0; MAX_LANES]; N],
            len,
        };
        for (row, r) in rows.words.iter_mut().zip(rs) {
            let row = &mut row[..len];
            match *r {
                Resolved::Uniform(v) | Resolved::Sreg { value: v, .. } => row.fill(v),
                Resolved::VReg(reg) => self
                    .storage(Structure::VectorRegisterFile)
                    .read_row(self.vword(warp, reg, 0) as usize, row),
                Resolved::Special(s) => {
                    for (lane, x) in row.iter_mut().enumerate() {
                        let lane = lane as u32;
                        *x = match s {
                            Special::TidX => warp.tid(lane, self.warp_size, cx.cfg.block.x).0,
                            Special::TidY => warp.tid(lane, self.warp_size, cx.cfg.block.x).1,
                            Special::LaneId => lane,
                            _ => unreachable!("uniform specials resolve to values"),
                        };
                    }
                }
            }
        }
        rows
    }

    /// Reports lane `lane`'s reads of `rs` in source order: one event per
    /// vector register (a scalar register's read was reported when it
    /// was resolved).
    #[inline(always)]
    fn lane_reads<O: SimObserver>(
        &self,
        warp: &Warp,
        rs: &[Resolved],
        lane: u32,
        cx: &mut Ctx<'_, O>,
    ) {
        for r in rs {
            if let Resolved::VReg(reg) = *r {
                let phys = self.vword(warp, reg, lane);
                cx.obs
                    .on_read(self.id, Structure::VectorRegisterFile, phys, cx.cycle);
            }
        }
    }

    // ---- execute bodies ----
    //
    // Each body runs a warp instruction by rows: it fetches each vector
    // operand's row once, computes what it can for the whole row (a
    // memory instruction checks its lanes' addresses), and then walks
    // the lanes in order. The walk reports each lane's reads and then
    // its write, runs the overlay and stuck-bit work of the lane (only
    // when `Sm::guarded`), and leaves the destination row, or a store's
    // words, to one write at the end. The bodies stay out of line, and
    // the helpers they call are forced inline.

    /// The one ALU body, shared by `Un`, `Bin`, `Ter` and `Sel`:
    /// `dst = row(srcs)` on every active lane, or on lane 0 for a scalar
    /// destination. `row` evaluates the op once for the whole row; `f`
    /// is the same op on one lane, which recomputes a lane's divergent
    /// scenario results.
    #[inline(never)]
    fn exec_alu<O: SimObserver, const N: usize>(
        &mut self,
        warp: &mut Warp,
        dst: Reg,
        srcs: [Operand; N],
        lat: u32,
        (row, f): (
            impl Fn(&[&[u32]; N], &mut [u32]),
            impl Fn(u32, [u32; N]) -> u32,
        ),
        cx: &mut Ctx<'_, O>,
    ) {
        let rs = self.resolve_all(warp, srcs, cx);
        let mask = dst_lanes(warp, dst);
        let rows = self.fetch_rows(warp, &rs, mask, cx);
        let mut out = [0; MAX_LANES];
        row(&rows.slices(), &mut out[..rows.len]);
        let (structure, start) = self.dst_row(warp, dst);
        let guarded = self.guarded(cx.mem);
        for lane in lanes(mask) {
            self.lane_reads(warp, &rs, lane, cx);
            let word = start + lane;
            if guarded {
                let v = out[lane as usize];
                let carry = self.scn_divergent(warp, &rs, rows.lane(lane), lane, v, |q| f(lane, q));
                out[lane as usize] = self.intercept(structure, word, v, &carry, cx);
            } else {
                cx.obs.on_write(self.id, structure, word, cx.cycle);
            }
        }
        self.storage[structure.index()].write_row(start as usize, &out, mask);
        self.complete(warp, dst, cx.cycle + lat as u64);
    }

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

    /// The words of a warp memory access at the byte addresses `addrs`:
    /// global words, or words of the block's LDS region. Checks the
    /// lanes of `mask` in lane order and stops at the first whose
    /// address faults.
    fn lane_words<O: SimObserver>(
        &self,
        warp: &Warp,
        space: MemSpace,
        addrs: &[u32; MAX_LANES],
        mask: LaneMask,
        cx: &Ctx<'_, O>,
    ) -> LaneWords {
        let mut words = [0; MAX_LANES];
        for lane in lanes(mask) {
            let a = addrs[lane as usize];
            let word = match space {
                MemSpace::Global => cx.mem.check(a, self.id, cx.cycle).map(|w| w as u32),
                MemSpace::Shared => self.lds_word(warp, a, cx.cycle),
            };
            match word {
                Ok(w) => words[lane as usize] = w,
                Err(due) => {
                    return LaneWords {
                        words,
                        ok: mask & ((1 << lane) - 1),
                        fault: Some((lane, due)),
                    }
                }
            }
        }
        LaneWords {
            words,
            ok: mask,
            fault: None,
        }
    }

    /// The overlay entries of word `w` of `space`, which a load's
    /// destination write carries.
    #[inline(always)]
    fn load_carry<O: SimObserver>(&self, space: MemSpace, w: u32, cx: &Ctx<'_, O>) -> Carry {
        carry_of(match space {
            MemSpace::Global => cx.mem.overlay.as_deref().and_then(|ov| ov.map.cell(w)),
            MemSpace::Shared => self
                .overlay
                .as_deref()
                .and_then(|ov| ov.map(Structure::LocalMemory).cell(w)),
        })
    }

    /// Reports lane `lane`'s read of the base operand of a memory access.
    /// A scenario whose address diverges would touch another word with
    /// other timing, so it forks here: the address fork trigger of every
    /// load, store and atomic.
    #[inline(always)]
    fn lane_addr_read<O: SimObserver>(
        &self,
        warp: &Warp,
        at: &Access,
        lane: u32,
        guarded: bool,
        cx: &mut Ctx<'_, O>,
    ) {
        self.lane_reads(warp, &[at.base], lane, cx);
        if guarded {
            *cx.forks |= self.scn_mask(warp, &at.base, lane);
        }
    }

    /// The coalescer's byte addresses (global) or the LDS banking's
    /// words (shared) of the lanes of `mask`. The block's LDS base
    /// shifts every word alike, which permutes the banks and keeps the
    /// conflict degree.
    fn access_keys(space: MemSpace, addrs: &[u32; MAX_LANES], mask: LaneMask) -> LaneBuf {
        let mut keys = LaneBuf::new();
        for lane in lanes(mask) {
            let a = addrs[lane as usize];
            keys.push(match space {
                MemSpace::Global => a,
                MemSpace::Shared => a / 4,
            });
        }
        keys
    }

    /// `dst = space[addr + offset]`; a scalar load reads one uniform
    /// address. A DUE stops the walk at its lane; the lanes before it
    /// keep their writes.
    #[inline(never)]
    fn exec_load<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        dst: Reg,
        at: Access,
        cx: &mut Ctx<'_, O>,
    ) -> Result<(), Due> {
        let mask = dst_lanes(warp, dst);
        let [base] = self.fetch_rows(warp, &[at.base], mask, cx).words;
        let addrs = base.map(|b| b.wrapping_add(at.offset));
        let lw = self.lane_words(warp, at.space, &addrs, mask, cx);
        let mut out = [0; MAX_LANES];
        let words = match at.space {
            MemSpace::Global => cx.mem.words(),
            MemSpace::Shared => self.storage(Structure::LocalMemory),
        };
        words.read_lanes(&lw.words, lw.ok, &mut out);
        let (structure, start) = self.dst_row(warp, dst);
        let guarded = self.guarded(cx.mem);
        for lane in lanes(lw.ok) {
            let (l, w) = (lane as usize, lw.words[lane as usize]);
            self.lane_addr_read(warp, &at, lane, guarded, cx);
            if at.space == MemSpace::Shared {
                cx.obs.on_read(self.id, Structure::LocalMemory, w, cx.cycle);
            }
            let word = start + lane;
            if guarded {
                let carry = self.load_carry(at.space, w, cx);
                out[l] = self.intercept(structure, word, out[l], &carry, cx);
            } else {
                cx.obs.on_write(self.id, structure, word, cx.cycle);
            }
        }
        self.storage[structure.index()].write_row(start as usize, &out, lw.ok);
        if let Some((lane, due)) = lw.fault {
            self.lane_addr_read(warp, &at, lane, guarded, cx);
            return Err(due);
        }
        let keys = Self::access_keys(at.space, &addrs, mask);
        let lat = match at.space {
            MemSpace::Global => cx.mem_sys.access_latency(self.id, keys.as_slice()),
            MemSpace::Shared => {
                let degree = lds_conflict_degree(keys.as_slice(), cx.arch.lds_banks);
                cx.arch.lat.lds + (degree - 1) * cx.arch.lds_bank_penalty
            }
        };
        self.complete(warp, dst, cx.cycle + lat as u64);
        Ok(())
    }

    /// `space[addr + offset] = src` on every active lane. A DUE stops the
    /// walk at its lane; the lanes before it keep their writes.
    #[inline(never)]
    fn exec_store<O: SimObserver>(
        &mut self,
        warp: &Warp,
        at: Access,
        src: Resolved,
        cx: &mut Ctx<'_, O>,
    ) -> Result<(), Due> {
        let [base, mut vals] = self
            .fetch_rows(warp, &[at.base, src], warp.active, cx)
            .words;
        let addrs = base.map(|b| b.wrapping_add(at.offset));
        let lw = self.lane_words(warp, at.space, &addrs, warp.active, cx);
        let guarded = self.guarded(cx.mem);
        for lane in lanes(lw.ok) {
            let (l, w) = (lane as usize, lw.words[lane as usize]);
            self.lane_addr_read(warp, &at, lane, guarded, cx);
            self.lane_reads(warp, &[src], lane, cx);
            let v = vals[l];
            if guarded {
                // A divergent value at the golden address propagates into
                // the written word's overlay.
                let carry = self.scn_divergent(warp, &[src], [v], lane, v, |[x]| x);
                match at.space {
                    MemSpace::Global => {
                        cx.mem.clear_divergence(w as usize);
                        if !carry.is_empty() {
                            let map = &mut cx.mem.overlay.get_or_insert_with(Default::default).map;
                            for (s, x) in carry {
                                map.assert_value(w, s, x);
                            }
                        }
                    }
                    MemSpace::Shared => {
                        vals[l] = self.intercept(Structure::LocalMemory, w, v, &carry, cx);
                    }
                }
            } else if at.space == MemSpace::Shared {
                cx.obs
                    .on_write(self.id, Structure::LocalMemory, w, cx.cycle);
            }
            if at.space == MemSpace::Global {
                cx.obs.on_global_write(self.id, addrs[l], v, cx.cycle);
            }
        }
        match at.space {
            MemSpace::Global => cx.mem.words_mut().write_lanes(&lw.words, &vals, lw.ok),
            MemSpace::Shared => {
                self.storage[Structure::LocalMemory.index()].write_lanes(&lw.words, &vals, lw.ok)
            }
        }
        if let Some((lane, due)) = lw.fault {
            self.lane_addr_read(warp, &at, lane, guarded, cx);
            self.lane_reads(warp, &[src], lane, cx);
            return Err(due);
        }
        if at.space == MemSpace::Global {
            let keys = Self::access_keys(at.space, &addrs, warp.active);
            let _ = cx.mem_sys.access_latency(self.id, keys.as_slice());
        }
        self.count_warp_instr(warp);
        Ok(())
    }

    /// `dst = space[addr + offset]; space[addr + offset] = op(dst, src)`
    /// lane by lane. A DUE stops the walk at its lane; the lanes before
    /// it keep their writes.
    #[inline(never)]
    fn exec_atomic<O: SimObserver>(
        &mut self,
        warp: &mut Warp,
        op: AtomOp,
        dst: Reg,
        at: Access,
        src: Resolved,
        cx: &mut Ctx<'_, O>,
    ) -> Result<(), Due> {
        let rows = self.fetch_rows(warp, &[at.base, src], warp.active, cx);
        let [base, vals] = rows.words;
        let (structure, start) = self.dst_row(warp, dst);
        let mut out = [0; MAX_LANES];
        let mut written: LaneMask = 0;
        let mut distinct = LaneBuf::new();
        let guarded = self.guarded(cx.mem);
        let mut walk = || -> Result<(), Due> {
            for lane in lanes(warp.active) {
                let a = base[lane as usize].wrapping_add(at.offset);
                self.lane_addr_read(warp, &at, lane, guarded, cx);
                self.lane_reads(warp, &[src], lane, cx);
                let v = vals[lane as usize];
                // An atomic is a read-modify-write: divergence in the
                // address, the operand *or* the target word makes the
                // scenario's whole chain diverge — always fork.
                let mut forks = self.scn_mask(warp, &src, lane);
                let old = match at.space {
                    MemSpace::Global => {
                        if let Some(ov) = cx.mem.overlay.as_deref() {
                            forks |= ov.map.mask(a / 4);
                        }
                        *cx.forks |= forks;
                        let old = cx.mem.load(a, self.id, cx.cycle)?;
                        let (new, old) = eval_atom(op, old, v);
                        cx.mem.store(a, new, self.id, cx.cycle)?;
                        cx.obs.on_global_write(self.id, a, new, cx.cycle);
                        old
                    }
                    MemSpace::Shared => {
                        let w = self.lds_word(warp, a, cx.cycle)?;
                        if let Some(ov) = self.overlay.as_deref() {
                            forks |= ov.map(Structure::LocalMemory).mask(w);
                        }
                        *cx.forks |= forks;
                        cx.obs.on_read(self.id, Structure::LocalMemory, w, cx.cycle);
                        let cur = self.storage(Structure::LocalMemory).get(w as usize);
                        let (new, old) = eval_atom(op, cur, v);
                        self.store(Structure::LocalMemory, w, new, &[], cx);
                        old
                    }
                };
                // A scalar destination is one word, which the last lane
                // writes.
                let word = if structure == Structure::ScalarRegisterFile {
                    0
                } else {
                    lane
                };
                out[word as usize] = self.intercept(structure, start + word, old, &[], cx);
                written |= 1 << word;
                if !distinct.as_slice().contains(&a) {
                    distinct.push(a);
                }
            }
            Ok(())
        };
        let walked = walk();
        self.storage[structure.index()].write_row(start as usize, &out, written);
        walked?;
        let lat = match at.space {
            MemSpace::Global => cx.mem_sys.atomic_latency(distinct.len as u32),
            MemSpace::Shared => {
                cx.arch.lat.lds + (distinct.len as u32).saturating_sub(1) * cx.arch.lds_bank_penalty
            }
        };
        self.complete(warp, dst, cx.cycle + lat as u64);
        Ok(())
    }
}

/// Executes `instr` on `warp` when it is control flow (the warp's
/// reconvergence stack moves its PC); returns whether it was.
fn exec_control(warp: &mut Warp, instr: Instr, kernel: &LoweredKernel) -> bool {
    let pc = warp.pc;
    match instr {
        Instr::IfBegin { p, negate } => {
            let taken = pred_mask(warp, p, negate);
            warp.exec_if_begin(pc, taken, kernel.control());
        }
        Instr::Else => warp.exec_else(),
        Instr::IfEnd => warp.exec_if_end(),
        Instr::LoopBegin => warp.exec_loop_begin(pc, kernel.control()),
        Instr::Break { p, negate } => {
            let breaking = pred_mask(warp, p, negate);
            warp.exec_break(breaking);
        }
        Instr::LoopEnd => warp.exec_loop_end(),
        Instr::Exit => warp.exec_exit(),
        _ => return false,
    }
    true
}

/// Predicate `p` of `warp`, inverted when `negate` is set.
fn pred_mask(warp: &Warp, p: PReg, negate: bool) -> LaneMask {
    let m = warp.preds()[p.0 as usize];
    if negate {
        !m
    } else {
        m
    }
}

/// The lanes that write `dst`: lane 0 alone for a scalar register, the
/// active lanes for a vector one.
fn dst_lanes(warp: &Warp, dst: Reg) -> LaneMask {
    match dst {
        Reg::S(_) => 1,
        Reg::V(_) => warp.active,
    }
}

/// The words a warp memory access touches, checked in lane order:
/// `words[l]` for each lane `l` of `ok`, the lanes before the first
/// whose address faults, and that lane with its DUE.
struct LaneWords {
    words: [u32; MAX_LANES],
    ok: LaneMask,
    fault: Option<(u32, Due)>,
}

/// Every lane's values of `N` operands of one warp instruction, one row
/// per operand, kept on the stack; lanes `len..` are unused.
struct Rows<const N: usize> {
    words: [[u32; MAX_LANES]; N],
    len: usize,
}

impl<const N: usize> Rows<N> {
    /// The rows, `len` lanes each.
    fn slices(&self) -> [&[u32]; N] {
        std::array::from_fn(|i| &self.words[i][..self.len])
    }

    /// Lane `lane`'s value of each operand.
    #[inline(always)]
    fn lane(&self, lane: u32) -> [u32; N] {
        std::array::from_fn(|i| self.words[i][lane as usize])
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

/// LDS bank-conflict degree of the words one warp access touches: the
/// most distinct words that share a bank (lanes reading the same word get
/// a broadcast, not a conflict), and at least 1. Allocates nothing.
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
        Reg::V(VReg(i)) => warp.vreg_ready()[i as usize],
        Reg::S(SReg(i)) => warp.sreg_ready()[i as usize],
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
        at = at.max(warp.pred_ready()[p.0 as usize]);
    }
    if let Some(p) = instr.dst_pred() {
        at = at.max(warp.pred_ready()[p.0 as usize]);
    }
    at
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

    /// Word `w` of the SM's RF.
    fn rf_at(sm: &Sm, w: usize) -> u32 {
        sm.storage(Structure::VectorRegisterFile).get(w)
    }

    /// Word `w` of the SM's LDS.
    fn lds_at(sm: &Sm, w: usize) -> u32 {
        sm.storage(Structure::LocalMemory).get(w)
    }

    #[test]
    fn sm_construction_and_flips() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        assert!(!sm.busy());
        assert_eq!(
            sm.alloc[Structure::VectorRegisterFile.index()].allocated(),
            0
        );
        sm.flip_bit(Structure::VectorRegisterFile, 10, 3);
        assert_eq!(rf_at(&sm, 10), 8);
        sm.flip_bit(Structure::VectorRegisterFile, 10, 3);
        assert_eq!(rf_at(&sm, 10), 0);
        sm.flip_bit(Structure::LocalMemory, 0, 0);
        assert_eq!(lds_at(&sm, 0), 1);
        // Out-of-range flips are ignored (defensive).
        sm.flip_bit(Structure::VectorRegisterFile, u32::MAX, 0);
        sm.flip_bit(Structure::ScalarRegisterFile, 0, 5); // srf is empty on this config
    }

    #[test]
    fn reset_clears_state() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        sm.storage[Structure::VectorRegisterFile.index()].set(0, 77);
        sm.storage[Structure::LocalMemory.index()].set(1, 88);
        sm.reset();
        assert_eq!(rf_at(&sm, 0), 0);
        assert_eq!(lds_at(&sm, 1), 0);
        assert!(!sm.busy());
    }

    #[test]
    fn stuck_bit_forces_reasserts_and_survives_reset() {
        let arch = ArchConfig::small_test_gpu();
        let mut sm = Sm::new(0, &arch);
        sm.storage[Structure::VectorRegisterFile.index()].set(10, 0b1000);
        sm.arm_stuck(StuckBit {
            structure: Structure::VectorRegisterFile,
            word: 10,
            bit: 3,
            stuck_value: false,
        });
        assert_eq!(rf_at(&sm, 10), 0, "forced at arm time");
        let mut obs = crate::observer::CountingObserver::default();
        let mut mem = GlobalMemory::new();
        let mut mem_sys = MemorySystem::new(
            arch.num_sms,
            arch.l1,
            arch.l2,
            arch.lat,
            arch.coalesce_bytes,
        );
        let mut cx = Ctx {
            cycle: 5,
            arch: &arch,
            cfg: LaunchConfig::linear(1, 1),
            mem: &mut mem,
            mem_sys: &mut mem_sys,
            obs: &mut obs,
            forks: &mut 0,
        };
        let rf = Structure::VectorRegisterFile;
        sm.store(rf, 10, u32::MAX, &[], &mut cx);
        assert_eq!(rf_at(&sm, 10), !0b1000, "re-asserted on write");
        assert_eq!((cx.obs.rf_writes, cx.obs.stuck_reasserts), (1, 1));
        // A write that agrees with the stuck polarity is not a reassert.
        sm.store(rf, 10, 0, &[], &mut cx);
        assert_eq!(cx.obs.stuck_reasserts, 1);
        // Permanent faults survive the inter-launch reset.
        sm.arm_stuck(StuckBit {
            structure: Structure::LocalMemory,
            word: 2,
            bit: 0,
            stuck_value: true,
        });
        sm.reset();
        assert_eq!(lds_at(&sm, 2), 1, "stuck-at-1 re-asserts after reset");
        assert_eq!(sm.stuck.len(), 2);
    }

    #[test]
    fn failed_dispatch_releases_every_region_it_took() {
        use simt_isa::{lower, KernelBuilder};
        let arch = ArchConfig::small_test_gpu_scalar();
        let mut b = KernelBuilder::new("lds_hog", 1);
        let out = b.param(0);
        let gid = b.vreg();
        let addr = b.vreg();
        b.global_tid_x(gid);
        b.word_addr(addr, out, gid);
        b.st(MemSpace::Global, addr, gid);
        // Three quarters of the LDS: one block fits, a second does not.
        b.shared(arch.lds_bytes_per_sm / 4 * 3);
        let kernel = lower(&b.build().unwrap(), arch.caps()).unwrap();
        assert!(kernel.sregs_per_warp() > 0, "the block takes SRF words");

        let mut sm = Sm::new(0, &arch);
        let mut obs = crate::observer::CountingObserver::default();
        let mut mem = GlobalMemory::new();
        let mut mem_sys = MemorySystem::new(
            arch.num_sms,
            arch.l1,
            arch.l2,
            arch.lat,
            arch.coalesce_bytes,
        );
        let mut cx = Ctx {
            cycle: 0,
            arch: &arch,
            cfg: LaunchConfig::linear(2, arch.warp_size),
            mem: &mut mem,
            mem_sys: &mut mem_sys,
            obs: &mut obs,
            forks: &mut 0,
        };
        assert!(sm.try_dispatch(&kernel, (0, 0), &[0], &mut cx));
        let allocated = sm.alloc.each_ref().map(RegionAllocator::allocated);
        for s in [Structure::VectorRegisterFile, Structure::ScalarRegisterFile] {
            let a = &sm.alloc[s.index()];
            assert!(
                a.capacity() - a.allocated() >= a.allocated(),
                "{s} holds two"
            );
        }
        assert!(!sm.try_dispatch(&kernel, (1, 0), &[0], &mut cx));
        assert_eq!(
            sm.alloc.each_ref().map(RegionAllocator::allocated),
            allocated
        );
        assert_eq!(cx.obs.blocks, 1);
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
