//! ACE analysis and occupancy tracking.
//!
//! ACE (Architecturally Correct Execution) analysis bounds the AVF of a
//! storage structure by measuring, for every bit, the fraction of
//! execution time during which its value could still influence the
//! program output. Two refinement levels are provided, matching the
//! methodological spread of real tools (and giving the repository its
//! ACE-vs-FI ablation):
//!
//! * [`AceMode::LiveUntilOverwrite`] — **conservative** (the default, and
//!   the behaviour the paper's figures exhibit): a word is vulnerable
//!   from every write until it is overwritten or its block deallocates.
//!   Without an oracle for *future* reads and downstream logical masking,
//!   this is what a structure-level analysis must assume; it
//!   systematically overestimates register-file AVF because values stay
//!   resident long after their last use.
//! * [`AceMode::WriteToLastRead`] — **refined** (trace post-processed):
//!   the lifetime ends at the last read before the next write. Closer to
//!   fault injection, but still blind to logical masking after the read.
//!
//! The analyzer is a [`SimObserver`]: attach it to one fault-free run and
//! read per-structure AVF and time-weighted occupancy (the red line of
//! the paper's Fig. 1/2).

use crate::campaign::{golden_pass, Capture};
use gpu_workloads::Workload;
use grel_telemetry::NoopHook;
use simt_sim::observer::BlockRegions;
use simt_sim::{ArchConfig, FaultSite, SimError, SimObserver, Structure};

const NO_EVENT: u64 = u64::MAX;

/// Refinement level of the lifetime analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AceMode {
    /// Conservative: write → overwrite or deallocation (paper-default).
    #[default]
    LiveUntilOverwrite,
    /// Refined: write → last read before the next write.
    WriteToLastRead,
}

/// Lifetime state of one physical word.
#[derive(Debug, Clone, Copy)]
struct WordState {
    wrote_at: u64,
    last_read: u64,
}

const FRESH: WordState = WordState {
    wrote_at: NO_EVENT,
    last_read: NO_EVENT,
};

/// Per-structure lifetime tracker.
#[derive(Debug)]
struct StructTracker {
    words: Vec<WordState>,
    mode: AceMode,
    ace_word_cycles: u64,
    allocated: u64,
    occ_word_cycles: u64,
    last_event_cycle: u64,
    last_launch_start_for_reads: u64,
    words_per_sm: u32,
    total_words: u64,
}

impl StructTracker {
    fn new(words_per_sm: u32, num_sms: u32, mode: AceMode) -> Self {
        let total = words_per_sm as u64 * num_sms as u64;
        StructTracker {
            words: vec![FRESH; total as usize],
            mode,
            ace_word_cycles: 0,
            allocated: 0,
            occ_word_cycles: 0,
            last_event_cycle: 0,
            last_launch_start_for_reads: 0,
            words_per_sm,
            total_words: total,
        }
    }

    fn idx(&self, sm: u32, word: u32) -> Option<usize> {
        if word >= self.words_per_sm {
            return None;
        }
        Some(sm as usize * self.words_per_sm as usize + word as usize)
    }

    fn close(&mut self, i: usize, cycle: u64) {
        let st = &mut self.words[i];
        if st.wrote_at == NO_EVENT {
            st.last_read = NO_EVENT;
            return;
        }
        let end = match self.mode {
            AceMode::LiveUntilOverwrite => cycle,
            AceMode::WriteToLastRead => {
                if st.last_read == NO_EVENT {
                    st.wrote_at // empty interval: dead value
                } else {
                    st.last_read
                }
            }
        };
        self.ace_word_cycles += end.saturating_sub(st.wrote_at);
        // Launch-rooted values (dispatch preloads and launch-zeroed
        // contents) are vulnerable *at* the launch-start cycle itself:
        // the per-launch storage reset precedes fault application within
        // that cycle, so a flip at the boundary lands on the value. A
        // mid-launch write lands after fault application and only opens
        // its window the following cycle — which `end - wrote_at`
        // already counts. This keeps refined bit-cycles equal to the
        // union of the [`LifetimeOracle`]'s live intervals.
        if self.mode == AceMode::WriteToLastRead
            && st.last_read != NO_EVENT
            && st.wrote_at == self.last_launch_start_for_reads
        {
            self.ace_word_cycles += 1;
        }
        st.wrote_at = NO_EVENT;
        st.last_read = NO_EVENT;
    }

    fn on_write(&mut self, sm: u32, word: u32, cycle: u64) {
        let Some(i) = self.idx(sm, word) else { return };
        self.close(i, cycle);
        self.words[i].wrote_at = cycle;
    }

    fn on_read(&mut self, sm: u32, word: u32, cycle: u64) {
        let Some(i) = self.idx(sm, word) else { return };
        let st = &mut self.words[i];
        if st.wrote_at == NO_EVENT {
            // Consuming the launch-zeroed contents: the value was
            // architecturally live since the start of the launch.
            st.wrote_at = self.last_launch_start_for_reads;
        }
        st.last_read = cycle;
    }

    fn free_region(&mut self, sm: u32, base: u32, len: u32, cycle: u64) {
        for w in base..base.saturating_add(len).min(self.words_per_sm) {
            if let Some(i) = self.idx(sm, w) {
                self.close(i, cycle);
            }
        }
    }

    fn occupancy_tick(&mut self, cycle: u64) {
        self.occ_word_cycles += self.allocated * cycle.saturating_sub(self.last_event_cycle);
        self.last_event_cycle = cycle;
    }

    fn flush(&mut self, cycle: u64) {
        for i in 0..self.words.len() {
            self.close(i, cycle);
        }
    }
}

impl StructTracker {
    fn set_launch_start(&mut self, cycle: u64) {
        self.last_launch_start_for_reads = cycle;
    }
}

/// One structure's ACE/occupancy summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureReport {
    /// ACE-derived AVF estimate in `[0, 1]`.
    pub avf_ace: f64,
    /// Time-weighted fraction of the structure allocated to resident
    /// blocks.
    pub occupancy: f64,
    /// Raw ACE bit-cycles.
    pub ace_bit_cycles: u64,
    /// Structure capacity in bits (all SMs).
    pub total_bits: u64,
}

/// ACE-analysis + occupancy observer.
///
/// Attach to a **fault-free** run via
/// [`simt_sim::Gpu::launch_observed`] (or a
/// [`gpu_workloads::Workload::run`]); read the per-structure results with
/// [`AceAnalyzer::report`] once the workload completes.
///
/// # Example
/// ```
/// use grel_core::ace::{AceAnalyzer, AceMode};
/// use gpu_workloads::{VectorAdd, Workload};
/// use gpu_archs::quadro_fx_5600;
/// use simt_sim::{Gpu, Structure};
///
/// let arch = quadro_fx_5600();
/// let mut gpu = Gpu::new(arch.clone());
/// let mut ace = AceAnalyzer::new(&arch); // conservative, paper-default
/// VectorAdd::new(512, 1).run(&mut gpu, &mut ace)?;
/// let rf = ace.report(Structure::VectorRegisterFile);
/// assert!(rf.avf_ace > 0.0 && rf.avf_ace < 1.0);
/// assert!(rf.occupancy > 0.0);
///
/// // Refined mode yields a smaller (or equal) estimate:
/// let mut gpu2 = Gpu::new(arch.clone());
/// let mut refined = AceAnalyzer::with_mode(&arch, AceMode::WriteToLastRead);
/// VectorAdd::new(512, 1).run(&mut gpu2, &mut refined)?;
/// let rf2 = refined.report(Structure::VectorRegisterFile);
/// assert!(rf2.avf_ace <= rf.avf_ace + 1e-12);
/// # Ok::<(), simt_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct AceAnalyzer {
    rf: StructTracker,
    srf: StructTracker,
    lds: StructTracker,
    total_cycles: u64,
    mode: AceMode,
}

impl AceAnalyzer {
    /// A conservative (paper-default) analyzer sized for `arch`.
    pub fn new(arch: &ArchConfig) -> Self {
        Self::with_mode(arch, AceMode::LiveUntilOverwrite)
    }

    /// An analyzer with an explicit refinement mode.
    pub fn with_mode(arch: &ArchConfig, mode: AceMode) -> Self {
        AceAnalyzer {
            rf: StructTracker::new(arch.rf_words_per_sm(), arch.num_sms, mode),
            srf: StructTracker::new(arch.srf_words_per_sm(), arch.num_sms, mode),
            lds: StructTracker::new(arch.lds_words_per_sm(), arch.num_sms, mode),
            total_cycles: 0,
            mode,
        }
    }

    /// The refinement mode in use.
    pub fn mode(&self) -> AceMode {
        self.mode
    }

    fn tracker(&self, s: Structure) -> &StructTracker {
        match s {
            Structure::VectorRegisterFile => &self.rf,
            Structure::ScalarRegisterFile => &self.srf,
            Structure::LocalMemory => &self.lds,
        }
    }

    /// The ACE/occupancy summary for one structure.
    ///
    /// Both ratios are over *all* executed cycles and the structure
    /// capacity of all SMs — the same site space the fault-injection
    /// campaign samples uniformly.
    pub fn report(&self, s: Structure) -> StructureReport {
        let t = self.tracker(s);
        let total_bits = t.total_words * 32;
        let denom = (total_bits as f64) * (self.total_cycles as f64);
        let ace_bit_cycles = t.ace_word_cycles * 32;
        let (avf, occ) = if denom > 0.0 {
            (
                ace_bit_cycles as f64 / denom,
                t.occ_word_cycles as f64 / (t.total_words as f64 * self.total_cycles as f64),
            )
        } else {
            (0.0, 0.0)
        };
        StructureReport {
            avf_ace: avf,
            occupancy: occ,
            ace_bit_cycles,
            total_bits,
        }
    }

    /// Total application cycles observed so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }
}

impl SimObserver for AceAnalyzer {
    fn on_rf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.rf.on_write(sm, word, cycle);
    }
    fn on_rf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.rf.on_read(sm, word, cycle);
    }
    fn on_srf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.srf.on_write(sm, word, cycle);
    }
    fn on_srf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.srf.on_read(sm, word, cycle);
    }
    fn on_lds_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.lds.on_write(sm, word, cycle);
    }
    fn on_lds_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.lds.on_read(sm, word, cycle);
    }
    fn on_block_dispatch(&mut self, _sm: u32, r: BlockRegions, cycle: u64) {
        self.rf.occupancy_tick(cycle);
        self.srf.occupancy_tick(cycle);
        self.lds.occupancy_tick(cycle);
        self.rf.allocated += r.rf_len as u64;
        self.srf.allocated += r.srf_len as u64;
        self.lds.allocated += r.lds_len as u64;
    }
    fn on_block_retire(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
        self.rf.occupancy_tick(cycle);
        self.srf.occupancy_tick(cycle);
        self.lds.occupancy_tick(cycle);
        self.rf.allocated -= r.rf_len as u64;
        self.srf.allocated -= r.srf_len as u64;
        self.lds.allocated -= r.lds_len as u64;
        self.rf.free_region(sm, r.rf_base, r.rf_len, cycle);
        self.srf.free_region(sm, r.srf_base, r.srf_len, cycle);
        self.lds.free_region(sm, r.lds_base, r.lds_len, cycle);
    }
    fn on_launch_begin(&mut self, _name: &str, cycle: u64) {
        for t in [&mut self.rf, &mut self.srf, &mut self.lds] {
            t.flush(cycle);
            t.set_launch_start(cycle);
            t.occupancy_tick(cycle);
        }
    }
    fn on_launch_end(&mut self, cycle: u64) {
        for t in [&mut self.rf, &mut self.srf, &mut self.lds] {
            t.flush(cycle);
            t.occupancy_tick(cycle);
        }
        self.total_cycles = cycle;
    }
}

/// Per-word open value for the [`LifetimeOracle`]: the first cycle a
/// flip would be consumed, and the last read so far.
#[derive(Debug, Clone, Copy)]
struct OpenValue {
    live_from: u64,
    last_read: u64,
}

const CLOSED: OpenValue = OpenValue {
    live_from: NO_EVENT,
    last_read: NO_EVENT,
};

/// Interval builder for one structure of the [`LifetimeOracle`].
#[derive(Debug)]
struct OracleTracker {
    open: Vec<OpenValue>,
    /// Sorted, non-overlapping `[lo, hi]` live intervals per physical
    /// word (index `sm * words_per_sm + word`).
    intervals: Vec<Vec<(u64, u64)>>,
    words_per_sm: u32,
}

impl OracleTracker {
    fn new(words_per_sm: u32, num_sms: u32) -> Self {
        let total = words_per_sm as usize * num_sms as usize;
        OracleTracker {
            open: vec![CLOSED; total],
            intervals: vec![Vec::new(); total],
            words_per_sm,
        }
    }

    fn idx(&self, sm: u32, word: u32) -> Option<usize> {
        if word >= self.words_per_sm {
            return None;
        }
        let i = sm as usize * self.words_per_sm as usize + word as usize;
        (i < self.open.len()).then_some(i)
    }

    /// Emits the open value's interval (if it was ever read) and resets
    /// the word. Emission order is chronological per word, so merging
    /// with the previous interval keeps each list sorted and disjoint.
    fn close(&mut self, i: usize) {
        let v = self.open[i];
        self.open[i] = CLOSED;
        if v.live_from == NO_EVENT || v.last_read == NO_EVENT {
            return; // never written-then-read: no consumable window
        }
        let list = &mut self.intervals[i];
        match list.last_mut() {
            Some(last) if v.live_from <= last.1 + 1 => last.1 = last.1.max(v.last_read),
            _ => list.push((v.live_from, v.last_read)),
        }
    }

    fn on_write(&mut self, sm: u32, word: u32, cycle: u64, launch_start: u64) {
        let Some(i) = self.idx(sm, word) else { return };
        self.close(i);
        // A write at the launch-start cycle is a dispatch preload (or
        // shares the cycle with one): the per-launch reset and preloads
        // precede fault application within that cycle, so the boundary
        // cycle itself is vulnerable. Any later write lands *after*
        // fault application — a flip at its own cycle is clobbered — so
        // its window opens the following cycle.
        self.open[i] = OpenValue {
            live_from: if cycle == launch_start {
                cycle
            } else {
                cycle + 1
            },
            last_read: NO_EVENT,
        };
    }

    fn on_read(&mut self, sm: u32, word: u32, cycle: u64, launch_start: u64) {
        let Some(i) = self.idx(sm, word) else { return };
        let v = &mut self.open[i];
        if v.live_from == NO_EVENT {
            // Consuming the launch-zeroed contents: vulnerable since the
            // reset at the launch-start cycle.
            v.live_from = launch_start;
        }
        v.last_read = cycle;
    }

    fn free_region(&mut self, sm: u32, base: u32, len: u32) {
        for w in base..base.saturating_add(len).min(self.words_per_sm) {
            if let Some(i) = self.idx(sm, w) {
                self.close(i);
            }
        }
    }

    fn flush(&mut self) {
        for i in 0..self.open.len() {
            self.close(i);
        }
    }

    fn is_dead(&self, sm: u32, word: u32, cycle: u64) -> bool {
        let Some(i) = self.idx(sm, word) else {
            return true; // out-of-range words are never consumed
        };
        let list = &self.intervals[i];
        let p = list.partition_point(|&(lo, _)| lo <= cycle);
        p == 0 || list[p - 1].1 < cycle
    }

    fn live_bit_cycles(&self) -> u64 {
        self.intervals
            .iter()
            .flatten()
            .map(|&(lo, hi)| (hi - lo + 1) * 32)
            .sum()
    }

    fn live_word_cycles_in(&self, word_lo: u32, word_hi: u32, cycle_lo: u64, cycle_hi: u64) -> u64 {
        if cycle_hi <= cycle_lo {
            return 0;
        }
        let words = self.words_per_sm as usize;
        let mut total = 0u64;
        for (i, list) in self.intervals.iter().enumerate() {
            let word = (i % words) as u32;
            if word < word_lo || word >= word_hi {
                continue;
            }
            for &(lo, hi) in list {
                // Intervals are stored inclusive; the query window is
                // half-open, so clip its upper edge back by one.
                let lo = lo.max(cycle_lo);
                let hi = hi.min(cycle_hi - 1);
                if lo <= hi {
                    total += hi - lo + 1;
                }
            }
        }
        total
    }

    fn segments_in(
        &self,
        word_lo: u32,
        word_hi: u32,
        cycle_lo: u64,
        cycle_hi: u64,
        live: bool,
    ) -> Vec<WordCycleSegment> {
        let mut out = Vec::new();
        if cycle_hi <= cycle_lo {
            return out;
        }
        let words = self.words_per_sm as usize;
        for (i, list) in self.intervals.iter().enumerate() {
            let word = (i % words) as u32;
            if word < word_lo || word >= word_hi {
                continue;
            }
            let sm = (i / words) as u32;
            if live {
                for &(lo, hi) in list {
                    let lo = lo.max(cycle_lo);
                    let hi = hi.min(cycle_hi - 1);
                    if lo <= hi {
                        out.push(WordCycleSegment { sm, word, lo, hi });
                    }
                }
            } else {
                // The complement: gaps between the (sorted, disjoint)
                // live intervals within the window.
                let mut next = cycle_lo;
                for &(lo, hi) in list {
                    let lo = lo.max(cycle_lo);
                    let hi = hi.min(cycle_hi - 1);
                    if lo > hi {
                        continue;
                    }
                    if lo > next {
                        out.push(WordCycleSegment {
                            sm,
                            word,
                            lo: next,
                            hi: lo - 1,
                        });
                    }
                    next = hi + 1;
                }
                if next < cycle_hi {
                    out.push(WordCycleSegment {
                        sm,
                        word,
                        lo: next,
                        hi: cycle_hi - 1,
                    });
                }
            }
        }
        out
    }
}

/// A run of consecutive cycles (`lo..=hi`, inclusive) of one physical
/// word that is uniformly live or uniformly dead — the unit the
/// adaptive sampler's rank→site mapping bisects over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WordCycleSegment {
    /// SM index.
    pub(crate) sm: u32,
    /// Word index within the SM.
    pub(crate) word: u32,
    /// First cycle of the run.
    pub(crate) lo: u64,
    /// Last cycle of the run (inclusive).
    pub(crate) hi: u64,
}

impl WordCycleSegment {
    /// Number of `(word, cycle)` sites in the run.
    pub(crate) fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }
}

/// A per-word live-interval map distilled from one instrumented golden
/// run: for every physical word of the RF, SRF and LDS, the exact cycle
/// windows during which a bit flip would still be consumed by a read.
///
/// A flip at a cycle outside every interval of its word is **provably
/// masked**: the flipped value is clobbered by an overwrite, the
/// per-launch storage reset, or end-of-execution before any instruction
/// reads it, so the replay is bit-identical to the golden run. The
/// campaign layer uses [`LifetimeOracle::is_dead`] to record such sites
/// as `Masked` without replaying them (see `CampaignConfig::prune`); the
/// windows over-approximate liveness at launch boundaries, so pruning is
/// exact — never the other way around.
///
/// # Example
/// ```
/// use grel_core::ace::LifetimeOracle;
/// use gpu_workloads::VectorAdd;
/// use gpu_archs::quadro_fx_5600;
/// use simt_sim::Structure;
///
/// let arch = quadro_fx_5600();
/// let oracle = LifetimeOracle::capture(&arch, &VectorAdd::new(256, 1))?;
/// // Low-AVF workloads leave most of the site space dead.
/// assert!(oracle.live_bit_cycles(Structure::VectorRegisterFile) > 0);
/// # Ok::<(), simt_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct LifetimeOracle {
    rf: OracleTracker,
    srf: OracleTracker,
    lds: OracleTracker,
    num_sms: u32,
    launch_start: u64,
}

impl LifetimeOracle {
    /// An empty oracle sized for `arch`; attach it to a fault-free run
    /// as a [`SimObserver`] (or use [`LifetimeOracle::capture`]).
    pub fn new(arch: &ArchConfig) -> Self {
        LifetimeOracle {
            rf: OracleTracker::new(arch.rf_words_per_sm(), arch.num_sms),
            srf: OracleTracker::new(arch.srf_words_per_sm(), arch.num_sms),
            lds: OracleTracker::new(arch.lds_words_per_sm(), arch.num_sms),
            num_sms: arch.num_sms,
            launch_start: 0,
        }
    }

    /// Runs `workload` once on a fresh device and returns the oracle.
    ///
    /// # Errors
    ///
    /// Propagates any failure of the fault-free run itself.
    pub fn capture(arch: &ArchConfig, workload: &dyn Workload) -> Result<Self, SimError> {
        let capture = Capture {
            oracle: true,
            ..Capture::default()
        };
        let pass = golden_pass(arch, workload, capture, &NoopHook)?;
        Ok(pass.oracle.expect("the oracle was captured"))
    }

    fn tracker(&self, s: Structure) -> &OracleTracker {
        match s {
            Structure::VectorRegisterFile => &self.rf,
            Structure::ScalarRegisterFile => &self.srf,
            Structure::LocalMemory => &self.lds,
        }
    }

    /// Whether a flip at `site` provably never reaches a read — i.e. the
    /// replay would be bit-identical to the golden run (`Masked`).
    ///
    /// Only [transient](FaultSite::is_transient) sites can ever be dead:
    /// the argument relies on the corruption dying with the overwrite
    /// that closes a live window, but a stuck-at cell is *re-asserted*
    /// by that overwrite and a control fault never lives in a storage
    /// word at all. For any other kind this returns `false`
    /// unconditionally, so campaign pruning stays sound across fault
    /// models even with a caller-supplied oracle.
    pub fn is_dead(&self, site: FaultSite) -> bool {
        if !site.is_transient() {
            return false;
        }
        // Same physical mapping the injector uses.
        let sm = site.sm % self.num_sms.max(1);
        self.tracker(site.structure)
            .is_dead(sm, site.word, site.cycle)
    }

    /// Total live bit-cycles of one structure: the union of all live
    /// intervals, times 32 bits per word. Equals the refined
    /// ([`AceMode::WriteToLastRead`]) ACE bit-cycle count — the two are
    /// independent implementations of the same lifetime rule.
    pub fn live_bit_cycles(&self, s: Structure) -> u64 {
        self.tracker(s).live_bit_cycles()
    }

    /// Live word-cycles of `s` restricted to words `[word_lo, word_hi)`
    /// and cycles `[cycle_lo, cycle_hi)`, summed across every SM: the
    /// exact count of `(sm, word, cycle)` triples inside the window
    /// whose word is live at that cycle. This is the stratum-weight
    /// primitive of the adaptive sampler (`crate::sampling`) — a
    /// stratum's live population is this count times its bit width —
    /// and a pure function of the captured intervals, so stratum
    /// weights inherit the oracle's determinism.
    pub fn live_word_cycles_in(
        &self,
        s: Structure,
        word_lo: u32,
        word_hi: u32,
        cycle_lo: u64,
        cycle_hi: u64,
    ) -> u64 {
        self.tracker(s)
            .live_word_cycles_in(word_lo, word_hi, cycle_lo, cycle_hi)
    }

    /// Explicit segment list behind [`LifetimeOracle::live_word_cycles_in`]:
    /// every maximal live (`live = true`) or dead (`live = false`) cycle
    /// run of every word in the window, across all SMs. The adaptive
    /// sampler bisects the cumulative lengths of this list to map a
    /// stratum-local rank to a concrete `(sm, word, cycle)` — which is
    /// what lets it draw from a rare stratum directly instead of
    /// rejection-scanning the full site population.
    pub(crate) fn segments_in(
        &self,
        s: Structure,
        word_lo: u32,
        word_hi: u32,
        cycle_lo: u64,
        cycle_hi: u64,
        live: bool,
    ) -> Vec<WordCycleSegment> {
        self.tracker(s)
            .segments_in(word_lo, word_hi, cycle_lo, cycle_hi, live)
    }
}

impl SimObserver for LifetimeOracle {
    fn on_rf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.rf.on_write(sm, word, cycle, self.launch_start);
    }
    fn on_rf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.rf.on_read(sm, word, cycle, self.launch_start);
    }
    fn on_srf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.srf.on_write(sm, word, cycle, self.launch_start);
    }
    fn on_srf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.srf.on_read(sm, word, cycle, self.launch_start);
    }
    fn on_lds_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.lds.on_write(sm, word, cycle, self.launch_start);
    }
    fn on_lds_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.lds.on_read(sm, word, cycle, self.launch_start);
    }
    fn on_block_retire(&mut self, sm: u32, r: BlockRegions, _cycle: u64) {
        self.rf.free_region(sm, r.rf_base, r.rf_len);
        self.srf.free_region(sm, r.srf_base, r.srf_len);
        self.lds.free_region(sm, r.lds_base, r.lds_len);
    }
    fn on_launch_begin(&mut self, _name: &str, cycle: u64) {
        for t in [&mut self.rf, &mut self.srf, &mut self.lds] {
            t.flush();
        }
        self.launch_start = cycle;
    }
    fn on_launch_end(&mut self, _cycle: u64) {
        for t in [&mut self.rf, &mut self.srf, &mut self.lds] {
            t.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::ArchConfig;

    fn refined() -> AceAnalyzer {
        AceAnalyzer::with_mode(&ArchConfig::small_test_gpu(), AceMode::WriteToLastRead)
    }

    fn conservative() -> AceAnalyzer {
        AceAnalyzer::new(&ArchConfig::small_test_gpu())
    }

    #[test]
    fn refined_counts_write_to_last_read() {
        let mut a = refined();
        a.on_launch_begin("k", 0);
        a.on_rf_write(0, 5, 10);
        a.on_rf_read(0, 5, 20);
        a.on_rf_read(0, 5, 50);
        a.on_rf_write(0, 5, 60);
        a.on_launch_end(100);
        // [10, 50] closed by the overwrite, plus the dead tail value.
        assert_eq!(
            a.report(Structure::VectorRegisterFile).ace_bit_cycles,
            40 * 32
        );
    }

    #[test]
    fn conservative_counts_write_to_overwrite() {
        let mut a = conservative();
        a.on_launch_begin("k", 0);
        a.on_rf_write(0, 5, 10);
        a.on_rf_read(0, 5, 20); // reads are irrelevant here
        a.on_rf_write(0, 5, 60);
        a.on_launch_end(100);
        // [10, 60) + [60, 100) (flushed at launch end).
        assert_eq!(
            a.report(Structure::VectorRegisterFile).ace_bit_cycles,
            (50 + 40) * 32
        );
    }

    #[test]
    fn conservative_closes_at_block_retire() {
        let mut a = conservative();
        a.on_launch_begin("k", 0);
        a.on_block_dispatch(
            0,
            BlockRegions {
                rf_base: 0,
                rf_len: 8,
                ..Default::default()
            },
            0,
        );
        a.on_rf_write(0, 3, 10);
        a.on_block_retire(
            0,
            BlockRegions {
                rf_base: 0,
                rf_len: 8,
                ..Default::default()
            },
            40,
        );
        a.on_launch_end(100);
        // Live [10, 40): ends at deallocation, not at launch end.
        assert_eq!(
            a.report(Structure::VectorRegisterFile).ace_bit_cycles,
            30 * 32
        );
    }

    #[test]
    fn refined_dead_write_is_unace_conservative_is_not() {
        let mut r = refined();
        r.on_launch_begin("k", 0);
        r.on_rf_write(0, 1, 10);
        r.on_launch_end(100);
        assert_eq!(r.report(Structure::VectorRegisterFile).ace_bit_cycles, 0);

        let mut c = conservative();
        c.on_launch_begin("k", 0);
        c.on_rf_write(0, 1, 10);
        c.on_launch_end(100);
        assert_eq!(
            c.report(Structure::VectorRegisterFile).ace_bit_cycles,
            90 * 32,
            "conservative mode cannot prove the value dead"
        );
    }

    #[test]
    fn refined_read_of_initial_zero_counts_from_launch_start() {
        let mut a = refined();
        a.on_launch_begin("k", 5);
        a.on_rf_read(0, 2, 25);
        a.on_launch_end(100);
        // [5, 25] inclusive of the launch-start cycle: the reset that
        // zeroes the word precedes fault application at cycle 5.
        assert_eq!(
            a.report(Structure::VectorRegisterFile).ace_bit_cycles,
            21 * 32
        );
    }

    #[test]
    fn avf_normalizes_over_structure_and_time() {
        let mut a = refined();
        a.on_launch_begin("k", 0);
        a.on_rf_write(0, 0, 0);
        a.on_rf_read(0, 0, 100);
        a.on_launch_end(100);
        let r = a.report(Structure::VectorRegisterFile);
        // The write at cycle 0 is launch-rooted, so [0, 100] counts 101
        // of the 100 executed cycles for that one word.
        let expect = 101.0 / (100.0 * 4096.0 * 2.0);
        assert!(
            (r.avf_ace - expect).abs() < 1e-12,
            "{} vs {expect}",
            r.avf_ace
        );
    }

    #[test]
    fn occupancy_integrates_block_residency() {
        let mut a = conservative();
        a.on_launch_begin("k", 0);
        a.on_block_dispatch(
            0,
            BlockRegions {
                rf_base: 0,
                rf_len: 4096,
                ..Default::default()
            },
            0,
        );
        a.on_block_retire(
            0,
            BlockRegions {
                rf_base: 0,
                rf_len: 4096,
                ..Default::default()
            },
            50,
        );
        a.on_launch_end(100);
        let r = a.report(Structure::VectorRegisterFile);
        assert!((r.occupancy - 0.25).abs() < 1e-12, "{}", r.occupancy);
    }

    #[test]
    fn multi_launch_accumulates() {
        let mut a = refined();
        a.on_launch_begin("k1", 0);
        a.on_rf_write(0, 0, 0);
        a.on_rf_read(0, 0, 10);
        a.on_launch_end(50);
        a.on_launch_begin("k2", 50);
        a.on_rf_write(0, 0, 50);
        a.on_rf_read(0, 0, 70);
        a.on_launch_end(100);
        let r = a.report(Structure::VectorRegisterFile);
        // Both writes land on their launch-start cycle, so each window
        // includes the boundary: [0, 10] and [50, 70].
        assert_eq!(r.ace_bit_cycles, (11 + 21) * 32);
        assert_eq!(a.total_cycles(), 100);
    }

    #[test]
    fn out_of_range_events_are_ignored() {
        let mut a = refined();
        a.on_launch_begin("k", 0);
        a.on_rf_write(0, u32::MAX, 1);
        a.on_rf_read(0, u32::MAX, 2);
        a.on_launch_end(10);
        assert_eq!(a.report(Structure::VectorRegisterFile).ace_bit_cycles, 0);
    }

    #[test]
    fn empty_run_reports_zero() {
        let a = conservative();
        let r = a.report(Structure::LocalMemory);
        assert_eq!(r.avf_ace, 0.0);
        assert_eq!(r.occupancy, 0.0);
        assert_eq!(a.mode(), AceMode::LiveUntilOverwrite);
    }

    fn rf_site(word: u32, cycle: u64) -> FaultSite {
        FaultSite::new(Structure::VectorRegisterFile, 0, word, 0, cycle)
    }

    #[test]
    fn oracle_never_prunes_non_transient_sites() {
        use simt_sim::{ControlTarget, FaultKind};
        let mut o = LifetimeOracle::new(&ArchConfig::small_test_gpu());
        o.on_launch_begin("k", 0);
        o.on_rf_write(0, 5, 10);
        o.on_rf_read(0, 5, 20);
        o.on_launch_end(100);
        // Cycle 60 is outside the live window: dead for a flip…
        let dead_flip = rf_site(5, 60);
        assert!(o.is_dead(dead_flip));
        // …but a stuck-at fault there outlives every overwrite, and a
        // control fault has no storage word to be dead in.
        for kind in [
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Control(ControlTarget::SchedulerSlot),
            FaultKind::Control(ControlTarget::BarrierCounter),
        ] {
            assert!(
                !o.is_dead(dead_flip.with_kind(kind)),
                "{kind} sites must never be pruned"
            );
        }
    }

    #[test]
    fn oracle_live_window_is_write_to_last_read() {
        let mut o = LifetimeOracle::new(&ArchConfig::small_test_gpu());
        o.on_launch_begin("k", 0);
        o.on_rf_write(0, 5, 10);
        o.on_rf_read(0, 5, 20);
        o.on_rf_read(0, 5, 50);
        o.on_rf_write(0, 5, 60); // never read again: dead tail
        o.on_launch_end(100);
        // A flip at the write's own cycle is clobbered by the write
        // (fault application precedes SM stepping), so the window is
        // [11, 50].
        assert!(o.is_dead(rf_site(5, 10)));
        assert!(!o.is_dead(rf_site(5, 11)));
        assert!(!o.is_dead(rf_site(5, 50)));
        assert!(o.is_dead(rf_site(5, 51)));
        assert!(o.is_dead(rf_site(5, 60)));
        assert!(o.is_dead(rf_site(4, 20)), "untouched word is dead");
        assert_eq!(o.live_bit_cycles(Structure::VectorRegisterFile), 40 * 32);
    }

    #[test]
    fn oracle_launch_boundary_cycle_is_vulnerable() {
        let mut o = LifetimeOracle::new(&ArchConfig::small_test_gpu());
        o.on_launch_begin("k", 5);
        o.on_rf_write(0, 1, 5); // dispatch preload: precedes the fault
        o.on_rf_read(0, 1, 9);
        o.on_rf_read(0, 2, 25); // launch-zeroed contents
        o.on_launch_end(100);
        assert!(!o.is_dead(rf_site(1, 5)));
        assert!(!o.is_dead(rf_site(2, 5)));
        assert!(!o.is_dead(rf_site(2, 25)));
        assert!(o.is_dead(rf_site(1, 10)));
        // [5, 9] and [5, 25].
        assert_eq!(
            o.live_bit_cycles(Structure::VectorRegisterFile),
            (5 + 21) * 32
        );
    }

    #[test]
    fn oracle_separates_launches() {
        let mut o = LifetimeOracle::new(&ArchConfig::small_test_gpu());
        o.on_launch_begin("k1", 0);
        o.on_rf_write(0, 0, 10);
        o.on_rf_read(0, 0, 20);
        o.on_launch_end(50);
        o.on_launch_begin("k2", 50);
        o.on_rf_write(0, 0, 60);
        o.on_rf_read(0, 0, 70);
        o.on_launch_end(100);
        // [11, 20] and [61, 70]; the gap spans the launch boundary —
        // the k1 value left resident at cycle 21.. is never read again
        // (the k2 reset clobbers it), so flips there are dead.
        assert!(!o.is_dead(rf_site(0, 20)));
        assert!(o.is_dead(rf_site(0, 21)));
        assert!(o.is_dead(rf_site(0, 50)));
        assert!(o.is_dead(rf_site(0, 60)));
        assert!(!o.is_dead(rf_site(0, 61)));
        assert_eq!(o.live_bit_cycles(Structure::VectorRegisterFile), 20 * 32);
    }

    #[test]
    fn oracle_matches_refined_ace_on_synthetic_stream() {
        let arch = ArchConfig::small_test_gpu();
        let mut ace = AceAnalyzer::with_mode(&arch, AceMode::WriteToLastRead);
        let mut o = LifetimeOracle::new(&arch);
        let drive = |obs: &mut dyn SimObserver| {
            obs.on_launch_begin("k1", 0);
            obs.on_rf_write(0, 0, 0); // launch-rooted preload
            obs.on_rf_read(0, 0, 7);
            obs.on_rf_write(1, 3, 4);
            obs.on_rf_read(1, 3, 30);
            obs.on_rf_read(0, 9, 12); // launch-zeroed read
            obs.on_rf_write(0, 9, 15); // overwrite, then dead
            obs.on_launch_end(40);
            obs.on_launch_begin("k2", 40);
            obs.on_rf_read(0, 2, 55);
            obs.on_rf_write(0, 2, 58);
            obs.on_rf_read(0, 2, 60);
            obs.on_launch_end(80);
        };
        drive(&mut ace);
        drive(&mut o);
        assert_eq!(
            ace.report(Structure::VectorRegisterFile).ace_bit_cycles,
            o.live_bit_cycles(Structure::VectorRegisterFile),
            "refined ACE and the oracle implement the same lifetime rule"
        );
    }

    #[test]
    fn oracle_capture_prunes_only_masked_space() {
        use gpu_workloads::VectorAdd;
        let arch = gpu_archs::quadro_fx_5600();
        let w = VectorAdd::new(128, 3);
        let o = LifetimeOracle::capture(&arch, &w).unwrap();
        let live = o.live_bit_cycles(Structure::VectorRegisterFile);
        assert!(live > 0, "vectoradd reads registers");
        // The top of the register file is never allocated: dead.
        assert!(o.is_dead(rf_site(arch.rf_words_per_sm() - 1, 10)));
    }
}
