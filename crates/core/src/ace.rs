//! ACE analysis, occupancy tracking and the lifetime oracle.
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
//! Both modes and the [`LifetimeOracle`] behind campaign pruning come
//! from the [`AceAnalyzer`], which keeps one lifetime tracker per
//! structure. A tracker's one per-word table holds the open value of
//! every physical word (write cycle, last read) and the word's latest
//! live interval. Each storage
//! event updates that entry once; closing a value adds to both ACE counts
//! and, when the oracle is wanted, to a flat interval log. A launch
//! boundary closes only the words opened since the previous one. At the
//! end of the golden pass the log is sealed into a per-word index
//! (offsets plus sorted intervals: a liveness query is a binary search)
//! and the per-word table is freed.
//!
//! Attach an [`AceAnalyzer`] to one fault-free run and read per-structure
//! AVF and time-weighted occupancy (the red line of the paper's Fig. 1/2).

use crate::campaign::{golden_pass, Capture};
use gpu_workloads::Workload;
use grel_telemetry::NoopHook;
use simt_sim::observer::BlockRegions;
use simt_sim::{ArchConfig, FaultSite, SimError, SimObserver, Structure};
use std::sync::OnceLock;

/// Refinement level of the lifetime analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AceMode {
    /// Conservative: write → overwrite or deallocation (paper-default).
    #[default]
    LiveUntilOverwrite,
    /// Refined: write → last read before the next write.
    WriteToLastRead,
}

/// Position of a structure's tracker and index: RF, SRF, LDS.
fn slot(s: Structure) -> usize {
    match s {
        Structure::VectorRegisterFile => 0,
        Structure::ScalarRegisterFile => 1,
        Structure::LocalMemory => 2,
    }
}

/// The table entry of one physical word: `(wrote_at, last_read, tail,
/// retired)`, the cycle the open value was written (or the launch start,
/// for a read of launch-zeroed contents), its last read so far, the
/// position in the interval log of the word's latest live interval, and
/// the retirement of the value's block when nothing has read or written
/// the word since. Each is stored plus one, so zero means "none" and a
/// fresh table is zeroed memory the allocator hands out untouched: words
/// a run never uses cost nothing.
type Word = (u64, u64, u32, u64);

/// A closed live interval `lo..=hi` of the word at `sm * words_per_sm +
/// word`.
#[derive(Debug, Clone, Copy)]
struct Span {
    word: u32,
    lo: u64,
    hi: u64,
}

/// The lifetime tracker of one structure (all SMs).
#[derive(Debug, Default)]
struct Tracker {
    words: Vec<Word>,
    words_per_sm: u32,
    total_words: u64,
    /// Words opened since the last flush, the only ones a flush closes.
    opened: Vec<u32>,
    /// Live intervals in close order, merged per word as they close.
    log: Option<Vec<Span>>,
    conservative_word_cycles: u64,
    refined_word_cycles: u64,
    allocated: u64,
    occ_word_cycles: u64,
    last_event_cycle: u64,
}

impl Tracker {
    fn new(words_per_sm: u32, num_sms: u32, log: bool) -> Self {
        let total = words_per_sm as usize * num_sms as usize;
        Tracker {
            words: vec![(0, 0, 0, 0); total],
            words_per_sm,
            total_words: total as u64,
            log: log.then(Vec::new),
            ..Tracker::default()
        }
    }

    /// The table index of `(sm, word)`, or `None` for a word or SM the
    /// structure does not have (such events are ignored).
    fn idx(&self, sm: u32, word: u32) -> Option<usize> {
        let i = sm as usize * self.words_per_sm as usize + word as usize;
        (word < self.words_per_sm && i < self.words.len()).then_some(i)
    }

    /// Ends the value in word `i` at `cycle`.
    ///
    /// Conservative ACE counts `[wrote_at, cycle)`, or up to the
    /// retirement of the value's block if that came first; a value that
    /// is read counts `(wrote_at, last_read]` in refined ACE and is live
    /// over the same cycles to the oracle. Launch-rooted values (dispatch
    /// preloads and launch-zeroed contents) are vulnerable *at* the
    /// launch-start cycle too: the per-launch storage reset and preloads
    /// precede fault application within that cycle, so a flip at the
    /// boundary lands on the value. A later write lands after fault
    /// application, so a flip at its own cycle is clobbered. Refined
    /// bit-cycles therefore equal the oracle's live bit-cycles.
    fn close(&mut self, i: usize, cycle: u64, launch_start: u64) {
        let w = &mut self.words[i];
        let Some(wrote_at) = w.0.checked_sub(1) else {
            return;
        };
        let last_read = w.1.checked_sub(1);
        let held_until = w.3.checked_sub(1).unwrap_or(cycle);
        (w.0, w.1, w.3) = (0, 0, 0);
        self.conservative_word_cycles += held_until.saturating_sub(wrote_at);
        let Some(last_read) = last_read else {
            return; // never read: a dead value
        };
        let rooted = wrote_at == launch_start;
        self.refined_word_cycles += last_read.saturating_sub(wrote_at) + rooted as u64;
        let Some(log) = &mut self.log else { return };
        let lo = if rooted { wrote_at } else { wrote_at + 1 };
        // A word's intervals close in cycle order, so merging with its
        // latest one keeps them sorted and disjoint.
        match w.2.checked_sub(1).map(|t| &mut log[t as usize]) {
            Some(last) if lo <= last.hi + 1 => last.hi = last.hi.max(last_read),
            _ => {
                let (word, hi) = (i as u32, last_read);
                log.push(Span { word, lo, hi });
                w.2 = log.len() as u32;
            }
        }
    }

    fn on_write(&mut self, sm: u32, word: u32, cycle: u64, launch_start: u64) {
        let Some(i) = self.idx(sm, word) else { return };
        if self.words[i].0 == 0 {
            self.opened.push(i as u32);
        } else {
            self.close(i, cycle, launch_start);
        }
        self.words[i].0 = cycle + 1;
    }

    fn on_read(&mut self, sm: u32, word: u32, cycle: u64, launch_start: u64) {
        let Some(i) = self.idx(sm, word) else { return };
        let w = &mut self.words[i];
        if w.0 == 0 {
            // Consuming the launch-zeroed contents: the value was
            // architecturally live since the start of the launch.
            w.0 = launch_start + 1;
            self.opened.push(i as u32);
        }
        // Storage is zeroed only per launch, so a read after the block
        // retired consumes the retired value: it stays one value, held
        // as if the block had never retired.
        (w.1, w.3) = (cycle + 1, 0);
    }

    /// Marks the open values of a retiring block's region. They stay
    /// open: the next write or launch boundary closes them, and until a
    /// read proves otherwise conservative ACE holds them only up to the
    /// retirement.
    fn free_region(&mut self, sm: u32, base: u32, len: u32, cycle: u64) {
        for w in base..base.saturating_add(len).min(self.words_per_sm) {
            if let Some(i) = self.idx(sm, w) {
                let w = &mut self.words[i];
                if w.0 != 0 && w.3 == 0 {
                    w.3 = cycle + 1;
                }
            }
        }
    }

    /// Closes every value still open at a launch boundary.
    fn flush(&mut self, cycle: u64, launch_start: u64) {
        let mut opened = std::mem::take(&mut self.opened);
        for &i in &opened {
            self.close(i as usize, cycle, launch_start);
        }
        opened.clear();
        self.opened = opened;
        self.occupancy_tick(cycle);
    }

    fn occupancy_tick(&mut self, cycle: u64) {
        self.occ_word_cycles += self.allocated * cycle.saturating_sub(self.last_event_cycle);
        self.last_event_cycle = cycle;
    }

    /// The interval index of the values closed so far.
    fn index(&self) -> Index {
        let log = self.log.as_deref().unwrap_or_default();
        Index::build(log, self.total_words as usize, self.words_per_sm)
    }

    /// [`Tracker::index`], freeing the per-word table and the log.
    fn seal(&mut self) -> Index {
        let index = self.index();
        (self.words, self.opened, self.log) = (Vec::new(), Vec::new(), None);
        index
    }
}

/// The sealed live intervals of one structure: word `i`'s sorted,
/// disjoint `lo..=hi` intervals are `spans[at[i]..at[i + 1]]`.
#[derive(Debug)]
struct Index {
    at: Vec<u32>,
    spans: Vec<(u64, u64)>,
    words_per_sm: u32,
}

impl Index {
    /// Groups `log` by word, keeping each word's intervals in log order.
    fn build(log: &[Span], words: usize, words_per_sm: u32) -> Self {
        let mut at = vec![0u32; words + 1];
        for s in log {
            at[s.word as usize] += 1;
        }
        let mut end = 0;
        for a in &mut at {
            end += *a;
            *a = end;
        }
        let mut spans = vec![(0, 0); log.len()];
        for s in log.iter().rev() {
            let a = &mut at[s.word as usize];
            *a -= 1;
            spans[*a as usize] = (s.lo, s.hi);
        }
        Index {
            at,
            spans,
            words_per_sm,
        }
    }

    fn word(&self, i: usize) -> &[(u64, u64)] {
        &self.spans[self.at[i] as usize..self.at[i + 1] as usize]
    }

    fn is_dead(&self, sm: u32, word: u32, cycle: u64) -> bool {
        let i = sm as usize * self.words_per_sm as usize + word as usize;
        if word >= self.words_per_sm || i + 1 >= self.at.len() {
            return true; // out-of-range words are never consumed
        }
        let list = self.word(i);
        let p = list.partition_point(|&(lo, _)| lo <= cycle);
        p == 0 || list[p - 1].1 < cycle
    }

    fn live_bit_cycles(&self) -> u64 {
        self.spans.iter().map(|&(lo, hi)| (hi + 1 - lo) * 32).sum()
    }

    /// `(sm, word, intervals)` of every word in `[word_lo, word_hi)` of
    /// every SM, in physical order.
    fn words_in(
        &self,
        word_lo: u32,
        word_hi: u32,
    ) -> impl Iterator<Item = (u32, u32, &[(u64, u64)])> {
        let words = self.words_per_sm as usize;
        (0..self.at.len() - 1)
            .map(move |i| ((i / words) as u32, (i % words) as u32, self.word(i)))
            .filter(move |&(_, word, _)| word_lo <= word && word < word_hi)
    }

    fn live_word_cycles_in(&self, word_lo: u32, word_hi: u32, cycle_lo: u64, cycle_hi: u64) -> u64 {
        if cycle_hi <= cycle_lo {
            return 0;
        }
        let mut total = 0;
        for (_, _, list) in self.words_in(word_lo, word_hi) {
            for &(lo, hi) in list {
                // Intervals are stored inclusive; the query window is
                // half-open, so clip its upper edge back by one.
                let (lo, hi) = (lo.max(cycle_lo), hi.min(cycle_hi - 1));
                total += (hi + 1).saturating_sub(lo);
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
        for (sm, word, list) in self.words_in(word_lo, word_hi) {
            let seg = |lo, hi| WordCycleSegment { sm, word, lo, hi };
            let clipped = list
                .iter()
                .map(|&(lo, hi)| (lo.max(cycle_lo), hi.min(cycle_hi - 1)));
            let mut next = cycle_lo;
            for (lo, hi) in clipped.filter(|(lo, hi)| lo <= hi) {
                if live {
                    out.push(seg(lo, hi));
                } else if lo > next {
                    // The complement: gaps between the (sorted, disjoint)
                    // live intervals within the window.
                    out.push(seg(next, lo - 1));
                }
                next = hi + 1;
            }
            if !live && next < cycle_hi {
                out.push(seg(next, cycle_hi - 1));
            }
        }
        out
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

/// ACE-analysis + occupancy observer: the lifetime tracker of the RF, SRF
/// and LDS.
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
    /// RF, SRF and LDS (see [`slot`]).
    trackers: [Tracker; 3],
    launch_start: u64,
    total_cycles: u64,
    num_sms: u32,
    mode: AceMode,
}

impl AceAnalyzer {
    /// A conservative (paper-default) analyzer sized for `arch`.
    pub fn new(arch: &ArchConfig) -> Self {
        Self::with_mode(arch, AceMode::LiveUntilOverwrite)
    }

    /// An analyzer with an explicit refinement mode.
    pub fn with_mode(arch: &ArchConfig, mode: AceMode) -> Self {
        Self::tracking(arch, mode, false)
    }

    /// An analyzer that also records the oracle's live intervals when
    /// `intervals` is set (see [`AceAnalyzer::finish`]).
    pub(crate) fn tracking(arch: &ArchConfig, mode: AceMode, intervals: bool) -> Self {
        let words = [
            arch.rf_words_per_sm(),
            arch.srf_words_per_sm(),
            arch.lds_words_per_sm(),
        ];
        AceAnalyzer {
            trackers: words.map(|w| Tracker::new(w, arch.num_sms, intervals)),
            launch_start: 0,
            total_cycles: 0,
            num_sms: arch.num_sms,
            mode,
        }
    }

    /// Ends a golden pass: frees every per-word table and returns the
    /// analyzer when `ace` asks for it, and the sealed oracle when
    /// intervals were recorded.
    pub(crate) fn finish(mut self, ace: bool) -> (Option<Self>, Option<LifetimeOracle>) {
        let intervals = self.trackers[0].log.is_some();
        let index = self.trackers.each_mut().map(Tracker::seal);
        let oracle = intervals.then(|| LifetimeOracle {
            life: None,
            index: OnceLock::from(index),
            num_sms: self.num_sms,
        });
        (ace.then_some(self), oracle)
    }

    /// The refinement mode in use.
    pub fn mode(&self) -> AceMode {
        self.mode
    }

    /// The ACE/occupancy summary for one structure.
    ///
    /// Both ratios are over *all* executed cycles and the structure
    /// capacity of all SMs — the same site space the fault-injection
    /// campaign samples uniformly.
    pub fn report(&self, s: Structure) -> StructureReport {
        let t = &self.trackers[slot(s)];
        let total_bits = t.total_words * 32;
        let denom = (total_bits as f64) * (self.total_cycles as f64);
        let ace_bit_cycles = 32
            * match self.mode {
                AceMode::LiveUntilOverwrite => t.conservative_word_cycles,
                AceMode::WriteToLastRead => t.refined_word_cycles,
            };
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
        self.trackers[0].on_write(sm, word, cycle, self.launch_start);
    }
    fn on_rf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.trackers[0].on_read(sm, word, cycle, self.launch_start);
    }
    fn on_srf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.trackers[1].on_write(sm, word, cycle, self.launch_start);
    }
    fn on_srf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.trackers[1].on_read(sm, word, cycle, self.launch_start);
    }
    fn on_lds_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.trackers[2].on_write(sm, word, cycle, self.launch_start);
    }
    fn on_lds_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.trackers[2].on_read(sm, word, cycle, self.launch_start);
    }
    fn on_block_dispatch(&mut self, _sm: u32, r: BlockRegions, cycle: u64) {
        for (t, len) in self
            .trackers
            .iter_mut()
            .zip([r.rf_len, r.srf_len, r.lds_len])
        {
            t.occupancy_tick(cycle);
            t.allocated += len as u64;
        }
    }
    fn on_block_retire(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
        let regions = [
            (r.rf_base, r.rf_len),
            (r.srf_base, r.srf_len),
            (r.lds_base, r.lds_len),
        ];
        for (t, (base, len)) in self.trackers.iter_mut().zip(regions) {
            t.occupancy_tick(cycle);
            t.allocated -= len as u64;
            t.free_region(sm, base, len, cycle);
        }
    }
    fn on_launch_begin(&mut self, _name: &str, cycle: u64) {
        for t in &mut self.trackers {
            t.flush(cycle, self.launch_start);
        }
        self.launch_start = cycle;
    }
    fn on_launch_end(&mut self, cycle: u64) {
        for t in &mut self.trackers {
            t.flush(cycle, self.launch_start);
        }
        self.total_cycles = cycle;
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
    /// The tracker of a run still being observed; `None` once sealed.
    life: Option<AceAnalyzer>,
    /// The RF, SRF and LDS indexes, built on the first query after the
    /// last event.
    index: OnceLock<[Index; 3]>,
    num_sms: u32,
}

impl LifetimeOracle {
    /// An empty oracle sized for `arch`; attach it to a fault-free run
    /// as a [`SimObserver`] (or use [`LifetimeOracle::capture`]).
    pub fn new(arch: &ArchConfig) -> Self {
        LifetimeOracle {
            life: Some(AceAnalyzer::tracking(arch, AceMode::default(), true)),
            index: OnceLock::new(),
            num_sms: arch.num_sms,
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

    fn index(&self, s: Structure) -> &Index {
        let index = self.index.get_or_init(|| {
            let life = self.life.as_ref().expect("a sealed oracle holds its index");
            life.trackers.each_ref().map(Tracker::index)
        });
        &index[slot(s)]
    }

    /// Feeds an event to the tracker of a run still being observed; any
    /// index built so far goes stale. A sealed oracle ignores events.
    fn observe(&mut self, event: impl FnOnce(&mut AceAnalyzer)) {
        if let Some(life) = &mut self.life {
            self.index.take();
            event(life);
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
        self.index(site.structure)
            .is_dead(sm, site.word, site.cycle)
    }

    /// Total live bit-cycles of one structure: the union of all live
    /// intervals, times 32 bits per word. Equals the refined
    /// ([`AceMode::WriteToLastRead`]) ACE bit-cycle count — both come
    /// from the same closed values.
    pub fn live_bit_cycles(&self, s: Structure) -> u64 {
        self.index(s).live_bit_cycles()
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
        self.index(s)
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
        self.index(s)
            .segments_in(word_lo, word_hi, cycle_lo, cycle_hi, live)
    }
}

impl SimObserver for LifetimeOracle {
    fn on_rf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.observe(|l| l.on_rf_write(sm, word, cycle));
    }
    fn on_rf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.observe(|l| l.on_rf_read(sm, word, cycle));
    }
    fn on_srf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.observe(|l| l.on_srf_write(sm, word, cycle));
    }
    fn on_srf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.observe(|l| l.on_srf_read(sm, word, cycle));
    }
    fn on_lds_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.observe(|l| l.on_lds_write(sm, word, cycle));
    }
    fn on_lds_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.observe(|l| l.on_lds_read(sm, word, cycle));
    }
    fn on_block_dispatch(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
        self.observe(|l| l.on_block_dispatch(sm, r, cycle));
    }
    fn on_block_retire(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
        self.observe(|l| l.on_block_retire(sm, r, cycle));
    }
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        self.observe(|l| l.on_launch_begin(name, cycle));
    }
    fn on_launch_end(&mut self, cycle: u64) {
        self.observe(|l| l.on_launch_end(cycle));
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
    fn a_read_after_block_retirement_continues_the_retired_value() {
        // Storage is zeroed per launch, not per block: the read at 30
        // consumes the value written at 10 by the retired block.
        let block = BlockRegions {
            rf_base: 0,
            rf_len: 8,
            ..Default::default()
        };
        let drive = |obs: &mut dyn SimObserver| {
            obs.on_launch_begin("k", 0);
            obs.on_block_dispatch(0, block, 0);
            obs.on_rf_write(0, 3, 10);
            obs.on_rf_read(0, 3, 12);
            obs.on_block_retire(0, block, 20);
            obs.on_block_dispatch(0, block, 25);
            obs.on_rf_read(0, 3, 30);
            obs.on_block_retire(0, block, 35);
            obs.on_launch_end(40);
        };
        let (mut r, mut c) = (refined(), conservative());
        let mut oracle = LifetimeOracle::new(&ArchConfig::small_test_gpu());
        drive(&mut r);
        drive(&mut c);
        drive(&mut oracle);
        // Flips in (10, 30] are read: 20 word-cycles, as the oracle says.
        let rf = Structure::VectorRegisterFile;
        assert_eq!(oracle.live_bit_cycles(rf), 20 * 32);
        assert_eq!(r.report(rf).ace_bit_cycles, 20 * 32);
        assert!(
            !oracle.is_dead(rf_site(3, 15)),
            "a flip before the retirement is read at 30"
        );
        assert!(oracle.is_dead(rf_site(3, 31)));
        // Conservative holds the value until its second block retires.
        assert_eq!(c.report(rf).ace_bit_cycles, 25 * 32);
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

    #[test]
    fn events_from_missing_sms_are_ignored() {
        let arch = ArchConfig::small_test_gpu();
        let mut a = AceAnalyzer::new(&arch);
        a.on_launch_begin("k", 0);
        a.on_rf_write(arch.num_sms + 3, 0, 1);
        a.on_rf_read(arch.num_sms + 3, 0, 2);
        a.on_lds_write(arch.num_sms, 0, 3);
        a.on_launch_end(10);
        assert_eq!(a.report(Structure::VectorRegisterFile).ace_bit_cycles, 0);
        assert_eq!(a.report(Structure::LocalMemory).ace_bit_cycles, 0);
    }

    /// One event of a synthetic stream; `usize` is the structure slot.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Read(usize, u32, u32, u64),
        Write(usize, u32, u32, u64),
        Dispatch(u32, BlockRegions, u64),
        Retire(u32, BlockRegions, u64),
        Begin(u64),
        End(u64),
    }

    const SLOTS: [Structure; 3] = [
        Structure::VectorRegisterFile,
        Structure::ScalarRegisterFile,
        Structure::LocalMemory,
    ];

    /// Two SMs with 6 RF, 3 SRF and 4 LDS words each.
    fn tiny_arch() -> ArchConfig {
        let mut a = ArchConfig::small_test_gpu_scalar();
        a.regfile_bytes_per_sm = 6 * 4;
        a.sregfile_bytes_per_sm = 3 * 4;
        a.lds_bytes_per_sm = 4 * 4;
        a
    }

    fn region(r: BlockRegions, s: usize) -> (u32, u32) {
        [
            (r.rf_base, r.rf_len),
            (r.srf_base, r.srf_len),
            (r.lds_base, r.lds_len),
        ][s]
    }

    /// Turns raw `(kind, slot, sm, word, dt)` draws into a stream the
    /// simulator could emit: cycles never decrease, every block retires
    /// before its launch ends, and no read shares a cycle with a launch
    /// boundary. SMs and words run past the device so that out-of-range
    /// events occur too.
    fn stream(raw: &[(u8, usize, u32, u32, u64)]) -> Vec<Ev> {
        let mut evs = vec![Ev::Begin(0)];
        let (mut cycle, mut launch) = (0, 0);
        let mut blocks: Vec<(u32, BlockRegions)> = Vec::new();
        for (n, &(kind, s, sm, word, dt)) in raw.iter().enumerate() {
            cycle += dt;
            match kind {
                0..=3 => {
                    cycle = cycle.max(launch + 1);
                    evs.push(Ev::Read(s, sm, word, cycle));
                }
                4..=6 => evs.push(Ev::Write(s, sm, word, cycle)),
                7 | 8 => {
                    let r = BlockRegions {
                        rf_base: word,
                        rf_len: dt as u32 + 1,
                        srf_base: word % 4,
                        srf_len: 2,
                        lds_base: (word + n as u32) % 5,
                        lds_len: (n % 4) as u32,
                    };
                    blocks.push((sm, r));
                    evs.push(Ev::Dispatch(sm, r, cycle));
                }
                9 | 10 if !blocks.is_empty() => {
                    cycle = cycle.max(launch + 1);
                    let (bsm, r) = blocks.remove(word as usize % blocks.len());
                    evs.push(Ev::Retire(bsm, r, cycle));
                }
                11 => {
                    cycle = cycle.max(launch) + 1;
                    evs.extend(blocks.drain(..).map(|(bsm, r)| Ev::Retire(bsm, r, cycle)));
                    evs.push(Ev::End(cycle));
                    cycle += dt;
                    launch = cycle;
                    evs.push(Ev::Begin(cycle));
                }
                _ => {}
            }
        }
        cycle = cycle.max(launch) + 1;
        evs.extend(blocks.drain(..).map(|(bsm, r)| Ev::Retire(bsm, r, cycle)));
        evs.push(Ev::End(cycle));
        evs
    }

    fn drive(obs: &mut dyn SimObserver, evs: &[Ev]) {
        for &e in evs {
            match e {
                Ev::Read(0, sm, w, c) => obs.on_rf_read(sm, w, c),
                Ev::Read(1, sm, w, c) => obs.on_srf_read(sm, w, c),
                Ev::Read(_, sm, w, c) => obs.on_lds_read(sm, w, c),
                Ev::Write(0, sm, w, c) => obs.on_rf_write(sm, w, c),
                Ev::Write(1, sm, w, c) => obs.on_srf_write(sm, w, c),
                Ev::Write(_, sm, w, c) => obs.on_lds_write(sm, w, c),
                Ev::Dispatch(sm, r, c) => obs.on_block_dispatch(sm, r, c),
                Ev::Retire(sm, r, c) => obs.on_block_retire(sm, r, c),
                Ev::Begin(c) => obs.on_launch_begin("k", c),
                Ev::End(c) => obs.on_launch_end(c),
            }
        }
    }

    /// Brute-force per-cycle model of one word of the stream.
    struct WordModel<'a> {
        evs: &'a [Ev],
        s: usize,
        sm: u32,
        word: u32,
    }

    impl WordModel<'_> {
        /// `Some(is_read)` when event `e` reads (`true`) or clobbers
        /// (`false`) this word: a write or a launch boundary. A block
        /// retirement clobbers nothing (storage is reset per launch).
        fn touch(&self, e: Ev) -> Option<bool> {
            let me = |s, sm, w| (s, sm, w) == (self.s, self.sm, self.word);
            match e {
                Ev::Read(s, sm, w, _) if me(s, sm, w) => Some(true),
                Ev::Write(s, sm, w, _) if me(s, sm, w) => Some(false),
                Ev::Begin(_) | Ev::End(_) => Some(false),
                _ => None,
            }
        }

        /// Whether `e` retires a block whose region holds this word.
        fn frees(&self, e: Ev) -> bool {
            let Ev::Retire(sm, r, _) = e else {
                return false;
            };
            let (base, len) = region(r, self.s);
            sm == self.sm && (base..base + len).contains(&self.word)
        }

        /// Whether a flip at `cycle` is read before it is clobbered. The
        /// flip lands before every event of its cycle, except at a launch
        /// start, where the reset and the dispatch preloads come first.
        fn live(&self, cycle: u64) -> bool {
            let launch_start = self
                .evs
                .iter()
                .any(|&e| matches!(e, Ev::Begin(c) if c == cycle));
            let at = |e: &Ev| match *e {
                Ev::Read(.., c) | Ev::Write(.., c) | Ev::Begin(c) | Ev::End(c) => c,
                Ev::Dispatch(.., c) | Ev::Retire(.., c) => c,
            };
            let first = self
                .evs
                .iter()
                .position(|e| at(e) > cycle || (at(e) == cycle && !launch_start))
                .unwrap_or(self.evs.len());
            self.evs[first..].iter().find_map(|&e| self.touch(e)) == Some(true)
        }

        /// Conservative `[open, close)` windows: a write, or a read of
        /// launch-zeroed contents (open at the launch start), until the
        /// next write or launch end — or until the block retires, unless
        /// a later read consumes the retired value.
        fn held(&self, cycle: u64) -> bool {
            let (mut launch, mut open, mut retired) = (0, None, None);
            for &e in self.evs {
                let c = match e {
                    Ev::Begin(c) => {
                        launch = c;
                        continue;
                    }
                    Ev::Retire(.., c) if open.is_some() && self.frees(e) => {
                        retired = retired.or(Some(c));
                        continue;
                    }
                    Ev::Read(.., c) | Ev::Write(.., c) | Ev::End(c) => c,
                    Ev::Dispatch(..) | Ev::Retire(..) => continue,
                };
                match (self.touch(e), open) {
                    (Some(true), None) => open = Some(launch),
                    (Some(true), Some(_)) => retired = None,
                    (None, _) => {}
                    (Some(false), o) => {
                        let until = retired.take().unwrap_or(c);
                        if o.is_some_and(|o| o <= cycle && cycle < until) {
                            return true;
                        }
                        open = matches!(e, Ev::Write(..)).then_some(c);
                    }
                }
            }
            false
        }
    }

    fn raw_event() -> impl Strategy<Value = (u8, usize, u32, u32, u64)> {
        (0u8..12, 0usize..3, 0u32..3, 0u32..7, 0u64..4)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn tracker_matches_a_per_cycle_model(raw in proptest::collection::vec(raw_event(), 0..80)) {
            let arch = tiny_arch();
            let evs = stream(&raw);
            let end = match evs.last() { Some(&Ev::End(c)) => c, _ => unreachable!() };
            let mut cons = AceAnalyzer::new(&arch);
            let mut refined = AceAnalyzer::with_mode(&arch, AceMode::WriteToLastRead);
            let mut observed = LifetimeOracle::new(&arch);
            let mut shared = AceAnalyzer::tracking(&arch, AceMode::WriteToLastRead, true);
            drive(&mut cons, &evs);
            drive(&mut refined, &evs);
            drive(&mut observed, &evs);
            drive(&mut shared, &evs);
            let (shared, sealed) = shared.finish(true);
            let (shared, sealed) = (shared.unwrap(), sealed.unwrap());
            let words = [arch.rf_words_per_sm(), arch.srf_words_per_sm(), arch.lds_words_per_sm()];
            for (s, structure) in SLOTS.into_iter().enumerate() {
                let model = |sm, word| WordModel { evs: &evs, s, sm, word };
                let cells = |f: &dyn Fn(&WordModel, u64) -> bool| -> u64 {
                    let mut n = 0;
                    for sm in 0..arch.num_sms {
                        for w in 0..words[s] {
                            n += (0..=end).filter(|&c| f(&model(sm, w), c)).count() as u64;
                        }
                    }
                    n
                };
                let (held, live) = (cells(&|m, c| m.held(c)), cells(&|m, c| m.live(c)));
                let mut occ = 0;
                for (i, e) in evs.iter().enumerate() {
                    if let Ev::Dispatch(sm, r, d) = *e {
                        let retired = evs[i..].iter().find_map(|&e| match e {
                            Ev::Retire(rsm, rr, c) if rsm == sm && rr == r => Some(c),
                            _ => None,
                        });
                        occ += region(r, s).1 as u64 * (retired.unwrap() - d);
                    }
                }
                let total = words[s] as u64 * arch.num_sms as u64;
                let occupancy = if total > 0 { occ as f64 / (total as f64 * end as f64) } else { 0.0 };
                prop_assert_eq!(cons.report(structure).ace_bit_cycles, held * 32, "{:?} {:?}", structure, evs);
                prop_assert_eq!(cons.report(structure).occupancy, occupancy, "{:?}", structure);
                prop_assert_eq!(refined.report(structure).ace_bit_cycles, live * 32, "{:?} {:?}", structure, evs);
                prop_assert_eq!(shared.report(structure), refined.report(structure));
                for oracle in [&observed, &sealed] {
                    prop_assert_eq!(oracle.live_bit_cycles(structure), live * 32);
                    for sm in 0..=arch.num_sms {
                        for word in 0..words[s] + 2 {
                            for cycle in 0..end + 2 {
                                let site = FaultSite::new(structure, sm, word, 0, cycle);
                                let dead = word >= words[s] || !model(sm % arch.num_sms, word).live(cycle);
                                prop_assert_eq!(oracle.is_dead(site), dead, "{:?} {:?}", site, evs);
                            }
                        }
                    }
                    for (wl, wh, cl, ch) in [(0, words[s] + 1, 0, end + 2), (1, 3, end / 3, 2 * end / 3 + 1)] {
                        let mut want = [Vec::new(), Vec::new()];
                        let mut count = 0;
                        for sm in 0..arch.num_sms {
                            for word in wl..wh.min(words[s]) {
                                let m = model(sm, word);
                                let mut c = cl;
                                while c < ch {
                                    let l = m.live(c);
                                    let lo = c;
                                    while c < ch && m.live(c) == l {
                                        c += 1;
                                    }
                                    count += if l { c - lo } else { 0 };
                                    want[l as usize].push(WordCycleSegment { sm, word, lo, hi: c - 1 });
                                }
                            }
                        }
                        prop_assert_eq!(oracle.live_word_cycles_in(structure, wl, wh, cl, ch), count);
                        for live in [false, true] {
                            prop_assert_eq!(&oracle.segments_in(structure, wl, wh, cl, ch, live), &want[live as usize]);
                        }
                    }
                }
            }
        }
    }
}
