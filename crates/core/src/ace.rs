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
//! structure. Its layout:
//!
//! * **The word table**, one 16-byte entry per physical word, allocated
//!   zeroed (words a run never uses cost nothing when the allocator maps
//!   fresh pages): the open value's state (its write cycle, or "read"
//!   once a read has consumed it), its block's retirement cycle, and the
//!   word's *latest* live interval `lo..=hi`. Cycles are `u32`; an event
//!   at or past [`CYCLE_LIMIT`] is dropped and reported instead (a golden
//!   pass fails with [`SimError::CycleLimit`]).
//! * **The interval log**, kept only for the oracle: an append-only list
//!   of 12-byte spans `(lo, hi, prev)` in fixed-size chunks, where `prev`
//!   links to the same word's previous span, plus one head per word. A
//!   span is appended only when the word's latest interval is final, i.e.
//!   when a later value of the word is read and does not extend it.
//!
//! Each storage event touches one table entry. The first read of a value
//! settles its interval: it extends the latest one when it starts at or
//! right after that interval's end (an accumulator's read and write in
//! one cycle), and otherwise appends the latest one to the log and
//! replaces it. Later reads move `hi`, and both ACE counts grow by the
//! cycles since the value's previous read, so a value's counts telescope
//! to `last read − write` exactly as if they were taken at its close. A
//! launch boundary closes only the words opened since the previous one.
//!
//! Sealing at the end of the golden pass appends every word's latest
//! interval to the log and frees the table: there is no sort and no
//! copy. A query walks one word's chain, latest first. The chain holds
//! exactly the sorted, disjoint intervals a per-word list would, in
//! reverse, so every interval, count and oracle answer is the one the
//! event stream defines, whatever the log's order across words.
//!
//! Attach an [`AceAnalyzer`] to one fault-free run and read per-structure
//! AVF and time-weighted occupancy (the red line of the paper's Fig. 1/2).

use crate::campaign::{golden_pass, Capture};
use gpu_workloads::Workload;
use grel_telemetry::NoopHook;
use simt_sim::observer::BlockRegions;
use simt_sim::{ArchConfig, FaultSite, SimError, SimObserver, Structure};
use std::sync::OnceLock;

/// The first cycle the lifetime tracker cannot record: cycles are stored
/// as `u32`, plus one, and `u32::MAX` marks a value that was read.
pub const CYCLE_LIMIT: u64 = u32::MAX as u64 - 1;

/// Refinement level of the lifetime analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AceMode {
    /// Conservative: write → overwrite or deallocation (paper-default).
    #[default]
    LiveUntilOverwrite,
    /// Refined: write → last read before the next write.
    WriteToLastRead,
}

/// The table entry of one physical word: `(open, retired, lo, hi1)`.
///
/// * `open`: zero when no value is open, [`READ`] once the open value has
///   been read, else the cycle it was written plus one (the launch start
///   for a read of launch-zeroed contents).
/// * `retired`: the retirement of the value's block plus one, when
///   nothing has read or written the word since; else zero.
/// * `lo..=hi1 - 1`: the word's latest live interval; `hi1` is zero
///   until the word has one. Once the open value is read, `hi1 - 1` is
///   its last read.
///
/// A tuple of integers, so a fresh table is zeroed memory.
type Word = (u32, u32, u32, u32);

/// `open` of a value that has been read: its write cycle is no longer
/// needed, because both ACE counts run from its last read on.
const READ: u32 = u32::MAX;

/// A live interval `lo..=hi` of one word in the log. `prev` is one plus
/// the log position of the word's previous interval, zero for its first.
#[derive(Debug, Clone, Copy)]
struct Span {
    lo: u32,
    hi: u32,
    prev: u32,
}

/// Spans per chunk of the log (384 KiB). The log grows a chunk at a
/// time, so it is never copied to grow, and the chunks a dropped oracle
/// frees are the size the next golden pass asks for. One doubling `Vec`
/// per log kept far more of a study's memory resident (CHANGES.md).
const CHUNK: usize = 1 << 15;

/// The lifetime tracker of one structure (all SMs).
#[derive(Debug, Default)]
struct Tracker {
    words: Vec<Word>,
    words_per_sm: u32,
    total_words: u64,
    /// Words opened since the last flush, the only ones a flush closes.
    opened: Vec<u32>,
    /// The oracle's interval log, when it is wanted.
    log: Option<Index>,
    /// Words whose latest interval is in the table; sealing appends them.
    latest: Vec<u32>,
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
            log: log.then(|| Index::new(total, words_per_sm)),
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
    /// over the same cycles to the oracle. Reads already counted both up
    /// to the last read, so only the rest is added here.
    fn close(&mut self, i: usize, cycle: u32) {
        let w = &mut self.words[i];
        let counted_to = match w.0 {
            0 => return,
            READ => w.3 - 1,
            open => open - 1,
        };
        let held_until = w.1.checked_sub(1).unwrap_or(cycle);
        (w.0, w.1) = (0, 0);
        self.conservative_word_cycles += held_until.saturating_sub(counted_to) as u64;
    }

    fn on_write(&mut self, sm: u32, word: u32, cycle: u32) {
        let Some(i) = self.idx(sm, word) else { return };
        if self.words[i].0 == 0 {
            self.opened.push(i as u32);
        } else {
            self.close(i, cycle);
        }
        self.words[i].0 = cycle + 1;
    }

    /// Launch-rooted values (dispatch preloads and launch-zeroed
    /// contents) are vulnerable *at* the launch-start cycle too: the
    /// per-launch storage reset and preloads precede fault application
    /// within that cycle, so a flip at the boundary lands on the value. A
    /// later write lands after fault application, so a flip at its own
    /// cycle is clobbered. Refined bit-cycles therefore equal the
    /// oracle's live bit-cycles.
    fn on_read(&mut self, sm: u32, word: u32, cycle: u32, launch_start: u32) {
        let Some(i) = self.idx(sm, word) else { return };
        let w = &mut self.words[i];
        // Storage is zeroed only per launch, so a read after the block
        // retired consumes the retired value: it stays one value, held
        // as if the block had never retired.
        w.1 = 0;
        match w.0 {
            READ => {
                let more = cycle.saturating_sub(w.3 - 1) as u64;
                self.conservative_word_cycles += more;
                self.refined_word_cycles += more;
                w.3 = w.3.max(cycle + 1);
                return;
            }
            0 => {
                // Consuming the launch-zeroed contents: the value was
                // architecturally live since the start of the launch.
                w.0 = launch_start + 1;
                self.opened.push(i as u32);
            }
            _ => {}
        }
        let wrote_at = w.0 - 1;
        let rooted = wrote_at == launch_start;
        let lo = wrote_at + !rooted as u32;
        w.0 = READ;
        self.conservative_word_cycles += cycle.saturating_sub(wrote_at) as u64;
        self.refined_word_cycles += cycle.saturating_sub(wrote_at) as u64 + rooted as u64;
        // A word's values are read in cycle order, so extending its latest
        // interval or starting a new one keeps them sorted and disjoint.
        if w.3 != 0 && lo <= w.3 {
            w.3 = w.3.max(cycle + 1);
            return;
        }
        let (last_lo, last_hi1) = (w.2, w.3);
        (w.2, w.3) = (lo, cycle + 1);
        if let Some(log) = &mut self.log {
            if last_hi1 == 0 {
                self.latest.push(i as u32);
            } else {
                log.push(i, last_lo, last_hi1 - 1);
            }
        }
    }

    /// Marks the open values of a retiring block's region. They stay
    /// open: the next write or launch boundary closes them, and until a
    /// read proves otherwise conservative ACE holds them only up to the
    /// retirement.
    fn free_region(&mut self, sm: u32, base: u32, len: u32, cycle: u32) {
        for w in base..base.saturating_add(len).min(self.words_per_sm) {
            if let Some(i) = self.idx(sm, w) {
                let w = &mut self.words[i];
                if w.0 != 0 && w.1 == 0 {
                    w.1 = cycle + 1;
                }
            }
        }
    }

    /// Closes every value still open at a launch boundary.
    fn flush(&mut self, cycle: u32) {
        let mut opened = std::mem::take(&mut self.opened);
        for &i in &opened {
            self.close(i as usize, cycle);
        }
        opened.clear();
        self.opened = opened;
        self.occupancy_tick(cycle as u64);
    }

    fn occupancy_tick(&mut self, cycle: u64) {
        self.occ_word_cycles += self.allocated * cycle.saturating_sub(self.last_event_cycle);
        self.last_event_cycle = cycle;
    }

    /// Appends every word's latest interval to `log`.
    fn complete(&self, mut log: Index) -> Index {
        for &i in &self.latest {
            let (_, _, lo, hi1) = self.words[i as usize];
            log.push(i as usize, lo, hi1 - 1);
        }
        log
    }

    /// The intervals of the values read so far, leaving the tracker as
    /// it is (a copy of the log).
    fn index(&self) -> Index {
        self.complete(self.log.clone().unwrap_or_default())
    }

    /// Frees the per-word table and returns the sealed log, if one was
    /// kept.
    fn seal(&mut self) -> Option<Index> {
        let index = self.log.take().map(|log| self.complete(log));
        (self.words, self.opened, self.latest) = (Vec::new(), Vec::new(), Vec::new());
        index
    }
}

/// The live intervals of one structure: one chain of [`Span`]s per word,
/// latest first. Each word's intervals are sorted and disjoint, so along
/// a chain both ends of the intervals strictly decrease.
#[derive(Debug, Clone, Default)]
struct Index {
    /// The log, [`CHUNK`] spans a chunk.
    chunks: Vec<Vec<Span>>,
    /// Per word, one plus the log position of its latest interval (zero:
    /// none).
    heads: Vec<u32>,
    words_per_sm: u32,
}

impl Index {
    fn new(words: usize, words_per_sm: u32) -> Self {
        Index {
            chunks: Vec::new(),
            heads: vec![0; words],
            words_per_sm,
        }
    }

    fn push(&mut self, i: usize, lo: u32, hi: u32) {
        let prev = self.heads[i];
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let n = self.chunks.len() - 1;
        self.chunks[n].push(Span { lo, hi, prev });
        self.heads[i] = (n * CHUNK + self.chunks[n].len()) as u32;
    }

    /// Intervals in the log.
    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Word `i`'s intervals `(lo, hi)` that end at or after `cycle`,
    /// latest first.
    fn chain(&self, i: usize, cycle: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut at = self.heads[i];
        std::iter::from_fn(move || {
            let k = at.checked_sub(1)? as usize;
            let s = self.chunks[k / CHUNK][k % CHUNK];
            at = s.prev;
            Some((s.lo as u64, s.hi as u64))
        })
        .take_while(move |&(_, hi)| hi >= cycle)
    }

    fn is_dead(&self, sm: u32, word: u32, cycle: u64) -> bool {
        let i = sm as usize * self.words_per_sm as usize + word as usize;
        if word >= self.words_per_sm || i >= self.heads.len() {
            return true; // out-of-range words and SMs are never consumed
        }
        self.chain(i, cycle).all(|(lo, _)| lo > cycle)
    }

    fn live_bit_cycles(&self) -> u64 {
        let live = |s: &Span| s.hi as u64 + 1 - s.lo as u64;
        self.chunks.iter().flatten().map(live).sum::<u64>() * 32
    }

    /// Bytes the index holds.
    fn bytes(&self) -> usize {
        let spans: usize = self.chunks.iter().map(Vec::capacity).sum();
        spans * std::mem::size_of::<Span>() + self.heads.capacity() * 4
    }

    /// Calls `f(sm, word, table index)` for every word in
    /// `[word_lo, word_hi)` of every SM, in physical order.
    fn for_words(&self, word_lo: u32, word_hi: u32, mut f: impl FnMut(u32, u32, usize)) {
        let words = self.words_per_sm as usize;
        let sms = self.heads.len().checked_div(words).unwrap_or(0);
        for sm in 0..sms {
            for word in word_lo..word_hi.min(self.words_per_sm) {
                f(sm as u32, word, sm * words + word as usize);
            }
        }
    }

    fn live_word_cycles_in(&self, word_lo: u32, word_hi: u32, cycle_lo: u64, cycle_hi: u64) -> u64 {
        if cycle_hi <= cycle_lo {
            return 0;
        }
        let mut total = 0;
        self.for_words(word_lo, word_hi, |_, _, i| {
            for (lo, hi) in self.chain(i, cycle_lo) {
                // Intervals are stored inclusive; the query window is
                // half-open, so clip its upper edge back by one.
                let (lo, hi) = (lo.max(cycle_lo), hi.min(cycle_hi - 1));
                total += (hi + 1).saturating_sub(lo);
            }
        });
        total
    }

    fn segments_in(
        &self,
        word_lo: u32,
        word_hi: u32,
        cycle_lo: u64,
        cycle_hi: u64,
    ) -> Vec<WordCycleSegment> {
        let mut out = Vec::new();
        if cycle_hi <= cycle_lo {
            return out;
        }
        let mut list = Vec::new();
        self.for_words(word_lo, word_hi, |sm, word, i| {
            list.clear();
            list.extend(self.chain(i, cycle_lo));
            // The chain runs newest first; emit in cycle order.
            for &(lo, hi) in list.iter().rev() {
                let (lo, hi) = (lo.max(cycle_lo), hi.min(cycle_hi - 1));
                if lo <= hi {
                    out.push(WordCycleSegment { sm, word, lo, hi });
                }
            }
        });
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
    /// One tracker per structure, keyed by [`Structure::index`].
    trackers: [Tracker; 3],
    launch_start: u32,
    total_cycles: u64,
    /// The first event cycle at or past [`CYCLE_LIMIT`], if any.
    untracked: Option<u64>,
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
        AceAnalyzer {
            trackers: Structure::ALL
                .map(|s| Tracker::new(arch.words_per_sm(s), arch.num_sms, intervals)),
            launch_start: 0,
            total_cycles: 0,
            untracked: None,
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
            index: OnceLock::from(index.map(Option::unwrap_or_default)),
        });
        (ace.then_some(self), oracle)
    }

    /// `Ok` unless an event reached [`CYCLE_LIMIT`]: the tracker drops
    /// such events, so its counts and intervals would be incomplete. The
    /// error names `workload`, `device` and the first such cycle.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] when an event was dropped.
    pub fn within_cycle_limit(&self, workload: &str, device: &str) -> Result<(), SimError> {
        match self.untracked {
            None => Ok(()),
            Some(cycle) => Err(SimError::CycleLimit {
                workload: workload.to_string(),
                device: device.to_string(),
                cycle,
                limit: CYCLE_LIMIT,
            }),
        }
    }

    /// `cycle` as the tracker stores it, or `None` (and the cycle noted)
    /// when it is at or past [`CYCLE_LIMIT`].
    fn tracked(&mut self, cycle: u64) -> Option<u32> {
        if cycle < CYCLE_LIMIT {
            return Some(cycle as u32);
        }
        self.untracked.get_or_insert(cycle);
        None
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
        let t = &self.trackers[s.index()];
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
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if let Some(cycle) = self.tracked(cycle) {
            self.trackers[structure.index()].on_write(sm, word, cycle);
        }
    }
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if let Some(cycle) = self.tracked(cycle) {
            self.trackers[structure.index()].on_read(sm, word, cycle, self.launch_start);
        }
    }
    fn on_block_dispatch(&mut self, _sm: u32, r: BlockRegions, cycle: u64) {
        if self.tracked(cycle).is_none() {
            return;
        }
        for (t, s) in self.trackers.iter_mut().zip(Structure::ALL) {
            t.occupancy_tick(cycle);
            t.allocated += r.region(s).1 as u64;
        }
    }
    fn on_block_retire(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
        let Some(at) = self.tracked(cycle) else {
            return;
        };
        for (t, s) in self.trackers.iter_mut().zip(Structure::ALL) {
            let (base, len) = r.region(s);
            t.occupancy_tick(cycle);
            t.allocated -= len as u64;
            t.free_region(sm, base, len, at);
        }
    }
    fn on_launch_begin(&mut self, _name: &str, cycle: u64) {
        let Some(cycle) = self.tracked(cycle) else {
            return;
        };
        for t in &mut self.trackers {
            t.flush(cycle);
        }
        self.launch_start = cycle;
    }
    fn on_launch_end(&mut self, cycle: u64) {
        let Some(at) = self.tracked(cycle) else {
            return;
        };
        for t in &mut self.trackers {
            t.flush(at);
        }
        self.total_cycles = cycle;
    }
}

/// A run of consecutive cycles (`lo..=hi`, inclusive) during which one
/// physical word is live — the unit the adaptive sampler's rank→site
/// mapping bisects over.
///
/// [`WordCycleSegment`]s come sorted by `(sm, word, lo)` and never
/// overlap, so the dead sites are their complement in the same order.
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
    /// One index per structure (keyed by [`Structure::index`]), built
    /// on the first query after the last event.
    index: OnceLock<[Index; 3]>,
}

impl LifetimeOracle {
    /// An empty oracle sized for `arch`; attach it to a fault-free run
    /// as a [`SimObserver`] (or use [`LifetimeOracle::capture`]).
    pub fn new(arch: &ArchConfig) -> Self {
        LifetimeOracle {
            life: Some(AceAnalyzer::tracking(arch, AceMode::default(), true)),
            index: OnceLock::new(),
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
        let pass = golden_pass(arch, workload, capture, None, &NoopHook)?;
        Ok(pass.oracle.expect("the oracle was captured"))
    }

    fn index(&self, s: Structure) -> &Index {
        let index = self.index.get_or_init(|| {
            let life = self.life.as_ref().expect("a sealed oracle holds its index");
            life.trackers.each_ref().map(Tracker::index)
        });
        &index[s.index()]
    }

    /// Live intervals the oracle holds, over all three structures.
    pub(crate) fn intervals(&self) -> usize {
        Structure::ALL.iter().map(|&s| self.index(s).len()).sum()
    }

    /// Bytes the oracle's intervals and per-word heads take.
    pub(crate) fn bytes(&self) -> usize {
        Structure::ALL.iter().map(|&s| self.index(s).bytes()).sum()
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
    /// models even with a caller-supplied oracle. A site on an SM the
    /// device lacks is dead: the device refuses to arm it.
    pub fn is_dead(&self, site: FaultSite) -> bool {
        if !site.is_transient() {
            return false;
        }
        self.index(site.structure)
            .is_dead(site.sm, site.word, site.cycle)
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
    /// every maximal live cycle run of every word in the window, across
    /// all SMs, in `(sm, word, cycle)` order. The adaptive sampler
    /// bisects the cumulative lengths of this list (or of its
    /// complement, for the dead sites) to map a stratum-local rank to a
    /// concrete `(sm, word, cycle)` — which is what lets it draw from a
    /// rare stratum directly instead of rejection-scanning the full
    /// site population.
    pub(crate) fn segments_in(
        &self,
        s: Structure,
        word_lo: u32,
        word_hi: u32,
        cycle_lo: u64,
        cycle_hi: u64,
    ) -> Vec<WordCycleSegment> {
        self.index(s)
            .segments_in(word_lo, word_hi, cycle_lo, cycle_hi)
    }
}

impl SimObserver for LifetimeOracle {
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.observe(|l| l.on_write(sm, structure, word, cycle));
    }
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.observe(|l| l.on_read(sm, structure, word, cycle));
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
    use Structure::{LocalMemory as Lds, ScalarRegisterFile as Srf, VectorRegisterFile as Rf};

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
        a.on_write(0, Rf, 5, 10);
        a.on_read(0, Rf, 5, 20);
        a.on_read(0, Rf, 5, 50);
        a.on_write(0, Rf, 5, 60);
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
        a.on_write(0, Rf, 5, 10);
        a.on_read(0, Rf, 5, 20); // reads are irrelevant here
        a.on_write(0, Rf, 5, 60);
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
        a.on_block_dispatch(0, BlockRegions::default().with_region(Rf, 0, 8), 0);
        a.on_write(0, Rf, 3, 10);
        a.on_block_retire(0, BlockRegions::default().with_region(Rf, 0, 8), 40);
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
        let block = BlockRegions::default().with_region(Rf, 0, 8);
        let drive = |obs: &mut dyn SimObserver| {
            obs.on_launch_begin("k", 0);
            obs.on_block_dispatch(0, block, 0);
            obs.on_write(0, Rf, 3, 10);
            obs.on_read(0, Rf, 3, 12);
            obs.on_block_retire(0, block, 20);
            obs.on_block_dispatch(0, block, 25);
            obs.on_read(0, Rf, 3, 30);
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
        r.on_write(0, Rf, 1, 10);
        r.on_launch_end(100);
        assert_eq!(r.report(Structure::VectorRegisterFile).ace_bit_cycles, 0);

        let mut c = conservative();
        c.on_launch_begin("k", 0);
        c.on_write(0, Rf, 1, 10);
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
        a.on_read(0, Rf, 2, 25);
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
        a.on_write(0, Rf, 0, 0);
        a.on_read(0, Rf, 0, 100);
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
        a.on_block_dispatch(0, BlockRegions::default().with_region(Rf, 0, 4096), 0);
        a.on_block_retire(0, BlockRegions::default().with_region(Rf, 0, 4096), 50);
        a.on_launch_end(100);
        let r = a.report(Structure::VectorRegisterFile);
        assert!((r.occupancy - 0.25).abs() < 1e-12, "{}", r.occupancy);
    }

    #[test]
    fn multi_launch_accumulates() {
        let mut a = refined();
        a.on_launch_begin("k1", 0);
        a.on_write(0, Rf, 0, 0);
        a.on_read(0, Rf, 0, 10);
        a.on_launch_end(50);
        a.on_launch_begin("k2", 50);
        a.on_write(0, Rf, 0, 50);
        a.on_read(0, Rf, 0, 70);
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
        a.on_write(0, Rf, u32::MAX, 1);
        a.on_read(0, Rf, u32::MAX, 2);
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
        o.on_write(0, Rf, 5, 10);
        o.on_read(0, Rf, 5, 20);
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
        o.on_write(0, Rf, 5, 10);
        o.on_read(0, Rf, 5, 20);
        o.on_read(0, Rf, 5, 50);
        o.on_write(0, Rf, 5, 60); // never read again: dead tail
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
        o.on_write(0, Rf, 1, 5); // dispatch preload: precedes the fault
        o.on_read(0, Rf, 1, 9);
        o.on_read(0, Rf, 2, 25); // launch-zeroed contents
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
        o.on_write(0, Rf, 0, 10);
        o.on_read(0, Rf, 0, 20);
        o.on_launch_end(50);
        o.on_launch_begin("k2", 50);
        o.on_write(0, Rf, 0, 60);
        o.on_read(0, Rf, 0, 70);
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
            obs.on_write(0, Rf, 0, 0); // launch-rooted preload
            obs.on_read(0, Rf, 0, 7);
            obs.on_write(1, Rf, 3, 4);
            obs.on_read(1, Rf, 3, 30);
            obs.on_read(0, Rf, 9, 12); // launch-zeroed read
            obs.on_write(0, Rf, 9, 15); // overwrite, then dead
            obs.on_launch_end(40);
            obs.on_launch_begin("k2", 40);
            obs.on_read(0, Rf, 2, 55);
            obs.on_write(0, Rf, 2, 58);
            obs.on_read(0, Rf, 2, 60);
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
        a.on_write(arch.num_sms + 3, Rf, 0, 1);
        a.on_read(arch.num_sms + 3, Rf, 0, 2);
        a.on_write(arch.num_sms, Lds, 0, 3);
        a.on_launch_end(10);
        assert_eq!(a.report(Structure::VectorRegisterFile).ace_bit_cycles, 0);
        assert_eq!(a.report(Structure::LocalMemory).ace_bit_cycles, 0);
    }

    /// A sealed oracle and the refined analyzer of one synthetic stream.
    fn sealed(drive: impl FnOnce(&mut AceAnalyzer)) -> (AceAnalyzer, LifetimeOracle) {
        let arch = ArchConfig::small_test_gpu();
        let mut a = AceAnalyzer::tracking(&arch, AceMode::WriteToLastRead, true);
        drive(&mut a);
        let (a, o) = a.finish(true);
        (a.unwrap(), o.unwrap())
    }

    #[test]
    fn a_loop_carried_accumulator_seals_to_one_interval() {
        let rf = Structure::VectorRegisterFile;
        let (a, o) = sealed(|a| {
            a.on_launch_begin("k", 0);
            a.on_write(0, Rf, 7, 1);
            // Each iteration reads the accumulator and writes it back in
            // the same cycle.
            for c in 2..5000 {
                a.on_read(0, Rf, 7, c);
                a.on_write(0, Rf, 7, c);
            }
            a.on_read(0, Rf, 7, 5000);
            let log = a.trackers[rf.index()].log.as_ref().unwrap();
            assert_eq!(log.len(), 0, "a merge never touches the log");
            a.on_launch_end(5100);
        });
        assert_eq!(o.intervals(), 1);
        assert_eq!(o.live_bit_cycles(rf), 4999 * 32);
        assert_eq!(a.report(rf).ace_bit_cycles, 4999 * 32);
        let seg = |lo, hi| WordCycleSegment {
            sm: 0,
            word: 7,
            lo,
            hi,
        };
        assert_eq!(o.segments_in(rf, 7, 8, 0, 5100), [seg(2, 5000)]);
        assert!(o.is_dead(rf_site(7, 1)));
        assert!(!o.is_dead(rf_site(7, 2)) && !o.is_dead(rf_site(7, 5000)));
        assert!(o.is_dead(rf_site(7, 5001)));
    }

    #[test]
    fn a_words_intervals_across_two_launches_stay_separate_and_sorted() {
        let rf = Structure::VectorRegisterFile;
        let (a, o) = sealed(|a| {
            a.on_launch_begin("k1", 0);
            a.on_write(0, Rf, 3, 5);
            a.on_read(0, Rf, 3, 9);
            a.on_write(0, Rf, 3, 20);
            a.on_read(0, Rf, 3, 30);
            a.on_launch_end(40);
            // Launch-zeroed contents, live from the launch start.
            a.on_launch_begin("k2", 40);
            a.on_read(0, Rf, 3, 45);
            a.on_launch_end(50);
        });
        let seg = |lo, hi| WordCycleSegment {
            sm: 0,
            word: 3,
            lo,
            hi,
        };
        let live = [seg(6, 9), seg(21, 30), seg(40, 45)];
        assert_eq!(o.segments_in(rf, 0, 8, 0, 51), live);
        assert_eq!(o.segments_in(rf, 3, 4, 8, 25), [seg(8, 9), seg(21, 24)]);
        assert_eq!(o.intervals(), 3);
        assert_eq!(o.live_word_cycles_in(rf, 3, 4, 8, 42), 2 + 10 + 2);
        assert_eq!(o.live_bit_cycles(rf), (4 + 10 + 6) * 32);
        assert_eq!(a.report(rf).ace_bit_cycles, o.live_bit_cycles(rf));
        for c in 0..52 {
            let want = live.iter().any(|s| s.lo <= c && c <= s.hi);
            assert_eq!(o.is_dead(rf_site(3, c)), !want, "cycle {c}");
        }
    }

    /// Forwards a run to a [`LifetimeOracle`] and queries it at every
    /// launch boundary and every 4096th storage event.
    struct Queried {
        oracle: LifetimeOracle,
        events: u64,
        queries: u64,
    }

    impl Queried {
        fn query(&mut self) {
            self.queries += 1;
            for s in Structure::ALL {
                self.oracle.live_bit_cycles(s);
            }
        }

        fn tick(&mut self) {
            self.events += 1;
            if self.events.is_multiple_of(4096) {
                self.query();
            }
        }
    }

    impl SimObserver for Queried {
        fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
            self.oracle.on_write(sm, structure, word, cycle);
            self.tick();
        }
        fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
            self.oracle.on_read(sm, structure, word, cycle);
            self.tick();
        }
        fn on_block_dispatch(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
            self.oracle.on_block_dispatch(sm, r, cycle);
        }
        fn on_block_retire(&mut self, sm: u32, r: BlockRegions, cycle: u64) {
            self.oracle.on_block_retire(sm, r, cycle);
        }
        fn on_launch_begin(&mut self, name: &str, cycle: u64) {
            self.oracle.on_launch_begin(name, cycle);
            self.query();
        }
        fn on_launch_end(&mut self, cycle: u64) {
            self.oracle.on_launch_end(cycle);
            self.query();
        }
    }

    #[test]
    fn an_observer_queried_mid_stream_agrees_with_a_sealed_capture() {
        use gpu_workloads::{Reduction, Workload};
        let arch = gpu_archs::quadro_fx_5600();
        let w = Reduction::new(512, 128, 3);
        let sealed = LifetimeOracle::capture(&arch, &w).unwrap();
        let mut observed = Queried {
            oracle: LifetimeOracle::new(&arch),
            events: 0,
            queries: 0,
        };
        let mut gpu = simt_sim::Gpu::new(arch.clone());
        w.run(&mut gpu, &mut observed).unwrap();
        assert!(observed.queries > 4, "{} queries", observed.queries);
        let (o, cycles) = (observed.oracle, gpu.app_cycle());
        for s in Structure::ALL {
            let words = arch.words_per_sm(s);
            assert_eq!(o.live_bit_cycles(s), sealed.live_bit_cycles(s), "{s:?}");
            assert_eq!(
                o.segments_in(s, 0, words, 0, cycles + 1),
                sealed.segments_in(s, 0, words, 0, cycles + 1),
                "{s:?}"
            );
        }
        assert!(sealed.live_bit_cycles(Structure::LocalMemory) > 0);
    }

    #[test]
    fn an_event_past_the_cycle_limit_is_a_typed_error() {
        let arch = ArchConfig::small_test_gpu();
        let mut a = AceAnalyzer::tracking(&arch, AceMode::WriteToLastRead, true);
        a.on_launch_begin("k", 0);
        a.on_write(0, Rf, 1, 10);
        a.on_read(0, Rf, 1, 20);
        assert_eq!(a.within_cycle_limit("w", "d"), Ok(()));
        a.on_read(0, Rf, 1, CYCLE_LIMIT);
        a.on_write(0, Lds, 2, u64::MAX);
        a.on_launch_end(CYCLE_LIMIT + 5);
        let err = a
            .within_cycle_limit("vectoradd", "HD Radeon 7970")
            .unwrap_err();
        assert_eq!(
            err,
            SimError::CycleLimit {
                workload: "vectoradd".into(),
                device: "HD Radeon 7970".into(),
                cycle: CYCLE_LIMIT,
                limit: CYCLE_LIMIT,
            }
        );
        let text = err.to_string();
        assert!(text.contains("vectoradd on HD Radeon 7970 reached cycle 4294967294"));
        // The dropped events changed nothing: the last tracked read still
        // ends the value's window, and nothing wrapped around.
        assert_eq!(
            a.report(Structure::VectorRegisterFile).ace_bit_cycles,
            10 * 32
        );
        assert_eq!(a.report(Structure::LocalMemory).ace_bit_cycles, 0);
        let cycle = CYCLE_LIMIT - 1;
        assert_eq!(a.tracked(cycle), Some(cycle as u32));
        assert_eq!(a.untracked, Some(CYCLE_LIMIT));
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

    /// Turns raw `(kind, slot, sm, word, dt)` draws into a stream the
    /// simulator could emit: cycles never decrease, every block retires
    /// before its launch ends, and no read shares a cycle with a launch
    /// boundary. SMs and words run past the device so that out-of-range
    /// events occur too. One kind in seven is an accumulator: a read and
    /// a write of one word in each of `dt + 1` consecutive cycles, then a
    /// read of the result in the last of them, so a read, a write and a
    /// read of one word in one cycle, and intervals that meet end to
    /// end, are common.
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
                    let r = BlockRegions::default()
                        .with_region(Rf, word, dt as u32 + 1)
                        .with_region(Srf, word % 4, 2)
                        .with_region(Lds, (word + n as u32) % 5, (n % 4) as u32);
                    blocks.push((sm, r));
                    evs.push(Ev::Dispatch(sm, r, cycle));
                }
                9 | 10 if !blocks.is_empty() => {
                    cycle = cycle.max(launch + 1);
                    let (bsm, r) = blocks.remove(word as usize % blocks.len());
                    evs.push(Ev::Retire(bsm, r, cycle));
                }
                12 | 13 => {
                    cycle = cycle.max(launch + 1);
                    for step in 0..=dt {
                        evs.push(Ev::Read(s, sm, word, cycle + step));
                        evs.push(Ev::Write(s, sm, word, cycle + step));
                    }
                    cycle += dt;
                    evs.push(Ev::Read(s, sm, word, cycle));
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
                Ev::Read(s, sm, w, c) => obs.on_read(sm, SLOTS[s], w, c),
                Ev::Write(s, sm, w, c) => obs.on_write(sm, SLOTS[s], w, c),
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
            let (base, len) = r.region(SLOTS[self.s]);
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
        (0u8..14, 0usize..3, 0u32..3, 0u32..7, 0u64..4)
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
                        occ += r.region(SLOTS[s]).1 as u64 * (retired.unwrap() - d);
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
                                let dead = sm >= arch.num_sms || word >= words[s] || !model(sm, word).live(cycle);
                                prop_assert_eq!(oracle.is_dead(site), dead, "{:?} {:?}", site, evs);
                            }
                        }
                    }
                    for (wl, wh, cl, ch) in [(0, words[s] + 1, 0, end + 2), (1, 3, end / 3, 2 * end / 3 + 1)] {
                        let mut want = Vec::new();
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
                                    if l {
                                        count += c - lo;
                                        want.push(WordCycleSegment { sm, word, lo, hi: c - 1 });
                                    }
                                }
                            }
                        }
                        prop_assert_eq!(oracle.live_word_cycles_in(structure, wl, wh, cl, ch), count);
                        prop_assert_eq!(&oracle.segments_in(structure, wl, wh, cl, ch), &want);
                    }
                }
            }
        }
    }
}
