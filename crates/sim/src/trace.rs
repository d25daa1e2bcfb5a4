//! Fault-propagation tracing: the flight recorder behind provenance
//! analysis.
//!
//! A fault-injection campaign classifies each injection as Masked, SDC or
//! DUE — but says nothing about *why*. This module records the mechanism:
//!
//! * [`GlobalWriteLog`] captures the golden run's ordered stream of
//!   global-memory stores, the reference against which a faulty replay's
//!   output behaviour is compared;
//! * [`TraceObserver`] rides along a single faulty replay and records the
//!   cycle of the first architected read of the corrupted word (or the
//!   clean overwrite that masks it), a bounded taint set of the words the
//!   corruption spreads to, and the cycle of the first global store that
//!   diverges from the golden stream;
//! * [`TraceRecord`] is the distilled per-injection result consumed by
//!   `grel-core`'s provenance layer.
//!
//! Taint tracking is a deliberate cycle-granularity over-approximation:
//! the simulator reports reads before writes within an instruction, so a
//! write is considered tainted when *any* tainted word was read on the
//! same SM in the same cycle. That can over-taint when independent warps
//! interleave in one cycle, but it can never miss a real dependency, so a
//! `never-read` verdict is trustworthy.

use crate::fault::{FaultKind, FaultSite, Structure};
use crate::observer::SimObserver;
use std::collections::BTreeSet;

/// Upper bound on the number of distinct words a taint set tracks.
///
/// Once a corruption has reached this many words the spread is saturated:
/// further propagation is no longer enumerated (the record's
/// `taint_saturated` flag is set instead), keeping per-injection memory
/// bounded regardless of workload size.
pub const TAINT_CAP: usize = 256;

/// One global-memory store observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalWrite {
    /// Application cycle of the store.
    pub cycle: u64,
    /// Byte address stored to.
    pub addr: u32,
    /// Word value stored.
    pub value: u32,
}

/// Observer that records every global-memory store, in issue order.
///
/// Run the golden (fault-free) workload under this observer once; the
/// resulting write stream is the divergence reference shared read-only by
/// every traced replay.
///
/// # Example
/// ```
/// use simt_sim::{GlobalWriteLog, SimObserver};
/// let mut log = GlobalWriteLog::default();
/// log.on_global_write(0, 0x40, 7, 12);
/// assert_eq!(log.writes().len(), 1);
/// assert_eq!(log.writes()[0].value, 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalWriteLog {
    writes: Vec<GlobalWrite>,
}

impl GlobalWriteLog {
    /// The recorded stores, in the order they were issued.
    pub fn writes(&self) -> &[GlobalWrite] {
        &self.writes
    }

    /// Consumes the log, returning the recorded stores.
    pub fn into_writes(self) -> Vec<GlobalWrite> {
        self.writes
    }
}

impl SimObserver for GlobalWriteLog {
    fn on_global_write(&mut self, _sm: u32, addr: u32, value: u32, cycle: u64) {
        self.writes.push(GlobalWrite { cycle, addr, value });
    }
}

/// The distilled flight-recorder result for one traced injection.
///
/// All cycle fields count the application clock (same clock as
/// [`FaultSite::cycle`]). `None` means the event never happened within
/// the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The injected fault site.
    pub site: FaultSite,
    /// Cycle the flip was applied (`None` if the replay ended first).
    pub injected_at: Option<u64>,
    /// Cycle of the first architected read of the corrupted word, if it
    /// was read before being cleanly overwritten.
    pub first_read: Option<u64>,
    /// Cycle the corrupted word was cleanly overwritten before any read.
    pub overwrite: Option<u64>,
    /// Cycle of the first global store diverging from the golden stream.
    pub divergence: Option<u64>,
    /// Distinct words the corruption reached (taint breadth, capped at
    /// [`TAINT_CAP`]; includes the flipped word itself).
    pub taint_words: u32,
    /// Whether the taint set hit [`TAINT_CAP`] and stopped enumerating.
    pub taint_saturated: bool,
    /// Distinct LDS banks among the tainted local-memory words.
    pub lds_banks: u32,
    /// Cycle of the first stuck-at re-assertion (a write to the faulty
    /// word whose stored value was forced back to the stuck value).
    /// `None` for transient sites and for stuck cells never re-written.
    pub first_reassert: Option<u64>,
    /// Total number of stuck-at re-assertions observed on the site word.
    pub reasserts: u64,
    /// Cycle a control fault corrupted live scheduler/mask/scoreboard/
    /// barrier state (`None` when the slot was empty: a masked control
    /// injection).
    pub control_corrupt: Option<u64>,
    /// Cycle the watchdog declared the replay hung, if it did.
    pub hang: Option<u64>,
}

/// Flight recorder for one faulty replay.
///
/// Drive the replay with this observer instead of
/// [`NoopObserver`](crate::NoopObserver); afterwards call
/// [`TraceObserver::into_record`] for the distilled [`TraceRecord`].
///
/// When resuming from a checkpoint, pass the checkpoint's cycle as
/// `resume_cycle` so the golden write stream is aligned with the portion
/// of the run actually replayed (checkpoints are taken before the
/// fault-application step of their own cycle, so every store with
/// `cycle >= resume_cycle` happens post-resume).
#[derive(Debug)]
pub struct TraceObserver<'a> {
    site: FaultSite,
    injected_at: Option<u64>,
    first_read: Option<u64>,
    overwrite: Option<u64>,
    divergence: Option<u64>,
    first_reassert: Option<u64>,
    reasserts: u64,
    control_corrupt: Option<u64>,
    hang: Option<u64>,
    /// Words currently carrying the corruption.
    live: BTreeSet<(Structure, u32)>,
    /// Every word the corruption ever reached (capped).
    reached: BTreeSet<(Structure, u32)>,
    taint_saturated: bool,
    /// Cycle of the most recent tainted read on the fault SM; a write on
    /// the same SM in the same cycle is considered tainted.
    tainted_read_cycle: Option<u64>,
    /// The golden run's global-store stream.
    golden: &'a [GlobalWrite],
    /// Next golden store the replay is expected to reproduce.
    pos: usize,
}

impl<'a> TraceObserver<'a> {
    /// Arms a recorder for `site`, comparing global stores against
    /// `golden` from `resume_cycle` on.
    pub fn new(site: FaultSite, golden: &'a [GlobalWrite], resume_cycle: u64) -> Self {
        TraceObserver {
            site,
            injected_at: None,
            first_read: None,
            overwrite: None,
            divergence: None,
            first_reassert: None,
            reasserts: 0,
            control_corrupt: None,
            hang: None,
            live: BTreeSet::new(),
            reached: BTreeSet::new(),
            taint_saturated: false,
            tainted_read_cycle: None,
            golden,
            pos: golden.partition_point(|w| w.cycle < resume_cycle),
        }
    }

    /// The storage word the fault corrupts; `None` for a control site,
    /// whose `word` is a warp slot.
    fn origin(&self) -> Option<(Structure, u32)> {
        let storage = !matches!(self.site.kind, FaultKind::Control(_));
        storage.then_some((self.site.structure, self.site.word))
    }

    fn taint(&mut self, key: (Structure, u32)) {
        if self.reached.contains(&key) {
            self.live.insert(key);
            return;
        }
        if self.reached.len() >= TAINT_CAP {
            self.taint_saturated = true;
            return;
        }
        self.reached.insert(key);
        self.live.insert(key);
    }

    /// Distills the recording; `lds_banks` is the device's LDS bank
    /// count (used to fold tainted LDS words onto banks).
    pub fn into_record(self, lds_banks: u32) -> TraceRecord {
        let banks: BTreeSet<u32> = self
            .reached
            .iter()
            .filter(|(s, _)| *s == Structure::LocalMemory)
            .map(|(_, w)| w % lds_banks.max(1))
            .collect();
        TraceRecord {
            site: self.site,
            injected_at: self.injected_at,
            first_read: self.first_read,
            overwrite: self.overwrite,
            divergence: self.divergence,
            taint_words: self.reached.len() as u32,
            taint_saturated: self.taint_saturated,
            lds_banks: banks.len() as u32,
            first_reassert: self.first_reassert,
            reasserts: self.reasserts,
            control_corrupt: self.control_corrupt,
            hang: self.hang,
        }
    }
}

impl SimObserver for TraceObserver<'_> {
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if self.injected_at.is_none() || sm != self.site.sm {
            return;
        }
        let key = (structure, word);
        if !self.live.contains(&key) {
            return;
        }
        self.tainted_read_cycle = Some(cycle);
        if Some(key) == self.origin() && self.first_read.is_none() && self.overwrite.is_none() {
            self.first_read = Some(cycle);
        }
    }
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if self.injected_at.is_none() || sm != self.site.sm {
            return;
        }
        let key = (structure, word);
        if self.tainted_read_cycle == Some(cycle) {
            // A tainted word was read on this SM this cycle: the stored
            // value may derive from the corruption, so the destination
            // joins the taint set.
            self.taint(key);
        } else {
            // Clean data overwrites the word: the corruption there dies.
            if Some(key) == self.origin() && self.first_read.is_none() && self.overwrite.is_none() {
                self.overwrite = Some(cycle);
            }
            self.live.remove(&key);
        }
    }
    fn on_global_write(&mut self, _sm: u32, addr: u32, value: u32, cycle: u64) {
        // Track the full post-resume stream (pre-injection stores match
        // the golden run by determinism) so `pos` stays aligned.
        if self.divergence.is_some() {
            return;
        }
        match self.golden.get(self.pos) {
            Some(g) if g.addr == addr && g.value == value => self.pos += 1,
            _ => self.divergence = Some(cycle),
        }
    }
    fn on_fault_injected(&mut self, site: FaultSite) {
        if site == self.site && self.injected_at.is_none() {
            self.injected_at = Some(site.cycle);
            if let Some(origin) = self.origin() {
                self.live.insert(origin);
                self.reached.insert(origin);
            }
        }
    }
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if sm != self.site.sm || Some((structure, word)) != self.origin() {
            return;
        }
        if self.first_reassert.is_none() {
            self.first_reassert = Some(cycle);
        }
        self.reasserts += 1;
        // A re-assertion re-corrupts the word even after a clean
        // overwrite appeared to kill it: put the origin back in the live
        // taint set so later reads are attributed correctly.
        self.taint((structure, word));
    }
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        if site == self.site && self.control_corrupt.is_none() {
            self.control_corrupt = Some(cycle);
        }
    }
    fn on_hang(&mut self, cycle: u64, _parked_warps: u32) {
        if self.hang.is_none() {
            self.hang = Some(cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Structure::{LocalMemory as Lds, VectorRegisterFile as Rf};

    fn site() -> FaultSite {
        FaultSite::new(Structure::VectorRegisterFile, 0, 10, 3, 100)
    }

    #[test]
    fn first_read_is_recorded_and_overwrite_suppressed_after_it() {
        let golden = [];
        let mut t = TraceObserver::new(site(), &golden, 0);
        t.on_read(0, Rf, 10, 50); // pre-injection: ignored
        t.on_fault_injected(site());
        t.on_read(0, Rf, 10, 120);
        t.on_write(0, Rf, 10, 130); // later clean overwrite: not masking
        let r = t.into_record(16);
        assert_eq!(r.injected_at, Some(100));
        assert_eq!(r.first_read, Some(120));
        assert_eq!(r.overwrite, None);
        assert_eq!(r.taint_words, 1);
    }

    #[test]
    fn a_control_site_tracks_no_storage_word() {
        use crate::fault::ControlTarget;
        let ctrl = site().with_kind(FaultKind::Control(ControlTarget::ActiveMask));
        let golden = [];
        let mut t = TraceObserver::new(ctrl, &golden, 0);
        t.on_fault_injected(ctrl);
        // Register word 10 shares the slot's index; it is not the fault.
        t.on_write(0, Rf, 10, 110);
        t.on_read(0, Rf, 10, 120);
        t.on_control_corrupt(ctrl, 100);
        let r = t.into_record(16);
        assert_eq!(r.injected_at, Some(100));
        assert_eq!((r.first_read, r.overwrite), (None, None));
        assert_eq!(r.taint_words, 0);
        assert_eq!(r.control_corrupt, Some(100));
    }

    #[test]
    fn clean_overwrite_before_any_read_masks() {
        let golden = [];
        let mut t = TraceObserver::new(site(), &golden, 0);
        t.on_fault_injected(site());
        t.on_write(0, Rf, 10, 110);
        t.on_read(0, Rf, 10, 120); // reads the clean value: not a fault read
        let r = t.into_record(16);
        assert_eq!(r.overwrite, Some(110));
        assert_eq!(r.first_read, None);
    }

    #[test]
    fn taint_spreads_through_same_cycle_read_write_and_counts_lds_banks() {
        let golden = [];
        let mut t = TraceObserver::new(site(), &golden, 0);
        t.on_fault_injected(site());
        // Corrupted word read, result written to another RF word and two
        // LDS words in the same cycle.
        t.on_read(0, Rf, 10, 120);
        t.on_write(0, Rf, 44, 120);
        t.on_write(0, Lds, 3, 120);
        t.on_write(0, Lds, 19, 120); // 19 % 16 == 3: same bank
        let r = t.into_record(16);
        assert_eq!(r.taint_words, 4);
        assert_eq!(r.lds_banks, 1);
        assert!(!r.taint_saturated);
    }

    #[test]
    fn divergence_against_golden_stream() {
        let golden = [
            GlobalWrite {
                cycle: 90,
                addr: 0,
                value: 1,
            },
            GlobalWrite {
                cycle: 150,
                addr: 4,
                value: 2,
            },
            GlobalWrite {
                cycle: 200,
                addr: 8,
                value: 3,
            },
        ];
        // Resume at cycle 100: the first golden store already happened.
        let mut t = TraceObserver::new(site(), &golden, 100);
        t.on_fault_injected(site());
        t.on_global_write(0, 4, 2, 150); // matches
        t.on_global_write(0, 8, 99, 200); // corrupted value
        let r = t.into_record(16);
        assert_eq!(r.divergence, Some(200));
    }

    #[test]
    fn extra_store_past_golden_end_diverges() {
        let golden = [GlobalWrite {
            cycle: 10,
            addr: 0,
            value: 1,
        }];
        let mut t = TraceObserver::new(site(), &golden, 0);
        t.on_fault_injected(site());
        t.on_global_write(0, 0, 1, 10);
        t.on_global_write(0, 4, 5, 20);
        assert_eq!(t.into_record(16).divergence, Some(20));
    }

    #[test]
    fn events_on_other_sms_are_ignored() {
        let golden = [];
        let mut t = TraceObserver::new(site(), &golden, 0);
        t.on_fault_injected(site());
        t.on_read(2, Rf, 10, 120); // different SM
        let r = t.into_record(16);
        assert_eq!(r.first_read, None);
    }

    #[test]
    fn taint_set_saturates_at_cap() {
        let golden = [];
        let mut t = TraceObserver::new(site(), &golden, 0);
        t.on_fault_injected(site());
        t.on_read(0, Rf, 10, 120);
        for w in 0..(TAINT_CAP as u32 + 8) {
            t.on_write(0, Lds, w, 120);
        }
        let r = t.into_record(16);
        assert!(r.taint_saturated);
        assert_eq!(r.taint_words as usize, TAINT_CAP);
    }

    #[test]
    fn trace_records_reasserts_and_hang() {
        use crate::fault::FaultKind;
        let golden = [];
        let s = site().with_kind(FaultKind::StuckAt0);
        let mut t = TraceObserver::new(s, &golden, 0);
        t.on_fault_injected(s);
        t.on_stuck_reassert(0, Structure::VectorRegisterFile, 10, 130);
        t.on_stuck_reassert(0, Structure::VectorRegisterFile, 10, 140);
        t.on_stuck_reassert(0, Structure::VectorRegisterFile, 99, 150); // other word
        t.on_hang(9_999, 3);
        let r = t.into_record(16);
        assert_eq!(r.first_reassert, Some(130));
        assert_eq!(r.reasserts, 2);
        assert_eq!(r.hang, Some(9_999));
    }

    #[test]
    fn trace_records_control_corruption() {
        use crate::fault::{ControlTarget, FaultKind};
        let golden = [];
        let c = site().with_kind(FaultKind::Control(ControlTarget::ActiveMask));
        let mut t = TraceObserver::new(c, &golden, 0);
        t.on_fault_injected(c);
        t.on_control_corrupt(c, 100);
        let r = t.into_record(16);
        assert_eq!(r.control_corrupt, Some(100));
        assert_eq!(r.hang, None);
    }
}
