//! Observer hooks: the event stream consumed by reliability analyses.
//!
//! The simulator reports every architected-storage access and every
//! allocation boundary through [`SimObserver`]. `grel-core`'s ACE analyzer
//! and occupancy tracker are pure consumers of these events; fault
//! injection needs none of them (campaign runs use [`NoopObserver`], which
//! monomorphises to nothing).

use crate::fault::{FaultSite, Structure};

/// The physical regions a block occupies on its SM, one word range per
/// structure, reported at dispatch and retire so analyses can reason
/// about exact allocation extents.
///
/// # Example
/// ```
/// use simt_sim::{observer::BlockRegions, Structure};
/// let r = BlockRegions::default().with_region(Structure::LocalMemory, 64, 16);
/// assert_eq!(r.region(Structure::LocalMemory), (64, 16));
/// assert_eq!(r.region(Structure::VectorRegisterFile), (0, 0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockRegions {
    /// `(base, len)` in words, keyed by [`Structure::index`].
    regions: [(u32, u32); 3],
}

impl BlockRegions {
    /// The `(base, len)` word range the block holds in `structure`
    /// (`(0, 0)` when it holds none).
    pub fn region(&self, structure: Structure) -> (u32, u32) {
        self.regions[structure.index()]
    }

    /// These regions with `structure`'s range set to `len` words from
    /// `base`.
    pub fn with_region(mut self, structure: Structure, base: u32, len: u32) -> Self {
        self.regions[structure.index()] = (base, len);
        self
    }
}

/// Receiver of simulation events.
///
/// All methods have empty default bodies so an observer implements only
/// what it needs. Every storage access is one event keyed by its
/// [`Structure`]; word indices are *physical* indices into that per-SM
/// structure — the same address space as [`FaultSite::word`].
///
/// # Example
/// ```
/// use simt_sim::{SimObserver, Structure};
///
/// #[derive(Default)]
/// struct CountRfWrites(u64);
/// impl SimObserver for CountRfWrites {
///     fn on_write(&mut self, _sm: u32, structure: Structure, _word: u32, _cycle: u64) {
///         if structure == Structure::VectorRegisterFile {
///             self.0 += 1;
///         }
///     }
/// }
/// ```
pub trait SimObserver {
    /// A word of `structure` was written.
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        let _ = (sm, structure, word, cycle);
    }

    /// A word of `structure` was read.
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        let _ = (sm, structure, word, cycle);
    }

    /// A block was dispatched to `sm`, allocating the given regions.
    fn on_block_dispatch(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        let _ = (sm, regions, cycle);
    }

    /// A block retired from `sm`, freeing the given regions.
    fn on_block_retire(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        let _ = (sm, regions, cycle);
    }

    /// A kernel launch began at this application cycle.
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        let _ = (name, cycle);
    }

    /// The current kernel launch completed at this application cycle.
    fn on_launch_end(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// A word was stored to global memory.
    ///
    /// `addr` is the byte address of the store. Unlike the per-SM
    /// structures above, global memory is device-wide; the `sm` argument
    /// names the SM that issued the store. Host-side writes (plan setup
    /// steps) do not pass through this hook.
    fn on_global_write(&mut self, sm: u32, addr: u32, value: u32, cycle: u64) {
        let _ = (sm, addr, value, cycle);
    }

    /// An armed fault was injected.
    fn on_fault_injected(&mut self, site: FaultSite) {
        let _ = site;
    }

    /// A stuck-at fault re-asserted itself on a write: the value stored
    /// to `word` differed from the value the program requested.
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        let _ = (sm, structure, word, cycle);
    }

    /// The watchdog cycle bound expired: the replay is hung. Reported
    /// with the number of warps parked at barriers device-wide (nonzero
    /// for barrier deadlocks, zero for scheduler starvation).
    fn on_hang(&mut self, cycle: u64, parked_warps: u32) {
        let _ = (cycle, parked_warps);
    }

    /// A control fault corrupted *live* scheduler/mask/scoreboard/barrier
    /// state (not fired when the targeted slot was empty — such
    /// injections are architecturally masked).
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        let _ = (site, cycle);
    }
}

impl<T: SimObserver + ?Sized> SimObserver for &mut T {
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        (**self).on_write(sm, structure, word, cycle);
    }
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        (**self).on_read(sm, structure, word, cycle);
    }
    fn on_block_dispatch(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        (**self).on_block_dispatch(sm, regions, cycle);
    }
    fn on_block_retire(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        (**self).on_block_retire(sm, regions, cycle);
    }
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        (**self).on_launch_begin(name, cycle);
    }
    fn on_launch_end(&mut self, cycle: u64) {
        (**self).on_launch_end(cycle);
    }
    fn on_global_write(&mut self, sm: u32, addr: u32, value: u32, cycle: u64) {
        (**self).on_global_write(sm, addr, value, cycle);
    }
    fn on_fault_injected(&mut self, site: FaultSite) {
        (**self).on_fault_injected(site);
    }
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        (**self).on_stuck_reassert(sm, structure, word, cycle);
    }
    fn on_hang(&mut self, cycle: u64, parked_warps: u32) {
        (**self).on_hang(cycle, parked_warps);
    }
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        (**self).on_control_corrupt(site, cycle);
    }
}

/// A pair of observers driven by one event stream: every event is
/// forwarded to `.0` first, then `.1`. Lets two analyses (e.g. ACE
/// lifetime tracking and the campaign pruning oracle) ride a single
/// golden run instead of paying for one instrumented pass each.
///
/// # Example
/// ```
/// use simt_sim::{CountingObserver, SimObserver};
/// use simt_sim::Structure::VectorRegisterFile as Rf;
/// let mut pair = (CountingObserver::default(), CountingObserver::default());
/// pair.on_write(0, Rf, 1, 2);
/// assert_eq!(pair.0.rf_writes, 1);
/// assert_eq!(pair.1.rf_writes, 1);
/// ```
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.0.on_write(sm, structure, word, cycle);
        self.1.on_write(sm, structure, word, cycle);
    }
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.0.on_read(sm, structure, word, cycle);
        self.1.on_read(sm, structure, word, cycle);
    }
    fn on_block_dispatch(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        self.0.on_block_dispatch(sm, regions, cycle);
        self.1.on_block_dispatch(sm, regions, cycle);
    }
    fn on_block_retire(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        self.0.on_block_retire(sm, regions, cycle);
        self.1.on_block_retire(sm, regions, cycle);
    }
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        self.0.on_launch_begin(name, cycle);
        self.1.on_launch_begin(name, cycle);
    }
    fn on_launch_end(&mut self, cycle: u64) {
        self.0.on_launch_end(cycle);
        self.1.on_launch_end(cycle);
    }
    fn on_global_write(&mut self, sm: u32, addr: u32, value: u32, cycle: u64) {
        self.0.on_global_write(sm, addr, value, cycle);
        self.1.on_global_write(sm, addr, value, cycle);
    }
    fn on_fault_injected(&mut self, site: FaultSite) {
        self.0.on_fault_injected(site);
        self.1.on_fault_injected(site);
    }
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.0.on_stuck_reassert(sm, structure, word, cycle);
        self.1.on_stuck_reassert(sm, structure, word, cycle);
    }
    fn on_hang(&mut self, cycle: u64, parked_warps: u32) {
        self.0.on_hang(cycle, parked_warps);
        self.1.on_hang(cycle, parked_warps);
    }
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        self.0.on_control_corrupt(site, cycle);
        self.1.on_control_corrupt(site, cycle);
    }
}

/// An observer that may be absent: `Some` forwards every event, `None`
/// ignores it. Lets one pass carry whichever analyses a caller asked
/// for without a separate monomorphisation per combination.
///
/// # Example
/// ```
/// use simt_sim::{CountingObserver, SimObserver};
/// let mut on = Some(CountingObserver::default());
/// let mut off: Option<CountingObserver> = None;
/// (&mut on, &mut off).on_write(0, simt_sim::Structure::VectorRegisterFile, 1, 2);
/// assert_eq!(on.unwrap().rf_writes, 1);
/// ```
impl<T: SimObserver> SimObserver for Option<T> {
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if let Some(o) = self {
            o.on_write(sm, structure, word, cycle);
        }
    }
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if let Some(o) = self {
            o.on_read(sm, structure, word, cycle);
        }
    }
    fn on_block_dispatch(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        if let Some(o) = self {
            o.on_block_dispatch(sm, regions, cycle);
        }
    }
    fn on_block_retire(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        if let Some(o) = self {
            o.on_block_retire(sm, regions, cycle);
        }
    }
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        if let Some(o) = self {
            o.on_launch_begin(name, cycle);
        }
    }
    fn on_launch_end(&mut self, cycle: u64) {
        if let Some(o) = self {
            o.on_launch_end(cycle);
        }
    }
    fn on_global_write(&mut self, sm: u32, addr: u32, value: u32, cycle: u64) {
        if let Some(o) = self {
            o.on_global_write(sm, addr, value, cycle);
        }
    }
    fn on_fault_injected(&mut self, site: FaultSite) {
        if let Some(o) = self {
            o.on_fault_injected(site);
        }
    }
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if let Some(o) = self {
            o.on_stuck_reassert(sm, structure, word, cycle);
        }
    }
    fn on_hang(&mut self, cycle: u64, parked_warps: u32) {
        if let Some(o) = self {
            o.on_hang(cycle, parked_warps);
        }
    }
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        if let Some(o) = self {
            o.on_control_corrupt(site, cycle);
        }
    }
}

/// The do-nothing observer used by fault-injection campaign runs.
///
/// # Example
/// ```
/// use simt_sim::{NoopObserver, SimObserver, Structure};
/// let mut o = NoopObserver;
/// o.on_write(0, Structure::VectorRegisterFile, 0, 0); // compiles to nothing
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// An observer that counts every event class — the cheapest way to
/// characterise a workload's storage-access profile (and to sanity-check
/// the event stream feeding heavier analyses like ACE).
///
/// # Example
/// ```
/// use simt_sim::{CountingObserver, SimObserver, Structure};
/// let mut c = CountingObserver::default();
/// c.on_write(0, Structure::VectorRegisterFile, 1, 2);
/// c.on_read(0, Structure::VectorRegisterFile, 1, 3);
/// c.on_write(0, Structure::LocalMemory, 0, 4);
/// assert_eq!(c.rf_writes, 1);
/// assert_eq!(c.rf_reads, 1);
/// assert_eq!(c.lds_writes, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// Vector-register words written.
    pub rf_writes: u64,
    /// Vector-register words read.
    pub rf_reads: u64,
    /// Scalar-register words written.
    pub srf_writes: u64,
    /// Scalar-register words read.
    pub srf_reads: u64,
    /// LDS words written.
    pub lds_writes: u64,
    /// LDS words read.
    pub lds_reads: u64,
    /// Global-memory words stored.
    pub global_writes: u64,
    /// Blocks dispatched.
    pub blocks: u64,
    /// Kernel launches observed.
    pub launches: u64,
    /// Faults injected.
    pub faults: u64,
    /// Stuck-at re-assertions observed on writes.
    pub stuck_reasserts: u64,
    /// Watchdog hangs observed.
    pub hangs: u64,
    /// Control faults that corrupted live state.
    pub control_corrupts: u64,
}

impl SimObserver for CountingObserver {
    fn on_write(&mut self, _sm: u32, structure: Structure, _word: u32, _cycle: u64) {
        *match structure {
            Structure::VectorRegisterFile => &mut self.rf_writes,
            Structure::LocalMemory => &mut self.lds_writes,
            Structure::ScalarRegisterFile => &mut self.srf_writes,
        } += 1;
    }
    fn on_read(&mut self, _sm: u32, structure: Structure, _word: u32, _cycle: u64) {
        *match structure {
            Structure::VectorRegisterFile => &mut self.rf_reads,
            Structure::LocalMemory => &mut self.lds_reads,
            Structure::ScalarRegisterFile => &mut self.srf_reads,
        } += 1;
    }
    fn on_global_write(&mut self, _sm: u32, _addr: u32, _value: u32, _cycle: u64) {
        self.global_writes += 1;
    }
    fn on_block_dispatch(&mut self, _sm: u32, _regions: BlockRegions, _cycle: u64) {
        self.blocks += 1;
    }
    fn on_launch_begin(&mut self, _name: &str, _cycle: u64) {
        self.launches += 1;
    }
    fn on_fault_injected(&mut self, _site: FaultSite) {
        self.faults += 1;
    }
    fn on_stuck_reassert(&mut self, _sm: u32, _structure: Structure, _word: u32, _cycle: u64) {
        self.stuck_reasserts += 1;
    }
    fn on_hang(&mut self, _cycle: u64, _parked_warps: u32) {
        self.hangs += 1;
    }
    fn on_control_corrupt(&mut self, _site: FaultSite, _cycle: u64) {
        self.control_corrupts += 1;
    }
}

/// Per-structure activity totals for one observed structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotspotCounters {
    /// Words read from the structure.
    pub reads: u64,
    /// Words written to the structure.
    pub writes: u64,
    /// Cycle of the first access (`u64::MAX` when never touched).
    pub first_cycle: u64,
    /// Cycle of the last access.
    pub last_cycle: u64,
}

impl HotspotCounters {
    const IDLE: HotspotCounters = HotspotCounters {
        reads: 0,
        writes: 0,
        first_cycle: u64::MAX,
        last_cycle: 0,
    };

    fn touch(&mut self, cycle: u64) {
        self.first_cycle = self.first_cycle.min(cycle);
        self.last_cycle = self.last_cycle.max(cycle);
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Cycles between first and last access (0 when never touched).
    pub fn active_cycles(&self) -> u64 {
        if self.first_cycle == u64::MAX {
            0
        } else {
            self.last_cycle - self.first_cycle + 1
        }
    }
}

/// The profiler's hot-spot observer: per-structure access and
/// active-cycle totals for RF/SRF/LDS plus scheduler activity (block
/// dispatches and launches), cheap enough to ride one extra golden run.
/// `repro profile` uses it to show where bit-plane batching would pay.
///
/// # Example
/// ```
/// use simt_sim::{HotspotObserver, SimObserver, Structure};
/// let mut h = HotspotObserver::default();
/// h.on_write(0, Structure::VectorRegisterFile, 1, 10);
/// h.on_read(0, Structure::VectorRegisterFile, 1, 90);
/// assert_eq!(h.rf.accesses(), 2);
/// assert_eq!(h.rf.active_cycles(), 81);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotObserver {
    /// Vector register file activity.
    pub rf: HotspotCounters,
    /// Scalar register file activity.
    pub srf: HotspotCounters,
    /// Local memory (LDS) activity.
    pub lds: HotspotCounters,
    /// Blocks dispatched by the scheduler.
    pub sched_dispatches: u64,
    /// Kernel launches observed.
    pub launches: u64,
    /// Cycle at the last launch end (the run's length once finished).
    pub end_cycle: u64,
}

impl Default for HotspotObserver {
    fn default() -> Self {
        HotspotObserver {
            rf: HotspotCounters::IDLE,
            srf: HotspotCounters::IDLE,
            lds: HotspotCounters::IDLE,
            sched_dispatches: 0,
            launches: 0,
            end_cycle: 0,
        }
    }
}

impl HotspotObserver {
    /// The counters of one structure.
    fn counters(&mut self, structure: Structure) -> &mut HotspotCounters {
        match structure {
            Structure::VectorRegisterFile => &mut self.rf,
            Structure::LocalMemory => &mut self.lds,
            Structure::ScalarRegisterFile => &mut self.srf,
        }
    }
}

impl SimObserver for HotspotObserver {
    fn on_write(&mut self, _sm: u32, structure: Structure, _word: u32, cycle: u64) {
        let c = self.counters(structure);
        c.writes += 1;
        c.touch(cycle);
    }
    fn on_read(&mut self, _sm: u32, structure: Structure, _word: u32, cycle: u64) {
        let c = self.counters(structure);
        c.reads += 1;
        c.touch(cycle);
    }
    fn on_block_dispatch(&mut self, _sm: u32, _regions: BlockRegions, _cycle: u64) {
        self.sched_dispatches += 1;
    }
    fn on_launch_begin(&mut self, _name: &str, _cycle: u64) {
        self.launches += 1;
    }
    fn on_launch_end(&mut self, cycle: u64) {
        self.end_cycle = self.end_cycle.max(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Structure::{LocalMemory as Lds, VectorRegisterFile as Rf};

    #[derive(Default)]
    struct Recorder {
        rf_writes: u64,
        lds_reads: u64,
        launches: u64,
        faults: u64,
    }

    impl SimObserver for Recorder {
        fn on_write(&mut self, _sm: u32, structure: Structure, _word: u32, _cycle: u64) {
            if structure == Rf {
                self.rf_writes += 1;
            }
        }
        fn on_read(&mut self, _sm: u32, structure: Structure, _word: u32, _cycle: u64) {
            if structure == Lds {
                self.lds_reads += 1;
            }
        }
        fn on_launch_begin(&mut self, _name: &str, _cycle: u64) {
            self.launches += 1;
        }
        fn on_fault_injected(&mut self, _site: FaultSite) {
            self.faults += 1;
        }
    }

    #[test]
    fn default_methods_are_noops_and_overrides_fire() {
        let mut r = Recorder::default();
        r.on_write(0, Rf, 1, 2);
        r.on_read(0, Rf, 1, 2); // not recorded
        r.on_read(1, Lds, 2, 3);
        r.on_launch_begin("k", 0);
        r.on_launch_end(10);
        r.on_fault_injected(FaultSite::new(Structure::VectorRegisterFile, 0, 0, 0, 0));
        assert_eq!(r.rf_writes, 1);
        assert_eq!(r.lds_reads, 1);
        assert_eq!(r.launches, 1);
        assert_eq!(r.faults, 1);
    }

    #[test]
    fn hotspot_observer_tracks_per_structure_activity() {
        let mut h = HotspotObserver::default();
        h.on_launch_begin("k", 0);
        h.on_block_dispatch(0, BlockRegions::default(), 1);
        h.on_write(0, Rf, 1, 10);
        h.on_read(0, Rf, 1, 50);
        h.on_write(0, Lds, 3, 20);
        h.on_launch_end(100);
        assert_eq!(h.rf.writes, 1);
        assert_eq!(h.rf.reads, 1);
        assert_eq!(h.rf.active_cycles(), 41);
        assert_eq!(h.lds.accesses(), 1);
        assert_eq!(h.srf.accesses(), 0);
        assert_eq!(h.srf.active_cycles(), 0, "untouched structure is idle");
        assert_eq!(h.sched_dispatches, 1);
        assert_eq!(h.launches, 1);
        assert_eq!(h.end_cycle, 100);
    }
}
