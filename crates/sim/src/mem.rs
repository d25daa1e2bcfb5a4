//! Global-memory arena, coalescer and the device memory timing model.

use crate::cache::{Cache, CacheGeom, CacheStats};
use crate::config::Latencies;
use crate::error::Due;
use crate::overlay::GlobalOverlay;
use crate::pages::Pages;

/// Byte offset reserved as a null guard: accesses below this address are
/// DUEs, catching fault-corrupted pointers the way a segfault would on a
/// real device.
pub const NULL_GUARD_BYTES: u32 = 256;

/// The device global-memory arena: a flat array of copy-on-write word
/// pages with a bump allocator and bounds/alignment checking.
///
/// # Example
/// ```
/// use simt_sim::mem::GlobalMemory;
/// let mut m = GlobalMemory::new();
/// let a = m.alloc_words(16);
/// m.write_word(a, 0xdead_beef).unwrap();
/// assert_eq!(m.read_word(a).unwrap(), 0xdead_beef);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    words: Pages,
    /// First unallocated byte address.
    heap_top: u32,
    /// Batched-replay overlay shard; `None` outside a batched pass.
    pub(crate) overlay: Option<Box<GlobalOverlay>>,
}

impl Default for GlobalMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalMemory {
    /// Creates an empty arena (only the null guard is reserved).
    pub fn new() -> Self {
        GlobalMemory {
            words: Pages::new(0),
            heap_top: NULL_GUARD_BYTES,
            overlay: None,
        }
    }

    /// Allocates `n` 32-bit words, 256-byte aligned; returns the byte
    /// address of the allocation.
    pub fn alloc_words(&mut self, n: u32) -> u32 {
        let addr = self.heap_top;
        let bytes = n.checked_mul(4).expect("allocation size overflow");
        self.heap_top = (self.heap_top + bytes + 255) & !255;
        self.words.grow((self.heap_top / 4) as usize);
        addr
    }

    /// Total allocated bytes (including the null guard).
    pub fn heap_top(&self) -> u32 {
        self.heap_top
    }

    /// The arena's words, from address 0 to [`GlobalMemory::heap_top`].
    pub fn words(&self) -> &Pages {
        &self.words
    }

    /// Freezes the arena's pages (see [`Pages::freeze`]).
    pub(crate) fn freeze(&mut self) {
        self.words.freeze();
    }

    fn check(&self, addr: u32, sm: u32, cycle: u64) -> Result<usize, Due> {
        if !addr.is_multiple_of(4) {
            return Err(Due::MisalignedAccess { addr, sm, cycle });
        }
        if addr < NULL_GUARD_BYTES || addr.saturating_add(4) > self.heap_top {
            return Err(Due::GlobalOutOfBounds { addr, sm, cycle });
        }
        Ok((addr / 4) as usize)
    }

    /// Reads a word with full checking, attributing failures to `sm`/`cycle`.
    ///
    /// # Errors
    ///
    /// [`Due::MisalignedAccess`] or [`Due::GlobalOutOfBounds`].
    pub fn load(&self, addr: u32, sm: u32, cycle: u64) -> Result<u32, Due> {
        Ok(self.words.get(self.check(addr, sm, cycle)?))
    }

    /// Writes a word with full checking.
    ///
    /// # Errors
    ///
    /// [`Due::MisalignedAccess`] or [`Due::GlobalOutOfBounds`].
    pub fn store(&mut self, addr: u32, value: u32, sm: u32, cycle: u64) -> Result<(), Due> {
        let i = self.check(addr, sm, cycle)?;
        self.words.set(i, value);
        // Architectural overwrite: every batched scenario performs the
        // same store, so divergence on this word dies here (divergent
        // store values re-assert on top from the executor).
        if let Some(ov) = self.overlay.as_deref_mut() {
            ov.map.clear_word(i as u32);
        }
        Ok(())
    }

    /// Host-side word read (no SM attribution). During a batched pass a
    /// read of a scenario-divergent word records that scenario as
    /// host-touched: its faulty value is architecturally observable from
    /// here, and the session routes the record after the plan step.
    ///
    /// # Errors
    ///
    /// Same as [`GlobalMemory::load`].
    pub fn read_word(&self, addr: u32) -> Result<u32, Due> {
        let v = self.load(addr, u32::MAX, 0)?;
        if let Some(ov) = self.overlay.as_deref() {
            ov.note_host_read(addr / 4);
        }
        Ok(v)
    }

    /// Writes scenario `s`'s divergent words into the physical arena and
    /// drops the overlay (forked private replays run on real state).
    pub(crate) fn materialize_scenario(&mut self, s: u8) {
        if let Some(ov) = self.overlay.take() {
            for (w, v) in ov.map.scenario_values(s) {
                if self.words.get_checked(w as usize).is_some() {
                    self.words.set(w as usize, v);
                }
            }
        }
    }

    /// Host-side word write.
    ///
    /// # Errors
    ///
    /// Same as [`GlobalMemory::store`].
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), Due> {
        self.store(addr, value, u32::MAX, 0)
    }
}

/// The most lanes one warp access carries: a
/// [`LaneMask`](crate::warp::LaneMask) is a `u64`.
pub const MAX_LANES: usize = 64;

/// The coalescer: writes the distinct `segment_bytes`-aligned segments
/// touched by `addrs` to the front of `segs`, in ascending order, and
/// returns how many there are. Allocates nothing.
///
/// # Panics
///
/// Panics if `addrs` touch more than [`MAX_LANES`] distinct segments,
/// which one warp access cannot.
fn coalesce(addrs: &[u32], segment_bytes: u32, segs: &mut [u32; MAX_LANES]) -> usize {
    let mut n = 0;
    for &a in addrs {
        let seg = a / segment_bytes;
        if let Err(i) = segs[..n].binary_search(&seg) {
            assert!(
                n < MAX_LANES,
                "a warp access touches at most {MAX_LANES} segments"
            );
            segs.copy_within(i..n, i + 1);
            segs[i] = seg;
            n += 1;
        }
    }
    n
}

/// Counts the memory transactions a warp access generates: the number of
/// distinct `segment_bytes`-aligned segments touched by the active lanes.
///
/// This is the classic coalescing rule (64-byte segments on G80/GT200,
/// 128-byte on Fermi and Southern Islands).
///
/// # Example
/// ```
/// use simt_sim::mem::count_segments;
/// // 4 consecutive words in one 64-byte segment: 1 transaction.
/// assert_eq!(count_segments(&[0, 4, 8, 12], 64), 1);
/// // Stride-64 words: every lane its own segment.
/// assert_eq!(count_segments(&[0, 64, 128], 64), 3);
/// ```
///
/// # Panics
///
/// Panics if `addrs` touch more than [`MAX_LANES`] distinct segments.
pub fn count_segments(addrs: &[u32], segment_bytes: u32) -> u32 {
    coalesce(addrs, segment_bytes, &mut [0; MAX_LANES]) as u32
}

/// The device-level memory timing model: per-SM L1s, a shared L2 and DRAM
/// latency, combined with the coalescer.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: Vec<Option<Cache>>,
    l2: Option<Cache>,
    lat: Latencies,
    coalesce_bytes: u32,
    /// Total warp-level transactions issued.
    pub transactions: u64,
}

impl MemorySystem {
    /// Builds the timing model for `num_sms` SMs.
    pub fn new(
        num_sms: u32,
        l1_geom: Option<CacheGeom>,
        l2_geom: Option<CacheGeom>,
        lat: Latencies,
        coalesce_bytes: u32,
    ) -> Self {
        MemorySystem {
            l1: (0..num_sms).map(|_| l1_geom.map(Cache::new)).collect(),
            l2: l2_geom.map(Cache::new),
            lat,
            coalesce_bytes,
            transactions: 0,
        }
    }

    /// Latency of a warp load/store touching `addrs` (active lanes only),
    /// issued from `sm`. Updates cache state and transaction counters.
    ///
    /// The slowest transaction dominates, plus a serialization penalty per
    /// extra transaction. Segments reach the caches in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` touch more than [`MAX_LANES`] distinct segments.
    pub fn access_latency(&mut self, sm: u32, addrs: &[u32]) -> u32 {
        let mut segs = [0; MAX_LANES];
        let n = coalesce(addrs, self.coalesce_bytes, &mut segs);
        if n == 0 {
            return 0;
        }
        self.transactions += n as u64;
        let mut worst = 0u32;
        for &seg in &segs[..n] {
            let lat = self.single_transaction_latency(sm, seg * self.coalesce_bytes);
            worst = worst.max(lat);
        }
        worst + (n as u32 - 1) * self.lat.mem_serialize
    }

    fn single_transaction_latency(&mut self, sm: u32, addr: u32) -> u32 {
        if let Some(Some(l1)) = self.l1.get_mut(sm as usize) {
            if l1.access(addr) {
                return self.lat.l1_hit;
            }
        }
        if let Some(l2) = self.l2.as_mut() {
            if l2.access(addr) {
                return self.lat.l2_hit;
            }
            return self.lat.dram;
        }
        self.lat.dram
    }

    /// Latency of a warp atomic on `n_addrs` distinct addresses: atomics
    /// bypass the L1 and serialize per address at the L2/DRAM.
    pub fn atomic_latency(&mut self, n_addrs: u32) -> u32 {
        self.transactions += n_addrs as u64;
        let base = if self.l2.is_some() {
            self.lat.l2_hit
        } else {
            self.lat.dram
        };
        base + n_addrs.saturating_sub(1) * self.lat.mem_serialize
    }

    /// Invalidates all cache contents (between launches).
    pub fn flush(&mut self) {
        for l1 in self.l1.iter_mut().flatten() {
            l1.flush();
        }
        if let Some(l2) = self.l2.as_mut() {
            l2.flush();
        }
    }

    /// Aggregate L1 statistics over all SMs.
    pub fn l1_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for l1 in self.l1.iter().flatten() {
            s.hits += l1.stats().hits;
            s.misses += l1.stats().misses;
        }
        s
    }

    /// L2 statistics, if an L2 is configured.
    pub fn l2_stats(&self) -> Option<CacheStats> {
        self.l2.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;

    #[test]
    fn alloc_is_aligned_and_guarded() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_words(1);
        let b = m.alloc_words(100);
        assert_eq!(a, NULL_GUARD_BYTES);
        assert_eq!(b % 256, 0);
        assert!(b > a);
    }

    #[test]
    fn null_guard_trips() {
        let mut m = GlobalMemory::new();
        let _ = m.alloc_words(4);
        assert!(matches!(
            m.load(0, 1, 2),
            Err(Due::GlobalOutOfBounds {
                addr: 0,
                sm: 1,
                cycle: 2
            })
        ));
        assert!(matches!(
            m.load(128, 0, 0),
            Err(Due::GlobalOutOfBounds { .. })
        ));
    }

    #[test]
    fn oob_and_misaligned_trip() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_words(2);
        assert!(m.load(a + 8, 0, 0).is_err() || m.heap_top() > a + 8);
        let top = m.heap_top();
        assert!(matches!(
            m.load(top, 0, 0),
            Err(Due::GlobalOutOfBounds { .. })
        ));
        assert!(matches!(
            m.load(a + 1, 0, 0),
            Err(Due::MisalignedAccess { .. })
        ));
        assert!(matches!(
            m.store(u32::MAX - 3, 0, 0, 0),
            Err(Due::GlobalOutOfBounds { .. })
        ));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new();
        let a = m.alloc_words(8);
        for i in 0..8 {
            m.write_word(a + i * 4, i * 10).unwrap();
        }
        for i in 0..8 {
            assert_eq!(m.read_word(a + i * 4).unwrap(), i * 10);
        }
    }

    #[test]
    fn coalescing_counts() {
        assert_eq!(count_segments(&[], 64), 0);
        assert_eq!(count_segments(&[0, 60], 64), 1);
        assert_eq!(count_segments(&[0, 64], 64), 2);
        assert_eq!(count_segments(&[128, 0, 64, 4], 64), 3);
        // Wider segments coalesce more.
        assert_eq!(count_segments(&[0, 64], 128), 1);
    }

    fn mem_sys() -> MemorySystem {
        let a = ArchConfig::small_test_gpu();
        MemorySystem::new(a.num_sms, a.l1, a.l2, a.lat, a.coalesce_bytes)
    }

    #[test]
    fn latency_orders_cold_then_warm() {
        let mut ms = mem_sys();
        let cold = ms.access_latency(0, &[0]);
        let warm = ms.access_latency(0, &[0]);
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
        let a = ArchConfig::small_test_gpu();
        assert_eq!(cold, a.lat.dram);
        assert_eq!(warm, a.lat.l1_hit);
    }

    #[test]
    fn l2_serves_other_sm() {
        let mut ms = mem_sys();
        let a = ArchConfig::small_test_gpu();
        let _ = ms.access_latency(0, &[0]); // fills L2
        let other = ms.access_latency(1, &[0]); // misses its own L1, hits L2
        assert_eq!(other, a.lat.l2_hit);
    }

    #[test]
    fn uncoalesced_pays_serialization() {
        let mut ms = mem_sys();
        let a = ArchConfig::small_test_gpu();
        let coalesced = ms.access_latency(0, &[0, 4, 8]);
        ms.flush();
        let scattered = ms.access_latency(0, &[0, 640, 1280]);
        assert_eq!(coalesced, a.lat.dram);
        assert_eq!(scattered, a.lat.dram + 2 * a.lat.mem_serialize);
        assert_eq!(ms.transactions, 4);
    }

    #[test]
    fn atomics_serialize_per_address() {
        let mut ms = mem_sys();
        let a = ArchConfig::small_test_gpu();
        assert_eq!(ms.atomic_latency(1), a.lat.l2_hit);
        assert_eq!(ms.atomic_latency(4), a.lat.l2_hit + 3 * a.lat.mem_serialize);
    }

    #[test]
    fn stats_aggregate() {
        let mut ms = mem_sys();
        let _ = ms.access_latency(0, &[0]);
        let _ = ms.access_latency(0, &[0]);
        assert_eq!(ms.l1_stats().hits, 1);
        assert_eq!(ms.l1_stats().misses, 1);
        assert_eq!(ms.l2_stats().unwrap().misses, 1);
    }

    #[test]
    fn empty_access_is_free() {
        let mut ms = mem_sys();
        assert_eq!(ms.access_latency(0, &[]), 0);
        assert_eq!(ms.transactions, 0);
    }
}
