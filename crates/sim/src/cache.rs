//! Set-associative LRU caches used for the L1/L2 timing model.
//!
//! Caches affect *timing only*: data always lives in the global-memory
//! arena, so a cache never holds stale values and fault injection into
//! memory arrays is out of scope (the study targets register files and
//! LDS). This mirrors how GPGPU-Sim's functional core is decoupled from
//! its timing model.

/// Geometry of one cache level.
///
/// # Example
/// ```
/// use simt_sim::CacheGeom;
/// let g = CacheGeom { bytes: 16 * 1024, line_bytes: 128, assoc: 4 };
/// assert_eq!(g.num_sets(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheGeom {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u32 {
        (self.bytes / self.line_bytes / self.assoc).max(1)
    }
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement (timing model only).
///
/// # Example
/// ```
/// use simt_sim::{Cache, CacheGeom};
/// let mut c = Cache::new(CacheGeom { bytes: 256, line_bytes: 64, assoc: 2 });
/// assert!(!c.access(0));      // cold miss
/// assert!(c.access(4));       // same line: hit
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeom,
    /// `tags[set * assoc + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamp per way (higher = more recent).
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
    line_shift: u32,
    num_sets: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(geom: CacheGeom) -> Self {
        assert!(
            geom.line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        let num_sets = geom.num_sets();
        let ways = (num_sets * geom.assoc) as usize;
        Cache {
            geom,
            tags: vec![u64::MAX; ways],
            stamps: vec![0; ways],
            tick: 0,
            stats: CacheStats::default(),
            line_shift: geom.line_bytes.trailing_zeros(),
            num_sets,
        }
    }

    /// Accesses the byte address, updating LRU state; returns `true` on hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line % self.num_sets) as usize;
        let line = line as u64;
        let base = set * self.geom.assoc as usize;
        let ways = &mut self.tags[base..base + self.geom.assoc as usize];
        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        // Miss: fill the LRU way.
        self.stats.misses += 1;
        let victim = (0..self.geom.assoc as usize)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("assoc >= 1");
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Invalidates all lines and resets LRU state (counters are kept).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The geometry this cache was built with.
    pub fn geom(&self) -> CacheGeom {
        self.geom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64-byte lines.
        Cache::new(CacheGeom {
            bytes: 256,
            line_bytes: 64,
            assoc: 2,
        })
    }

    #[test]
    fn hit_within_line() {
        let mut c = tiny();
        assert!(!c.access(100));
        assert!(c.access(127)); // same 64B line as 100? 100>>6=1, 127>>6=1 yes
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        assert!(!c.access(0)); // line 0 -> way A
        assert!(!c.access(128)); // line 2 -> way B
        assert!(c.access(0)); // touch line 0 (B is now LRU)
        assert!(!c.access(256)); // line 4 evicts line 2
        assert!(c.access(0)); // line 0 still resident
        assert!(!c.access(128)); // line 2 was evicted
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = tiny();
        assert!(!c.access(0)); // set 0
        assert!(!c.access(64)); // set 1
        assert!(c.access(0));
        assert!(c.access(64));
    }

    #[test]
    fn flush_clears_contents_not_stats() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert_eq!(c.stats().hits, 1);
        c.flush();
        assert!(!c.access(0), "flushed line misses again");
        assert_eq!(c.stats().hits, 1, "counters survive flush");
    }

    #[test]
    fn geometry_accessors() {
        let c = tiny();
        assert_eq!(c.geom().num_sets(), 2);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        let _ = Cache::new(CacheGeom {
            bytes: 256,
            line_bytes: 48,
            assoc: 2,
        });
    }
}
