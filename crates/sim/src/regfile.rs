//! Physical register files and LDS with block-granular allocation.
//!
//! The fault-injection methodology requires a *physical* view: a fault site
//! names a word in the SM's register file regardless of whether a block
//! currently owns it. Allocation therefore hands out contiguous physical
//! regions, and the mapping `(warp slot, register, lane) → physical word`
//! is a fixed affine function of the block's base.

use crate::fault::Structure;

/// A permanently faulty storage cell: bit `bit` of `word` always holds
/// `stuck_value`.
///
/// Stuck-at faults are forced once when armed and then *re-asserted on
/// every write* of the word through the SM's write intercepts — a clean
/// overwrite never masks them, which is why the lifetime-oracle fast
/// paths must stay off the stuck-at path.
///
/// # Example
/// ```
/// use simt_sim::regfile::StuckBit;
/// use simt_sim::Structure;
/// let s1 = StuckBit { structure: Structure::VectorRegisterFile, word: 4, bit: 3, stuck_value: true };
/// assert_eq!(s1.force(0), 0b1000);
/// let s0 = StuckBit { stuck_value: false, ..s1 };
/// assert_eq!(s0.force(u32::MAX), !0b1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckBit {
    /// Which storage structure the cell lives in.
    pub structure: Structure,
    /// Physical word index within the structure.
    pub word: u32,
    /// Bit within the word (0..32).
    pub bit: u8,
    /// The value the cell is stuck at.
    pub stuck_value: bool,
}

impl StuckBit {
    /// Forces the stuck bit into a candidate word value (the
    /// write-intercept core).
    pub fn force(&self, value: u32) -> u32 {
        if self.stuck_value {
            value | 1 << self.bit
        } else {
            value & !(1 << self.bit)
        }
    }
}

/// A first-fit allocator over a fixed number of physical words.
///
/// Used for the vector RF, the scalar RF and the LDS of each SM. Blocks
/// allocate at dispatch and free at retire; regions never move.
///
/// # Example
/// ```
/// use simt_sim::regfile::RegionAllocator;
/// let mut a = RegionAllocator::new(100);
/// let r0 = a.alloc(40).unwrap();
/// let r1 = a.alloc(40).unwrap();
/// assert!(a.alloc(40).is_none(), "only 20 words left");
/// a.free(r0, 40);
/// assert_eq!(a.alloc(40), Some(r0), "freed region is reused");
/// assert_eq!(a.allocated(), 80);
/// # let _ = r1;
/// ```
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    capacity: u32,
    /// Sorted, non-overlapping `(start, len)` free regions.
    free: Vec<(u32, u32)>,
    allocated: u32,
}

impl RegionAllocator {
    /// An allocator over `capacity` words, all free.
    pub fn new(capacity: u32) -> Self {
        let free = if capacity > 0 {
            vec![(0, capacity)]
        } else {
            Vec::new()
        };
        RegionAllocator {
            capacity,
            free,
            allocated: 0,
        }
    }

    /// Allocates `len` contiguous words; returns the start word or `None`.
    ///
    /// Zero-length requests succeed at offset 0 without consuming space.
    pub fn alloc(&mut self, len: u32) -> Option<u32> {
        if len == 0 {
            return Some(0);
        }
        let idx = self.free.iter().position(|&(_, flen)| flen >= len)?;
        let (start, flen) = self.free[idx];
        if flen == len {
            self.free.remove(idx);
        } else {
            self.free[idx] = (start + len, flen - len);
        }
        self.allocated += len;
        Some(start)
    }

    /// Returns a region to the free list, merging neighbours.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the region overlaps the free list or
    /// exceeds capacity — both indicate an allocator-client bug.
    pub fn free(&mut self, start: u32, len: u32) {
        if len == 0 {
            return;
        }
        debug_assert!(start + len <= self.capacity);
        let pos = self.free.partition_point(|&(s, _)| s < start);
        self.free.insert(pos, (start, len));
        self.allocated -= len;
        // Merge with right neighbour, then left.
        if pos + 1 < self.free.len() {
            let (s, l) = self.free[pos];
            let (ns, nl) = self.free[pos + 1];
            debug_assert!(s + l <= ns, "double free / overlap");
            if s + l == ns {
                self.free[pos] = (s, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (ps, pl) = self.free[pos - 1];
            let (s, l) = self.free[pos];
            debug_assert!(ps + pl <= s, "double free / overlap");
            if ps + pl == s {
                self.free[pos - 1] = (ps, pl + l);
                self.free.remove(pos);
            }
        }
    }

    /// Words currently allocated.
    pub fn allocated(&self) -> u32 {
        self.allocated
    }

    /// Total capacity in words.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Releases every allocation (used between launches).
    pub fn reset(&mut self) {
        self.free.clear();
        if self.capacity > 0 {
            self.free.push((0, self.capacity));
        }
        self.allocated = 0;
    }
}

/// Computes the physical word of `(warp_in_block, reg, lane)` within a
/// block's vector-RF region.
///
/// Layout: warps are contiguous; within a warp, registers are contiguous
/// lane-major (`reg * warp_size + lane`), matching the banked organisation
/// of real register files where a warp-register is a row of lanes.
///
/// # Example
/// ```
/// use simt_sim::regfile::vreg_phys_word;
/// // base 100, warp 1 of a 32-wide machine with 8 regs/thread, r2, lane 5
/// assert_eq!(vreg_phys_word(100, 1, 8, 32, 2, 5), 100 + 256 + 64 + 5);
/// ```
pub fn vreg_phys_word(
    block_base: u32,
    warp_in_block: u32,
    vregs_per_thread: u32,
    warp_size: u32,
    reg: u32,
    lane: u32,
) -> u32 {
    block_base + warp_in_block * vregs_per_thread * warp_size + reg * warp_size + lane
}

/// Computes the physical word of scalar register `reg` of
/// `warp_in_block` within a block's scalar-RF region.
pub fn sreg_phys_word(block_base: u32, warp_in_block: u32, sregs_per_warp: u32, reg: u32) -> u32 {
    block_base + warp_in_block * sregs_per_warp + reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_bit_forces_both_polarities() {
        let s = StuckBit {
            structure: Structure::LocalMemory,
            word: 0,
            bit: 31,
            stuck_value: true,
        };
        assert_eq!(s.force(0), 1 << 31);
        assert_eq!(s.force(u32::MAX), u32::MAX);
        let z = StuckBit {
            stuck_value: false,
            ..s
        };
        assert_eq!(z.force(u32::MAX), u32::MAX >> 1);
        assert_eq!(z.force(0), 0);
    }

    #[test]
    fn first_fit_and_merge() {
        let mut a = RegionAllocator::new(64);
        let r0 = a.alloc(16).unwrap();
        let r1 = a.alloc(16).unwrap();
        let r2 = a.alloc(16).unwrap();
        assert_eq!((r0, r1, r2), (0, 16, 32));
        a.free(r1, 16);
        assert_eq!(a.alloc(32), None, "free space is fragmented");
        a.free(r0, 16);
        assert_eq!(a.alloc(32), Some(0), "adjacent regions merged");
        a.free(r2, 16);
        a.free(0, 32);
        assert_eq!(a.allocated(), 0);
        assert_eq!(a.alloc(64), Some(0), "fully merged after all frees");
    }

    #[test]
    fn zero_capacity_and_zero_len() {
        let mut a = RegionAllocator::new(0);
        assert_eq!(a.alloc(0), Some(0));
        assert_eq!(a.alloc(1), None);
        a.free(0, 0); // no-op
        assert_eq!(a.allocated(), 0);
    }

    #[test]
    fn reset_restores_capacity() {
        let mut a = RegionAllocator::new(10);
        let _ = a.alloc(10).unwrap();
        assert_eq!(a.alloc(1), None);
        a.reset();
        assert_eq!(a.alloc(10), Some(0));
        assert_eq!(a.capacity(), 10);
    }

    #[test]
    fn merge_right_then_left() {
        let mut a = RegionAllocator::new(30);
        let r0 = a.alloc(10).unwrap();
        let r1 = a.alloc(10).unwrap();
        let r2 = a.alloc(10).unwrap();
        a.free(r2, 10);
        a.free(r0, 10);
        a.free(r1, 10); // merges with both neighbours
        assert_eq!(a.alloc(30), Some(0));
    }

    #[test]
    fn phys_mapping_is_dense_and_disjoint() {
        // Every (warp, reg, lane) of a 2-warp, 3-reg, 4-lane block maps to a
        // unique word in [base, base + 24).
        let base = 7;
        let mut seen = std::collections::HashSet::new();
        for w in 0..2 {
            for r in 0..3 {
                for l in 0..4 {
                    let p = vreg_phys_word(base, w, 3, 4, r, l);
                    assert!(p >= base && p < base + 24);
                    assert!(seen.insert(p), "collision at {p}");
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn sreg_mapping() {
        assert_eq!(sreg_phys_word(10, 0, 4, 0), 10);
        assert_eq!(sreg_phys_word(10, 2, 4, 3), 21);
    }
}
