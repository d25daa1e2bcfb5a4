//! Property tests for the simulator substrate: allocator invariants,
//! cache behaviour, coalescing and end-to-end execution determinism on
//! randomly generated straight-line kernels.

use proptest::prelude::*;
use simt_isa::{lower, KernelBuilder, MemSpace};
use simt_sim::mem::{count_segments, MemorySystem};
use simt_sim::regfile::RegionAllocator;
use simt_sim::sm::lds_conflict_degree;
use simt_sim::{ArchConfig, Cache, CacheGeom, CacheStats, Gpu, Latencies, LaunchConfig};

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u32),
    FreeNth(usize),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u32..64).prop_map(AllocOp::Alloc),
            any::<usize>().prop_map(AllocOp::FreeNth),
        ],
        1..60,
    )
}

proptest! {
    /// The allocator never double-books words, keeps its byte accounting
    /// exact, and recovers full capacity after everything is freed.
    #[test]
    fn region_allocator_invariants(ops in alloc_ops()) {
        let capacity = 256u32;
        let mut a = RegionAllocator::new(capacity);
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut expected = 0u32;
        for op in ops {
            match op {
                AllocOp::Alloc(len) => {
                    if let Some(start) = a.alloc(len) {
                        // No overlap with any live region.
                        for &(s, l) in &live {
                            prop_assert!(start + len <= s || s + l <= start,
                                "overlap: new ({start},{len}) vs ({s},{l})");
                        }
                        prop_assert!(start + len <= capacity);
                        live.push((start, len));
                        expected += len;
                    }
                }
                AllocOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let (s, l) = live.remove(i % live.len());
                        a.free(s, l);
                        expected -= l;
                    }
                }
            }
            prop_assert_eq!(a.allocated(), expected);
        }
        for (s, l) in live.drain(..) {
            a.free(s, l);
        }
        prop_assert_eq!(a.allocated(), 0);
        prop_assert_eq!(a.alloc(capacity), Some(0), "capacity recovered");
    }

    /// Cache hit+miss count equals accesses, and re-touching the same
    /// address twice in a row always hits the second time.
    #[test]
    fn cache_accounting(addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut c = Cache::new(CacheGeom { bytes: 1024, line_bytes: 64, assoc: 2 });
        for &a in &addrs {
            let _ = c.access(a);
            prop_assert!(c.access(a), "immediate re-access must hit");
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64 * 2);
        prop_assert!(s.hits >= addrs.len() as u64);
    }

    /// Coalescing counts are bounded by lane count and by the address
    /// span, and are permutation-invariant.
    #[test]
    fn coalescing_bounds(mut addrs in proptest::collection::vec(0u32..100_000, 1..64)) {
        let segs = count_segments(&addrs, 128);
        prop_assert!(segs >= 1);
        prop_assert!(segs <= addrs.len() as u32);
        let lo = addrs.iter().min().unwrap() / 128;
        let hi = addrs.iter().max().unwrap() / 128;
        prop_assert!(segs <= hi - lo + 1);
        addrs.reverse();
        prop_assert_eq!(count_segments(&addrs, 128), segs, "order-invariant");
    }
}

/// Random arithmetic expression kernel: out[i] = f(i) for a random f
/// composed of ALU ops; checks device-vs-host agreement and determinism.
fn random_alu_program() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((0u8..6, any::<u32>()), 1..20)
}

fn apply_host(ops: &[(u8, u32)], mut v: u32) -> u32 {
    for &(op, imm) in ops {
        v = match op {
            0 => v.wrapping_add(imm),
            1 => v.wrapping_sub(imm),
            2 => v.wrapping_mul(imm | 1),
            3 => v ^ imm,
            4 => v | imm,
            _ => v.wrapping_shl(imm & 7),
        };
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulator computes exactly what the host computes for any
    /// random straight-line integer program, on both vendor styles.
    #[test]
    fn random_programs_agree_with_host(ops in random_alu_program()) {
        let mut kb = KernelBuilder::new("rand_alu", 1);
        let out = kb.param(0);
        let gid = kb.vreg();
        let v = kb.vreg();
        let addr = kb.vreg();
        kb.global_tid_x(gid);
        kb.mov(v, gid);
        for &(op, imm) in &ops {
            match op {
                0 => kb.iadd(v, v, imm),
                1 => kb.isub(v, v, imm),
                2 => kb.imul(v, v, imm | 1),
                3 => kb.xor(v, v, imm),
                4 => kb.or(v, v, imm),
                _ => kb.shl(v, v, imm & 7),
            };
        }
        kb.word_addr(addr, out, gid);
        kb.st(MemSpace::Global, addr, v);
        kb.exit();
        let k = kb.build().unwrap();

        for arch in [ArchConfig::small_test_gpu(), ArchConfig::small_test_gpu_scalar()] {
            let lowered = lower(&k, arch.caps()).unwrap();
            let mut gpu = Gpu::new(arch);
            let buf = gpu.alloc_words(64);
            gpu.launch(&lowered, LaunchConfig::linear(4, 16), &[buf.addr()])
                .unwrap();
            let words = gpu.read_words(buf, 64);
            for (i, w) in words.iter().enumerate() {
                prop_assert_eq!(*w, apply_host(&ops, i as u32), "thread {}", i);
            }
        }
    }

    /// Timing and instruction counts are identical across repeated runs.
    #[test]
    fn execution_is_deterministic(seed in any::<u32>()) {
        let mut kb = KernelBuilder::new("det", 1);
        let out = kb.param(0);
        let gid = kb.vreg();
        let addr = kb.vreg();
        kb.global_tid_x(gid);
        kb.xor(gid, gid, seed);
        kb.word_addr(addr, out, gid);
        kb.exit();
        let k = kb.build().unwrap();
        let arch = ArchConfig::small_test_gpu();
        let lowered = lower(&k, arch.caps()).unwrap();
        let run = |arch: &ArchConfig| {
            let mut gpu = Gpu::new(arch.clone());
            let buf = gpu.alloc_words(64);
            let st = gpu
                .launch(&lowered, LaunchConfig::linear(4, 16), &[buf.addr()])
                .unwrap();
            (st.cycles, st.warp_instructions, st.thread_instructions)
        };
        prop_assert_eq!(run(&arch), run(&arch));
    }
}

/// The device memory timing model as it was with a heap-allocated
/// coalescer: the reference for the allocation-free
/// [`MemorySystem::access_latency`].
struct VecMemoryModel {
    l1: Vec<Cache>,
    l2: Cache,
    lat: Latencies,
    coalesce_bytes: u32,
    transactions: u64,
}

impl VecMemoryModel {
    fn access_latency(&mut self, sm: u32, addrs: &[u32]) -> u32 {
        if addrs.is_empty() {
            return 0;
        }
        let mut segs: Vec<u32> = addrs.iter().map(|a| a / self.coalesce_bytes).collect();
        segs.sort_unstable();
        segs.dedup();
        self.transactions += segs.len() as u64;
        let mut worst = 0u32;
        for seg in &segs {
            let addr = seg * self.coalesce_bytes;
            let lat = if self.l1[sm as usize].access(addr) {
                self.lat.l1_hit
            } else if self.l2.access(addr) {
                self.lat.l2_hit
            } else {
                self.lat.dram
            };
            worst = worst.max(lat);
        }
        worst + (segs.len() as u32 - 1) * self.lat.mem_serialize
    }
}

/// The LDS bank-conflict degree as it was with one heap vector per bank:
/// the reference for the allocation-free [`lds_conflict_degree`].
fn vec_lds_conflict_degree(words: &[u32], banks: u32) -> u32 {
    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks as usize];
    for &w in words {
        let b = (w % banks) as usize;
        if !per_bank[b].contains(&w) {
            per_bank[b].push(w);
        }
    }
    per_bank
        .iter()
        .map(|v| v.len() as u32)
        .max()
        .unwrap_or(0)
        .max(1)
}

/// The addresses of one warp access: 0 to 64 lanes, drawn either from a
/// few hundred words that every access shares (repeated words, shared
/// segments and cache hits are common) or from the whole address space
/// (every lane its own segment).
fn warp_addresses() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        proptest::collection::vec(0u32..384, 0..=64)
            .prop_map(|words| words.into_iter().map(|w| w * 4).collect()),
        proptest::collection::vec(any::<u32>(), 0..=64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The allocation-free coalescer issues the same transactions, in the
    /// same order, as the heap-vector one: equal latencies, transaction
    /// counts and L1/L2 hits and misses over a stream of warp accesses.
    /// The caches are tiny, so the lines of one access evict each other
    /// and the order in which they reach the caches shows in the counts.
    #[test]
    fn coalescer_matches_the_vec_model(
        segment in prop_oneof![Just(32u32), Just(64u32), Just(128u32)],
        accesses in proptest::collection::vec((0u32..2, warp_addresses()), 1..12),
    ) {
        let lat = ArchConfig::small_test_gpu().lat;
        let l1 = CacheGeom { bytes: 512, line_bytes: 32, assoc: 2 };
        let l2 = CacheGeom { bytes: 2048, line_bytes: 32, assoc: 4 };
        let mut sys = MemorySystem::new(2, Some(l1), Some(l2), lat, segment);
        let mut model = VecMemoryModel {
            l1: vec![Cache::new(l1), Cache::new(l1)],
            l2: Cache::new(l2),
            lat,
            coalesce_bytes: segment,
            transactions: 0,
        };
        for (sm, addrs) in &accesses {
            prop_assert_eq!(
                sys.access_latency(*sm, addrs),
                model.access_latency(*sm, addrs)
            );
            prop_assert_eq!(sys.transactions, model.transactions);
        }
        let l1_stats = CacheStats {
            hits: model.l1.iter().map(|c| c.stats().hits).sum(),
            misses: model.l1.iter().map(|c| c.stats().misses).sum(),
        };
        prop_assert_eq!(sys.l1_stats(), l1_stats);
        prop_assert_eq!(sys.l2_stats(), Some(model.l2.stats()));
        let addrs = &accesses[0].1;
        let mut segs: Vec<u32> = addrs.iter().map(|a| a / segment).collect();
        segs.sort_unstable();
        segs.dedup();
        prop_assert_eq!(count_segments(addrs, segment), segs.len() as u32);
    }

    /// The allocation-free bank-conflict degree equals the per-bank-vector
    /// one on 0 to 64 words with repeats.
    #[test]
    fn lds_conflict_degree_matches_the_vec_model(
        banks in prop_oneof![Just(16u32), Just(32u32)],
        words in proptest::collection::vec(0u32..200, 0..=64),
    ) {
        prop_assert_eq!(
            lds_conflict_degree(&words, banks),
            vec_lds_conflict_degree(&words, banks)
        );
    }
}
