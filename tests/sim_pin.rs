//! Exact pin of the cycle-level simulator on real workloads.
//!
//! For the ten workloads at smoke size (input seed 7) on all four devices:
//! golden cycles, warp/scalar/thread instructions, summed busy cycles, L1
//! and L2 hits and misses, memory transactions and an FNV-1a digest of the
//! full observer event stream (every callback with its arguments and
//! cycle). A second table pins control-fault replays armed on an SM whose
//! resident warps are all waiting, so a scheduler that skips idle cycles
//! must notice state edited behind its back. The constants were recorded
//! with a scheduler that rescanned every warp slot on every cycle, so any
//! timing drift of a faster scheduler shows here.

use gpu_archs::all_devices;
use gpu_workloads::{
    Backprop, DwtHaar1D, Gaussian, Histogram, Kmeans, MatrixMul, Reduction, Scan, Transpose,
    VectorAdd, Workload,
};
use simt_sim::{
    ArchConfig, BlockRegions, ControlTarget, Due, FaultKind, FaultSite, Gpu, Session,
    SessionStatus, SimError, SimObserver, Structure,
};

/// `(device, workload, [cycles, warp instructions, scalar instructions,
/// thread instructions, busy cycles, L1 hits, L1 misses, L2 hits,
/// L2 misses, memory transactions], event digest)`, input seed 7.
type GoldenPin = (&'static str, &'static str, [u64; 10], u64);

#[rustfmt::skip]
const GOLDEN: &[GoldenPin] = &[
    ("HD Radeon 7970", "backprop", [2536, 1124, 0, 41280, 436, 100, 112, 9, 103, 212], 0xfc780bf12d741208),
    ("HD Radeon 7970", "dwtHaar1D", [4290, 207, 0, 4845, 184, 20, 42, 0, 42, 62], 0x25a771a4a9cf4ce8),
    ("HD Radeon 7970", "gaussian", [18686, 1041, 154, 21318, 703, 221, 151, 0, 151, 372], 0x1bf7bbc3a4525708),
    ("HD Radeon 7970", "histogram", [589, 284, 0, 10496, 116, 0, 32, 0, 32, 288], 0x2cb366219577bf0d),
    ("HD Radeon 7970", "kmeans", [4430, 840, 72, 47104, 456, 1084, 84, 2, 82, 1168], 0x8a4bfe6709c0140e),
    ("HD Radeon 7970", "matrixMul", [2421, 2272, 96, 134144, 592, 64, 256, 160, 96, 320], 0xe9d6613d6d07d06e),
    ("HD Radeon 7970", "reduction", [1732, 1305, 185, 30787, 682, 0, 38, 3, 35, 38], 0xc6f7babcded30062),
    ("HD Radeon 7970", "scan", [2327, 2244, 265, 82813, 731, 33, 98, 5, 93, 131], 0xc75292ab711fe046),
    ("HD Radeon 7970", "transpose", [521, 288, 0, 16384, 72, 0, 128, 64, 64, 128], 0xff5c9f4b9e04c74e),
    ("HD Radeon 7970", "vectoradd", [467, 208, 0, 10240, 104, 0, 96, 0, 96, 96], 0x6946744f1829f6ee),
    ("Quadro FX 5600", "backprop", [2855, 2084, 0, 41280, 2084, 0, 0, 0, 0, 420], 0x4981d533c6d37463),
    ("Quadro FX 5600", "dwtHaar1D", [4724, 276, 0, 4845, 276, 0, 0, 0, 0, 106], 0x8fed9a8cd81d1981),
    ("Quadro FX 5600", "gaussian", [28502, 2069, 0, 31174, 2069, 0, 0, 0, 0, 877], 0xec4043be3cc285b4),
    ("Quadro FX 5600", "histogram", [614, 568, 0, 10496, 568, 0, 0, 0, 0, 320], 0xcb971d8a396b7565),
    ("Quadro FX 5600", "kmeans", [15868, 1824, 0, 51712, 1824, 0, 0, 0, 0, 2336], 0xa95c2e0fc4f4fe9a),
    ("Quadro FX 5600", "matrixMul", [3510, 4736, 0, 140288, 4736, 0, 0, 0, 0, 320], 0x2189186ad0e5cf3d),
    ("Quadro FX 5600", "reduction", [2337, 2742, 0, 41038, 2742, 0, 0, 0, 0, 70], 0x5c0a9f3d382f7713),
    ("Quadro FX 5600", "scan", [3190, 4933, 0, 99218, 4933, 0, 0, 0, 0, 255], 0xd13a8da0bd2d23a5),
    ("Quadro FX 5600", "transpose", [604, 576, 0, 16384, 576, 0, 0, 0, 0, 128], 0x230d23037a2c8843),
    ("Quadro FX 5600", "vectoradd", [516, 416, 0, 10240, 416, 0, 0, 0, 0, 192], 0x2c285b2558c734bc),
    ("Quadro FX 5800", "backprop", [2881, 2084, 0, 41280, 2084, 0, 0, 0, 0, 420], 0x6268e2fe943dda89),
    ("Quadro FX 5800", "dwtHaar1D", [4720, 276, 0, 4845, 276, 0, 0, 0, 0, 106], 0x617979165d917b0b),
    ("Quadro FX 5800", "gaussian", [28907, 2069, 0, 31174, 2069, 0, 0, 0, 0, 877], 0x425294ea93fd348a),
    ("Quadro FX 5800", "histogram", [620, 568, 0, 10496, 568, 0, 0, 0, 0, 320], 0x456563fe7e60a6ec),
    ("Quadro FX 5800", "kmeans", [15912, 1824, 0, 51712, 1824, 0, 0, 0, 0, 2336], 0xdec88c732c1d7ffd),
    ("Quadro FX 5800", "matrixMul", [3480, 4736, 0, 140288, 4736, 0, 0, 0, 0, 320], 0xbbd08b07c51e97c7),
    ("Quadro FX 5800", "reduction", [2223, 2742, 0, 41038, 2742, 0, 0, 0, 0, 70], 0xbe0deff10a264747),
    ("Quadro FX 5800", "scan", [3076, 4933, 0, 99218, 4933, 0, 0, 0, 0, 255], 0xa9dd8377dd332db5),
    ("Quadro FX 5800", "transpose", [606, 576, 0, 16384, 576, 0, 0, 0, 0, 128], 0xd147ef20799cf871),
    ("Quadro FX 5800", "vectoradd", [522, 416, 0, 10240, 416, 0, 0, 0, 0, 192], 0xaf5305cd714e9746),
    ("GeForce GTX 480", "backprop", [2680, 2084, 0, 41280, 1244, 148, 112, 9, 103, 260], 0x433916cb9552844d),
    ("GeForce GTX 480", "dwtHaar1D", [4462, 276, 0, 4845, 207, 20, 42, 0, 42, 62], 0xfeb4b48840f69108),
    ("GeForce GTX 480", "gaussian", [19836, 2069, 0, 31174, 1413, 434, 151, 0, 151, 585], 0xc8985bad08ce340a),
    ("GeForce GTX 480", "histogram", [583, 568, 0, 10496, 297, 0, 32, 0, 32, 288], 0xc85d717b714ab4a3),
    ("GeForce GTX 480", "kmeans", [4312, 1824, 0, 51712, 1388, 1212, 84, 2, 82, 1296], 0x1cc918c3eee42085),
    ("GeForce GTX 480", "matrixMul", [2055, 4736, 0, 140288, 2748, 64, 256, 160, 96, 320], 0xdfc1ca284701fd37),
    ("GeForce GTX 480", "reduction", [1720, 2742, 0, 41038, 1598, 0, 38, 3, 35, 38], 0x719a99a76700e6d8),
    ("GeForce GTX 480", "scan", [2544, 4933, 0, 99218, 2746, 45, 98, 5, 93, 143], 0xaeb20a51ae7cb54a),
    ("GeForce GTX 480", "transpose", [568, 576, 0, 16384, 288, 0, 128, 64, 64, 128], 0x0ffbfa9f01f7de87),
    ("GeForce GTX 480", "vectoradd", [505, 416, 0, 10240, 208, 0, 96, 0, 96, 96], 0x1b95c32fd50d7ecc),
];

/// `(device, target, bit, injection cycle, outcome, final app cycle,
/// event digest)` of a control fault on SM 0, slot 0 of `reduction`.
type ControlPin = (&'static str, &'static str, u8, u64, &'static str, u64, u64);

/// Bits flipped by the control replays: a low, a middle and a high bit of
/// the targeted timing, mask or counter word.
const CONTROL_BITS: [u8; 3] = [1, 5, 9];

#[rustfmt::skip]
const CONTROL: &[ControlPin] = &[
    ("HD Radeon 7970", "sched", 1, 447, "masked", 1734, 0x8deaa6523231cad7),
    ("HD Radeon 7970", "sched", 5, 447, "masked", 1764, 0x073c21e469d18f68),
    ("HD Radeon 7970", "sched", 9, 447, "masked", 2244, 0x088b61dfd5610ae4),
    ("HD Radeon 7970", "mask", 1, 447, "due", 449, 0x9dcc2ea8faec15bb),
    ("HD Radeon 7970", "mask", 5, 447, "due", 449, 0xb42850161197cd1b),
    ("HD Radeon 7970", "mask", 9, 447, "due", 449, 0xf2578447df2d185b),
    ("HD Radeon 7970", "sboard", 1, 447, "masked", 1732, 0x693920b8219822ae),
    ("HD Radeon 7970", "sboard", 5, 447, "masked", 1732, 0xfdf562a6ae2b914e),
    ("HD Radeon 7970", "sboard", 9, 447, "masked", 1764, 0x69bcfa4e019d6d78),
    ("HD Radeon 7970", "barrier", 1, 447, "masked", 1802, 0xd347b0a920b5936f),
    ("HD Radeon 7970", "barrier", 5, 447, "hang", 20000, 0x0ecde7cc6707061e),
    ("HD Radeon 7970", "barrier", 9, 447, "hang", 20000, 0xd4c0f446c8b3bbc6),
    ("Quadro FX 5600", "sched", 1, 557, "masked", 2337, 0x041a09e70ec06c1c),
    ("Quadro FX 5600", "sched", 5, 557, "masked", 2337, 0x519e5b4e520a3694),
    ("Quadro FX 5600", "sched", 9, 557, "masked", 2337, 0x0dffdef646df41bc),
    ("Quadro FX 5600", "mask", 1, 557, "sdc", 2337, 0x80b59d71b13fe334),
    ("Quadro FX 5600", "mask", 5, 557, "sdc", 2337, 0x4b870fbd02a8a835),
    ("Quadro FX 5600", "mask", 9, 557, "sdc", 2337, 0xeb9b8b425e83f5f5),
    ("Quadro FX 5600", "sboard", 1, 557, "masked", 2337, 0x84b63ea19ce31d28),
    ("Quadro FX 5600", "sboard", 5, 557, "masked", 2337, 0x04ad939b6eb57038),
    ("Quadro FX 5600", "sboard", 9, 557, "masked", 2337, 0x5f62c43afc2fd5b0),
    ("Quadro FX 5600", "barrier", 1, 557, "masked", 2428, 0xbfc63a45d83619a4),
    ("Quadro FX 5600", "barrier", 5, 557, "hang", 20000, 0x74d96223fc6c2bac),
    ("Quadro FX 5600", "barrier", 9, 557, "hang", 20000, 0x1c78c21950f7bd2c),
    ("Quadro FX 5800", "sched", 1, 567, "masked", 2223, 0x55c1f338853d07b6),
    ("Quadro FX 5800", "sched", 5, 567, "masked", 2223, 0x93a8e2cd807ad546),
    ("Quadro FX 5800", "sched", 9, 567, "masked", 2223, 0x81228f8fe15f5906),
    ("Quadro FX 5800", "mask", 1, 567, "sdc", 2223, 0x323f8eff465f1a36),
    ("Quadro FX 5800", "mask", 5, 567, "sdc", 2223, 0x1d549e91364c6b67),
    ("Quadro FX 5800", "mask", 9, 567, "sdc", 2223, 0x9ba5f3edeacc257b),
    ("Quadro FX 5800", "sboard", 1, 567, "masked", 2223, 0x903268e24d06e56a),
    ("Quadro FX 5800", "sboard", 5, 567, "masked", 2223, 0xd8a9f93f3b1745f2),
    ("Quadro FX 5800", "sboard", 9, 567, "masked", 2223, 0xdabf6c05fdb81342),
    ("Quadro FX 5800", "barrier", 1, 567, "masked", 2300, 0x435b88f5a03dd47c),
    ("Quadro FX 5800", "barrier", 5, 567, "hang", 20000, 0xc4ec7772b68e18d3),
    ("Quadro FX 5800", "barrier", 9, 567, "hang", 20000, 0xa394fc2da1563433),
    ("GeForce GTX 480", "sched", 1, 534, "masked", 1720, 0x1b05032c06359d10),
    ("GeForce GTX 480", "sched", 5, 534, "masked", 1731, 0x26a7ce2bb2226a64),
    ("GeForce GTX 480", "sched", 9, 534, "masked", 1720, 0x23abb991dae27ec0),
    ("GeForce GTX 480", "mask", 1, 534, "sdc", 1720, 0xf882f5ad38260b69),
    ("GeForce GTX 480", "mask", 5, 534, "sdc", 1720, 0xc9e29bc95a6942b8),
    ("GeForce GTX 480", "mask", 9, 534, "sdc", 1720, 0xba0a0505336dfa78),
    ("GeForce GTX 480", "sboard", 1, 534, "masked", 1720, 0xe5f43d0ff4e31e80),
    ("GeForce GTX 480", "sboard", 5, 534, "masked", 1720, 0x5fc3a16879426130),
    ("GeForce GTX 480", "sboard", 9, 534, "masked", 1720, 0xea1843f5dc8a2a70),
    ("GeForce GTX 480", "barrier", 1, 534, "masked", 1739, 0xc48e2dc68f84716b),
    ("GeForce GTX 480", "barrier", 5, 534, "hang", 20000, 0xc8d60c01d891db75),
    ("GeForce GTX 480", "barrier", 9, 534, "hang", 20000, 0xb7775038b9d4aa3d),
];

/// The ten workloads at `repro --smoke` size.
fn smoke_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Backprop::new(64, seed)),
        Box::new(DwtHaar1D::new(256, seed)),
        Box::new(Gaussian::new(12, seed)),
        Box::new(Histogram::new(1024, 64, seed)),
        Box::new(Kmeans::new(256, 4, 2, seed)),
        Box::new(MatrixMul::new(32, seed)),
        Box::new(Reduction::new(1024, 256, seed)),
        Box::new(Scan::new(1024, 256, seed)),
        Box::new(Transpose::new(32, seed)),
        Box::new(VectorAdd::new(1024, seed)),
    ]
}

/// FNV-1a over every observer event, plus SM 0's resident block count
/// (which the control replays use to find a waiting SM).
struct EventDigest {
    hash: u64,
    sm0_blocks: u32,
}

impl EventDigest {
    fn new() -> Self {
        EventDigest {
            hash: 0xcbf2_9ce4_8422_2325,
            sm0_blocks: 0,
        }
    }

    fn mix(&mut self, tag: u8, vals: &[u64]) {
        self.byte(tag);
        for v in vals {
            for b in v.to_le_bytes() {
                self.byte(b);
            }
        }
    }

    fn byte(&mut self, b: u8) {
        self.hash ^= b as u64;
        self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn regions(r: BlockRegions) -> [u64; 6] {
        [
            r.rf_base as u64,
            r.rf_len as u64,
            r.srf_base as u64,
            r.srf_len as u64,
            r.lds_base as u64,
            r.lds_len as u64,
        ]
    }

    fn site(s: FaultSite) -> [u64; 6] {
        let kind = match s.kind {
            FaultKind::TransientFlip => 0,
            FaultKind::StuckAt0 => 1,
            FaultKind::StuckAt1 => 2,
            FaultKind::Control(t) => 3 + t.index(),
        };
        [
            structure_code(s.structure),
            s.sm as u64,
            s.word as u64,
            s.bit as u64,
            s.cycle,
            kind,
        ]
    }
}

fn structure_code(s: Structure) -> u64 {
    match s {
        Structure::VectorRegisterFile => 0,
        Structure::LocalMemory => 1,
        Structure::ScalarRegisterFile => 2,
    }
}

impl SimObserver for EventDigest {
    fn on_rf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.mix(1, &[sm as u64, word as u64, cycle]);
    }
    fn on_rf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.mix(2, &[sm as u64, word as u64, cycle]);
    }
    fn on_srf_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.mix(3, &[sm as u64, word as u64, cycle]);
    }
    fn on_srf_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.mix(4, &[sm as u64, word as u64, cycle]);
    }
    fn on_lds_write(&mut self, sm: u32, word: u32, cycle: u64) {
        self.mix(5, &[sm as u64, word as u64, cycle]);
    }
    fn on_lds_read(&mut self, sm: u32, word: u32, cycle: u64) {
        self.mix(6, &[sm as u64, word as u64, cycle]);
    }
    fn on_block_dispatch(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        if sm == 0 {
            self.sm0_blocks += 1;
        }
        self.mix(7, &[sm as u64, cycle]);
        self.mix(7, &Self::regions(regions));
    }
    fn on_block_retire(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        if sm == 0 {
            self.sm0_blocks -= 1;
        }
        self.mix(8, &[sm as u64, cycle]);
        self.mix(8, &Self::regions(regions));
    }
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        self.sm0_blocks = 0;
        self.mix(9, &[cycle]);
        for b in name.bytes() {
            self.byte(b);
        }
    }
    fn on_launch_end(&mut self, cycle: u64) {
        self.mix(10, &[cycle]);
    }
    fn on_global_write(&mut self, sm: u32, addr: u32, value: u32, cycle: u64) {
        self.mix(11, &[sm as u64, addr as u64, value as u64, cycle]);
    }
    fn on_fault_injected(&mut self, site: FaultSite) {
        self.mix(12, &Self::site(site));
    }
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.mix(
            13,
            &[sm as u64, structure_code(structure), word as u64, cycle],
        );
    }
    fn on_hang(&mut self, cycle: u64, parked_warps: u32) {
        self.mix(14, &[cycle, parked_warps as u64]);
    }
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        self.mix(15, &Self::site(site));
        self.mix(15, &[cycle]);
    }
}

fn golden_row(arch: &ArchConfig, w: &dyn Workload) -> String {
    let mut gpu = Gpu::new(arch.clone());
    let mut obs = EventDigest::new();
    let out = w.run(&mut gpu, &mut obs).unwrap();
    assert_eq!(out, w.reference(), "{}@{}", w.name(), arch.name);
    let t = gpu.exec_totals();
    let l1 = gpu.l1_stats();
    let l2 = gpu.l2_stats().unwrap_or_default();
    let counts = [
        gpu.app_cycle(),
        t.warp_instructions,
        t.scalar_instructions,
        t.thread_instructions,
        t.busy_cycles,
        l1.hits,
        l1.misses,
        l2.hits,
        l2.misses,
        gpu.mem_transactions(),
    ];
    format_golden(&(&arch.name, w.name(), counts, obs.hash))
}

fn format_golden(p: &(&str, &str, [u64; 10], u64)) -> String {
    format!("(\"{}\", \"{}\", {:?}, {:#018x}),", p.0, p.1, p.2, p.3)
}

#[test]
fn golden_runs_are_pinned() {
    let got: Vec<String> = all_devices()
        .iter()
        .flat_map(|arch| {
            smoke_workloads(7)
                .into_iter()
                .map(|w| golden_row(arch, w.as_ref()))
        })
        .collect();
    let want: Vec<String> = GOLDEN.iter().map(format_golden).collect();
    assert_eq!(got, want, "golden pins:\n{}", got.join("\n"));
}

/// The first cycle from `from` on at which SM 0 holds a block but has
/// issued nothing for three cycles running (the middle one is returned):
/// every resident warp is waiting on the scoreboard, its issue timing or a
/// barrier.
fn waiting_cycle(arch: &ArchConfig, w: &dyn Workload, from: u64) -> u64 {
    let mut gpu = Gpu::new(arch.clone());
    let mut obs = EventDigest::new();
    let mut s = Session::new(&mut gpu, w.plan());
    let mut idle_run = 0u64;
    loop {
        let cycle = s.gpu().app_cycle();
        let busy = s.gpu().per_sm_stats()[0].busy_cycles;
        let resident = obs.sm0_blocks > 0;
        assert_eq!(
            s.step(&mut obs).unwrap(),
            SessionStatus::Running,
            "{}@{}: no waiting cycle found",
            w.name(),
            arch.name
        );
        if s.gpu().app_cycle() == cycle {
            idle_run = 0; // a host step, not a cycle
            continue;
        }
        let issued = s.gpu().per_sm_stats()[0].busy_cycles > busy;
        idle_run = if resident && obs.sm0_blocks > 0 && !issued {
            idle_run + 1
        } else {
            0
        };
        if idle_run == 3 && cycle > from {
            return cycle - 1;
        }
    }
}

fn control_row(arch: &ArchConfig, w: &dyn Workload, site: FaultSite) -> (&'static str, u64, u64) {
    let golden = w.reference();
    let mut gpu = Gpu::new(arch.clone());
    let mut obs = EventDigest::new();
    let mut s = Session::new(&mut gpu, w.plan());
    // Far above every golden run of `reduction` at smoke size (< 3,000
    // cycles), low enough to keep the hung replays cheap.
    s.set_watchdog(20_000);
    s.arm_fault(site);
    let outcome = match s.run_to_completion(&mut obs) {
        Ok(out) if out == golden => "masked",
        Ok(_) => "sdc",
        Err(SimError::Due(Due::WatchdogTimeout { .. })) => "hang",
        Err(SimError::Due(_)) => "due",
        Err(e) => panic!("{site}: {e}"),
    };
    (outcome, s.gpu().app_cycle(), obs.hash)
}

#[test]
fn control_faults_on_a_waiting_sm_are_pinned() {
    let w = Reduction::new(1024, 256, 7);
    let mut got = Vec::new();
    for arch in all_devices() {
        // Past the first wave of loads, in the middle of the reduction.
        let cycle = waiting_cycle(&arch, &w, 300);
        for t in ControlTarget::ALL {
            for bit in CONTROL_BITS {
                let site = FaultSite::try_new(
                    Structure::VectorRegisterFile,
                    0,
                    0,
                    bit,
                    cycle,
                    FaultKind::Control(t),
                )
                .unwrap();
                let (outcome, end, digest) = control_row(&arch, &w, site);
                got.push(format!(
                    "(\"{}\", \"{t}\", {bit}, {cycle}, \"{outcome}\", {end}, {digest:#018x}),",
                    arch.name
                ));
            }
        }
    }
    let want: Vec<String> = CONTROL
        .iter()
        .map(|r| {
            format!(
                "(\"{}\", \"{}\", {}, {}, \"{}\", {}, {:#018x}),",
                r.0, r.1, r.2, r.3, r.4, r.5, r.6
            )
        })
        .collect();
    assert_eq!(got, want, "control pins:\n{}", got.join("\n"));
}
