//! Exact pin of the simulator's observer event stream, in order.
//!
//! The ACE trackers, the lifetime oracle and the flight recorder read
//! the events of one warp instruction as a per-lane sequence: a lane's
//! operand reads in source order, then its write (and a stuck-bit
//! re-assertion right after the write it forced). This test hashes every
//! event with its arguments, in the order it arrives, for the ten smoke
//! workloads on all four devices, plus permanent stuck-at and transient
//! replays, so an execute path that reorders events inside an
//! instruction fails here even when it reads and writes the same words.
//! Each row also counts reads, writes, global writes and stuck-bit
//! re-assertions, so a failure says which kind of event moved.

use gpu_archs::all_devices;
use gpu_workloads::{
    Backprop, DwtHaar1D, Gaussian, Histogram, Kmeans, MatrixMul, Reduction, Scan, Transpose,
    VectorAdd, Workload,
};
use simt_sim::{
    BlockRegions, FaultKind, FaultSite, Gpu, Session, SimError, SimObserver, Structure,
};

/// `(device, workload, [reads, writes, global writes, stuck
/// re-assertions], FNV-1a digest of every event in order)`.
type Pin = (&'static str, &'static str, [u64; 4], u64);

#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    ("HD Radeon 7970", "backprop", [42180, 33168, 2112, 0], 0xba17bcdc7a2e0598),
    ("HD Radeon 7970", "dwtHaar1D", [6411, 4116, 510, 0], 0x7c50e353862d2c0b),
    ("HD Radeon 7970", "gaussian", [18204, 15884, 704, 0], 0x2314cd4314f50766),
    ("HD Radeon 7970", "histogram", [7748, 8512, 256, 0], 0x5970d06df4daeee9),
    ("HD Radeon 7970", "kmeans", [62312, 41584, 512, 0], 0x9f83c3e81b8d9cc6),
    ("HD Radeon 7970", "matrixMul", [261520, 130208, 1024, 0], 0x9752d8329d51c762),
    ("HD Radeon 7970", "reduction", [14894, 11534, 5, 0], 0x6b4962d3c22d42b0),
    ("HD Radeon 7970", "scan", [88644, 61880, 1801, 0], 0x3c55de2fa42e2081),
    ("HD Radeon 7970", "transpose", [15424, 15408, 1024, 0], 0x0544ea604c27d1a6),
    ("HD Radeon 7970", "vectoradd", [11328, 8256, 1024, 0], 0xf1e4dadf1cf2490a),
    ("Quadro FX 5600", "backprop", [49344, 42240, 2112, 0], 0x096f4a05205e6053),
    ("Quadro FX 5600", "dwtHaar1D", [7395, 5100, 510, 0], 0xf6a0188259726db6),
    ("Quadro FX 5600", "gaussian", [44880, 42218, 704, 0], 0xab28f28f9d9e3752),
    ("Quadro FX 5600", "histogram", [12032, 12544, 256, 0], 0xa0d933062d091b75),
    ("Quadro FX 5600", "kmeans", [84992, 48640, 512, 0], 0x6d8b98d71a54bc46),
    ("Quadro FX 5600", "matrixMul", [286720, 140288, 1024, 0], 0x8248685c8fb3cd41),
    ("Quadro FX 5600", "reduction", [44107, 24633, 5, 0], 0xb5b87b4f179de847),
    ("Quadro FX 5600", "scan", [131517, 83069, 1801, 0], 0x8fffce3365ecf2ea),
    ("Quadro FX 5600", "transpose", [19456, 18432, 1024, 0], 0x0da282d58b724343),
    ("Quadro FX 5600", "vectoradd", [15360, 12288, 1024, 0], 0x9b069a7c717d8848),
    ("Quadro FX 5800", "backprop", [49344, 42240, 2112, 0], 0x7b2467ee02fc43c9),
    ("Quadro FX 5800", "dwtHaar1D", [7395, 5100, 510, 0], 0x19013456bfbdc36c),
    ("Quadro FX 5800", "gaussian", [44880, 42218, 704, 0], 0xcc9a62c6fe3702dc),
    ("Quadro FX 5800", "histogram", [12032, 12544, 256, 0], 0x774271980174a2f0),
    ("Quadro FX 5800", "kmeans", [84992, 48640, 512, 0], 0xe1a2be6704132075),
    ("Quadro FX 5800", "matrixMul", [286720, 140288, 1024, 0], 0x46545a575195a7eb),
    ("Quadro FX 5800", "reduction", [44107, 24633, 5, 0], 0x5ff5cda9f0f41d17),
    ("Quadro FX 5800", "scan", [131517, 83069, 1801, 0], 0xcd8fd4d0e71c82d6),
    ("Quadro FX 5800", "transpose", [19456, 18432, 1024, 0], 0x0e330cf261542b49),
    ("Quadro FX 5800", "vectoradd", [15360, 12288, 1024, 0], 0x648bde75eb7ac332),
    ("GeForce GTX 480", "backprop", [49344, 42240, 2112, 0], 0x1a371d77eb4b20f9),
    ("GeForce GTX 480", "dwtHaar1D", [7395, 5100, 510, 0], 0xb6b5bcbb9ca41b4f),
    ("GeForce GTX 480", "gaussian", [44880, 42218, 704, 0], 0xaef3b9036f034b24),
    ("GeForce GTX 480", "histogram", [12032, 12544, 256, 0], 0x9bae2552997e4b37),
    ("GeForce GTX 480", "kmeans", [84992, 48640, 512, 0], 0xc8c15ef035bfc909),
    ("GeForce GTX 480", "matrixMul", [286720, 140288, 1024, 0], 0x9c2dce60b84c3cb3),
    ("GeForce GTX 480", "reduction", [44107, 24633, 5, 0], 0x5c12522c7c336920),
    ("GeForce GTX 480", "scan", [131517, 83069, 1801, 0], 0xe34e4444ca4e4c45),
    ("GeForce GTX 480", "transpose", [19456, 18432, 1024, 0], 0x7a8afa2016383853),
    ("GeForce GTX 480", "vectoradd", [15360, 12288, 1024, 0], 0x6dbe10438a98b758),
];

/// `(device, workload, structure, word, bit, cycle, kind)` of each
/// pinned replay on SM 0.
type Replay = (
    &'static str,
    &'static str,
    Structure,
    u32,
    u8,
    u64,
    FaultKind,
);

const REPLAYS: [Replay; 3] = [
    (
        "GeForce GTX 480",
        "matrixMul",
        Structure::VectorRegisterFile,
        261,
        1,
        0,
        FaultKind::StuckAt1,
    ),
    (
        "HD Radeon 7970",
        "histogram",
        Structure::LocalMemory,
        0,
        2,
        0,
        FaultKind::StuckAt1,
    ),
    (
        "Quadro FX 5600",
        "reduction",
        Structure::VectorRegisterFile,
        70,
        4,
        300,
        FaultKind::TransientFlip,
    ),
];

/// `(device, workload, outcome, counts, digest)` of each replay above.
type ReplayPin = (&'static str, &'static str, &'static str, [u64; 4], u64);

#[rustfmt::skip]
const REPLAY_PINS: &[ReplayPin] = &[
    ("GeForce GTX 480", "matrixMul", "sdc", [286720, 140288, 1024, 19], 0x936d50f1fa06d3d9),
    ("HD Radeon 7970", "histogram", "sdc", [7748, 8512, 256, 2], 0x6272d6142c6eb275),
    ("Quadro FX 5600", "reduction", "sdc", [44107, 24633, 5, 0], 0x0dced29df59fc148),
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

/// FNV-1a over every event in arrival order, and per-kind counts.
struct EventStream {
    hash: u64,
    counts: [u64; 4],
}

impl EventStream {
    fn new() -> Self {
        EventStream {
            hash: 0xcbf2_9ce4_8422_2325,
            counts: [0; 4],
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

    fn access(&mut self, tag: u8, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.mix(
            tag,
            &[sm as u64, structure.index() as u64, word as u64, cycle],
        );
    }

    fn regions(&mut self, tag: u8, sm: u32, r: BlockRegions, cycle: u64) {
        self.mix(tag, &[sm as u64, cycle]);
        for s in Structure::ALL {
            let (base, len) = r.region(s);
            self.mix(tag, &[base as u64, len as u64]);
        }
    }
}

impl SimObserver for EventStream {
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.counts[0] += 1;
        self.access(1, sm, structure, word, cycle);
    }
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.counts[1] += 1;
        self.access(2, sm, structure, word, cycle);
    }
    fn on_global_write(&mut self, sm: u32, addr: u32, value: u32, cycle: u64) {
        self.counts[2] += 1;
        self.mix(3, &[sm as u64, addr as u64, value as u64, cycle]);
    }
    fn on_stuck_reassert(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        self.counts[3] += 1;
        self.access(4, sm, structure, word, cycle);
    }
    fn on_block_dispatch(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        self.regions(5, sm, regions, cycle);
    }
    fn on_block_retire(&mut self, sm: u32, regions: BlockRegions, cycle: u64) {
        self.regions(6, sm, regions, cycle);
    }
    fn on_launch_begin(&mut self, name: &str, cycle: u64) {
        self.mix(7, &[cycle]);
        name.bytes().for_each(|b| self.byte(b));
    }
    fn on_launch_end(&mut self, cycle: u64) {
        self.mix(8, &[cycle]);
    }
    fn on_fault_injected(&mut self, site: FaultSite) {
        self.mix(
            9,
            &[
                site.sm as u64,
                site.word as u64,
                site.bit as u64,
                site.cycle,
            ],
        );
    }
    fn on_hang(&mut self, cycle: u64, parked_warps: u32) {
        self.mix(10, &[cycle, parked_warps as u64]);
    }
    fn on_control_corrupt(&mut self, site: FaultSite, cycle: u64) {
        self.mix(
            11,
            &[site.sm as u64, site.word as u64, site.bit as u64, cycle],
        );
    }
}

fn workload(name: &str) -> Box<dyn Workload> {
    smoke_workloads(7)
        .into_iter()
        .find(|w| w.name() == name)
        .expect("a smoke workload")
}

#[test]
fn golden_event_streams_are_pinned() {
    let mut got = Vec::new();
    for arch in all_devices() {
        for w in smoke_workloads(7) {
            let mut obs = EventStream::new();
            let out = w.run(&mut Gpu::new(arch.clone()), &mut obs).unwrap();
            assert_eq!(out, w.reference(), "{}@{}", w.name(), arch.name);
            got.push(format!(
                "(\"{}\", \"{}\", {:?}, {:#018x}),",
                arch.name,
                w.name(),
                obs.counts,
                obs.hash
            ));
        }
    }
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|p| format!("(\"{}\", \"{}\", {:?}, {:#018x}),", p.0, p.1, p.2, p.3))
        .collect();
    assert_eq!(got, want, "golden event streams:\n{}", got.join("\n"));
}

#[test]
fn replay_event_streams_are_pinned() {
    let mut got = Vec::new();
    for (device, name, structure, word, bit, cycle, kind) in REPLAYS {
        let arch = all_devices()
            .into_iter()
            .find(|a| a.name == device)
            .expect("a device");
        let w = workload(name);
        let site = FaultSite::try_new(structure, 0, word, bit, cycle, kind).unwrap();
        let mut gpu = Gpu::new(arch);
        let mut s = Session::new(&mut gpu, w.plan());
        s.arm_fault(site).unwrap();
        let mut obs = EventStream::new();
        let outcome = match s.run_to_completion(&mut obs) {
            Ok(out) if out == w.reference() => "masked",
            Ok(_) => "sdc",
            Err(SimError::Due(_)) => "due",
            Err(e) => panic!("{site}: {e}"),
        };
        got.push(format!(
            "(\"{device}\", \"{name}\", \"{outcome}\", {:?}, {:#018x}),",
            obs.counts, obs.hash
        ));
    }
    let want: Vec<String> = REPLAY_PINS
        .iter()
        .map(|p| {
            format!(
                "(\"{}\", \"{}\", \"{}\", {:?}, {:#018x}),",
                p.0, p.1, p.2, p.3, p.4
            )
        })
        .collect();
    assert_eq!(got, want, "replay event streams:\n{}", got.join("\n"));
}
