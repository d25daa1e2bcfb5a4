//! Exact pin of the lifetime analyses on real workloads.
//!
//! Conservative and refined ACE bit-cycles, occupancy and the lifetime
//! oracle's live bit-cycles of the RF, LDS and SRF, for the ten workloads
//! at smoke size on a G80 device and on the HD 7970 (the one with a scalar
//! register file). The constants were recorded with the two independent
//! per-structure trackers the analyses had before they shared one lifetime
//! table, so any drift of the shared tracker shows here.

use gpu_archs::{hd_radeon_7970, quadro_fx_5600};
use gpu_workloads::{
    Backprop, DwtHaar1D, Gaussian, Histogram, Kmeans, MatrixMul, Reduction, Scan, Transpose,
    VectorAdd, Workload,
};
use grel_core::ace::{AceAnalyzer, AceMode, LifetimeOracle};
use grel_core::campaign::{golden_run_with_ace, Campaign, CampaignConfig, Capture};
use grel_telemetry::NoopHook;
use simt_sim::{ArchConfig, Gpu, Structure};

/// RF, LDS and SRF, the order of each row's triple.
const STRUCTURES: [Structure; 3] = [
    Structure::VectorRegisterFile,
    Structure::LocalMemory,
    Structure::ScalarRegisterFile,
];

/// Per structure: conservative ACE bit-cycles, refined ACE bit-cycles,
/// occupancy, oracle live bit-cycles.
type Pin = (u64, u64, f64, u64);

/// `(device, workload, cycles, [RF, LDS, SRF])`, input seed 7.
#[rustfmt::skip]
const PINS: [(&str, &str, u64, [Pin; 3]); 20] = [
    ("Quadro FX 5600", "backprop", 2855, [(906584064, 322857984, 0.08981501751313485, 322857984), (16266240, 3295232, 0.008280429071803853, 3295232), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "dwtHaar1D", 4724, [(43913408, 27296416, 0.004066977634155377, 27296416), (1909952, 195840, 0.0038996348433530904, 195840), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "gaussian", 28502, [(1893127872, 141141184, 0.02368083544575819, 141141184), (0, 0, 0.0, 0), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "histogram", 614, [(155901952, 48513024, 0.06999758245114006, 48513024), (4765696, 4431872, 0.0038887545806188927, 4431872), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "kmeans", 15868, [(1933860864, 1457696768, 0.031246061255356693, 1457696768), (0, 0, 0.0, 0), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "matrixMul", 3510, [(1862778880, 1361842176, 0.13277466168091168, 1361842176), (177045504, 75333632, 0.031241096866096867, 75333632), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "reduction", 2337, [(432401536, 72865792, 0.05409328867137356, 72865792), (36588160, 5205984, 0.011900941377834831, 5205984), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "scan", 3190, [(646314976, 298708192, 0.057878548075039185, 298708192), (45835392, 32626560, 0.010061961206896551, 32626560), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "transpose", 604, [(152518656, 74043392, 0.06239652317880795, 74043392), (3850240, 1376256, 0.01657407646937086, 1376256), (0, 0, 0.0, 0)]),
    ("Quadro FX 5600", "vectoradd", 516, [(145604608, 66134016, 0.07017623546511628, 66134016), (0, 0, 0.0, 0), (0, 0, 0.0, 0)]),
    ("HD Radeon 7970", "backprop", 2536, [(431865856, 160894976, 0.003146872535488959, 160894976), (11454464, 1671168, 0.000887031434838328, 1671168), (5443584, 1129984, 0.0010235422417192428, 1129984)]),
    ("HD Radeon 7970", "dwtHaar1D", 4290, [(22093440, 16340032, 0.00024051266116695803, 16340032), (1497664, 195840, 0.0004873707022144522, 195840), (618240, 306528, 6.871790319055944e-5, 306528)]),
    ("HD Radeon 7970", "gaussian", 18686, [(342550528, 51622592, 0.0007313864396724152, 51622592), (0, 0, 0.0, 0), (12638656, 1793152, 0.00032280594585769426, 1793152)]),
    ("HD Radeon 7970", "histogram", 589, [(77643776, 20209664, 0.002414463736205433, 20209664), (4698112, 3866624, 0.00048289274724108656, 3866624), (1192960, 332544, 0.0009657854944821731, 332544)]),
    ("HD Radeon 7970", "kmeans", 4430, [(279412736, 238190592, 0.001098136815744921, 238190592), (0, 0, 0.0, 0), (3952128, 2562816, 0.00042705320612302484, 2562816)]),
    ("HD Radeon 7970", "matrixMul", 2421, [(741212160, 526286848, 0.004880795642296571, 526286848), (123895808, 59703296, 0.0039046365138372574, 59703296), (8633344, 6577152, 0.0017082784748038001, 6577152)]),
    ("HD Radeon 7970", "reduction", 1732, [(151051968, 33705280, 0.0015862268883967234, 33705280), (20997632, 1935104, 0.0014053591404445728, 1935104), (2220928, 475168, 0.0007931134441983617, 475168)]),
    ("HD Radeon 7970", "scan", 2327, [(231706112, 143506176, 0.0018990405598678557, 143506176), (24213504, 12072192, 0.0011305798775247098, 12072192), (2980384, 1143328, 0.0007126713495783197, 1143328)]),
    ("HD Radeon 7970", "transpose", 521, [(64684032, 25067520, 0.0019212601967370441, 25067520), (1966080, 655360, 0.0016330711672264875, 655360), (629760, 411136, 0.0005763780590211132, 411136)]),
    ("HD Radeon 7970", "vectoradd", 467, [(73728000, 43712512, 0.002436178399357602, 43712512), (0, 0, 0.0, 0), (954368, 261632, 0.0009744713597430407, 261632)]),
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

/// One fault-free run of every smoke workload on `arch` with both ACE
/// modes and the oracle attached as independent observers.
fn check_device(arch: &ArchConfig) {
    let pins: Vec<_> = PINS.iter().filter(|p| p.0 == arch.name).collect();
    let workloads = smoke_workloads(7);
    assert_eq!(pins.len(), workloads.len());
    for (w, &&(_, name, cycles, pin)) in workloads.iter().zip(&pins) {
        assert_eq!(w.name(), name);
        let mut gpu = Gpu::new(arch.clone());
        let mut obs = (
            AceAnalyzer::new(arch),
            (
                AceAnalyzer::with_mode(arch, AceMode::WriteToLastRead),
                LifetimeOracle::new(arch),
            ),
        );
        w.run(&mut gpu, &mut obs).unwrap();
        let (cons, (refined, oracle)) = &obs;
        assert_eq!(cons.total_cycles(), cycles, "{name}@{}", arch.name);
        for (s, want) in STRUCTURES.into_iter().zip(pin) {
            let (c, r) = (cons.report(s), refined.report(s));
            let got = (
                c.ace_bit_cycles,
                r.ace_bit_cycles,
                c.occupancy,
                oracle.live_bit_cycles(s),
            );
            assert_eq!(got, want, "{name}@{} {s:?}", arch.name);
            assert_eq!(r.occupancy, c.occupancy, "{name}@{} {s:?}", arch.name);
            assert_eq!(
                r.ace_bit_cycles,
                oracle.live_bit_cycles(s),
                "refined ACE is the oracle's live bit-cycles: {name}@{} {s:?}",
                arch.name
            );
        }
    }
}

#[test]
fn quadro_fx_5600_lifetimes_are_pinned() {
    check_device(&quadro_fx_5600());
}

#[test]
fn hd_radeon_7970_lifetimes_are_pinned() {
    check_device(&hd_radeon_7970());
}

/// The golden pass feeds ACE and the oracle from one shared tracker; its
/// results must be the pinned ones of the independent observers.
#[test]
fn shared_golden_pass_matches_the_pins() {
    let arch = hd_radeon_7970();
    let w = Scan::new(1024, 256, 7);
    let &(_, _, cycles, pin) = PINS
        .iter()
        .find(|p| p.0 == arch.name && p.1 == w.name())
        .unwrap();
    let (golden, cons) = golden_run_with_ace(&arch, &w).unwrap();
    assert_eq!(golden.cycles, cycles);
    let mut cfg = CampaignConfig::quick(7);
    cfg.checkpoint_budget_bytes = 1; // the ladder is not under test
    let capture = Capture {
        ace: Some(AceMode::WriteToLastRead),
        oracle: true,
        writes: false,
    };
    let setup = Campaign::new(&arch, &w, &cfg, capture, &NoopHook).unwrap();
    let oracle = setup.oracle().unwrap();
    for (s, (c, r, occ, live)) in STRUCTURES.into_iter().zip(pin) {
        let refined = setup.ace(s).unwrap();
        assert_eq!(cons.report(s).ace_bit_cycles, c, "{s:?}");
        assert_eq!(cons.report(s).occupancy, occ, "{s:?}");
        assert_eq!(refined.ace_bit_cycles, r, "{s:?}");
        assert_eq!(refined.occupancy, occ, "{s:?}");
        assert_eq!(oracle.live_bit_cycles(s), live, "{s:?}");
    }
}
