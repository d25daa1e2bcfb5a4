//! ACE-vs-FI relationships and figure assembly, end to end at smoke
//! scale.

use gpu_reliability_repro::archs::{all_devices, quadro_fx_5600, quadro_fx_5800};
use gpu_reliability_repro::reliability::ace::{AceAnalyzer, AceMode};
use gpu_reliability_repro::reliability::campaign::CampaignConfig;
use gpu_reliability_repro::reliability::study::{run_study_parallel_hooked, StudyConfig};
use gpu_reliability_repro::sim::{Gpu, Structure};
use gpu_reliability_repro::workloads::{MatrixMul, Transpose, VectorAdd, Workload};
use grel_telemetry::NoopHook;

fn smoke_cfg(injections: u32) -> StudyConfig {
    StudyConfig {
        campaign: CampaignConfig {
            injections,
            threads: 4,
            ..CampaignConfig::quick(2017)
        },
        mode: Default::default(),
    }
}

#[test]
fn conservative_ace_dominates_refined_ace() {
    let w = MatrixMul::new(32, 7);
    for arch in all_devices() {
        let mut g1 = Gpu::new(arch.clone());
        let mut cons = AceAnalyzer::new(&arch);
        w.run(&mut g1, &mut cons).unwrap();
        let mut g2 = Gpu::new(arch.clone());
        let mut refi = AceAnalyzer::with_mode(&arch, AceMode::WriteToLastRead);
        w.run(&mut g2, &mut refi).unwrap();
        for s in [Structure::VectorRegisterFile, Structure::LocalMemory] {
            let c = cons.report(s).avf_ace;
            let r = refi.report(s).avf_ace;
            assert!(
                c >= r - 1e-12,
                "{}: conservative {c} < refined {r} for {s}",
                arch.name
            );
        }
    }
}

#[test]
fn ace_never_exceeds_occupancy() {
    // Only allocated, written words can be ACE, so the conservative bound
    // is capped by the time-weighted occupancy.
    let w = Transpose::new(32, 7);
    for arch in all_devices() {
        let mut gpu = Gpu::new(arch.clone());
        let mut ace = AceAnalyzer::new(&arch);
        w.run(&mut gpu, &mut ace).unwrap();
        for s in [Structure::VectorRegisterFile, Structure::LocalMemory] {
            let rep = ace.report(s);
            assert!(
                rep.avf_ace <= rep.occupancy + 1e-9,
                "{}: ACE {} > occupancy {} for {s}",
                arch.name,
                rep.avf_ace,
                rep.occupancy
            );
        }
    }
}

#[test]
fn scalar_file_sees_activity_on_si_only() {
    let w = MatrixMul::new(32, 7);
    for arch in all_devices() {
        let mut gpu = Gpu::new(arch.clone());
        let mut ace = AceAnalyzer::new(&arch);
        w.run(&mut gpu, &mut ace).unwrap();
        let srf = ace.report(Structure::ScalarRegisterFile);
        if arch.sregfile_bytes_per_sm > 0 {
            assert!(srf.avf_ace > 0.0, "{}: scalar file unused", arch.name);
        } else {
            assert_eq!(srf.total_bits, 0, "{}", arch.name);
        }
    }
}

#[test]
fn study_reproduces_figure_shapes_at_smoke_scale() {
    let archs = vec![quadro_fx_5600(), quadro_fx_5800()];
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VectorAdd::new(2048, 2017)),
        Box::new(Transpose::new(64, 2017)),
        Box::new(MatrixMul::new(32, 2017)),
    ];
    let study =
        run_study_parallel_hooked(&archs, &workloads, &smoke_cfg(60), 1, &NoopHook).unwrap();
    assert_eq!(study.points.len(), 6);

    // Fig. 1: per-device averages exist and AVFs are probabilities.
    let fig1 = study.fig1_rows();
    assert_eq!(fig1.len(), 6 + 2);
    for r in &fig1 {
        assert!((0.0..=1.0).contains(&r.avf_fi), "{r:?}");
        assert!((0.0..=1.0).contains(&r.avf_ace), "{r:?}");
        assert!((0.0..=1.0).contains(&r.occupancy), "{r:?}");
    }

    // Fig. 2 contains only the LDS workloads.
    let fig2 = study.fig2_rows();
    assert!(fig2.iter().all(|r| r.workload != "vectoradd"));

    // Fig. 3: every EPF is positive; finite whenever FIT > 0.
    for r in study.fig3_rows() {
        assert!(r.epf > 0.0, "{r:?}");
        if r.fit_gpu > 0.0 {
            assert!(r.epf.is_finite());
        }
    }

    // Findings: the paper's key claim F3 must hold in sign at this scale:
    // ACE overestimates the register file more than the local memory.
    let f = study.findings();
    assert!(
        f.rf_ace_gap > f.lds_ace_gap - 1e-9,
        "RF gap {} should exceed LDS gap {}",
        f.rf_ace_gap,
        f.lds_ace_gap
    );
    // And F2: occupancy correlation is positive.
    assert!(
        f.rf_avf_occupancy_corr > 0.0,
        "r = {}",
        f.rf_avf_occupancy_corr
    );
}
