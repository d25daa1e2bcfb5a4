//! Execution-session equivalence and checkpointed-replay correctness,
//! end to end: the incremental session driver must be indistinguishable
//! from a single-shot run, and replaying from checkpoints must never
//! change a campaign outcome.

use gpu_reliability_repro::archs::{all_devices, geforce_gtx_480, hd_radeon_7970, quadro_fx_5600};
use gpu_reliability_repro::reliability::campaign::{
    golden_run, run_injections_checkpointed, sample_sites, Campaign, CampaignConfig, Capture,
    CheckpointLadder,
};
use gpu_reliability_repro::sim::{ArchConfig, Gpu, NoopObserver, Session, Structure};
use gpu_reliability_repro::workloads::{
    Backprop, DwtHaar1D, Gaussian, Histogram, Kmeans, MatrixMul, Reduction, Scan, Transpose,
    VectorAdd, Workload,
};
use grel_telemetry::NoopHook;
use proptest::prelude::*;

/// Every benchmark at an integration-test-friendly size.
fn all_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(VectorAdd::new(256, seed)),
        Box::new(Transpose::new(32, seed)),
        Box::new(MatrixMul::new(16, seed)),
        Box::new(Histogram::new(512, 64, seed)),
        Box::new(Reduction::new(256, 64, seed)),
        Box::new(Scan::new(256, 64, seed)),
        Box::new(DwtHaar1D::new(64, seed)),
        Box::new(Gaussian::new(8, seed)),
        Box::new(Kmeans::new(128, 4, 2, seed)),
        Box::new(Backprop::new(32, seed)),
    ]
}

/// Drives a plan in `stride`-cycle slices instead of one shot.
fn run_incremental(arch: &ArchConfig, w: &dyn Workload, stride: u64) -> (Vec<u32>, u64) {
    let mut gpu = Gpu::new(arch.clone());
    let mut session = Session::new(&mut gpu, w.plan());
    let mut mark = stride;
    while !session.finished() {
        session
            .run_until_cycle(mark, &mut NoopObserver)
            .expect("fault-free slice");
        mark += stride;
    }
    let out = session.outputs().expect("finished").to_vec();
    (out, gpu.app_cycle())
}

#[test]
fn incremental_session_matches_single_shot_on_every_device() {
    for arch in all_devices() {
        for w in all_workloads(11) {
            let mut gpu = Gpu::new(arch.clone());
            let one_shot = w.run(&mut gpu, &mut NoopObserver).unwrap();
            let cycles = gpu.app_cycle();
            // An awkward prime stride maximises mid-kernel boundaries.
            let (sliced, sliced_cycles) = run_incremental(&arch, w.as_ref(), 37);
            assert_eq!(
                one_shot,
                sliced,
                "{} on {}: outputs differ",
                w.name(),
                arch.name
            );
            assert_eq!(
                cycles,
                sliced_cycles,
                "{} on {}: cycles differ",
                w.name(),
                arch.name
            );
            assert_eq!(
                one_shot,
                w.reference(),
                "{} on {}: wrong result",
                w.name(),
                arch.name
            );
        }
    }
}

fn cfg(n: u32) -> CampaignConfig {
    CampaignConfig {
        injections: n,
        threads: 2,
        ..CampaignConfig::quick(77)
    }
}

/// From-zero and checkpointed replay of the identical site list must
/// produce the identical outcome sequence.
fn assert_replay_equivalence(arch: &ArchConfig, w: &dyn Workload, structure: Structure) {
    let c = cfg(10);
    let golden = golden_run(arch, w).unwrap();
    let sites = sample_sites(arch, structure, golden.cycles, c.injections, c.seed);
    let ladder = CheckpointLadder::build(arch, w, &golden, &c).unwrap();
    assert!(
        !ladder.is_empty(),
        "auto ladder must have rungs for {}",
        w.name()
    );
    let mut from_zero_cfg = c;
    from_zero_cfg.checkpoint_budget_bytes = 1;
    let from_zero = Campaign::new(arch, w, &from_zero_cfg, Capture::default(), &NoopHook)
        .and_then(|setup| setup.replay(&sites, c, &NoopHook))
        .unwrap();
    let from_ckpt = run_injections_checkpointed(arch, w, &golden, &ladder, &sites, c).unwrap();
    assert_eq!(
        from_zero,
        from_ckpt,
        "{structure} on {} / {}: checkpointed outcomes diverged",
        arch.name,
        w.name()
    );
}

#[test]
fn checkpointed_rf_campaign_matches_from_zero_on_two_devices() {
    for arch in [quadro_fx_5600(), geforce_gtx_480()] {
        assert_replay_equivalence(
            &arch,
            &Histogram::new(512, 64, 5),
            Structure::VectorRegisterFile,
        );
        assert_replay_equivalence(
            &arch,
            &Kmeans::new(128, 4, 2, 5),
            Structure::VectorRegisterFile,
        );
    }
}

#[test]
fn checkpointed_lds_campaign_matches_from_zero_on_two_devices() {
    for arch in [quadro_fx_5600(), hd_radeon_7970()] {
        assert_replay_equivalence(&arch, &Histogram::new(512, 64, 5), Structure::LocalMemory);
        assert_replay_equivalence(&arch, &Scan::new(256, 64, 5), Structure::LocalMemory);
    }
}

#[test]
fn checkpointed_srf_campaign_matches_from_zero_on_si() {
    // Only Southern Islands has a scalar register file.
    assert_replay_equivalence(
        &hd_radeon_7970(),
        &MatrixMul::new(16, 5),
        Structure::ScalarRegisterFile,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot → restore round-trips at an arbitrary mid-execution
    /// cycle: finishing from the restored state reproduces the original
    /// outputs and cycle count exactly.
    #[test]
    fn snapshot_restore_roundtrips_at_any_cycle(seed in any::<u64>(), pct in 1u64..100) {
        let arch = quadro_fx_5600();
        let w = Transpose::new(32, seed % 16);
        let golden = golden_run(&arch, &w).unwrap();
        let cut = 1 + (golden.cycles - 2) * pct / 100;

        let mut gpu = Gpu::new(arch.clone());
        let mut session = Session::new(&mut gpu, w.plan());
        session.run_until_cycle(cut, &mut NoopObserver).unwrap();
        let ckpt = session.snapshot();
        let direct = session.run_to_completion(&mut NoopObserver).unwrap();
        let direct_cycles = gpu.app_cycle();

        let mut gpu2 = Gpu::new(arch.clone());
        let mut resumed = Session::resume(&mut gpu2, &ckpt);
        let replayed = resumed.run_to_completion(&mut NoopObserver).unwrap();
        prop_assert_eq!(direct, replayed);
        prop_assert_eq!(direct_cycles, gpu2.app_cycle());
        prop_assert_eq!(golden.cycles, direct_cycles);
    }
}
