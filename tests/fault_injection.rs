//! End-to-end fault-injection behaviour across crates: outcome
//! classification, determinism, and the physical meaning of fault sites.

use gpu_reliability_repro::archs::{geforce_gtx_480, hd_radeon_7970, quadro_fx_5600};
use gpu_reliability_repro::reliability::campaign::{
    golden_run, sample_model_sites, Campaign, CampaignConfig, Capture, Outcome,
};
use gpu_reliability_repro::sim::{FaultModelKind, FaultSite, Gpu, NoopObserver, Structure};
use gpu_reliability_repro::workloads::{Histogram, Kmeans, Transpose, VectorAdd, Workload};
use grel_telemetry::NoopHook;

fn cfg(n: u32, threads: usize) -> CampaignConfig {
    CampaignConfig {
        injections: n,
        threads,
        ..CampaignConfig::quick(42)
    }
}

#[test]
fn campaign_outcomes_are_seed_deterministic_and_thread_invariant() {
    let arch = quadro_fx_5600();
    let w = Transpose::new(32, 9);
    let c = cfg(24, 1);
    let r1 = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
        .unwrap();
    let c = cfg(24, 4);
    let r4 = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
        .unwrap();
    assert_eq!(r1.tally, r4.tally);
    let c = CampaignConfig {
        seed: 43,
        ..cfg(24, 4)
    };
    let r_other_seed = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
        .unwrap();
    // Same totals, potentially different split.
    assert_eq!(r_other_seed.tally.total(), 24);
}

#[test]
fn flip_in_never_allocated_space_is_always_masked() {
    // The GTX 480 register file is far larger than one tiny block uses;
    // the top words are never allocated, so flips there must be masked.
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(128, 3);
    let golden = golden_run(&arch, &w).unwrap();
    let sites: Vec<FaultSite> = (0..8)
        .map(|i| {
            FaultSite::new(
                Structure::VectorRegisterFile,
                14,
                arch.rf_words_per_sm() - 1 - i,
                (i % 32) as u8,
                golden.cycles / 2,
            )
        })
        .collect();
    let mut c = cfg(8, 2);
    c.checkpoint_budget_bytes = 1;
    let outcomes = Campaign::new(&arch, &w, &c, Capture::default(), &NoopHook)
        .and_then(|setup| setup.replay(&sites, c, &NoopHook))
        .unwrap();
    assert!(
        outcomes.iter().all(|o| *o == Outcome::Masked),
        "unallocated space must be invulnerable: {outcomes:?}"
    );
}

#[test]
fn flip_after_execution_finishes_is_masked() {
    let arch = quadro_fx_5600();
    let w = VectorAdd::new(256, 3);
    let golden = golden_run(&arch, &w).unwrap();
    let site = FaultSite::new(
        Structure::VectorRegisterFile,
        0,
        0,
        0,
        golden.cycles.saturating_sub(1),
    );
    let mut c = cfg(1, 1);
    c.checkpoint_budget_bytes = 1;
    let outcomes = Campaign::new(&arch, &w, &c, Capture::default(), &NoopHook)
        .and_then(|setup| setup.replay(&[site], c, &NoopHook))
        .unwrap();
    // The very last cycles are drain; a flip in the RF there is almost
    // always dead. (Not a tautology: the site targets word 0, which IS
    // used early in the launch.)
    assert_eq!(outcomes[0], Outcome::Masked);
}

#[test]
fn histogram_index_corruption_can_raise_due() {
    // Histogram computes a shared-memory address from loaded data; a
    // campaign over its register file should provoke at least one
    // non-masked outcome with a decent sample.
    let arch = quadro_fx_5600();
    let w = Histogram::new(1024, 64, 5);
    let c = cfg(150, 8);
    let r = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
        .unwrap();
    assert!(
        r.tally.failures() > 0,
        "150 injections into a busy RF produced no failure at all: {:?}",
        r.tally
    );
}

#[test]
fn scalar_register_file_campaign_runs_on_si_only() {
    let si = hd_radeon_7970();
    let w = Kmeans::new(256, 4, 1, 5);
    let c = cfg(12, 2);
    let r = Campaign::new(&si, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::ScalarRegisterFile, c, &NoopHook))
        .unwrap();
    assert_eq!(r.tally.total(), 12);
}

#[test]
fn sample_sites_cover_the_structure() {
    let arch = geforce_gtx_480();
    let sites = sample_model_sites(
        &arch,
        Structure::LocalMemory,
        FaultModelKind::Transient,
        10_000,
        500,
        1,
    );
    assert!(
        sites.iter().any(|s| s.sm >= arch.num_sms / 2),
        "high SMs sampled"
    );
    assert!(
        sites.iter().any(|s| s.sm < arch.num_sms / 2),
        "low SMs sampled"
    );
    assert!(sites.iter().any(|s| s.bit >= 16) && sites.iter().any(|s| s.bit < 16));
    let max_word = arch.lds_words_per_sm();
    assert!(sites.iter().all(|s| s.word < max_word));
}

#[test]
fn armed_fault_survives_only_one_run() {
    // A Gpu consumes its armed fault at the injection cycle; a second
    // launch must be clean.
    let arch = quadro_fx_5600();
    let w = VectorAdd::new(256, 3);
    let golden = golden_run(&arch, &w).unwrap();
    let mut gpu = Gpu::new(arch.clone());
    gpu.arm_fault(FaultSite::new(Structure::VectorRegisterFile, 0, 10, 5, 10));
    let _ = w.run(&mut gpu, &mut NoopObserver).unwrap();
    // Fresh GPU, no fault: golden.
    let mut gpu2 = Gpu::new(arch);
    let out2 = w.run(&mut gpu2, &mut NoopObserver).unwrap();
    assert_eq!(out2, golden.outputs);
}
