//! Telemetry must only observe: a campaign run with live hooks has to
//! produce results byte-identical to the [`NoopHook`] path, and the
//! metrics it harvests must account for every injection.

use gpu_archs::{geforce_gtx_480, quadro_fx_5600};
use gpu_workloads::{Histogram, VectorAdd};
use grel_core::campaign::{run_campaign_hooked, Campaign, CampaignConfig, CampaignResult, Capture};
use grel_core::study::{evaluate_point_hooked, StudyConfig};
use grel_telemetry::{MemorySink, MetricsRegistry, MetricsSnapshot, NoopHook, RegistryHook};
use simt_sim::Structure;

fn quick_cfg(injections: u32) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(9);
    cfg.injections = injections;
    cfg.threads = 2;
    cfg
}

/// Field-by-field equality, with the float compared bit-for-bit.
fn assert_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.structure, b.structure);
    assert_eq!(a.tally, b.tally);
    assert_eq!(a.golden_cycles, b.golden_cycles);
    assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits());
}

fn outcome_counter_sum(snap: &MetricsSnapshot) -> u64 {
    snap.counters()
        .filter(|(name, _)| name.starts_with("campaign_injections_total{outcome="))
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn hooked_campaign_result_is_byte_identical_to_noop() {
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(1024, 9);
    let cfg = quick_cfg(20);

    let plain = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
        .unwrap();
    let explicit_noop =
        run_campaign_hooked(&arch, &w, Structure::VectorRegisterFile, cfg, &NoopHook).unwrap();
    assert_identical(&plain, &explicit_noop);

    let registry = MetricsRegistry::new();
    let sink = MemorySink::new();
    let hook = RegistryHook::with_sink(&registry, &sink);
    let hooked = run_campaign_hooked(&arch, &w, Structure::VectorRegisterFile, cfg, &hook).unwrap();
    assert_identical(&plain, &hooked);

    // Every injection lands in exactly one outcome bucket and one rung
    // bucket, and each produced a latency observation.
    let snap = registry.snapshot();
    assert_eq!(outcome_counter_sum(&snap), 20);
    let rung_sum: u64 = snap
        .counters()
        .filter(|(name, _)| name.starts_with("campaign_rung_hits_total{rung="))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(rung_sum, 20);
    assert_eq!(
        snap.histogram("campaign_injection_seconds")
            .unwrap()
            .count(),
        20
    );

    // The structured event stream narrates the same campaign.
    let names: Vec<String> = sink.events().iter().map(|e| e.name().to_string()).collect();
    for expected in ["golden.done", "ladder.done", "campaign.done"] {
        assert!(names.contains(&expected.to_string()), "missing {expected}");
    }
}

#[test]
fn hooked_campaign_is_thread_count_invariant_too() {
    // Telemetry shards per thread; harvested totals must not depend on
    // the worker count any more than the outcomes do.
    let arch = quadro_fx_5600();
    let w = VectorAdd::new(512, 3);
    let mut one = quick_cfg(16);
    one.threads = 1;
    let mut four = quick_cfg(16);
    four.threads = 4;

    let reg1 = MetricsRegistry::new();
    let r1 = run_campaign_hooked(
        &arch,
        &w,
        Structure::VectorRegisterFile,
        one,
        &RegistryHook::new(&reg1),
    )
    .unwrap();
    let reg4 = MetricsRegistry::new();
    let r4 = run_campaign_hooked(
        &arch,
        &w,
        Structure::VectorRegisterFile,
        four,
        &RegistryHook::new(&reg4),
    )
    .unwrap();
    assert_identical(&r1, &r4);
    assert_eq!(outcome_counter_sum(&reg1.snapshot()), 16);
    assert_eq!(outcome_counter_sum(&reg4.snapshot()), 16);
}

#[test]
fn hooked_study_point_matches_noop_point() {
    let arch = geforce_gtx_480();
    // histogram uses local memory, so both structures get campaigns.
    let w = Histogram::new(1024, 64, 5);
    let cfg = StudyConfig {
        campaign: quick_cfg(10),
        workload_seed: 5,
        fi_on_unused_lds: false,
        provenance: false,
        ace_mode: Default::default(),
        sampling: Default::default(),
    };

    let plain = evaluate_point_hooked(&arch, &w, &cfg, &NoopHook).unwrap();
    let registry = MetricsRegistry::new();
    let sink = MemorySink::new();
    let hook = RegistryHook::with_sink(&registry, &sink);
    let hooked = evaluate_point_hooked(&arch, &w, &cfg, &hook).unwrap();

    assert_eq!(plain.cycles, hooked.cycles);
    assert_eq!(plain.rf.tally, hooked.rf.tally);
    assert_eq!(plain.lds.tally, hooked.lds.tally);
    assert_eq!(plain.rf.avf_fi.to_bits(), hooked.rf.avf_fi.to_bits());
    assert_eq!(plain.lds.avf_fi.to_bits(), hooked.lds.avf_fi.to_bits());
    assert_eq!(plain.epf.to_bits(), hooked.epf.to_bits());

    // RF campaign + LDS campaign: 2 x 10 injections in the counters.
    let snap = registry.snapshot();
    assert_eq!(outcome_counter_sum(&snap), 20);
    assert_eq!(snap.histogram("study_point_seconds").unwrap().count(), 1);
    let names: Vec<String> = sink.events().iter().map(|e| e.name().to_string()).collect();
    assert!(names.contains(&"study.point".to_string()), "{names:?}");
    assert_eq!(
        names.iter().filter(|n| *n == "campaign.done").count(),
        2,
        "{names:?}"
    );
}
