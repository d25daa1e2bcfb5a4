//! The parallel runner's determinism contract, enforced end to end:
//! campaign and study results must be **bit-identical** at any job
//! count, with telemetry hooks off or live, and — given enough cores —
//! the parallelism must actually buy wall-clock time.

use gpu_archs::{all_devices, geforce_gtx_480, quadro_fx_5600};
use gpu_workloads::{Histogram, Reduction, VectorAdd, Workload};
use grel_core::campaign::{Campaign, CampaignConfig, CampaignResult, Capture};
use grel_core::study::{run_study_parallel_hooked, StudyConfig};
use grel_telemetry::{MetricsRegistry, MetricsSnapshot, NoopHook, RegistryHook};
use simt_sim::{ArchConfig, FaultModelKind, Structure};

fn quick_cfg(injections: u32) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(11);
    cfg.injections = injections;
    cfg.threads = 1;
    cfg
}

/// Field-by-field equality, floats compared bit-for-bit.
fn assert_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.structure, b.structure);
    assert_eq!(a.tally, b.tally);
    assert_eq!(a.golden_cycles, b.golden_cycles);
    assert_eq!(a.population, b.population);
    assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits());
    assert_eq!(a.avf().to_bits(), b.avf().to_bits());
}

fn outcome_counter_sum(snap: &MetricsSnapshot) -> u64 {
    snap.counters()
        .filter(|(name, _)| name.starts_with("campaign_injections_total{outcome="))
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn campaign_is_bit_identical_at_jobs_1_2_8() {
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(1024, 11);
    let cfg = quick_cfg(24);

    let sequential = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
        .unwrap();
    for jobs in [1usize, 2, 8] {
        let mut c = cfg;
        c.threads = jobs;
        let parallel = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
            .unwrap();
        assert_identical(&sequential, &parallel);
    }
}

#[test]
fn campaign_with_live_hooks_is_bit_identical_at_jobs_1_2_8() {
    let arch = quadro_fx_5600();
    let w = Histogram::new(1024, 64, 7);
    let cfg = quick_cfg(24);

    let mut c = cfg;

    c.threads = 1;
    let plain = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::LocalMemory, c, &NoopHook))
        .unwrap();
    for jobs in [1usize, 2, 8] {
        let registry = MetricsRegistry::new();
        let hook = RegistryHook::new(&registry);
        let mut c = cfg;
        c.threads = jobs;
        let hooked = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &hook)
            .and_then(|setup| setup.run(Structure::LocalMemory, c, &hook))
            .unwrap();
        assert_identical(&plain, &hooked);

        // The live hooks shard per worker; the harvest still accounts
        // for every injection: oracle-pruned sites are tallied serially
        // before the fan-out, and the workers replay exactly the
        // unpruned remainder (the worker gauge reflects that pool).
        let snap = registry.snapshot();
        assert_eq!(outcome_counter_sum(&snap), 24);
        let pruned: u64 = snap
            .counters()
            .filter(|(name, _)| name.starts_with("campaign_pruned_total"))
            .map(|(_, v)| v)
            .sum();
        let replayed = 24 - pruned;
        let workers = snap.gauge("campaign_workers").unwrap() as usize;
        assert_eq!(workers, jobs.min((replayed as usize).max(1)));
        let per_worker: u64 = snap
            .counters()
            .filter(|(name, _)| name.starts_with("campaign_worker_injections_total{worker="))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_worker, replayed, "workers replay the unpruned sites");
    }
}

/// The determinism contract extends to every fault model: stuck-at and
/// control campaigns must produce bit-identical results at any job
/// count. The barrier-synchronized reduction on the small test GPU
/// keeps every warp slot live, so control faults actually land and the
/// tallies being compared include Hang and DUE outcomes, not just
/// Masked.
#[test]
fn stuck_at_and_control_campaigns_are_bit_identical_at_jobs_1_2_8() {
    let arch = ArchConfig::small_test_gpu();
    let w = Reduction::new(256, 32, 5);
    for model in [
        FaultModelKind::Stuck0,
        FaultModelKind::Stuck1,
        FaultModelKind::Control,
    ] {
        let mut cfg = quick_cfg(24);
        cfg.fault_model = model;
        let sequential = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(sequential.tally.total(), 24, "{model:?}");
        for jobs in [1usize, 2, 8] {
            let mut c = cfg;
            c.threads = jobs;
            let parallel = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
                .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
                .unwrap();
            assert_identical(&sequential, &parallel);
        }
    }
}

#[test]
fn study_is_bit_identical_at_jobs_1_2_8() {
    let archs = all_devices();
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VectorAdd::new(512, 13)),
        Box::new(Histogram::new(512, 32, 13)),
    ];
    let cfg = StudyConfig {
        campaign: quick_cfg(8),
        workload_seed: 13,
        fi_on_unused_lds: false,
        provenance: false,
        ace_mode: Default::default(),
        sampling: Default::default(),
    };

    let sequential = run_study_parallel_hooked(&archs, &workloads, &cfg, 1, &NoopHook).unwrap();
    for jobs in [1usize, 2, 8] {
        let parallel =
            run_study_parallel_hooked(&archs, &workloads, &cfg, jobs, &NoopHook).unwrap();
        assert_eq!(sequential.points.len(), parallel.points.len());
        for (a, b) in sequential.points.iter().zip(&parallel.points) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.device, b.device);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.rf.tally, b.rf.tally);
            assert_eq!(a.lds.tally, b.lds.tally);
            assert_eq!(a.rf.avf_fi.to_bits(), b.rf.avf_fi.to_bits());
            assert_eq!(a.rf.avf_ace.to_bits(), b.rf.avf_ace.to_bits());
            assert_eq!(a.lds.avf_fi.to_bits(), b.lds.avf_fi.to_bits());
            assert_eq!(a.eit.to_bits(), b.eit.to_bits());
            assert_eq!(a.epf.to_bits(), b.epf.to_bits());
        }
    }
}

#[test]
fn study_with_live_hooks_is_bit_identical() {
    let archs = vec![geforce_gtx_480()];
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VectorAdd::new(512, 17)),
        Box::new(Histogram::new(512, 32, 17)),
    ];
    let cfg = StudyConfig {
        campaign: quick_cfg(8),
        workload_seed: 17,
        fi_on_unused_lds: false,
        provenance: false,
        ace_mode: Default::default(),
        sampling: Default::default(),
    };

    let plain = run_study_parallel_hooked(&archs, &workloads, &cfg, 1, &NoopHook).unwrap();
    let registry = MetricsRegistry::new();
    let hook = RegistryHook::new(&registry);
    let hooked = run_study_parallel_hooked(&archs, &workloads, &cfg, 2, &hook).unwrap();
    for (a, b) in plain.points.iter().zip(&hooked.points) {
        assert_eq!(a.rf.tally, b.rf.tally);
        assert_eq!(a.epf.to_bits(), b.epf.to_bits());
    }
    // VectorAdd: RF only; Histogram: RF + LDS -> 3 campaigns x 8.
    assert_eq!(outcome_counter_sum(&registry.snapshot()), 24);
}

/// The acceptance bar from the issue: a 2,000-injection campaign at
/// `--jobs 4` must be at least 2x faster than at `--jobs 1`, with
/// byte-identical results. The timing half needs real cores, so the
/// whole test is skipped on machines with fewer than four.
#[test]
fn four_jobs_halve_the_2000_injection_wall_clock() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(1024, 2017);
    let cfg = quick_cfg(2000);

    let t1 = std::time::Instant::now();
    let mut c = cfg;
    c.threads = 1;
    let sequential = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
        .unwrap();
    let serial_secs = t1.elapsed().as_secs_f64();

    let t4 = std::time::Instant::now();
    let mut c = cfg;
    c.threads = 4;
    let parallel = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &NoopHook))
        .unwrap();
    let parallel_secs = t4.elapsed().as_secs_f64();

    assert_identical(&sequential, &parallel);
    let speedup = serial_secs / parallel_secs.max(1e-9);
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup at 4 jobs, got {speedup:.2}x \
         ({serial_secs:.2}s -> {parallel_secs:.2}s)"
    );
}
