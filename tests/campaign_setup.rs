//! `Campaign` is the one per-point setup every entry point builds its
//! golden run, oracle, write log and ladder through. Its methods must
//! give the same results whatever else the setup captured, whether it
//! serves one campaign or several and whether replays resume from the
//! ladder or from cycle zero, and a study point — with or without the
//! flight recorder — must pay for exactly one golden pass and one
//! ladder pass.

use gpu_archs::{geforce_gtx_480, quadro_fx_5600};
use gpu_workloads::{Transpose, Workload};
use grel_core::ace::LifetimeOracle;
use grel_core::campaign::{run_campaign_hooked, sample_sites, Campaign, CampaignConfig, Capture};
use grel_core::sampling::SamplingPlan;
use grel_core::study::{evaluate_point_hooked, StudyConfig};
use grel_telemetry::{MemorySink, MetricsRegistry, NoopHook, RegistryHook};
use simt_sim::{ArchConfig, Structure};

const STRUCTURES: [Structure; 2] = [Structure::VectorRegisterFile, Structure::LocalMemory];

/// Two devices of different generations.
fn devices() -> [ArchConfig; 2] {
    [quadro_fx_5600(), geforce_gtx_480()]
}

/// A small workload that uses local memory.
fn workload() -> Transpose {
    Transpose::new(32, 13)
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        injections: 24,
        threads: 2,
        ..CampaignConfig::quick(13)
    }
}

#[test]
fn run_matches_run_campaign_hooked() {
    let (w, c) = (workload(), cfg());
    for arch in devices() {
        let setup = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook).unwrap();
        for s in STRUCTURES {
            let a = setup.run(s, c, &NoopHook).unwrap();
            let b = run_campaign_hooked(&arch, &w, s, c, &NoopHook).unwrap();
            assert_eq!(a.tally, b.tally, "{} {s}", arch.name);
            assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits());
            assert_eq!(
                (a.golden_cycles, a.population),
                (b.golden_cycles, b.population)
            );
        }
    }
}

#[test]
fn run_traced_matches_the_provenance_wrapper() {
    let (w, c) = (workload(), cfg());
    for arch in devices() {
        let capture = Capture {
            writes: true,
            ..Capture::campaign(&c)
        };
        let setup = Campaign::new(&arch, &w, &c, capture, &NoopHook).unwrap();
        let writes_only = Capture {
            writes: true,
            ..Capture::default()
        };
        let parts = Campaign::new(&arch, &w, &c, writes_only, &NoopHook).unwrap();
        let writes = parts.golden_writes().unwrap().to_vec();
        assert_eq!(setup.golden_writes(), Some(&writes[..]));
        for s in STRUCTURES {
            let (a, records_a, aggregate_a) = setup.run_traced(s, c, &NoopHook).unwrap();
            let (b, records_b, aggregate_b) = parts.run_traced(s, c, &NoopHook).unwrap();
            assert_eq!(a.tally, b.tally, "{} {s}", arch.name);
            assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits());
            assert_eq!(records_a, records_b);
            assert_eq!(aggregate_a, aggregate_b);
            // The recorder only observes: same tally as the plain run.
            assert_eq!(a.tally, setup.run(s, c, &NoopHook).unwrap().tally);
        }
    }
}

#[test]
fn run_adaptive_matches_run_adaptive_campaign() {
    let (w, c) = (workload(), cfg());
    let plan = SamplingPlan::with_target(0.1);
    for arch in devices() {
        let capture = Capture {
            oracle: true,
            ..Capture::default()
        };
        let setup = Campaign::new(&arch, &w, &c, capture, &NoopHook).unwrap();
        for s in STRUCTURES {
            let a = setup.run_adaptive(s, c, plan, &NoopHook).unwrap();
            let b = Campaign::new(&arch, &w, &c, capture, &NoopHook)
                .and_then(|fresh| fresh.run_adaptive(s, c, plan, &NoopHook))
                .unwrap();
            assert!(a.sampled > 0);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{} {s}", arch.name);
        }
    }
}

#[test]
fn replay_matches_run_injections() {
    let (w, c) = (workload(), cfg());
    for arch in devices() {
        let setup = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook).unwrap();
        let mut from_zero_cfg = c;
        from_zero_cfg.checkpoint_budget_bytes = 1;
        let from_zero =
            Campaign::new(&arch, &w, &from_zero_cfg, Capture::default(), &NoopHook).unwrap();
        for s in STRUCTURES {
            let sites = sample_sites(&arch, s, setup.golden().cycles, 40, 5);
            let a = setup.replay(&sites, c, &NoopHook).unwrap();
            let b = from_zero.replay(&sites, c, &NoopHook).unwrap();
            assert_eq!(a, b, "{} {s}", arch.name);
        }
    }
}

#[test]
fn setup_oracle_agrees_with_a_standalone_capture() {
    let (w, c) = (workload(), cfg());
    for arch in devices() {
        let setup = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook).unwrap();
        let oracle = setup.oracle().expect("a pruning setup captures the oracle");
        let standalone = LifetimeOracle::capture(&arch, &w).unwrap();
        for s in STRUCTURES {
            let sites = sample_sites(&arch, s, setup.golden().cycles, 2000, 21);
            assert!(sites.iter().any(|&site| oracle.is_dead(site)));
            for site in sites {
                assert_eq!(oracle.is_dead(site), standalone.is_dead(site), "{site}");
            }
            assert_eq!(oracle.live_bit_cycles(s), standalone.live_bit_cycles(s));
        }
    }
}

fn study_cfg(provenance: bool) -> StudyConfig {
    StudyConfig {
        campaign: cfg(),
        provenance,
        ..StudyConfig::quick(13)
    }
}

#[test]
fn provenance_leaves_the_study_point_unchanged() {
    let w = workload();
    for arch in devices() {
        let plain = evaluate_point_hooked(&arch, &w, &study_cfg(false), &NoopHook).unwrap();
        let traced = evaluate_point_hooked(&arch, &w, &study_cfg(true), &NoopHook).unwrap();
        assert_eq!(plain.lds.tally.total(), 24, "the LDS campaign ran");
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "{}", arch.name);
    }
}

#[test]
fn one_study_point_runs_one_golden_and_one_ladder_pass() {
    let (arch, w) = (quadro_fx_5600(), workload());
    for provenance in [false, true] {
        let registry = MetricsRegistry::new();
        let sink = MemorySink::new();
        let hook = RegistryHook::with_sink(&registry, &sink);
        evaluate_point_hooked(&arch, &w as &dyn Workload, &study_cfg(provenance), &hook).unwrap();
        let count = |name: &str| sink.events().iter().filter(|e| e.name() == name).count();
        assert_eq!(count("golden.done"), 1, "provenance = {provenance}");
        assert_eq!(count("ladder.done"), 1, "provenance = {provenance}");
        assert_eq!(count("campaign.done"), 2, "provenance = {provenance}");
    }
}
