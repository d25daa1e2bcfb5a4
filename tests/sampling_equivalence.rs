//! The adaptive stratified sampler is an orchestration layer over the
//! same deterministic replay core as the fixed-size campaign, so its
//! acceleration knobs must only skip work, never change it. Tallies,
//! estimates, margins and the full round schedule have to be
//! bit-identical at any worker count and across the prune and batch
//! knobs; the same seed has to reproduce the same rounds exactly.

use gpu_archs::{geforce_gtx_480, quadro_fx_5600};
use gpu_workloads::{Reduction, VectorAdd, Workload};
use grel_core::campaign::{Campaign, CampaignConfig, Capture};
use grel_core::sampling::{AdaptiveCampaign, SamplingPlan};
use grel_telemetry::NoopHook;
use simt_sim::Structure;

/// Field-by-field equality, floats compared bit-for-bit, rounds
/// compared quota-by-quota.
fn assert_identical(a: &AdaptiveCampaign, b: &AdaptiveCampaign, label: &str) {
    assert_eq!(a.structure, b.structure, "{label}");
    assert_eq!(a.tally, b.tally, "{label}");
    assert_eq!(a.sampled, b.sampled, "{label}");
    assert_eq!(a.avf.to_bits(), b.avf.to_bits(), "{label}");
    assert_eq!(a.avf_sdc.to_bits(), b.avf_sdc.to_bits(), "{label}");
    assert_eq!(a.margin.to_bits(), b.margin.to_bits(), "{label}");
    assert_eq!(a.converged, b.converged, "{label}");
    assert_eq!(a.population, b.population, "{label}");
    assert_eq!(a.golden_cycles, b.golden_cycles, "{label}");
    // `RoundPlan::replayed` counts work the oracle did not skip, so it
    // legitimately drops when pruning is on; everything else about the
    // schedule must match exactly.
    let rounds = |r: &AdaptiveCampaign| {
        r.rounds
            .iter()
            .map(|p| (p.round, p.quotas.clone(), p.sampled, p.margin_bits))
            .collect::<Vec<_>>()
    };
    assert_eq!(rounds(a), rounds(b), "{label}");
    let snaps = |r: &AdaptiveCampaign| {
        r.strata
            .iter()
            .map(|s| (s.label.clone(), s.population, s.seen, s.planned, s.tally))
            .collect::<Vec<_>>()
    };
    assert_eq!(snaps(a), snaps(b), "{label}");
}

fn cfg(threads: usize, prune: bool, batch: bool) -> CampaignConfig {
    let mut c = CampaignConfig::quick(11);
    c.threads = threads;
    c.prune = prune;
    c.batch = batch;
    c
}

/// One adaptive campaign eight ways — jobs 1/2/8 crossed with the
/// prune and batch knobs — every run bit-identical (except `replayed`,
/// which counts work skipped by the oracle and so legitimately drops
/// when pruning is on) to the jobs-1 unpruned scalar run.
fn check_adaptive_equivalence(workload: &dyn Workload, structure: Structure) {
    let arch = quadro_fx_5600();
    let plan = SamplingPlan::with_target(0.05);
    let capture = Capture {
        oracle: true,
        ..Capture::default()
    };
    let c = cfg(1, false, false);
    let full = Campaign::new(&arch, workload, &c, capture, &NoopHook)
        .and_then(|setup| setup.run_adaptive(structure, c, plan, &NoopHook))
        .unwrap();
    assert!(full.converged, "loose target must be reachable");
    assert!(!full.rounds.is_empty(), "the pilot always runs");
    for jobs in [1usize, 2, 8] {
        for (prune, batch, label) in [
            (false, false, "scalar full replay"),
            (false, true, "batched"),
            (true, false, "pruned"),
            (true, true, "pruned+batched"),
        ] {
            let c = cfg(jobs, prune, batch);
            let run = Campaign::new(&arch, workload, &c, capture, &NoopHook)
                .and_then(|setup| setup.run_adaptive(structure, c, plan, &NoopHook))
                .unwrap();
            assert_identical(
                &full,
                &run,
                &format!("{} {structure} {label} jobs={jobs}", workload.name()),
            );
            if prune {
                assert!(
                    run.replayed <= full.replayed,
                    "pruning can only skip replays"
                );
            } else {
                assert_eq!(run.replayed, full.replayed, "no pruning, same replays");
            }
        }
    }
}

#[test]
fn adaptive_rf_campaign_is_invariant_across_jobs_prune_and_batch() {
    check_adaptive_equivalence(&VectorAdd::new(256, 11), Structure::VectorRegisterFile);
}

#[test]
fn adaptive_shared_memory_campaign_is_invariant_across_jobs_prune_and_batch() {
    check_adaptive_equivalence(&Reduction::new(256, 32, 11), Structure::LocalMemory);
}

/// The allocation sequence is a pure function of (campaign definition,
/// pilot tallies): re-running with the same seed reproduces the exact
/// round schedule, and a different seed is allowed to differ.
#[test]
fn same_seed_reproduces_the_same_rounds() {
    let arch = geforce_gtx_480();
    let workload = VectorAdd::new(256, 11);
    let plan = SamplingPlan::with_target(0.05);
    let mut c = CampaignConfig::quick(23);
    c.threads = 2;
    let capture = Capture {
        oracle: true,
        ..Capture::default()
    };
    let a = Campaign::new(&arch, &workload, &c, capture, &NoopHook)
        .and_then(|setup| setup.run_adaptive(Structure::VectorRegisterFile, c, plan, &NoopHook))
        .unwrap();
    let b = Campaign::new(&arch, &workload, &c, capture, &NoopHook)
        .and_then(|setup| setup.run_adaptive(Structure::VectorRegisterFile, c, plan, &NoopHook))
        .unwrap();
    assert_identical(&a, &b, "same seed, same campaign");
    assert_eq!(a.replayed, b.replayed, "same seed, same replays");
    assert_eq!(a.rounds, b.rounds, "same seed, same rounds verbatim");
}
