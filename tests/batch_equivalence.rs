//! Bit-plane batched replay must only share work, never change it.
//! Campaign results with batching on have to be bit-identical to scalar
//! one-site replay at any worker count, with pruning on or off — the
//! same contract the checkpoint ladder and the lifetime oracle already
//! honour. A separate test pins that the batch path actually fires
//! (shared passes run, lanes fork) rather than passing vacuously.

use gpu_archs::geforce_gtx_480;
use gpu_workloads::{Histogram, Transpose, VectorAdd, Workload};
use grel_core::campaign::{Campaign, CampaignConfig, CampaignResult, Capture};
use grel_telemetry::{MetricsRegistry, NoopHook, RegistryHook};
use simt_sim::Structure;

/// Field-by-field equality, floats compared bit-for-bit.
fn assert_identical(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.structure, b.structure, "{label}");
    assert_eq!(a.tally, b.tally, "{label}");
    assert_eq!(a.golden_cycles, b.golden_cycles, "{label}");
    assert_eq!(a.population, b.population, "{label}");
    assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits(), "{label}");
    assert_eq!(a.avf().to_bits(), b.avf().to_bits(), "{label}");
}

fn cfg(injections: u32, prune: bool, batch: bool) -> CampaignConfig {
    let mut c = CampaignConfig::quick(9);
    c.injections = injections;
    c.threads = 1;
    c.prune = prune;
    c.early_exit = prune;
    c.batch = batch;
    c
}

/// One structure's campaign with batching on and off, each at jobs
/// 1/2/8 and with pruning on and off — all bit-identical to the jobs-1
/// scalar unbatched run.
fn check_batch_equivalence(workload: &dyn Workload, structure: Structure, injections: u32) {
    let arch = geforce_gtx_480();
    let mut c = cfg(injections, false, false);
    c.threads = 1;
    let scalar = Campaign::new(&arch, workload, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(structure, c, &NoopHook))
        .unwrap();
    for jobs in [1usize, 2, 8] {
        for (prune, batch, label) in [
            (false, true, "batched"),
            (true, false, "pruned scalar"),
            (true, true, "pruned + batched"),
        ] {
            let mut c = cfg(injections, prune, batch);
            c.threads = jobs;
            let run = Campaign::new(&arch, workload, &c, Capture::campaign(&c), &NoopHook)
                .and_then(|setup| setup.run(structure, c, &NoopHook))
                .unwrap();
            assert_identical(
                &scalar,
                &run,
                &format!(
                    "{} / {structure}: {label} at jobs = {jobs}",
                    workload.name()
                ),
            );
        }
    }
}

#[test]
fn rf_campaigns_are_batch_invariant_and_job_invariant() {
    check_batch_equivalence(&VectorAdd::new(1024, 9), Structure::VectorRegisterFile, 24);
    check_batch_equivalence(
        &Histogram::new(1024, 64, 5),
        Structure::VectorRegisterFile,
        16,
    );
}

#[test]
fn lds_campaigns_are_batch_invariant_and_job_invariant() {
    check_batch_equivalence(&Histogram::new(1024, 64, 5), Structure::LocalMemory, 16);
    check_batch_equivalence(&Transpose::new(32, 5), Structure::LocalMemory, 12);
}

/// The batch path must actually fire: with pruning off every sampled
/// site reaches a worker, consecutive same-rung sites share a pass, and
/// on a workload with real SDCs lanes must either fork or be caught by
/// the final-output read. An unforked, unread lane is masked by
/// construction, so forks plus final-read SDCs bound the failure count
/// from above.
#[test]
fn batching_fires_and_forks_on_a_real_workload() {
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(1024, 9);
    let reg = MetricsRegistry::new();
    let hook = RegistryHook::new(&reg);
    let mut c = cfg(32, false, true);
    c.threads = 2;
    let r = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &hook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &hook))
        .unwrap();
    let snap = reg.snapshot();
    let batched = snap.counter("campaign_batched_total").unwrap_or(0);
    let batches = snap.counter("campaign_batches_total").unwrap_or(0);
    let forks = snap.counter("campaign_batch_forks_total").unwrap_or(0);
    let final_sdcs = snap.counter("campaign_batch_final_sdc_total").unwrap_or(0);
    assert!(batched > 0, "no sites rode a shared pass");
    assert!(batches > 0 && batches < batched, "batches must share sites");
    assert!(
        forks + final_sdcs >= r.tally.failures(),
        "every failure must come from a forked lane or a divergent \
         final read: {forks} forks + {final_sdcs} final-read SDCs, {:?}",
        r.tally
    );
    assert_eq!(
        snap.counter("campaign_batch_fallbacks_total").unwrap_or(0),
        0,
        "the shared pass must never abort on a healthy workload"
    );
    // Per-site accounting still covers every sampled site.
    let by_outcome: u64 = snap
        .counters()
        .filter(|(n, _)| n.starts_with("campaign_injections_total{outcome="))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(by_outcome, 32, "every sampled site lands in one outcome");
}
