//! Pins the replay-cost counters of four campaign configurations to
//! exact sums. Outcome equivalence suites prove a replay refactor keeps
//! every verdict; this suite proves it also keeps the work each replay
//! does: the cycles it simulates and skips, the instructions it retires,
//! the checkpoints it restores, the batch passes and forks it runs and
//! the cycles it burns before the watchdog cuts a hang off. Each sum is
//! independent of the worker count, so every configuration runs at one
//! and at three workers against the same constants.
//!
//! The setup (golden run, ladder, oracle) is built under `NoopHook`, so
//! only the replays feed the registry.

use gpu_archs::{geforce_gtx_480, quadro_fx_5600};
use gpu_workloads::{Histogram, Kmeans, VectorAdd, Workload};
use grel_core::campaign::{Campaign, CampaignConfig, Capture};
use grel_telemetry::{MetricsRegistry, NoopHook, RegistryHook};
use simt_sim::{ArchConfig, FaultModelKind, Structure};

/// The counters pinned, in the order of each expectation row; a
/// labelled family (`campaign_injections_total{outcome=…}`) is summed
/// over its labels.
const COUNTERS: [&str; 10] = [
    "campaign_cycles_replayed_total",
    "campaign_cycles_saved_total",
    "sim_instructions_total",
    "sim_restores_total",
    "campaign_batch_shared_cycles_total",
    "campaign_batch_fork_cycles_total",
    "campaign_batch_forks_total",
    "campaign_batch_final_sdc_total",
    "campaign_watchdog_cycles_total",
    "campaign_injections_total",
];

fn cfg(injections: u32, prune: bool, batch: bool) -> CampaignConfig {
    CampaignConfig {
        injections,
        prune,
        early_exit: false,
        batch,
        convergence: 0,
        ..CampaignConfig::quick(17)
    }
}

/// Runs `cfg` on `structure` at one and at three workers and checks
/// both runs' counter sums against `expected` (an absent counter reads
/// 0).
fn pin(
    label: &str,
    arch: &ArchConfig,
    workload: &dyn Workload,
    structure: Structure,
    cfg: CampaignConfig,
    expected: [u64; 10],
) {
    let setup = Campaign::new(arch, workload, &cfg, Capture::campaign(&cfg), &NoopHook).unwrap();
    for threads in [1usize, 3] {
        let registry = MetricsRegistry::new();
        let hook = RegistryHook::new(&registry);
        let result = setup
            .run(structure, CampaignConfig { threads, ..cfg }, &hook)
            .unwrap();
        assert_eq!(result.tally.total(), u64::from(cfg.injections), "{label}");
        let snap = registry.snapshot();
        let got: Vec<u64> = COUNTERS
            .iter()
            .map(|family| {
                snap.counters()
                    .filter(|(name, _)| {
                        name.strip_prefix(family)
                            .is_some_and(|labels| labels.is_empty() || labels.starts_with('{'))
                    })
                    .map(|(_, v)| v)
                    .sum()
            })
            .collect();
        assert_eq!(
            got, expected,
            "{label} at {threads} worker(s): counters {COUNTERS:?}"
        );
    }
}

/// Scalar replays, each resuming from its nearest ladder rung (the
/// run's start before the first rung): one restore per replay.
#[test]
fn checkpointed_scalar_campaign_counters_are_pinned() {
    pin(
        "checkpointed scalar",
        &quadro_fx_5600(),
        &Histogram::new(512, 32, 17),
        Structure::VectorRegisterFile,
        cfg(40, false, false),
        [13584, 10816, 5860, 40, 0, 0, 0, 0, 0, 40],
    );
}

/// Scalar replays from cycle zero: a one-byte budget holds no rung, so
/// every replay restores the run's start checkpoint.
#[test]
fn from_zero_campaign_counters_are_pinned() {
    let mut c = cfg(40, false, false);
    c.checkpoint_budget_bytes = 1;
    pin(
        "from zero",
        &quadro_fx_5600(),
        &Histogram::new(512, 32, 17),
        Structure::VectorRegisterFile,
        c,
        [24400, 0, 10800, 40, 0, 0, 0, 0, 0, 40],
    );
}

/// Oracle pruning plus bit-plane batching; vectoradd's address
/// registers make batched lanes fork into private replays.
#[test]
fn pruned_batched_campaign_counters_are_pinned() {
    pin(
        "pruned + batched",
        &geforce_gtx_480(),
        &VectorAdd::new(4096, 17),
        Structure::VectorRegisterFile,
        cfg(400, true, true),
        [676, 210416, 4694, 10, 528, 148, 10, 7, 0, 400],
    );
}

/// Stuck-at-0 cells: scalar replays that run to completion (no oracle,
/// no batching), one of them into the watchdog.
#[test]
fn stuck_at_campaign_counters_are_pinned() {
    let mut c = cfg(40, true, true);
    c.fault_model = FaultModelKind::Stuck0;
    pin(
        "stuck0",
        &quadro_fx_5600(),
        &Kmeans::default_size(17),
        Structure::VectorRegisterFile,
        c,
        [1292490, 1036288, 747646, 40, 0, 0, 0, 0, 446356, 40],
    );
}
