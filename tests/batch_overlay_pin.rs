//! Pins the bit-plane batching counters of LDS and scalar-RF-device
//! campaigns to exact sums. `replay_counters_pin` covers batched work on
//! one vector-RF campaign only; these campaigns carry divergence through
//! the other overlay paths of the SM: LDS atomics (histogram), LDS loads
//! and stores (transpose), LDS operands of fused multiply-adds
//! (matrixMul) and a device with a scalar register file (HD 7970). A
//! change that drops or misplaces a carried overlay entry changes which
//! lanes fork, when they fork and how many end as SDC at the final read,
//! so the sums move even where every verdict happens to survive.
//!
//! Kmeans and backprop read device memory back on the host *between*
//! launches (the membership vector, the hidden-layer partial sums), so a
//! lane whose divergence reaches one of those words forks at the
//! session's host-read route rather than at an SM trigger. Their cases
//! also check the batched tally against the tally with batching off.
//!
//! Each sum is independent of the worker count, so every configuration
//! runs at one and at three workers against the same constants. The
//! setup (golden run, ladder, oracle) is built under `NoopHook`, so only
//! the replays feed the registry.

use gpu_archs::{geforce_gtx_480, hd_radeon_7970, quadro_fx_5600};
use gpu_workloads::{Backprop, Histogram, Kmeans, MatrixMul, Transpose, VectorAdd, Workload};
use grel_core::campaign::{Campaign, CampaignConfig, Capture};
use grel_telemetry::{MetricsRegistry, NoopHook, RegistryHook};
use simt_sim::{ArchConfig, Structure};

/// The counters pinned, in the order of each expectation row; a
/// labelled family (`campaign_injections_total{outcome=…}`) is summed
/// over its labels.
const COUNTERS: [&str; 6] = [
    "campaign_batches_total",
    "campaign_batch_forks_total",
    "campaign_batch_final_sdc_total",
    "campaign_batch_shared_cycles_total",
    "campaign_batch_fork_cycles_total",
    "campaign_injections_total",
];

/// Runs a pruned, batched transient campaign of `injections` sites on
/// `structure` at one and at three workers and checks both runs'
/// counter sums against `expected` (an absent counter reads 0). With
/// `against_scalar`, both tallies must also equal the tally of the same
/// campaign run with batching off.
fn pin(
    label: &str,
    arch: &ArchConfig,
    workload: &dyn Workload,
    structure: Structure,
    injections: u32,
    expected: [u64; 6],
    against_scalar: bool,
) {
    let cfg = CampaignConfig {
        injections,
        prune: true,
        early_exit: false,
        batch: true,
        convergence: 0,
        ..CampaignConfig::quick(17)
    };
    let setup = Campaign::new(arch, workload, &cfg, Capture::campaign(&cfg), &NoopHook).unwrap();
    let scalar = against_scalar.then(|| {
        let cfg = CampaignConfig {
            batch: false,
            ..cfg
        };
        setup.run(structure, cfg, &NoopHook).unwrap().tally
    });
    for threads in [1usize, 3] {
        let registry = MetricsRegistry::new();
        let hook = RegistryHook::new(&registry);
        let result = setup
            .run(structure, CampaignConfig { threads, ..cfg }, &hook)
            .unwrap();
        assert_eq!(result.tally.total(), u64::from(injections), "{label}");
        if let Some(scalar) = &scalar {
            assert_eq!(
                &result.tally, scalar,
                "{label} at {threads} worker(s): batched vs scalar"
            );
        }
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

/// Histogram bins live in the LDS and are bumped by LDS atomics, whose
/// divergent target words always fork.
#[test]
fn histogram_lds_atomics_batch_counters_are_pinned() {
    pin(
        "histogram LDS",
        &quadro_fx_5600(),
        &Histogram::new(512, 32, 17),
        Structure::LocalMemory,
        40000,
        [1, 31, 0, 567, 2779, 40000],
        false,
    );
}

/// Transpose stages a tile through the LDS: divergent words carry from
/// LDS stores into LDS loads and on into global stores.
#[test]
fn transpose_lds_batch_counters_are_pinned() {
    pin(
        "transpose LDS",
        &geforce_gtx_480(),
        &Transpose::new(64, 17),
        Structure::LocalMemory,
        40000,
        [1, 0, 49, 323, 0, 40000],
        false,
    );
}

/// matrixMul reads both tiles from the LDS into fused multiply-adds, so
/// a divergent LDS word carries through the three-operand ALU body.
#[test]
fn matrixmul_lds_batch_counters_are_pinned() {
    pin(
        "matrixMul LDS",
        &geforce_gtx_480(),
        &MatrixMul::new(32, 17),
        Structure::LocalMemory,
        40000,
        [3, 0, 156, 3605, 0, 40000],
        false,
    );
}

/// The HD 7970 lowers uniform values to scalar registers, so its vector
/// RF campaign mixes scalar and vector operands in every batched lane.
#[test]
fn southern_islands_rf_batch_counters_are_pinned() {
    pin(
        "HD 7970 RF",
        &hd_radeon_7970(),
        &VectorAdd::new(4096, 17),
        Structure::VectorRegisterFile,
        8000,
        [1, 17, 21, 467, 257, 8000],
        false,
    );
}

/// Kmeans reads the membership vector back after every round but the
/// last and recomputes the centroids from it on the host, so a lane whose
/// divergence reaches a membership word forks at that mid-plan read.
#[test]
fn kmeans_rf_host_read_batch_counters_are_pinned() {
    pin(
        "kmeans RF",
        &geforce_gtx_480(),
        &Kmeans::new(256, 4, 2, 17),
        Structure::VectorRegisterFile,
        40000,
        [4, 147, 4, 10254, 575684, 40000],
        true,
    );
}

/// Backprop reads the hidden-layer partial sums back between its two
/// launches and derives the deltas on the host, so a lane whose
/// divergence reaches a partial sum forks at that mid-plan read.
#[test]
fn backprop_rf_host_read_batch_counters_are_pinned() {
    pin(
        "backprop RF",
        &geforce_gtx_480(),
        &Backprop::new(64, 17),
        Structure::VectorRegisterFile,
        40000,
        [4, 109, 33, 5710, 80354, 40000],
        true,
    );
}
