//! # grel-core — GPU reliability evaluation framework
//!
//! The reproduction of the ISPASS 2017 paper's contribution: a unified
//! GUFI/SIFI-style toolkit that measures the soft-error vulnerability of
//! GPU storage structures with two methodologies and correlates it with
//! performance:
//!
//! * [`campaign`] — statistical **fault injection**: golden run, uniform
//!   `(SM, word, bit, cycle)` site sampling, parallel replays resumed
//!   from a checkpoint ladder, and masked/SDC/DUE classification. Its
//!   [`Campaign`] is the one per-point setup — one golden pass carrying
//!   the analyses a [`Capture`] asks for, then the ladder — that every
//!   campaign, adaptive, traced and multi-bit-upset run replays against.
//!   The public campaign API is [`Campaign`] (`new`, `run`,
//!   `run_traced`, `run_adaptive`, `replay`), [`golden_run`],
//!   [`evaluate_point_hooked`], [`run_study_parallel_hooked`],
//!   [`detailed_campaign_on`], [`mbu_campaign_on`] and [`trace_one`].
//!   [`golden_run_hooked`], [`golden_run_with_ace`],
//!   [`run_campaign_hooked`], [`run_campaign_with_oracle_hooked`] and
//!   [`run_injections_checkpointed`] remain only because the
//!   `perfbench/layers` harness calls them;
//! * [`ace`] — **ACE analysis**: single-pass write→last-read lifetime
//!   tracking over the physical register files and local memory, plus
//!   time-weighted occupancy (the red line of Fig. 1/2);
//! * [`stats`] — the Leveugle sample-size model behind the paper's
//!   "2,000 injections → ±2.88 % @ 99 %" footnote, plus Pearson
//!   correlation for the AVF↔occupancy finding;
//! * [`mod@epf`] — FIT/EIT/**EPF** (Executions Per Failure), the combined
//!   reliability-performance metric of Fig. 3;
//! * [`study`] — the full cross-product driver that regenerates the
//!   series behind every figure of the paper;
//! * [`provenance`] — the **fault-propagation flight recorder**: per-
//!   injection first-read/overwrite/divergence timelines, bounded taint
//!   sets, masking reasons and AVF attribution heatmaps that explain why
//!   a structure's AVF is high or low;
//! * [`convergence`] — **streaming convergence monitoring**: running
//!   finite-population intervals and injections-to-target-margin
//!   projections emitted as `campaign.convergence` events while a
//!   campaign is still in flight;
//! * [`sampling`] — **adaptive stratified sampling**: partition the
//!   site space into oracle-liveness / cycle-quartile / bit-half
//!   strata, pilot each, Neyman-allocate the rest in rounds, and stop
//!   at a caller-chosen post-stratified margin instead of a fixed
//!   injection count.
//!
//! ## Example: one campaign
//!
//! ```
//! use grel_core::campaign::{Campaign, CampaignConfig, Capture};
//! use gpu_workloads::VectorAdd;
//! use gpu_archs::geforce_gtx_480;
//! use grel_telemetry::NoopHook;
//! use simt_sim::Structure;
//!
//! let (arch, workload) = (geforce_gtx_480(), VectorAdd::new(512, 1));
//! let mut cfg = CampaignConfig::quick(1);
//! cfg.injections = 16; // doc-test sized
//! // One golden pass and one checkpoint ladder, then the campaign.
//! let setup = Campaign::new(&arch, &workload, &cfg, Capture::campaign(&cfg), &NoopHook)?;
//! let result = setup.run(Structure::VectorRegisterFile, cfg, &NoopHook)?;
//! assert_eq!(result.tally.total(), 16);
//! println!("AVF = {:.2}% ± {:.2}%", result.avf() * 100.0, result.margin_99 * 100.0);
//! # Ok::<(), simt_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ace;
pub mod breakdown;
pub mod campaign;
pub mod convergence;
pub mod epf;
pub mod perf;
pub mod protection;
pub mod provenance;
pub mod runner;
pub mod sampling;
mod space;
pub mod stats;
pub mod study;

pub use ace::{AceAnalyzer, AceMode, LifetimeOracle, StructureReport};
pub use breakdown::{
    avf_by_bit, avf_by_phase, detailed_campaign_on, due_fraction, mbu_campaign_on, SiteOutcome,
};
pub use campaign::{
    golden_run, golden_run_hooked, golden_run_with_ace, run_campaign_hooked,
    run_campaign_with_oracle_hooked, run_injections_checkpointed, Campaign, CampaignConfig,
    CampaignResult, Capture, CheckpointLadder, GoldenRun, Outcome, Tally,
};
pub use convergence::{
    ConvergenceMonitor, ConvergenceSnapshot, StratumProgress, DEFAULT_TARGET_MARGIN,
};
pub use epf::{eit, epf, structure_bits, structure_fit, FitBreakdown};
pub use perf::{profile, PerfProfile};
pub use protection::{project, protection_sweep, ProtectedPoint, Protection};
pub use provenance::{
    parse_site, trace_one, CellStat, MaskingReason, Provenance, ProvenanceAggregate, SingleTrace,
    RF_REGIONS,
};
pub use sampling::{AdaptiveCampaign, RoundPlan, SamplingPlan, StrataSpec, StratumSnapshot};
pub use study::{
    evaluate_point_hooked, run_study_parallel_hooked, AvfRow, EpfRow, EvalPoint, Findings,
    StructureEval, StudyConfig, StudyResult,
};
