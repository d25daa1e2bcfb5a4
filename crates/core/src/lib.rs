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
//!   campaign, adaptive, traced and multi-bit-upset run replays against;
//!   the free `run_*` functions are thin wrappers over it;
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
//! use grel_core::campaign::{run_campaign, CampaignConfig};
//! use gpu_workloads::VectorAdd;
//! use gpu_archs::geforce_gtx_480;
//! use simt_sim::Structure;
//!
//! let mut cfg = CampaignConfig::quick(1);
//! cfg.injections = 16; // doc-test sized
//! let result = run_campaign(
//!     &geforce_gtx_480(),
//!     &VectorAdd::new(512, 1),
//!     Structure::VectorRegisterFile,
//!     cfg,
//! )?;
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
pub mod stats;
pub mod study;

pub use ace::{AceAnalyzer, AceMode, LifetimeOracle, StructureReport};
pub use breakdown::{
    avf_by_bit, avf_by_phase, detailed_campaign, detailed_campaign_on, due_fraction, mbu_campaign,
    mbu_campaign_on, SiteOutcome,
};
pub use campaign::{
    golden_run, golden_run_hooked, golden_run_with_ace, run_campaign, run_campaign_hooked,
    run_campaign_parallel, run_campaign_parallel_hooked, run_campaign_with_ladder_hooked,
    run_campaign_with_oracle_hooked, run_injections, run_injections_checkpointed, Campaign,
    CampaignConfig, CampaignResult, Capture, CheckpointLadder, GoldenRun, Outcome, Tally,
};
pub use convergence::{
    ConvergenceMonitor, ConvergenceSnapshot, StratumProgress, DEFAULT_TARGET_MARGIN,
};
pub use epf::{eit, epf, structure_bits, structure_fit, FitBreakdown};
pub use perf::{profile, PerfProfile};
pub use protection::{project, protection_sweep, ProtectedPoint, Protection};
pub use provenance::{
    golden_write_log, parse_site, run_campaign_with_provenance_hooked, trace_one, CellStat,
    MaskingReason, Provenance, ProvenanceAggregate, SingleTrace, RF_REGIONS,
};
pub use sampling::{
    run_adaptive_campaign, AdaptiveCampaign, RoundPlan, SamplingPlan, StrataSpec, StratumSnapshot,
};
pub use study::{
    evaluate_point, evaluate_point_hooked, run_study, run_study_parallel,
    run_study_parallel_hooked, AvfRow, EpfRow, EvalPoint, Findings, StructureEval, StudyConfig,
    StudyResult,
};
