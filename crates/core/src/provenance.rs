//! Fault-propagation provenance: the analysis layer over the simulator's
//! flight recorder ([`simt_sim::TraceObserver`]).
//!
//! A campaign tally says *what* happened (Masked/SDC/DUE rates); this
//! module says *why*. For every injection it distills a [`Provenance`]
//! record — how long the corrupted word survived before its first
//! architected read (or the overwrite that masked it), how far the
//! corruption spread, and how many cycles passed before the output
//! stream first diverged from the golden run — and aggregates the
//! records into AVF **attribution heatmaps** (SDC rate per register-file
//! word region and per LDS bank) plus log2-bucketed latency histograms.
//!
//! Recording is strictly observational: outcomes and tallies are
//! bit-identical with and without it, and the aggregates inherit the
//! runner's determinism contract (site-order merge, invariant under the
//! worker count).

#[cfg(test)]
use crate::campaign::golden_run;
use crate::campaign::{Campaign, CampaignConfig, CampaignResult, Capture, Outcome};
use crate::runner::Arming;
use crate::space::SiteSpace;
use gpu_workloads::Workload;
use grel_telemetry::{Event, NoopHook, TelemetryHook};
use simt_sim::{ArchConfig, FaultKind, FaultSite, SimError, Structure, TraceRecord};
use std::fmt::Write as _;
use std::time::Instant;

/// Number of equal word regions the register file is folded into for the
/// attribution heatmap.
pub const RF_REGIONS: usize = 16;

/// Why a masked injection was masked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskingReason {
    /// The corrupted word was cleanly overwritten before any read.
    Overwritten,
    /// The corrupted word was never read (dead or unallocated state).
    NeverRead,
    /// The corruption was read but the program output still matched the
    /// golden run (logical masking downstream of the read).
    LogicallyMasked,
}

impl MaskingReason {
    /// Canonical label used in telemetry and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            MaskingReason::Overwritten => "overwritten",
            MaskingReason::NeverRead => "never-read",
            MaskingReason::LogicallyMasked => "logically-masked",
        }
    }

    /// All reasons, in reporting order.
    pub const ALL: [MaskingReason; 3] = [
        MaskingReason::Overwritten,
        MaskingReason::NeverRead,
        MaskingReason::LogicallyMasked,
    ];
}

impl std::fmt::Display for MaskingReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Root-cause attribution of a DUE or hang: the mechanism that turned the
/// injection into a failure, mirroring how [`MaskingReason`] explains a
/// masked run. Each variant carries the absolute cycle of the causal
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// A stuck-at cell first re-asserted over an architected write at this
    /// cycle — the corruption could never be flushed.
    StuckReassertion(u64),
    /// Live scheduler/mask/scoreboard/barrier state was corrupted at this
    /// cycle.
    ControlCorruption(u64),
    /// The watchdog expired at this cycle with warps parked — a barrier or
    /// scheduler deadlock.
    Deadlock(u64),
}

impl FailureCause {
    /// Reporting labels, aligned with [`FailureCause::index`].
    pub const LABELS: [&'static str; 3] = ["stuck-reassert", "control-corrupt", "deadlock"];

    /// Canonical label used in telemetry and reports.
    pub fn as_str(&self) -> &'static str {
        Self::LABELS[self.index()]
    }

    /// Position within [`FailureCause::LABELS`] (for aggregate counters).
    pub fn index(&self) -> usize {
        match self {
            FailureCause::StuckReassertion(_) => 0,
            FailureCause::ControlCorruption(_) => 1,
            FailureCause::Deadlock(_) => 2,
        }
    }

    /// Absolute cycle of the causal event.
    pub fn cycle(&self) -> u64 {
        match self {
            FailureCause::StuckReassertion(c)
            | FailureCause::ControlCorruption(c)
            | FailureCause::Deadlock(c) => *c,
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The distilled provenance of one injection: outcome plus propagation
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// The injected fault site.
    pub site: FaultSite,
    /// The campaign classification of this injection.
    pub outcome: Outcome,
    /// Cycles from the flip to the first architected read of the
    /// corrupted word (`None` if it was overwritten or never read).
    pub first_read_latency: Option<u64>,
    /// Cycles from the flip to the first global store that diverged from
    /// the golden stream (`None` when the stream never diverged — masked
    /// runs, DUEs that die before storing, or SDCs visible only in the
    /// final read-back).
    pub cycles_to_divergence: Option<u64>,
    /// Distinct words the corruption reached (including the flip target).
    pub taint_words: u32,
    /// Whether taint tracking hit [`simt_sim::TAINT_CAP`].
    pub taint_saturated: bool,
    /// Distinct LDS banks among the tainted local-memory words.
    pub lds_banks: u32,
    /// Why a masked run was masked (`None` for SDC/DUE).
    pub masking: Option<MaskingReason>,
    /// Root cause of a DUE or hang (`None` for masked runs and for
    /// transient faults whose only causal event is the flip itself).
    pub cause: Option<FailureCause>,
}

impl Provenance {
    /// Builds the provenance of one injection from its classification
    /// and flight-recorder output.
    pub fn from_trace(outcome: Outcome, rec: &TraceRecord) -> Self {
        let latency = |end: Option<u64>| match (rec.injected_at, end) {
            (Some(t0), Some(t1)) => Some(t1.saturating_sub(t0)),
            _ => None,
        };
        let masking = (outcome == Outcome::Masked).then(|| {
            // Live state was corrupted — the flipped word was read, or a
            // control fault hit live scheduler state — yet the output
            // matched.
            if rec.first_read.is_some() || rec.control_corrupt.is_some() {
                MaskingReason::LogicallyMasked
            } else if rec.overwrite.is_some() {
                MaskingReason::Overwritten
            } else {
                MaskingReason::NeverRead
            }
        });
        // Root cause of a failure: earliest causal event wins, so a hang
        // downstream of a control corruption is attributed to the
        // corruption, not to the watchdog that finally noticed it.
        let cause = if outcome == Outcome::Masked {
            None
        } else if let Some(c) = rec.control_corrupt {
            Some(FailureCause::ControlCorruption(c))
        } else if let Some(c) = rec.first_reassert {
            Some(FailureCause::StuckReassertion(c))
        } else {
            rec.hang.map(FailureCause::Deadlock)
        };
        Provenance {
            site: rec.site,
            outcome,
            first_read_latency: latency(rec.first_read),
            cycles_to_divergence: latency(rec.divergence),
            taint_words: rec.taint_words,
            taint_saturated: rec.taint_saturated,
            lds_banks: rec.lds_banks,
            masking,
            cause,
        }
    }
}

/// Outcome counters of one spatial cell (RF word region or LDS bank).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellStat {
    /// Injections landing in the cell.
    pub injections: u64,
    /// SDC outcomes among them.
    pub sdc: u64,
    /// DUE outcomes among them.
    pub due: u64,
    /// Hang outcomes among them.
    pub hang: u64,
}

impl CellStat {
    /// SDC rate of the cell (0 when empty).
    pub fn sdc_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.sdc as f64 / self.injections as f64
        }
    }
}

/// Campaign-wide roll-up of [`Provenance`] records: the data behind the
/// attribution heatmap and the propagation histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceAggregate {
    /// Per-region stats over the structure's word space ([`RF_REGIONS`]
    /// equal slices; populated for register-file campaigns).
    pub rf_regions: Vec<CellStat>,
    /// Per-LDS-bank stats (populated for local-memory campaigns).
    pub lds_banks: Vec<CellStat>,
    /// `log2` histogram of cycles-to-divergence: bucket `b` counts
    /// injections with divergence latency in `[2^(b-1), 2^b)`.
    pub divergence_hist: Vec<u64>,
    /// `log2` histogram of first-read latency, same bucketing.
    pub first_read_hist: Vec<u64>,
    /// Masked runs per masking reason, in [`MaskingReason::ALL`] order.
    pub masking: [u64; 3],
    /// Failures per root cause, in [`FailureCause::LABELS`] order.
    pub causes: [u64; 3],
    /// Sum of taint breadths over all injections.
    pub taint_words_total: u64,
    /// Injections whose taint set saturated.
    pub taint_saturated_total: u64,
}

/// The log2 bucket of a latency: 0 for 0 cycles, otherwise the position
/// of the highest set bit plus one (bucket `b` covers `[2^(b-1), 2^b)`).
pub fn log2_bucket(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

fn bump(hist: &mut Vec<u64>, bucket: usize) {
    if hist.len() <= bucket {
        hist.resize(bucket + 1, 0);
    }
    hist[bucket] += 1;
}

impl ProvenanceAggregate {
    /// Rolls the per-injection records of one campaign up into heatmap
    /// cells and histograms. `structure` is the campaign's injected
    /// structure; `arch` supplies the word counts and bank geometry.
    pub fn from_records(arch: &ArchConfig, structure: Structure, records: &[Provenance]) -> Self {
        let words = arch.words_per_sm(structure) as u64;
        let mut agg = ProvenanceAggregate::default();
        if structure == Structure::LocalMemory {
            agg.lds_banks = vec![CellStat::default(); arch.lds_banks.max(1) as usize];
        } else {
            agg.rf_regions = vec![CellStat::default(); RF_REGIONS];
        }
        for p in records {
            // A control site's `word` is a warp slot, not a storage cell.
            let cell = match p.site.kind {
                FaultKind::Control(_) => None,
                _ if structure == Structure::LocalMemory => {
                    let bank = (p.site.word as u64 % arch.lds_banks.max(1) as u64) as usize;
                    Some(&mut agg.lds_banks[bank])
                }
                _ => {
                    let region = ((p.site.word as u64 * RF_REGIONS as u64) / words.max(1)) as usize;
                    Some(&mut agg.rf_regions[region.min(RF_REGIONS - 1)])
                }
            };
            if let Some(cell) = cell {
                cell.injections += 1;
                match p.outcome {
                    Outcome::Sdc => cell.sdc += 1,
                    Outcome::Due => cell.due += 1,
                    Outcome::Hang => cell.hang += 1,
                    Outcome::Masked => {}
                }
            }
            if let Some(d) = p.cycles_to_divergence {
                bump(&mut agg.divergence_hist, log2_bucket(d));
            }
            if let Some(r) = p.first_read_latency {
                bump(&mut agg.first_read_hist, log2_bucket(r));
            }
            if let Some(m) = p.masking {
                let idx = MaskingReason::ALL.iter().position(|x| *x == m).unwrap();
                agg.masking[idx] += 1;
            }
            if let Some(c) = p.cause {
                agg.causes[c.index()] += 1;
            }
            agg.taint_words_total += p.taint_words as u64;
            agg.taint_saturated_total += p.taint_saturated as u64;
        }
        agg
    }

    /// Publishes the aggregate as `provenance_*` counters (labels are
    /// zero-padded so lexicographic metric order equals numeric order).
    pub fn emit<H: TelemetryHook>(&self, hook: &H) {
        if !H::ENABLED {
            return;
        }
        for (i, c) in self.rf_regions.iter().enumerate() {
            if c.injections == 0 {
                continue;
            }
            hook.count(
                &format!("provenance_rf_region_injections_total{{region=\"{i:02}\"}}"),
                c.injections,
            );
            if c.sdc > 0 {
                hook.count(
                    &format!("provenance_rf_region_sdc_total{{region=\"{i:02}\"}}"),
                    c.sdc,
                );
            }
        }
        for (i, c) in self.lds_banks.iter().enumerate() {
            if c.injections == 0 {
                continue;
            }
            hook.count(
                &format!("provenance_lds_bank_injections_total{{bank=\"{i:02}\"}}"),
                c.injections,
            );
            if c.sdc > 0 {
                hook.count(
                    &format!("provenance_lds_bank_sdc_total{{bank=\"{i:02}\"}}"),
                    c.sdc,
                );
            }
        }
        for (b, &n) in self.divergence_hist.iter().enumerate() {
            if n > 0 {
                hook.count(
                    &format!("provenance_divergence_cycles_total{{bucket=\"{b:02}\"}}"),
                    n,
                );
            }
        }
        for (b, &n) in self.first_read_hist.iter().enumerate() {
            if n > 0 {
                hook.count(
                    &format!("provenance_first_read_cycles_total{{bucket=\"{b:02}\"}}"),
                    n,
                );
            }
        }
        for (reason, &n) in MaskingReason::ALL.iter().zip(&self.masking) {
            if n > 0 {
                hook.count(
                    &format!("provenance_masking_total{{reason=\"{reason}\"}}"),
                    n,
                );
            }
        }
        for (cause, &n) in FailureCause::LABELS.iter().zip(&self.causes) {
            if n > 0 {
                hook.count(&format!("provenance_cause_total{{cause=\"{cause}\"}}"), n);
            }
        }
        if self.taint_words_total > 0 {
            hook.count("provenance_taint_words_total", self.taint_words_total);
        }
        if self.taint_saturated_total > 0 {
            hook.count(
                "provenance_taint_saturated_total",
                self.taint_saturated_total,
            );
        }
    }
}

impl Campaign<'_> {
    /// [`Campaign::run`] with the flight recorder enabled: same sites,
    /// same outcomes, same tally — plus one [`Provenance`] record per
    /// injection (site order) and the campaign [`ProvenanceAggregate`].
    /// Traced replays are neither pruned nor batched: the recorder wants
    /// every full propagation timeline.
    ///
    /// Per-injection `injection.trace` events and `provenance_*` metrics
    /// are emitted from the calling thread after the deterministic
    /// site-order merge, so hooked output is invariant under the worker
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates replay failures that are not fault classifications.
    ///
    /// # Panics
    ///
    /// Panics if the setup did not capture the golden write log
    /// ([`Capture::writes`]).
    pub fn run_traced<H: TelemetryHook>(
        &self,
        structure: Structure,
        cfg: CampaignConfig,
        hook: &H,
    ) -> Result<(CampaignResult, Vec<Provenance>, ProvenanceAggregate), SimError> {
        let started = H::ENABLED.then(Instant::now);
        let space = self.space(structure, cfg.fault_model)?;
        let sites = space.sample(cfg.injections, cfg.seed);
        let replayed = self.replay_with(&sites, Arming::Traced, cfg, hook)?;
        let provenance: Vec<Provenance> = replayed
            .outcomes
            .iter()
            .zip(&replayed.records)
            .map(|(&o, r)| Provenance::from_trace(o, r))
            .collect();
        let aggregate = ProvenanceAggregate::from_records(self.arch, structure, &provenance);
        if H::ENABLED {
            for p in &provenance {
                let ev = Event::new("injection.trace")
                    .field("workload", self.workload.name())
                    .field("device", self.arch.name.as_str())
                    .field("structure", p.site.structure.to_string())
                    .field("sm", p.site.sm)
                    .field("word", p.site.word)
                    .field("bit", u32::from(p.site.bit))
                    .field("cycle", p.site.cycle)
                    .field("kind", p.site.kind.as_str())
                    .field("outcome", p.outcome.as_str())
                    .field_opt("first_read_latency", p.first_read_latency)
                    .field_opt("cycles_to_divergence", p.cycles_to_divergence)
                    .field("taint_words", u64::from(p.taint_words))
                    .field("taint_saturated", p.taint_saturated)
                    .field("lds_banks", u64::from(p.lds_banks))
                    .field_opt("masking", p.masking.map(|m| m.as_str()))
                    .field_opt("cause", p.cause.map(|c| c.as_str()))
                    .field_opt("cause_cycle", p.cause.map(|c| c.cycle()));
                hook.event(&ev);
            }
            aggregate.emit(hook);
        }
        let result = self.finish(&space, cfg, &replayed, started, hook);
        Ok((result, provenance, aggregate))
    }
}

/// Parses a fault site from the `sm:struct:word:bit:cycle[:kind]` CLI
/// syntax, where `struct` is one of `rf`, `lds`, `srf` and the optional
/// `kind` is `transient` (the default), `stuck0`, `stuck1` or
/// `ctrl-<sched|mask|sboard|barrier>`.
///
/// Delegates to [`FaultSite`]'s `FromStr`, so the accepted grammar is
/// exactly [`FaultSite::to_site_string`]'s output — every kind
/// round-trips.
///
/// # Errors
///
/// Returns a human-readable message naming the malformed component.
///
/// # Example
/// ```
/// use grel_core::provenance::parse_site;
/// use simt_sim::{FaultKind, Structure};
/// let s = parse_site("3:rf:128:17:40000").unwrap();
/// assert_eq!(s.structure, Structure::VectorRegisterFile);
/// assert_eq!(s.word, 128);
/// assert_eq!(s.kind, FaultKind::TransientFlip);
/// let p = parse_site("0:lds:9:4:700:stuck1").unwrap();
/// assert_eq!(p.kind, FaultKind::StuckAt1);
/// assert!(parse_site("3:l1:0:0:0").is_err());
/// ```
pub fn parse_site(s: &str) -> Result<FaultSite, String> {
    s.parse()
}

/// Everything `repro trace` needs to narrate one injection.
#[derive(Debug, Clone)]
pub struct SingleTrace {
    /// The traced site.
    pub site: FaultSite,
    /// Fault-free total cycles of the workload.
    pub golden_cycles: u64,
    /// Distilled provenance of the replay.
    pub provenance: Provenance,
}

/// Replays one injection with the flight recorder on and returns its
/// provenance: the one-shot path behind `repro trace`. The golden run
/// and its write log come from one [`Campaign`] built for this
/// injection. Its ladder holds the run's start alone, since a single
/// replay would resume from at most one rung, so the replay starts at
/// the run's start checkpoint.
///
/// # Errors
///
/// [`SimError::LaunchConfig`] naming the coordinate and the device's
/// range when `site` is not a cell of `arch` (a cycle past the end of
/// execution is allowed: the run is trivially masked); otherwise
/// propagates a golden-run failure or a non-DUE replay failure.
pub fn trace_one(
    arch: &ArchConfig,
    workload: &dyn Workload,
    site: FaultSite,
    watchdog_factor: u64,
) -> Result<SingleTrace, SimError> {
    SiteSpace::check(arch, &site).map_err(|e| SimError::LaunchConfig {
        reason: format!("no such site on {}: {e}", arch.name),
    })?;
    let cfg = CampaignConfig {
        watchdog_factor,
        // The same setting as `--no-checkpoints`: no snapshot fits.
        checkpoint_budget_bytes: 1,
        ..CampaignConfig::quick(0)
    };
    let capture = Capture {
        writes: true,
        ..Capture::default()
    };
    let campaign = Campaign::new(arch, workload, &cfg, capture, &NoopHook)?;
    let replayed = campaign.replay_with(&[site], Arming::Traced, cfg, &NoopHook)?;
    Ok(SingleTrace {
        site,
        golden_cycles: campaign.golden().cycles,
        provenance: Provenance::from_trace(replayed.outcomes[0], &replayed.records[0]),
    })
}

impl SingleTrace {
    /// Renders the propagation narrative shown by `repro trace`:
    /// flip → first read / overwrite → divergence or masking reason.
    pub fn narrative(&self) -> String {
        let p = &self.provenance;
        let mut out = String::new();
        let _ = writeln!(out, "injection: {}", self.site);
        let _ = writeln!(out, "golden run: {} cycles fault-free", self.golden_cycles);
        if self.site.cycle >= self.golden_cycles {
            let _ = writeln!(
                out,
                "the fault cycle lies at or beyond the fault-free end of execution;"
            );
            let _ = writeln!(
                out,
                "the flip never occurred and the run is trivially masked."
            );
            let _ = writeln!(out, "outcome: {}", p.outcome);
            return out;
        }
        // A control site names a warp slot: no storage word carries the
        // corruption, so there is no read, overwrite or taint to narrate.
        let storage = !matches!(self.site.kind, FaultKind::Control(_));
        match (storage, p.first_read_latency, p.masking) {
            (false, ..) => {}
            (true, Some(l), _) => {
                let _ = writeln!(
                    out,
                    "first architected read of the corrupted word: {} cycle(s) after the flip",
                    l
                );
            }
            (true, None, Some(MaskingReason::Overwritten)) => {
                let _ = writeln!(
                    out,
                    "the corrupted word was cleanly overwritten before any read — the flip died in place"
                );
            }
            (true, None, _) => {
                let _ = writeln!(
                    out,
                    "the corrupted word was never read for the rest of the run (dead or unallocated state)"
                );
            }
        }
        if storage {
            let _ = writeln!(
                out,
                "taint spread: {} word(s){}{}",
                p.taint_words,
                if p.lds_banks > 0 {
                    format!(" across {} LDS bank(s)", p.lds_banks)
                } else {
                    String::new()
                },
                if p.taint_saturated {
                    " (saturated: spread exceeded the tracking cap)"
                } else {
                    ""
                }
            );
        }
        match p.cycles_to_divergence {
            Some(d) => {
                let _ = writeln!(
                    out,
                    "output stream diverged from the golden run {} cycle(s) after the flip",
                    d
                );
            }
            None => match p.outcome {
                Outcome::Masked => {
                    let _ = writeln!(out, "the output stream never diverged from the golden run");
                }
                Outcome::Sdc => {
                    let _ = writeln!(
                        out,
                        "no store-stream divergence was observed; the corruption surfaced only in the final output read-back"
                    );
                }
                Outcome::Due => {
                    let _ = writeln!(
                        out,
                        "the run was cut short by a detected error before any store diverged"
                    );
                }
                Outcome::Hang => {
                    let _ = writeln!(
                        out,
                        "the run never terminated; the watchdog cut it off before any store diverged"
                    );
                }
            },
        }
        match p.cause {
            Some(FailureCause::StuckReassertion(c)) => {
                let _ = writeln!(
                    out,
                    "root cause: the stuck cell first re-asserted over an architected write at cycle {c}"
                );
            }
            Some(FailureCause::ControlCorruption(c)) => {
                let _ = writeln!(
                    out,
                    "root cause: live control state (scheduler/mask/scoreboard/barrier) was corrupted at cycle {c}"
                );
            }
            Some(FailureCause::Deadlock(c)) => {
                let _ = writeln!(
                    out,
                    "root cause: the watchdog expired at cycle {c} with warps still parked (deadlock)"
                );
            }
            None => {}
        }
        match p.masking {
            Some(m) => {
                let _ = writeln!(out, "outcome: {} (reason: {})", p.outcome, m);
            }
            None => {
                let _ = writeln!(out, "outcome: {}", p.outcome);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::quadro_fx_5600;
    use gpu_workloads::VectorAdd;

    fn rec(site: FaultSite) -> TraceRecord {
        TraceRecord {
            site,
            injected_at: Some(site.cycle),
            first_read: None,
            overwrite: None,
            divergence: None,
            taint_words: 1,
            taint_saturated: false,
            lds_banks: 0,
            first_reassert: None,
            reasserts: 0,
            control_corrupt: None,
            hang: None,
        }
    }

    fn rf_site(word: u32, cycle: u64) -> FaultSite {
        FaultSite::new(Structure::VectorRegisterFile, 0, word, 0, cycle)
    }

    #[test]
    fn masking_reason_classification() {
        let s = rf_site(4, 100);
        let mut never = rec(s);
        never.taint_words = 1;
        assert_eq!(
            Provenance::from_trace(Outcome::Masked, &never).masking,
            Some(MaskingReason::NeverRead)
        );
        let mut over = rec(s);
        over.overwrite = Some(150);
        assert_eq!(
            Provenance::from_trace(Outcome::Masked, &over).masking,
            Some(MaskingReason::Overwritten)
        );
        let mut logical = rec(s);
        logical.first_read = Some(130);
        let p = Provenance::from_trace(Outcome::Masked, &logical);
        assert_eq!(p.masking, Some(MaskingReason::LogicallyMasked));
        assert_eq!(p.first_read_latency, Some(30));
        assert_eq!(Provenance::from_trace(Outcome::Sdc, &logical).masking, None);
    }

    #[test]
    fn failure_cause_attribution() {
        use simt_sim::ControlTarget;
        let s = rf_site(4, 100);

        // A stuck-at DUE is attributed to the first re-assertion.
        let mut stuck = rec(s.with_kind(FaultKind::StuckAt0));
        stuck.first_reassert = Some(140);
        stuck.reasserts = 3;
        let p = Provenance::from_trace(Outcome::Due, &stuck);
        assert_eq!(p.cause, Some(FailureCause::StuckReassertion(140)));
        assert_eq!(p.cause.unwrap().cycle(), 140);

        // A control-fault hang is attributed to the corruption, not the
        // watchdog that eventually noticed the deadlock.
        let mut ctrl = rec(s.with_kind(FaultKind::Control(ControlTarget::BarrierCounter)));
        ctrl.control_corrupt = Some(100);
        ctrl.hang = Some(90_000);
        let p = Provenance::from_trace(Outcome::Hang, &ctrl);
        assert_eq!(p.cause, Some(FailureCause::ControlCorruption(100)));

        // A hang with no earlier causal event falls back to the deadlock.
        let mut hung = rec(s);
        hung.hang = Some(90_000);
        let p = Provenance::from_trace(Outcome::Hang, &hung);
        assert_eq!(p.cause, Some(FailureCause::Deadlock(90_000)));

        // Masked runs never carry a cause, whatever was recorded.
        let p = Provenance::from_trace(Outcome::Masked, &stuck);
        assert_eq!(p.cause, None);

        // Plain transient SDCs have no causal event beyond the flip.
        let p = Provenance::from_trace(Outcome::Sdc, &rec(s));
        assert_eq!(p.cause, None);
    }

    #[test]
    fn aggregate_counts_hangs_and_causes() {
        let arch = quadro_fx_5600();
        let mut hung = rec(rf_site(0, 10));
        hung.hang = Some(50_000);
        let h = Provenance::from_trace(Outcome::Hang, &hung);
        let mut stuck = rec(rf_site(1, 10).with_kind(FaultKind::StuckAt1));
        stuck.first_reassert = Some(20);
        let d = Provenance::from_trace(Outcome::Due, &stuck);
        let agg = ProvenanceAggregate::from_records(&arch, Structure::VectorRegisterFile, &[h, d]);
        assert_eq!(agg.rf_regions[0].hang, 1);
        assert_eq!(agg.rf_regions[0].due, 1);
        assert_eq!(agg.causes, [1, 0, 1], "stuck-reassert and deadlock");
    }

    #[test]
    fn control_sites_have_no_storage_word() {
        use simt_sim::ControlTarget;
        let site = rf_site(2, 100).with_kind(FaultKind::Control(ControlTarget::BarrierCounter));
        // An empty slot: nothing live was corrupted.
        let empty = rec(site);
        let p = Provenance::from_trace(Outcome::Masked, &empty);
        assert_eq!(p.masking, Some(MaskingReason::NeverRead));
        // Live control state corrupted, output still matched.
        let mut live = rec(site);
        live.control_corrupt = Some(100);
        let q = Provenance::from_trace(Outcome::Masked, &live);
        assert_eq!(q.masking, Some(MaskingReason::LogicallyMasked));
        // The slot index lands in no RF-region cell.
        let arch = quadro_fx_5600();
        let agg = ProvenanceAggregate::from_records(&arch, Structure::VectorRegisterFile, &[p, q]);
        assert!(agg.rf_regions.iter().all(|c| c.injections == 0));
        assert_eq!(agg.masking, [0, 1, 1]);
        let t = SingleTrace {
            site,
            golden_cycles: 1000,
            provenance: q,
        };
        let text = t.narrative();
        assert!(
            !text.contains("corrupted word") && !text.contains("taint"),
            "{text}"
        );
        assert!(
            text.contains("outcome: masked (reason: logically-masked)"),
            "{text}"
        );
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(1024), 11);
    }

    #[test]
    fn aggregate_attributes_regions_and_histograms() {
        let arch = quadro_fx_5600();
        let words = arch.rf_words_per_sm() as u64;
        // One SDC in the first region, one masked (never read) in the last.
        let first = Provenance {
            cycles_to_divergence: Some(8),
            ..Provenance::from_trace(Outcome::Sdc, &rec(rf_site(0, 10)))
        };
        let last_word = (words - 1) as u32;
        let last = Provenance::from_trace(Outcome::Masked, &rec(rf_site(last_word, 10)));
        let agg =
            ProvenanceAggregate::from_records(&arch, Structure::VectorRegisterFile, &[first, last]);
        assert_eq!(agg.rf_regions.len(), RF_REGIONS);
        assert_eq!(agg.rf_regions[0].injections, 1);
        assert_eq!(agg.rf_regions[0].sdc, 1);
        assert_eq!(agg.rf_regions[RF_REGIONS - 1].injections, 1);
        assert_eq!(agg.rf_regions[RF_REGIONS - 1].sdc, 0);
        assert_eq!(agg.divergence_hist[log2_bucket(8)], 1);
        assert_eq!(agg.masking[1], 1, "never-read count");
        assert!(agg.lds_banks.is_empty());
    }

    #[test]
    fn parse_site_round_trip_and_errors() {
        let s = parse_site("2:lds:64:31:900").unwrap();
        assert_eq!(s.structure, Structure::LocalMemory);
        assert_eq!(s.sm, 2);
        assert_eq!(s.word, 64);
        assert_eq!(s.bit, 31);
        assert_eq!(s.cycle, 900);
        assert!(parse_site("1:rf:0:32:5").is_err(), "bit out of range");
        assert!(parse_site("1:rf:0:0").is_err(), "too few fields");
        assert!(parse_site("1:tex:0:0:5").is_err(), "unknown structure");
        assert!(parse_site("x:rf:0:0:5").is_err(), "non-numeric sm");
        assert!(parse_site("1:rf:0:0:5:melty").is_err(), "unknown kind");
    }

    #[test]
    fn parse_site_round_trips_every_kind() {
        use simt_sim::ControlTarget;
        let kinds = [
            FaultKind::TransientFlip,
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Control(ControlTarget::SchedulerSlot),
            FaultKind::Control(ControlTarget::ActiveMask),
            FaultKind::Control(ControlTarget::Scoreboard),
            FaultKind::Control(ControlTarget::BarrierCounter),
        ];
        for kind in kinds {
            let site = rf_site(12, 3000).with_kind(kind);
            let parsed = parse_site(&site.to_site_string()).unwrap();
            assert_eq!(parsed, site, "round-trip of kind {}", kind.as_str());
        }
    }

    #[test]
    fn trace_one_narrates_a_real_injection() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 7);
        let golden = golden_run(&arch, &w).unwrap();
        let site = rf_site(0, golden.cycles / 2);
        let t = trace_one(&arch, &w, site, 4).unwrap();
        let text = t.narrative();
        assert!(text.contains("injection: register file sm0 word 0"));
        assert!(text.contains("outcome: "));
        // A site beyond the end of execution narrates the trivial mask.
        let beyond = rf_site(0, golden.cycles + 10);
        let t = trace_one(&arch, &w, beyond, 4).unwrap();
        assert!(t.narrative().contains("never occurred"));
        assert_eq!(t.provenance.outcome, Outcome::Masked);
    }
}
