//! The full cross-GPU study: evaluates every (device, workload) pair and
//! assembles the series behind the paper's three figures.

use crate::ace::{AceMode, StructureReport};
use crate::campaign::{Campaign, CampaignConfig, Capture, Tally};
use crate::epf::{eit, epf, FitBreakdown};
use crate::runner::fan_out;
use crate::sampling::SamplingPlan;
use crate::stats::pearson;
use gpu_workloads::Workload;
use grel_telemetry::{Event, SpanRecord, TelemetryHook};
use simt_sim::{ArchConfig, FaultModelKind, SimError, Structure};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-structure measurements of one (device, workload) pair.
#[derive(Debug, Clone, Copy)]
pub struct StructureEval {
    /// Fault-injection AVF (`(SDC+DUE)/n`).
    pub avf_fi: f64,
    /// SDC-only component of the FI AVF.
    pub avf_sdc: f64,
    /// ACE-analysis AVF.
    pub avf_ace: f64,
    /// Time-weighted occupancy.
    pub occupancy: f64,
    /// 99 % error margin of `avf_fi`.
    pub margin_99: f64,
    /// Raw outcome counters.
    pub tally: Tally,
}

/// One point of the study: one workload on one device.
#[derive(Debug, Clone)]
pub struct EvalPoint {
    /// Device marketing name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Whether the workload uses local memory (Fig. 2 membership).
    pub uses_local_memory: bool,
    /// Fault-free application cycles.
    pub cycles: u64,
    /// Vector register file measurements.
    pub rf: StructureEval,
    /// Local memory measurements (FI only for Fig. 2 workloads; ACE and
    /// occupancy always).
    pub lds: StructureEval,
    /// Scalar register file ACE AVF (devices with a scalar unit).
    pub srf_avf_ace: Option<f64>,
    /// FIT contributions derived from the measured AVFs.
    pub fit: FitBreakdown,
    /// Executions in 10⁹ hours.
    pub eit: f64,
    /// Executions per failure.
    pub epf: f64,
}

/// How a study point runs each of its campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CampaignMode {
    /// A fixed uniform sample of `campaign.injections` sites per
    /// structure: the paper's protocol.
    #[default]
    Uniform,
    /// The uniform sample with the fault-propagation flight recorder on:
    /// per-injection `injection.trace` events and `provenance_*`
    /// attribution metrics. Tallies and study results equal
    /// [`Uniform`](Self::Uniform)'s.
    Traced,
    /// Adaptive stratified sampling: each campaign stops at the plan's
    /// target margin instead of `campaign.injections`.
    Adaptive(SamplingPlan),
}

impl CampaignMode {
    /// What the golden pass captures for a campaign of this mode under
    /// `cfg`: [`Capture::campaign`]'s oracle, which the adaptive
    /// liveness strata want with pruning off too, and for a traced
    /// campaign the golden global-store stream its replays compare
    /// against.
    pub fn capture(self, cfg: &CampaignConfig) -> Capture {
        let capture = match self {
            CampaignMode::Adaptive(_) => Capture::campaign(&CampaignConfig {
                prune: true,
                ..*cfg
            }),
            _ => Capture::campaign(cfg),
        };
        Capture {
            writes: self == CampaignMode::Traced,
            ..capture
        }
    }
}

/// Study-wide parameters.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Fault-injection campaign parameters.
    pub campaign: CampaignConfig,
    /// How each campaign samples its sites.
    pub mode: CampaignMode,
}

impl StudyConfig {
    /// Paper-scale configuration (2,000 injections per structure).
    pub fn paper(seed: u64) -> Self {
        StudyConfig {
            campaign: CampaignConfig::paper(seed),
            mode: CampaignMode::Uniform,
        }
    }

    /// Quick-look configuration (200 injections per structure).
    pub fn quick(seed: u64) -> Self {
        StudyConfig {
            campaign: CampaignConfig::quick(seed),
            mode: CampaignMode::Uniform,
        }
    }

    /// The structures a study point injects into `workload`: the
    /// register file always, the local memory when the workload touches
    /// it. A control fault corrupts scheduler state, which belongs to
    /// neither structure, so a control study runs one campaign per
    /// point, under the register file's label.
    ///
    /// ```
    /// use grel_core::study::StudyConfig;
    /// use gpu_workloads::{Transpose, VectorAdd};
    /// use simt_sim::{FaultModelKind, Structure};
    ///
    /// let mut cfg = StudyConfig::quick(1);
    /// let (v, t) = (VectorAdd::new(64, 1), Transpose::new(32, 1));
    /// assert_eq!(cfg.injected_structures(&v), [Structure::VectorRegisterFile]);
    /// assert_eq!(cfg.injected_structures(&t).len(), 2);
    /// cfg.campaign.fault_model = FaultModelKind::Control;
    /// assert_eq!(cfg.injected_structures(&t), [Structure::VectorRegisterFile]);
    /// ```
    pub fn injected_structures(&self, workload: &dyn Workload) -> &'static [Structure] {
        if workload.uses_local_memory() && self.campaign.fault_model != FaultModelKind::Control {
            &[Structure::VectorRegisterFile, Structure::LocalMemory]
        } else {
            &[Structure::VectorRegisterFile]
        }
    }
}

/// The FI measurements [`structure_eval`] consumes, shared between the
/// uniform campaign result and the adaptive engine's.
#[derive(Clone, Copy, Default)]
struct FiMeasure {
    avf: f64,
    avf_sdc: f64,
    margin: f64,
    tally: Tally,
}

impl From<&crate::campaign::CampaignResult> for FiMeasure {
    fn from(r: &crate::campaign::CampaignResult) -> Self {
        FiMeasure {
            avf: r.avf(),
            avf_sdc: r.avf_sdc(),
            margin: r.margin_99,
            tally: r.tally,
        }
    }
}

impl From<&crate::sampling::AdaptiveCampaign> for FiMeasure {
    fn from(r: &crate::sampling::AdaptiveCampaign) -> Self {
        FiMeasure {
            avf: r.avf,
            avf_sdc: r.avf_sdc,
            margin: r.margin,
            tally: r.tally,
        }
    }
}

fn structure_eval(fi: Option<&FiMeasure>, rep: StructureReport) -> StructureEval {
    // No FI campaign on the structure: zero FI figures, ACE only.
    let fi = fi.copied().unwrap_or_default();
    StructureEval {
        avf_fi: fi.avf,
        avf_sdc: fi.avf_sdc,
        avf_ace: rep.avf_ace,
        occupancy: rep.occupancy,
        margin_99: fi.margin,
        tally: fi.tally,
    }
}

/// Evaluates one workload on one device: golden run with ACE analysis,
/// then one fault-injection campaign per structure that
/// [`StudyConfig::injected_structures`] names, then the FIT/EIT/EPF
/// roll-up (ACE AVF for a structure without a campaign). Telemetry goes
/// through `hook` (golden/ACE wall time, per-campaign metrics and a
/// `study.point` event closing the point with its total duration);
/// with [`grel_telemetry::NoopHook`] the instrumentation compiles away.
///
/// # Errors
///
/// Propagates a fault-free launch failure (device/workload mismatch).
pub fn evaluate_point_hooked<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    cfg: &StudyConfig,
    hook: &H,
) -> Result<EvalPoint, SimError> {
    let started = H::ENABLED.then(Instant::now);
    // One setup serves the ACE report and every structure's campaign.
    let capture = Capture {
        ace: Some(AceMode::default()),
        ..cfg.mode.capture(&cfg.campaign)
    };
    let campaign = Campaign::new(arch, workload, &cfg.campaign, capture, hook)?;
    let ace = |s| campaign.ace(s).expect("the study setup captures ACE");
    let rf_ace = ace(Structure::VectorRegisterFile);
    let lds_ace = ace(Structure::LocalMemory);
    let srf_avf_ace =
        (arch.srf_words_per_sm() > 0).then(|| ace(Structure::ScalarRegisterFile).avf_ace);
    let golden = campaign.golden();
    let run_structure = |structure: Structure| -> Result<FiMeasure, SimError> {
        match cfg.mode {
            CampaignMode::Uniform => campaign
                .run(structure, cfg.campaign, hook)
                .map(|r| FiMeasure::from(&r)),
            CampaignMode::Traced => campaign
                .run_traced(structure, cfg.campaign, hook)
                .map(|(r, _, _)| FiMeasure::from(&r)),
            CampaignMode::Adaptive(plan) => campaign
                .run_adaptive(structure, cfg.campaign, plan, hook)
                .map(|r| FiMeasure::from(&r)),
        }
    };
    let rf_fi = run_structure(Structure::VectorRegisterFile)?;
    let lds_fi = cfg
        .injected_structures(workload)
        .contains(&Structure::LocalMemory)
        .then(|| run_structure(Structure::LocalMemory))
        .transpose()?;
    let rf = structure_eval(Some(&rf_fi), rf_ace);
    let lds = structure_eval(lds_fi.as_ref(), lds_ace);
    // FIT: FI AVF for the injected structures, ACE for the scalar file
    // (the paper's Fig. 3 folds the studied structures together).
    let lds_avf_for_fit = lds_fi.as_ref().map(|r| r.avf).unwrap_or(lds.avf_ace);
    let fit = FitBreakdown::from_avf(arch, rf.avf_fi, lds_avf_for_fit, srf_avf_ace.unwrap_or(0.0));
    let e = eit(arch, golden.cycles);
    let point = EvalPoint {
        device: arch.name.clone(),
        workload: workload.name().to_string(),
        uses_local_memory: workload.uses_local_memory(),
        cycles: golden.cycles,
        rf,
        lds,
        srf_avf_ace,
        fit,
        eit: e,
        epf: epf(e, fit.total()),
    };
    if let Some(started) = started {
        let seconds = started.elapsed().as_secs_f64();
        hook.observe("study_point_seconds", seconds);
        if H::SPANS {
            hook.span(
                &SpanRecord::new(
                    format!("point:{}@{}", point.workload, point.device),
                    0,
                    0,
                    started,
                )
                .tag("fault_model", cfg.campaign.fault_model.as_str()),
            );
        }
        hook.event(
            &Event::new("study.point")
                .field("workload", point.workload.as_str())
                .field("device", point.device.as_str())
                .field("fault_model", cfg.campaign.fault_model.as_str())
                .field("cycles", point.cycles)
                .field("rf_avf", point.rf.avf_fi)
                .field("lds_avf", point.lds.avf_fi)
                .field("epf", point.epf)
                .field("seconds", seconds),
        );
    }
    Ok(point)
}

/// The assembled study: every (device, workload) point.
#[derive(Debug, Clone, Default)]
pub struct StudyResult {
    /// One entry per (device, workload) pair, workload-major.
    pub points: Vec<EvalPoint>,
}

/// One bar group of Fig. 1 / Fig. 2.
#[derive(Debug, Clone)]
pub struct AvfRow {
    /// Workload name (`average` for the trailing group).
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Fault-injection AVF.
    pub avf_fi: f64,
    /// ACE-analysis AVF.
    pub avf_ace: f64,
    /// Occupancy (the red line).
    pub occupancy: f64,
}

/// One bar of Fig. 3.
#[derive(Debug, Clone)]
pub struct EpfRow {
    /// Workload name.
    pub workload: String,
    /// Device name.
    pub device: String,
    /// Executions in 10⁹ hours.
    pub eit: f64,
    /// Total FIT of the studied structures.
    pub fit_gpu: f64,
    /// Executions per failure.
    pub epf: f64,
}

/// The paper's headline observations, quantified over the study.
#[derive(Debug, Clone)]
pub struct Findings {
    /// Mean of `AVF_ACE − AVF_FI` over the register file (expected
    /// strongly positive: F3, ACE overestimates the RF).
    pub rf_ace_gap: f64,
    /// Mean of `AVF_ACE − AVF_FI` over the local memory (expected small:
    /// F3, ACE is accurate for local memory).
    pub lds_ace_gap: f64,
    /// Pearson correlation of RF AVF (FI) with RF occupancy (F2).
    pub rf_avf_occupancy_corr: f64,
    /// Pearson correlation of LDS AVF (FI) with LDS occupancy (F2).
    pub lds_avf_occupancy_corr: f64,
    /// Min and max RF AVF across all points (F1: strong variation).
    pub rf_avf_range: (f64, f64),
    /// Min and max EPF across all points (F4: orders of magnitude).
    pub epf_range: (f64, f64),
}

impl StudyResult {
    /// Fig. 1 series: register-file AVF (FI + ACE) and occupancy per
    /// (workload, device), plus the per-device `average` group.
    pub fn fig1_rows(&self) -> Vec<AvfRow> {
        let mut rows: Vec<AvfRow> = self
            .points
            .iter()
            .map(|p| AvfRow {
                workload: p.workload.clone(),
                device: p.device.clone(),
                avf_fi: p.rf.avf_fi,
                avf_ace: p.rf.avf_ace,
                occupancy: p.rf.occupancy,
            })
            .collect();
        rows.extend(self.average_rows(|p| (p.rf.avf_fi, p.rf.avf_ace, p.rf.occupancy)));
        rows
    }

    /// Fig. 2 series: local-memory AVF and occupancy for the workloads
    /// that use it, plus per-device averages.
    pub fn fig2_rows(&self) -> Vec<AvfRow> {
        let mut rows: Vec<AvfRow> = self
            .points
            .iter()
            .filter(|p| p.uses_local_memory)
            .map(|p| AvfRow {
                workload: p.workload.clone(),
                device: p.device.clone(),
                avf_fi: p.lds.avf_fi,
                avf_ace: p.lds.avf_ace,
                occupancy: p.lds.occupancy,
            })
            .collect();
        let devices = self.device_order();
        for dev in devices {
            let pts: Vec<&EvalPoint> = self
                .points
                .iter()
                .filter(|p| p.device == dev && p.uses_local_memory)
                .collect();
            if pts.is_empty() {
                continue;
            }
            let n = pts.len() as f64;
            rows.push(AvfRow {
                workload: "average".into(),
                device: dev,
                avf_fi: pts.iter().map(|p| p.lds.avf_fi).sum::<f64>() / n,
                avf_ace: pts.iter().map(|p| p.lds.avf_ace).sum::<f64>() / n,
                occupancy: pts.iter().map(|p| p.lds.occupancy).sum::<f64>() / n,
            });
        }
        rows
    }

    /// Fig. 3 series: EPF per (workload, device).
    pub fn fig3_rows(&self) -> Vec<EpfRow> {
        self.points
            .iter()
            .map(|p| EpfRow {
                workload: p.workload.clone(),
                device: p.device.clone(),
                eit: p.eit,
                fit_gpu: p.fit.total(),
                epf: p.epf,
            })
            .collect()
    }

    fn device_order(&self) -> Vec<String> {
        let mut devices = Vec::new();
        for p in &self.points {
            if !devices.contains(&p.device) {
                devices.push(p.device.clone());
            }
        }
        devices
    }

    fn average_rows(&self, f: impl Fn(&EvalPoint) -> (f64, f64, f64)) -> Vec<AvfRow> {
        self.device_order()
            .into_iter()
            .filter_map(|dev| {
                let pts: Vec<&EvalPoint> = self.points.iter().filter(|p| p.device == dev).collect();
                if pts.is_empty() {
                    return None;
                }
                let n = pts.len() as f64;
                let (mut fi, mut ace, mut occ) = (0.0, 0.0, 0.0);
                for p in &pts {
                    let (a, b, c) = f(p);
                    fi += a;
                    ace += b;
                    occ += c;
                }
                Some(AvfRow {
                    workload: "average".into(),
                    device: dev,
                    avf_fi: fi / n,
                    avf_ace: ace / n,
                    occupancy: occ / n,
                })
            })
            .collect()
    }

    /// Quantifies the paper's four findings over the collected points.
    pub fn findings(&self) -> Findings {
        let n = self.points.len().max(1) as f64;
        let rf_ace_gap = self
            .points
            .iter()
            .map(|p| p.rf.avf_ace - p.rf.avf_fi)
            .sum::<f64>()
            / n;
        let lds_pts: Vec<&EvalPoint> = self.points.iter().filter(|p| p.uses_local_memory).collect();
        let lds_n = lds_pts.len().max(1) as f64;
        let lds_ace_gap = lds_pts
            .iter()
            .map(|p| p.lds.avf_ace - p.lds.avf_fi)
            .sum::<f64>()
            / lds_n;
        let rf_avf: Vec<f64> = self.points.iter().map(|p| p.rf.avf_fi).collect();
        let rf_occ: Vec<f64> = self.points.iter().map(|p| p.rf.occupancy).collect();
        let lds_avf: Vec<f64> = lds_pts.iter().map(|p| p.lds.avf_fi).collect();
        let lds_occ: Vec<f64> = lds_pts.iter().map(|p| p.lds.occupancy).collect();
        let epfs: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.epf)
            .filter(|e| e.is_finite())
            .collect();
        Findings {
            rf_ace_gap,
            lds_ace_gap,
            rf_avf_occupancy_corr: pearson(&rf_avf, &rf_occ),
            lds_avf_occupancy_corr: pearson(&lds_avf, &lds_occ),
            rf_avf_range: minmax(&rf_avf),
            epf_range: minmax(&epfs),
        }
    }
}

fn minmax(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if v.is_empty() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Runs the study over the given devices and workloads (workload-major
/// order, matching the paper's figure layout), with the (device,
/// workload) points spread across a scoped pool of `jobs` workers
/// instead of parallelising inside each campaign.
///
/// Point-level parallelism beats replay-level parallelism once the study
/// has more than one point: the golden run, the ACE pass and the ladder
/// build — all serial within one point — then overlap across points too.
/// The pool is `min(jobs, points)` workers wide; each worker takes the
/// next unclaimed point index from a shared cursor, so a worker that
/// drew a heavy point does not hold a queue of further points behind
/// it. Each point's campaigns get `jobs / workers` threads, so total
/// parallelism stays at `jobs` (a study with fewer points than jobs
/// still uses the spare cores inside its campaigns). A single-point
/// study (or `jobs == 1`) runs its points serially on the calling
/// thread with the campaign thread count of `cfg` untouched. Results
/// land in slots by point index, so the assembled result keeps the
/// workload-major point order; campaign results are thread-count
/// invariant, so the study result is bit-identical at any `jobs`.
///
/// Every golden run, ladder build, campaign and study point reports its
/// metrics and events through `hook`. The hook is shared across point
/// workers; the metrics registry keeps integer sums under one lock, so
/// harvested totals match the sequential run. Events
/// of concurrent points interleave in completion order.
///
/// # Errors
///
/// Propagates the failure of the lowest-index failing point: the error
/// a sequential run would report first.
pub fn run_study_parallel_hooked<H: TelemetryHook>(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    jobs: usize,
    hook: &H,
) -> Result<StudyResult, SimError> {
    let n = workloads.len() * archs.len();
    let jobs = jobs.max(1);
    let workers = jobs.min(n.max(1));
    // The pool is `workers` wide; the rest of the job budget goes inside
    // each point's campaigns, whose results do not depend on their
    // internal thread count.
    let mut point_cfg = *cfg;
    if workers > 1 {
        point_cfg.campaign.threads = jobs / workers;
    }
    let point_cfg = &point_cfg;
    // Relaxed: the cursor only hands out indices; results come back
    // through the fan-out.
    let cursor = AtomicUsize::new(0);
    let per_worker = fan_out(workers, |_| {
        let mut done = Vec::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                break done;
            }
            let workload = workloads[idx / archs.len()].as_ref();
            let arch = &archs[idx % archs.len()];
            let point = evaluate_point_hooked(arch, workload, point_cfg, hook);
            let failed = point.is_err();
            done.push((idx, point));
            if failed {
                break done;
            }
        }
    });
    let mut slots: Vec<Option<Result<EvalPoint, SimError>>> = (0..n).map(|_| None).collect();
    for (idx, r) in per_worker.into_iter().flatten() {
        slots[idx] = Some(r);
    }
    // A worker stops at its first failing point. Every index below a
    // failing one was already claimed and finished, so walking the slots
    // in order meets the lowest-index error before any unclaimed slot.
    let mut points = Vec::with_capacity(n);
    for slot in slots {
        points.push(slot.expect("only points after a failure go unclaimed")?);
    }
    Ok(StudyResult { points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use gpu_archs::{geforce_gtx_480, quadro_fx_5600, quadro_fx_5800};
    use gpu_workloads::{Reduction, Transpose, VectorAdd};
    use grel_telemetry::NoopHook;

    fn tiny_cfg() -> StudyConfig {
        StudyConfig {
            campaign: CampaignConfig {
                injections: 8,
                threads: 2,
                ..CampaignConfig::quick(5)
            },
            mode: CampaignMode::Uniform,
        }
    }

    #[test]
    fn evaluate_point_populates_everything() {
        let arch = quadro_fx_5600();
        let w = Transpose::new(32, 5);
        let p = evaluate_point_hooked(&arch, &w, &tiny_cfg(), &NoopHook).unwrap();
        assert_eq!(p.device, "Quadro FX 5600");
        assert_eq!(p.workload, "transpose");
        assert!(p.uses_local_memory);
        assert!(p.cycles > 0);
        assert_eq!(p.rf.tally.total(), 8);
        assert_eq!(p.lds.tally.total(), 8, "LDS workload gets LDS injections");
        assert!(p.rf.occupancy > 0.0);
        assert!(p.eit > 0.0);
        assert!(p.epf > 0.0);
        assert!(p.srf_avf_ace.is_none(), "no scalar file on G80");
    }

    #[test]
    fn non_lds_workload_skips_lds_campaign() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 5);
        let p = evaluate_point_hooked(&arch, &w, &tiny_cfg(), &NoopHook).unwrap();
        assert_eq!(p.lds.tally.total(), 0);
        assert_eq!(p.lds.avf_fi, 0.0);
        assert_eq!(p.lds.occupancy, 0.0, "vectoradd allocates no LDS");
    }

    #[test]
    fn control_point_runs_one_campaign() {
        let arch = geforce_gtx_480();
        let w = Reduction::new(256, 32, 5);
        let mut cfg = tiny_cfg();
        cfg.campaign.fault_model = FaultModelKind::Control;
        let p = evaluate_point_hooked(&arch, &w, &cfg, &NoopHook).unwrap();
        assert!(p.uses_local_memory);
        assert_eq!(p.lds.tally.total(), 0, "no LDS-labelled control campaign");
        assert_eq!(p.lds.avf_fi, 0.0);
        let capture = Capture::campaign(&cfg.campaign);
        let rf = Campaign::new(&arch, &w, &cfg.campaign, capture, &NoopHook)
            .and_then(|c| c.run(Structure::VectorRegisterFile, cfg.campaign, &NoopHook))
            .unwrap();
        assert_eq!(p.rf.tally, rf.tally);
        assert_eq!(rf.tally.total(), 8);
    }

    #[test]
    fn figures_assemble() {
        let archs = vec![quadro_fx_5600(), quadro_fx_5800()];
        let workloads: Vec<Box<dyn gpu_workloads::Workload>> = vec![
            Box::new(VectorAdd::new(256, 5)),
            Box::new(Transpose::new(32, 5)),
        ];
        let study =
            run_study_parallel_hooked(&archs, &workloads, &tiny_cfg(), 1, &NoopHook).unwrap();
        assert_eq!(study.points.len(), 4);

        let fig1 = study.fig1_rows();
        // 2 workloads × 2 devices + 2 averages.
        assert_eq!(fig1.len(), 6);
        assert_eq!(fig1.iter().filter(|r| r.workload == "average").count(), 2);

        let fig2 = study.fig2_rows();
        // Only transpose uses LDS: 2 rows + 2 averages.
        assert_eq!(fig2.len(), 4);

        let fig3 = study.fig3_rows();
        assert_eq!(fig3.len(), 4);
        assert!(fig3.iter().all(|r| r.epf > 0.0));

        let f = study.findings();
        assert!(f.rf_avf_range.0 <= f.rf_avf_range.1);
        assert!(f.epf_range.0 <= f.epf_range.1);
    }

    #[test]
    fn parallel_study_is_bit_identical_to_sequential() {
        let archs = vec![quadro_fx_5600(), quadro_fx_5800()];
        let workloads: Vec<Box<dyn gpu_workloads::Workload>> = vec![
            Box::new(VectorAdd::new(256, 5)),
            Box::new(Transpose::new(32, 5)),
        ];
        let cfg = tiny_cfg();
        let seq = run_study_parallel_hooked(&archs, &workloads, &cfg, 1, &NoopHook).unwrap();
        for jobs in [1, 2, 8] {
            let par = run_study_parallel_hooked(&archs, &workloads, &cfg, jobs, &NoopHook).unwrap();
            assert_eq!(par.points.len(), seq.points.len());
            for (a, b) in seq.points.iter().zip(&par.points) {
                assert_eq!(a.device, b.device, "jobs = {jobs}: point order");
                assert_eq!(a.workload, b.workload, "jobs = {jobs}: point order");
                assert_eq!(a.rf.tally, b.rf.tally, "jobs = {jobs}");
                assert_eq!(a.lds.tally, b.lds.tally, "jobs = {jobs}");
                assert_eq!(a.rf.avf_fi.to_bits(), b.rf.avf_fi.to_bits());
                assert_eq!(a.epf.to_bits(), b.epf.to_bits());
            }
        }
    }

    fn assert_same_study(seq: &StudyResult, par: &StudyResult, what: &str) {
        assert_eq!(par.points.len(), seq.points.len(), "{what}: point count");
        for (a, b) in seq.points.iter().zip(&par.points) {
            assert_eq!(
                (&a.workload, &a.device),
                (&b.workload, &b.device),
                "{what}: point order"
            );
            assert_eq!(a.cycles, b.cycles, "{what}");
            for (x, y) in [(&a.rf, &b.rf), (&a.lds, &b.lds)] {
                assert_eq!(x.tally, y.tally, "{what}");
                assert_eq!(x.avf_fi.to_bits(), y.avf_fi.to_bits(), "{what}");
                assert_eq!(x.avf_ace.to_bits(), y.avf_ace.to_bits(), "{what}");
                assert_eq!(x.margin_99.to_bits(), y.margin_99.to_bits(), "{what}");
            }
            assert_eq!(a.epf.to_bits(), b.epf.to_bits(), "{what}");
        }
    }

    #[test]
    fn cursor_handles_uneven_point_counts() {
        // Three points never divide evenly over two workers, and at
        // eight jobs the pool shrinks to three workers of two threads.
        let archs = vec![quadro_fx_5600(), quadro_fx_5800(), geforce_gtx_480()];
        let workloads: Vec<Box<dyn gpu_workloads::Workload>> =
            vec![Box::new(Transpose::new(32, 5))];
        let cfg = tiny_cfg();
        let seq = run_study_parallel_hooked(&archs, &workloads, &cfg, 1, &NoopHook).unwrap();
        for jobs in [2, 3, 8] {
            let par = run_study_parallel_hooked(&archs, &workloads, &cfg, jobs, &NoopHook).unwrap();
            assert_same_study(&seq, &par, &format!("jobs = {jobs}"));
        }
    }

    #[test]
    fn fewer_points_than_jobs_split_threads_inside_points() {
        let cfg = tiny_cfg();
        let workloads: Vec<Box<dyn gpu_workloads::Workload>> =
            vec![Box::new(VectorAdd::new(256, 5))];
        // Two points at five jobs: two workers with two campaign threads
        // each; one point at four jobs: the serial path.
        for archs in [
            vec![quadro_fx_5600(), geforce_gtx_480()],
            vec![quadro_fx_5800()],
        ] {
            let seq = run_study_parallel_hooked(&archs, &workloads, &cfg, 1, &NoopHook).unwrap();
            for jobs in [4, 5] {
                let par =
                    run_study_parallel_hooked(&archs, &workloads, &cfg, jobs, &NoopHook).unwrap();
                assert_same_study(
                    &seq,
                    &par,
                    &format!("{} points, jobs = {jobs}", archs.len()),
                );
            }
        }
    }

    #[test]
    fn minmax_handles_empty() {
        assert_eq!(minmax(&[]), (0.0, 0.0));
        assert_eq!(minmax(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}
