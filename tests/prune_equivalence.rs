//! The lifetime-oracle fast path must only skip work, never change it.
//! Campaign and study results with pruning and early-exit on have to be
//! bit-identical to full replay at any worker count, and on a hand-built
//! kernel with a known dataflow the oracle's live-interval map must agree
//! **exactly** with the refined ([`AceMode::WriteToLastRead`]) ACE count
//! — the two are independent implementations of the same lifetime rule.

use gpu_archs::geforce_gtx_480;
use gpu_workloads::{Histogram, Transpose, VectorAdd, Workload};
use grel_core::ace::{AceAnalyzer, AceMode, LifetimeOracle};
use grel_core::campaign::{Campaign, CampaignConfig, CampaignResult, Capture};
use grel_core::study::{run_study_parallel_hooked, StudyConfig};
use grel_telemetry::{MetricsRegistry, NoopHook, RegistryHook};
use simt_isa::{KernelBuilder, MemSpace};
use simt_sim::{Buffer, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError, Structure};

/// Field-by-field equality, floats compared bit-for-bit.
fn assert_identical(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.structure, b.structure, "{label}");
    assert_eq!(a.tally, b.tally, "{label}");
    assert_eq!(a.golden_cycles, b.golden_cycles, "{label}");
    assert_eq!(a.population, b.population, "{label}");
    assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits(), "{label}");
    assert_eq!(a.avf().to_bits(), b.avf().to_bits(), "{label}");
}

fn cfg(injections: u32, prune: bool, early_exit: bool) -> CampaignConfig {
    let mut c = CampaignConfig::quick(9);
    c.injections = injections;
    c.threads = 1;
    c.prune = prune;
    c.early_exit = early_exit;
    c
}

/// One structure's campaign four ways — full replay, early-exit only,
/// pruned, each at jobs 1/2/8 — all bit-identical to the jobs-1 full
/// replay.
fn check_campaign_equivalence(workload: &dyn Workload, structure: Structure, injections: u32) {
    let arch = geforce_gtx_480();
    let mut c = cfg(injections, false, false);
    c.threads = 1;
    let full = Campaign::new(&arch, workload, &c, Capture::campaign(&c), &NoopHook)
        .and_then(|setup| setup.run(structure, c, &NoopHook))
        .unwrap();
    for jobs in [1usize, 2, 8] {
        for (prune, early_exit, label) in [
            (false, false, "full replay"),
            (false, true, "early-exit only"),
            (true, true, "pruned"),
        ] {
            let mut c = cfg(injections, prune, early_exit);
            c.threads = jobs;
            let run = Campaign::new(&arch, workload, &c, Capture::campaign(&c), &NoopHook)
                .and_then(|setup| setup.run(structure, c, &NoopHook))
                .unwrap();
            assert_identical(
                &full,
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
fn rf_campaigns_are_prune_invariant_and_job_invariant() {
    check_campaign_equivalence(&VectorAdd::new(1024, 9), Structure::VectorRegisterFile, 24);
    check_campaign_equivalence(
        &Histogram::new(1024, 64, 5),
        Structure::VectorRegisterFile,
        16,
    );
}

#[test]
fn lds_campaigns_are_prune_invariant_and_job_invariant() {
    check_campaign_equivalence(&Histogram::new(1024, 64, 5), Structure::LocalMemory, 16);
    check_campaign_equivalence(&Transpose::new(32, 5), Structure::LocalMemory, 12);
}

#[test]
fn study_tallies_are_prune_invariant_at_jobs_1_2_8() {
    let archs = vec![geforce_gtx_480()];
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(VectorAdd::new(512, 13)),
        Box::new(Histogram::new(512, 32, 13)),
    ];
    let study_cfg = |prune: bool| StudyConfig {
        campaign: cfg(8, prune, prune),
        mode: Default::default(),
    };
    let full =
        run_study_parallel_hooked(&archs, &workloads, &study_cfg(false), 1, &NoopHook).unwrap();
    for jobs in [1usize, 2, 8] {
        let pruned =
            run_study_parallel_hooked(&archs, &workloads, &study_cfg(true), jobs, &NoopHook)
                .unwrap();
        assert_eq!(full.points.len(), pruned.points.len());
        for (a, b) in full.points.iter().zip(&pruned.points) {
            assert_eq!(a.workload, b.workload, "jobs = {jobs}");
            assert_eq!(a.device, b.device, "jobs = {jobs}");
            assert_eq!(a.rf.tally, b.rf.tally, "jobs = {jobs}");
            assert_eq!(a.lds.tally, b.lds.tally, "jobs = {jobs}");
            assert_eq!(a.rf.avf_fi.to_bits(), b.rf.avf_fi.to_bits());
            assert_eq!(a.rf.avf_ace.to_bits(), b.rf.avf_ace.to_bits());
            assert_eq!(a.lds.avf_fi.to_bits(), b.lds.avf_fi.to_bits());
            assert_eq!(a.epf.to_bits(), b.epf.to_bits());
        }
    }
}

/// The fast path must actually fire: on a low-AVF workload most sampled
/// RF sites fall outside any live interval, so a hooked pruned campaign
/// records a substantial `campaign_pruned_total` — and the same campaign
/// with pruning off replays everything and records none.
#[test]
fn pruning_fires_on_a_low_avf_workload() {
    let arch = geforce_gtx_480();
    let w = VectorAdd::new(1024, 9);
    let reg = MetricsRegistry::new();
    let hook = RegistryHook::new(&reg);
    let mut c = cfg(32, true, true);
    c.threads = 2;
    let pruned = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &hook)
        .and_then(|setup| setup.run(Structure::VectorRegisterFile, c, &hook))
        .unwrap();
    let snap = reg.snapshot();
    let pruned_count = snap.counter("campaign_pruned_total").unwrap_or(0);
    assert!(pruned_count > 0, "oracle pruned nothing on vectoradd RF");
    assert!(
        pruned_count <= pruned.tally.masked,
        "every pruned site is a masked outcome"
    );
    // Pruned sites still produce the full per-injection telemetry.
    let by_outcome: u64 = snap
        .counters()
        .filter(|(n, _)| n.starts_with("campaign_injections_total{outcome="))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(by_outcome, 32, "every sampled site lands in one outcome");
    assert_eq!(
        snap.counter("campaign_rung_hits_total{rung=\"pruned\"}")
            .unwrap_or(0),
        pruned_count,
        "pruned sites hit the synthetic 'pruned' rung"
    );
}

// ---------------------------------------------------------------------
// Hand-built kernel with a provable dataflow: oracle vs refined ACE.
// ---------------------------------------------------------------------

/// One thread, one launch (same shape as the provenance probe):
///
/// ```text
/// dead  = 7            // written, never read again
/// live  = 5            // written …
/// pad0..pad3 = k       // four filler writes to open a cycle gap
/// addr  = out
/// [out] = live         // … read here, several cycles later
/// ```
#[derive(Debug, Clone)]
struct Probe;

impl Probe {
    fn kernel(&self) -> simt_isa::Kernel {
        let mut kb = KernelBuilder::new("probe", 1);
        let out = kb.param(0);
        let dead = kb.vreg();
        let live = kb.vreg();
        let addr = kb.vreg();
        kb.mov(dead, 7u32);
        kb.mov(live, 5u32);
        for i in 0..4u32 {
            let pad = kb.vreg();
            kb.mov(pad, 100 + i);
        }
        kb.mov(addr, out);
        kb.st(MemSpace::Global, addr, live);
        kb.exit();
        kb.build().expect("probe kernel is valid")
    }
}

#[derive(Clone)]
struct ProbePlan {
    w: Probe,
    stage: u32,
    out: Option<Buffer>,
}

impl LaunchPlan for ProbePlan {
    fn next(&mut self, gpu: &mut Gpu) -> Result<PlanStep, SimError> {
        self.stage += 1;
        match self.stage {
            1 => {
                let kernel = simt_isa::lower(&self.w.kernel(), gpu.arch().caps()).map_err(|e| {
                    SimError::LaunchConfig {
                        reason: e.to_string(),
                    }
                })?;
                let out = gpu.alloc_words(1);
                self.out = Some(out);
                Ok(PlanStep::Launch {
                    kernel,
                    cfg: LaunchConfig::linear(1, 1),
                    params: vec![out.addr()],
                })
            }
            _ => Ok(PlanStep::Done(
                gpu.read_words(self.out.expect("launched"), 1),
            )),
        }
    }

    fn clone_plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(self.clone())
    }
}

impl Workload for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn uses_local_memory(&self) -> bool {
        false
    }
    fn plan(&self) -> Box<dyn LaunchPlan> {
        Box::new(ProbePlan {
            w: self.clone(),
            stage: 0,
            out: None,
        })
    }
    fn reference(&self) -> Vec<u32> {
        vec![5]
    }
}

/// The oracle's interval map and the refined ACE tracker implement the
/// same write→last-read lifetime rule independently — one as per-word
/// intervals for O(log n) membership tests, one as a running bit-cycle
/// sum. On the probe kernel the two must agree **exactly**, both in raw
/// bit-cycles and in the derived AVF.
#[test]
fn refined_ace_equals_oracle_live_fraction_on_the_probe_kernel() {
    let arch = geforce_gtx_480();
    let probe = Probe;

    // One golden run drives both observers at once, exactly like the
    // study's capture path.
    let mut gpu = Gpu::new(arch.clone());
    let mut ace = AceAnalyzer::with_mode(&arch, AceMode::WriteToLastRead);
    let mut oracle = LifetimeOracle::new(&arch);
    let out = probe.run(&mut gpu, &mut (&mut ace, &mut oracle)).unwrap();
    assert_eq!(out, probe.reference());
    let cycles = gpu.app_cycle();
    assert!(cycles > 0);

    for s in [Structure::VectorRegisterFile, Structure::LocalMemory] {
        let report = ace.report(s);
        let live = oracle.live_bit_cycles(s);
        assert_eq!(
            report.ace_bit_cycles, live,
            "{s}: refined ACE bit-cycles vs oracle live bit-cycles"
        );
        let denom = (report.total_bits as f64) * (cycles as f64);
        let oracle_avf = if denom > 0.0 {
            live as f64 / denom
        } else {
            0.0
        };
        assert_eq!(
            report.avf_ace.to_bits(),
            oracle_avf.to_bits(),
            "{s}: refined ACE AVF vs oracle live fraction"
        );
    }
    // The probe's RF genuinely has live state, so the equality above is
    // not vacuous.
    assert!(oracle.live_bit_cycles(Structure::VectorRegisterFile) > 0);
    // And the dead register's post-write window really is prunable: every
    // live interval the oracle kept ends at a read, so at least one
    // sampled cycle of the probe's short run must be dead for some word.
    let dead_somewhere = (0..arch.rf_words_per_sm()).any(|word| {
        (0..cycles).any(|cycle| {
            oracle.is_dead(simt_sim::FaultSite::new(
                Structure::VectorRegisterFile,
                0,
                word,
                0,
                cycle,
            ))
        })
    });
    assert!(dead_somewhere, "probe kernel has a prunable RF site");
}

/// The lifetime oracle's "dead" verdict is only sound for transient
/// flips: a dead window means the word is overwritten before its next
/// read, which erases a one-shot flip but *not* a stuck-at fault — the
/// stuck cell re-asserts on that very overwrite. This test pins both
/// halves of the kind gate. First, `is_dead` must refuse the stuck-at
/// twin of every oracle-dead transient site (the gate). Second, at
/// least one of those twins must replay to a real failure — proving a
/// campaign that pruned stuck-at sites through the oracle would
/// silently misclassify SDCs as masked, i.e. the gate is load-bearing,
/// not defensive.
#[test]
fn oracle_pruning_would_be_unsound_for_stuck_at_faults() {
    use grel_core::campaign::Outcome;
    use simt_sim::{FaultKind, FaultSite};

    let arch = geforce_gtx_480();
    let probe = Probe;
    let mut gpu = Gpu::new(arch.clone());
    let mut oracle = LifetimeOracle::new(&arch);
    let out = probe.run(&mut gpu, &mut oracle).unwrap();
    assert_eq!(out, probe.reference());
    let cycles = gpu.app_cycle();

    // Every oracle-dead transient site on a word the kernel actually
    // uses: words that are dead at *every* cycle were never allocated
    // (a stuck-at there is trivially masked too), so only words with
    // some live window are interesting. The probe's handful of vregs
    // spread one word per lane, so scan the first 16 vregs' worth. Bit
    // 1 is chosen so a stuck-at-1 twin visibly corrupts the stored
    // value: `live` holds 5 = 0b101, and 5 | 0b010 = 7.
    let mut dead_sites = Vec::new();
    for word in 0..(16 * arch.warp_size) {
        let dead_at: Vec<u64> = (0..cycles)
            .filter(|&cycle| {
                oracle.is_dead(FaultSite::new(
                    Structure::VectorRegisterFile,
                    0,
                    word,
                    1,
                    cycle,
                ))
            })
            .collect();
        if dead_at.len() == cycles as usize {
            continue; // never-allocated word
        }
        for cycle in dead_at {
            let site = FaultSite::new(Structure::VectorRegisterFile, 0, word, 1, cycle);
            // The gate: the stuck-at twin of a dead transient site must
            // never be prunable.
            assert!(
                !oracle.is_dead(site.with_kind(FaultKind::StuckAt1)),
                "oracle pruned a stuck-at site at word {word} cycle {cycle}"
            );
            dead_sites.push(site);
        }
    }
    assert!(!dead_sites.is_empty(), "probe kernel has dead RF windows");

    // Ground truth: replay the stuck-at-1 twin of each dead site. If
    // the oracle's verdict were applied to stuck-at campaigns, all of
    // these would be pre-classified masked without replay — but at
    // least one (a pre-write window of the stored register) is a real
    // SDC.
    let stuck_twins: Vec<FaultSite> = dead_sites
        .iter()
        .map(|s| s.with_kind(FaultKind::StuckAt1))
        .collect();
    let mut c = cfg(stuck_twins.len() as u32, false, false);
    c.checkpoint_budget_bytes = 1;
    let outcomes = Campaign::new(&arch, &probe, &c, Capture::default(), &NoopHook)
        .and_then(|setup| setup.replay(&stuck_twins, c, &NoopHook))
        .unwrap();
    assert!(
        outcomes.iter().any(|o| *o != Outcome::Masked),
        "every stuck-at twin of an oracle-dead site replayed masked — \
         pruning stuck-at campaigns would be sound, gate test is vacuous: {outcomes:?}"
    );
}
