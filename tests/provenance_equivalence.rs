//! The flight recorder must only observe. Campaign outcomes with
//! provenance tracing enabled have to be bit-identical to the
//! [`simt_sim::NoopObserver`] path at any worker count, and on a
//! hand-built kernel with a known dataflow the recorded masking reasons
//! and first-read latencies must match what the program text dictates.

use gpu_archs::geforce_gtx_480;
use gpu_workloads::{Histogram, VectorAdd, Workload};
use grel_core::campaign::{Campaign, CampaignConfig, CampaignResult, Capture};
use grel_core::provenance::{trace_one, MaskingReason};
use grel_telemetry::NoopHook;
use simt_isa::{KernelBuilder, MemSpace};
use simt_sim::{
    Buffer, FaultSite, Gpu, LaunchConfig, LaunchPlan, PlanStep, SimError, SimObserver, Structure,
};

fn assert_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.structure, b.structure);
    assert_eq!(a.tally, b.tally);
    assert_eq!(a.golden_cycles, b.golden_cycles);
    assert_eq!(a.margin_99.to_bits(), b.margin_99.to_bits());
}

/// Runs one structure's campaign three ways — untraced, traced at one
/// worker, traced at eight — and checks the traced paths change nothing
/// and agree with each other record-for-record.
fn check_equivalence(workload: &dyn Workload, structure: Structure, injections: u32) {
    let arch = geforce_gtx_480();
    let mut cfg = CampaignConfig::quick(9);
    cfg.injections = injections;
    cfg.threads = 1;
    let capture = Capture {
        writes: true,
        ..Capture::campaign(&cfg)
    };
    let setup = Campaign::new(&arch, workload, &cfg, capture, &NoopHook).unwrap();

    let baseline = setup.run(structure, cfg, &NoopHook).unwrap();
    let (traced1, recs1, agg1) = setup.run_traced(structure, cfg, &NoopHook).unwrap();
    let mut cfg8 = cfg;
    cfg8.threads = 8;
    let (traced8, recs8, agg8) = setup.run_traced(structure, cfg8, &NoopHook).unwrap();

    // Observing changes nothing: tallies, margins and cycle counts are
    // bit-identical to the NoopObserver path.
    assert_identical(&baseline, &traced1);
    assert_identical(&baseline, &traced8);
    // And the recorder itself is deterministic across worker counts.
    assert_eq!(recs1, recs8);
    assert_eq!(agg1, agg8);
    assert_eq!(recs1.len(), injections as usize);
    // Every record pairs with its outcome: masked runs carry a masking
    // reason, SDC/DUE runs never do.
    for p in &recs1 {
        assert_eq!(
            p.masking.is_some(),
            p.outcome == grel_core::campaign::Outcome::Masked,
            "{p:?}"
        );
    }
}

#[test]
fn rf_campaign_with_provenance_is_bit_identical_and_job_invariant() {
    check_equivalence(&VectorAdd::new(1024, 9), Structure::VectorRegisterFile, 24);
}

#[test]
fn lds_campaign_with_provenance_is_bit_identical_and_job_invariant() {
    check_equivalence(&Histogram::new(1024, 64, 5), Structure::LocalMemory, 12);
}

// ---------------------------------------------------------------------
// Hand-built kernel with a provable dataflow.
// ---------------------------------------------------------------------

/// One thread, one launch:
///
/// ```text
/// dead  = 7            // written, never read again
/// live  = 5            // written …
/// pad0..pad3 = k       // four filler writes to open a cycle gap
/// addr  = out
/// [out] = live         // … read here, several cycles later
/// ```
///
/// A flip landed in `dead`'s physical word after its write must be
/// masked as never-read; a flip landed in `live`'s word inside the
/// write→read window must be seen (finite first-read latency).
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

/// Records every vector-register access so the test can map the probe's
/// virtual registers to physical RF words empirically.
#[derive(Default)]
struct RfLog {
    writes: Vec<(u32, u64)>,
    reads: Vec<(u32, u64)>,
}

impl SimObserver for RfLog {
    fn on_write(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if sm == 0 && structure == Structure::VectorRegisterFile {
            self.writes.push((word, cycle));
        }
    }
    fn on_read(&mut self, sm: u32, structure: Structure, word: u32, cycle: u64) {
        if sm == 0 && structure == Structure::VectorRegisterFile {
            self.reads.push((word, cycle));
        }
    }
}

fn rf_site(word: u32, bit: u8, cycle: u64) -> FaultSite {
    FaultSite::new(Structure::VectorRegisterFile, 0, word, bit, cycle)
}

#[test]
fn flight_recorder_matches_known_dataflow() {
    let arch = geforce_gtx_480();
    let probe = Probe;

    // Fault-free pass with the access log on: find each word's write
    // cycle and (optional) first read cycle.
    let mut gpu = Gpu::new(arch.clone());
    let mut log = RfLog::default();
    let out = probe.run(&mut gpu, &mut log).unwrap();
    assert_eq!(out, probe.reference());

    let first_read_after = |word: u32, cycle: u64| {
        log.reads
            .iter()
            .filter(|(w, c)| *w == word && *c > cycle)
            .map(|(_, c)| *c)
            .min()
    };

    // A word written exactly once and never read afterwards — the
    // physical home of `dead` or one of the pads.
    let (dead_word, dead_write) = *log
        .writes
        .iter()
        .find(|(w, c)| {
            first_read_after(*w, *c).is_none()
                && log.writes.iter().filter(|(w2, _)| w2 == w).count() == 1
        })
        .expect("probe kernel has a written-then-never-read register");

    // The words whose first read comes at least two cycles after a
    // write: the physical homes of `live` and `addr` (both feed the
    // store), plus any dispatch-time thread inputs the store path
    // consumes. Every one of them is a read-before-overwrite site.
    let gapped: Vec<(u32, u64, u64)> = log
        .writes
        .iter()
        .filter_map(|(w, c)| first_read_after(*w, *c).map(|r| (*w, *c, r)))
        .filter(|(_, c, r)| *r >= c + 2)
        .collect();
    assert!(
        !gapped.is_empty(),
        "probe kernel has a write-then-read register with a cycle gap"
    );

    // Flip a never-read word after its write: masked, reason never-read,
    // no first read, no divergence.
    let trace = trace_one(&arch, &probe, rf_site(dead_word, 3, dead_write + 1), 10).unwrap();
    assert_eq!(
        trace.provenance.outcome,
        grel_core::campaign::Outcome::Masked,
        "{trace:?}"
    );
    assert_eq!(
        trace.provenance.masking,
        Some(MaskingReason::NeverRead),
        "{trace:?}"
    );
    assert_eq!(trace.provenance.first_read_latency, None, "{trace:?}");
    assert_eq!(trace.provenance.cycles_to_divergence, None, "{trace:?}");
    let narrative = trace.narrative();
    assert!(narrative.contains("never"), "{narrative}");

    // Flip each gapped word inside its write→read window: the corrupted
    // value is architecturally read before being overwritten, so every
    // latency is finite and equals the distance to the recorded read.
    let mut outcomes = Vec::new();
    for (word, write, read) in gapped {
        let inject_at = write + 1;
        let trace = trace_one(&arch, &probe, rf_site(word, 1, inject_at), 10).unwrap();
        assert_eq!(
            trace.provenance.first_read_latency,
            Some(read - inject_at),
            "{trace:?}"
        );
        assert_ne!(
            trace.provenance.masking,
            Some(MaskingReason::NeverRead),
            "{trace:?}"
        );
        outcomes.push(trace.provenance.outcome);
    }
    // One of those homes holds the stored constant: bit 1 flips the
    // output word 5 -> 7, a silent data corruption. (A flip in the
    // address register instead raises a DUE — also read, also unmasked.)
    assert!(
        outcomes.contains(&grel_core::campaign::Outcome::Sdc),
        "{outcomes:?}"
    );
}
