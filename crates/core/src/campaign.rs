//! Statistical fault-injection campaigns.
//!
//! A campaign measures the AVF of one storage structure for one workload
//! on one device, GUFI/SIFI style:
//!
//! 1. run the workload fault-free to capture the **golden** output and the
//!    total cycle count;
//! 2. draw `n` fault sites uniformly at random over
//!    `(SM, word, bit, cycle)`;
//! 3. replay the workload once per site with the single bit flip armed;
//! 4. classify each run as **masked** (output identical), **SDC** (silent
//!    data corruption: output differs) or **DUE** (detected unrecoverable
//!    error: bad access, divergent barrier or watchdog timeout);
//! 5. report `AVF = (SDC + DUE) / n` with its statistical margin.
//!
//! Replays are embarrassingly parallel; [`Campaign::run`] fans them out
//! over a scoped worker pool (`cfg.threads` wide) with fully
//! deterministic results: outcomes are merged back in site order, so the
//! campaign is bit-identical to a sequential run at any job count. The
//! pool lives in [`crate::runner`], which documents the contract.
//!
//! Every replay resumes from a checkpoint: the golden run leaves behind
//! a ladder ([`CheckpointLadder`]) holding the run's start and its
//! mid-execution snapshots, and each injection resumes from the nearest
//! one at or before its fault cycle (the start, for a fault before the
//! first rung). The prefix it skips is fault-free and therefore
//! bit-identical to the golden execution, so checkpointed replay produces
//! exactly the same outcome sequence as from-zero replay — only faster.
//!
//! The golden run, the ladder and the optional analyses (ACE, lifetime
//! oracle, golden store log) form one per-point setup, [`Campaign`],
//! built once and shared by every campaign run against it.

use crate::ace::{AceAnalyzer, AceMode, LifetimeOracle, StructureReport};
use crate::runner::{Arming, Replayed};
use crate::space::SiteSpace;
use crate::stats::{error_margin, Proportion, Z_99};
use gpu_workloads::Workload;
use grel_telemetry::{Event, NoopHook, SpanRecord, TelemetryHook};
use simt_sim::{
    ArchConfig, Checkpoint, Due, FaultModelKind, FaultSite, GlobalWrite, GlobalWriteLog, Gpu,
    NoopObserver, Session, SessionStatus, SimError, SimObserver, Structure,
};
use std::fmt;
use std::time::{Duration, Instant};

/// Deterministic sibling-ordering ordinals for the point-level phase
/// spans (`point:workload@device/...`): golden run, ladder build, then
/// one campaign per structure starting at [`PHASE_CAMPAIGN_BASE`] + the
/// structure's index. Ordinal 1 (a separate oracle capture) is retired:
/// the oracle rides the golden pass.
const PHASE_GOLDEN: u64 = 0;
const PHASE_LADDER: u64 = 2;
const PHASE_CAMPAIGN_BASE: u64 = 3;

/// Short stable token naming a structure in span paths and tables
/// (`campaign:rf`): [`Structure::label`]. The `Display` impl is prose
/// ("register file").
pub fn structure_label(structure: Structure) -> &'static str {
    structure.label()
}

/// The sibling-ordering ordinal of a structure's campaign span.
pub(crate) fn campaign_phase_seq(structure: Structure) -> u64 {
    PHASE_CAMPAIGN_BASE + structure.index() as u64
}

/// Outcome of one fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The flip did not affect the program output.
    Masked,
    /// Silent data corruption: the run completed with a wrong output.
    Sdc,
    /// Detected unrecoverable error: bad access, divergent barrier or
    /// another crash the device itself reports.
    Due,
    /// The replay never terminated: the watchdog cycle bound expired
    /// with the launch still in flight (parked warps, barrier deadlock,
    /// scheduler corruption). Kept distinct from [`Outcome::Due`] —
    /// hangs are detected by the *harness*, not the device, and the
    /// stuck-at/control fault models produce them at very different
    /// rates than crashes.
    Hang,
}

impl Outcome {
    /// All outcomes, in tally order (`masked`, `sdc`, `due`, `hang`).
    pub const ALL: [Outcome; 4] = [Outcome::Masked, Outcome::Sdc, Outcome::Due, Outcome::Hang];

    /// The canonical lower-case label used in telemetry, JSON and CSV
    /// output. Round-trips through the [`std::str::FromStr`] impl.
    ///
    /// # Example
    /// ```
    /// use grel_core::campaign::Outcome;
    /// assert_eq!(Outcome::Sdc.as_str(), "sdc");
    /// assert_eq!("sdc".parse::<Outcome>(), Ok(Outcome::Sdc));
    /// assert!("SDC!".parse::<Outcome>().is_err());
    /// ```
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Due => "due",
            Outcome::Hang => "hang",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Outcome {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Outcome::ALL
            .into_iter()
            .find(|o| o.as_str() == s)
            .ok_or_else(|| format!("unknown outcome {s:?} (expected masked, sdc, due or hang)"))
    }
}

/// Outcome counters of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs with unchanged output.
    pub masked: u64,
    /// Runs with corrupted output.
    pub sdc: u64,
    /// Crashed runs (device-detected errors).
    pub due: u64,
    /// Runs terminated by the watchdog cycle bound.
    pub hang: u64,
}

impl Tally {
    /// Total injections.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.due + self.hang
    }

    /// Failures (SDC + DUE + hang) — the AVF numerator. Hangs count as
    /// failures exactly as they did when folded into DUE, so splitting
    /// them out never moves an AVF estimate.
    pub fn failures(&self) -> u64 {
        self.sdc + self.due + self.hang
    }

    pub(crate) fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Due => self.due += 1,
            Outcome::Hang => self.hang += 1,
        }
    }

    /// Combines two tallies (e.g. campaign shards run with disjoint
    /// seeds on different machines).
    pub fn merge(&self, other: &Tally) -> Tally {
        Tally {
            masked: self.masked + other.masked,
            sdc: self.sdc + other.sdc,
            due: self.due + other.due,
            hang: self.hang + other.hang,
        }
    }
}

/// Counts outcomes into a tally.
///
/// # Example
/// ```
/// use grel_core::campaign::{Outcome, Tally};
/// let t: Tally = [Outcome::Sdc, Outcome::Masked, Outcome::Sdc].into_iter().collect();
/// assert_eq!((t.masked, t.sdc, t.total()), (1, 2, 3));
/// ```
impl FromIterator<Outcome> for Tally {
    fn from_iter<I: IntoIterator<Item = Outcome>>(outcomes: I) -> Self {
        let mut tally = Tally::default();
        for o in outcomes {
            tally.add(o);
        }
        tally
    }
}

/// Campaign parameters.
///
/// The checkpoint, pruning and batching fields tune replay
/// accelerators and change only wall-clock time, never outcomes:
///
/// # Example
/// ```
/// use grel_core::campaign::CampaignConfig;
/// let quick = CampaignConfig::quick(42);
/// let paper = CampaignConfig::paper(42);
/// assert!(paper.injections > quick.injections);
///
/// // Checkpoints default to auto spacing under a 256 MiB budget…
/// assert_eq!(paper.checkpoint_interval, 0);
/// assert_eq!(paper.checkpoint_budget_bytes, 0);
/// // …but both can be pinned, e.g. one snapshot every 500 cycles with at
/// // most 64 MiB of retained simulator state:
/// let mut tuned = quick;
/// tuned.checkpoint_interval = 500;
/// tuned.checkpoint_budget_bytes = 64 << 20;
/// assert_ne!(tuned, quick);
///
/// // The lifetime-oracle fast path is on by default (`repro --no-prune`
/// // reaches the slow path); tallies are identical either way.
/// assert!(paper.prune && paper.batch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Number of injections (the paper uses 2,000 per structure).
    pub injections: u32,
    /// RNG seed for fault-site sampling.
    pub seed: u64,
    /// Worker threads for the replay fan-out.
    pub threads: usize,
    /// Watchdog budget as a multiple of the fault-free cycle count.
    pub watchdog_factor: u64,
    /// Cycle spacing of the checkpoint ladder laid by the golden run;
    /// `0` selects an automatic power-of-two spacing between a sixteenth
    /// and an eighth of the golden cycle count (at most 15 rungs).
    pub checkpoint_interval: u64,
    /// Upper bound in bytes on the simulator state retained by the
    /// checkpoint ladder; `0` selects the 256 MiB default. A rung past
    /// the budget first thins an automatic grid; once fewer than two
    /// rungs are left (or at once under a fixed interval) no further
    /// rungs are captured, and late-cycle faults replay from the highest
    /// retained rung.
    pub checkpoint_budget_bytes: u64,
    /// Pre-classify sampled sites against a [`LifetimeOracle`] captured
    /// from one instrumented golden run: flips landing outside every
    /// live interval of their word are recorded as `Masked` without a
    /// replay. Exact — the oracle over-approximates liveness, never the
    /// reverse — so tallies are bit-identical with pruning on or off.
    pub prune: bool,
    /// No effect: the clean-overwrite early exit it once armed is gone,
    /// because the lifetime oracle already clears every site it could
    /// end early. Kept so configurations that still set it compile.
    pub early_exit: bool,
    /// Which fault model the campaign samples and injects. The default
    /// ([`FaultModelKind::Transient`]) reproduces the single-bit-flip
    /// campaigns bit-for-bit; the stuck-at and control models draw from
    /// their own site populations (see [`sample_model_sites`]).
    pub fault_model: FaultModelKind,
    /// Replay sites in bit-plane batches: up to
    /// [`simt_sim::MAX_BATCH_SCENARIOS`] transient sites sharing a
    /// checkpoint rung ride one shared golden replay as sparse overlay
    /// lanes, and a lane forks into a private replay only when its
    /// flipped word is first architecturally read. Exact — every read
    /// that could propagate a divergent word forks — so tallies are
    /// byte-identical with batching on or off at any job count. Only
    /// the transient model batches (like pruning, the lane model
    /// assumes a one-shot flip); other kinds replay scalar.
    pub batch: bool,
    /// Cadence of streaming `campaign.convergence` events: after every
    /// `convergence` merged outcomes (and once at the end of the
    /// campaign) the runner emits the running tally with its
    /// finite-population interval and a projected
    /// injections-to-target-margin estimate. `0` disables the stream.
    /// Events are folded from the merged site-order outcome vector —
    /// after the PR-3 scatter-merge — so the stream is byte-identical
    /// at any job count, with pruning and batching on or off.
    pub convergence: u64,
}

impl CampaignConfig {
    /// The paper's configuration: 2,000 injections (±2.88 % @ 99 %).
    pub fn paper(seed: u64) -> Self {
        CampaignConfig {
            injections: 2000,
            seed,
            threads: default_threads(),
            watchdog_factor: 10,
            checkpoint_interval: 0,
            checkpoint_budget_bytes: 0,
            prune: true,
            early_exit: true,
            fault_model: FaultModelKind::Transient,
            batch: true,
            convergence: 100,
        }
    }

    /// A quick-look configuration: 200 injections (±9.1 % @ 99 %).
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            injections: 200,
            ..Self::paper(seed)
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Everything measured by a fault-free reference run.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Output words of the fault-free execution.
    pub outputs: Vec<u32>,
    /// Total application cycles.
    pub cycles: u64,
}

/// Runs the workload fault-free, capturing golden output and cycles.
///
/// # Errors
///
/// Propagates launch failures (a correct workload/device pairing never
/// fails here).
pub fn golden_run(arch: &ArchConfig, workload: &dyn Workload) -> Result<GoldenRun, SimError> {
    golden_run_hooked(arch, workload, &NoopHook)
}

/// [`golden_run`] reporting wall time, cycle count and instructions
/// retired through a [`TelemetryHook`]. With [`NoopHook`] this *is*
/// `golden_run`: the instrumentation monomorphises away.
///
/// # Errors
///
/// Same as [`golden_run`].
pub fn golden_run_hooked<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    hook: &H,
) -> Result<GoldenRun, SimError> {
    let pass = golden_pass(arch, workload, Capture::default(), None, hook)?;
    if H::ENABLED {
        hook.count("sim_instructions_total", pass.instructions);
    }
    Ok(pass.golden)
}

/// Runs the workload fault-free under the [`AceAnalyzer`], returning the
/// golden run and the analyzer (ACE AVF + occupancy for every structure).
///
/// # Errors
///
/// Propagates launch failures.
pub fn golden_run_with_ace(
    arch: &ArchConfig,
    workload: &dyn Workload,
) -> Result<(GoldenRun, AceAnalyzer), SimError> {
    let capture = Capture {
        ace: Some(AceMode::LiveUntilOverwrite),
        ..Capture::default()
    };
    let pass = golden_pass(arch, workload, capture, None, &NoopHook)?;
    Ok((pass.golden, pass.ace.expect("ACE was captured")))
}

/// What a fault-free golden pass records besides the outputs and the
/// cycle count. Each analysis rides the same simulation as an observer,
/// so asking for more never costs another pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capture {
    /// ACE analysis at this refinement level (see [`Campaign::ace`]).
    pub ace: Option<AceMode>,
    /// The [`LifetimeOracle`] behind pruning and adaptive liveness strata.
    pub oracle: bool,
    /// The golden global-store stream a traced campaign compares
    /// against.
    pub writes: bool,
}

impl Capture {
    /// What a uniform campaign under `cfg` uses: the lifetime oracle when
    /// it prunes transient flips (the only kind the oracle's
    /// dead-interval argument covers).
    pub fn campaign(cfg: &CampaignConfig) -> Self {
        Capture {
            oracle: cfg.prune && cfg.fault_model == FaultModelKind::Transient,
            ..Capture::default()
        }
    }
}

/// What one golden pass recorded (see [`golden_pass`]).
pub(crate) struct GoldenPass {
    pub(crate) golden: GoldenRun,
    instructions: u64,
    ace: Option<AceAnalyzer>,
    pub(crate) oracle: Option<LifetimeOracle>,
    pub(crate) writes: Option<Vec<GlobalWrite>>,
    ladder: Option<CheckpointLadder>,
}

/// The one fault-free golden pass: runs the workload on a fresh device
/// with the analyses `capture` asks for riding along, and reports wall
/// time, cycle count, a `golden.done` event and the point's `golden`
/// span through `hook`. Every golden run of the crate is this pass.
///
/// Given `ladder`, the pass also lays the checkpoint ladder that config
/// asks for (see [`RungGrid`]), starting with a snapshot of the run's
/// start, and reports it: a `ladder.done` event,
/// the `ladder_build_seconds` histogram and the point's `ladder` span,
/// all timing the snapshots. The golden pass's own seconds and span
/// leave that time out, so the two phases never count it twice.
pub(crate) fn golden_pass<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    capture: Capture,
    ladder: Option<&CampaignConfig>,
    hook: &H,
) -> Result<GoldenPass, SimError> {
    let started = H::ENABLED.then(Instant::now);
    let mut gpu = Gpu::new(arch.clone());
    // ACE and the oracle share one lifetime tracker.
    let mut life = (capture.ace.is_some() || capture.oracle)
        .then(|| AceAnalyzer::tracking(arch, capture.ace.unwrap_or_default(), capture.oracle));
    let mut writes = capture.writes.then(GlobalWriteLog::default);
    let mut session = Session::new(&mut gpu, workload.plan());
    let mut grid = ladder.map(|cfg| RungGrid::new(cfg, &mut session));
    let mut obs = (&mut life, &mut writes);
    let outputs = match &mut grid {
        Some(grid) => grid.lay(&mut session, &mut obs)?,
        None => session.run_to_completion(&mut obs)?.to_vec(),
    };
    let snapshots = *session.telemetry();
    let golden = GoldenRun {
        outputs,
        cycles: gpu.app_cycle(),
    };
    let (ladder, laying) = match grid {
        Some(grid) => {
            let (ladder, laying) = grid.finish();
            (Some(ladder), laying)
        }
        None => (None, Duration::ZERO),
    };
    let point = || format!("point:{}@{}/golden", workload.name(), arch.name);
    let (ace, oracle) = match life {
        Some(life) => {
            life.within_cycle_limit(workload.name(), &arch.name)?;
            let sealing = H::SPANS.then(Instant::now);
            let (ace, oracle) = life.finish(capture.ace.is_some());
            if let Some(sealing) = sealing {
                let (intervals, bytes) = oracle
                    .as_ref()
                    .map_or((0, 0), |o| (o.intervals(), o.bytes()));
                hook.span(
                    &SpanRecord::new(format!("{}/seal", point()), 0, PHASE_GOLDEN, sealing)
                        .tag("intervals", intervals)
                        .tag("bytes", bytes),
                );
            }
            (ace, oracle)
        }
        None => (None, None),
    };
    if let Some(started) = started {
        // The ladder's snapshot time is its own phase: the golden span
        // and seconds leave it out, and the ladder span comes first.
        let simulating = started + laying;
        let seconds = simulating.elapsed().as_secs_f64();
        hook.observe("campaign_golden_seconds", seconds);
        hook.event(
            &Event::new("golden.done")
                .field("workload", workload.name())
                .field("device", arch.name.as_str())
                .field("cycles", golden.cycles)
                .field("seconds", seconds),
        );
        if H::SPANS {
            hook.span(
                &SpanRecord::new(point(), 0, PHASE_GOLDEN, simulating)
                    .tag("cycles", golden.cycles)
                    .tag("ace", ace.is_some()),
            );
        }
        if let Some(ladder) = &ladder {
            let seconds = laying.as_secs_f64();
            hook.observe("ladder_build_seconds", seconds);
            hook.count("sim_snapshots_total", snapshots.snapshots);
            hook.count("sim_snapshot_bytes_total", snapshots.snapshot_bytes);
            hook.observe(
                "sim_snapshot_seconds",
                snapshots.snapshot_nanos as f64 * 1e-9,
            );
            hook.event(
                &Event::new("ladder.done")
                    .field("workload", workload.name())
                    .field("device", arch.name.as_str())
                    .field("rungs", ladder.len())
                    .field("bytes", ladder.total_bytes())
                    .field("seconds", seconds),
            );
            if H::SPANS {
                let path = format!("point:{}@{}/ladder", workload.name(), arch.name);
                hook.span(
                    &SpanRecord {
                        end: simulating,
                        ..SpanRecord::new(path, 0, PHASE_LADDER, started)
                    }
                    .tag("rungs", ladder.len())
                    .tag("bytes", ladder.total_bytes()),
                );
            }
        }
    }
    Ok(GoldenPass {
        golden,
        instructions: gpu.exec_totals().warp_instructions,
        ace,
        oracle,
        writes: writes.map(GlobalWriteLog::into_writes),
        ladder,
    })
}

/// Result of a fault-injection campaign on one structure.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Structure injected.
    pub structure: Structure,
    /// Outcome counters.
    pub tally: Tally,
    /// Fault-free cycle count (the sampling window).
    pub golden_cycles: u64,
    /// Size of the sampled fault-site population: every `(SM, word, bit,
    /// cycle)` candidate of the injected structure over the golden run.
    pub population: u64,
    /// Error margin of the AVF estimate at 99 % confidence, with the
    /// finite-population correction over [`CampaignResult::population`].
    /// Zero for an empty campaign.
    pub margin_99: f64,
}

impl CampaignResult {
    /// The fault-injection AVF: `(SDC + DUE) / injections`.
    pub fn avf(&self) -> f64 {
        if self.tally.total() == 0 {
            0.0
        } else {
            self.tally.failures() as f64 / self.tally.total() as f64
        }
    }

    /// SDC-only AVF (excludes detected errors).
    pub fn avf_sdc(&self) -> f64 {
        if self.tally.total() == 0 {
            0.0
        } else {
            self.tally.sdc as f64 / self.tally.total() as f64
        }
    }

    /// The AVF as a [`Proportion`] with its confidence interval over the
    /// campaign's own fault-site population, or `None` for a campaign
    /// that ran no injections (an empty tally is reported as the absence
    /// of an estimate, never as a fabricated one-trial proportion).
    pub fn proportion(&self) -> Option<Proportion> {
        (self.tally.total() > 0)
            .then(|| Proportion::new(self.tally.failures(), self.tally.total(), self.population))
    }
}

/// The 99 % error margin for `trials` injections over a finite site
/// population; zero for an empty campaign (no trials, no estimate — the
/// caller reports the empty tally explicitly instead of masking it).
pub(crate) fn campaign_margin(population: u64, trials: u64) -> f64 {
    if trials == 0 {
        0.0
    } else {
        error_margin(population, trials, Z_99)
    }
}

/// Draws the deterministic fault-site list for a campaign under any
/// fault model: `n` **distinct** sites, uniform over the model's fault
/// population.
///
/// * [`FaultModelKind::Transient`] — single bit flips over the
///   structure's `(SM, word, bit, cycle)` population.
/// * [`FaultModelKind::Stuck0`] / [`FaultModelKind::Stuck1`] — the same
///   storage-site population (a permanent fault still names a storage
///   cell and an onset cycle), with every site carrying the stuck-at
///   kind.
/// * [`FaultModelKind::Control`] — its own population over
///   `(SM, warp slot, control target, bit, cycle)`: flat index
///   `(((sm · slots + slot) · 4 + target) · 32 + bit) · cycles + cycle`
///   with `slots = arch.max_warps_per_sm`. Control sites carry the
///   campaign's `structure` only as a label (the injector targets
///   scheduler state, not storage); their `word` field is the warp/block
///   slot index.
///
/// Sampling is *without* replacement — the finite-population correction
/// in [`error_margin`] models a sample of distinct sites, so a duplicate
/// draw would silently widen the true interval. Distinctness comes from
/// a seed-stable partial Fisher–Yates shuffle over the flat site index
/// space, tracked sparsely in an index map: exactly `n` draws, O(n) time
/// and memory for any `n`. A request beyond the population saturates to
/// the full population: the result is then a permutation of every site
/// exactly once (an exhaustive campaign), never a panic and never a
/// duplicate.
///
/// Exposed for reproducibility tooling: the sites depend only on the
/// arguments, never on threading.
///
/// # Panics
///
/// Panics with the [`SimError::LaunchConfig`] reason that the campaign
/// entry points return instead: the device lacks the structure (a
/// storage model) or has no warp slots (the control model), or
/// `cycles` is zero.
pub fn sample_model_sites(
    arch: &ArchConfig,
    structure: Structure,
    model: FaultModelKind,
    cycles: u64,
    n: u32,
    seed: u64,
) -> Vec<FaultSite> {
    SiteSpace::new(arch, structure, model, cycles)
        .unwrap_or_else(|e| panic!("{e}"))
        .sample(n, seed)
}

/// Default cap on the simulator state a [`CheckpointLadder`] may retain.
const DEFAULT_CHECKPOINT_BUDGET: u64 = 256 << 20;

/// The checkpoints every replay of one fault-free run resumes from: the
/// run's start and a ladder of mid-execution snapshots, its rungs.
///
/// The start is the device and plan before the plan's first step. It is
/// not a rung: [`CheckpointLadder::rungs`], [`CheckpointLadder::len`],
/// [`CheckpointLadder::total_bytes`] and the budget leave it out, so a
/// one-byte budget leaves a ladder of the start alone.
///
/// Rungs are placed while the run goes on: at every multiple of
/// `cfg.checkpoint_interval`, or, when it is `0`, on a power-of-two grid
/// that starts one cycle apart and drops every other rung whenever 16
/// are kept (at most 15 rungs, spaced between a sixteenth and an eighth
/// of the run), within `cfg.checkpoint_budget_bytes`. Each rung
/// shares with the rung before it every storage page the run did not
/// write between them. The ladder is immutable after construction and
/// `Sync`, so the replay fan-out shares it across worker threads without
/// copying.
#[derive(Debug)]
pub struct CheckpointLadder {
    start: Checkpoint,
    ckpts: Vec<Checkpoint>,
}

impl CheckpointLadder {
    /// Runs the workload fault-free and lays the ladder `cfg` asks for:
    /// the ladder of the golden pass [`Campaign::new`] runs.
    ///
    /// # Errors
    ///
    /// Propagates launch failures from the fault-free run (a pairing that
    /// produced `golden` never fails here).
    pub fn build(
        arch: &ArchConfig,
        workload: &dyn Workload,
        golden: &GoldenRun,
        cfg: &CampaignConfig,
    ) -> Result<Self, SimError> {
        let pass = golden_pass(arch, workload, Capture::default(), Some(cfg), &NoopHook)?;
        debug_assert_eq!(
            pass.golden.cycles, golden.cycles,
            "the run is the golden run"
        );
        Ok(pass.ladder.expect("the golden pass was asked for a ladder"))
    }

    /// The checkpoint a replay of a fault at `cycle` resumes from: the
    /// highest rung at or before `cycle`, or the run's start before the
    /// first rung. A fault armed for `cycle` still fires when replay
    /// resumes here: the checkpoint was taken at an iteration boundary,
    /// before the fault-application step of its own cycle.
    ///
    /// Never `None`: the `Option` stays for the `perfbench/layers`
    /// harness, which calls it.
    pub fn nearest(&self, cycle: u64) -> Option<&Checkpoint> {
        Some(self.nearest_indexed(cycle).1)
    }

    /// [`CheckpointLadder::nearest`] with the rung's ladder index
    /// (`None` for the run's start), for rung-hit accounting.
    pub fn nearest_indexed(&self, cycle: u64) -> (Option<usize>, &Checkpoint) {
        match self.ckpts.partition_point(|c| c.cycle() <= cycle) {
            0 => (None, &self.start),
            i => (Some(i - 1), &self.ckpts[i - 1]),
        }
    }

    /// The rungs in cycle order.
    pub fn rungs(&self) -> &[Checkpoint] {
        &self.ckpts
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.ckpts.len()
    }

    /// Whether the ladder has no rungs.
    pub fn is_empty(&self) -> bool {
        self.ckpts.is_empty()
    }

    /// Estimated bytes of simulator state retained by all rungs.
    pub fn total_bytes(&self) -> u64 {
        self.ckpts.iter().map(|c| c.size_bytes() as u64).sum()
    }
}

/// Where the rungs of a [`CheckpointLadder`] go, decided while the
/// fault-free run that lays them goes on (its end is not known yet).
///
/// An explicit `checkpoint_interval` puts a rung at every multiple of
/// it. With `0`, rungs sit on a power-of-two grid that starts one cycle
/// apart; once 16 rungs are kept, every other one is dropped and the
/// spacing doubles. So at most 15 rungs are left, spaced between a
/// sixteenth and an eighth of the run's `C` cycles (`[C/16, C/8)`).
///
/// A rung that would take the retained [`Checkpoint::size_bytes`] past
/// the budget thins an auto grid the same way, and ends the ladder only
/// when fewer than two rungs are left; it ends a fixed grid at once.
/// The run's start, taken before the grid's first mark, is no rung.
struct RungGrid {
    start: Checkpoint,
    ckpts: Vec<Checkpoint>,
    spacing: u64,
    auto: bool,
    budget: u64,
    bytes: u64,
    /// The budget ended the ladder.
    full: bool,
    /// Time spent taking, keeping and dropping snapshots.
    laying: Duration,
}

/// Rungs at which an auto grid is thinned.
const GRID_RUNGS: usize = 16;

impl RungGrid {
    /// A grid for `cfg` over the run `session` is about to start, whose
    /// start it snapshots.
    fn new(cfg: &CampaignConfig, session: &mut Session<'_>) -> Self {
        let started = Instant::now();
        RungGrid {
            start: session.snapshot(),
            ckpts: Vec::new(),
            spacing: cfg.checkpoint_interval.max(1),
            auto: cfg.checkpoint_interval == 0,
            budget: match cfg.checkpoint_budget_bytes {
                0 => DEFAULT_CHECKPOINT_BUDGET,
                b => b,
            },
            bytes: 0,
            full: false,
            laying: started.elapsed(),
        }
    }

    /// The cycle of the next rung, unless the budget ended the ladder.
    fn next_mark(&self) -> Option<u64> {
        let last = self.ckpts.last().map_or(0, Checkpoint::cycle);
        (!self.full).then_some(last + self.spacing)
    }

    /// Runs `session` to the end under `obs`, taking a snapshot at each
    /// mark, and returns the outputs.
    fn lay<O: SimObserver>(
        &mut self,
        session: &mut Session<'_>,
        obs: &mut O,
    ) -> Result<Vec<u32>, SimError> {
        while let Some(mark) = self.next_mark() {
            if session.run_until_cycle(mark, obs)? == SessionStatus::Finished {
                break;
            }
            let started = Instant::now();
            let ck = session.snapshot();
            self.laying += started.elapsed();
            // A rung must lie before the end of the run, which may come
            // at this very cycle; only one more cycle tells.
            if session.run_until_cycle(mark + 1, obs)? == SessionStatus::Finished {
                break;
            }
            let started = Instant::now();
            self.keep(ck);
            self.laying += started.elapsed();
        }
        Ok(session.run_to_completion(obs)?.to_vec())
    }

    /// Keeps the snapshot at the current mark as a rung, thinning the
    /// grid (or ending the ladder) where the budget or the rung count
    /// asks for it.
    fn keep(&mut self, ck: Checkpoint) {
        let size = ck.size_bytes() as u64;
        while self.bytes + size > self.budget {
            if !self.auto || self.ckpts.len() < 2 {
                self.full = true;
                return;
            }
            self.thin();
            if !ck.cycle().is_multiple_of(self.spacing) {
                return;
            }
        }
        self.bytes += size;
        self.ckpts.push(ck);
        if self.auto && self.ckpts.len() == GRID_RUNGS {
            self.thin();
        }
    }

    /// Drops every other rung and doubles the spacing.
    fn thin(&mut self) {
        self.spacing *= 2;
        let spacing = self.spacing;
        self.ckpts.retain(|ck| ck.cycle().is_multiple_of(spacing));
        self.bytes = self.ckpts.iter().map(|ck| ck.size_bytes() as u64).sum();
    }

    /// The ladder laid, and the time spent laying it.
    fn finish(self) -> (CheckpointLadder, Duration) {
        let ladder = CheckpointLadder {
            start: self.start,
            ckpts: self.ckpts,
        };
        (ladder, self.laying)
    }
}

/// What every replay of one run reads: the per-point setup, the
/// watchdog budget and the telemetry hook. Built once per run by
/// [`Campaign::context`].
pub(crate) struct ReplayContext<'a, H> {
    pub(crate) setup: &'a Campaign<'a>,
    pub(crate) watchdog: u64,
    pub(crate) hook: &'a H,
}

/// Classifies one injection replay on a caller-owned device, resumed
/// from `ckpt` (`Session::resume` runs `*gpu = ckpt.gpu.clone()`, which
/// clones the storage's page handles, not its words; the replay copies
/// only the pages it writes), so the replay never observes state left
/// behind by a previous injection. `faults` is the injection: one site,
/// or a group of sites armed together (a multi-bit upset), all sharing
/// the first site's cycle. `obs` rides along the replay (the flight
/// recorder of a traced campaign, [`NoopObserver`] otherwise).
///
/// # Errors
///
/// A [`SimError::Due`] from the replay is a *classification* (the fault
/// was detected), not an error; anything else — a launch that fails to
/// validate, an exhausted allocator — means the harness itself broke and
/// is propagated to the caller instead of being folded into the tally.
pub(crate) fn classify_on<O: SimObserver, H: TelemetryHook>(
    ctx: &ReplayContext<'_, H>,
    gpu: &mut Gpu,
    faults: &[FaultSite],
    ckpt: &Checkpoint,
    obs: &mut O,
) -> Result<Outcome, SimError> {
    debug_assert!(faults.iter().all(|f| f.cycle == faults[0].cycle));
    let start_cycle = ckpt.cycle();
    let mut session = Session::resume(gpu, ckpt);
    session.gpu_mut().arm_faults(faults)?;
    if H::ENABLED {
        ctx.hook.count("campaign_cycles_saved_total", start_cycle);
    }
    replay_private(ctx, session, faults[0], start_cycle, obs)
}

/// The tail every private replay shares, scalar or a forked batch lane:
/// runs the armed `session` to completion under the watchdog, counts the
/// cycles it simulated since `start_cycle` and what the replay cost,
/// and sorts the result into its [`Outcome`].
fn replay_private<O: SimObserver, H: TelemetryHook>(
    ctx: &ReplayContext<'_, H>,
    mut session: Session<'_>,
    site: FaultSite,
    start_cycle: u64,
    obs: &mut O,
) -> Result<Outcome, SimError> {
    // The cumulative counters the device carried in from its checkpoint.
    let base = if H::ENABLED {
        let gpu = session.gpu();
        (gpu.exec_totals().warp_instructions, gpu.page_copies())
    } else {
        (0, 0)
    };
    session.set_watchdog(ctx.watchdog);
    let result = session.run_to_completion(obs).map(drop);
    let gpu = session.gpu();
    if H::ENABLED {
        ctx.hook.count(
            "campaign_cycles_replayed_total",
            gpu.app_cycle().saturating_sub(start_cycle),
        );
        record_replay_cost(ctx.hook, gpu, base, session.telemetry());
    }
    let outputs = result.map(|()| session.outputs().expect("finished session has outputs"));
    verdict(ctx, outputs, gpu, site, start_cycle)
}

/// Instructions a replay retired beyond its checkpoint prefix, the cost
/// of the checkpoint restore it started from, and the storage pages it
/// copied on first writes: the copying a restore no longer does.
fn record_replay_cost<H: TelemetryHook>(
    hook: &H,
    gpu: &Gpu,
    (base_instructions, base_copies): (u64, u64),
    session_tel: &simt_sim::SessionTelemetry,
) {
    hook.count(
        "sim_instructions_total",
        gpu.exec_totals()
            .warp_instructions
            .saturating_sub(base_instructions),
    );
    hook.count(
        "sim_page_copies_total",
        gpu.page_copies().saturating_sub(base_copies),
    );
    hook.count("sim_restores_total", session_tel.restores);
    hook.observe(
        "sim_restore_seconds",
        session_tel.restore_nanos as f64 * 1e-9,
    );
}

/// Sorts a finished replay into its [`Outcome`] — the one place the
/// masked/SDC/DUE/hang rule lives. Output equal to the golden run is
/// `Masked`, any other output is an SDC, a watchdog expiry is a `Hang`
/// and any other device-detected error a DUE; a non-DUE error is a
/// harness failure and propagates.
///
/// A hang also records its timing evidence: how far the replay got
/// against the watchdog budget, and the cycles it burned since
/// `start_cycle` before the harness cut it off (the cost a tighter
/// `watchdog_factor` would recover).
fn verdict<H: TelemetryHook>(
    ctx: &ReplayContext<'_, H>,
    result: Result<&[u32], SimError>,
    gpu: &Gpu,
    site: FaultSite,
    start_cycle: u64,
) -> Result<Outcome, SimError> {
    let setup = ctx.setup;
    match result {
        Ok(out) if out == setup.golden.outputs => Ok(Outcome::Masked),
        Ok(_) => Ok(Outcome::Sdc),
        Err(SimError::Due(Due::WatchdogTimeout { .. })) => {
            if H::ENABLED {
                let cycle = gpu.app_cycle();
                ctx.hook.count(
                    "campaign_watchdog_cycles_total",
                    cycle.saturating_sub(start_cycle),
                );
                ctx.hook.event(
                    &Event::new("watchdog.fired")
                        .field("workload", setup.workload.name())
                        .field("device", setup.arch.name.as_str())
                        .field("kind", site.kind.as_str())
                        .field("site", site.to_string())
                        .field("cycle", cycle)
                        .field("budget", ctx.watchdog)
                        .field("golden_cycles", setup.golden.cycles),
                );
            }
            Ok(Outcome::Hang)
        }
        Err(SimError::Due(_)) => Ok(Outcome::Due),
        Err(e) => Err(e),
    }
}

/// Result of one bit-plane batched replay ([`classify_batch_on`]).
pub(crate) struct BatchReplay {
    /// Per-site outcomes, parallel to the batch slice.
    pub outcomes: Vec<Outcome>,
    /// Lanes that diverged architecturally and re-ran privately.
    pub forks: u32,
    /// Shared-pass snapshots retained for the forks (at most
    /// `forks + 1`).
    pub snapshots: u32,
    /// Whether the shared pass aborted and the whole batch was
    /// re-classified scalar (a safety net; outcomes are still exact).
    pub fell_back: bool,
}

/// Classifies up to [`simt_sim::MAX_BATCH_SCENARIOS`] transient sites
/// in a single shared simulation pass resumed from `ckpt`, the
/// checkpoint of the earliest site.
///
/// The shared pass replays the fault-free trajectory once with every
/// site's flip held in a sparse overlay lane: physical machine state
/// stays bit-identical to the golden run, and a lane's divergent words
/// live only in overlay cells. A lane **forks** into a private replay
/// the moment its divergence could alter execution — a divergent
/// predicate, a divergent address, any atomic touching an overlaid
/// word, or a host read of one. Because the shared pass *is* the
/// golden trajectory, its periodic snapshots are golden checkpoints: a
/// forked lane resumes from the latest snapshot at or before its fork
/// trigger, materialises its overlay diff into physical state, re-arms
/// its flip if still pending, and runs to completion under the scalar
/// classification rules. A lane that never forks ended bit-identical
/// to the golden run and is `Masked` by construction, so batched
/// tallies are byte-identical to scalar replay.
///
/// # Errors
///
/// Same as [`classify_on`]: a [`SimError::Due`] from a private replay
/// is a classification; anything else propagates. A shared-pass
/// failure (which pure golden replay should never produce) falls back
/// to scalar classification of every site instead of guessing.
pub(crate) fn classify_batch_on<H: TelemetryHook>(
    ctx: &ReplayContext<'_, H>,
    gpu: &mut Gpu,
    batch: &[FaultSite],
    ckpt: &Checkpoint,
) -> Result<BatchReplay, SimError> {
    debug_assert!(!batch.is_empty() && batch.len() <= simt_sim::MAX_BATCH_SCENARIOS);
    debug_assert!(batch.iter().all(|s| s.is_transient()));
    let (setup, hook) = (ctx.setup, ctx.hook);
    let golden: &GoldenRun = &setup.golden;
    let start_cycle = ckpt.cycle();
    debug_assert!(batch.iter().all(|s| s.cycle >= start_cycle));
    // Two to four times the ladder's rung density (its rungs sit
    // between C/16 and C/8 apart): a fork replays the stretch from its
    // snapshot to its trigger for nothing, so a finer stride inside the
    // shared pass directly shrinks that waste (half a stride per fork
    // on average) for a few extra in-memory clones.
    let interval = (golden.cycles / 32).max(1);
    let all_mask = simt_sim::overlay::scenario_mask(batch.len());

    // Shared pass. Snapshots are taken *before* stepping, so a fork
    // raised during a step always has a snapshot at or before its
    // trigger cycle; the drain sits at the top of the loop so forks
    // raised by the finishing step's host output reads still land.
    // Only snapshots a fork resumes from are kept: a new snapshot
    // replaces the previous one when no lane forked in between. Only
    // the unreferenced last element is ever popped, so `fork_snap`
    // indices stay valid and at most `forks + 1` snapshots are alive.
    let mut snaps: Vec<Checkpoint> = Vec::new();
    let mut fork_snap = vec![0usize; batch.len()];
    let mut forked = 0u64;
    let mut last_snap_used = false;
    let (finished_out, final_sdc, shared_broke, shared_end, shared_instr) = {
        let mut session = Session::resume(gpu, ckpt);
        let base = if H::ENABLED {
            session.gpu().exec_totals().warp_instructions
        } else {
            0
        };
        session.gpu_mut().set_watchdog(ctx.watchdog);
        session.gpu_mut().arm_scenarios(batch)?;
        snaps.push(session.snapshot());
        let mut next_snap = session.gpu().app_cycle() + interval;
        let mut finished_out: Option<Vec<u32>> = None;
        let mut broke = false;
        loop {
            let new = session.gpu_mut().take_scenario_forks();
            if new != 0 {
                let snap_idx = snaps.len() - 1;
                let mut m = new;
                while m != 0 {
                    fork_snap[m.trailing_zeros() as usize] = snap_idx;
                    m &= m - 1;
                }
                forked |= new;
                last_snap_used = true;
            }
            if finished_out.is_some() || forked == all_mask {
                break;
            }
            if session.gpu().app_cycle() >= next_snap {
                if !last_snap_used {
                    snaps.pop();
                }
                last_snap_used = false;
                snaps.push(session.snapshot());
                next_snap = session.gpu().app_cycle() + interval;
            }
            match session.step(&mut NoopObserver) {
                Ok(SessionStatus::Running) => {}
                Ok(SessionStatus::Finished) => {
                    finished_out = Some(
                        session
                            .outputs()
                            .expect("finished session has outputs")
                            .to_vec(),
                    );
                }
                Err(_) => {
                    broke = true;
                    break;
                }
            }
        }
        let instr = if H::ENABLED {
            session
                .gpu()
                .exec_totals()
                .warp_instructions
                .saturating_sub(base)
        } else {
            0
        };
        let end = session.gpu().app_cycle();
        let final_sdc = session.final_scenario_divergence();
        (finished_out, final_sdc, broke, end, instr)
    };
    if H::ENABLED {
        hook.count(
            "campaign_cycles_replayed_total",
            shared_end.saturating_sub(start_cycle),
        );
        hook.count(
            "campaign_batch_shared_cycles_total",
            shared_end.saturating_sub(start_cycle),
        );
        hook.count(
            "campaign_cycles_saved_total",
            start_cycle.saturating_mul(batch.len() as u64),
        );
        hook.count("sim_instructions_total", shared_instr);
    }
    // A shared pass that finished must have reproduced the golden output
    // bit for bit — it executes the fault-free trajectory. Anything else
    // is a harness bug; classify the whole batch scalar for safety.
    let broken = shared_broke || matches!(&finished_out, Some(out) if out != &golden.outputs);
    if broken {
        gpu.clear_scenarios();
        let mut outcomes = Vec::with_capacity(batch.len());
        for site in batch {
            outcomes.push(classify_on(
                ctx,
                gpu,
                std::slice::from_ref(site),
                ckpt,
                &mut NoopObserver,
            )?);
        }
        return Ok(BatchReplay {
            outcomes,
            forks: forked.count_ones(),
            snapshots: snaps.len() as u32,
            fell_back: true,
        });
    }

    // Private fork replays, in lane order for a deterministic telemetry
    // stream. An unforked lane's divergence never influenced control
    // flow, addressing, an atomic or host logic, so the shared pass
    // carried its complete faulty execution: if its divergence reached
    // the final output reads it is an SDC outright, otherwise `Masked`
    // — either way the verdict is free.
    let mut outcomes = vec![Outcome::Masked; batch.len()];
    for s in 0..batch.len() {
        if forked >> s & 1 == 0 {
            if final_sdc >> s & 1 == 1 {
                outcomes[s] = Outcome::Sdc;
                if H::ENABLED {
                    hook.count("campaign_batch_final_sdc_total", 1);
                }
            }
            if H::ENABLED {
                hook.count(
                    "campaign_cycles_saved_total",
                    golden.cycles.saturating_sub(start_cycle),
                );
            }
            continue;
        }
        let site = batch[s];
        let snap = &snaps[fork_snap[s]];
        let mut session = Session::resume(&mut *gpu, snap);
        session.gpu_mut().materialize_scenario(s);
        // The snapshot was captured before the fault-application step of
        // its own cycle (rung semantics), so a flip at or past the
        // snapshot cycle is still pending and re-arms scalar; an earlier
        // flip already lives in the overlay diff just materialised.
        if site.cycle >= snap.cycle() {
            session.arm_fault(site)?;
        }
        outcomes[s] = replay_private(ctx, session, site, snap.cycle(), &mut NoopObserver)?;
        if H::ENABLED {
            hook.count(
                "campaign_batch_fork_cycles_total",
                gpu.app_cycle().saturating_sub(snap.cycle()),
            );
            hook.count(
                "campaign_cycles_saved_total",
                snap.cycle().saturating_sub(start_cycle),
            );
        }
    }
    Ok(BatchReplay {
        outcomes,
        forks: forked.count_ones(),
        snapshots: snaps.len() as u32,
        fell_back: false,
    })
}

/// A setup part a [`Campaign`] built itself, or borrowed from the
/// caller of a wrapper that takes it ready-made.
enum Part<'a, T: ?Sized> {
    Built(Box<T>),
    Lent(&'a T),
}

impl<T: ?Sized> std::ops::Deref for Part<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Part::Built(part) => part,
            Part::Lent(part) => part,
        }
    }
}

/// The per-point setup every fault-injection campaign replays against:
/// the golden outputs and cycle count, the checkpoint ladder and, when
/// asked for, the ACE reports, the lifetime oracle and the golden
/// global-store stream.
///
/// [`Campaign::new`] builds it from one fault-free pass, the golden
/// pass, which carries every requested analysis and lays the ladder,
/// however many campaigns then run against it. It is the crate's one
/// campaign entry point: [`Campaign::run`], [`Campaign::run_adaptive`],
/// [`Campaign::run_traced`] and [`Campaign::replay`] all replay against
/// it, and so do [`crate::breakdown`]'s per-site and multi-bit-upset
/// campaigns.
///
/// # Example
/// ```
/// use grel_core::campaign::{Campaign, CampaignConfig, Capture};
/// use gpu_workloads::Transpose;
/// use gpu_archs::quadro_fx_5600;
/// use grel_telemetry::NoopHook;
/// use simt_sim::Structure;
///
/// let (arch, w) = (quadro_fx_5600(), Transpose::new(32, 1));
/// let mut cfg = CampaignConfig::quick(1);
/// cfg.injections = 12;
/// // One setup, two campaigns: no further fault-free pass.
/// let setup = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)?;
/// let rf = setup.run(Structure::VectorRegisterFile, cfg, &NoopHook)?;
/// let lds = setup.run(Structure::LocalMemory, cfg, &NoopHook)?;
/// assert_eq!(rf.tally.total() + lds.tally.total(), 24);
/// assert!(setup.oracle().is_some() && setup.ace(Structure::LocalMemory).is_none());
/// # Ok::<(), simt_sim::SimError>(())
/// ```
pub struct Campaign<'a> {
    pub(crate) arch: &'a ArchConfig,
    pub(crate) workload: &'a dyn Workload,
    golden: Part<'a, GoldenRun>,
    ladder: Part<'a, CheckpointLadder>,
    oracle: Option<Part<'a, LifetimeOracle>>,
    writes: Option<Part<'a, [GlobalWrite]>>,
    ace: Option<[(Structure, StructureReport); 3]>,
}

impl<'a> Campaign<'a> {
    /// Builds the setup: one golden pass recording what `capture` asks
    /// for and laying the checkpoint ladder spaced and capped per `cfg`.
    /// The pass reports both phases (`golden.done`, `ladder.done`, the
    /// `golden` and `ladder` spans) through `hook`.
    ///
    /// # Errors
    ///
    /// Propagates a fault-free launch failure.
    pub fn new<H: TelemetryHook>(
        arch: &'a ArchConfig,
        workload: &'a dyn Workload,
        cfg: &CampaignConfig,
        capture: Capture,
        hook: &H,
    ) -> Result<Self, SimError> {
        let pass = golden_pass(arch, workload, capture, Some(cfg), hook)?;
        let ace = pass.ace.map(|ace| {
            [
                Structure::VectorRegisterFile,
                Structure::LocalMemory,
                Structure::ScalarRegisterFile,
            ]
            .map(|s| (s, ace.report(s)))
        });
        let ladder = pass.ladder.expect("the golden pass was asked for a ladder");
        Ok(Campaign {
            arch,
            workload,
            golden: Part::Built(Box::new(pass.golden)),
            ladder: Part::Built(Box::new(ladder)),
            oracle: pass.oracle.map(|o| Part::Built(Box::new(o))),
            writes: pass.writes.map(|w| Part::Built(w.into_boxed_slice())),
            ace,
        })
    }

    /// A setup over parts the caller already built, without the golden
    /// write log or ACE reports.
    pub(crate) fn lent(
        arch: &'a ArchConfig,
        workload: &'a dyn Workload,
        golden: &'a GoldenRun,
        ladder: &'a CheckpointLadder,
        oracle: Option<&'a LifetimeOracle>,
    ) -> Self {
        Campaign {
            arch,
            workload,
            golden: Part::Lent(golden),
            ladder: Part::Lent(ladder),
            oracle: oracle.map(Part::Lent),
            writes: None,
            ace: None,
        }
    }

    /// The fault-free reference run.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The checkpoint ladder replays resume from.
    pub fn ladder(&self) -> &CheckpointLadder {
        &self.ladder
    }

    /// The lifetime oracle, when [`Capture::oracle`] asked for it.
    pub fn oracle(&self) -> Option<&LifetimeOracle> {
        self.oracle.as_deref()
    }

    /// The golden global-store stream, when [`Capture::writes`] asked
    /// for it.
    pub fn golden_writes(&self) -> Option<&[GlobalWrite]> {
        self.writes.as_deref()
    }

    /// The ACE report of `structure`, when [`Capture::ace`] asked for
    /// it.
    pub fn ace(&self, structure: Structure) -> Option<StructureReport> {
        let reports = self.ace.as_ref()?;
        reports
            .iter()
            .find(|(s, _)| *s == structure)
            .map(|&(_, r)| r)
    }

    /// The site space of a `model` campaign on `structure` against this
    /// setup's golden run.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] when the device lacks the structure
    /// (a storage model) or warp slots (the control model).
    pub(crate) fn space(
        &self,
        structure: Structure,
        model: FaultModelKind,
    ) -> Result<SiteSpace, SimError> {
        SiteSpace::new(self.arch, structure, model, self.golden.cycles)
    }

    /// The uniform site sample of a campaign on `structure` under `cfg`.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] when the device lacks the structure
    /// (a storage model) or warp slots (the control model).
    pub(crate) fn sample(
        &self,
        structure: Structure,
        cfg: &CampaignConfig,
    ) -> Result<Vec<FaultSite>, SimError> {
        Ok(self
            .space(structure, cfg.fault_model)?
            .sample(cfg.injections, cfg.seed))
    }

    /// The context every replay of a run under `cfg` reads. The
    /// watchdog budget is `cfg.watchdog_factor` golden runs plus 10,000
    /// cycles of slack, saturating: a pathological factor (up to
    /// `u64::MAX`) clamps to an effectively infinite budget instead of
    /// overflowing.
    pub(crate) fn context<'s, H>(
        &'s self,
        cfg: &CampaignConfig,
        hook: &'s H,
    ) -> ReplayContext<'s, H> {
        ReplayContext {
            setup: self,
            watchdog: self
                .golden
                .cycles
                .saturating_mul(cfg.watchdog_factor)
                .saturating_add(10_000),
            hook,
        }
    }

    /// Replays every site and returns the outcomes in site order — the
    /// same outcomes at any job count, with pruning, batching and
    /// checkpoints on or off.
    ///
    /// # Errors
    ///
    /// Propagates replay failures that are not fault classifications.
    pub fn replay<H: TelemetryHook>(
        &self,
        sites: &[FaultSite],
        cfg: CampaignConfig,
        hook: &H,
    ) -> Result<Vec<Outcome>, SimError> {
        Ok(self
            .replay_with(sites, Arming::Groups(1), cfg, hook)?
            .outcomes)
    }

    /// Runs a uniform campaign of `cfg.injections` sites on `structure`,
    /// with full telemetry through `hook`: per-outcome counters,
    /// per-injection latency, rung-hit distribution, replay cycles saved
    /// vs from-zero, throughput and a `campaign.done` event.
    ///
    /// # Errors
    ///
    /// Propagates replay failures that are not fault classifications.
    pub fn run<H: TelemetryHook>(
        &self,
        structure: Structure,
        cfg: CampaignConfig,
        hook: &H,
    ) -> Result<CampaignResult, SimError> {
        let started = H::ENABLED.then(Instant::now);
        let space = self.space(structure, cfg.fault_model)?;
        let sites = space.sample(cfg.injections, cfg.seed);
        let replayed = self.replay_with(&sites, Arming::Groups(1), cfg, hook)?;
        Ok(self.finish(&space, cfg, &replayed, started, hook))
    }

    /// The tail every uniform and traced campaign shares: tallies the
    /// replay's outcomes into a [`CampaignResult`] and, when the hook is
    /// on, reports the campaign's wall time, throughput, `campaign.done`
    /// event and `campaign:` span.
    pub(crate) fn finish<H: TelemetryHook>(
        &self,
        space: &SiteSpace,
        cfg: CampaignConfig,
        replayed: &Replayed,
        started: Option<Instant>,
        hook: &H,
    ) -> CampaignResult {
        let structure = space.structure();
        let tally = replayed.outcomes.iter().copied().collect();
        let population = space.margin_population();
        let result = CampaignResult {
            structure,
            tally,
            golden_cycles: self.golden.cycles,
            population,
            margin_99: campaign_margin(population, tally.total()),
        };
        let Some(started) = started else {
            return result;
        };
        let (workload, device) = (self.workload.name(), self.arch.name.as_str());
        let seconds = started.elapsed().as_secs_f64();
        let per_second = if seconds > 0.0 {
            tally.total() as f64 / seconds
        } else {
            0.0
        };
        let pruned = replayed.pruned;
        hook.observe("campaign_seconds", seconds);
        hook.gauge("campaign_injections_per_second", per_second);
        hook.event(
            &Event::new("campaign.done")
                .field("workload", workload)
                .field("device", device)
                .field("structure", structure.to_string())
                .field("fault_kind", cfg.fault_model.as_str())
                .field("injections", tally.total())
                .field("masked", tally.masked)
                .field("sdc", tally.sdc)
                .field("due", tally.due)
                .field("hang", tally.hang)
                .field("avf", result.avf())
                .field("golden_cycles", result.golden_cycles)
                .field("ladder_rungs", self.ladder.len())
                .field("pruned", pruned)
                .field("seconds", seconds)
                .field("injections_per_second", per_second),
        );
        if H::SPANS {
            hook.span(
                &SpanRecord::new(
                    format!(
                        "point:{workload}@{device}/campaign:{}",
                        structure_label(structure)
                    ),
                    0,
                    campaign_phase_seq(structure),
                    started,
                )
                .tag("kind", cfg.fault_model.as_str())
                .tag("injections", tally.total())
                .tag("pruned", pruned),
            );
        }
        result
    }
}

/// One uniform campaign: a [`Campaign`] built for `cfg` and one
/// [`Campaign::run`] on it. Kept for the `perfbench/layers` harness,
/// which calls it; other code builds the [`Campaign`] itself.
///
/// # Errors
///
/// Fails if the fault-free golden run fails, or if a replay fails with a
/// non-DUE simulator error (which indicates a harness bug, not a fault
/// effect).
pub fn run_campaign_hooked<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    structure: Structure,
    cfg: CampaignConfig,
    hook: &H,
) -> Result<CampaignResult, SimError> {
    Campaign::new(arch, workload, &cfg, Capture::campaign(&cfg), hook)?.run(structure, cfg, hook)
}

/// [`Campaign::run`] against a golden run, checkpoint ladder and
/// [`LifetimeOracle`] the caller built: sampled sites falling outside
/// every live interval of their word are pre-classified as `Masked`
/// without a replay (rung label `pruned`), and only the live remainder
/// fans out to the worker pool. Pruning is exact — tallies are
/// bit-identical to an unpruned run at any job count — because a pruned
/// flip is erased before any read could propagate it. Passing `None`
/// disables pruning regardless of `cfg.prune`. Kept for the `perfbench/layers` harness
/// and `repro bench-campaign`, which time the setup passes one by one.
///
/// # Errors
///
/// Propagates replay failures that are not fault classifications.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_with_oracle_hooked<H: TelemetryHook>(
    arch: &ArchConfig,
    workload: &dyn Workload,
    structure: Structure,
    cfg: CampaignConfig,
    golden: &GoldenRun,
    ladder: &CheckpointLadder,
    oracle: Option<&LifetimeOracle>,
    hook: &H,
) -> Result<CampaignResult, SimError> {
    let cfg = CampaignConfig {
        prune: oracle.is_some(),
        ..cfg
    };
    Campaign::lent(arch, workload, golden, ladder, oracle).run(structure, cfg, hook)
}

/// [`Campaign::replay`] against a golden run and checkpoint ladder the
/// caller built; a ladder of the start alone (a one-byte budget)
/// resumes every replay from the run's start checkpoint. Outcomes are
/// byte-identical to from-zero replay; only wall-clock time
/// changes. Kept for the `perfbench/layers` harness and `repro
/// bench-campaign`, which time the ladder on its own.
///
/// # Errors
///
/// Propagates replay failures that are not fault classifications.
pub fn run_injections_checkpointed(
    arch: &ArchConfig,
    workload: &dyn Workload,
    golden: &GoldenRun,
    ladder: &CheckpointLadder,
    sites: &[FaultSite],
    cfg: CampaignConfig,
) -> Result<Vec<Outcome>, SimError> {
    Campaign::lent(arch, workload, golden, ladder, None).replay(sites, cfg, &NoopHook)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::quadro_fx_5600;
    use gpu_workloads::{Histogram, VectorAdd};
    use simt_sim::FaultKind;
    use simt_sim::FaultModelKind::Transient;

    fn small_cfg(n: u32) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            seed: 99,
            threads: 2,
            watchdog_factor: 10,
            checkpoint_interval: 0,
            checkpoint_budget_bytes: 0,
            prune: true,
            early_exit: true,
            fault_model: FaultModelKind::Transient,
            batch: true,
            convergence: 0,
        }
    }

    #[test]
    fn a_traced_golden_pass_records_its_seal() {
        use grel_telemetry::{SpanHook, SpanRecorder};
        let (arch, w) = (quadro_fx_5600(), VectorAdd::new(256, 3));
        let seal = |capture| {
            let recorder = SpanRecorder::new();
            golden_pass(&arch, &w, capture, None, &SpanHook::new(&recorder)).unwrap();
            let tree = recorder.finish();
            let node = tree.spans.iter().find(|n| n.name == "seal");
            node.map(|n| (n.path.clone(), n.tags.clone()))
        };
        let oracle = Capture {
            oracle: true,
            ..Capture::default()
        };
        let (path, tags) = seal(oracle).expect("a seal span");
        assert_eq!(path, format!("point:vectoradd@{}/golden/seal", arch.name));
        let tag = |k: &str| tags.iter().find(|(key, _)| key == k).unwrap().1.clone();
        let sealed = LifetimeOracle::capture(&arch, &w).unwrap();
        assert_eq!(tag("intervals"), sealed.intervals().to_string());
        assert_eq!(tag("bytes"), sealed.bytes().to_string());
        assert!(sealed.intervals() > 0);
        let ace = Capture {
            ace: Some(AceMode::LiveUntilOverwrite),
            ..Capture::default()
        };
        let (_, tags) = seal(ace).expect("an ACE-only pass seals too");
        assert!(tags.contains(&("intervals".into(), "0".into())), "{tags:?}");
        assert_eq!(seal(Capture::default()), None, "no tracker, no seal");
    }

    #[test]
    fn golden_run_matches_reference() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let g = golden_run(&arch, &w).unwrap();
        assert_eq!(g.outputs, w.reference());
        assert!(g.cycles > 0);
    }

    #[test]
    fn sites_are_deterministic_and_in_range() {
        let arch = quadro_fx_5600();
        let a = sample_model_sites(&arch, Structure::VectorRegisterFile, Transient, 1000, 50, 7);
        let b = sample_model_sites(&arch, Structure::VectorRegisterFile, Transient, 1000, 50, 7);
        assert_eq!(a, b);
        for s in &a {
            assert!(s.sm < arch.num_sms);
            assert!(s.word < arch.rf_words_per_sm());
            assert!(s.bit < 32);
            assert!(s.cycle < 1000);
        }
        let c = sample_model_sites(&arch, Structure::VectorRegisterFile, Transient, 1000, 50, 8);
        assert_ne!(a, c, "different seed, different sites");
    }

    #[test]
    #[should_panic(expected = "no scalar register file")]
    fn sampling_missing_structure_panics() {
        let arch = quadro_fx_5600();
        let _ = sample_model_sites(&arch, Structure::ScalarRegisterFile, Transient, 100, 1, 0);
    }

    #[test]
    fn campaign_tally_sums_and_is_thread_invariant() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let mut cfg = small_cfg(16);
        let r1 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r1.tally.total(), 16);
        cfg.threads = 1;
        let r2 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r1.tally, r2.tally, "threading must not change outcomes");
        assert!(r1.avf() >= 0.0 && r1.avf() <= 1.0);
        assert!(r1.margin_99 > 0.0);
    }

    #[test]
    fn injections_into_lds_classify() {
        let arch = quadro_fx_5600();
        let w = Histogram::new(1024, 64, 5);
        let cfg = small_cfg(12);
        let r = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::LocalMemory, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r.tally.total(), 12);
    }

    #[test]
    fn ladder_rungs_are_ordered_and_bounded() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let golden = golden_run(&arch, &w).unwrap();
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &small_cfg(4)).unwrap();
        assert!(!ladder.is_empty(), "auto spacing must leave rungs");
        let cycles: Vec<u64> = (0..golden.cycles)
            .filter_map(|c| ladder.nearest(c).map(|ck| ck.cycle()))
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "rungs sorted by cycle"
        );
        assert!(cycles.iter().all(|&c| c < golden.cycles));
        assert!(ladder.total_bytes() > 0);
        // nearest() never returns a rung past the requested cycle.
        let first = ladder.nearest(u64::MAX).unwrap().cycle();
        assert!(ladder.nearest(first).unwrap().cycle() <= first);
        assert_eq!(
            ladder.nearest(0).unwrap().cycle(),
            0,
            "the start serves cycle 0"
        );
    }

    #[test]
    fn checkpointed_replay_matches_from_zero() {
        let arch = quadro_fx_5600();
        let w = Histogram::new(1024, 64, 5);
        let golden = golden_run(&arch, &w).unwrap();
        let cfg = small_cfg(16);
        let sites = sample_model_sites(
            &arch,
            Structure::LocalMemory,
            Transient,
            golden.cycles,
            cfg.injections,
            cfg.seed,
        );
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &cfg).unwrap();
        let mut zero = cfg;
        zero.checkpoint_budget_bytes = 1;
        let from_zero = Campaign::new(&arch, &w, &zero, Capture::default(), &NoopHook)
            .and_then(|setup| setup.replay(&sites, cfg, &NoopHook))
            .unwrap();
        let from_ckpt =
            run_injections_checkpointed(&arch, &w, &golden, &ladder, &sites, cfg).unwrap();
        assert_eq!(
            from_zero, from_ckpt,
            "checkpoint resume must not change outcomes"
        );
    }

    #[test]
    fn tiny_budget_degrades_to_fewer_rungs_not_wrong_answers() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let golden = golden_run(&arch, &w).unwrap();
        let mut cfg = small_cfg(8);
        cfg.checkpoint_budget_bytes = 1; // no snapshot fits
        let ladder = CheckpointLadder::build(&arch, &w, &golden, &cfg).unwrap();
        assert!(ladder.is_empty(), "a one-byte budget holds no snapshot");
        let r = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        cfg.checkpoint_budget_bytes = 0;
        let r2 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r.tally, r2.tally, "budget tuning must not change outcomes");
    }

    #[test]
    fn hooked_campaign_matches_noop_and_accounts_for_every_injection() {
        use grel_telemetry::{MemorySink, MetricsRegistry, RegistryHook};
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let cfg = small_cfg(12);
        let plain = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();

        let reg = MetricsRegistry::new();
        let sink = MemorySink::new();
        let hook = RegistryHook::with_sink(&reg, &sink);
        let hooked =
            run_campaign_hooked(&arch, &w, Structure::VectorRegisterFile, cfg, &hook).unwrap();
        assert_eq!(plain.tally, hooked.tally, "the hook must only observe");
        assert_eq!(plain.golden_cycles, hooked.golden_cycles);

        let snap = reg.snapshot();
        let by_outcome: u64 = Outcome::ALL
            .iter()
            .map(Outcome::as_str)
            .filter_map(|o| snap.counter(&format!("campaign_injections_total{{outcome=\"{o}\"}}")))
            .sum();
        assert_eq!(by_outcome, 12, "every injection lands in one outcome");
        let by_rung: u64 = snap
            .counters()
            .filter(|(n, _)| n.starts_with("campaign_rung_hits_total"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(by_rung, 12, "every injection hits exactly one rung bin");
        assert_eq!(
            snap.histogram("campaign_injection_seconds")
                .map_or(0, |h| h.count()),
            12 - snap.counter("campaign_pruned_total").unwrap_or(0),
            "one latency sample per replayed (unpruned) injection"
        );
        assert!(
            snap.counter("campaign_cycles_saved_total").unwrap_or(0) > 0,
            "checkpoint resume must save cycles on this workload"
        );
        let rungs = sink
            .events()
            .iter()
            .find(|e| e.name() == "ladder.done")
            .and_then(|e| e.get("rungs")?.as_u64());
        assert!(
            rungs.unwrap_or(0) > 0,
            "the ladder.done event reports rungs"
        );
        assert!(snap.histogram("campaign_seconds").unwrap().count() == 1);
    }

    #[test]
    fn proportion_uses_population() {
        let r = CampaignResult {
            structure: Structure::VectorRegisterFile,
            tally: Tally {
                masked: 89,
                sdc: 8,
                due: 2,
                hang: 1,
            },
            golden_cycles: 1_000_000,
            population: 1 << 40,
            margin_99: 0.1,
        };
        assert!((r.avf() - 0.11).abs() < 1e-12, "hangs count as failures");
        assert!((r.avf_sdc() - 0.08).abs() < 1e-12);
        let p = r.proportion().unwrap();
        assert_eq!(p.hits, 11);
        assert_eq!(p.trials, 100);
        assert_eq!(
            p.margin_99.to_bits(),
            error_margin(1 << 40, 100, Z_99).to_bits(),
            "proportion margin uses the campaign's finite population"
        );
    }

    #[test]
    fn empty_campaign_reports_no_estimate() {
        let r = CampaignResult {
            structure: Structure::VectorRegisterFile,
            tally: Tally::default(),
            golden_cycles: 1000,
            population: 1 << 30,
            margin_99: 0.0,
        };
        assert_eq!(r.avf(), 0.0);
        assert!(r.proportion().is_none(), "zero trials is not an estimate");
    }

    #[test]
    fn sampled_sites_are_distinct() {
        let arch = quadro_fx_5600();
        // A deliberately tiny window so with-replacement sampling would
        // collide with near-certainty (population = num_sms·words·32·2).
        let sites = sample_model_sites(&arch, Structure::VectorRegisterFile, Transient, 2, 500, 13);
        let unique: std::collections::HashSet<_> = sites.iter().copied().collect();
        assert_eq!(unique.len(), sites.len(), "sites must be distinct");
    }

    #[test]
    fn sampling_the_whole_population_yields_a_permutation() {
        // The Fisher–Yates index map stays O(n) even at the degenerate
        // extreme n == population, where the draw must visit every site
        // exactly once.
        let mut arch = quadro_fx_5600();
        arch.num_sms = 2;
        arch.regfile_bytes_per_sm = 8; // two words: population = 2·2·32·2
        let population = 2 * 2 * 32 * 2;
        let sites = sample_model_sites(
            &arch,
            Structure::VectorRegisterFile,
            Transient,
            2,
            population,
            41,
        );
        assert_eq!(sites.len(), population as usize);
        let unique: std::collections::HashSet<_> = sites.iter().copied().collect();
        assert_eq!(unique.len(), sites.len(), "a full draw is a permutation");
        for s in &sites {
            assert!(s.sm < 2 && s.word < 2 && s.bit < 32 && s.cycle < 2);
        }
    }

    #[test]
    fn stuck_model_reuses_the_storage_population() {
        let arch = quadro_fx_5600();
        let flips = sample_model_sites(&arch, Structure::VectorRegisterFile, Transient, 500, 40, 3);
        let stuck = sample_model_sites(
            &arch,
            Structure::VectorRegisterFile,
            FaultModelKind::Stuck1,
            500,
            40,
            3,
        );
        // Same coordinates (a permanent fault still names a storage cell
        // and an onset cycle), different kind.
        for (f, s) in flips.iter().zip(&stuck) {
            assert_eq!(
                (f.structure, f.sm, f.word, f.bit, f.cycle),
                (s.structure, s.sm, s.word, s.bit, s.cycle)
            );
            assert_eq!(s.kind, FaultKind::StuckAt1);
        }
    }

    #[test]
    fn control_sites_are_deterministic_and_in_range() {
        let arch = quadro_fx_5600();
        let a = sample_model_sites(
            &arch,
            Structure::VectorRegisterFile,
            FaultModelKind::Control,
            1000,
            60,
            7,
        );
        let b = sample_model_sites(
            &arch,
            Structure::VectorRegisterFile,
            FaultModelKind::Control,
            1000,
            60,
            7,
        );
        assert_eq!(a, b);
        let mut targets_seen = std::collections::HashSet::new();
        for s in &a {
            assert!(s.sm < arch.num_sms);
            assert!(s.word < arch.max_warps_per_sm, "word is the warp slot");
            assert!(s.bit < 32);
            assert!(s.cycle < 1000);
            match s.kind {
                FaultKind::Control(t) => {
                    targets_seen.insert(t);
                }
                k => panic!("control model sampled a {k} site"),
            }
        }
        assert!(
            targets_seen.len() >= 2,
            "60 draws should cover several targets"
        );
    }

    #[test]
    fn control_campaign_on_barrier_workload_produces_hangs_or_dues() {
        use gpu_workloads::Reduction;
        // A small device saturated by the workload: 8 blocks of 4 warps
        // fill both SMs' 16 warp slots, so sampled control sites mostly
        // land on *live* scheduler/mask/barrier state.
        let arch = ArchConfig::small_test_gpu();
        let w = Reduction::new(256, 32, 5);
        let mut cfg = small_cfg(32);
        cfg.fault_model = FaultModelKind::Control;
        let r = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r.tally.total(), 32);
        assert!(
            r.tally.hang + r.tally.due > 0,
            "corrupting live scheduler/barrier state must produce a hang or DUE: {:?}",
            r.tally
        );
        // Determinism across job counts for the new model.
        cfg.threads = 1;
        let r1 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r.tally, r1.tally, "control model must stay deterministic");
    }

    #[test]
    fn stuck_campaign_runs_deterministically() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let mut cfg = small_cfg(16);
        cfg.fault_model = FaultModelKind::Stuck1;
        let r2 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        cfg.threads = 1;
        let r1 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r2.tally, r1.tally);
        assert_eq!(r2.tally.total(), 16);
    }

    #[test]
    fn watchdog_budget_saturates_instead_of_overflowing() {
        // `golden_cycles · u64::MAX + 10_000` would overflow; the budget
        // must clamp to "effectively never" and the campaign complete.
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let mut cfg = small_cfg(8);
        cfg.watchdog_factor = u64::MAX;
        let r = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(r.tally.total(), 8);
        cfg.watchdog_factor = 10;
        let r2 = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(
            r.tally, r2.tally,
            "a clamped budget must not reclassify non-hanging runs"
        );
    }

    #[test]
    fn batched_campaign_matches_scalar() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        for prune in [false, true] {
            let mut cfg = small_cfg(24);
            cfg.prune = prune;
            cfg.batch = true;
            let batched = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
                .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
                .unwrap();
            cfg.batch = false;
            let scalar = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
                .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
                .unwrap();
            assert_eq!(
                batched.tally, scalar.tally,
                "batching must not change outcomes (prune = {prune})"
            );
        }
    }

    #[test]
    fn batch_keeps_only_snapshots_a_fork_resumes_from() {
        use grel_telemetry::{MetricsRegistry, RegistryHook};
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let mut cfg = small_cfg(64);
        let setup = Campaign::new(&arch, &w, &cfg, Capture::default(), &NoopHook).unwrap();
        let ctx = setup.context(&cfg, &NoopHook);
        let mut sites = sample_model_sites(
            &arch,
            Structure::VectorRegisterFile,
            Transient,
            setup.golden().cycles,
            simt_sim::MAX_BATCH_SCENARIOS as u32,
            7,
        );
        sites.sort_by_key(|s| s.cycle);
        let mut gpu = Gpu::new(arch.clone());
        let (_, start) = setup.ladder().nearest_indexed(0);
        let rep = classify_batch_on(&ctx, &mut gpu, &sites, start).unwrap();
        assert!(!rep.fell_back);
        assert!(rep.forks > 0, "vectoradd lanes fork on address registers");
        assert!(
            rep.snapshots <= rep.forks + 1,
            "{} snapshots retained for {} forks",
            rep.snapshots,
            rep.forks
        );
        for (&site, &outcome) in sites.iter().zip(&rep.outcomes) {
            let scalar = classify_on(&ctx, &mut gpu, &[site], start, &mut NoopObserver).unwrap();
            assert_eq!(outcome, scalar, "site {site:?}");
        }

        // The campaign-level counter obeys the same bound per batch.
        cfg.prune = false;
        let reg = MetricsRegistry::new();
        let batched = run_campaign_hooked(
            &arch,
            &w,
            Structure::VectorRegisterFile,
            cfg,
            &RegistryHook::new(&reg),
        )
        .unwrap();
        cfg.batch = false;
        let scalar = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)
            .and_then(|setup| setup.run(Structure::VectorRegisterFile, cfg, &NoopHook))
            .unwrap();
        assert_eq!(batched.tally, scalar.tally);
        let snap = reg.snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        let retained = counter("campaign_batch_snapshots_total");
        assert!(retained > 0);
        assert!(
            retained <= counter("campaign_batch_forks_total") + counter("campaign_batches_total"),
            "retained snapshots exceed forks + one per batch"
        );
    }

    #[test]
    fn oversampling_saturates_to_the_full_population() {
        let mut arch = quadro_fx_5600();
        arch.num_sms = 1;
        arch.regfile_bytes_per_sm = 4; // one word: population = 32 * cycles
        let sites = sample_model_sites(&arch, Structure::VectorRegisterFile, Transient, 2, 1000, 0);
        assert_eq!(sites.len(), 64, "request above the population saturates");
        let mut seen: Vec<_> = sites
            .iter()
            .map(|s| (s.sm, s.word, s.bit, s.cycle))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64, "saturated draw is exhaustive and distinct");
    }
}
