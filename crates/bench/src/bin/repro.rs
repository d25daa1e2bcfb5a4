//! `repro` — regenerates every figure of the ISPASS 2017 paper.
//!
//! The commands and options are documented once, in [`HELP`], which
//! `repro --help` prints.
//!
//! Every command returns `Result<(), String>`. `main` is the one place
//! that reports a failure and exits 1: as `error: …` (followed by the
//! help for a bad argument) before the logger exists, through the
//! logger after. A reader that closes stdout early (`repro … | head`)
//! ends the command quietly with exit 0.

use gpu_archs::all_devices;
use gpu_workloads::Workload;
use grel_bench::{
    render_avf_figure, render_epf_figure, render_experiments_markdown, render_findings, to_csv,
    workload_set, Scale,
};
use grel_core::ace::{AceMode, LifetimeOracle};
use grel_core::campaign::{
    golden_run, golden_run_with_ace, run_campaign_with_oracle_hooked, run_injections_checkpointed,
    sample_model_sites, Campaign, CampaignConfig, Capture, CheckpointLadder,
};
use grel_core::epf::structure_fit;
use grel_core::sampling::SamplingPlan;
use grel_core::stats::{error_margin, required_sample_size, Z_99};
use grel_core::study::{
    evaluate_point_hooked, run_study_parallel_hooked, CampaignMode, StudyConfig, StudyResult,
};
use grel_telemetry::{
    Event, EventSink, JsonlSink, LogLevel, Logger, MetricsRegistry, NoopHook, NullSink,
    ProgressHook, RegistryHook, SpanHook, SpanRecorder, SpanTree, TelemetryHook,
};
use simt_sim::{
    ArchConfig, FaultModelKind, Gpu, HotspotObserver, SchedulerPolicy, SimError, Structure,
};
use std::any::Any;
use std::fmt::Display;
use std::io::Write;
use std::panic;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

struct Args {
    command: String,
    injections: u32,
    seed: u64,
    threads: usize,
    scale: Scale,
    device: Option<String>,
    workload: Option<String>,
    csv: Option<String>,
    json: Option<String>,
    experiments: Option<String>,
    checkpoint_interval: u64,
    no_checkpoints: bool,
    no_prune: bool,
    no_batch: bool,
    metrics: Option<String>,
    progress: bool,
    log_level: LogLevel,
    report_path: Option<String>,
    mode: CampaignMode,
    site: Option<String>,
    fault_model: FaultModelKind,
    profile: Option<String>,
    convergence: Option<u64>,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "all".into(),
        injections: 200,
        seed: 2017,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        scale: Scale::Default,
        device: None,
        workload: None,
        csv: None,
        json: None,
        experiments: None,
        checkpoint_interval: 0,
        no_checkpoints: false,
        no_prune: false,
        no_batch: false,
        metrics: None,
        progress: false,
        log_level: LogLevel::Info,
        report_path: None,
        mode: CampaignMode::Uniform,
        site: None,
        fault_model: FaultModelKind::Transient,
        profile: None,
        convergence: None,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "fig1" | "fig2" | "fig3" | "findings" | "stats" | "all" | "outcomes" | "perf"
            | "bits" | "phases" | "mbu" | "protect" | "ablate-sched" | "ablate-rfsize"
            | "ablate-ace" | "bench-campaign" | "report" | "trace" | "profile" | "drift" => {
                args.command = a
            }
            "--injections" => args.injections = flag_value(&a, it.next())?,
            "--paper" => args.injections = 2000,
            "--seed" => args.seed = flag_value(&a, it.next())?,
            "--jobs" | "-j" | "--threads" => args.threads = count_value(&a, it.next())?,
            other if other.starts_with("-j") => {
                args.threads = count_value("-j", Some(other[2..].to_string()))?
            }
            "--smoke" => args.scale = Scale::Smoke,
            "--device" => args.device = Some(flag_value(&a, it.next())?),
            "--workload" => args.workload = Some(flag_value(&a, it.next())?),
            "--checkpoint-interval" => args.checkpoint_interval = flag_value(&a, it.next())?,
            "--no-checkpoints" => args.no_checkpoints = true,
            "--no-prune" => args.no_prune = true,
            "--no-batch" => args.no_batch = true,
            "--fault-model" => args.fault_model = flag_value(&a, it.next())?,
            "--provenance" => args.mode = mode_once(args.mode, CampaignMode::Traced)?,
            "--target-margin" => {
                let m: f64 = flag_value(&a, it.next())?;
                if !(m.is_finite() && m > 0.0 && m < 1.0) {
                    return Err("--target-margin must be in (0, 1)".into());
                }
                let plan = SamplingPlan::with_target(m);
                args.mode = mode_once(args.mode, CampaignMode::Adaptive(plan))?;
            }
            "--convergence" => args.convergence = Some(flag_value(&a, it.next())?),
            "--profile" => args.profile = Some(flag_value(&a, it.next())?),
            "--site" => args.site = Some(flag_value(&a, it.next())?),
            "--metrics" => args.metrics = Some(flag_value(&a, it.next())?),
            "--progress" => args.progress = true,
            "--quiet" | "-q" => args.log_level = LogLevel::Quiet,
            "-v" | "--verbose" => args.log_level = LogLevel::Debug,
            "--csv" => args.csv = Some(flag_value(&a, it.next())?),
            "--json" => args.json = Some(flag_value(&a, it.next())?),
            "--experiments" => args.experiments = Some(flag_value(&a, it.next())?),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other if args.command == "report" && args.report_path.is_none() => {
                args.report_path = Some(other.to_string())
            }
            other if args.command == "drift" && args.baseline.is_none() => {
                args.baseline = Some(other.to_string())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.command == "report" && args.report_path.is_none() {
        return Err("report needs the path of a --metrics JSONL file".into());
    }
    Ok(args)
}

/// The campaign mode after a flag asks for `next`: `--provenance` and
/// `--target-margin` each pick one, and they do not combine.
fn mode_once(mode: CampaignMode, next: CampaignMode) -> Result<CampaignMode, String> {
    match (mode, next) {
        (CampaignMode::Traced, CampaignMode::Adaptive(_))
        | (CampaignMode::Adaptive(_), CampaignMode::Traced) => Err(
            "--target-margin cannot be combined with --provenance (the flight \
             recorder traces a fixed uniform sample)"
                .into(),
        ),
        _ => Ok(next),
    }
}

/// Parses the value given to `flag` (`None` when the arguments ran out).
fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T::Err: Display,
{
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

/// [`flag_value`] for a count that must be at least 1 (`--jobs`, `-jN`).
fn count_value<T>(flag: &str, value: Option<String>) -> Result<T, String>
where
    T: FromStr + PartialOrd + From<u8>,
    T::Err: Display,
{
    let n: T = flag_value(flag, value)?;
    if n < T::from(1) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

const HELP: &str = "repro — regenerate the figures of \
'Microarchitecture Level Reliability Comparison of Modern GPU Designs' (ISPASS 2017)

usage: repro [COMMAND] [--injections N] [--paper] [--seed S] [--jobs N]
             [--smoke] [--device NAME] [--workload NAME]
             [--csv PATH] [--json PATH] [--experiments PATH]
             [--checkpoint-interval N] [--no-checkpoints] [--no-prune] [--no-batch]
             [--fault-model transient|stuck0|stuck1|control] [--provenance]
             [--target-margin M]
             [--metrics PATH] [--progress] [--convergence N]
             [--profile PATH] [-q|--quiet] [-v|--verbose] [-h|--help]
       repro profile [study options]
       repro report <metrics.jsonl>
       repro drift [BASELINE.json] [study options]
       repro trace --site sm:struct:word:bit:cycle[:kind] [--device D] [--workload W]

commands:
  fig1          register-file AVF: FI vs ACE vs occupancy  (paper Fig. 1)
  fig2          local-memory AVF                           (paper Fig. 2)
  fig3          executions per failure                     (paper Fig. 3)
  findings      the paper's F1..F4 claims, quantified
  stats         footnote-4 sample-size calibration
  all           everything above (default)
  outcomes      masked/SDC/DUE breakdown per point
  perf          performance profile (cycles, IPC, cache hit rates) per point
  bits          extension: AVF by bit position within the 32-bit word
  phases        extension: AVF by execution phase (early vs late flips)
  mbu           extension: single vs adjacent double/quad bit upsets
  protect       extension: EPF under none/parity/SECDED protection
  ablate-sched  extension: warp scheduler (LRR vs GTO) vs AVF and cycles
  ablate-rfsize extension: register-file size sweep vs AVF and FIT
  ablate-ace    extension: conservative vs refined ACE vs FI
  bench-campaign  measure checkpointed-replay speedup and --jobs scaling
  drift         baseline drift sentinel: re-run the study and compare each
                point against a committed baseline JSON (default
                ci/fault-model-baseline.json; override with a positional
                path). Deterministic fields must match exactly; sampled
                AVFs may move within the fresh run's 99% interval. Exits
                nonzero on drift. Run with the same flags the baseline
                was generated with (CI: --smoke --injections 40 --seed 7).
                --device/--workload compare only the points they select,
                and the telemetry flags (--metrics, --progress, --profile)
                apply as for any study command
  profile       run the study with span tracing on, print the phase /
                hot-spot profile and write a Perfetto-loadable Chrome
                trace (default profile_trace.json; override --profile)
  report        render a markdown run report from a --metrics JSONL file
  trace         explain one injection: flip -> first read/overwrite ->
                divergence, masking reason or failure cause
                (--site sm:struct:word:bit:cycle[:kind], struct one of
                rf|lds|srf, kind one of transient|stuck0|stuck1|
                ctrl-<sched|mask|sboard|barrier>; one device + workload
                selected with --device/--workload, first match wins)

parallelism:
  --jobs N (-j N, -jN, alias --threads) sets the worker-thread count.
  Study commands split the threads across study points: min(N, points)
  workers each take the next unclaimed point, and each point's campaigns
  get N / workers threads. A one-point study runs its campaigns on all
  N threads. The determinism contract guarantees bit-identical campaign
  and study results at any job count: only wall-clock time changes.

fault models:
  --fault-model selects the injected fault family. `transient` (default)
  is the paper's single-bit flip. `stuck0`/`stuck1` are permanent cell
  faults that re-assert on every write of the target word. `control`
  corrupts parallelism-management state (scheduler slot, per-warp active
  mask, scoreboard entry, block barrier counter) instead of a storage
  array, so a control study runs one campaign per point (labelled RF;
  the LDS columns read as for a workload that does not use the LDS: FI
  AVF 0, FIT from ACE). A replay that stops making progress is cut off
  by a watchdog and classified as a hang (reported separately from
  DUE). Lifetime pruning applies only to the transient model — it is
  unsound for persistent and control faults and is bypassed
  automatically.

pruning:
  Campaigns pre-classify sampled sites against a lifetime oracle captured
  from one instrumented golden run: a flip landing after a word's last
  read (or before its first write, or in unallocated space) is recorded
  as masked without a replay. Pruning is exact — --no-prune disables it
  and produces bit-identical tallies, only slower.

telemetry:
  --metrics PATH writes one JSON object per line: structured events
  (golden.done, ladder.done, campaign.done, campaign.convergence,
  study.point, log) while the study runs, then the final
  counter/gauge/histogram values. --progress draws a live done/total +
  inj/s + ETA line on stderr. Neither flag changes campaign results.
  campaign.convergence events stream into --metrics every --convergence
  N merged injections (default 100) with the running AVF, its 99%
  finite-population interval and the projected injections still needed
  to reach the paper's +/-2.88% target; the event stream is a pure
  function of the merged outcome order, so it is byte-identical at any
  --jobs.

profiling:
  --profile PATH records a hierarchical span for every study phase
  (golden run and its lifetime seal, checkpoint ladder, prune, replay,
  merge) and every campaign injection, then writes a Chrome trace-event
  JSON to PATH — load it at https://ui.perfetto.dev or chrome://tracing.
  PATH.tree gets the duration-stripped structural span tree, which is
  byte-identical at any --jobs. Spans never change campaign results.

adaptive sampling:
  --target-margin M replaces the fixed --injections budget with a stop
  rule: each campaign stratifies its site population (dead vs live per
  the lifetime oracle, fault-cycle quartile, bit half), draws a
  deterministic pilot per stratum (its share of the uniform sample that
  reaches M, 1 to 8 sites), then Neyman-allocates further rounds to the
  high-variance strata until the post-stratified 99% margin is at or
  below M. The same seed-stable site stream and striped
  worker pool as the uniform path are used, so adaptive tallies are
  bit-identical at any --jobs and with pruning/batching on or off.
  Incompatible with --provenance.

provenance:
  --provenance turns the fault-propagation flight recorder on for every
  campaign injection: each replay additionally emits an injection.trace
  event (first-read latency, taint breadth, cycles to divergence,
  masking reason) and the campaign publishes provenance_* attribution
  metrics (SDC rate per RF word region / LDS bank). Tallies and study
  results are identical with or without it.";

fn main() -> ExitCode {
    // `println!` panics once a write to stdout fails. That panic ends
    // the command: the hook keeps its backtrace off stderr and the
    // unwind stops here. A closed stdout (a reader that stopped early)
    // ends it quietly; any other write error is the command's failure.
    // Any other panic reports and exits as usual.
    let report = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if stdout_failure(info.payload()).is_none() {
            report(info);
        }
    }));
    let result =
        panic::catch_unwind(repro).unwrap_or_else(|payload| match stdout_failure(&*payload) {
            Some(message) if message.contains("Broken pipe") => Ok(()),
            Some(message) => Err(Some(message.to_string())),
            None => panic::resume_unwind(payload),
        });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            // Like the logger, drop the error a closed stderr gives
            // instead of panicking on it.
            if let Some(message) = message {
                let _ = writeln!(std::io::stderr(), "error: {message}");
            }
            ExitCode::FAILURE
        }
    }
}

/// The message of a panic that is `println!` failing to write stdout.
fn stdout_failure(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<String>()
        .filter(|message| message.starts_with("failed printing to stdout"))
        .map(String::as_str)
}

/// Parses the arguments and runs the command. A failure carries the
/// message `main` reports, or `None` when the logger reported it.
fn repro() -> Result<(), Option<String>> {
    let args = parse_args().map_err(|e| Some(format!("{e}\n{HELP}")))?;
    // `report` and `stats` run without a logger; every other command
    // opens the metrics sink first.
    let sink = match args.command.as_str() {
        "report" => return render_report(&args).map_err(Some),
        "stats" => return print_stats().map_err(Some),
        _ => open_sink(&args).map_err(Some)?,
    };
    // Every status line goes through the level-gated logger; with
    // --metrics the sink also receives each line as a `log` event, so
    // stdout stays purely machine-parseable figure output.
    let log = Logger::with_sink(args.log_level, Arc::clone(&sink));
    run(&args, &sink, &log).map_err(|e| {
        log.error(&e);
        None
    })
}

/// `repro report <metrics.jsonl>`: renders the markdown run report.
fn render_report(args: &Args) -> Result<(), String> {
    // `parse_args` refuses `report` without a path.
    let path = args.report_path.as_deref().unwrap_or_default();
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let md = grel_bench::report::render_run_report(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{md}");
    Ok(())
}

/// `repro stats`: the paper's footnote-4 sample-size calibration.
fn print_stats() -> Result<(), String> {
    println!("== Statistical fault injection calibration (paper footnote 4) ==");
    for n in [200u64, 500, 1000, 2000, 5000] {
        println!(
            "  {n:>5} injections -> +/-{:.2}% at 99% confidence",
            error_margin(u64::MAX, n, Z_99) * 100.0
        );
    }
    println!(
        "  2.88% at 99% confidence needs {} injections (paper uses 2000)",
        required_sample_size(u64::MAX, 0.0288, Z_99)
    );
    Ok(())
}

/// The `--metrics` JSONL sink, or a sink that drops every event.
fn open_sink(args: &Args) -> Result<Arc<dyn EventSink>, String> {
    let sink: Arc<dyn EventSink> = match &args.metrics {
        Some(path) => Arc::new(
            JsonlSink::to_file(Path::new(path))
                .map_err(|e| format!("cannot open metrics file {path}: {e}"))?,
        ),
        None => Arc::new(NullSink),
    };
    Ok(sink)
}

/// Every command that logs: selects the devices and workloads, builds
/// the study configuration and runs the command.
fn run(args: &Args, sink: &Arc<dyn EventSink>, log: &Logger) -> Result<(), String> {
    let mut archs = all_devices();
    if let Some(d) = &args.device {
        let dl = d.to_ascii_lowercase();
        archs.retain(|a| {
            a.name.to_ascii_lowercase().contains(&dl)
                || a.microarch.to_ascii_lowercase().contains(&dl)
        });
        if archs.is_empty() {
            return Err(format!("no device matches '{d}'"));
        }
    }
    let mut workloads = workload_set(args.scale, args.seed);
    if let Some(w) = &args.workload {
        let wl = w.to_ascii_lowercase();
        workloads.retain(|x| x.name().to_ascii_lowercase().contains(&wl));
        if workloads.is_empty() {
            return Err(format!("no workload matches '{w}'"));
        }
    }

    let cfg = StudyConfig {
        campaign: CampaignConfig {
            injections: args.injections,
            seed: args.seed,
            threads: args.threads,
            watchdog_factor: 10,
            checkpoint_interval: args.checkpoint_interval,
            // A one-byte budget holds no rung: every replay starts at
            // the run's start checkpoint, which is exactly what
            // --no-checkpoints promises.
            checkpoint_budget_bytes: if args.no_checkpoints { 1 } else { 0 },
            prune: !args.no_prune,
            fault_model: args.fault_model,
            batch: !args.no_batch,
            convergence: args.convergence.unwrap_or(100),
            ..CampaignConfig::paper(args.seed)
        },
        mode: args.mode,
    };

    let (points, cfg) = (&Points { archs, workloads }, &cfg);
    let done = match args.command.as_str() {
        "trace" => trace_site(points, args, log),
        "drift" => drift_sentinel(points, cfg, args, sink, log),
        "bench-campaign" => bench_campaign(points, cfg, log),
        "ablate-sched" => ablate_scheduler(points, cfg),
        "ablate-rfsize" => ablate_rf_size(points, cfg),
        "ablate-ace" => ablate_ace(points, cfg),
        "perf" => perf_table(points),
        "bits" => bit_sensitivity(points, cfg),
        "phases" => phase_sensitivity(points, cfg),
        "mbu" => mbu_table(points, cfg),
        "protect" => protect_table(points, cfg),
        _ => study_command(points, cfg, args, sink, log),
    };
    sink.flush();
    done
}

/// One column of a text table: its header, width and alignment.
struct Col {
    name: &'static str,
    width: usize,
    left: bool,
}

/// A table's columns, declared once in the terms of a format spec:
/// `"<12 workload, >9 cycles"` is a left-aligned column 12 wide headed
/// `workload`, then a right-aligned one 9 wide headed `cycles`. The
/// header and every row of the table are rendered from this list.
fn columns(spec: &'static str) -> Vec<Col> {
    let col = |c: &'static str| {
        let (fmt, name) = c
            .split_once(' ')
            .expect("a column reads `<W name` or `>W name`");
        Col {
            name,
            width: fmt[1..].parse().expect("a column width is a number"),
            left: fmt.starts_with('<'),
        }
    };
    spec.split(", ").map(col).collect()
}

/// The cells of one table row, unpadded.
type Row = Vec<String>;

/// Renders `cells` under `cols`: each cell padded to its column's width
/// and alignment, one space apart. A row may stop short of the last
/// columns.
fn row<S: AsRef<str>>(cols: &[Col], cells: &[S]) -> String {
    let padded: Vec<String> = cols
        .iter()
        .zip(cells)
        .map(|(c, s)| match c.left {
            true => format!("{:<1$}", s.as_ref(), c.width),
            false => format!("{:>1$}", s.as_ref(), c.width),
        })
        .collect();
    padded.join(" ")
}

/// Prints `title`, the header of `cols`, then `rows`.
fn print_table(title: &str, cols: &[Col], rows: impl IntoIterator<Item = Row>) {
    println!("{title}");
    let names: Vec<&str> = cols.iter().map(|c| c.name).collect();
    println!("{}", row(cols, &names));
    for cells in rows {
        println!("{}", row(cols, &cells));
    }
}

/// Why a point of [`Points::table`] returned no rows.
enum PointError {
    /// The point failed: its row reads `workload device error` and the
    /// walk goes on.
    Sim(SimError),
    /// The command fails with this message.
    Stop(String),
}

impl From<SimError> for PointError {
    fn from(e: SimError) -> Self {
        PointError::Sim(e)
    }
}

impl From<String> for PointError {
    fn from(e: String) -> Self {
        PointError::Stop(e)
    }
}

/// The (workload, device) points the `--workload`/`--device` filters
/// select.
struct Points {
    archs: Vec<ArchConfig>,
    workloads: Vec<Box<dyn Workload>>,
}

impl Points {
    /// The one walk over the points, workload-major. Prints `title` and
    /// the header of `cols`, then the rows `point` returns for each
    /// point, and a blank line after each workload.
    fn table(
        &self,
        title: &str,
        cols: &[Col],
        mut point: impl FnMut(&ArchConfig, &dyn Workload) -> Result<Vec<Row>, PointError>,
    ) -> Result<(), String> {
        print_table(title, cols, []);
        let Points { archs, workloads } = self;
        for w in workloads {
            for arch in archs {
                match point(arch, w.as_ref()) {
                    Ok(rows) => rows
                        .iter()
                        .for_each(|cells| println!("{}", row(cols, cells))),
                    Err(PointError::Sim(e)) => {
                        println!("{} {e}", row(cols, &[w.name(), arch.name.as_str()]))
                    }
                    Err(PointError::Stop(e)) => return Err(e),
                }
            }
            println!();
        }
        Ok(())
    }
}

/// `x` as a percentage with one decimal (`0.1234` is `12.3%`).
fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// [`pct`], or `-` for NaN (no sample).
fn pct_or_dash(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else {
        pct(x)
    }
}

/// Runs the study through `hook`: the one study-runner call.
fn study_with_hook<H: TelemetryHook>(
    points: &Points,
    cfg: &StudyConfig,
    jobs: usize,
    hook: &H,
) -> Result<StudyResult, String> {
    run_study_parallel_hooked(&points.archs, &points.workloads, cfg, jobs, hook)
        .map_err(|e| format!("study failed: {e}"))
}

/// Writes `contents` to `path`; the error names the path.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// The one study run, for every command that runs the study (the study
/// commands and `drift`). Runs it under the telemetry the flags ask for:
/// `--metrics` (`run.meta`, the live events, then the final counter,
/// gauge and histogram values), `--progress` and `--profile` (implied by the
/// `profile` command; writes the Chrome trace and its `.tree`). Without
/// a telemetry flag the study runs through `NoopHook`, which compiles
/// the instrumentation out. Returns the study and, when profiling, its
/// span tree.
fn study_run(
    points: &Points,
    cfg: &StudyConfig,
    args: &Args,
    sink: &Arc<dyn EventSink>,
    log: &Logger,
) -> Result<(StudyResult, Option<SpanTree>), String> {
    let Points { archs, workloads } = points;
    if let CampaignMode::Adaptive(plan) = cfg.mode {
        log.info(&format!(
            "adaptive sampling: stop at +/-{:.2}% @ 99% \
             (pilot: each stratum's share of the uniform sample, 1 to 8 sites)",
            plan.target_margin * 100.0
        ));
    }
    let margin = error_margin(u64::MAX, args.injections.max(1) as u64, Z_99);
    log.info(&format!(
        "running study: {} workloads x {} devices, {} injections/structure (+/-{:.2}% @ 99%), {} jobs",
        workloads.len(),
        archs.len(),
        args.injections,
        margin * 100.0,
        args.threads
    ));
    log.debug(&format!(
        "checkpoints: interval {} cycles (0 = auto), budget {}",
        cfg.campaign.checkpoint_interval,
        if args.no_checkpoints {
            "disabled"
        } else {
            "auto"
        }
    ));

    let registry = MetricsRegistry::new();
    if args.metrics.is_some() {
        sink.emit(
            &Event::new("run.meta")
                .field("command", args.command.as_str())
                .field("injections", args.injections as u64)
                .field("fault_model", args.fault_model.as_str())
                .field("seed", args.seed)
                .field("threads", args.threads as u64)
                .field("jobs", args.threads as u64)
                .field("devices", archs.len() as u64)
                .field("workloads", workloads.len() as u64)
                .field(
                    "scale",
                    if args.scale == Scale::Smoke {
                        "smoke"
                    } else {
                        "default"
                    },
                ),
        );
    }
    // The `profile` command implies tracing; --profile turns it on for
    // any study command. The recorder outlives the hooks so the tree
    // can be assembled after the run.
    let profile_path = args
        .profile
        .clone()
        .or_else(|| (args.command == "profile").then(|| "profile_trace.json".to_string()));
    let recorder = profile_path.as_ref().map(|_| SpanRecorder::new());
    let telemetry_on = args.metrics.is_some() || args.progress;
    let per_point: u64 = workloads
        .iter()
        .map(|w| cfg.injected_structures(w.as_ref()).len() as u64)
        .sum();
    let progress_total = per_point * archs.len() as u64 * args.injections as u64;
    let jobs = args.threads;
    let start = std::time::Instant::now();
    let reg_hook = RegistryHook::with_sink(&registry, &**sink);
    let span_hook = recorder.as_ref().map(SpanHook::new);
    let progress = args.progress.then(|| ProgressHook::new(progress_total));
    // Without a telemetry flag the no-op hook compiles the
    // instrumentation out.
    let study = match (&span_hook, &progress, telemetry_on) {
        (Some(spans), Some(prog), _) => {
            study_with_hook(points, cfg, jobs, &((reg_hook, prog), spans))
        }
        (Some(spans), None, _) => study_with_hook(points, cfg, jobs, &(reg_hook, spans)),
        (None, Some(prog), _) => study_with_hook(points, cfg, jobs, &(reg_hook, prog)),
        (None, None, true) => study_with_hook(points, cfg, jobs, &reg_hook),
        (None, None, false) => study_with_hook(points, cfg, jobs, &NoopHook),
    };
    if let Some(prog) = &progress {
        prog.finish();
    }
    let study = study?;
    log.info(&format!("study completed in {:.1?}", start.elapsed()));

    if let Some(path) = &args.metrics {
        let snap = registry.snapshot();
        for (name, value) in snap.counters() {
            sink.emit(
                &Event::new("counter")
                    .field("name", name)
                    .field("value", value),
            );
        }
        for (name, value) in snap.gauges() {
            sink.emit(
                &Event::new("gauge")
                    .field("name", name)
                    .field("value", value),
            );
        }
        for (name, h) in snap.histograms() {
            sink.emit(
                &Event::new("histogram")
                    .field("name", name)
                    .field("count", h.count())
                    .field("sum", h.sum())
                    .field("mean", h.mean())
                    .field("min", h.min())
                    .field("max", h.max())
                    .field("p50", h.quantile(0.5))
                    .field("p90", h.quantile(0.9))
                    .field("p99", h.quantile(0.99)),
            );
        }
        sink.flush();
        log.info(&format!("wrote metrics to {path}"));
    }

    let mut profile_tree: Option<SpanTree> = None;
    if let (Some(recorder), Some(path)) = (&recorder, &profile_path) {
        let tree = recorder.finish();
        if tree.is_empty() {
            return Err("profiling produced no spans; refusing to write an empty trace".into());
        }
        if tree.dropped > 0 {
            log.info(&format!(
                "span ring overflowed: {} spans dropped (trace is still valid)",
                tree.dropped
            ));
        }
        write_file(path, tree.to_chrome_trace().to_string())?;
        let tree_path = format!("{path}.tree");
        write_file(&tree_path, tree.structural_text())?;
        log.info(&format!(
            "wrote Chrome trace to {path} ({} spans; structural tree: {tree_path})",
            tree.spans.len()
        ));
        profile_tree = Some(tree);
    }
    Ok((study, profile_tree))
}

/// The study commands (`fig1`…`fig3`, `findings`, `all`, `outcomes`,
/// `profile`): the one study run, then its figures and the files of
/// `--csv`, `--json` and `--experiments`.
fn study_command(
    points: &Points,
    cfg: &StudyConfig,
    args: &Args,
    sink: &Arc<dyn EventSink>,
    log: &Logger,
) -> Result<(), String> {
    let (study, profile_tree) = study_run(points, cfg, args, sink, log)?;
    let fig1 = || render_avf_figure("Fig. 1: Register File AVF", &study.fig1_rows());
    let fig2 = || render_avf_figure("Fig. 2: Local Memory AVF", &study.fig2_rows());
    let fig3 = || render_epf_figure(&study.fig3_rows());
    let findings = || render_findings(&study.findings());
    match args.command.as_str() {
        "fig1" => print!("{}", fig1()),
        "fig2" => print!("{}", fig2()),
        "fig3" => print!("{}", fig3()),
        "findings" => print!("{}", findings()),
        "outcomes" => print_table(
            &format!("fault model: {}", args.fault_model.as_str()),
            &columns(
                "<12 workload, <16 device, >9 struct, >1 |, >7 masked, >7 SDC, >7 DUE, \
                 >7 hang, >1 |, >7 masked, >7 SDC, >7 DUE, >7 hang",
            ),
            study.points.iter().map(|p| {
                let mut cells = vec![p.workload.clone(), p.device.clone(), "RF | LDS".into()];
                // A structure that got no campaign reads `-`, not zeros.
                for t in [&p.rf.tally, &p.lds.tally] {
                    cells.push("|".into());
                    cells.extend([t.masked, t.sdc, t.due, t.hang].map(|n| match t.total() {
                        0 => "-".into(),
                        _ => n.to_string(),
                    }));
                }
                cells
            }),
        ),
        "profile" => {
            if let Some(tree) = &profile_tree {
                println!("== Campaign profile: phase spans ==");
                println!("(per-injection and per-worker spans are in the Chrome trace)");
                for n in &tree.spans {
                    if n.name.starts_with("inj:") || n.name.starts_with("worker:") {
                        continue;
                    }
                    let tags = n
                        .tags
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    println!(
                        "{:indent$}{:<24} {:>10.3} ms  x{:<4} {}",
                        "",
                        n.name,
                        n.dur_us as f64 / 1e3,
                        n.count,
                        tags,
                        indent = 2 * n.depth as usize
                    );
                }
                println!();
            }
            points.table(
                "== Simulator hot spots (one clean run per point) ==",
                &columns(
                    "<12 workload, <16 device, >9 rf-acc, >9 rf-live, >9 lds-acc, >9 srf-acc, \
                     >9 dispatch, >8 launches, >9 cycles",
                ),
                |arch, w| {
                    let mut gpu = Gpu::new(arch.clone());
                    let mut obs = HotspotObserver::default();
                    w.run(&mut gpu, &mut obs)?;
                    Ok(vec![vec![
                        w.name().into(),
                        arch.name.clone(),
                        obs.rf.accesses().to_string(),
                        obs.rf.active_cycles().to_string(),
                        obs.lds.accesses().to_string(),
                        obs.srf.accesses().to_string(),
                        obs.sched_dispatches.to_string(),
                        obs.launches.to_string(),
                        obs.end_cycle.to_string(),
                    ]])
                },
            )?;
        }
        _ => print!("{}\n{}\n{}\n{}", fig1(), fig2(), fig3(), findings()),
    }

    let config_desc = format!(
        "{} injections/structure (+/-{:.2}% @ 99% confidence), {} fault model, seed {}, {} scale, devices: {}",
        args.injections,
        error_margin(u64::MAX, args.injections.max(1) as u64, Z_99) * 100.0,
        args.fault_model.as_str(),
        args.seed,
        if args.scale == Scale::Smoke {
            "smoke"
        } else {
            "default"
        },
        points
            .archs
            .iter()
            .map(|a| a.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let outputs: [(&Option<String>, &dyn Fn() -> String); 3] = [
        (&args.csv, &|| to_csv(&study)),
        (&args.json, &|| grel_bench::to_json(&study)),
        (&args.experiments, &|| {
            render_experiments_markdown(&study, &config_desc)
        }),
    ];
    for (path, body) in outputs {
        if let Some(path) = path {
            write_file(path, body())?;
            log.info(&format!("wrote {path}"));
        }
    }
    Ok(())
}

/// `repro drift [BASELINE.json]`: the baseline drift sentinel. Re-runs
/// the study with the current flags (the one study run, so the filters
/// and telemetry flags apply) and compares every point against the
/// committed baseline written by an earlier `--json` run.
/// Deterministic fields (cycles, ACE AVFs, occupancies) must match
/// exactly — the golden run and ACE analysis are bit-reproducible, so
/// any difference is a behaviour change. Sampled fault-injection AVFs
/// are statistical: the baseline value only counts as drift when it
/// falls outside the fresh run's 99% finite-population interval, so an
/// unchanged tree always passes while a real AVF shift is flagged. A
/// baseline point whose workload or device the filters leave out is not
/// compared.
fn drift_sentinel(
    points: &Points,
    cfg: &StudyConfig,
    args: &Args,
    sink: &Arc<dyn EventSink>,
    log: &Logger,
) -> Result<(), String> {
    use grel_telemetry::Json;
    use std::collections::BTreeMap;

    let path = args
        .baseline
        .clone()
        .unwrap_or_else(|| "ci/fault-model-baseline.json".to_string());
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading baseline {path}: {e}"))?;
    let baseline =
        Json::parse(&text).map_err(|e| format!("baseline {path} is not valid JSON: {e}"))?;
    let baseline_points = baseline
        .as_arr()
        .ok_or_else(|| format!("baseline {path} is not a JSON array of points"))?;
    let mut by_key: BTreeMap<(String, String), &Json> = BTreeMap::new();
    for b in baseline_points {
        let workload = b.get("workload").and_then(Json::as_str).unwrap_or("");
        let device = b.get("device").and_then(Json::as_str).unwrap_or("");
        by_key.insert((workload.to_string(), device.to_string()), b);
    }

    log.info(&format!(
        "drift sentinel: fresh study vs {path} ({} baseline points)",
        baseline_points.len()
    ));
    let (study, _) = study_run(points, cfg, args, sink, log)?;

    // A baseline `null` (NaN/absent on the fresh side) matches only a
    // non-finite fresh value; two finite values compare by rule.
    let within = |b: Option<f64>, fresh: f64, margin: f64| match (b, fresh.is_finite()) {
        (None, false) => true,
        (Some(b), true) => b >= (fresh - margin).max(0.0) && b <= (fresh + margin).min(1.0),
        _ => false,
    };
    let exact = |b: Option<f64>, fresh: f64| match (b, fresh.is_finite()) {
        (None, false) => true,
        (Some(b), true) => b == fresh,
        _ => false,
    };
    let show = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.6}"));

    let cols = columns("<12 workload, <16 device, <8 status, <0 notes");
    print_table(
        &format!("== Baseline drift sentinel ==\nbaseline: {path}"),
        &cols,
        [],
    );
    let mut drifting = 0usize;
    for p in &study.points {
        let notes = match by_key.remove(&(p.workload.clone(), p.device.clone())) {
            None => vec!["point missing from baseline".to_string()],
            Some(b) => {
                let f = |k: &str| b.get(k).and_then(Json::as_f64);
                let mut notes: Vec<String> = Vec::new();
                // Deterministic fields: bit-exact or it's a behaviour change.
                if f("cycles") != Some(p.cycles as f64) {
                    notes.push(format!("cycles {} -> {}", show(f("cycles")), p.cycles));
                }
                for (key, fresh) in [
                    ("rf_avf_ace", p.rf.avf_ace),
                    ("rf_occ", p.rf.occupancy),
                    ("lds_avf_ace", p.lds.avf_ace),
                    ("lds_occ", p.lds.occupancy),
                    ("srf_avf_ace", p.srf_avf_ace.unwrap_or(f64::NAN)),
                ] {
                    if !exact(f(key), fresh) {
                        notes.push(format!("{key} {} -> {fresh:.6} (exact)", show(f(key))));
                    }
                }
                // Sampled fields: the baseline proportion must sit inside
                // the fresh run's 99% interval (margin 0 degenerates to
                // exact).
                for (key, fresh, margin) in [
                    ("rf_avf_fi", p.rf.avf_fi, p.rf.margin_99),
                    ("rf_avf_sdc", p.rf.avf_sdc, p.rf.margin_99),
                    ("lds_avf_fi", p.lds.avf_fi, p.lds.margin_99),
                ] {
                    if !within(f(key), fresh, margin) {
                        notes.push(format!(
                            "{key} {} outside {fresh:.6} +/- {margin:.6}",
                            show(f(key))
                        ));
                    }
                }
                notes
            }
        };
        if notes.is_empty() {
            println!("{}", row(&cols, &[p.workload.as_str(), &p.device, "ok"]));
        } else {
            drifting += 1;
            let notes = notes.join("; ");
            let cells = [p.workload.as_str(), &p.device, "DRIFT", &notes];
            println!("{}", row(&cols, &cells));
        }
    }
    // Only the points the --device/--workload filters select are owed.
    let selected = |(workload, device): &(String, String)| {
        points.workloads.iter().any(|w| w.name() == workload)
            && points.archs.iter().any(|a| a.name == *device)
    };
    for (workload, device) in by_key.into_keys().filter(selected) {
        drifting += 1;
        let cells = [
            workload.as_str(),
            &device,
            "DRIFT",
            "point missing from fresh run",
        ];
        println!("{}", row(&cols, &cells));
    }
    println!(
        "{} points compared, {} drifting",
        study.points.len(),
        drifting
    );
    if drifting > 0 {
        return Err(format!(
            "baseline drift detected in {drifting} campaign(s) vs {path}"
        ));
    }
    log.info("no drift: fresh study is statistically consistent with the baseline");
    Ok(())
}

/// `repro trace --site sm:struct:word:bit:cycle`: replays one injection
/// with the flight recorder on and prints the propagation narrative
/// (flip -> first read/overwrite -> divergence or masking reason). The
/// first device/workload surviving the `--device`/`--workload` filters
/// is traced.
fn trace_site(points: &Points, args: &Args, log: &Logger) -> Result<(), String> {
    let spec = args
        .site
        .as_ref()
        .ok_or("trace needs --site sm:struct:word:bit:cycle[:kind] (struct: rf, lds or srf)")?;
    let site = grel_core::provenance::parse_site(spec).map_err(|e| format!("bad --site: {e}"))?;
    let arch = &points.archs[0];
    let workload = points.workloads[0].as_ref();
    log.info(&format!(
        "tracing {} on {} / {}",
        site,
        arch.name,
        workload.name()
    ));
    let t = grel_core::provenance::trace_one(arch, workload, site, 10)
        .map_err(|e| format!("trace failed: {e}"))?;
    println!(
        "== Injection trace ({} / {}) ==",
        arch.name,
        workload.name()
    );
    print!("{}", t.narrative());
    Ok(())
}

/// Extension: protection trade-off — the decision the paper says EPF is
/// for ("different protection mechanisms can deliver different
/// improvements in the FIT rates and ... different impact on
/// performance").
fn protect_table(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Extension: EPF under storage protection schemes ==",
        &columns("<12 workload, <16 device, >10 scheme, >12 FIT_GPU, >12 EPF, >9 SDC share"),
        |arch, w| {
            let p = evaluate_point_hooked(arch, w, cfg, &NoopHook)?;
            let sdc_share = if p.rf.avf_fi > 0.0 {
                p.rf.avf_sdc / p.rf.avf_fi
            } else {
                0.0
            };
            let sweep = grel_core::protection_sweep(&p.fit, p.eit, sdc_share);
            Ok(sweep
                .into_iter()
                .map(|proj| {
                    vec![
                        p.workload.clone(),
                        p.device.clone(),
                        proj.scheme.to_string(),
                        format!("{:.3}", proj.fit_gpu),
                        grel_bench::sci(proj.epf),
                        pct(proj.sdc_share),
                    ]
                })
                .collect())
        },
    )
}

/// Extension: AVF by bit position (nibble-grouped for sample density).
fn bit_sensitivity(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Extension: register-file AVF by bit position (nibbles) ==",
        &columns(
            "<12 workload, <16 device, >8 b0-3, >8 b4-7, >8 b8-11, >8 b12-15, >8 b16-19, \
             >8 b20-23, >8 b24-27, >8 b28-31",
        ),
        |arch, w| {
            let c = cfg.campaign;
            let setup = Campaign::new(arch, w, &c, Capture::campaign(&c), &NoopHook)?;
            let detail = grel_core::detailed_campaign_on(&setup, Structure::VectorRegisterFile, c)?;
            let by_bit = grel_core::avf_by_bit(&detail);
            let mut cells = vec![w.name().to_string(), arch.name.clone()];
            // A nibble's AVF is the mean over its sampled bits (NaN,
            // printed `-`, when none was sampled).
            cells.extend((0..32).step_by(4).map(|lo| {
                let vals: Vec<f64> = by_bit[lo..lo + 4]
                    .iter()
                    .copied()
                    .filter(|v| !v.is_nan())
                    .collect();
                pct_or_dash(vals.iter().sum::<f64>() / vals.len() as f64)
            }));
            Ok(vec![cells])
        },
    )
}

/// Extension: AVF by execution phase (quartiles of the run).
fn phase_sensitivity(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Extension: register-file AVF by execution phase ==",
        &columns("<12 workload, <16 device, >9 Q1, >9 Q2, >9 Q3, >9 Q4, >9 DUE share"),
        |arch, w| {
            let setup = Campaign::new(
                arch,
                w,
                &cfg.campaign,
                Capture::campaign(&cfg.campaign),
                &NoopHook,
            )?;
            let detail = grel_core::detailed_campaign_on(
                &setup,
                Structure::VectorRegisterFile,
                cfg.campaign,
            )?;
            let phases = grel_core::avf_by_phase(&detail, setup.golden().cycles, 4)
                .map_err(|e| e.to_string())?;
            let mut cells = vec![w.name().to_string(), arch.name.clone()];
            cells.extend(phases.iter().map(|p| pct_or_dash(p.0)));
            cells.push(pct(grel_core::due_fraction(&detail)));
            Ok(vec![cells])
        },
    )
}

/// Extension: adjacent multi-bit upsets vs single-bit upsets.
fn mbu_table(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Extension: multi-bit upsets (adjacent bits, register file) ==",
        &columns("<12 workload, <16 device, >9 1-bit, >9 2-bit, >9 4-bit"),
        |arch, w| {
            // One setup serves all three widths; a width that fails
            // prints its error in its own cell.
            let setup = Campaign::new(
                arch,
                w,
                &cfg.campaign,
                Capture::campaign(&cfg.campaign),
                &NoopHook,
            )?;
            let mut cells = vec![w.name().to_string(), arch.name.clone()];
            cells.extend([1u8, 2, 4].map(|width| {
                match grel_core::mbu_campaign_on(
                    &setup,
                    Structure::VectorRegisterFile,
                    width,
                    cfg.campaign,
                ) {
                    Ok(t) => pct(t.failures() as f64 / t.total().max(1) as f64),
                    Err(e) => e.to_string(),
                }
            }));
            Ok(vec![cells])
        },
    )
}

/// Performance profile table: the throughput half of the paper's
/// reliability-performance correlation.
fn perf_table(points: &Points) -> Result<(), String> {
    points.table(
        "== Performance profile (cycles, IPC, cache hit rates) ==",
        &columns(
            "<12 workload, <16 device, >9 cycles, >10 warp-inst, >6 IPC, >7 lanes/i, \
             >9 mem-trans, >7 L1 hit, >7 L2 hit, >6 util, >9 time (us)",
        ),
        |arch, w| {
            let p = grel_core::perf::profile(arch, w)?;
            Ok(vec![vec![
                p.workload.clone(),
                p.device.clone(),
                p.cycles.to_string(),
                p.warp_instructions.to_string(),
                format!("{:.2}", p.ipc()),
                format!("{:.1}", p.lanes_per_instruction()),
                p.mem_transactions.to_string(),
                pct(p.l1_hit_rate),
                p.l2_hit_rate.map_or_else(|| "-".into(), pct),
                format!("{:.0}%", p.sm_utilization * 100.0),
                format!("{:.1}", p.device_time_us),
            ]])
        },
    )
}

/// Measures the wall-clock effect of checkpointed replay: runs the same
/// register-file campaign (same sites, same golden run) once from cycle
/// zero and once resuming from the checkpoint ladder, checks outcome
/// equality, and reports the speedup. A second table then re-runs the
/// checkpointed campaign at 1, 2, 4 … `--jobs` worker threads, checking
/// the tally never changes, and reports the parallel scaling. A third
/// table benchmarks the replay fast paths (full replay vs pruned vs
/// batched, identical tallies checked), and the whole run
/// is written machine-readable to `BENCH_campaign.json`. A final
/// span-traced pass per pair (identical tally checked again) writes
/// the phase/worker timing breakdown to `BENCH_profile.json`. A failed
/// check is an error naming the device and workload.
fn bench_campaign(points: &Points, cfg: &StudyConfig, log: &Logger) -> Result<(), String> {
    use grel_core::campaign::Tally;
    use grel_telemetry::Json;
    use std::time::Instant;

    // jobs = 1, 2, 4, … up to the requested worker count (always
    // including both endpoints), for the scaling table below.
    let max_jobs = cfg.campaign.threads.max(1);
    let mut jobs_ladder = vec![1usize];
    let mut j = 2;
    while j < max_jobs {
        jobs_ladder.push(j);
        j *= 2;
    }
    if max_jobs > 1 {
        jobs_ladder.push(max_jobs);
    }
    // The rows of the scaling, fast-path and sampling tables, printed
    // after the walk.
    let mut scaling: Vec<Row> = Vec::new();
    let mut prune_rows: Vec<Row> = Vec::new();
    let mut sampling_rows: Vec<Row> = Vec::new();
    let mut pairs_json: Vec<Json> = Vec::new();
    let mut profile_pairs_json: Vec<Json> = Vec::new();
    let injections = cfg.campaign.injections as f64;
    points.table(
        &format!(
            "== Checkpointed replay vs from-zero replay (RF campaign, {} injections) ==",
            cfg.campaign.injections
        ),
        &columns("<16 device, <12 workload, >5 rungs, >11 from-zero, >13 checkpointed, >8 speedup"),
        |arch, w| {
            // Every failure below names the pair, and so does a tally
            // that differs where it must not.
            let on = format!("{} / {}", arch.name, w.name());
            let check = |same: bool, what: &str| {
                same.then_some(()).ok_or_else(|| format!("{what} on {on}"))
            };
            let golden = golden_run(arch, w)
                .map_err(|e| format!("golden run failed on {}: {e}", arch.name))?;
            let sites = sample_model_sites(
                arch,
                Structure::VectorRegisterFile,
                FaultModelKind::Transient,
                golden.cycles,
                cfg.campaign.injections,
                cfg.campaign.seed,
            );
            // The from-zero side: a one-byte budget holds the run's
            // start alone, so every replay resumes from cycle zero.
            let zero = CampaignConfig {
                checkpoint_budget_bytes: 1,
                ..cfg.campaign
            };
            let start = CheckpointLadder::build(arch, w, &golden, &zero)
                .map_err(|e| format!("start checkpoint failed on {on}: {e}"))?;
            let t0 = Instant::now();
            let base = run_injections_checkpointed(arch, w, &golden, &start, &sites, cfg.campaign)
                .map_err(|e| format!("from-zero replay failed on {on}: {e}"))?;
            let t_zero = t0.elapsed().as_secs_f64();
            // The checkpointed side pays for building its own ladder, so
            // the comparison is end-to-end, not best-case.
            let t1 = Instant::now();
            let ladder = CheckpointLadder::build(arch, w, &golden, &cfg.campaign)
                .map_err(|e| format!("checkpoint ladder failed on {on}: {e}"))?;
            let fast = run_injections_checkpointed(arch, w, &golden, &ladder, &sites, cfg.campaign)
                .map_err(|e| format!("checkpointed replay failed on {on}: {e}"))?;
            let t_ckpt = t1.elapsed().as_secs_f64();
            check(base == fast, "checkpointed outcomes must match from-zero")?;
            // Parallel scaling: same ladder, same sites, varying jobs.
            // The tally must be identical at every job count — that is
            // the runner's determinism contract, enforced right here.
            let mut pair_scaling_json: Vec<Json> = Vec::new();
            let mut j1_secs = 0.0;
            for &jobs in &jobs_ladder {
                let mut c = cfg.campaign;
                c.threads = jobs;
                let t = Instant::now();
                let tally = run_injections_checkpointed(arch, w, &golden, &ladder, &sites, c)
                    .map_err(|e| format!("parallel replay failed on {on} with {jobs} jobs: {e}"))?;
                check(
                    tally == fast,
                    &format!("tally must be job-count invariant (jobs = {jobs})"),
                )?;
                let secs = t.elapsed().as_secs_f64();
                if jobs == 1 {
                    j1_secs = secs;
                }
                pair_scaling_json.push(Json::Obj(vec![
                    ("jobs".into(), Json::from(jobs)),
                    ("seconds".into(), Json::from(secs)),
                    (
                        "injections_per_second".into(),
                        Json::from(injections / secs.max(1e-9)),
                    ),
                ]));
                scaling.push(vec![
                    arch.name.clone(),
                    w.name().into(),
                    jobs.to_string(),
                    format!("{secs:.3}s"),
                    format!("{:.0}", injections / secs.max(1e-9)),
                    format!("{:.2}x", j1_secs / secs.max(1e-9)),
                ]);
            }
            // Replay fast paths: same golden run, same seed (so the same
            // sampled sites), three configurations. The pruned run pays
            // for its own oracle-capture instrumented replay, so the
            // comparison is end-to-end, not best-case; the batched run
            // stacks bit-plane shared passes on top of the pruned
            // configuration, so its `vs pruned` column is the marginal
            // gain of batching alone.
            let base_tally: Tally = base.iter().copied().collect();
            let mut modes_json: Vec<Json> = Vec::new();
            let mut full_secs = 0.0;
            let mut pruned_secs = 0.0;
            // (uniform margin_99, uniform replayed = injections − pruned)
            let mut uniform: Option<(f64, u64)> = None;
            for (mode, prune, batch) in [
                ("full", false, false),
                ("pruned", true, false),
                ("batched", true, true),
            ] {
                let mut c = cfg.campaign;
                c.prune = prune;
                c.batch = batch;
                let registry = MetricsRegistry::new();
                let hook = RegistryHook::new(&registry);
                let t = Instant::now();
                // Like `Campaign::new`, a pruning campaign captures its
                // oracle; here it is one extra fault-free pass, timed.
                let res = Capture::campaign(&c)
                    .oracle
                    .then(|| LifetimeOracle::capture(arch, w))
                    .transpose()
                    .and_then(|oracle| {
                        run_campaign_with_oracle_hooked(
                            arch,
                            w,
                            Structure::VectorRegisterFile,
                            c,
                            &golden,
                            &ladder,
                            oracle.as_ref(),
                            &hook,
                        )
                    })
                    .map_err(|e| format!("{mode} campaign failed on {on}: {e}"))?;
                let secs = t.elapsed().as_secs_f64();
                check(
                    res.tally == base_tally,
                    &format!("a replay fast path must not change the tally ({mode})"),
                )?;
                if mode == "full" {
                    full_secs = secs;
                }
                if mode == "pruned" {
                    pruned_secs = secs;
                }
                let snap = registry.snapshot();
                let pruned = snap.counter("campaign_pruned_total").unwrap_or(0);
                if mode == "pruned" {
                    uniform = Some((
                        res.margin_99,
                        (cfg.campaign.injections as u64).saturating_sub(pruned),
                    ));
                }
                let batched = snap.counter("campaign_batched_total").unwrap_or(0);
                let forks = snap.counter("campaign_batch_forks_total").unwrap_or(0);
                let ips = injections / secs.max(1e-9);
                let pruned_frac = pruned as f64 / injections.max(1.0);
                let fork_frac = forks as f64 / (batched as f64).max(1.0);
                let speedup = full_secs / secs.max(1e-9);
                let vs_pruned = if mode == "batched" {
                    pruned_secs / secs.max(1e-9)
                } else {
                    0.0
                };
                prune_rows.push(vec![
                    arch.name.clone(),
                    w.name().into(),
                    mode.into(),
                    format!("{secs:.3}s"),
                    format!("{ips:.0}"),
                    pct(pruned_frac),
                    pct(fork_frac),
                    format!("{speedup:.2}x"),
                    if vs_pruned > 0.0 {
                        format!("{vs_pruned:.2}x")
                    } else {
                        "-".into()
                    },
                ]);
                modes_json.push(Json::Obj(vec![
                    ("mode".into(), Json::from(mode)),
                    ("seconds".into(), Json::from(secs)),
                    ("injections_per_second".into(), Json::from(ips)),
                    ("pruned_fraction".into(), Json::from(pruned_frac)),
                    ("batched_sites".into(), Json::from(batched)),
                    ("batch_forks".into(), Json::from(forks)),
                    ("fork_fraction".into(), Json::from(fork_frac)),
                    ("speedup_vs_full".into(), Json::from(speedup)),
                    ("speedup_vs_pruned".into(), Json::from(vs_pruned)),
                ]));
            }
            // Profiled pass: the same checkpointed campaign once more at
            // the requested job count with span tracing on. The tally
            // must match the unprofiled runs (spans are observe-only),
            // and the span tree feeds BENCH_profile.json.
            let precorder = SpanRecorder::new();
            {
                let preg = MetricsRegistry::new();
                let phook = (RegistryHook::new(&preg), SpanHook::new(&precorder));
                let r = Capture::campaign(&cfg.campaign)
                    .oracle
                    .then(|| LifetimeOracle::capture(arch, w))
                    .transpose()
                    .and_then(|oracle| {
                        run_campaign_with_oracle_hooked(
                            arch,
                            w,
                            Structure::VectorRegisterFile,
                            cfg.campaign,
                            &golden,
                            &ladder,
                            oracle.as_ref(),
                            &phook,
                        )
                    })
                    .map_err(|e| format!("profiled campaign failed on {on}: {e}"))?;
                check(
                    r.tally == base_tally,
                    "span tracing must not change the tally",
                )?;
            }
            let ptree = precorder.finish();
            let phases: Vec<Json> = ptree
                .nodes_named(|n| {
                    matches!(n, "prune" | "replay" | "merge") || n.starts_with("campaign:")
                })
                .map(|n| {
                    Json::Obj(vec![
                        ("name".into(), Json::from(n.name.as_str())),
                        ("path".into(), Json::from(n.path.as_str())),
                        ("count".into(), Json::from(n.count)),
                        ("dur_us".into(), Json::from(n.dur_us)),
                    ])
                })
                .collect();
            let tag_u64 = |n: &grel_telemetry::SpanNode, key: &str| {
                n.tags
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<u64>().ok())
                    .unwrap_or(0)
            };
            let workers: Vec<Json> = ptree
                .nodes_named(|n| n.starts_with("worker:"))
                .map(|n| {
                    Json::Obj(vec![
                        ("lane".into(), Json::from(n.lane)),
                        ("alive_us".into(), Json::from(n.dur_us)),
                        ("busy_us".into(), Json::from(tag_u64(n, "busy_us"))),
                        ("injections".into(), Json::from(tag_u64(n, "injections"))),
                    ])
                })
                .collect();
            let injection_spans = ptree.nodes_named(|n| n.starts_with("inj:")).count() as u64;
            profile_pairs_json.push(Json::Obj(vec![
                ("device".into(), Json::from(arch.name.as_str())),
                ("workload".into(), Json::from(w.name())),
                ("spans".into(), Json::from(ptree.spans.len())),
                ("dropped".into(), Json::from(ptree.dropped)),
                ("injection_spans".into(), Json::from(injection_spans)),
                ("phases".into(), Json::Arr(phases)),
                ("workers".into(), Json::Arr(workers)),
            ]));
            // Adaptive stratified sampling vs the uniform fixed-size
            // campaign at equal margin: the uniform side replays
            // `injections − pruned` sites to earn its margin; the
            // adaptive side stops at the same (or a user-supplied
            // `--target-margin`) margin and reports how many replays
            // that actually took.
            let (uniform_margin, uniform_replayed) =
                uniform.ok_or_else(|| format!("the pruned mode always runs, but not on {on}"))?;
            let plan = match cfg.mode {
                CampaignMode::Adaptive(plan) => plan,
                _ => SamplingPlan::with_target(uniform_margin),
            };
            let mut ac = cfg.campaign;
            ac.prune = true;
            ac.batch = true;
            let capture = CampaignMode::Adaptive(plan).capture(&ac);
            let adaptive = Campaign::new(arch, w, &ac, capture, &NoopHook)
                .and_then(|setup| {
                    setup.run_adaptive(Structure::VectorRegisterFile, ac, plan, &NoopHook)
                })
                .map_err(|e| format!("adaptive campaign failed on {on}: {e}"))?;
            let savings = uniform_replayed as f64 / (adaptive.replayed as f64).max(1.0);
            sampling_rows.push(vec![
                arch.name.clone(),
                w.name().into(),
                format!("{:.2}%", plan.target_margin * 100.0),
                uniform_replayed.to_string(),
                adaptive.replayed.to_string(),
                adaptive.rounds.len().to_string(),
                format!("{:.2}%", adaptive.margin * 100.0),
                format!("{savings:.2}x"),
                if adaptive.converged { "yes" } else { "no" }.into(),
            ]);
            let sampling_json = Json::Obj(vec![
                ("target_margin".into(), Json::from(plan.target_margin)),
                ("uniform_margin".into(), Json::from(uniform_margin)),
                (
                    "uniform_injections".into(),
                    Json::from(cfg.campaign.injections),
                ),
                ("uniform_replayed".into(), Json::from(uniform_replayed)),
                ("adaptive_sampled".into(), Json::from(adaptive.sampled)),
                ("adaptive_replayed".into(), Json::from(adaptive.replayed)),
                ("adaptive_rounds".into(), Json::from(adaptive.rounds.len())),
                ("adaptive_margin".into(), Json::from(adaptive.margin)),
                ("adaptive_avf".into(), Json::from(adaptive.avf)),
                ("converged".into(), Json::Bool(adaptive.converged)),
                ("replay_savings".into(), Json::from(savings)),
            ]);
            pairs_json.push(Json::Obj(vec![
                ("device".into(), Json::from(arch.name.as_str())),
                ("workload".into(), Json::from(w.name())),
                ("sampling".into(), sampling_json),
                ("golden_cycles".into(), Json::from(golden.cycles)),
                ("rungs".into(), Json::from(ladder.len())),
                ("from_zero_seconds".into(), Json::from(t_zero)),
                ("checkpointed_seconds".into(), Json::from(t_ckpt)),
                ("modes".into(), Json::Arr(modes_json)),
                ("scaling".into(), Json::Arr(pair_scaling_json)),
            ]));
            Ok(vec![vec![
                arch.name.clone(),
                w.name().into(),
                ladder.len().to_string(),
                format!("{t_zero:.3}s"),
                format!("{t_ckpt:.3}s"),
                format!("{:.2}x", t_zero / t_ckpt.max(1e-9)),
            ]])
        },
    )?;
    if jobs_ladder.len() > 1 {
        print_table(
            "== Parallel scaling (checkpointed replay, identical tallies asserted) ==",
            &columns("<16 device, <12 workload, >5 jobs, >10 wall, >8 inj/s, >6 vs -j1"),
            scaling,
        );
        println!();
    }
    print_table(
        &format!(
            "== Replay fast paths (RF campaign at -j{max_jobs}, identical tallies asserted) =="
        ),
        &columns(
            "<16 device, <12 workload, <10 mode, >9 wall, >8 inj/s, >7 pruned, >7 forked, \
             >8 vs full, >9 vs pruned",
        ),
        prune_rows,
    );
    println!();
    print_table(
        "== Adaptive stratified sampling vs uniform (equal margin, replayed injections) ==",
        &columns(
            "<16 device, <12 workload, >8 target, >9 uniform, >9 adaptive, >7 rounds, \
             >8 margin, >8 savings, >5 conv",
        ),
        sampling_rows,
    );
    for (bench, pairs) in [("campaign", pairs_json), ("profile", profile_pairs_json)] {
        let doc = Json::Obj(vec![
            ("bench".into(), Json::from(bench)),
            ("structure".into(), Json::from("rf")),
            ("injections".into(), Json::from(cfg.campaign.injections)),
            ("jobs".into(), Json::from(max_jobs)),
            ("pairs".into(), Json::Arr(pairs)),
        ]);
        let path = format!("BENCH_{bench}.json");
        std::fs::write(&path, doc.to_string())
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        log.info(&format!("wrote {path}"));
    }
    Ok(())
}

/// Extension experiment: does the warp scheduler change reliability?
/// The paper's intro names "execution scheduling" as a studied factor.
fn ablate_scheduler(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Ablation: warp scheduler vs reliability ==",
        &columns("<12 workload, <16 device, >5 sched, >9 cycles, >8 RF AVF, >8 RF occ"),
        |base, w| {
            let rows = [SchedulerPolicy::Lrr, SchedulerPolicy::Gto].map(|policy| {
                let arch = ArchConfig {
                    scheduler: policy,
                    ..base.clone()
                };
                match evaluate_point_hooked(&arch, w, cfg, &NoopHook) {
                    Ok(p) => vec![
                        p.workload,
                        p.device,
                        format!("{policy:?}"),
                        p.cycles.to_string(),
                        pct(p.rf.avf_fi),
                        pct(p.rf.occupancy),
                    ],
                    Err(e) => vec![
                        w.name().into(),
                        base.name.clone(),
                        format!("{policy:?}: {e}"),
                    ],
                }
            });
            Ok(rows.into())
        },
    )
}

/// Extension experiment: register-file size sweep ("resource sizes").
/// Halving the file raises occupancy (and AVF); doubling dilutes it but
/// adds bits, so FIT moves less than AVF — the designer's trade-off.
fn ablate_rf_size(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Ablation: register-file size vs AVF and FIT ==",
        &columns(
            "<12 workload, <16 device, >7 RF KiB, >9 cycles, >8 RF AVF, >8 RF occ, >10 RF FIT",
        ),
        |base, w| {
            let rows = [1u32, 2, 4].map(|scale| {
                // scale = 2 is the stock size; 1 halves, 4 doubles.
                let arch = ArchConfig {
                    regfile_bytes_per_sm: base.regfile_bytes_per_sm / 2 * scale,
                    ..base.clone()
                };
                let kib = (arch.regfile_bytes_per_sm / 1024).to_string();
                match evaluate_point_hooked(&arch, w, cfg, &NoopHook) {
                    Ok(p) => vec![
                        p.workload,
                        p.device,
                        kib,
                        p.cycles.to_string(),
                        pct(p.rf.avf_fi),
                        pct(p.rf.occupancy),
                        format!(
                            "{:.2}",
                            structure_fit(&arch, Structure::VectorRegisterFile, p.rf.avf_fi)
                        ),
                    ],
                    // The leading space sets the failure text two
                    // spaces after the size.
                    Err(e) => vec![
                        w.name().into(),
                        base.name.clone(),
                        kib,
                        format!(" launch fails: {e}"),
                    ],
                }
            });
            Ok(rows.into())
        },
    )
}

/// Extension experiment: ACE refinement level vs fault injection — the
/// methodological trade-off behind the paper's finding F3.
fn ablate_ace(points: &Points, cfg: &StudyConfig) -> Result<(), String> {
    points.table(
        "== Ablation: ACE refinement vs fault injection ==",
        &columns("<12 workload, <16 device, >6 struct, >1 |, >8 ACE-cons, >9 ACE-refnd, >8 FI"),
        |arch, w| {
            // One setup carries the refined ACE analysis and every
            // campaign; the conservative analysis takes one more pass.
            let capture = Capture {
                ace: Some(AceMode::WriteToLastRead),
                ..Capture::campaign(&cfg.campaign)
            };
            let setup = Campaign::new(arch, w, &cfg.campaign, capture, &NoopHook)?;
            let (_, conservative) = golden_run_with_ace(arch, w)?;
            let rows = cfg.injected_structures(w).iter().map(|&s| {
                let fi = setup.run(s, cfg.campaign, &NoopHook)?;
                let refined = setup.ace(s).expect("ACE was captured");
                let tag = match s {
                    Structure::VectorRegisterFile => "RF",
                    Structure::LocalMemory => "LDS",
                    Structure::ScalarRegisterFile => "SRF",
                };
                Ok(vec![
                    w.name().into(),
                    arch.name.clone(),
                    tag.into(),
                    "|".into(),
                    pct(conservative.report(s).avf_ace),
                    pct(refined.avf_ace),
                    pct(fi.avf()),
                ])
            });
            rows.collect()
        },
    )
}
