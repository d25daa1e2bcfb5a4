//! `repro` — regenerates every figure of the ISPASS 2017 paper.
//!
//! The commands and options are documented once, in [`HELP`], which
//! `repro --help` prints.
//!
//! Every command returns `Result<(), String>`. `main` is the one place
//! that reports a failure and exits 1: as `error: …` (followed by the
//! help for a bad argument) before the logger exists, through the
//! logger after.

use gpu_archs::all_devices;
use gpu_workloads::Workload;
use grel_bench::{
    render_avf_figure, render_epf_figure, render_experiments_markdown, render_findings, to_csv,
    workload_set, Scale,
};
use grel_core::ace::AceMode;
use grel_core::campaign::{
    golden_run, golden_run_with_ace, run_injections, run_injections_checkpointed, sample_sites,
    Campaign, CampaignConfig, Capture, CheckpointLadder,
};
use grel_core::epf::structure_fit;
use grel_core::sampling::{SamplingPlan, StrataSpec};
use grel_core::stats::{error_margin, required_sample_size, Z_99};
use grel_core::study::{evaluate_point, run_study_parallel_hooked, StudyConfig, StudyResult};
use grel_telemetry::{
    serve, Event, EventSink, JsonlSink, LogLevel, Logger, MetricsRegistry, NoopHook, NullSink,
    Observatory, ProgressHook, RegistryHook, SpanHook, SpanRecorder, SpanTree, StatusBoard,
    TeeSink, TelemetryHook,
};
use simt_sim::{
    ArchConfig, FaultModelKind, Gpu, HotspotObserver, SchedulerPolicy, SimError, Structure,
};
use std::fmt::Display;
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
    provenance: bool,
    site: Option<String>,
    fault_model: FaultModelKind,
    profile: Option<String>,
    listen: Option<String>,
    convergence: Option<u64>,
    baseline: Option<String>,
    target_margin: Option<f64>,
    pilot: Option<u32>,
    strata: Option<StrataSpec>,
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
        provenance: false,
        site: None,
        fault_model: FaultModelKind::Transient,
        profile: None,
        listen: None,
        convergence: None,
        baseline: None,
        target_margin: None,
        pilot: None,
        strata: None,
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
            "--provenance" => args.provenance = true,
            "--target-margin" => {
                let m: f64 = flag_value(&a, it.next())?;
                if !(m.is_finite() && m > 0.0 && m < 1.0) {
                    return Err("--target-margin must be in (0, 1)".into());
                }
                args.target_margin = Some(m);
            }
            "--pilot" => args.pilot = Some(count_value(&a, it.next())?),
            "--strata" => args.strata = Some(parse_strata(&flag_value::<String>(&a, it.next())?)?),
            "--listen" => args.listen = Some(flag_value(&a, it.next())?),
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
    if args.target_margin.is_some() && args.provenance {
        return Err(
            "--target-margin cannot be combined with --provenance (the flight \
             recorder traces a fixed uniform sample)"
                .into(),
        );
    }
    if args.target_margin.is_none() && (args.pilot.is_some() || args.strata.is_some()) {
        return Err("--pilot/--strata only apply with --target-margin".into());
    }
    if args.command == "report" && args.report_path.is_none() {
        return Err("report needs the path of a --metrics JSONL file".into());
    }
    Ok(args)
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

/// [`flag_value`] for a count that must be at least 1 (`--jobs`, `-jN`,
/// `--pilot`).
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

/// Parses `--strata`: `default`, `full`, `none`, or a comma-separated
/// subset of `liveness,cycle,bit,region`.
fn parse_strata(spec: &str) -> Result<StrataSpec, String> {
    match spec {
        "default" => return Ok(StrataSpec::default()),
        "full" => return Ok(StrataSpec::full()),
        "none" => return Ok(StrataSpec::none()),
        _ => {}
    }
    let mut s = StrataSpec::none();
    for axis in spec.split(',') {
        match axis.trim() {
            "liveness" => s.liveness = true,
            "cycle" => s.cycle = true,
            "bit" => s.bit = true,
            "region" => s.region = true,
            other => {
                return Err(format!(
                    "--strata: unknown axis '{other}' (expected liveness|cycle|bit|region \
                     or default|full|none)"
                ))
            }
        }
    }
    Ok(s)
}

const HELP: &str = "repro — regenerate the figures of \
'Microarchitecture Level Reliability Comparison of Modern GPU Designs' (ISPASS 2017)

usage: repro [COMMAND] [--injections N] [--paper] [--seed S] [--jobs N]
             [--smoke] [--device NAME] [--workload NAME]
             [--csv PATH] [--json PATH] [--experiments PATH]
             [--checkpoint-interval N] [--no-checkpoints] [--no-prune] [--no-batch]
             [--fault-model transient|stuck0|stuck1|control] [--provenance]
             [--target-margin M] [--pilot N] [--strata SPEC]
             [--metrics PATH] [--progress] [--listen ADDR] [--convergence N]
             [--profile PATH] [--quiet] [-v]
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
                was generated with (CI: --smoke --injections 40 --seed 7)
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
  array; a replay that stops making progress is cut off by a watchdog and
  classified as a hang (reported separately from DUE). Lifetime pruning
  applies only to the transient model — it is unsound for persistent and
  control faults and is bypassed automatically.

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

observatory:
  --listen ADDR binds a dependency-free HTTP endpoint for the duration
  of the run: GET /metrics (Prometheus text exposition of the live
  registry), /health, /progress (done/pruned/batched/total JSON) and
  /convergence (latest campaign.convergence snapshot per campaign).
  Scrapes are read-only — figure output and --json files are
  byte-identical with or without --listen. campaign.convergence events
  stream every --convergence N merged injections (default 100) with the
  running AVF, its 99% finite-population interval and the projected
  injections still needed to reach the paper's +/-2.88% target; the
  event stream is a pure function of the merged outcome order, so it is
  byte-identical at any --jobs.

profiling:
  --profile PATH records a hierarchical span for every study phase
  (golden run, oracle capture, checkpoint ladder, prune, replay, merge)
  and every campaign injection, then writes a Chrome trace-event JSON
  to PATH — load it at https://ui.perfetto.dev or chrome://tracing.
  PATH.tree gets the duration-stripped structural span tree, which is
  byte-identical at any --jobs. Spans never change campaign results.

adaptive sampling:
  --target-margin M replaces the fixed --injections budget with a stop
  rule: each campaign stratifies its site population (dead vs live per
  the lifetime oracle, fault-cycle quartile, bit half; see --strata),
  draws a deterministic pilot per stratum, then Neyman-allocates further
  rounds to the high-variance strata until the post-stratified 99%
  margin is at or below M. The same seed-stable site stream and striped
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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    // `report` and `stats` run without a logger; every other command
    // opens the metrics sink first. `None` means the command is done.
    let sink = match args.command.as_str() {
        "report" => render_report(&args).map(|()| None),
        "stats" => print_stats().map(|()| None),
        _ => open_sink(&args).map(Some),
    };
    let sink = match sink {
        Ok(Some(sink)) => sink,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every status line goes through the level-gated logger; with
    // --metrics the sink also receives each line as a `log` event, so
    // stdout stays purely machine-parseable figure output.
    let log = Logger::with_sink(args.log_level, Arc::clone(&sink));
    if let Err(e) = run(&args, &sink, &log) {
        log.error(&e);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
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
            // A one-byte budget holds no snapshot: every replay starts
            // from cycle zero, which is exactly what --no-checkpoints
            // promises.
            checkpoint_budget_bytes: if args.no_checkpoints { 1 } else { 0 },
            prune: !args.no_prune,
            fault_model: args.fault_model,
            batch: !args.no_batch,
            convergence: args.convergence.unwrap_or(100),
            ..CampaignConfig::paper(args.seed)
        },
        workload_seed: args.seed,
        fi_on_unused_lds: false,
        provenance: args.provenance,
        ace_mode: Default::default(),
        sampling: match args.target_margin {
            Some(target_margin) => {
                let mut plan = SamplingPlan::with_target(target_margin);
                if let Some(p) = args.pilot {
                    plan.pilot = p;
                }
                if let Some(s) = args.strata {
                    plan.strata = s;
                }
                plan
            }
            None => SamplingPlan::default(),
        },
    };

    let (archs, workloads, cfg) = (&archs[..], &workloads[..], &cfg);
    match args.command.as_str() {
        "trace" => trace_site(archs, workloads, args, log),
        "drift" => drift_sentinel(archs, workloads, cfg, args, log),
        "bench-campaign" => bench_campaign(archs, workloads, cfg, log),
        "ablate-sched" => ablate_scheduler(archs, workloads, cfg),
        "ablate-rfsize" => ablate_rf_size(archs, workloads, cfg),
        "ablate-ace" => ablate_ace(archs, workloads, cfg),
        "perf" => perf_table(archs, workloads),
        "bits" => bit_sensitivity(archs, workloads, cfg),
        "phases" => phase_sensitivity(archs, workloads, cfg),
        "mbu" => mbu_table(archs, workloads, cfg),
        "protect" => protect_table(archs, workloads, cfg),
        _ => study_command(archs, workloads, cfg, args, sink, log),
    }
}

/// Runs the study through `hook`. Every command that runs the whole
/// study calls the study runner here.
fn run_study<H: TelemetryHook>(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    jobs: usize,
    hook: &H,
) -> Result<StudyResult, String> {
    run_study_parallel_hooked(archs, workloads, cfg, jobs, hook)
        .map_err(|e| format!("study failed: {e}"))
}

/// Writes `contents` to `path`; the error names the path.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

/// The study commands (`fig1`…`fig3`, `findings`, `all`, `outcomes`,
/// `profile`): one study run with the telemetry the flags ask for, then
/// its figures and the files of `--csv`, `--json` and `--experiments`.
fn study_command(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    args: &Args,
    sink: &Arc<dyn EventSink>,
    log: &Logger,
) -> Result<(), String> {
    if let Some(target) = args.target_margin {
        log.info(&format!(
            "adaptive sampling: stop at +/-{:.2}% @ 99% (pilot {}/stratum)",
            target * 100.0,
            cfg.sampling.pilot
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

    let registry = Arc::new(MetricsRegistry::new());
    // --listen tees the event stream into a StatusBoard so the HTTP
    // /convergence endpoint can answer with the latest snapshot per
    // campaign; without it events flow straight to the JSONL/null sink.
    let board = args.listen.as_ref().map(|_| Arc::new(StatusBoard::new()));
    let tee = board
        .as_ref()
        .map(|b| TeeSink(&**sink, b.as_ref() as &dyn EventSink));
    let event_sink: &dyn EventSink = match &tee {
        Some(t) => t,
        None => &**sink,
    };
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
    let telemetry_on = args.metrics.is_some() || args.progress || args.listen.is_some();
    let per_point: u64 = workloads
        .iter()
        .map(|w| cfg.injected_structures(w.as_ref()).len() as u64)
        .sum();
    let progress_total = per_point * archs.len() as u64 * args.injections as u64;
    let server = match (&args.listen, &board) {
        (Some(addr), Some(board)) => {
            let observatory = Observatory {
                registry: Arc::clone(&registry),
                board: Arc::clone(board),
                planned_injections: progress_total,
            };
            let handle = serve(addr.as_str(), observatory)
                .map_err(|e| format!("cannot bind observatory on {addr}: {e}"))?;
            log.info(&format!(
                "observatory listening on http://{}/ (GET /metrics /health /progress /convergence)",
                handle.local_addr()
            ));
            Some(handle)
        }
        _ => None,
    };
    let jobs = args.threads;
    let start = std::time::Instant::now();
    let reg_hook = RegistryHook::with_sink(&registry, event_sink);
    let span_hook = recorder.as_ref().map(SpanHook::new);
    let progress = args.progress.then(|| ProgressHook::new(progress_total));
    // Without a telemetry flag the no-op hook compiles the
    // instrumentation out.
    let study = match (&span_hook, &progress, telemetry_on) {
        (Some(spans), Some(prog), _) => {
            run_study(archs, workloads, cfg, jobs, &((reg_hook, prog), spans))
        }
        (Some(spans), None, _) => run_study(archs, workloads, cfg, jobs, &(reg_hook, spans)),
        (None, Some(prog), _) => run_study(archs, workloads, cfg, jobs, &(reg_hook, prog)),
        (None, None, true) => run_study(archs, workloads, cfg, jobs, &reg_hook),
        (None, None, false) => run_study(archs, workloads, cfg, jobs, &NoopHook),
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

    match args.command.as_str() {
        "fig1" => print!(
            "{}",
            render_avf_figure("Fig. 1: Register File AVF", &study.fig1_rows())
        ),
        "fig2" => print!(
            "{}",
            render_avf_figure("Fig. 2: Local Memory AVF", &study.fig2_rows())
        ),
        "fig3" => print!("{}", render_epf_figure(&study.fig3_rows())),
        "findings" => print!("{}", render_findings(&study.findings())),
        "outcomes" => {
            println!("fault model: {}", args.fault_model.as_str());
            println!(
                "{:<12} {:<16} {:>9} | {:>7} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>7}",
                "workload",
                "device",
                "struct",
                "masked",
                "SDC",
                "DUE",
                "hang",
                "masked",
                "SDC",
                "DUE",
                "hang"
            );
            for p in &study.points {
                println!(
                    "{:<12} {:<16} {:>9} | {:>7} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>7}",
                    p.workload,
                    p.device,
                    "RF | LDS",
                    p.rf.tally.masked,
                    p.rf.tally.sdc,
                    p.rf.tally.due,
                    p.rf.tally.hang,
                    p.lds.tally.masked,
                    p.lds.tally.sdc,
                    p.lds.tally.due,
                    p.lds.tally.hang
                );
            }
        }
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
            println!("== Simulator hot spots (one clean run per point) ==");
            println!(
                "{:<12} {:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9}",
                "workload",
                "device",
                "rf-acc",
                "rf-live",
                "lds-acc",
                "srf-acc",
                "dispatch",
                "launches",
                "cycles"
            );
            for w in workloads {
                for arch in archs {
                    let mut gpu = Gpu::new(arch.clone());
                    let mut obs = HotspotObserver::default();
                    match w.run(&mut gpu, &mut obs) {
                        Ok(_) => println!(
                            "{:<12} {:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>9}",
                            w.name(),
                            arch.name,
                            obs.rf.accesses(),
                            obs.rf.active_cycles(),
                            obs.lds.accesses(),
                            obs.srf.accesses(),
                            obs.sched_dispatches,
                            obs.launches,
                            obs.end_cycle
                        ),
                        Err(e) => println!("{:<12} {:<16} {e}", w.name(), arch.name),
                    }
                }
            }
        }
        _ => {
            print!(
                "{}",
                render_avf_figure("Fig. 1: Register File AVF", &study.fig1_rows())
            );
            println!();
            print!(
                "{}",
                render_avf_figure("Fig. 2: Local Memory AVF", &study.fig2_rows())
            );
            println!();
            print!("{}", render_epf_figure(&study.fig3_rows()));
            println!();
            print!("{}", render_findings(&study.findings()));
        }
    }

    let config_desc = format!(
        "{} injections/structure (+/-{:.2}% @ 99% confidence), {} fault model, seed {}, {} scale, devices: {}",
        args.injections,
        margin * 100.0,
        args.fault_model.as_str(),
        args.seed,
        if args.scale == Scale::Smoke {
            "smoke"
        } else {
            "default"
        },
        archs
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
    sink.flush();
    if let Some(server) = server {
        server.stop();
    }
    Ok(())
}

/// `repro drift [BASELINE.json]`: the baseline drift sentinel. Re-runs
/// the study with the current flags and compares every point against
/// the committed baseline written by an earlier `--json` run.
/// Deterministic fields (cycles, ACE AVFs, occupancies) must match
/// exactly — the golden run and ACE analysis are bit-reproducible, so
/// any difference is a behaviour change. Sampled fault-injection AVFs
/// are statistical: the baseline value only counts as drift when it
/// falls outside the fresh run's 99% finite-population interval, so an
/// unchanged tree always passes while a real AVF shift is flagged.
fn drift_sentinel(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    args: &Args,
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
    let study = run_study(archs, workloads, cfg, args.threads, &NoopHook)?;

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

    println!("== Baseline drift sentinel ==");
    println!("baseline: {path}");
    println!("{:<12} {:<16} {:<8} notes", "workload", "device", "status");
    let mut drifting = 0usize;
    for p in &study.points {
        let key = (p.workload.clone(), p.device.clone());
        let Some(b) = by_key.remove(&key) else {
            drifting += 1;
            println!(
                "{:<12} {:<16} {:<8} point missing from baseline",
                p.workload, p.device, "DRIFT"
            );
            continue;
        };
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
        // Sampled fields: the baseline proportion must sit inside the
        // fresh run's 99% interval (margin 0 degenerates to exact).
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
        if notes.is_empty() {
            println!("{:<12} {:<16} {:<8}", p.workload, p.device, "ok");
        } else {
            drifting += 1;
            println!(
                "{:<12} {:<16} {:<8} {}",
                p.workload,
                p.device,
                "DRIFT",
                notes.join("; ")
            );
        }
    }
    for (workload, device) in by_key.into_keys() {
        drifting += 1;
        println!(
            "{workload:<12} {device:<16} {:<8} point missing from fresh run",
            "DRIFT"
        );
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
fn trace_site(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    args: &Args,
    log: &Logger,
) -> Result<(), String> {
    let spec = args
        .site
        .as_ref()
        .ok_or("trace needs --site sm:struct:word:bit:cycle[:kind] (struct: rf, lds or srf)")?;
    let site = grel_core::provenance::parse_site(spec).map_err(|e| format!("bad --site: {e}"))?;
    let arch = &archs[0];
    let workload = workloads[0].as_ref();
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
fn protect_table(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Extension: EPF under storage protection schemes ==");
    println!(
        "{:<12} {:<16} {:>10} {:>12} {:>12} {:>9}",
        "workload", "device", "scheme", "FIT_GPU", "EPF", "SDC share"
    );
    for w in workloads {
        for arch in archs {
            match evaluate_point(arch, w.as_ref(), cfg) {
                Ok(p) => {
                    let sdc_share = if p.rf.avf_fi > 0.0 {
                        p.rf.avf_sdc / p.rf.avf_fi
                    } else {
                        0.0
                    };
                    for proj in grel_core::protection_sweep(&p.fit, p.eit, sdc_share) {
                        println!(
                            "{:<12} {:<16} {:>10} {:>12.3} {:>12} {:>8.1}%",
                            p.workload,
                            p.device,
                            proj.scheme.to_string(),
                            proj.fit_gpu,
                            grel_bench::sci(proj.epf),
                            proj.sdc_share * 100.0
                        );
                    }
                    println!();
                }
                Err(e) => println!("{:<12} {:<16} {e}", w.name(), arch.name),
            }
        }
    }
    Ok(())
}

/// Extension: AVF by bit position (nibble-grouped for sample density).
fn bit_sensitivity(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Extension: register-file AVF by bit position (nibbles) ==");
    println!(
        "{:<12} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload",
        "device",
        "b0-3",
        "b4-7",
        "b8-11",
        "b12-15",
        "b16-19",
        "b20-23",
        "b24-27",
        "b28-31"
    );
    for w in workloads {
        for arch in archs {
            match grel_core::detailed_campaign(
                arch,
                w.as_ref(),
                Structure::VectorRegisterFile,
                cfg.campaign,
            ) {
                Ok(detail) => {
                    let by_bit = grel_core::avf_by_bit(&detail);
                    let nib = |lo: usize| {
                        let vals: Vec<f64> = (lo..lo + 4)
                            .map(|b| by_bit[b])
                            .filter(|v| !v.is_nan())
                            .collect();
                        if vals.is_empty() {
                            "-".to_string()
                        } else {
                            format!(
                                "{:.1}%",
                                vals.iter().sum::<f64>() / vals.len() as f64 * 100.0
                            )
                        }
                    };
                    println!(
                        "{:<12} {:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                        w.name(),
                        arch.name,
                        nib(0),
                        nib(4),
                        nib(8),
                        nib(12),
                        nib(16),
                        nib(20),
                        nib(24),
                        nib(28)
                    );
                }
                Err(e) => println!("{:<12} {:<16} {e}", w.name(), arch.name),
            }
        }
        println!();
    }
    Ok(())
}

/// Extension: AVF by execution phase (quartiles of the run).
fn phase_sensitivity(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Extension: register-file AVF by execution phase ==");
    println!(
        "{:<12} {:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "device", "Q1", "Q2", "Q3", "Q4", "DUE share"
    );
    for w in workloads {
        for arch in archs {
            let detail = Campaign::new(
                arch,
                w.as_ref(),
                &cfg.campaign,
                Capture::campaign(&cfg.campaign),
                &NoopHook,
            )
            .and_then(|setup| {
                let detail = grel_core::detailed_campaign_on(
                    &setup,
                    Structure::VectorRegisterFile,
                    cfg.campaign,
                )?;
                Ok((setup.golden().cycles, detail))
            });
            match detail {
                Ok((cycles, detail)) => {
                    let phases = grel_core::avf_by_phase(&detail, cycles, 4);
                    let cell = |p: (f64, u64)| {
                        if p.0.is_nan() {
                            "-".to_string()
                        } else {
                            format!("{:.1}%", p.0 * 100.0)
                        }
                    };
                    println!(
                        "{:<12} {:<16} {:>9} {:>9} {:>9} {:>9} {:>8.1}%",
                        w.name(),
                        arch.name,
                        cell(phases[0]),
                        cell(phases[1]),
                        cell(phases[2]),
                        cell(phases[3]),
                        grel_core::due_fraction(&detail) * 100.0
                    );
                }
                Err(e) => println!("{:<12} {:<16} {e}", w.name(), arch.name),
            }
        }
        println!();
    }
    Ok(())
}

/// Extension: adjacent multi-bit upsets vs single-bit upsets.
fn mbu_table(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Extension: multi-bit upsets (adjacent bits, register file) ==");
    println!(
        "{:<12} {:<16} {:>9} {:>9} {:>9}",
        "workload", "device", "1-bit", "2-bit", "4-bit"
    );
    for w in workloads {
        for arch in archs {
            let mut row = format!("{:<12} {:<16}", w.name(), arch.name);
            // One setup serves all three widths.
            match Campaign::new(
                arch,
                w.as_ref(),
                &cfg.campaign,
                Capture::campaign(&cfg.campaign),
                &NoopHook,
            ) {
                Ok(setup) => {
                    for width in [1u8, 2, 4] {
                        match grel_core::mbu_campaign_on(
                            &setup,
                            Structure::VectorRegisterFile,
                            width,
                            cfg.campaign,
                        ) {
                            Ok(t) => {
                                let avf = t.failures() as f64 / t.total().max(1) as f64;
                                row.push_str(&format!(" {:>8.1}%", avf * 100.0));
                            }
                            Err(e) => row.push_str(&format!(" {e}")),
                        }
                    }
                }
                Err(e) => row.push_str(&format!(" {e}")),
            }
            println!("{row}");
        }
        println!();
    }
    Ok(())
}

/// Performance profile table: the throughput half of the paper's
/// reliability-performance correlation.
fn perf_table(archs: &[ArchConfig], workloads: &[Box<dyn Workload>]) -> Result<(), String> {
    println!(
        "{:<12} {:<16} {:>9} {:>10} {:>6} {:>7} {:>9} {:>7} {:>7} {:>6} {:>9}",
        "workload",
        "device",
        "cycles",
        "warp-inst",
        "IPC",
        "lanes/i",
        "mem-trans",
        "L1 hit",
        "L2 hit",
        "util",
        "time (us)"
    );
    for w in workloads {
        for arch in archs {
            match grel_core::perf::profile(arch, w.as_ref()) {
                Ok(p) => println!(
                    "{:<12} {:<16} {:>9} {:>10} {:>6.2} {:>7.1} {:>9} {:>6.1}% {:>7} {:>5.0}% {:>9.1}",
                    p.workload,
                    p.device,
                    p.cycles,
                    p.warp_instructions,
                    p.ipc(),
                    p.lanes_per_instruction(),
                    p.mem_transactions,
                    p.l1_hit_rate * 100.0,
                    p.l2_hit_rate
                        .map(|r| format!("{:.1}%", r * 100.0))
                        .unwrap_or_else(|| "-".into()),
                    p.sm_utilization * 100.0,
                    p.device_time_us
                ),
                Err(e) => println!("{:<12} {:<16} {e}", w.name(), arch.name),
            }
        }
        println!();
    }
    Ok(())
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
fn bench_campaign(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
    log: &Logger,
) -> Result<(), String> {
    use grel_core::campaign::{run_campaign_with_ladder_hooked, Tally};
    use grel_telemetry::Json;
    use std::time::Instant;

    println!(
        "== Checkpointed replay vs from-zero replay (RF campaign, {} injections) ==",
        cfg.campaign.injections
    );
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
    let mut scaling: Vec<(String, String, usize, f64)> = Vec::new();
    // (device, workload, mode, wall, inj/s, pruned frac, fork frac,
    //  vs full, vs pruned)
    type PruneRow = (String, String, String, f64, f64, f64, f64, f64, f64);
    let mut prune_rows: Vec<PruneRow> = Vec::new();
    // (device, workload, target margin, uniform replayed, adaptive
    //  replayed, adaptive rounds, adaptive margin, savings, converged)
    type SamplingRow = (String, String, f64, u64, u64, usize, f64, f64, bool);
    let mut sampling_rows: Vec<SamplingRow> = Vec::new();
    let mut pairs_json: Vec<Json> = Vec::new();
    let mut profile_pairs_json: Vec<Json> = Vec::new();
    println!(
        "{:<16} {:<12} {:>5} {:>11} {:>13} {:>8}",
        "device", "workload", "rungs", "from-zero", "checkpointed", "speedup"
    );
    for arch in archs {
        for w in workloads {
            // Every failure below names the pair, and so does a tally
            // that differs where it must not.
            let on = format!("{} / {}", arch.name, w.name());
            let check = |same: bool, what: &str| {
                same.then_some(()).ok_or_else(|| format!("{what} on {on}"))
            };
            let golden = golden_run(arch, w.as_ref())
                .map_err(|e| format!("golden run failed on {}: {e}", arch.name))?;
            let sites = sample_sites(
                arch,
                Structure::VectorRegisterFile,
                golden.cycles,
                cfg.campaign.injections,
                cfg.campaign.seed,
            );
            let t0 = Instant::now();
            let base = run_injections(arch, w.as_ref(), &golden, &sites, cfg.campaign)
                .map_err(|e| format!("from-zero replay failed on {on}: {e}"))?;
            let t_zero = t0.elapsed();
            // The checkpointed side pays for building its own ladder, so
            // the comparison is end-to-end, not best-case.
            let t1 = Instant::now();
            let ladder = CheckpointLadder::build(arch, w.as_ref(), &golden, &cfg.campaign)
                .map_err(|e| format!("checkpoint ladder failed on {on}: {e}"))?;
            let fast = run_injections_checkpointed(
                arch,
                w.as_ref(),
                &golden,
                &ladder,
                &sites,
                cfg.campaign,
            )
            .map_err(|e| format!("checkpointed replay failed on {on}: {e}"))?;
            let t_ckpt = t1.elapsed();
            check(base == fast, "checkpointed outcomes must match from-zero")?;
            println!(
                "{:<16} {:<12} {:>5} {:>10.3}s {:>12.3}s {:>7.2}x",
                arch.name,
                w.name(),
                ladder.len(),
                t_zero.as_secs_f64(),
                t_ckpt.as_secs_f64(),
                t_zero.as_secs_f64() / t_ckpt.as_secs_f64().max(1e-9)
            );
            // Parallel scaling: same ladder, same sites, varying jobs.
            // The tally must be identical at every job count — that is
            // the runner's determinism contract, enforced right here.
            let mut pair_scaling_json: Vec<Json> = Vec::new();
            for &jobs in &jobs_ladder {
                let mut c = cfg.campaign;
                c.threads = jobs;
                let t = Instant::now();
                let tally =
                    run_injections_checkpointed(arch, w.as_ref(), &golden, &ladder, &sites, c)
                        .map_err(|e| {
                            format!("parallel replay failed on {on} with {jobs} jobs: {e}")
                        })?;
                check(
                    tally == fast,
                    &format!("tally must be job-count invariant (jobs = {jobs})"),
                )?;
                let secs = t.elapsed().as_secs_f64();
                pair_scaling_json.push(Json::Obj(vec![
                    ("jobs".into(), Json::from(jobs)),
                    ("seconds".into(), Json::from(secs)),
                    (
                        "injections_per_second".into(),
                        Json::from(cfg.campaign.injections as f64 / secs.max(1e-9)),
                    ),
                ]));
                scaling.push((arch.name.clone(), w.name().to_string(), jobs, secs));
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
                let res = run_campaign_with_ladder_hooked(
                    arch,
                    w.as_ref(),
                    Structure::VectorRegisterFile,
                    c,
                    &golden,
                    &ladder,
                    &hook,
                )
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
                let n = cfg.campaign.injections as f64;
                let ips = n / secs.max(1e-9);
                let pruned_frac = pruned as f64 / n.max(1.0);
                let fork_frac = forks as f64 / (batched as f64).max(1.0);
                let speedup = full_secs / secs.max(1e-9);
                let vs_pruned = if mode == "batched" {
                    pruned_secs / secs.max(1e-9)
                } else {
                    0.0
                };
                prune_rows.push((
                    arch.name.clone(),
                    w.name().to_string(),
                    mode.to_string(),
                    secs,
                    ips,
                    pruned_frac,
                    fork_frac,
                    speedup,
                    vs_pruned,
                ));
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
                let r = run_campaign_with_ladder_hooked(
                    arch,
                    w.as_ref(),
                    Structure::VectorRegisterFile,
                    cfg.campaign,
                    &golden,
                    &ladder,
                    &phook,
                )
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
            let plan = if cfg.sampling.enabled() {
                cfg.sampling
            } else {
                SamplingPlan::with_target(uniform_margin)
            };
            let mut ac = cfg.campaign;
            ac.prune = true;
            ac.batch = true;
            let adaptive = grel_core::run_adaptive_campaign(
                arch,
                w.as_ref(),
                Structure::VectorRegisterFile,
                ac,
                plan,
            )
            .map_err(|e| format!("adaptive campaign failed on {on}: {e}"))?;
            let savings = uniform_replayed as f64 / (adaptive.replayed as f64).max(1.0);
            sampling_rows.push((
                arch.name.clone(),
                w.name().to_string(),
                plan.target_margin,
                uniform_replayed,
                adaptive.replayed,
                adaptive.rounds.len(),
                adaptive.margin,
                savings,
                adaptive.converged,
            ));
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
                ("from_zero_seconds".into(), Json::from(t_zero.as_secs_f64())),
                (
                    "checkpointed_seconds".into(),
                    Json::from(t_ckpt.as_secs_f64()),
                ),
                ("modes".into(), Json::Arr(modes_json)),
                ("scaling".into(), Json::Arr(pair_scaling_json)),
            ]));
        }
    }
    if jobs_ladder.len() > 1 {
        println!();
        println!("== Parallel scaling (checkpointed replay, identical tallies asserted) ==");
        println!(
            "{:<16} {:<12} {:>5} {:>10} {:>8} {:>6}",
            "device", "workload", "jobs", "wall", "inj/s", "vs -j1"
        );
        let mut base_secs = 0.0;
        for (device, workload, jobs, secs) in &scaling {
            if *jobs == 1 {
                base_secs = *secs;
            }
            println!(
                "{:<16} {:<12} {:>5} {:>9.3}s {:>8.0} {:>5.2}x",
                device,
                workload,
                jobs,
                secs,
                cfg.campaign.injections as f64 / secs.max(1e-9),
                base_secs / secs.max(1e-9)
            );
        }
    }
    println!();
    println!("== Replay fast paths (RF campaign at -j{max_jobs}, identical tallies asserted) ==");
    println!(
        "{:<16} {:<12} {:<10} {:>9} {:>8} {:>7} {:>7} {:>8} {:>9}",
        "device", "workload", "mode", "wall", "inj/s", "pruned", "forked", "vs full", "vs pruned"
    );
    for (device, workload, mode, secs, ips, pruned, forked, speedup, vs_pruned) in &prune_rows {
        let vs_pruned_col = if *vs_pruned > 0.0 {
            format!("{vs_pruned:>8.2}x")
        } else {
            format!("{:>9}", "-")
        };
        println!(
            "{:<16} {:<12} {:<10} {:>8.3}s {:>8.0} {:>6.1}% {:>6.1}% {:>7.2}x {}",
            device,
            workload,
            mode,
            secs,
            ips,
            pruned * 100.0,
            forked * 100.0,
            speedup,
            vs_pruned_col
        );
    }
    println!();
    println!("== Adaptive stratified sampling vs uniform (equal margin, replayed injections) ==");
    println!(
        "{:<16} {:<12} {:>8} {:>9} {:>9} {:>7} {:>8} {:>8} {:>5}",
        "device",
        "workload",
        "target",
        "uniform",
        "adaptive",
        "rounds",
        "margin",
        "savings",
        "conv"
    );
    for (device, workload, target, uni, ada, rounds, margin, savings, conv) in &sampling_rows {
        println!(
            "{:<16} {:<12} {:>7.2}% {:>9} {:>9} {:>7} {:>7.2}% {:>7.2}x {:>5}",
            device,
            workload,
            target * 100.0,
            uni,
            ada,
            rounds,
            margin * 100.0,
            savings,
            if *conv { "yes" } else { "no" }
        );
    }
    let doc = Json::Obj(vec![
        ("bench".into(), Json::from("campaign")),
        ("structure".into(), Json::from("rf")),
        ("injections".into(), Json::from(cfg.campaign.injections)),
        ("jobs".into(), Json::from(max_jobs)),
        ("pairs".into(), Json::Arr(pairs_json)),
    ]);
    std::fs::write("BENCH_campaign.json", doc.to_string())
        .map_err(|e| format!("failed to write BENCH_campaign.json: {e}"))?;
    log.info("wrote BENCH_campaign.json");
    let profile_doc = Json::Obj(vec![
        ("bench".into(), Json::from("profile")),
        ("structure".into(), Json::from("rf")),
        ("injections".into(), Json::from(cfg.campaign.injections)),
        ("jobs".into(), Json::from(max_jobs)),
        ("pairs".into(), Json::Arr(profile_pairs_json)),
    ]);
    std::fs::write("BENCH_profile.json", profile_doc.to_string())
        .map_err(|e| format!("failed to write BENCH_profile.json: {e}"))?;
    log.info("wrote BENCH_profile.json");
    Ok(())
}

/// Extension experiment: does the warp scheduler change reliability?
/// The paper's intro names "execution scheduling" as a studied factor.
fn ablate_scheduler(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Ablation: warp scheduler vs reliability ==");
    println!(
        "{:<12} {:<16} {:>5} {:>9} {:>8} {:>8}",
        "workload", "device", "sched", "cycles", "RF AVF", "RF occ"
    );
    for w in workloads {
        for base in archs {
            for policy in [SchedulerPolicy::Lrr, SchedulerPolicy::Gto] {
                let mut arch = base.clone();
                arch.scheduler = policy;
                match evaluate_point(&arch, w.as_ref(), cfg) {
                    Ok(p) => println!(
                        "{:<12} {:<16} {:>5} {:>9} {:>7.1}% {:>7.1}%",
                        p.workload,
                        p.device,
                        format!("{policy:?}"),
                        p.cycles,
                        p.rf.avf_fi * 100.0,
                        p.rf.occupancy * 100.0
                    ),
                    Err(e) => println!("{:<12} {:<16} {policy:?}: {e}", w.name(), base.name),
                }
            }
        }
        println!();
    }
    Ok(())
}

/// Extension experiment: register-file size sweep ("resource sizes").
/// Halving the file raises occupancy (and AVF); doubling dilutes it but
/// adds bits, so FIT moves less than AVF — the designer's trade-off.
fn ablate_rf_size(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Ablation: register-file size vs AVF and FIT ==");
    println!(
        "{:<12} {:<16} {:>7} {:>9} {:>8} {:>8} {:>10}",
        "workload", "device", "RF KiB", "cycles", "RF AVF", "RF occ", "RF FIT"
    );
    for w in workloads {
        for base in archs {
            for scale in [1u32, 2, 4] {
                let mut arch = base.clone();
                // scale = 2 is the stock size; 1 halves, 4 doubles.
                arch.regfile_bytes_per_sm = base.regfile_bytes_per_sm / 2 * scale;
                match evaluate_point(&arch, w.as_ref(), cfg) {
                    Ok(p) => println!(
                        "{:<12} {:<16} {:>7} {:>9} {:>7.1}% {:>7.1}% {:>10.2}",
                        p.workload,
                        p.device,
                        arch.regfile_bytes_per_sm / 1024,
                        p.cycles,
                        p.rf.avf_fi * 100.0,
                        p.rf.occupancy * 100.0,
                        structure_fit(&arch, Structure::VectorRegisterFile, p.rf.avf_fi)
                    ),
                    Err(e) => println!(
                        "{:<12} {:<16} {:>7}  launch fails: {e}",
                        w.name(),
                        base.name,
                        arch.regfile_bytes_per_sm / 1024
                    ),
                }
            }
            println!();
        }
    }
    Ok(())
}

/// Extension experiment: ACE refinement level vs fault injection — the
/// methodological trade-off behind the paper's finding F3.
fn ablate_ace(
    archs: &[ArchConfig],
    workloads: &[Box<dyn Workload>],
    cfg: &StudyConfig,
) -> Result<(), String> {
    println!("== Ablation: ACE refinement vs fault injection ==");
    println!(
        "{:<12} {:<16} {:>6} | {:>8} {:>9} {:>8}",
        "workload", "device", "struct", "ACE-cons", "ACE-refnd", "FI"
    );
    for w in workloads {
        for arch in archs {
            let structures = cfg.injected_structures(w.as_ref());
            // One setup carries the refined ACE analysis and every
            // campaign; the conservative analysis takes one more pass.
            let capture = Capture {
                ace: Some(AceMode::WriteToLastRead),
                ..Capture::campaign(&cfg.campaign)
            };
            let rows = Campaign::new(arch, w.as_ref(), &cfg.campaign, capture, &NoopHook).and_then(
                |setup| {
                    let (_, conservative) = golden_run_with_ace(arch, w.as_ref())?;
                    structures
                        .iter()
                        .map(|&s| {
                            let fi = setup.run(s, cfg.campaign, &NoopHook)?;
                            let refined = setup.ace(s).expect("ACE was captured");
                            let cons = conservative.report(s).avf_ace;
                            Ok((s, cons, refined.avf_ace, fi.avf()))
                        })
                        .collect::<Result<Vec<_>, SimError>>()
                },
            );
            let rows = match rows {
                Ok(rows) => rows,
                Err(e) => {
                    println!("{:<12} {:<16} {e}", w.name(), arch.name);
                    continue;
                }
            };
            for (s, conservative, refined, fi) in rows {
                let tag = match s {
                    Structure::VectorRegisterFile => "RF",
                    Structure::LocalMemory => "LDS",
                    Structure::ScalarRegisterFile => "SRF",
                };
                println!(
                    "{:<12} {:<16} {:>6} | {:>7.1}% {:>8.1}% {:>7.1}%",
                    w.name(),
                    arch.name,
                    tag,
                    conservative * 100.0,
                    refined * 100.0,
                    fi * 100.0
                );
            }
        }
        println!();
    }
    Ok(())
}
