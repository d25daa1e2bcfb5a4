//! Per-layer harness of the study benchmark.
//!
//! Runs one benchmark workload as a sequence of calls into each layer's
//! public functions — `sim` (golden run), `ace`, `oracle`, `campaign`
//! (checkpoint ladder, site sampling), `session` (checkpoint restore) and
//! `runner` (scalar and batched replay) — and times every call from the
//! outside. The program itself is not instrumented further: counts come
//! from the existing `RegistryHook` counters, and each timed call is
//! recorded as a span in a `grel_telemetry::SpanRecorder`, written out as
//! a Perfetto-loadable Chrome trace when the run ends.
//!
//! The flags mirror the `repro` command the workload runs end to end, so
//! both sides replay exactly the same fault sites:
//!
//! ```text
//! perfbench-layers [--device D] [--workload W] [--fault-model M[,M…]]
//!                  [--injections N] [--seed S] [--jobs J]
//!                  [--no-prune] [--no-batch] [--scalar-sites K]
//!                  [--trace PATH]
//! ```
//!
//! Prints one JSON object on stdout: `metrics` (every per-layer metric
//! of the benchmark), `layers` (host seconds per layer of the mirrored
//! workload, for the share table) and `traced_s` (the host time of the
//! layer calls that make up the workload, as the harness ran them).

use gpu_archs::all_devices;
use gpu_workloads::{all_workloads, Workload};
use grel_core::ace::LifetimeOracle;
use grel_core::campaign::{
    golden_run_hooked, golden_run_with_ace, run_campaign_hooked, run_campaign_with_oracle_hooked,
    run_injections_checkpointed, sample_model_sites, structure_label, CampaignConfig,
    CheckpointLadder, GoldenRun, Outcome,
};
use grel_telemetry::{
    Json, MetricsRegistry, NoopHook, RegistryHook, SpanHook, SpanRecord, SpanRecorder,
};
use simt_sim::{ArchConfig, Checkpoint, FaultModelKind, FaultSite, Gpu, Session, Structure};
use std::process::ExitCode;
use std::time::Instant;

/// Restores timed per ladder rung; the median is kept.
const RESUMES_PER_RUNG: usize = 5;
/// Hang and non-hang sites replayed for the hang-time split.
const HANG_SPLIT_SITES: usize = 32;
/// Injections of the campaign timed with and without hooks.
const HOOK_OVERHEAD_INJECTIONS: u32 = 100;

struct Opts {
    device: Option<String>,
    workload: Option<String>,
    models: Vec<FaultModelKind>,
    injections: u32,
    seed: u64,
    jobs: usize,
    prune: bool,
    batch: bool,
    /// Sites per campaign in the fixed scalar-replay list; 0 = all.
    scalar_sites: usize,
    trace: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        device: None,
        workload: None,
        models: vec![FaultModelKind::Transient],
        injections: 200,
        seed: 2017,
        jobs: 1,
        prune: true,
        batch: true,
        scalar_sites: 0,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--device" => o.device = Some(value()?),
            "--workload" => o.workload = Some(value()?),
            "--fault-model" => {
                o.models = value()?
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()?
            }
            "--injections" => o.injections = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--jobs" => o.jobs = value()?.parse().map_err(|e| format!("{a}: {e}"))?,
            "--scalar-sites" => {
                o.scalar_sites = value()?.parse().map_err(|e| format!("{a}: {e}"))?
            }
            "--trace" => o.trace = Some(value()?),
            "--no-prune" => o.prune = false,
            "--no-batch" => o.batch = false,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=2).contains(&o.jobs) {
        return Err("--jobs must be 1 or 2".into());
    }
    Ok(o)
}

/// Host-time and count accumulators over every campaign of the workload.
#[derive(Default)]
struct Acc {
    golden_s: f64,
    cycles: u64,
    warp_instructions: u64,
    ace_s: f64,
    oracle_s: f64,
    oracle_dead: u64,
    ladder_s: f64,
    rungs: u64,
    ladder_bytes: u64,
    restore_us: Vec<f64>,
    rung_distance: u128,
    replay_s: f64,
    scalar_s: f64,
    scalar_sites: u64,
    scalar_restore_s: f64,
    replay_restore_s: f64,
    batched_s: f64,
    batched: u64,
    batches: u64,
    batch_forks: u64,
    batch_fallbacks: u64,
    hang_sites: u64,
    classified: u64,
    hang_split_s: [f64; 2],
    hang_split_n: [u64; 2],
    one_worker_s: f64,
    two_worker_s: f64,
    worker_pairs: u64,
    hooked_s: f64,
    noop_s: f64,
}

/// Times `call` at 1 and at 2 workers, with the order swapped from one
/// pair to the next so that neither worker count always runs second.
/// Returns the output and host time at the workload's own `jobs`.
fn worker_pair<T>(
    rec: &SpanRecorder,
    acc: &mut Acc,
    camp: &str,
    jobs: usize,
    mut call: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut order = [1, 2];
    if acc.worker_pairs % 2 == 1 {
        order.reverse();
    }
    acc.worker_pairs += 1;
    let mut own = None;
    for threads in order {
        let (r, t) = timed(rec, format!("{camp}/runner.workers:{threads}"), || {
            call(threads)
        });
        let r = r?;
        if threads == 1 {
            acc.one_worker_s += t;
        } else {
            acc.two_worker_s += t;
        }
        if threads == jobs {
            own = Some((r, t));
        }
    }
    Ok(own.expect("--jobs is 1 or 2"))
}

/// Times `f` from the outside and records it as a span on lane 0.
fn timed<T>(rec: &SpanRecorder, path: String, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let span = SpanRecord::new(path, 0, 0, start);
    let secs = span.end.duration_since(span.start).as_secs_f64();
    rec.record(span);
    (out, secs)
}

fn matches(name: &str, alt: &str, filter: &Option<String>) -> bool {
    filter.as_ref().is_none_or(|f| {
        let f = f.to_ascii_lowercase();
        name.to_ascii_lowercase().contains(&f) || alt.to_ascii_lowercase().contains(&f)
    })
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every rung of the ladder, lowest cycle first.
fn rungs(ladder: &CheckpointLadder) -> Vec<&Checkpoint> {
    let mut out = Vec::with_capacity(ladder.len());
    let mut below = u64::MAX;
    while let Some(ck) = ladder.nearest(below) {
        out.push(ck);
        match ck.cycle().checked_sub(1) {
            Some(c) => below = c,
            None => break,
        }
    }
    out.reverse();
    out
}

struct Pair<'a> {
    arch: &'a ArchConfig,
    workload: &'a dyn Workload,
    name: String,
}

fn run() -> Result<Json, String> {
    let o = parse_opts()?;
    let archs: Vec<ArchConfig> = all_devices()
        .into_iter()
        .filter(|a| matches(&a.name, &a.microarch, &o.device))
        .collect();
    let workloads: Vec<Box<dyn Workload>> = all_workloads(o.seed)
        .into_iter()
        .filter(|w| matches(w.name(), "", &o.workload))
        .collect();
    if archs.is_empty() || workloads.is_empty() {
        return Err("the device/workload filters match no pair".into());
    }
    // Workload-major, the order `run_study` evaluates points in.
    let pairs: Vec<Pair> = workloads
        .iter()
        .flat_map(|w| {
            archs.iter().map(move |a| Pair {
                arch: a,
                workload: w.as_ref(),
                name: format!("{}@{}", w.name(), a.name),
            })
        })
        .collect();
    let rec = SpanRecorder::new();
    let mut acc = Acc::default();
    let err = |e: simt_sim::SimError| e.to_string();
    let mut first_campaign: Option<(usize, Structure, CampaignConfig)> = None;

    for (pi, p) in pairs.iter().enumerate() {
        let (arch, wl) = (p.arch, p.workload);
        // sim: plain golden run; instructions retired come from the
        // registry counter the hooked call already maintains.
        let reg = MetricsRegistry::new();
        let (golden, golden_s) = timed(&rec, format!("{}/sim.golden", p.name), || {
            golden_run_hooked(arch, wl, &RegistryHook::new(&reg))
        });
        let golden: GoldenRun = golden.map_err(err)?;
        acc.golden_s += golden_s;
        acc.cycles += golden.cycles;
        acc.warp_instructions += reg
            .snapshot()
            .counter("sim_instructions_total")
            .unwrap_or(0);

        let (ace, ace_run_s) = timed(&rec, format!("{}/ace.analyze", p.name), || {
            golden_run_with_ace(arch, wl)
        });
        ace.map_err(err)?;
        acc.ace_s += ace_run_s - golden_s;

        let (oracle, oracle_s) = timed(&rec, format!("{}/oracle.capture", p.name), || {
            LifetimeOracle::capture(arch, wl)
        });
        let oracle = oracle.map_err(err)?;
        acc.oracle_s += oracle_s;

        let base = CampaignConfig {
            injections: o.injections,
            seed: o.seed,
            threads: o.jobs,
            watchdog_factor: 10,
            checkpoint_interval: 0,
            checkpoint_budget_bytes: 0,
            prune: o.prune,
            early_exit: o.prune,
            fault_model: FaultModelKind::Transient,
            batch: o.batch,
            convergence: 100,
        };
        let (ladder, ladder_s) = timed(&rec, format!("{}/campaign.ladder", p.name), || {
            CheckpointLadder::build(arch, wl, &golden, &base)
        });
        let ladder = ladder.map_err(err)?;
        acc.ladder_s += ladder_s;
        acc.rungs += ladder.len() as u64;
        acc.ladder_bytes += ladder.total_bytes();

        // session: restore from every rung, median of a few resumes each.
        let rung_list = rungs(&ladder);
        let mut rung_restore_s = Vec::with_capacity(rung_list.len());
        let restore_start = Instant::now();
        let mut gpu = Gpu::new(arch.clone());
        for ck in &rung_list {
            let mut samples: Vec<f64> = (0..RESUMES_PER_RUNG)
                .map(|_| {
                    let t0 = Instant::now();
                    let session = Session::resume(&mut gpu, ck);
                    std::hint::black_box(&session);
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            let m = median(&mut samples);
            acc.restore_us.push(m * 1e6);
            rung_restore_s.push((ck.cycle(), m));
        }
        rec.record(
            SpanRecord::new(format!("{}/session.restore", p.name), 0, 0, restore_start)
                .tag("rungs", rung_list.len()),
        );
        let mean_restore_s = ratio(
            rung_restore_s.iter().map(|&(_, s)| s).sum(),
            rung_restore_s.len() as f64,
        );
        let restore_of = |site: &FaultSite| -> f64 {
            match rung_restore_s.partition_point(|&(c, _)| c <= site.cycle) {
                0 => 0.0,
                i => rung_restore_s[i - 1].1,
            }
        };

        let mut structures = vec![Structure::VectorRegisterFile];
        if wl.uses_local_memory() {
            structures.push(Structure::LocalMemory);
        }
        for &model in &o.models {
            for &structure in &structures {
                let cfg = CampaignConfig {
                    fault_model: model,
                    ..base
                };
                first_campaign.get_or_insert((pi, structure, cfg));
                let camp = format!(
                    "{}/campaign:{}:{}",
                    p.name,
                    structure_label(structure),
                    model.as_str()
                );
                let sites =
                    sample_model_sites(arch, structure, model, golden.cycles, o.injections, o.seed);
                for s in &sites {
                    let rung = ladder.nearest(s.cycle).map_or(0, Checkpoint::cycle);
                    acc.rung_distance += u128::from(s.cycle - rung);
                    acc.oracle_dead += u64::from(oracle.is_dead(*s));
                }
                acc.classified += sites.len() as u64;
                let transient = model == FaultModelKind::Transient;

                // runner, default engine (checkpoints + pruning + batching,
                // the last two for transient faults only), hooked for its
                // counters. Without the hook it is the workload's own
                // replay when the workload uses that engine.
                let default_engine = o.prune && o.batch && transient;
                if transient {
                    let dcfg = CampaignConfig {
                        prune: true,
                        early_exit: true,
                        batch: true,
                        ..cfg
                    };
                    let reg = MetricsRegistry::new();
                    let (r, t) = timed(&rec, format!("{camp}/runner.batched"), || {
                        run_campaign_with_oracle_hooked(
                            arch,
                            wl,
                            structure,
                            dcfg,
                            &golden,
                            &ladder,
                            Some(&oracle),
                            &RegistryHook::new(&reg),
                        )
                    });
                    r.map_err(err)?;
                    let snap = reg.snapshot();
                    let c = |n: &str| snap.counter(n).unwrap_or(0);
                    acc.batched_s += t;
                    acc.batched += c("campaign_batched_total");
                    acc.batches += c("campaign_batches_total");
                    acc.batch_forks += c("campaign_batch_forks_total");
                    acc.batch_fallbacks += c("campaign_batch_fallbacks_total");
                    if default_engine {
                        acc.hang_sites += c("campaign_hang_total");
                        // Every shared pass and every fork resumes once,
                        // and so does each live site replayed alone or in
                        // a pass that fell back; a fork's snapshot is a
                        // golden state like a rung's.
                        let live = sites.len() as u64 - c("campaign_pruned_total");
                        let restores = (c("campaign_batches_total")
                            + c("campaign_batch_forks_total")
                            + (live - c("campaign_batched_total")))
                            as f64
                            + c("campaign_batch_fallbacks_total") as f64
                                * ratio(
                                    c("campaign_batched_total") as f64,
                                    c("campaign_batches_total") as f64,
                                );
                        acc.replay_restore_s += restores * mean_restore_s;
                        // The workload's own replay, timed without a hook
                        // as `repro` runs it, at both worker counts.
                        let (_, t) = worker_pair(&rec, &mut acc, &camp, o.jobs, |threads| {
                            run_campaign_with_oracle_hooked(
                                arch,
                                wl,
                                structure,
                                CampaignConfig { threads, ..dcfg },
                                &golden,
                                &ladder,
                                Some(&oracle),
                                &NoopHook,
                            )
                            .map_err(err)
                        })?;
                        acc.replay_s += t;
                    }
                }

                // runner, scalar checkpointed replay over the fixed list.
                let scfg = CampaignConfig {
                    batch: false,
                    ..cfg
                };
                let keep = if o.scalar_sites == 0 {
                    sites.len()
                } else {
                    o.scalar_sites
                };
                let fixed: Vec<FaultSite> = sites.iter().copied().take(keep).collect();
                let restore_s: f64 = fixed.iter().map(restore_of).sum();
                acc.scalar_sites += fixed.len() as u64;
                acc.scalar_restore_s += restore_s;
                if default_engine {
                    let (r, t) = timed(&rec, format!("{camp}/runner.scalar"), || {
                        run_injections_checkpointed(arch, wl, &golden, &ladder, &fixed, scfg)
                    });
                    r.map_err(err)?;
                    acc.scalar_s += t;
                    continue;
                }
                // The fixed list is the whole campaign: this is the
                // workload's own replay.
                let (outcomes, t) = worker_pair(&rec, &mut acc, &camp, o.jobs, |threads| {
                    let cfg = CampaignConfig { threads, ..scfg };
                    run_injections_checkpointed(arch, wl, &golden, &ladder, &fixed, cfg)
                        .map_err(err)
                })?;
                acc.scalar_s += t;
                acc.replay_s += t;
                acc.replay_restore_s += restore_s;
                let is_hang: Vec<bool> = outcomes.iter().map(|&x| x == Outcome::Hang).collect();
                acc.hang_sites += is_hang.iter().filter(|&&h| h).count() as u64;
                if is_hang.iter().any(|&h| h) {
                    for (side, want) in [(0, true), (1, false)] {
                        let split: Vec<FaultSite> = fixed
                            .iter()
                            .zip(&is_hang)
                            .filter(|&(_, &h)| h == want)
                            .map(|(s, _)| *s)
                            .take(HANG_SPLIT_SITES)
                            .collect();
                        let name = if want { "hang" } else { "no-hang" };
                        let (r, t) = timed(&rec, format!("{camp}/runner.{name}"), || {
                            run_injections_checkpointed(arch, wl, &golden, &ladder, &split, scfg)
                        });
                        r.map_err(err)?;
                        acc.hang_split_s[side] += t;
                        acc.hang_split_n[side] += split.len() as u64;
                    }
                }
            }
        }
    }

    // telemetry: the first campaign of the workload, whole call, with the
    // registry and span hooks against none.
    if let Some((pi, structure, cfg)) = first_campaign {
        let p = &pairs[pi];
        let cfg = CampaignConfig {
            injections: cfg.injections.min(HOOK_OVERHEAD_INJECTIONS),
            ..cfg
        };
        let (r, noop_s) = timed(&rec, format!("{}/telemetry.noop", p.name), || {
            run_campaign_hooked(p.arch, p.workload, structure, cfg, &NoopHook)
        });
        r.map_err(err)?;
        let reg = MetricsRegistry::new();
        let inner = SpanRecorder::new();
        let (r, hooked_s) = timed(&rec, format!("{}/telemetry.hooked", p.name), || {
            let hook = (RegistryHook::new(&reg), SpanHook::new(&inner));
            run_campaign_hooked(p.arch, p.workload, structure, cfg, &hook)
        });
        r.map_err(err)?;
        acc.noop_s = noop_s;
        acc.hooked_s = hooked_s;
    }

    if let Some(path) = &o.trace {
        let trace = rec.finish().to_chrome_trace();
        std::fs::write(path, format!("{trace}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(report(&o, &acc))
}

fn report(o: &Opts, a: &Acc) -> Json {
    const MIB: f64 = (1u64 << 20) as f64;
    let restore_us = median(&mut a.restore_us.clone());
    // Hang share of replay time: per-site means of the two split calls,
    // weighted by the exact hang and non-hang counts.
    let non_hang = a.classified - a.hang_sites;
    let hang_cost = a.hang_sites as f64 * ratio(a.hang_split_s[0], a.hang_split_n[0] as f64);
    let other_cost = non_hang as f64 * ratio(a.hang_split_s[1], a.hang_split_n[1] as f64);
    let metric = |v: f64, unit: &str| {
        Json::Obj(vec![
            ("value".into(), Json::from(v)),
            ("unit".into(), Json::from(unit)),
        ])
    };
    let metrics = vec![
        ("sim.golden_s", metric(a.golden_s, "s")),
        ("sim.cycles", metric(a.cycles as f64, "count")),
        (
            "sim.cycles_per_s",
            metric(ratio(a.cycles as f64, a.golden_s), "1/s"),
        ),
        (
            "sim.warp_instr_per_s",
            metric(ratio(a.warp_instructions as f64, a.golden_s), "1/s"),
        ),
        ("session.restore_us", metric(restore_us, "us")),
        (
            "session.checkpoint_mb",
            metric(ratio(a.ladder_bytes as f64 / MIB, a.rungs as f64), "MiB"),
        ),
        ("ace.analyze_s", metric(a.ace_s, "s")),
        ("oracle.capture_s", metric(a.oracle_s, "s")),
        (
            "oracle.pruned_frac",
            metric(ratio(a.oracle_dead as f64, a.classified as f64), "ratio"),
        ),
        ("campaign.ladder_build_s", metric(a.ladder_s, "s")),
        ("campaign.ladder_rungs", metric(a.rungs as f64, "count")),
        (
            "campaign.ladder_mb",
            metric(a.ladder_bytes as f64 / MIB, "MiB"),
        ),
        (
            "campaign.rung_distance_cycles",
            metric(ratio(a.rung_distance as f64, a.classified as f64), "cycles"),
        ),
        (
            "runner.scalar_ms_per_inj",
            metric(ratio(a.scalar_s * 1e3, a.scalar_sites as f64), "ms"),
        ),
        (
            "runner.restore_share",
            metric(ratio(a.scalar_restore_s, a.scalar_s), "ratio"),
        ),
        ("runner.batched_s", metric(a.batched_s, "s")),
        (
            "runner.batch_lanes",
            metric(ratio(a.batched as f64, a.batches as f64), "count"),
        ),
        (
            "runner.batch_fork_frac",
            metric(ratio(a.batch_forks as f64, a.batched as f64), "ratio"),
        ),
        (
            "runner.batch_fallbacks",
            metric(a.batch_fallbacks as f64, "count"),
        ),
        (
            "runner.hang_frac",
            metric(ratio(a.hang_sites as f64, a.classified as f64), "ratio"),
        ),
        (
            "runner.hang_time_share",
            metric(ratio(hang_cost, hang_cost + other_cost), "ratio"),
        ),
        (
            "runner.speedup_2w",
            metric(ratio(a.one_worker_s, a.two_worker_s), "ratio"),
        ),
        (
            "telemetry.hook_overhead",
            metric(ratio(a.hooked_s, a.noop_s), "ratio"),
        ),
    ];
    // Host seconds per layer of the mirrored workload. The study runs the
    // ACE analysis and (when pruning) the oracle on one golden pass, so
    // they count as their cost above a plain simulation.
    let captures_oracle = o.prune && o.models.contains(&FaultModelKind::Transient);
    let oracle_layer = if captures_oracle {
        (a.oracle_s - a.golden_s).max(0.0)
    } else {
        0.0
    };
    let layers = vec![
        ("sim", a.golden_s),
        ("ace", a.ace_s),
        ("oracle", oracle_layer),
        ("campaign.ladder", a.ladder_s),
        ("session.restore", a.replay_restore_s),
        ("runner.replay", a.replay_s - a.replay_restore_s),
    ];
    // The calls as the harness ran them: golden, ACE and oracle are
    // separate passes here.
    let traced = a.golden_s
        + (a.ace_s + a.golden_s)
        + if captures_oracle { a.oracle_s } else { 0.0 }
        + a.ladder_s
        + a.replay_s;
    Json::Obj(vec![
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        (
            "layers".into(),
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::from(v)))
                    .collect(),
            ),
        ),
        ("traced_s".into(), Json::from(traced)),
    ])
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
