//! Deterministic parallel replay runner: the one worker pool behind
//! every fault-injection campaign — uniform, adaptive, traced and
//! multi-bit-upset alike.
//!
//! A campaign's injections are embarrassingly parallel — each one replays
//! the workload from the nearest checkpoint with its fault armed and
//! classifies the outcome independently of every other injection.
//! The runner exploits that while keeping a hard determinism contract:
//!
//! **Campaign results are a pure function of `(arch, workload, sites,
//! cfg)` — never of the worker count or of thread scheduling.**
//!
//! The contract holds by construction, and this module is the only
//! place it has to be argued:
//!
//! 1. the fault-site list is sampled up front from the seed (the runner
//!    never draws randomness);
//! 2. injections are sorted by `(fault cycle, injection index)` — a
//!    deterministic total order — so neighbouring replays resume from
//!    the same ladder rung;
//! 3. the sorted order is cut into work units (one scalar replay, a
//!    traced scalar replay, or a bit-plane batch) by a pure function of
//!    `(sites, order, cfg)` that never looks at the job count;
//! 4. the unit list is dealt round-robin across `jobs` workers (worker
//!    `w` takes units `w, w + jobs, w + 2·jobs, …`), which balances the
//!    expensive early-cycle replays and the cheap late-cycle ones evenly
//!    without any work-stealing;
//! 5. each worker owns its own device ([`Gpu`]) and drives its own
//!    replay [`Session`](simt_sim::Session) per injection, while the
//!    point's setup — the [`Campaign`] with its golden run, checkpoint
//!    ladder, oracle and golden store log — is shared read-only through
//!    one `ReplayContext` (`&` — the setup is immutable and `Sync`,
//!    and the context's watchdog budget is computed once per run);
//! 6. every outcome is scattered back into its injection's original
//!    index, so the returned vector is in **injection order** regardless
//!    of which worker finished first; worker results come back from
//!    the fan-out in worker order, so when several workers fail the
//!    lowest-numbered worker's error wins.
//!
//! Every worker records into the one
//! [`MetricsRegistry`](grel_telemetry::MetricsRegistry) of the hook.
//! Counters and histograms are integer sums, so hooked runs observe the
//! same totals at any job count (per-worker series are labelled
//! `worker="N"` by stripe index, not by OS thread, and are therefore
//! deterministic too).

use crate::campaign::{
    classify_batch_on, classify_on, structure_label, Campaign, CampaignConfig, Outcome,
    ReplayContext,
};
use crate::convergence::ConvergenceMonitor;
use grel_telemetry::{SpanRecord, TelemetryHook};
use simt_sim::{
    FaultModelKind, FaultSite, Gpu, NoopObserver, SimError, SimObserver, Structure, TraceObserver,
    TraceRecord, MAX_BATCH_SCENARIOS,
};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Runs `work(w)` for every worker `w in 0..n` (at least one) — on `n`
/// scoped threads, or inline on the calling thread when `n == 1` — and
/// returns the results in worker order. The one thread fan-out of the crate: replay
/// workers and study-point workers both go through it.
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] naming the lowest-numbered worker that
/// panicked. Every worker runs to its end first.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, SimError> {
    if n <= 1 {
        let done = panic::catch_unwind(AssertUnwindSafe(|| work(0)));
        return done.map(|t| vec![t]).map_err(|p| worker_panicked(0, &*p));
    }
    let work = &work;
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n).map(|w| scope.spawn(move || work(w))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    joined
        .into_iter()
        .enumerate()
        .map(|(w, done)| done.map_err(|p| worker_panicked(w, &*p)))
        .collect()
}

/// The harness error of worker `worker`'s panic with payload `payload`.
fn worker_panicked(worker: usize, payload: &(dyn Any + Send)) -> SimError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string payload".into());
    SimError::WorkerPanicked { worker, message }
}

/// How each injection of a replay run is armed and observed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arming {
    /// `width` consecutive entries of the site list form one injection,
    /// armed together (a multi-bit upset; `1` is the single-bit
    /// campaign). Only single-site injections are pruned or batched.
    Groups(usize),
    /// One site per injection, replayed under the flight recorder
    /// against the setup's golden global-store stream
    /// ([`Campaign::golden_writes`]); each injection also yields its
    /// [`TraceRecord`].
    Traced,
}

/// What one replay run hands back ([`Campaign::replay_with`]).
pub(crate) struct Replayed {
    /// One outcome per injection, in injection order.
    pub(crate) outcomes: Vec<Outcome>,
    /// One flight-recorder record per injection of a traced run, in
    /// the same order; empty otherwise.
    pub(crate) records: Vec<TraceRecord>,
    /// Injections the lifetime oracle classified `Masked` without a
    /// replay.
    pub(crate) pruned: u64,
}

/// One piece of worker work, naming injections by index.
enum Unit {
    /// One injection replayed alone.
    Scalar(usize),
    /// One single-site injection replayed under the flight recorder.
    Traced(usize),
    /// Up to [`MAX_BATCH_SCENARIOS`] transient sites in one shared pass.
    Batch(Vec<usize>),
}

/// What a worker hands back per injection: its index, outcome and, for
/// traced units, the flight-recorder record.
type Done = (usize, Outcome, Option<TraceRecord>);

/// Everything a worker needs, shared read-only across the pool.
struct ReplayShared<'a, H> {
    ctx: ReplayContext<'a, H>,
    sites: &'a [FaultSite],
    /// Sites per injection.
    width: usize,
    units: &'a [Unit],
    /// `point:{workload}@{device}/campaign:{structure}` when span
    /// tracing is on — the parent path every replay span hangs off.
    /// `None` whenever `H::SPANS` is false, so the no-profile path
    /// never formats a string.
    span_prefix: Option<String>,
}

impl<H> ReplayShared<'_, H> {
    /// The sites of injection `i`.
    fn group(&self, i: usize) -> &[FaultSite] {
        &self.sites[i * self.width..(i + 1) * self.width]
    }
}

/// The profile prefix for a campaign's replay spans, or `None` when the
/// hook records no spans (or there is nothing to replay).
fn replay_span_prefix<H: TelemetryHook>(
    ctx: &ReplayContext<'_, H>,
    sites: &[FaultSite],
) -> Option<String> {
    (H::SPANS && !sites.is_empty()).then(|| {
        format!(
            "point:{}@{}/campaign:{}",
            ctx.setup.workload.name(),
            ctx.setup.arch.name,
            structure_label(sites[0].structure)
        )
    })
}

/// Streams the merged injection-order outcome vector through a
/// [`ConvergenceMonitor`], emitting `campaign.convergence` events every
/// `cfg.convergence` outcomes. Runs serially *after* the scatter-merge,
/// so the event stream is a pure function of `(structure, outcomes,
/// cadence)` and inherits the runner's determinism contract verbatim:
/// byte-identical at any job count, with pruning and batching on or
/// off. A zero cadence disables the stream.
fn stream_convergence<H: TelemetryHook>(
    ctx: &ReplayContext<'_, H>,
    structure: Structure,
    cfg: CampaignConfig,
    outcomes: &[Outcome],
) -> Result<(), SimError> {
    if !H::ENABLED || cfg.convergence == 0 || outcomes.is_empty() {
        return Ok(());
    }
    let setup = ctx.setup;
    let mut monitor = ConvergenceMonitor::new(
        setup.workload.name(),
        &setup.arch.name,
        structure,
        cfg.fault_model,
        setup.space(structure, cfg.fault_model)?.margin_population(),
        outcomes.len() as u64,
        cfg.convergence,
    );
    for &o in outcomes {
        monitor.observe(o, ctx.hook);
    }
    monitor.finish(ctx.hook);
    Ok(())
}

/// The rung label of the per-injection telemetry: the ladder index the
/// replay resumed from, or `start` for the run's start.
fn rung_label(rung: Option<usize>) -> String {
    rung.map_or_else(|| "start".to_string(), |idx| idx.to_string())
}

/// Records one injection's outcome/hang/kind/rung counters and its
/// latency sample. Only called when `H::ENABLED`.
fn record_injection<H: TelemetryHook>(
    hook: &H,
    site: FaultSite,
    outcome: Outcome,
    rung: &str,
    seconds: f64,
) {
    hook.observe("campaign_injection_seconds", seconds);
    let outcome_label = outcome.as_str();
    hook.count(
        &format!("campaign_injections_total{{outcome=\"{outcome_label}\"}}"),
        1,
    );
    if outcome == Outcome::Hang {
        hook.count("campaign_hang_total", 1);
    }
    let kind_label = site.kind.as_str();
    hook.count(
        &format!("campaign_injections_by_kind_total{{kind=\"{kind_label}\"}}"),
        1,
    );
    hook.count(&format!("campaign_rung_hits_total{{rung=\"{rung}\"}}"), 1);
}

/// Records one injection's replay span at `path`, covering `elapsed`
/// from `started`, plus the log2-microsecond latency buckets the profile
/// report renders. Only called when `H::SPANS`.
///
/// The span path is keyed by the **injection index**, not the worker,
/// so the structural span tree is identical at any job count; the
/// worker only shows up as the timeline lane (and in the jobs-variant
/// `worker:*` sibling spans, which structural diffs exclude).
#[allow(clippy::too_many_arguments)]
fn record_injection_span<H: TelemetryHook>(
    hook: &H,
    path: String,
    started: Instant,
    elapsed: Duration,
    index: usize,
    worker: usize,
    site: FaultSite,
    outcome: Outcome,
    rung: &str,
) {
    let mut span = SpanRecord::new(path, worker as u32 + 1, index as u64, started)
        .tag("outcome", outcome.as_str())
        .tag("kind", site.kind.as_str())
        .tag("rung", rung);
    span.end = started + elapsed;
    hook.span(&span);
    let us = elapsed.as_micros() as u64;
    // log2 buckets: bucket b holds latencies in [2^b, 2^(b+1)) µs, and
    // the counter accumulates microseconds (not samples) so the report
    // shows where wall time went, not just how many replays landed where.
    let bucket = 63 - us.max(1).leading_zeros();
    let outcome_label = outcome.as_str();
    hook.count(
        &format!(
            "campaign_injection_latency_us_total{{outcome=\"{outcome_label}\",bucket=\"{bucket:02}\"}}"
        ),
        us,
    );
    let kind_label = site.kind.as_str();
    hook.count(
        &format!(
            "campaign_injection_latency_by_kind_us_total{{kind=\"{kind_label}\",bucket=\"{bucket:02}\"}}"
        ),
        us,
    );
}

/// Records a worker's whole-loop accounting: its timeline span and
/// utilization counters (busy µs over alive µs) when spans are on, and
/// its wall time, injection count and throughput. Only called when
/// `H::ENABLED`.
fn record_worker<H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    started: Instant,
    worker: usize,
    injections: usize,
    busy_us: u64,
) {
    let hook = shared.ctx.hook;
    if let Some(prefix) = shared.span_prefix.as_deref() {
        hook.span(
            &SpanRecord::new(
                format!("{prefix}/replay/worker:{worker:02}"),
                worker as u32 + 1,
                worker as u64,
                started,
            )
            .tag("injections", injections)
            .tag("busy_us", busy_us),
        );
        hook.count(
            &format!("campaign_worker_busy_us_total{{worker=\"{worker}\"}}"),
            busy_us,
        );
        hook.count(
            &format!("campaign_worker_us_total{{worker=\"{worker}\"}}"),
            started.elapsed().as_micros() as u64,
        );
    }
    let seconds = started.elapsed().as_secs_f64();
    let per_second = if seconds > 0.0 {
        injections as f64 / seconds
    } else {
        0.0
    };
    hook.observe("campaign_worker_seconds", seconds);
    hook.count(
        &format!("campaign_worker_injections_total{{worker=\"{worker}\"}}"),
        injections as u64,
    );
    hook.gauge(
        &format!("campaign_worker_injections_per_second{{worker=\"{worker}\"}}"),
        per_second,
    );
}

/// Replays injection `i` alone on the worker's device under `obs`,
/// emitting the full per-injection telemetry (outcome/kind/rung
/// counters, latency sample, replay span).
fn replay_scalar<O: SimObserver, H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    gpu: &mut Gpu,
    i: usize,
    worker: usize,
    obs: &mut O,
    busy_us: &mut u64,
) -> Result<Outcome, SimError> {
    let hook = shared.ctx.hook;
    let faults = shared.group(i);
    let (rung, ckpt) = shared.ctx.setup.ladder().nearest_indexed(faults[0].cycle);
    let injection_started = H::ENABLED.then(Instant::now);
    let outcome = classify_on(&shared.ctx, gpu, faults, ckpt, obs)?;
    if let Some(injection_started) = injection_started {
        let rung = rung_label(rung);
        let elapsed = injection_started.elapsed();
        record_injection(hook, faults[0], outcome, &rung, elapsed.as_secs_f64());
        if let Some(prefix) = shared.span_prefix.as_deref() {
            *busy_us += elapsed.as_micros() as u64;
            record_injection_span(
                hook,
                format!("{prefix}/replay/inj:{i:06}"),
                injection_started,
                elapsed,
                i,
                worker,
                faults[0],
                outcome,
                &rung,
            );
        }
    }
    Ok(outcome)
}

/// Replays a batch unit in one shared pass through
/// [`classify_batch_on`], emitting the batch counters and span plus the
/// same per-site outcome/kind/rung accounting as a scalar replay
/// (each site's latency sample and span get an even share of the batch
/// wall time).
fn replay_batch<H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    gpu: &mut Gpu,
    unit: &[usize],
    worker: usize,
    busy_us: &mut u64,
) -> Result<Vec<Outcome>, SimError> {
    let (hook, ladder) = (shared.ctx.hook, shared.ctx.setup.ladder());
    let first = unit[0];
    let (rung, ckpt) = ladder.nearest_indexed(shared.sites[first].cycle);
    let batch_sites: Vec<FaultSite> = unit.iter().map(|&i| shared.sites[i]).collect();
    let batch_started = H::ENABLED.then(Instant::now);
    let rep = classify_batch_on(&shared.ctx, gpu, &batch_sites, ckpt)?;
    if let Some(batch_started) = batch_started {
        let elapsed = batch_started.elapsed();
        hook.count("campaign_batches_total", 1);
        hook.count("campaign_batched_total", unit.len() as u64);
        hook.count("campaign_batch_forks_total", rep.forks as u64);
        hook.count("campaign_batch_snapshots_total", rep.snapshots as u64);
        if rep.fell_back {
            hook.count("campaign_batch_fallbacks_total", 1);
        }
        let rung = rung_label(rung);
        let share = elapsed / unit.len() as u32;
        for (&site, &outcome) in batch_sites.iter().zip(&rep.outcomes) {
            record_injection(hook, site, outcome, &rung, share.as_secs_f64());
        }
        if let Some(prefix) = shared.span_prefix.as_deref() {
            *busy_us += elapsed.as_micros() as u64;
            hook.span(
                &SpanRecord::new(
                    format!("{prefix}/replay/batch:{first:06}"),
                    worker as u32 + 1,
                    first as u64,
                    batch_started,
                )
                .tag("sites", unit.len())
                .tag("forks", rep.forks)
                .tag("rung", &rung),
            );
            // One nested span per batched site, keyed by site index like
            // the scalar path, so the structural tree still carries one
            // `inj:` node per replayed injection at any job count. The
            // sites share the pass evenly: site k's span is the k-th
            // slice of the batch's wall time, so the children add up to
            // their batch.
            let slices = unit.iter().zip(&batch_sites).zip(&rep.outcomes);
            for (k, ((&i, &site), &outcome)) in slices.enumerate() {
                record_injection_span(
                    hook,
                    format!("{prefix}/replay/batch:{first:06}/inj:{i:06}"),
                    batch_started + share * k as u32,
                    share,
                    i,
                    worker,
                    site,
                    outcome,
                    &rung,
                );
            }
        }
    }
    Ok(rep.outcomes)
}

/// One worker's replay loop: stripe `worker` of `jobs` over the unit
/// list, on a single device reused across all of its replays.
///
/// Returns one [`Done`] per injection; the caller scatters them back
/// into injection order.
fn worker_loop<H: TelemetryHook>(
    shared: &ReplayShared<'_, H>,
    worker: usize,
    jobs: usize,
) -> Result<Vec<Done>, SimError> {
    let started = H::ENABLED.then(Instant::now);
    // The worker's private device. Every replay's checkpoint resume
    // replaces it with a clone of the checkpoint's device
    // (`Session::resume` runs `*gpu = ckpt.gpu.clone()`). The clone
    // shares every storage page with the checkpoint, so a resume copies
    // page handles and warp state, not storage words; the replay copies
    // each page it writes.
    let setup = shared.ctx.setup;
    let mut gpu = Gpu::new(setup.arch.clone());
    let mut done: Vec<Done> = Vec::new();
    let mut busy_us: u64 = 0;
    for unit in shared.units.iter().skip(worker).step_by(jobs) {
        match unit {
            &Unit::Scalar(i) => {
                let outcome =
                    replay_scalar(shared, &mut gpu, i, worker, &mut NoopObserver, &mut busy_us)?;
                done.push((i, outcome, None));
            }
            &Unit::Traced(i) => {
                let site = shared.sites[i];
                let resume_cycle = setup.ladder().nearest_indexed(site.cycle).1.cycle();
                let mut tracer = TraceObserver::new(
                    site,
                    setup.golden_writes().unwrap_or_default(),
                    resume_cycle,
                );
                let outcome =
                    replay_scalar(shared, &mut gpu, i, worker, &mut tracer, &mut busy_us)?;
                done.push((i, outcome, Some(tracer.into_record(setup.arch.lds_banks))));
            }
            Unit::Batch(unit) => {
                let outcomes = replay_batch(shared, &mut gpu, unit, worker, &mut busy_us)?;
                done.extend(unit.iter().zip(outcomes).map(|(&i, o)| (i, o, None)));
            }
        }
    }
    if let Some(started) = started {
        record_worker(shared, started, worker, done.len(), busy_us);
    }
    Ok(done)
}

/// Cuts the sorted injection order into work units. Traced runs replay
/// every injection as a traced scalar unit. With bit-plane batching
/// (single-site transient injections only) the order becomes maximal
/// runs of consecutive transient sites, chunked at
/// [`MAX_BATCH_SCENARIOS`]; a run of one and every non-transient site
/// stay scalar units in place. A unit may span checkpoint rungs — its
/// shared pass resumes from the rung of its *earliest* site and arms
/// each later scenario when the clock reaches its cycle, so one pass
/// over the tail replaces what would otherwise be one pass per rung.
/// A pure function of `(sites, order, batch, traced)` — unit
/// composition never depends on the job count, so dealing units
/// round-robin keeps the determinism contract.
fn work_units(sites: &[FaultSite], order: &[usize], batch: bool, traced: bool) -> Vec<Unit> {
    if traced {
        return order.iter().map(|&i| Unit::Traced(i)).collect();
    }
    if !batch {
        return order.iter().map(|&i| Unit::Scalar(i)).collect();
    }
    let mut units = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    let flush = |run: &mut Vec<usize>, units: &mut Vec<Unit>| match run.len() {
        0 => {}
        1 => units.push(Unit::Scalar(run.pop().expect("a run of one"))),
        _ => units.push(Unit::Batch(std::mem::take(run))),
    };
    for &i in order {
        if !sites[i].is_transient() {
            flush(&mut run, &mut units);
            units.push(Unit::Scalar(i));
            continue;
        }
        if run.len() == MAX_BATCH_SCENARIOS {
            flush(&mut run, &mut units);
        }
        run.push(i);
    }
    flush(&mut run, &mut units);
    units
}

impl Campaign<'_> {
    /// Replays every injection of `sites` (armed per `arming`) against
    /// this setup, fanning the work out over `cfg.threads` workers, and
    /// returns the outcomes **in injection order** — bit-identical to a
    /// sequential run at any job count — plus, for a traced run, one
    /// [`TraceRecord`] per injection in the same order.
    ///
    /// With `cfg.prune` and an oracle ([`Campaign::oracle`]), single sites
    /// whose fault cycle falls outside every live interval of their word are
    /// pre-classified as `Masked` *before* the fan-out — serially, so the
    /// replayed set is a pure function of the inputs and the determinism
    /// contract is untouched. [`Replayed::pruned`] counts them. Each
    /// pruned site still gets its per-injection counters (an
    /// `outcome="masked"` count and a `rung="pruned"` hit), so hooked
    /// totals account for every sampled site at any pruning rate; it
    /// records no latency sample, because no replay ran.
    ///
    /// # Errors
    ///
    /// Propagates replay failures that are not fault classifications. When
    /// several workers fail, the error of the lowest-numbered worker wins,
    /// keeping even the failure mode deterministic.
    ///
    /// # Panics
    ///
    /// Panics on a traced run when the setup did not capture the golden
    /// write log ([`crate::campaign::Capture::writes`]).
    pub(crate) fn replay_with<H: TelemetryHook>(
        &self,
        sites: &[FaultSite],
        arming: Arming,
        cfg: CampaignConfig,
        hook: &H,
    ) -> Result<Replayed, SimError> {
        let (width, traced) = match arming {
            Arming::Groups(width) => (width.max(1), false),
            Arming::Traced => (1, true),
        };
        assert!(
            !traced || self.golden_writes().is_some(),
            "a traced replay needs the golden write log (Capture::writes)"
        );
        debug_assert_eq!(sites.len() % width, 0, "sites come in whole groups");
        let n = sites.len() / width;
        // Pruning and batching reason about one flipped word,
        // and the flight recorder wants every replay's full timeline.
        let oracle = self.oracle().filter(|_| cfg.prune && width == 1 && !traced);
        let ctx = self.context(&cfg, hook);
        // Serial pre-classification: pruned sites keep their pre-filled
        // `Masked` slot and never reach a worker.
        let span_prefix = replay_span_prefix(&ctx, sites);
        let mut outcomes = vec![Outcome::Masked; n];
        let prune_started = H::SPANS.then(Instant::now);
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| !oracle.is_some_and(|o| o.is_dead(sites[i])))
            .collect();
        let pruned = (n - order.len()) as u64;
        if let (Some(_), Some(started), Some(prefix)) =
            (oracle, prune_started, span_prefix.as_deref())
        {
            hook.span(
                &SpanRecord::new(format!("{prefix}/prune"), 0, 0, started)
                    .tag("pruned", pruned)
                    .tag("total", n),
            );
        }
        if H::ENABLED && pruned > 0 {
            hook.count("campaign_pruned_total", pruned);
            hook.count("campaign_injections_total{outcome=\"masked\"}", pruned);
            // Only transient sites can be pruned (the oracle is
            // kind-gated), so the kind label is unconditional.
            hook.count(
                "campaign_injections_by_kind_total{kind=\"transient\"}",
                pruned,
            );
            hook.count("campaign_rung_hits_total{rung=\"pruned\"}", pruned);
            // Saturate: a long golden run times a large pruned count can
            // clear u64::MAX, and a wrapped counter would report absurd
            // savings instead of a floor.
            hook.count(
                "campaign_cycles_saved_total",
                pruned.saturating_mul(self.golden().cycles),
            );
        }
        order.sort_by_key(|&i| (sites[i * width].cycle, i));
        // Bit-plane batching is kind-gated like pruning — only the
        // transient model batches (the overlay lane model assumes a
        // one-shot flip).
        let batch = cfg.batch && cfg.fault_model == FaultModelKind::Transient && width == 1;
        let units = work_units(sites, &order, batch, traced);
        let jobs = cfg.threads.max(1).min(units.len().max(1));
        if H::ENABLED {
            hook.gauge("campaign_workers", jobs as f64);
        }
        let shared = ReplayShared {
            ctx,
            sites,
            width,
            units: &units,
            span_prefix,
        };
        let replay_started = H::SPANS.then(Instant::now);
        let per_worker = fan_out(jobs, |w| worker_loop(&shared, w, jobs))?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let span_prefix = shared.span_prefix.as_deref();
        if let (Some(replay_started), Some(prefix)) = (replay_started, span_prefix) {
            hook.span(
                &SpanRecord::new(format!("{prefix}/replay"), 0, 1, replay_started)
                    .tag("sites", order.len()),
            );
        }
        let merge_started = H::SPANS.then(Instant::now);
        let mut records: Vec<Option<TraceRecord>> = vec![None; if traced { n } else { 0 }];
        for (i, o, record) in per_worker.into_iter().flatten() {
            outcomes[i] = o;
            if record.is_some() {
                records[i] = record;
            }
        }
        if let (Some(merge_started), Some(prefix)) = (merge_started, span_prefix) {
            hook.span(&SpanRecord::new(
                format!("{prefix}/merge"),
                0,
                2,
                merge_started,
            ));
        }
        if let Some(first) = sites.first() {
            stream_convergence(&shared.ctx, first.structure, cfg, &outcomes)?;
        }
        let records = records
            .into_iter()
            .map(|r| r.expect("a traced run replays every injection"))
            .collect();
        Ok(Replayed {
            outcomes,
            records,
            pruned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Capture;
    use gpu_archs::quadro_fx_5600;
    use gpu_workloads::VectorAdd;
    use grel_telemetry::{MetricsRegistry, NoopHook, RegistryHook, SpanHook, SpanRecorder};
    use simt_sim::Structure;

    fn cfg(n: u32, threads: usize) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            threads,
            ..CampaignConfig::quick(11)
        }
    }

    #[test]
    fn a_panicking_worker_is_an_error_naming_the_lowest_one() {
        assert_eq!(fan_out(3, |w| w * 10), Ok(vec![0, 10, 20]));
        let failing = |w: usize| {
            if w % 2 == 1 {
                panic!("worker {w} gave up");
            }
            w
        };
        assert_eq!(
            fan_out(4, failing),
            Err(SimError::WorkerPanicked {
                worker: 1,
                message: "worker 1 gave up".into(),
            })
        );
        // Inline on the calling thread too, with a `&str` payload.
        let err = fan_out(1, |_| -> u32 { panic!("no threads") }).unwrap_err();
        assert_eq!(err.to_string(), "worker 0 panicked: no threads");
    }

    /// Replays `c.injections` register-file sites on a fresh setup with
    /// no oracle, through `hook`.
    fn replay<H: TelemetryHook>(c: CampaignConfig, hook: &H) -> Replayed {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let setup = Campaign::new(&arch, &w, &c, Capture::default(), &NoopHook).unwrap();
        let sites = setup.sample(Structure::VectorRegisterFile, &c).unwrap();
        setup
            .replay_with(&sites, Arming::Groups(1), c, hook)
            .unwrap()
    }

    #[test]
    fn outcome_order_is_job_count_invariant() {
        let one = replay(cfg(24, 1), &NoopHook).outcomes;
        for jobs in [2, 3, 5, 8] {
            assert_eq!(
                one,
                replay(cfg(24, jobs), &NoopHook).outcomes,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn oversubscribed_pool_clamps_to_site_count() {
        // 64 workers over 6 sites must not panic or drop outcomes.
        let out = replay(cfg(6, 64), &NoopHook).outcomes;
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn per_worker_metrics_cover_every_injection() {
        let mut c = cfg(12, 3);
        // Scalar replay only: batching would merge these few transient
        // sites into one unit and clamp the pool to a single worker.
        c.batch = false;
        let reg = MetricsRegistry::new();
        replay(c, &RegistryHook::new(&reg));
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("campaign_workers"), Some(3.0));
        let per_worker: u64 = snap
            .counters()
            .filter(|(n, _)| n.starts_with("campaign_worker_injections_total"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_worker, 12, "every injection belongs to one worker");
        assert_eq!(
            snap.histogram("campaign_worker_seconds").unwrap().count(),
            3,
            "one wall-time sample per worker"
        );
    }

    #[test]
    fn pruning_keeps_outcomes_and_reports_its_count() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let c = cfg(48, 2);
        let setup = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook).unwrap();
        let oracle = setup
            .oracle()
            .expect("a pruning campaign captures the oracle");
        let sites = setup.sample(Structure::VectorRegisterFile, &c).unwrap();
        let reg = MetricsRegistry::new();
        let pruned = setup
            .replay_with(&sites, Arming::Groups(1), c, &RegistryHook::new(&reg))
            .unwrap();
        let full_cfg = CampaignConfig { prune: false, ..c };
        let full = setup
            .replay_with(&sites, Arming::Groups(1), full_cfg, &NoopHook)
            .unwrap();
        assert_eq!(pruned.outcomes, full.outcomes, "pruning is exact");
        let dead = sites.iter().filter(|&&s| oracle.is_dead(s)).count() as u64;
        assert!(dead > 0, "vectoradd leaves dead register-file sites");
        assert_eq!(pruned.pruned, dead);
        assert_eq!(full.pruned, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("campaign_pruned_total"), Some(dead));
        assert_eq!(
            snap.histogram("campaign_injection_seconds")
                .map_or(0, |h| h.count()),
            sites.len() as u64 - dead,
            "one latency sample per replayed site, none per pruned site"
        );
    }

    #[test]
    fn batched_injection_spans_share_their_batch_time() {
        let c = cfg(48, 2);
        assert!(c.batch, "the quick config batches transient sites");
        let rec = SpanRecorder::new();
        replay(c, &SpanHook::new(&rec));
        let tree = rec.finish();
        let batches: Vec<_> = tree.nodes_named(|n| n.starts_with("batch:")).collect();
        assert!(
            !batches.is_empty(),
            "vectoradd's RF sites replay in batches"
        );
        for batch in batches {
            let children: Vec<_> = tree
                .spans
                .iter()
                .filter(|n| n.parent == Some(batch.id) && n.name.starts_with("inj:"))
                .collect();
            assert!(!children.is_empty(), "{} has no inj: children", batch.path);
            let sum: u64 = children.iter().map(|n| n.dur_us).sum();
            assert!(
                sum <= batch.dur_us + children.len() as u64,
                "{}: {} children add up to {sum} us over a {} us batch",
                batch.path,
                children.len(),
                batch.dur_us
            );
        }
    }
}
