//! Streaming convergence monitoring for fault-injection campaigns.
//!
//! A campaign's AVF estimate is a binomial proportion whose
//! finite-population error margin shrinks as injections accumulate
//! (`stats::error_margin`). Until this module, that margin was only
//! visible *after* the campaign finished — a 2,000-injection run was a
//! black box for its whole duration. [`ConvergenceMonitor`] folds the
//! merged outcome stream into a running [`Tally`] and emits
//! `campaign.convergence` events at a configurable cadence, each
//! carrying the running proportion, its 99 % finite-population interval
//! (via [`crate::stats::Proportion`]), and a projected
//! injections-to-target-margin estimate (Leveugle's
//! [`crate::stats::required_sample_size`]).
//!
//! # Determinism
//!
//! The monitor is wired through `Campaign::replay_with` *after* the
//! scatter-merge: it folds the site-order outcome vector serially, so
//! every emitted event is a pure function of `(sites, outcomes,
//! cadence)` — byte-identical at any `--jobs` count, with pruning and
//! batching on or off (the same contract the tallies themselves honour,
//! asserted in `tests/convergence_equivalence.rs`). No wall-clock value
//! ever enters an event body; sinks that stamp timestamps (JSONL
//! `t_ms`) do so outside the event fields.

use crate::campaign::{structure_label, Outcome, Tally};
use crate::stats::{required_sample_size, Proportion, Z_99};
use grel_telemetry::{Event, Json, TelemetryHook};
use simt_sim::{FaultModelKind, Structure};

/// The paper's target margin: ±2.88 % at 99 % confidence, the precision
/// footnote 4 buys with 2,000 injections. Projections in
/// `campaign.convergence` events estimate the injections needed to
/// reach this margin over the campaign's own population.
pub const DEFAULT_TARGET_MARGIN: f64 = 0.0288;

/// The running statistical state of one campaign, derived purely from
/// the merged outcome stream (no clocks, no worker identity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSnapshot {
    /// Outcomes folded so far.
    pub seen: u64,
    /// Total injections the campaign will perform.
    pub planned: u64,
    /// Per-outcome counts over the first `seen` merged sites.
    pub tally: Tally,
    /// Running AVF point estimate (`failures / seen`).
    pub avf: f64,
    /// Finite-population error margin at 99 % confidence.
    pub margin99: f64,
    /// Lower bound of the 99 % interval, clamped to `[0, 1]`.
    pub lo: f64,
    /// Upper bound of the 99 % interval, clamped to `[0, 1]`.
    pub hi: f64,
    /// The margin the projection aims for.
    pub target_margin: f64,
    /// Injections needed to reach `target_margin` over this campaign's
    /// population (Leveugle's sample-size formula).
    pub projected_total: u64,
    /// Injections still missing towards `projected_total` (zero once
    /// reached).
    pub projected_remaining: u64,
    /// Whether the current margin is already at or below the target.
    pub converged: bool,
}

/// One stratum's progress towards its allocation, carried in
/// `campaign.convergence` events when the adaptive sampler drives the
/// campaign (see [`crate::sampling`]). Uniform campaigns have no
/// strata, and their event bodies stay byte-identical to the
/// pre-stratification format — the `strata` field is only present when
/// progress has been registered via
/// [`ConvergenceMonitor::set_strata`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratumProgress {
    /// Stratum label (e.g. `live/c1/b0` or `dead`).
    pub label: String,
    /// Sites sampled from the stratum so far (pruned sites included).
    pub seen: u64,
    /// The allocation target the current round plans for the stratum.
    pub planned: u64,
}

/// Folds merged injection outcomes into running per-outcome tallies and
/// emits `campaign.convergence` events every `cadence` outcomes (plus a
/// final event at the end of the stream).
///
/// # Example
/// ```
/// use grel_core::convergence::ConvergenceMonitor;
/// use grel_core::campaign::Outcome;
/// use grel_telemetry::{MemorySink, MetricsRegistry, RegistryHook};
/// use simt_sim::{FaultModelKind, Structure};
///
/// let reg = MetricsRegistry::new();
/// let sink = MemorySink::new();
/// let hook = RegistryHook::with_sink(&reg, &sink);
/// let mut mon = ConvergenceMonitor::new(
///     "vectoradd",
///     "GeForce GTX 480",
///     Structure::VectorRegisterFile,
///     FaultModelKind::Transient,
///     1 << 40,
///     4,
///     2,
/// );
/// for o in [Outcome::Masked, Outcome::Sdc, Outcome::Masked, Outcome::Due] {
///     mon.observe(o, &hook);
/// }
/// mon.finish(&hook);
/// // Cadence 2 over 4 outcomes: events at seen = 2 and seen = 4.
/// assert_eq!(sink.events().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ConvergenceMonitor {
    workload: String,
    device: String,
    structure: Structure,
    kind: FaultModelKind,
    population: u64,
    planned: u64,
    cadence: u64,
    target: f64,
    tally: Tally,
    emitted_at: u64,
    strata: Vec<StratumProgress>,
}

impl ConvergenceMonitor {
    /// A monitor for one campaign of `planned` injections over a
    /// `population`-site fault universe, emitting every `cadence`
    /// merged outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `cadence == 0` — a zero cadence means "disabled" and
    /// belongs to the caller (`CampaignConfig::convergence`), not the
    /// monitor.
    pub fn new(
        workload: &str,
        device: &str,
        structure: Structure,
        kind: FaultModelKind,
        population: u64,
        planned: u64,
        cadence: u64,
    ) -> Self {
        assert!(cadence > 0, "convergence cadence must be positive");
        ConvergenceMonitor {
            workload: workload.to_string(),
            device: device.to_string(),
            structure,
            kind,
            population,
            planned,
            cadence,
            target: DEFAULT_TARGET_MARGIN,
            tally: Tally::default(),
            emitted_at: 0,
            strata: Vec::new(),
        }
    }

    /// Replaces the projection target margin (default
    /// [`DEFAULT_TARGET_MARGIN`]).
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a positive finite margin.
    pub fn with_target(mut self, target: f64) -> Self {
        assert!(
            target.is_finite() && target > 0.0,
            "target margin must be a positive finite proportion"
        );
        self.target = target;
        self
    }

    /// Replaces the planned-injection total. An adaptive campaign does
    /// not know its final sample size up front — the allocation grows
    /// round by round — so the engine updates the plan before each
    /// emission instead of pinning it at construction.
    pub fn set_planned(&mut self, planned: u64) {
        self.planned = planned;
    }

    /// Registers per-stratum seen/planned progress to be carried in
    /// every subsequent `campaign.convergence` event (as a `strata`
    /// JSON array). An empty vector removes the field again; uniform
    /// campaigns never call this, so their events keep the exact
    /// pre-stratification byte layout.
    pub fn set_strata(&mut self, strata: Vec<StratumProgress>) {
        self.strata = strata;
    }

    /// Emits a `campaign.convergence` event immediately, regardless of
    /// the cadence — the adaptive engine calls this at every round
    /// boundary. A no-op before the first fold (no trials, no
    /// estimate).
    pub fn emit_now<H: TelemetryHook>(&mut self, hook: &H) {
        if self.tally.total() > 0 {
            self.emit(hook);
        }
    }

    /// Folds one merged outcome; emits a `campaign.convergence` event
    /// when a cadence boundary is crossed.
    pub fn observe<H: TelemetryHook>(&mut self, outcome: Outcome, hook: &H) {
        self.tally.add(outcome);
        if self.tally.total().is_multiple_of(self.cadence) {
            self.emit(hook);
        }
    }

    /// Emits the final event for a stream that did not end on a cadence
    /// boundary; a no-op if the last fold already emitted (or nothing
    /// was folded at all).
    pub fn finish<H: TelemetryHook>(&mut self, hook: &H) {
        if self.tally.total() > self.emitted_at {
            self.emit(hook);
        }
    }

    /// The running statistical state. `None` until at least one outcome
    /// has been folded (no trials, no estimate).
    pub fn snapshot(&self) -> Option<ConvergenceSnapshot> {
        let seen = self.tally.total();
        if seen == 0 {
            return None;
        }
        let p = Proportion::new(self.tally.failures(), seen, self.population);
        let margin99 = p.margin(Z_99);
        let (lo, hi) = p.interval(Z_99);
        let projected_total = required_sample_size(self.population, self.target, Z_99);
        Some(ConvergenceSnapshot {
            seen,
            planned: self.planned,
            tally: self.tally,
            avf: p.value,
            margin99,
            lo,
            hi,
            target_margin: self.target,
            projected_total,
            projected_remaining: projected_total.saturating_sub(seen),
            converged: margin99 <= self.target,
        })
    }

    fn emit<H: TelemetryHook>(&mut self, hook: &H) {
        let snap = self
            .snapshot()
            .expect("emit is only reached after a fold, so a snapshot exists");
        self.emitted_at = snap.seen;
        let strata = (!self.strata.is_empty()).then(|| {
            Json::Arr(
                self.strata
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("label".to_string(), Json::from(s.label.as_str())),
                            ("seen".to_string(), Json::from(s.seen)),
                            ("planned".to_string(), Json::from(s.planned)),
                        ])
                    })
                    .collect(),
            )
        });
        hook.event(
            &Event::new("campaign.convergence")
                .field("workload", self.workload.as_str())
                .field("device", self.device.as_str())
                .field("structure", structure_label(self.structure))
                .field("fault_kind", self.kind.as_str())
                .field("seen", snap.seen)
                .field("planned", snap.planned)
                .field("masked", snap.tally.masked)
                .field("sdc", snap.tally.sdc)
                .field("due", snap.tally.due)
                .field("hang", snap.tally.hang)
                .field("avf", snap.avf)
                .field("margin99", snap.margin99)
                .field("lo", snap.lo)
                .field("hi", snap.hi)
                .field("target_margin", snap.target_margin)
                .field("projected_total", snap.projected_total)
                .field("projected_remaining", snap.projected_remaining)
                .field("converged", snap.converged)
                .field_opt("strata", strata),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grel_telemetry::{MemorySink, MetricsRegistry, RegistryHook};

    fn monitor(population: u64, planned: u64, cadence: u64) -> ConvergenceMonitor {
        ConvergenceMonitor::new(
            "vectoradd",
            "GeForce GTX 480",
            Structure::VectorRegisterFile,
            FaultModelKind::Transient,
            population,
            planned,
            cadence,
        )
    }

    fn fold(mon: &mut ConvergenceMonitor, outcomes: &[Outcome]) -> Vec<String> {
        let reg = MetricsRegistry::new();
        let sink = MemorySink::new();
        let hook = RegistryHook::with_sink(&reg, &sink);
        for &o in outcomes {
            mon.observe(o, &hook);
        }
        mon.finish(&hook);
        sink.events()
            .iter()
            .map(|e| e.to_json().to_string())
            .collect()
    }

    #[test]
    fn emits_on_cadence_and_at_end() {
        let mut mon = monitor(1 << 40, 7, 3);
        let events = fold(&mut mon, &[Outcome::Masked; 7]);
        // Boundaries at 3 and 6, plus the final partial event at 7.
        assert_eq!(events.len(), 3);
        assert!(events[0].contains("\"seen\":3"), "{}", events[0]);
        assert!(events[1].contains("\"seen\":6"), "{}", events[1]);
        assert!(events[2].contains("\"seen\":7"), "{}", events[2]);
    }

    #[test]
    fn no_duplicate_final_event_on_exact_boundary() {
        let mut mon = monitor(1 << 40, 6, 3);
        let events = fold(&mut mon, &[Outcome::Masked; 6]);
        assert_eq!(events.len(), 2, "6 outcomes at cadence 3: two events");
    }

    #[test]
    fn empty_stream_emits_nothing() {
        let mut mon = monitor(1 << 40, 0, 5);
        assert!(fold(&mut mon, &[]).is_empty());
        assert_eq!(mon.snapshot(), None);
    }

    #[test]
    fn margin_shrinks_and_projection_counts_down() {
        let mut mon = monitor(1 << 40, 200, 1);
        let reg = MetricsRegistry::new();
        let sink = MemorySink::new();
        let hook = RegistryHook::with_sink(&reg, &sink);
        let mut last_margin = f64::INFINITY;
        let mut last_remaining = u64::MAX;
        for i in 0..200u64 {
            let o = if i % 10 == 0 {
                Outcome::Sdc
            } else {
                Outcome::Masked
            };
            mon.observe(o, &hook);
            let snap = mon.snapshot().unwrap();
            assert!(snap.margin99 < last_margin, "margin must shrink");
            assert!(snap.projected_remaining < last_remaining);
            assert!(snap.lo <= snap.avf && snap.avf <= snap.hi);
            last_margin = snap.margin99;
            last_remaining = snap.projected_remaining;
        }
        let snap = mon.snapshot().unwrap();
        assert_eq!(snap.seen, 200);
        assert_eq!(snap.tally.sdc, 20);
        assert!((snap.avf - 0.1).abs() < 1e-12);
        assert!(!snap.converged, "200 of ~2000 needed cannot be converged");
    }

    #[test]
    fn exhaustive_campaign_converges_immediately() {
        // population == planned == 4: after folding everything the
        // margin is exactly zero, below any positive target.
        let mut mon = monitor(4, 4, 4);
        let events = fold(&mut mon, &[Outcome::Masked; 4]);
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("\"converged\":true"), "{}", events[0]);
        assert!(events[0].contains("\"margin99\":0"), "{}", events[0]);
    }

    #[test]
    fn events_are_a_pure_function_of_the_stream() {
        let outcomes = [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::Due,
            Outcome::Masked,
            Outcome::Hang,
        ];
        let a = fold(&mut monitor(1 << 30, 5, 2), &outcomes);
        let b = fold(&mut monitor(1 << 30, 5, 2), &outcomes);
        assert_eq!(a, b, "identical streams must serialize identically");
    }

    #[test]
    fn strata_field_absent_by_default_present_when_registered() {
        let plain = fold(&mut monitor(1 << 40, 2, 2), &[Outcome::Masked; 2]);
        assert_eq!(plain.len(), 1);
        assert!(!plain[0].contains("strata"), "{}", plain[0]);

        let mut mon = monitor(1 << 40, 2, 2);
        mon.set_planned(9);
        mon.set_strata(vec![
            StratumProgress {
                label: "live/c0/b0".into(),
                seen: 1,
                planned: 8,
            },
            StratumProgress {
                label: "dead".into(),
                seen: 1,
                planned: 1,
            },
        ]);
        let events = fold(&mut mon, &[Outcome::Masked; 2]);
        assert_eq!(events.len(), 1);
        let j = grel_telemetry::Json::parse(&events[0]).unwrap();
        assert_eq!(j.get("planned").and_then(Json::as_u64), Some(9));
        let strata = j.get("strata").and_then(Json::as_arr).expect("strata");
        assert_eq!(strata.len(), 2);
        assert_eq!(
            strata[0].get("label").and_then(Json::as_str),
            Some("live/c0/b0")
        );
        assert_eq!(strata[0].get("seen").and_then(Json::as_u64), Some(1));
        assert_eq!(strata[0].get("planned").and_then(Json::as_u64), Some(8));
        assert_eq!(strata[1].get("label").and_then(Json::as_str), Some("dead"));
    }

    #[test]
    fn emit_now_forces_an_off_cadence_event() {
        let mut mon = monitor(1 << 40, 10, 1000);
        let reg = MetricsRegistry::new();
        let sink = MemorySink::new();
        let hook = RegistryHook::with_sink(&reg, &sink);
        mon.emit_now(&hook);
        assert!(sink.events().is_empty(), "nothing folded, nothing emitted");
        mon.observe(Outcome::Sdc, &hook);
        mon.emit_now(&hook);
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].get("seen").and_then(Json::as_u64), Some(1));
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_rejected() {
        let _ = monitor(1 << 40, 10, 0);
    }

    #[test]
    #[should_panic(expected = "target margin must be")]
    fn bad_target_rejected() {
        let _ = monitor(1 << 40, 10, 1).with_target(0.0);
    }
}
