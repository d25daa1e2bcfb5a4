//! Live campaign progress on stderr.
//!
//! [`ProgressHook`] implements [`TelemetryHook`] and counts completed
//! injections as they stream past (any counter whose name starts with
//! `campaign_injections_total` — the per-outcome labelled series). It
//! redraws a single `\r`-rewritten stderr line, throttled so the hot
//! loop never blocks on the terminal.
//!
//! The hook is pruning-aware: lifetime-oracle pruning resolves sites
//! instantly in a burst at campaign start (they are counted both as
//! injections and under `campaign_pruned_total`), which would make a
//! naive `done/elapsed` rate wildly misestimate the remaining wall
//! time. The ETA therefore projects only the *live* replay rate over
//! the expected live share of the remaining sites.
//!
//! It is also batch-aware: bit-plane batched replay classifies up to 64
//! sites per shared simulation pass, delivering their outcome counters
//! in one burst *after* a long silent pass. Measuring the replay rate
//! against "now" would decay it throughout every pass and snap back at
//! each burst — a sawtoothing ETA. The rate basis is therefore frozen
//! at the moment the latest completions merged
//! ([`ProgressHook::count`] stamps it on every injection counter), so
//! the projection holds steady between bursts, and the batch counters
//! (`campaign_batched_total` / `campaign_batches_total`) are folded in
//! for the shared-pass note on the progress line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hook::TelemetryHook;
use crate::{BATCHED_COUNTER, BATCHES_COUNTER, INJECTIONS_COUNTER, PRUNED_COUNTER};

/// Minimum interval between stderr redraws.
const REDRAW_EVERY: Duration = Duration::from_millis(100);

/// A hook that renders `done/total, inj/s, ETA` as a live stderr line.
#[derive(Debug)]
pub struct ProgressHook {
    total: u64,
    done: AtomicU64,
    pruned: AtomicU64,
    batched: AtomicU64,
    batches: AtomicU64,
    /// Elapsed microseconds at the most recent injection-counter event:
    /// the frozen rate basis (0 = no event yet, fall back to now).
    last_event_us: AtomicU64,
    started: Instant,
    last_draw: Mutex<Instant>,
}

impl ProgressHook {
    /// A progress bar expecting `total` injections in this run.
    pub fn new(total: u64) -> Self {
        let now = Instant::now();
        ProgressHook {
            total,
            done: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            last_event_us: AtomicU64::new(0),
            started: now,
            // Backdate so the very first injection draws immediately.
            last_draw: Mutex::new(now - REDRAW_EVERY),
        }
    }

    /// Injections counted so far (replayed and pruned).
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Sites the lifetime oracle resolved without a replay.
    pub fn pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Sites classified inside shared bit-plane passes so far.
    pub fn batched(&self) -> u64 {
        self.batched.load(Ordering::Relaxed)
    }

    /// Shared bit-plane passes completed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// The elapsed seconds the rate projection divides by: the moment
    /// the latest completions merged, not "now". Between the bursts a
    /// batched campaign delivers (up to 64 outcomes per shared pass)
    /// this basis does not advance, so the ETA stays put instead of
    /// sawtoothing up during every silent pass. Falls back to the
    /// current elapsed time until the first completion arrives.
    fn rate_basis_seconds(&self) -> f64 {
        match self.last_event_us.load(Ordering::Relaxed) {
            0 => self.started.elapsed().as_secs_f64(),
            us => us as f64 / 1e6,
        }
    }

    /// Seconds left, projecting the live replay rate over the live
    /// share of the remaining sites. Pruned sites cost ~nothing, so
    /// the remaining work is `(total - done)` scaled by the fraction
    /// of sites seen so far that actually replayed, at the rate those
    /// replays have sustained (batched sites fold in at their
    /// amortized per-pass cost, since the rate is measured over the
    /// merged stream). `None` until a rate exists or once done.
    fn eta_seconds(&self, done: u64, pruned: u64) -> Option<f64> {
        if done == 0 || done >= self.total {
            return None;
        }
        let elapsed = self.rate_basis_seconds();
        let live_done = done.saturating_sub(pruned);
        if elapsed <= 0.0 || live_done == 0 {
            return None;
        }
        let live_rate = live_done as f64 / elapsed;
        let live_frac = live_done as f64 / done as f64;
        let remaining_live = (self.total - done) as f64 * live_frac;
        Some(remaining_live / live_rate)
    }

    /// Renders the line: `done/total (pruned, batched) | rate inj/s | ETA`.
    fn render(&self, done: u64) -> String {
        let pruned = self.pruned();
        let batched = self.batched();
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = self
            .eta_seconds(done, pruned)
            .map(format_duration)
            .unwrap_or_else(|| "--".to_string());
        let mut notes = Vec::new();
        if pruned > 0 {
            notes.push(format!("{pruned} pruned"));
        }
        if batched > 0 {
            notes.push(format!("{batched} batched/{} passes", self.batches()));
        }
        let note = if notes.is_empty() {
            String::new()
        } else {
            format!(" ({})", notes.join(", "))
        };
        format!(
            "  {done}/{total} injections{note} | {rate:.1} inj/s | ETA {eta}",
            total = self.total
        )
    }

    fn draw(&self, done: u64, force: bool) {
        let now = Instant::now();
        {
            let mut last = self.last_draw.lock().expect("progress poisoned");
            if !force && now.duration_since(*last) < REDRAW_EVERY {
                return;
            }
            *last = now;
        }
        crate::to_stderr(format_args!("\r{:<72}", self.render(done)));
    }

    /// Draws the final state and moves stderr to a fresh line.
    pub fn finish(&self) {
        self.draw(self.done(), true);
        crate::to_stderr(format_args!("\n"));
    }
}

impl TelemetryHook for ProgressHook {
    fn count(&self, name: &str, delta: u64) {
        if name == PRUNED_COUNTER {
            self.pruned.fetch_add(delta, Ordering::Relaxed);
        } else if name == BATCHED_COUNTER {
            self.batched.fetch_add(delta, Ordering::Relaxed);
        } else if name == BATCHES_COUNTER {
            self.batches.fetch_add(delta, Ordering::Relaxed);
        } else if name.starts_with(INJECTIONS_COUNTER) {
            let done = self.done.fetch_add(delta, Ordering::Relaxed) + delta;
            self.last_event_us
                .store(self.started.elapsed().as_micros() as u64, Ordering::Relaxed);
            self.draw(done, false);
        }
    }
}

fn format_duration(secs: f64) -> String {
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_injection_counters() {
        let p = ProgressHook::new(10);
        p.count(r#"campaign_injections_total{outcome="masked"}"#, 3);
        p.count("sim_snapshots_total", 5);
        p.count(r#"campaign_injections_total{outcome="sdc"}"#, 1);
        assert_eq!(p.done(), 4);
    }

    #[test]
    fn tracks_pruned_sites_separately() {
        let p = ProgressHook::new(100);
        p.count(PRUNED_COUNTER, 40);
        p.count(r#"campaign_injections_total{outcome="masked"}"#, 40);
        p.count(r#"campaign_injections_total{outcome="sdc"}"#, 10);
        assert_eq!(p.done(), 50);
        assert_eq!(p.pruned(), 40);
        let line = p.render(50);
        assert!(line.contains("(40 pruned)"), "line = {line}");
    }

    #[test]
    fn tracks_batch_counters_separately() {
        // A shared pass announces its size, then delivers the per-site
        // outcome burst: the batch counters must fold in without
        // double-counting done.
        let p = ProgressHook::new(100);
        p.count(BATCHES_COUNTER, 1);
        p.count(BATCHED_COUNTER, 64);
        p.count(r#"campaign_injections_total{outcome="masked"}"#, 60);
        p.count(r#"campaign_injections_total{outcome="sdc"}"#, 4);
        assert_eq!(p.done(), 64);
        assert_eq!(p.batched(), 64);
        assert_eq!(p.batches(), 1);
        let line = p.render(64);
        assert!(line.contains("(64 batched/1 passes)"), "line = {line}");
    }

    #[test]
    fn render_shows_done_total_rate_and_eta() {
        let p = ProgressHook::new(100);
        p.count(r#"campaign_injections_total{outcome="masked"}"#, 50);
        let line = p.render(50);
        assert!(line.contains("50/100"), "line = {line}");
        assert!(line.contains("inj/s"), "line = {line}");
        assert!(line.contains("ETA"), "line = {line}");
        assert!(
            !line.contains("pruned") && !line.contains("batched"),
            "no notes when nothing pruned or batched: {line}"
        );
    }

    #[test]
    fn eta_projects_live_rate_not_burst_rate() {
        // 90 of 100 sites seen, 80 of them pruned instantly: a naive
        // ETA from done/elapsed would assume the remaining 10 finish at
        // the burst-inflated rate. The live projection scales remaining
        // work by the live fraction (1/9) and divides by the live rate
        // measured to the last completion event.
        let p = ProgressHook::new(100);
        std::thread::sleep(Duration::from_millis(5));
        p.count(PRUNED_COUNTER, 80);
        p.count(r#"campaign_injections_total{outcome="masked"}"#, 90);
        std::thread::sleep(Duration::from_millis(20));
        let eta = p.eta_seconds(90, 80).expect("rate exists");
        let basis = p.last_event_us.load(Ordering::Relaxed) as f64 / 1e6;
        assert!(basis > 0.0, "completion event stamped the rate basis");
        let live_rate = 10.0 / basis;
        let expected = (10.0 * (10.0 / 90.0)) / live_rate;
        assert!(
            (eta - expected).abs() < 1e-6,
            "eta = {eta}, expected = {expected}"
        );
        // And with everything pruned so far, no live rate exists yet.
        let q = ProgressHook::new(100);
        q.count(PRUNED_COUNTER, 50);
        q.count(r#"campaign_injections_total{outcome="masked"}"#, 50);
        assert_eq!(q.eta_seconds(50, 50), None);
    }

    #[test]
    fn eta_holds_steady_during_a_silent_shared_pass() {
        // A batched campaign goes quiet for the length of a shared
        // pass, then bursts. The ETA computed mid-pass must equal the
        // ETA computed right after the last burst — the frozen rate
        // basis is exactly what stops the sawtooth.
        let p = ProgressHook::new(256);
        std::thread::sleep(Duration::from_millis(5));
        p.count(BATCHES_COUNTER, 1);
        p.count(BATCHED_COUNTER, 64);
        p.count(r#"campaign_injections_total{outcome="masked"}"#, 64);
        let at_burst = p.eta_seconds(64, 0).expect("rate exists");
        std::thread::sleep(Duration::from_millis(30));
        let mid_pass = p.eta_seconds(64, 0).expect("rate still exists");
        assert_eq!(
            at_burst.to_bits(),
            mid_pass.to_bits(),
            "ETA must not drift while a shared pass is in flight"
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(5.0), "5s");
        assert_eq!(format_duration(65.0), "1m05s");
        assert_eq!(format_duration(3700.0), "1h01m");
    }
}
