//! Campaign telemetry for the GPU reliability reproduction.
//!
//! Fault-injection campaigns are statistical instruments — thousands of
//! replays per structure — and this crate is how they stop running
//! dark. It provides four pieces, composable and individually optional:
//!
//! - [`MetricsRegistry`]: counters, gauges and log-bucketed histograms
//!   behind one mutex, shared by every replay worker;
//!   [`MetricsRegistry::snapshot`] clones them. Counters and histograms
//!   are integer sums, so totals do not depend on the order in which
//!   workers record.
//! - [`TelemetryHook`]: the instrumentation seam. Hot code is generic
//!   over the hook; [`NoopHook`] sets `ENABLED = false` and call sites
//!   guard with `if H::ENABLED`, so uninstrumented builds monomorphise
//!   the telemetry away entirely (same pattern as the simulator's
//!   `NoopObserver`). [`RegistryHook`] is the production implementation.
//! - Structured events: [`Event`] + [`EventSink`] with a JSONL file
//!   sink ([`JsonlSink`]) whose output `repro report` parses back via
//!   the vendored [`json`] module.
//! - Hierarchical spans: [`SpanRecorder`] + [`SpanHook`] collect timed,
//!   path-addressed regions of the campaign pipeline into one ring
//!   buffer per timeline lane and merge them into a deterministic [`SpanTree`]
//!   (Chrome trace-event export for Perfetto, jobs-invariant structural
//!   text for CI diffs). Off by default via the hook's `SPANS` const.
//! - Presentation: [`to_prometheus`] text exposition, a level-gated
//!   [`Logger`] that keeps stdout machine-parseable and a live
//!   [`ProgressHook`] stderr line.
//! - The observatory: [`serve()`] binds a dependency-free HTTP/1.1
//!   endpoint (`/metrics`, `/health`, `/progress`, `/convergence`) over
//!   the live registry and a [`StatusBoard`] fed from the event stream,
//!   so a running campaign can be scraped mid-flight.
//!
//! # Overhead contract
//!
//! With [`NoopHook`] the instrumented code paths compile to the same
//! machine code as before instrumentation: `ENABLED` is a `const`,
//! every telemetry branch is statically dead, and no clock is read.
//! `perfbench/layers` measures this as its `telemetry.hook_overhead`
//! layer metric: one campaign timed with `NoopHook` against the same
//! campaign with the registry and span hooks. With a live hook, each
//! record is one mutex lock on the registry or the span recorder. The
//! workers share that lock, but a replay takes milliseconds and records
//! a handful of values, so the lock is rarely contended.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod expo;
pub mod hook;
pub mod json;
pub mod logger;
pub mod metrics;
pub mod progress;
pub mod serve;
pub mod spans;

pub use events::{Event, EventSink, JsonlSink, MemorySink, NullSink, TeeSink};
pub use expo::to_prometheus;
pub use hook::{NoopHook, RegistryHook, TelemetryHook};
pub use json::{Json, JsonError};
pub use logger::{LogLevel, Logger};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use progress::ProgressHook;
pub use serve::{serve, Observatory, ServerHandle, StatusBoard};
pub use spans::{SpanHook, SpanNode, SpanRecord, SpanRecorder, SpanTree};

/// Prefix of the per-outcome counters (`…{outcome="masked"}`): one
/// count per classified injection, replayed or pruned.
pub(crate) const INJECTIONS_COUNTER: &str = "campaign_injections_total";

/// Sites the lifetime oracle resolved without a replay.
pub(crate) const PRUNED_COUNTER: &str = "campaign_pruned_total";

/// Sites classified inside shared bit-plane passes.
pub(crate) const BATCHED_COUNTER: &str = "campaign_batched_total";

/// Shared bit-plane passes run.
pub(crate) const BATCHES_COUNTER: &str = "campaign_batches_total";

/// Writes `args` to stderr and drops the error a closed stderr gives
/// (`eprint!` panics on it). The crate's unit tests keep `eprint!`, the
/// one form libtest's output capture sees, so redraws stay out of the
/// test report.
pub(crate) fn to_stderr(args: std::fmt::Arguments<'_>) {
    #[cfg(test)]
    eprint!("{args}");
    #[cfg(not(test))]
    let _ = std::io::Write::write_fmt(&mut std::io::stderr(), args);
}
