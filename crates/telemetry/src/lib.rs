//! Campaign telemetry for the GPU reliability reproduction.
//!
//! Fault-injection campaigns are statistical instruments — thousands of
//! replays per structure — and this crate is how they stop running
//! dark. It provides four pieces, composable and individually optional:
//!
//! - [`MetricsRegistry`]: lock-cheap counters, gauges and log-bucketed
//!   histograms. Every recording thread writes to a private shard
//!   (registered through a thread-local table), so the scoped-thread
//!   injection loop records without contention; [`MetricsRegistry::snapshot`]
//!   merges all shards at harvest time. Merges are associative and
//!   order-independent.
//! - [`TelemetryHook`]: the instrumentation seam. Hot code is generic
//!   over the hook; [`NoopHook`] sets `ENABLED = false` and call sites
//!   guard with `if H::ENABLED`, so uninstrumented builds monomorphise
//!   the telemetry away entirely (same pattern as the simulator's
//!   `NoopObserver`). [`RegistryHook`] is the production implementation.
//! - Structured events: [`Event`] + [`EventSink`] with a JSONL file
//!   sink ([`JsonlSink`]) whose output `repro report` parses back via
//!   the vendored [`json`] module.
//! - Hierarchical spans: [`SpanRecorder`] + [`SpanHook`] collect timed,
//!   path-addressed regions of the campaign pipeline into per-thread
//!   ring buffers and merge them into a deterministic [`SpanTree`]
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
//! campaign with the registry and span hooks. With a live hook, the
//! record path is one thread-local lookup plus one uncontended mutex
//! lock — no cross-thread traffic until harvest.

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
