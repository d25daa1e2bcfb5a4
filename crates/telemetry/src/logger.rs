//! A small level-gated logger that keeps stdout machine-parseable.
//!
//! Status lines go to **stderr** gated by [`LogLevel`]; each line is
//! also mirrored into the telemetry event sink (as a `log` event) so a
//! JSONL export contains the full narrative of the run.

use std::sync::Arc;

use crate::events::{Event, EventSink, NullSink};

/// How chatty stderr should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum LogLevel {
    /// Errors only (`--quiet`).
    Quiet,
    /// Errors + status lines (the default).
    #[default]
    Info,
    /// Everything, including per-phase detail (`-v`).
    Debug,
}

/// Level-gated stderr logger mirroring to an [`EventSink`].
#[derive(Clone)]
pub struct Logger {
    level: LogLevel,
    sink: Arc<dyn EventSink>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("level", &self.level)
            .finish()
    }
}

impl Default for Logger {
    fn default() -> Self {
        Self::new(LogLevel::Info)
    }
}

impl Logger {
    /// A logger writing to stderr only.
    pub fn new(level: LogLevel) -> Self {
        Logger {
            level,
            sink: Arc::new(NullSink),
        }
    }

    /// A logger that additionally mirrors every line into `sink`.
    pub fn with_sink(level: LogLevel, sink: Arc<dyn EventSink>) -> Self {
        Logger { level, sink }
    }

    /// The configured level.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    fn emit(&self, level: &str, min: LogLevel, msg: &str) {
        if self.level >= min {
            crate::to_stderr(format_args!("{msg}\n"));
        }
        // The sink gets every line regardless of the stderr gate: the
        // JSONL export should tell the whole story even under --quiet.
        self.sink
            .emit(&Event::new("log").field("level", level).field("msg", msg));
    }

    /// Always printed (even under `--quiet`).
    pub fn error(&self, msg: &str) {
        self.emit("error", LogLevel::Quiet, msg);
    }

    /// Printed at the default level and above.
    pub fn info(&self, msg: &str) {
        self.emit("info", LogLevel::Info, msg);
    }

    /// Printed only with `-v`.
    pub fn debug(&self, msg: &str) {
        self.emit("debug", LogLevel::Debug, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::MemorySink;
    use crate::json::Json;

    #[test]
    fn levels_order() {
        assert!(LogLevel::Quiet < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert_eq!(LogLevel::default(), LogLevel::Info);
    }

    #[test]
    fn all_lines_reach_the_sink_even_when_quiet() {
        let sink = Arc::new(MemorySink::new());
        let log = Logger::with_sink(LogLevel::Quiet, sink.clone());
        log.error("boom");
        log.info("status");
        log.debug("detail");
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("level").and_then(Json::as_str), Some("error"));
        assert_eq!(events[1].get("msg").and_then(Json::as_str), Some("status"));
        assert_eq!(events[2].get("level").and_then(Json::as_str), Some("debug"));
    }
}
