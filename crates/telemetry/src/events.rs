//! Structured events and the sinks that receive them.
//!
//! An [`Event`] is a named bag of JSON fields; a sink decides where the
//! line goes ([`JsonlSink`] → newline-delimited JSON on disk,
//! [`MemorySink`] → a buffer for tests, [`NullSink`] → nowhere). One
//! event is always one line, so the stream stays greppable and
//! `repro report` can parse it back with [`crate::json::Json::parse`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// A structured event: a name plus ordered key/value fields.
///
/// ```
/// use grel_telemetry::Event;
/// let e = Event::new("campaign.done")
///     .field("structure", "RF")
///     .field("injections", 2000u64);
/// assert_eq!(
///     e.to_json().to_string(),
///     r#"{"event":"campaign.done","structure":"RF","injections":2000}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    name: String,
    fields: Vec<(String, Json)>,
}

impl Event {
    /// A new event with no fields.
    pub fn new(name: &str) -> Self {
        Event {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Appends a field only when `value` is `Some`, keeping builder
    /// chains linear for optional detail (a missing key reads the same
    /// as "not applicable" downstream, and consumers like `repro
    /// report` already tolerate absent fields).
    ///
    /// ```
    /// use grel_telemetry::Event;
    /// let e = Event::new("injection.trace")
    ///     .field_opt("cause", Some("deadlock"))
    ///     .field_opt("cause_cycle", None::<u64>);
    /// assert_eq!(
    ///     e.to_json().to_string(),
    ///     r#"{"event":"injection.trace","cause":"deadlock"}"#
    /// );
    /// ```
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// The event name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The event as a JSON object with the name under `"event"`.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::with_capacity(self.fields.len() + 1);
        fields.push(("event".to_string(), Json::from(self.name.as_str())));
        fields.extend(self.fields.iter().cloned());
        Json::Obj(fields)
    }
}

/// Receives structured events. Implementations must tolerate concurrent
/// `emit` calls from the campaign worker threads.
pub trait EventSink: Send + Sync {
    /// Delivers one event.
    fn emit(&self, event: &Event);

    /// Flushes any buffered output (default: nothing to do).
    fn flush(&self) {}
}

/// Discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Buffers events in memory; for tests and report generation.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event received so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("sink poisoned").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events
            .lock()
            .expect("sink poisoned")
            .push(event.clone());
    }
}

/// Writes each event as one JSON line, stamping a `t_ms` field with
/// milliseconds since the sink was created.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<BufWriter<W>>,
    started: Instant,
}

impl JsonlSink<File> {
    /// Creates (truncating) `path` and writes events to it.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn to_file(path: &Path) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
            started: Instant::now(),
        }
    }
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish()
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, event: &Event) {
        let json = match event.to_json() {
            Json::Obj(mut fields) => {
                let t_ms = self.started.elapsed().as_millis() as u64;
                fields.insert(1, ("t_ms".to_string(), Json::from(t_ms)));
                Json::Obj(fields)
            }
            other => other,
        };
        let mut w = self.writer.lock().expect("sink poisoned");
        // Telemetry must never take the campaign down: swallow I/O
        // errors here; `flush` is the place where they surface.
        let _ = writeln!(w, "{json}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("sink poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn event_builder_and_accessors() {
        let e = Event::new("x").field("a", 1u64).field("b", "two");
        assert_eq!(e.name(), "x");
        assert_eq!(e.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(e.get("b").and_then(Json::as_str), Some("two"));
        assert_eq!(e.get("c"), None);
    }

    #[test]
    fn field_opt_skips_none_and_keeps_some() {
        let e = Event::new("x")
            .field_opt("present", Some(7u64))
            .field_opt("absent", None::<&str>);
        assert_eq!(e.get("present").and_then(Json::as_u64), Some(7));
        assert_eq!(e.get("absent"), None);
    }

    #[test]
    fn field_opt_round_trips_through_json() {
        // A None field must vanish from the serialized line entirely —
        // not appear as null — and the Some fields must parse back to
        // the values that went in, even with control characters.
        let e = Event::new("injection.trace")
            .field_opt("cause", Some("dead\nlock\t\x01"))
            .field_opt("cause_cycle", Some(97u64))
            .field_opt("mask_reason", None::<&str>)
            .field_opt("mask_cycle", None::<u64>);
        let line = e.to_json().to_string();
        let back = Json::parse(&line).expect("event line parses");
        assert_eq!(
            back.get("event").and_then(Json::as_str),
            Some("injection.trace")
        );
        assert_eq!(
            back.get("cause").and_then(Json::as_str),
            Some("dead\nlock\t\x01")
        );
        assert_eq!(back.get("cause_cycle").and_then(Json::as_u64), Some(97));
        assert_eq!(back.get("mask_reason"), None);
        assert_eq!(back.get("mask_cycle"), None);
        assert!(
            !line.contains("mask_reason") && !line.contains("null"),
            "None fields must be absent, not null: {line}"
        );
    }

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemorySink::new();
        sink.emit(&Event::new("first"));
        sink.emit(&Event::new("second"));
        let got = sink.events();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name(), "first");
        assert_eq!(got[1].name(), "second");
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines_with_t_ms() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = JsonlSink::new(Shared(Arc::clone(&buf)));
        sink.emit(&Event::new("alpha").field("n", 3u64));
        sink.emit(&Event::new("beta"));
        sink.flush();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = Json::parse(line).expect("valid JSONL line");
            assert!(v.get("event").is_some());
            assert!(v.get("t_ms").and_then(Json::as_u64).is_some());
        }
        assert_eq!(
            Json::parse(lines[0])
                .unwrap()
                .get("n")
                .and_then(Json::as_u64),
            Some(3)
        );
    }
}
