//! The campaign observatory: an embedded HTTP/1.1 scrape endpoint.
//!
//! A campaign is a statistical instrument that runs for minutes; this
//! module makes it observable *while it runs* instead of only after.
//! [`serve`] starts a background thread answering four `GET` paths:
//!
//! | path           | content type                              | body |
//! |----------------|-------------------------------------------|------|
//! | `/metrics`     | `text/plain; version=0.0.4; charset=utf-8`| [`to_prometheus`] exposition of the live registry |
//! | `/health`      | `application/json`                        | `{"status":"ok","uptime_ms":…}` |
//! | `/progress`    | `application/json`                        | done/pruned/batched/total injection counts |
//! | `/convergence` | `application/json`                        | latest `campaign.convergence` event per campaign |
//!
//! The server is dependency-free by policy (no serialization or HTTP
//! crate is vendored): requests are parsed by
//! hand, one connection at a time, `Connection: close` semantics. That
//! is deliberately modest — the endpoint exists for a Prometheus
//! scraper and a curious `curl`, not for traffic.
//!
//! The observatory is strictly read-only: it snapshots the
//! [`MetricsRegistry`] (a clone taken under the registry's one lock,
//! held only for the copy) and reads the [`StatusBoard`] the event
//! stream tees into. Nothing a scrape does changes a campaign's
//! results, and runs without `--listen` do not construct any of this.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::events::{Event, EventSink};
use crate::expo::to_prometheus;
use crate::json::Json;
use crate::metrics::MetricsRegistry;
use crate::{BATCHED_COUNTER, INJECTIONS_COUNTER, PRUNED_COUNTER};

/// Poll interval of the accept loop while idle (the listener is
/// non-blocking so the stop flag is honoured promptly).
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection read/write timeout: a stalled scraper must never
/// wedge the observatory.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on an accepted request head; anything larger is a 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Live campaign state the HTTP endpoints read: an [`EventSink`] that
/// retains the latest `campaign.convergence` event per campaign
/// (keyed by workload × device × structure × fault kind), fed by
/// teeing the hook's event stream into it
/// (see [`TeeSink`](crate::events::TeeSink)).
#[derive(Debug)]
pub struct StatusBoard {
    started: Instant,
    convergence: Mutex<BTreeMap<String, Event>>,
}

impl StatusBoard {
    /// An empty board.
    pub fn new() -> Self {
        StatusBoard {
            started: Instant::now(),
            convergence: Mutex::new(BTreeMap::new()),
        }
    }

    /// Milliseconds since the board was created (campaign start).
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// The latest convergence event per campaign, in key order.
    pub fn convergence_events(&self) -> Vec<Event> {
        self.convergence
            .lock()
            .expect("board poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// The `/convergence` body: `{"campaigns":[…]}` with one entry per
    /// campaign, each the latest `campaign.convergence` event verbatim.
    pub fn convergence_json(&self) -> Json {
        let campaigns = self
            .convergence_events()
            .iter()
            .map(Event::to_json)
            .collect();
        Json::Obj(vec![("campaigns".to_string(), Json::Arr(campaigns))])
    }
}

impl Default for StatusBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for StatusBoard {
    fn emit(&self, event: &Event) {
        if event.name() != "campaign.convergence" {
            return;
        }
        let key = ["workload", "device", "structure", "fault_kind"]
            .iter()
            .map(|k| event.get(k).and_then(Json::as_str).unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\u{1f}");
        self.convergence
            .lock()
            .expect("board poisoned")
            .insert(key, event.clone());
    }
}

/// Everything the observatory serves from.
#[derive(Debug, Clone)]
pub struct Observatory {
    /// The live metrics registry behind `/metrics` and `/progress`.
    pub registry: Arc<MetricsRegistry>,
    /// The event-fed board behind `/convergence` and `/health` uptime.
    pub board: Arc<StatusBoard>,
    /// Total injections the run will perform (the `/progress`
    /// denominator); `0` when unknown.
    pub planned_injections: u64,
}

/// A running observatory server; dropping it (or calling
/// [`ServerHandle::stop`]) shuts the accept loop down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`, port `0` for ephemeral) and
/// serves the observatory endpoints from a background thread until the
/// returned handle is stopped or dropped.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission denied).
pub fn serve(addr: impl ToSocketAddrs, observatory: Observatory) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("grel-observatory".to_string())
        .spawn(move || accept_loop(listener, &observatory, &stop_flag))?;
    Ok(ServerHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(listener: TcpListener, observatory: &Observatory, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time: a scrape endpoint serves a
                // Prometheus poller, not a thundering herd, and a serial
                // loop cannot be wedged open by slow clients thanks to
                // the per-connection timeout.
                let _ = handle_connection(stream, observatory);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            // Transient accept errors (aborted handshakes) are not
            // fatal to the observatory; back off briefly and continue.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, observatory: &Observatory) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let request = match read_request_head(&mut stream) {
        Ok(head) => head,
        Err(_) => {
            return respond(
                &mut stream,
                "400 Bad Request",
                "application/json",
                &error_body("malformed request"),
            )
        }
    };
    let (status, content_type, body) = route(&request, observatory);
    respond(&mut stream, status, content_type, &body)
}

/// Reads until the blank line ending the request head, returning the
/// request line (`GET /path HTTP/1.1`). Headers and any body are
/// ignored — every endpoint is a parameterless `GET`.
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_REQUEST_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }
    let text = String::from_utf8_lossy(&head);
    let line = text.lines().next().unwrap_or("").trim().to_string();
    if line.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty request"));
    }
    Ok(line)
}

/// Maps a request line to `(status, content type, body)`.
fn route(request_line: &str, observatory: &Observatory) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    // Strip any query string: the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or("");
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "application/json",
            error_body("only GET is supported"),
        );
    }
    // Bounded label set: the four known paths plus "other", so a
    // scanner cannot inflate the registry's cardinality.
    let label = match path {
        "/metrics" | "/health" | "/progress" | "/convergence" => path,
        _ => "other",
    };
    observatory.registry.counter(
        &format!("observatory_requests_total{{path=\"{label}\"}}"),
        1,
    );
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            to_prometheus(&observatory.registry.snapshot()),
        ),
        "/health" => (
            "200 OK",
            "application/json",
            Json::Obj(vec![
                ("status".to_string(), Json::from("ok")),
                (
                    "uptime_ms".to_string(),
                    Json::from(observatory.board.uptime_ms()),
                ),
            ])
            .to_string(),
        ),
        "/progress" => ("200 OK", "application/json", progress_body(observatory)),
        "/convergence" => (
            "200 OK",
            "application/json",
            observatory.board.convergence_json().to_string(),
        ),
        _ => (
            "404 Not Found",
            "application/json",
            error_body("unknown path (try /metrics, /health, /progress, /convergence)"),
        ),
    }
}

/// The `/progress` body, derived from the live registry: the same
/// counters `ProgressHook` folds, summed at snapshot time.
fn progress_body(observatory: &Observatory) -> String {
    let snap = observatory.registry.snapshot();
    let done: u64 = snap
        .counters()
        .filter(|(name, _)| name.starts_with(INJECTIONS_COUNTER))
        .map(|(_, v)| v)
        .sum();
    let pruned = snap.counter(PRUNED_COUNTER).unwrap_or(0);
    let batched = snap.counter(BATCHED_COUNTER).unwrap_or(0);
    let total = observatory.planned_injections;
    let percent = if total > 0 {
        (done as f64 / total as f64 * 100.0).min(100.0)
    } else {
        0.0
    };
    Json::Obj(vec![
        ("done".to_string(), Json::from(done)),
        ("pruned".to_string(), Json::from(pruned)),
        ("batched".to_string(), Json::from(batched)),
        ("total".to_string(), Json::from(total)),
        ("percent".to_string(), Json::from(percent)),
    ])
    .to_string()
}

fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".to_string(), Json::from(message))]).to_string()
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observatory(planned: u64) -> Observatory {
        Observatory {
            registry: Arc::new(MetricsRegistry::new()),
            board: Arc::new(StatusBoard::new()),
            planned_injections: planned,
        }
    }

    fn http_get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn body_of(response: &str) -> &str {
        response
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body")
    }

    #[test]
    fn serves_metrics_health_progress_and_convergence() {
        let obs = observatory(200);
        obs.registry
            .counter("campaign_injections_total{outcome=\"masked\"}", 40);
        obs.registry
            .counter("campaign_injections_total{outcome=\"sdc\"}", 10);
        obs.registry.counter("campaign_pruned_total", 30);
        obs.board.emit(
            &Event::new("campaign.convergence")
                .field("workload", "vectoradd")
                .field("device", "GeForce GTX 480")
                .field("structure", "rf")
                .field("fault_kind", "transient")
                .field("seen", 50u64),
        );
        let server = serve("127.0.0.1:0", obs.clone()).expect("bind");
        let addr = server.local_addr();

        let metrics = http_get(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(
            body_of(&metrics).contains("campaign_injections_total"),
            "{metrics}"
        );

        let health = http_get(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        let health_json = Json::parse(body_of(&health)).expect("health is JSON");
        assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));
        assert!(health_json
            .get("uptime_ms")
            .and_then(Json::as_u64)
            .is_some());

        let progress = http_get(addr, "GET /progress HTTP/1.1\r\nHost: t\r\n\r\n");
        let progress_json = Json::parse(body_of(&progress)).expect("progress is JSON");
        assert_eq!(progress_json.get("done").and_then(Json::as_u64), Some(50));
        assert_eq!(progress_json.get("pruned").and_then(Json::as_u64), Some(30));
        assert_eq!(progress_json.get("total").and_then(Json::as_u64), Some(200));
        assert_eq!(
            progress_json.get("percent").and_then(Json::as_f64),
            Some(25.0)
        );

        let conv = http_get(addr, "GET /convergence HTTP/1.1\r\nHost: t\r\n\r\n");
        let conv_json = Json::parse(body_of(&conv)).expect("convergence is JSON");
        let campaigns = conv_json
            .get("campaigns")
            .and_then(Json::as_arr)
            .expect("campaigns array");
        assert_eq!(campaigns.len(), 1);
        assert_eq!(
            campaigns[0].get("workload").and_then(Json::as_str),
            Some("vectoradd")
        );
        assert_eq!(campaigns[0].get("seen").and_then(Json::as_u64), Some(50));

        // Scrapes are themselves observable, with a bounded label set.
        let snap = obs.registry.snapshot();
        assert_eq!(
            snap.counter("observatory_requests_total{path=\"/metrics\"}"),
            Some(1)
        );
        server.stop();
    }

    #[test]
    fn rejects_unknown_paths_and_non_get_methods() {
        let server = serve("127.0.0.1:0", observatory(0)).expect("bind");
        let addr = server.local_addr();
        let missing = http_get(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(Json::parse(body_of(&missing)).is_ok(), "404 body is JSON");
        let post = http_get(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        server.stop();
    }

    #[test]
    fn query_strings_are_ignored() {
        let server = serve("127.0.0.1:0", observatory(0)).expect("bind");
        let addr = server.local_addr();
        let health = http_get(addr, "GET /health?probe=1 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        server.stop();
    }

    #[test]
    fn board_keeps_latest_event_per_campaign() {
        let board = StatusBoard::new();
        for seen in [10u64, 20, 30] {
            board.emit(
                &Event::new("campaign.convergence")
                    .field("workload", "fft")
                    .field("device", "Quadro FX 5600")
                    .field("structure", "rf")
                    .field("fault_kind", "transient")
                    .field("seen", seen),
            );
        }
        board.emit(
            &Event::new("campaign.convergence")
                .field("workload", "fft")
                .field("device", "Quadro FX 5600")
                .field("structure", "lds")
                .field("fault_kind", "transient")
                .field("seen", 5u64),
        );
        // Unrelated events are ignored entirely.
        board.emit(&Event::new("campaign.done").field("workload", "fft"));
        let events = board.convergence_events();
        assert_eq!(events.len(), 2, "one entry per campaign key");
        let rf = events
            .iter()
            .find(|e| e.get("structure").and_then(Json::as_str) == Some("rf"))
            .expect("rf campaign present");
        assert_eq!(rf.get("seen").and_then(Json::as_u64), Some(30));
    }

    /// The adaptive sampler's per-stratum `strata` array rides the
    /// `campaign.convergence` event verbatim: the board must retain it
    /// untouched so `/convergence` serves the final per-stratum state.
    #[test]
    fn board_passes_strata_arrays_through_verbatim() {
        let board = StatusBoard::new();
        let strata = Json::Arr(vec![Json::Obj(vec![
            ("label".to_string(), Json::from("live/c0/b0")),
            ("seen".to_string(), Json::from(12u64)),
            ("planned".to_string(), Json::from(16u64)),
        ])]);
        board.emit(
            &Event::new("campaign.convergence")
                .field("workload", "vectoradd")
                .field("device", "GeForce GTX 480")
                .field("structure", "rf")
                .field("fault_kind", "transient")
                .field("seen", 12u64)
                .field("strata", strata.clone()),
        );
        let events = board.convergence_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("strata"), Some(&strata));
        let body = board.convergence_json().to_string();
        assert!(body.contains("live/c0/b0"), "{body}");
    }

    #[test]
    fn stop_terminates_the_server() {
        let server = serve("127.0.0.1:0", observatory(0)).expect("bind");
        let addr = server.local_addr();
        server.stop();
        // The listener is gone: a fresh connection must fail (allow a
        // beat for the OS to tear the socket down).
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "stopped server must not accept connections"
        );
    }
}
