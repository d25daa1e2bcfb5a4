//! Hierarchical span tracing for campaign profiling.
//!
//! A [`SpanRecord`] is one timed region of the pipeline, identified by a
//! `/`-separated **path** (`point:mmul@G80/campaign:rf/replay/inj:000042`).
//! Paths encode the hierarchy, so call sites never thread parent ids —
//! they build the full path from locally-known data and record at end
//! (no guard objects, safe across `?` early returns). A [`SpanRecorder`]
//! keeps one ring buffer per timeline lane behind one lock, and
//! [`SpanRecorder::finish`] merges the rings into a [`SpanTree`] whose
//! shape is a pure function of the record multiset.
//!
//! # Determinism contract
//!
//! The structural tree — node paths, parent links, sibling order
//! (sorted by `(seq, name)`), counts and tags — is byte-identical at
//! any `--jobs` count, because injection-span paths are derived from
//! the campaign's deterministic site order, never from which worker
//! happened to replay them. Two things *do* vary with scheduling and
//! are therefore excluded from [`SpanTree::structural_text`]: durations
//! and the per-worker timeline nodes (`worker:NN`, which exist only at
//! the jobs count that produced them). Lane ids are a pure function of
//! (site order, jobs): deterministic at a fixed jobs count.
//!
//! Instrumented code stays zero-cost when profiling is off: the hook
//! trait's `SPANS` constant defaults to `false` and every call site
//! guards with `if H::SPANS`, exactly like the `ENABLED` guard.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Default per-lane ring capacity (records kept per lane before the
/// oldest are dropped). 65 536 spans comfortably covers a 2 000-site
/// paper campaign per worker with room for phase spans.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One completed timed region. Built at the *end* of the region:
/// `SpanRecord::new` takes the start instant and stamps the end itself.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// `/`-separated hierarchical path; the prefix chain is the
    /// ancestry (`a/b/c` is a child of `a/b`).
    pub path: String,
    /// Timeline lane: 0 = orchestrator, 1..=jobs = replay workers.
    pub lane: u32,
    /// Deterministic sibling-ordering key (site index for injection
    /// spans, phase ordinal for phase spans).
    pub seq: u64,
    /// When the region began.
    pub start: Instant,
    /// When the region ended (stamped by [`SpanRecord::new`]).
    pub end: Instant,
    /// Deterministic key/value annotations (outcome, kind, rung, …).
    pub tags: Vec<(String, String)>,
}

impl SpanRecord {
    /// A record covering `start`..now.
    pub fn new(path: impl Into<String>, lane: u32, seq: u64, start: Instant) -> Self {
        SpanRecord {
            path: path.into(),
            lane,
            seq,
            start,
            end: Instant::now(),
            tags: Vec::new(),
        }
    }

    /// Appends a tag (builder style). Values must be deterministic —
    /// they are part of the structural tree.
    #[must_use]
    pub fn tag(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.tags.push((key.to_string(), value.to_string()));
        self
    }

    /// The final path segment (`inj:000042` of `…/replay/inj:000042`).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// One lane's ring of records plus the count of overflow drops.
#[derive(Debug, Default)]
struct SpanRing {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

/// Collects [`SpanRecord`]s from any number of threads into one ring
/// per lane behind one lock; [`SpanRecorder::finish`] merges the rings
/// into a deterministic tree. A full ring drops its oldest record, so
/// each worker keeps its own most recent spans.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    capacity: usize,
    rings: Mutex<BTreeMap<u32, SpanRing>>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// A recorder with the default per-lane ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder keeping at most `per_lane` records per lane (the
    /// oldest records are dropped and counted once a ring is full).
    pub fn with_capacity(per_lane: usize) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            capacity: per_lane.max(1),
            rings: Mutex::new(BTreeMap::new()),
        }
    }

    /// The instant all exported timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Appends one record to its lane's ring.
    pub fn record(&self, record: SpanRecord) {
        let mut rings = self.rings.lock().expect("span recorder poisoned");
        let ring = rings.entry(record.lane).or_default();
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }

    /// Total records dropped to ring overflow, across all lanes.
    pub fn dropped(&self) -> u64 {
        let rings = self.rings.lock().expect("span recorder poisoned");
        rings.values().map(|r| r.dropped).sum()
    }

    /// Merges every lane's ring into a [`SpanTree`]. Non-draining:
    /// rings keep their records, so `finish` can be called repeatedly.
    pub fn finish(&self) -> SpanTree {
        let rings = self.rings.lock().expect("span recorder poisoned");
        let records = rings
            .values()
            .flat_map(|r| r.records.iter().cloned())
            .collect();
        let dropped = rings.values().map(|r| r.dropped).sum();
        SpanTree::build(records, self.epoch, dropped)
    }
}

/// One node of the merged span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// DFS-preorder id, assigned deterministically at merge time.
    pub id: u32,
    /// Parent node id (`None` for roots).
    pub parent: Option<u32>,
    /// Root = 0.
    pub depth: u32,
    /// Full hierarchical path.
    pub path: String,
    /// Final path segment.
    pub name: String,
    /// Timeline lane (0 = orchestrator).
    pub lane: u32,
    /// Sibling-ordering key.
    pub seq: u64,
    /// Records merged into this node (1 unless the same path was
    /// recorded more than once; 0 for synthesized ancestors).
    pub count: u64,
    /// Start, microseconds since the recorder epoch (earliest record).
    pub start_us: u64,
    /// Summed duration of the merged records, microseconds.
    pub dur_us: u64,
    /// Tags of the first record at this path.
    pub tags: Vec<(String, String)>,
}

/// The deterministic merge of every recorded span, in DFS preorder.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// Nodes in DFS preorder (`spans[i].id == i`).
    pub spans: Vec<SpanNode>,
    /// Records lost to ring overflow.
    pub dropped: u64,
}

/// Intermediate per-path aggregate used during the merge.
struct PathAgg {
    lane: u32,
    seq: u64,
    count: u64,
    start_us: u64,
    end_us: u64,
    dur_us: u64,
    tags: Vec<(String, String)>,
}

fn parent_path(path: &str) -> Option<&str> {
    path.rsplit_once('/').map(|(head, _)| head)
}

fn last_segment(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

impl SpanTree {
    /// Builds the tree from a raw record set. Pure function of the
    /// record multiset (plus the epoch for timestamp conversion): the
    /// collection order of `records` never affects the result.
    fn build(records: Vec<SpanRecord>, epoch: Instant, dropped: u64) -> SpanTree {
        // Aggregate by path. Records sharing a path merge into one node
        // (count, summed duration); ties on tags/lane/seq are broken by
        // the smallest (seq, tags, lane) so the result is order-free.
        let mut by_path: BTreeMap<String, PathAgg> = BTreeMap::new();
        for rec in records {
            let start_us = rec.start.saturating_duration_since(epoch).as_micros() as u64;
            let end_us = rec.end.saturating_duration_since(epoch).as_micros() as u64;
            let dur_us = end_us.saturating_sub(start_us);
            match by_path.get_mut(&rec.path) {
                Some(agg) => {
                    agg.count += 1;
                    agg.start_us = agg.start_us.min(start_us);
                    agg.end_us = agg.end_us.max(end_us);
                    agg.dur_us += dur_us;
                    if (rec.seq, &rec.tags, rec.lane) < (agg.seq, &agg.tags, agg.lane) {
                        agg.seq = rec.seq;
                        agg.tags = rec.tags;
                        agg.lane = rec.lane;
                    }
                }
                None => {
                    by_path.insert(
                        rec.path,
                        PathAgg {
                            lane: rec.lane,
                            seq: rec.seq,
                            count: 1,
                            start_us,
                            end_us,
                            dur_us,
                            tags: rec.tags,
                        },
                    );
                }
            }
        }
        // Synthesize missing ancestors so the prefix chain is complete
        // (span = min..max of its recorded descendants, count 0).
        let paths: Vec<String> = by_path.keys().cloned().collect();
        for path in &paths {
            let (start_us, end_us) = {
                let agg = &by_path[path];
                (agg.start_us, agg.end_us)
            };
            let mut cursor = path.as_str();
            while let Some(parent) = parent_path(cursor) {
                let agg = by_path.entry(parent.to_string()).or_insert(PathAgg {
                    lane: 0,
                    seq: 0,
                    count: 0,
                    start_us,
                    end_us,
                    dur_us: 0,
                    tags: Vec::new(),
                });
                if agg.count == 0 {
                    agg.start_us = agg.start_us.min(start_us);
                    agg.end_us = agg.end_us.max(end_us);
                    agg.dur_us = agg.end_us - agg.start_us;
                }
                cursor = parent;
            }
        }
        // Children per parent, siblings ordered by (seq, name).
        let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut roots: Vec<&str> = Vec::new();
        for path in by_path.keys() {
            match parent_path(path) {
                Some(parent) if by_path.contains_key(parent) => {
                    children.entry(parent).or_default().push(path);
                }
                _ => roots.push(path),
            }
        }
        let order_key = |p: &str| (by_path[p].seq, last_segment(p).to_string());
        roots.sort_by_key(|p| order_key(p));
        for kids in children.values_mut() {
            kids.sort_by_key(|p| order_key(p));
        }
        // DFS preorder id assignment.
        let mut spans: Vec<SpanNode> = Vec::with_capacity(by_path.len());
        let mut stack: Vec<(&str, Option<u32>, u32)> = Vec::new();
        for root in roots.iter().rev() {
            stack.push((root, None, 0));
        }
        while let Some((path, parent, depth)) = stack.pop() {
            let id = spans.len() as u32;
            let agg = &by_path[path];
            spans.push(SpanNode {
                id,
                parent,
                depth,
                path: path.to_string(),
                name: last_segment(path).to_string(),
                lane: agg.lane,
                seq: agg.seq,
                count: agg.count,
                start_us: agg.start_us,
                dur_us: agg.dur_us,
                tags: agg.tags.clone(),
            });
            if let Some(kids) = children.get(path) {
                for kid in kids.iter().rev() {
                    stack.push((kid, Some(id), depth + 1));
                }
            }
        }
        SpanTree { spans, dropped }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The jobs-invariant rendering: one indented line per node with
    /// its name, count (when ≠ 1) and tags. Durations, lanes and the
    /// per-worker timeline nodes (`worker:NN`) are excluded — those are
    /// the only parts of the tree that depend on scheduling — so this
    /// text is byte-identical at any `--jobs` count.
    pub fn structural_text(&self) -> String {
        let mut out = String::new();
        let mut skip_below: Option<u32> = None;
        for node in &self.spans {
            if let Some(d) = skip_below {
                if node.depth > d {
                    continue;
                }
                skip_below = None;
            }
            if node.name.starts_with("worker:") {
                skip_below = Some(node.depth);
                continue;
            }
            for _ in 0..node.depth {
                out.push_str("  ");
            }
            out.push_str(&node.name);
            if node.count > 1 {
                out.push_str(&format!(" x{}", node.count));
            }
            for (k, v) in &node.tags {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
        }
        out
    }

    /// The tree as Chrome trace-event JSON (the `traceEvents` array
    /// format), loadable in Perfetto / `chrome://tracing`. Each node is
    /// a complete (`"ph":"X"`) event on thread `lane`; lanes get
    /// metadata names (`orchestrator`, `worker 0` …).
    pub fn to_chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(self.spans.len() + 8);
        let mut lanes: Vec<u32> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        events.push(Json::Obj(vec![
            ("ph".into(), Json::from("M")),
            ("name".into(), Json::from("process_name")),
            ("pid".into(), Json::from(1u64)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::from("grel campaign"))]),
            ),
        ]));
        for lane in &lanes {
            let label = if *lane == 0 {
                "orchestrator".to_string()
            } else {
                format!("worker {}", lane - 1)
            };
            events.push(Json::Obj(vec![
                ("ph".into(), Json::from("M")),
                ("name".into(), Json::from("thread_name")),
                ("pid".into(), Json::from(1u64)),
                ("tid".into(), Json::from(*lane)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::from(label.as_str()))]),
                ),
            ]));
        }
        let mut ordered: Vec<&SpanNode> = self.spans.iter().collect();
        ordered.sort_by(|a, b| (a.lane, a.start_us, &a.path).cmp(&(b.lane, b.start_us, &b.path)));
        for node in ordered {
            let mut args: Vec<(String, Json)> = vec![
                ("path".into(), Json::from(node.path.as_str())),
                ("seq".into(), Json::from(node.seq)),
            ];
            if node.count > 1 {
                args.push(("count".into(), Json::from(node.count)));
            }
            for (k, v) in &node.tags {
                args.push((k.clone(), Json::from(v.as_str())));
            }
            events.push(Json::Obj(vec![
                ("ph".into(), Json::from("X")),
                ("name".into(), Json::from(node.name.as_str())),
                ("cat".into(), Json::from("campaign")),
                ("pid".into(), Json::from(1u64)),
                ("tid".into(), Json::from(node.lane)),
                ("ts".into(), Json::from(node.start_us)),
                ("dur".into(), Json::from(node.dur_us.max(1))),
                ("args".into(), Json::Obj(args)),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::from("ms")),
        ])
    }

    /// Nodes matching a name predicate, in tree order.
    pub fn nodes_named<'t>(
        &'t self,
        pred: impl Fn(&str) -> bool + 't,
    ) -> impl Iterator<Item = &'t SpanNode> {
        self.spans.iter().filter(move |n| pred(&n.name))
    }
}

/// The profiling hook: forwards spans into a [`SpanRecorder`] and
/// ignores every other signal. Pair it with a [`crate::RegistryHook`]
/// — `(RegistryHook, SpanHook)` — to profile a fully-instrumented run.
#[derive(Debug, Clone, Copy)]
pub struct SpanHook<'a> {
    recorder: &'a SpanRecorder,
}

impl<'a> SpanHook<'a> {
    /// A hook recording into `recorder`.
    pub fn new(recorder: &'a SpanRecorder) -> Self {
        SpanHook { recorder }
    }
}

impl crate::TelemetryHook for SpanHook<'_> {
    const SPANS: bool = true;

    fn span(&self, span: &SpanRecord) {
        self.recorder.record(span.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryHook;

    fn rec(recorder: &SpanRecorder, path: &str, lane: u32, seq: u64) {
        recorder.record(SpanRecord::new(path, lane, seq, recorder.epoch()));
    }

    #[test]
    fn merges_paths_into_a_preorder_tree() {
        let r = SpanRecorder::new();
        rec(&r, "point:a@d/campaign:rf/replay/inj:000001", 1, 1);
        rec(&r, "point:a@d/campaign:rf/replay/inj:000000", 2, 0);
        rec(&r, "point:a@d/campaign:rf/replay", 0, 1);
        rec(&r, "point:a@d/campaign:rf", 0, 3);
        rec(&r, "point:a@d/golden", 0, 0);
        let tree = r.finish();
        let paths: Vec<&str> = tree.spans.iter().map(|n| n.path.as_str()).collect();
        // point:a@d is synthesized; golden (seq 0) precedes campaign.
        assert_eq!(
            paths,
            vec![
                "point:a@d",
                "point:a@d/golden",
                "point:a@d/campaign:rf",
                "point:a@d/campaign:rf/replay",
                "point:a@d/campaign:rf/replay/inj:000000",
                "point:a@d/campaign:rf/replay/inj:000001",
            ]
        );
        let root = &tree.spans[0];
        assert_eq!(root.count, 0, "synthesized ancestor");
        assert_eq!(root.parent, None);
        let inj0 = tree
            .spans
            .iter()
            .find(|n| n.name == "inj:000000")
            .expect("inj:000000");
        assert_eq!(
            tree.spans[inj0.parent.unwrap() as usize].name.as_str(),
            "replay"
        );
        assert_eq!(inj0.depth, 3);
    }

    #[test]
    fn tree_is_independent_of_record_arrival_order() {
        let paths = [
            ("p:x@d/campaign:rf/replay/inj:000002", 1u32, 2u64),
            ("p:x@d/campaign:rf/replay/inj:000000", 2, 0),
            ("p:x@d/campaign:rf/replay/inj:000001", 1, 1),
            ("p:x@d/campaign:rf/prune", 0, 0),
            ("p:x@d/campaign:rf/replay", 0, 1),
        ];
        let forward = SpanRecorder::new();
        for (p, l, s) in paths {
            rec(&forward, p, l, s);
        }
        let backward = SpanRecorder::new();
        for (p, l, s) in paths.iter().rev() {
            rec(&backward, p, *l, *s);
        }
        assert_eq!(
            forward.finish().structural_text(),
            backward.finish().structural_text()
        );
    }

    #[test]
    fn structural_text_excludes_worker_timelines_and_durations() {
        let r = SpanRecorder::new();
        rec(&r, "p:a@d/campaign:rf/replay", 0, 1);
        rec(&r, "p:a@d/campaign:rf/replay/worker:00", 1, 0);
        rec(&r, "p:a@d/campaign:rf/replay/inj:000000", 1, 0);
        let text = r.finish().structural_text();
        assert!(
            !text.contains("worker:"),
            "worker lanes are scheduling-dependent:\n{text}"
        );
        assert!(text.contains("inj:000000"));
        assert!(!text.contains("us"), "no durations in structural text");
    }

    #[test]
    fn duplicate_paths_merge_with_counts() {
        let r = SpanRecorder::new();
        rec(&r, "p:a@d/golden", 0, 0);
        rec(&r, "p:a@d/golden", 0, 0);
        let tree = r.finish();
        let golden = tree.spans.iter().find(|n| n.name == "golden").unwrap();
        assert_eq!(golden.count, 2);
        assert!(tree.structural_text().contains("golden x2"));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let r = SpanRecorder::with_capacity(4);
        for i in 0..10u64 {
            rec(&r, &format!("p:a@d/replay/inj:{i:06}"), 1, i);
        }
        assert_eq!(r.dropped(), 6);
        let tree = r.finish();
        assert_eq!(tree.dropped, 6);
        assert_eq!(
            tree.nodes_named(|n| n.starts_with("inj:")).count(),
            4,
            "only the newest records survive"
        );
    }

    #[test]
    fn ring_bound_holds_per_lane() {
        let r = SpanRecorder::with_capacity(2);
        for i in 0..5u64 {
            rec(&r, &format!("p:a@d/replay/inj:{i:06}"), 1, i);
        }
        rec(&r, "p:a@d/golden", 0, 0);
        assert_eq!(
            r.dropped(),
            3,
            "a busy lane never evicts another lane's spans"
        );
        let tree = r.finish();
        assert_eq!(tree.nodes_named(|n| n == "golden").count(), 1);
        assert_eq!(tree.nodes_named(|n| n.starts_with("inj:")).count(), 2);
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let r = SpanRecorder::new();
        rec(&r, "p:a@d/golden", 0, 0);
        rec(&r, "p:a@d/campaign:rf/replay/inj:000000", 1, 0);
        let doc = r.finish().to_chrome_trace();
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("chrome trace round-trips");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        // golden + inj + 3 synthesized ancestors.
        assert_eq!(complete.len(), 5);
        for e in &complete {
            assert!(e.get("ts").and_then(Json::as_u64).is_some());
            assert!(e.get("dur").and_then(Json::as_u64).unwrap() >= 1);
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
        }
        let names: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert!(names.len() >= 3, "process + per-lane thread metadata");
    }

    #[test]
    fn span_hook_records_and_advertises_spans() {
        let r = SpanRecorder::new();
        let hook = SpanHook::new(&r);
        const { assert!(SpanHook::SPANS) };
        const { assert!(SpanHook::ENABLED) };
        let t0 = Instant::now();
        hook.span(&SpanRecord::new("p:a@d/golden", 0, 0, t0).tag("cycles", 42u64));
        let tree = r.finish();
        let golden = tree.spans.iter().find(|n| n.name == "golden").unwrap();
        assert_eq!(golden.tags, vec![("cycles".to_string(), "42".to_string())]);
    }

    #[test]
    fn finish_is_nondraining() {
        let r = SpanRecorder::new();
        rec(&r, "p:a@d/golden", 0, 0);
        assert_eq!(r.finish().spans.len(), r.finish().spans.len());
    }
}
