//! The span tracer must be observe-only and structurally deterministic:
//! tracing a study point never changes its results, and the
//! duration-stripped span tree (`SpanTree::structural_text`) is
//! byte-identical at any `--jobs` count. Per-worker timelines and span
//! lanes are the only job-count-dependent artifacts, and
//! `structural_text` excludes exactly those.

use gpu_archs::quadro_fx_5600;
use gpu_workloads::Transpose;
use grel_core::study::{evaluate_point_hooked, StudyConfig};
use grel_telemetry::{Json, NoopHook, SpanHook, SpanRecorder, SpanTree};

fn cfg(threads: usize) -> StudyConfig {
    let mut cfg = StudyConfig {
        campaign: grel_core::campaign::CampaignConfig::quick(9),
        mode: Default::default(),
    };
    cfg.campaign.injections = 24;
    cfg.campaign.threads = threads;
    // Pruning would pre-classify most transient sites and leave no
    // replays to trace, so give the structural tree real injection
    // spans to bite on.
    cfg.campaign.prune = false;
    cfg.campaign.early_exit = false;
    cfg
}

fn traced_point(threads: usize) -> (grel_core::study::EvalPoint, SpanTree) {
    let arch = quadro_fx_5600();
    let w = Transpose::new(32, 9);
    let recorder = SpanRecorder::new();
    let point = evaluate_point_hooked(&arch, &w, &cfg(threads), &SpanHook::new(&recorder)).unwrap();
    (point, recorder.finish())
}

#[test]
fn structural_tree_is_job_count_invariant() {
    let (p1, t1) = traced_point(1);
    let (p2, t2) = traced_point(2);
    let (p8, t8) = traced_point(8);

    // Same campaign results at every job count (the runner's contract)…
    assert_eq!(p1.rf.tally, p2.rf.tally);
    assert_eq!(p1.rf.tally, p8.rf.tally);
    assert_eq!(p1.lds.tally, p8.lds.tally);

    // …and the same duration-stripped tree, byte for byte.
    let s1 = t1.structural_text();
    assert_eq!(s1, t2.structural_text(), "jobs=1 vs jobs=2");
    assert_eq!(s1, t8.structural_text(), "jobs=1 vs jobs=8");

    // The tree actually traced the campaign: a root point span, phase
    // children, and one span per replayed injection.
    assert!(!t1.is_empty());
    assert_eq!(t1.dropped, 0);
    assert!(s1.starts_with("point:transpose@"), "{s1}");
    assert!(s1.contains("\n  golden "), "{s1}");
    assert!(s1.contains("\n  campaign:rf "), "{s1}");
    assert!(s1.contains("\n    replay "), "{s1}");
    assert!(s1.contains("\n    merge"), "{s1}");
    let rf_inj = t1
        .spans
        .iter()
        .filter(|n| n.path.contains("/campaign:rf/") && n.name.starts_with("inj:"))
        .count();
    assert_eq!(rf_inj, 24, "one span per unpruned RF injection");

    // Worker timelines exist in the full tree but are excluded from the
    // structural text (their count is the one thing --jobs may change).
    assert!(t8.nodes_named(|n| n.starts_with("worker:")).count() >= 2);
    assert!(!s1.contains("worker:"), "{s1}");
}

#[test]
fn span_tracing_is_observe_only() {
    let arch = quadro_fx_5600();
    let w = Transpose::new(32, 9);
    let plain = evaluate_point_hooked(&arch, &w, &cfg(2), &NoopHook).unwrap();
    let (traced, _) = traced_point(2);

    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.rf.tally, traced.rf.tally);
    assert_eq!(plain.lds.tally, traced.lds.tally);
    assert_eq!(plain.rf.avf_fi.to_bits(), traced.rf.avf_fi.to_bits());
    assert_eq!(plain.lds.avf_fi.to_bits(), traced.lds.avf_fi.to_bits());
    assert_eq!(plain.epf.to_bits(), traced.epf.to_bits());
}

#[test]
fn chrome_trace_export_is_valid_json_with_events() {
    let (_, tree) = traced_point(2);
    let text = tree.to_chrome_trace().to_string();
    let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
    let Json::Obj(fields) = doc else {
        panic!("chrome trace root must be an object");
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let Json::Arr(events) = events else {
        panic!("traceEvents must be an array");
    };
    // At least the metadata events plus one complete event per span.
    assert!(
        events.len() > tree.spans.len(),
        "{} events for {} spans",
        events.len(),
        tree.spans.len()
    );
}
