//! # grel-bench — figure regeneration and rendering for the reproduction
//!
//! The `repro` binary drives the full study and prints each figure of the
//! paper as a table/bar chart; this library holds the pieces it shares
//! with the Criterion benches: workload sets, text rendering and CSV
//! export.
//!
//! # Example
//! ```
//! use grel_bench::{workload_set, Scale};
//! assert_eq!(workload_set(Scale::Smoke, 1).len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use gpu_workloads::{
    Backprop, DwtHaar1D, Gaussian, Histogram, Kmeans, MatrixMul, Reduction, Scan, Transpose,
    VectorAdd, Workload,
};
use grel_core::study::{AvfRow, EpfRow, Findings, StudyResult};
use grel_telemetry::Json;
use std::fmt::Write as _;

/// Workload sizing for a study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs for smoke tests and CI.
    Smoke,
    /// The default figure-harness sizes (see each workload's
    /// `default_size`).
    Default,
}

/// The ten benchmarks at the requested scale, in figure order.
pub fn workload_set(scale: Scale, seed: u64) -> Vec<Box<dyn Workload>> {
    match scale {
        Scale::Default => gpu_workloads::all_workloads(seed),
        Scale::Smoke => vec![
            Box::new(Backprop::new(64, seed)),
            Box::new(DwtHaar1D::new(256, seed)),
            Box::new(Gaussian::new(12, seed)),
            Box::new(Histogram::new(1024, 64, seed)),
            Box::new(Kmeans::new(256, 4, 2, seed)),
            Box::new(MatrixMul::new(32, seed)),
            Box::new(Reduction::new(1024, 256, seed)),
            Box::new(Scan::new(1024, 256, seed)),
            Box::new(Transpose::new(32, seed)),
            Box::new(VectorAdd::new(1024, seed)),
        ],
    }
}

fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Renders a Fig. 1 / Fig. 2 AVF series as a text chart.
///
/// # Example
/// ```
/// use grel_bench::render_avf_figure;
/// use grel_core::study::AvfRow;
/// let rows = vec![AvfRow {
///     workload: "vectoradd".into(),
///     device: "Quadro FX 5600".into(),
///     avf_fi: 0.28, avf_ace: 0.70, occupancy: 0.76,
/// }];
/// let text = render_avf_figure("Fig. 1: Register File AVF", &rows);
/// assert!(text.contains("vectoradd"));
/// assert!(text.contains("AVF-FI"));
/// ```
pub fn render_avf_figure(title: &str, rows: &[AvfRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>7} {:>7} {:>7}  chart (FI #, occupancy |)",
        "workload", "device", "AVF-FI", "AVF-ACE", "occup."
    );
    let mut last_workload = String::new();
    for r in rows {
        if r.workload != last_workload && !last_workload.is_empty() {
            let _ = writeln!(out);
        }
        last_workload = r.workload.clone();
        let mut chart = bar(r.avf_fi, 40);
        let occ_pos = ((r.occupancy.clamp(0.0, 1.0)) * 39.0).round() as usize;
        chart.replace_range(occ_pos..occ_pos + 1, "|");
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:>6.1}% {:>6.1}% {:>6.1}%  {}",
            r.workload,
            r.device,
            r.avf_fi * 100.0,
            r.avf_ace * 100.0,
            r.occupancy * 100.0,
            chart
        );
    }
    out
}

/// Renders the Fig. 3 EPF series as a log-scale text chart.
///
/// # Example
/// ```
/// use grel_bench::render_epf_figure;
/// use grel_core::study::EpfRow;
/// let rows = vec![EpfRow {
///     workload: "scan".into(), device: "GeForce GTX 480".into(),
///     eit: 1e15, fit_gpu: 50.0, epf: 2e13,
/// }];
/// assert!(render_epf_figure(&rows).contains("2.0e13"));
/// ```
pub fn render_epf_figure(rows: &[EpfRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 3: Executions per Failure (log scale 1e12..1e18) =="
    );
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>9} {:>10} {:>9}",
        "workload", "device", "EIT", "FIT_GPU", "EPF"
    );
    let mut last_workload = String::new();
    for r in rows {
        if r.workload != last_workload && !last_workload.is_empty() {
            let _ = writeln!(out);
        }
        last_workload = r.workload.clone();
        // Log-position between 1e12 and 1e18.
        let frac = if r.epf.is_finite() && r.epf > 0.0 {
            ((r.epf.log10() - 12.0) / 6.0).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "{:<12} {:<16} {:>9} {:>10.2} {:>9}  {}",
            r.workload,
            r.device,
            sci(r.eit),
            r.fit_gpu,
            sci(r.epf),
            bar(frac, 40)
        );
    }
    out
}

/// Compact scientific notation (`3.7e15`).
///
/// # Example
/// ```
/// assert_eq!(grel_bench::sci(3.7e15), "3.7e15");
/// ```
pub fn sci(v: f64) -> String {
    if !v.is_finite() {
        return "inf".into();
    }
    if v == 0.0 {
        return "0".into();
    }
    let exp = v.abs().log10().floor() as i32;
    let mant = v / 10f64.powi(exp);
    format!("{mant:.1}e{exp}")
}

/// Renders the findings summary (the paper's F1–F4 claims, quantified).
pub fn render_findings(f: &Findings) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Findings (paper claims, measured) ==");
    let _ = writeln!(
        out,
        "F1  AVF varies strongly: register-file AVF-FI spans {:.1}%..{:.1}%",
        f.rf_avf_range.0 * 100.0,
        f.rf_avf_range.1 * 100.0
    );
    let _ = writeln!(
        out,
        "F2  AVF correlates with occupancy: Pearson r = {:.3} (RF), {:.3} (local memory)",
        f.rf_avf_occupancy_corr, f.lds_avf_occupancy_corr
    );
    let _ = writeln!(
        out,
        "F3  ACE vs FI gap: {:+.1} pp mean on the register file (overestimates), {:+.1} pp on local memory (close)",
        f.rf_ace_gap * 100.0,
        f.lds_ace_gap * 100.0
    );
    let _ = writeln!(
        out,
        "F4  EPF spans {} .. {} ({:.1} orders of magnitude)",
        sci(f.epf_range.0),
        sci(f.epf_range.1),
        if f.epf_range.0 > 0.0 && f.epf_range.1.is_finite() {
            (f.epf_range.1 / f.epf_range.0).log10()
        } else {
            f64::NAN
        }
    );
    out
}

/// Serialises the whole study as CSV (one line per point).
pub fn to_csv(study: &StudyResult) -> String {
    let mut out = String::from(
        "workload,device,uses_lds,cycles,rf_avf_fi,rf_avf_sdc,rf_avf_ace,rf_occ,rf_margin99,\
         lds_avf_fi,lds_avf_ace,lds_occ,srf_avf_ace,fit_rf,fit_lds,fit_srf,eit,epf\n",
    );
    for p in &study.points {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.workload,
            p.device,
            p.uses_local_memory,
            p.cycles,
            p.rf.avf_fi,
            p.rf.avf_sdc,
            p.rf.avf_ace,
            p.rf.occupancy,
            p.rf.margin_99,
            p.lds.avf_fi,
            p.lds.avf_ace,
            p.lds.occupancy,
            p.srf_avf_ace.unwrap_or(0.0),
            p.fit.rf,
            p.fit.lds,
            p.fit.srf,
            p.eit,
            p.epf
        );
    }
    out
}

/// Serialises the whole study as a JSON array (one object per point).
///
/// Field order, float formatting and point order are all deterministic,
/// so two runs of the same study — at any `--jobs` count — produce
/// byte-identical files; CI diffs this output to enforce the parallel
/// runner's determinism contract.
///
/// # Example
/// ```
/// use grel_core::study::StudyResult;
/// let json = grel_bench::to_json(&StudyResult { points: vec![] });
/// assert_eq!(json, "[\n]\n");
/// ```
pub fn to_json(study: &StudyResult) -> String {
    // Each point is one `grel_telemetry::Json` object, so strings get
    // full JSON escaping and numbers the writer's shortest round-trip
    // form: deterministic for a given bit pattern, so any drift in the
    // underlying numbers shows up in a byte diff. Every field is a
    // count, rate or product of non-negative terms, never `-0.0`.
    let mut out = String::from("[\n");
    for (i, p) in study.points.iter().enumerate() {
        let point = Json::Obj(
            [
                ("workload", Json::from(p.workload.as_str())),
                ("device", Json::from(p.device.as_str())),
                ("uses_lds", Json::from(p.uses_local_memory)),
                ("cycles", Json::from(p.cycles)),
                ("rf_avf_fi", Json::from(p.rf.avf_fi)),
                ("rf_avf_sdc", Json::from(p.rf.avf_sdc)),
                ("rf_avf_ace", Json::from(p.rf.avf_ace)),
                ("rf_occ", Json::from(p.rf.occupancy)),
                ("rf_margin99", Json::from(p.rf.margin_99)),
                ("lds_avf_fi", Json::from(p.lds.avf_fi)),
                ("lds_avf_ace", Json::from(p.lds.avf_ace)),
                ("lds_occ", Json::from(p.lds.occupancy)),
                ("srf_avf_ace", p.srf_avf_ace.map_or(Json::Null, Json::from)),
                ("fit_rf", Json::from(p.fit.rf)),
                ("fit_lds", Json::from(p.fit.lds)),
                ("fit_srf", Json::from(p.fit.srf)),
                ("eit", Json::from(p.eit)),
                ("epf", Json::from(p.epf)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        );
        let sep = if i + 1 < study.points.len() { "," } else { "" };
        let _ = writeln!(out, "  {point}{sep}");
    }
    out.push_str("]\n");
    out
}

/// Renders the whole study as the EXPERIMENTS.md body: one markdown table
/// per figure plus the findings block.
pub fn render_experiments_markdown(study: &StudyResult, config_desc: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Measured results\n\nConfiguration: {config_desc}\n");
    let _ = writeln!(out, "### Fig. 1 — Register file AVF\n");
    let _ = writeln!(out, "| workload | device | AVF-FI | AVF-ACE | occupancy |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for r in study.fig1_rows() {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1}% | {:.1}% | {:.1}% |",
            r.workload,
            r.device,
            r.avf_fi * 100.0,
            r.avf_ace * 100.0,
            r.occupancy * 100.0
        );
    }
    let _ = writeln!(out, "\n### Fig. 2 — Local memory AVF\n");
    let _ = writeln!(out, "| workload | device | AVF-FI | AVF-ACE | occupancy |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for r in study.fig2_rows() {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1}% | {:.1}% | {:.1}% |",
            r.workload,
            r.device,
            r.avf_fi * 100.0,
            r.avf_ace * 100.0,
            r.occupancy * 100.0
        );
    }
    let _ = writeln!(out, "\n### Fig. 3 — Executions per Failure\n");
    let _ = writeln!(out, "| workload | device | EIT | FIT_GPU | EPF |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for r in study.fig3_rows() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} | {} |",
            r.workload,
            r.device,
            sci(r.eit),
            r.fit_gpu,
            sci(r.epf)
        );
    }
    let _ = writeln!(
        out,
        "\n### Findings\n\n```text\n{}```",
        render_findings(&study.findings())
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grel_core::study::{EvalPoint, StructureEval};
    use grel_core::Tally;

    fn fake_point(workload: &str, device: &str) -> EvalPoint {
        let s = StructureEval {
            avf_fi: 0.2,
            avf_sdc: 0.15,
            avf_ace: 0.4,
            occupancy: 0.5,
            margin_99: 0.03,
            tally: Tally {
                masked: 80,
                sdc: 15,
                due: 5,
                hang: 0,
            },
        };
        EvalPoint {
            device: device.into(),
            workload: workload.into(),
            uses_local_memory: true,
            cycles: 10_000,
            rf: s,
            lds: s,
            srf_avf_ace: None,
            fit: grel_core::FitBreakdown {
                rf: 10.0,
                lds: 2.0,
                srf: 0.0,
            },
            eit: 1e15,
            epf: 1e14 / 1.2,
        }
    }

    fn fake_study() -> StudyResult {
        StudyResult {
            points: vec![fake_point("scan", "G80"), fake_point("scan", "Fermi")],
        }
    }

    #[test]
    fn smoke_set_has_all_ten() {
        let names: Vec<String> = workload_set(Scale::Smoke, 3)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"gaussian".to_string()));
    }

    #[test]
    fn bars_are_clamped() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(0.5, 4), "##..");
    }

    #[test]
    fn sci_format() {
        assert_eq!(sci(3.7e15), "3.7e15");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(f64::INFINITY), "inf");
        assert_eq!(sci(1.0), "1.0e0");
    }

    #[test]
    fn renderers_cover_all_rows() {
        let study = fake_study();
        let f1 = render_avf_figure("Fig. 1", &study.fig1_rows());
        assert!(f1.contains("scan") && f1.contains("average"));
        let f3 = render_epf_figure(&study.fig3_rows());
        assert_eq!(f3.matches("scan").count(), 2);
        let csv = to_csv(&study);
        assert_eq!(csv.lines().count(), 3, "header + 2 points");
        let json = to_json(&study);
        assert_eq!(json.lines().count(), 4, "brackets + 2 points");
        assert!(json.contains("\"device\":\"Fermi\""), "{json}");
        assert_eq!(json, to_json(&study), "serialisation is deterministic");
        let md = render_experiments_markdown(&study, "test");
        assert!(md.contains("### Fig. 1"));
        assert!(md.contains("### Fig. 3"));
        assert!(md.contains("F3"));
    }

    #[test]
    fn json_escapes_control_characters_in_names() {
        let name = "user\nkernel\u{1}v2";
        let json = to_json(&StudyResult {
            points: vec![fake_point(name, "G80")],
        });
        // RFC 8259 forbids raw control characters inside strings: the
        // only line breaks left are the array's own, one per point.
        assert_eq!(json.lines().count(), 3, "{json:?}");
        assert!(!json.contains('\u{1}'), "{json:?}");
        let parsed = Json::parse(&json).expect("valid JSON");
        let point = &parsed.as_arr().expect("an array")[0];
        assert_eq!(point.get("workload").and_then(|w| w.as_str()), Some(name));
    }
}
