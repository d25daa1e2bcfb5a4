//! End-to-end tests of the `repro` binary (smoke scale, few injections).

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_ok(args: &[&str]) -> String {
    let out = repro().args(args).output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro {:?} failed:\n{}\n{}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn stats_prints_paper_calibration() {
    let out = run_ok(&["stats"]);
    assert!(out.contains("2000 injections -> +/-2.88%"), "{out}");
    assert!(out.contains("paper uses 2000"));
}

#[test]
fn fig1_smoke_renders_all_devices() {
    let out = run_ok(&[
        "fig1",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "vectoradd",
    ]);
    assert!(out.contains("Fig. 1"));
    for dev in [
        "HD Radeon 7970",
        "Quadro FX 5600",
        "Quadro FX 5800",
        "GeForce GTX 480",
    ] {
        assert!(out.contains(dev), "missing {dev} in:\n{out}");
    }
    assert!(out.contains("average"));
}

#[test]
fn fig3_smoke_has_epf_bars() {
    let out = run_ok(&[
        "fig3",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "transpose",
        "--device",
        "fermi",
    ]);
    assert!(out.contains("Executions per Failure"));
    assert!(out.contains("transpose"));
}

#[test]
fn findings_smoke_prints_all_four() {
    let out = run_ok(&[
        "findings",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "histogram",
        "--device",
        "g80",
    ]);
    for f in ["F1", "F2", "F3", "F4"] {
        assert!(out.contains(f), "missing {f} in:\n{out}");
    }
}

#[test]
fn csv_and_experiments_files_are_written() {
    let dir = std::env::temp_dir().join("repro_cli_test");
    let _ = std::fs::create_dir_all(&dir);
    let csv = dir.join("s.csv");
    let md = dir.join("e.md");
    let _ = run_ok(&[
        "all",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "scan",
        "--device",
        "gt200",
        "--csv",
        csv.to_str().unwrap(),
        "--experiments",
        md.to_str().unwrap(),
    ]);
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("workload,device"));
    assert_eq!(csv_text.lines().count(), 2, "header + 1 point");
    let md_text = std::fs::read_to_string(&md).unwrap();
    assert!(md_text.contains("### Fig. 1"));
}

#[test]
fn unknown_arguments_fail_cleanly() {
    let listen = [
        "fig1",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "vectoradd",
        "--device",
        "g80",
        "--listen",
        "127.0.0.1:0",
    ];
    for args in [&["--bogus"][..], &listen] {
        let stderr = run_fail(args);
        assert!(stderr.contains("unknown argument"), "{stderr}");
        assert!(!stderr.contains("study completed"), "{stderr}");
    }
}

#[test]
fn unknown_workload_fails_cleanly() {
    let out = repro()
        .args(["fig1", "--workload", "nonesuch"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no workload matches"));
}

#[test]
fn help_lists_every_command() {
    let out = run_ok(&["--help"]);
    for cmd in [
        "fig1",
        "fig2",
        "fig3",
        "findings",
        "stats",
        "outcomes",
        "perf",
        "bits",
        "phases",
        "mbu",
        "protect",
        "ablate-sched",
        "ablate-rfsize",
        "ablate-ace",
        "report",
        "--metrics",
        "--progress",
        "-q",
        "--quiet",
        "-v",
        "--verbose",
        "-h",
        "--help",
    ] {
        assert!(out.contains(cmd), "help is missing {cmd}");
    }
}

#[test]
fn metrics_jsonl_and_report_end_to_end() {
    let dir = std::env::temp_dir().join("repro_cli_metrics");
    let _ = std::fs::create_dir_all(&dir);
    let jsonl = dir.join("m.jsonl");
    let _ = run_ok(&[
        "fig1",
        "--smoke",
        "--injections",
        "6",
        "--workload",
        "vectoradd",
        "--device",
        "480",
        "--metrics",
        jsonl.to_str().unwrap(),
        "--progress",
    ]);
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let obj = grel_telemetry::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        events.push(
            obj.get("event")
                .and_then(grel_telemetry::Json::as_str)
                .unwrap_or_else(|| panic!("line {} has no event field", i + 1))
                .to_string(),
        );
    }
    for expected in [
        "run.meta",
        "golden.done",
        "ladder.done",
        "campaign.done",
        "study.point",
        "log",
        "counter",
        "gauge",
        "histogram",
    ] {
        assert!(
            events.iter().any(|e| e == expected),
            "no {expected} event in:\n{text}"
        );
    }
    // Outcome tallies, rung hits and throughput must be present.
    assert!(
        text.contains("campaign_injections_total{outcome="),
        "{text}"
    );
    assert!(text.contains("campaign_rung_hits_total{rung="), "{text}");
    assert!(text.contains("campaign_injections_per_second"), "{text}");

    let report = run_ok(&["report", jsonl.to_str().unwrap()]);
    assert!(report.starts_with("# Run report"), "{report}");
    for section in ["## Outcomes", "## Throughput", "## Top time sinks"] {
        assert!(report.contains(section), "missing {section} in:\n{report}");
    }
}

#[test]
fn quiet_suppresses_status_but_sink_still_logs() {
    let dir = std::env::temp_dir().join("repro_cli_quiet");
    let _ = std::fs::create_dir_all(&dir);
    let jsonl = dir.join("q.jsonl");
    let out = repro()
        .args([
            "fig1",
            "--smoke",
            "--injections",
            "4",
            "--workload",
            "vectoradd",
            "--device",
            "480",
            "--quiet",
            "--metrics",
            jsonl.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("running study"),
        "--quiet leaked status: {stderr}"
    );
    // The sink receives every status line regardless of the level gate.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(
        text.contains("\"event\":\"log\"") && text.contains("running study"),
        "{text}"
    );
}

#[test]
fn telemetry_flags_leave_stdout_identical() {
    let args = [
        "fig1",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "transpose",
        "--device",
        "480",
    ];
    let plain = run_ok(&args);
    let dir = std::env::temp_dir().join("repro_cli_identical");
    let _ = std::fs::create_dir_all(&dir);
    let jsonl = dir.join("i.jsonl");
    let mut with_flags: Vec<&str> = args.to_vec();
    with_flags.extend(["--metrics", jsonl.to_str().unwrap(), "--progress"]);
    let instrumented = run_ok(&with_flags);
    assert_eq!(plain, instrumented, "telemetry changed figure output");
}

#[test]
fn report_on_missing_file_fails_cleanly() {
    let out = repro()
        .args(["report", "/nonexistent/metrics.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: reading"));
}

#[test]
fn report_on_invalid_file_fails_cleanly() {
    let dir = std::env::temp_dir().join("repro_cli_badreport");
    let _ = std::fs::create_dir_all(&dir);
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"event\":\"run.meta\"}\nnot json at all\n").unwrap();
    let out = repro()
        .args(["report", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn report_without_path_fails_cleanly() {
    let out = repro().arg("report").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("report needs"));
}

#[test]
fn short_jobs_spelling_matches_long_form() {
    let dir = std::env::temp_dir().join("repro_cli_jobs");
    let _ = std::fs::create_dir_all(&dir);
    let study = |jobs: &[&str], name: &str| {
        let path = dir.join(name);
        let mut args = vec![
            "fig1",
            "--smoke",
            "--injections",
            "6",
            "--workload",
            "transpose",
            "--json",
            path.to_str().unwrap(),
        ];
        args.extend_from_slice(jobs);
        let stdout = run_ok(&args);
        (stdout, std::fs::read(&path).unwrap())
    };
    let short = study(&["-j2"], "short.json");
    let long = study(&["--jobs", "2"], "long.json");
    let serial = study(&["-j1"], "serial.json");
    assert_eq!(short, long, "-j2 and --jobs 2 differ");
    assert_eq!(short, serial, "four points at two jobs differ from one job");

    for bad in ["-j0", "-jx", "-j"] {
        let out = repro().args(["fig1", bad]).output().unwrap();
        assert!(!out.status.success(), "{bad} was accepted");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("-j"),
            "{bad}: error does not name the flag"
        );
    }
}

#[test]
fn device_filter_matches_microarchitecture_name() {
    let out = run_ok(&[
        "fig1",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "vectoradd",
        "--device",
        "southern",
    ]);
    assert!(out.contains("HD Radeon 7970"), "{out}");
    assert!(!out.contains("GTX 480"), "{out}");
}

#[test]
fn trace_rejects_a_site_off_the_device() {
    // The GTX 480 has 15 SMs: sm 16 is no site, not an alias of sm 1.
    let out = repro()
        .args([
            "trace",
            "--site",
            "16:rf:40:30:100",
            "--smoke",
            "--workload",
            "reduction",
            "--device",
            "480",
        ])
        .output()
        .unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
    assert!(stderr.contains("sm 16 out of range"), "{stderr}");
    assert!(stderr.contains("15 SMs (0..15)"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stdout.contains("outcome:"), "{stdout}");
}

/// Runs `repro` with `args`, asserts it exits 1 without a panic, and
/// returns its stderr.
fn run_fail(args: &[&str]) -> String {
    let out = repro().args(args).output().expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "repro {args:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}:\n{stderr}");
    stderr
}

#[test]
fn trace_without_site_fails_cleanly() {
    let stderr = run_fail(&[
        "trace",
        "--smoke",
        "--workload",
        "reduction",
        "--device",
        "480",
    ]);
    assert!(
        stderr.starts_with(
            "trace needs --site sm:struct:word:bit:cycle[:kind] (struct: rf, lds or srf)\n"
        ),
        "{stderr}"
    );
}

#[test]
fn drift_on_missing_baseline_fails_cleanly() {
    let stderr = run_fail(&[
        "drift",
        "/nonexistent/baseline.json",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "vectoradd",
        "--device",
        "g80",
    ]);
    assert!(
        stderr.starts_with("reading baseline /nonexistent/baseline.json: "),
        "{stderr}"
    );
}

#[test]
fn metrics_in_missing_directory_fails_cleanly() {
    let stderr = run_fail(&[
        "fig1",
        "--smoke",
        "--injections",
        "4",
        "--workload",
        "vectoradd",
        "--device",
        "g80",
        "--metrics",
        "/nonexistent/dir/m.jsonl",
    ]);
    assert!(
        stderr.starts_with("error: cannot open metrics file /nonexistent/dir/m.jsonl: "),
        "{stderr}"
    );
}

/// The drift run of the filtered-drift cases: one smoke point (scan on
/// the G80) against the committed baseline, plus `extra` flags.
fn filtered_drift(extra: &[&str]) -> std::process::Output {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/fault-model-baseline.json"
    );
    let mut args = vec![
        "drift",
        baseline,
        "--smoke",
        "--injections",
        "40",
        "--seed",
        "7",
        "--workload",
        "scan",
        "--device",
        "g80",
    ];
    args.extend_from_slice(extra);
    repro().args(&args).output().expect("repro runs")
}

#[test]
fn filtered_drift_compares_only_the_selected_points() {
    let out = filtered_drift(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 points compared, 0 drifting"), "{stdout}");
    assert!(!stdout.contains("missing"), "{stdout}");
}

#[test]
fn drift_writes_the_study_telemetry() {
    let dir = std::env::temp_dir().join("repro_cli_drift_metrics");
    let _ = std::fs::create_dir_all(&dir);
    let jsonl = dir.join("m.jsonl");
    let out = filtered_drift(&["--metrics", jsonl.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let text = std::fs::read_to_string(&jsonl).unwrap();
    for event in ["run.meta", "study.point", "counter"] {
        assert!(
            text.contains(&format!("\"event\":\"{event}\"")),
            "no {event} event in:\n{text}"
        );
    }
}

/// A reader that stops early (`repro … | head`) closes stdout while
/// rows are still to come: the command ends quietly, with exit 0 and no
/// panic or `error:` line.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = repro()
        .args([
            "protect",
            "--smoke",
            "--injections",
            "10",
            "-j1",
            "--device",
            "fx",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    let mut title = String::new();
    // The reader is dropped at the end of this statement, closing stdout.
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut title)
        .expect("repro prints a title");
    assert!(title.starts_with("== Extension: EPF"), "{title}");
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("error:"), "{stderr}");
}

/// A reader that closes stderr (`repro … -v 2>&1 | head -1` once `head`
/// exits) drops the status lines and the progress meter: the command
/// still prints its whole table to stdout and exits 0.
#[test]
fn closed_stderr_drops_status_lines() {
    let args = [
        "fig1",
        "--smoke",
        "--injections",
        "10",
        "--device",
        "fx",
        "-v",
        "--progress",
    ];
    let table = run_ok(&args);
    let (reader, writer) = std::io::pipe().expect("pipe");
    // With no reader left, every write to the child's stderr fails.
    drop(reader);
    let out = repro()
        .args(args)
        .stderr(writer)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stdout), table);
}

/// A failed command whose stderr is closed still exits 1: the error
/// line is dropped, not a panic (exit 101). Covers both of `main`'s
/// direct error writes: a bad flag, and a command failing before the
/// logger exists.
#[test]
fn closed_stderr_keeps_the_failure_exit() {
    for args in [
        &["fig1", "--bogus"][..],
        &["report", "/nonexistent/metrics.jsonl"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = repro()
            .args(args)
            .stderr(writer)
            .output()
            .expect("repro runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {:?}", out.status);
    }
}

/// A stdout write that fails for any reason but a closed reader (a full
/// disk: `/dev/full` refuses every write with `ENOSPC`) fails the
/// command through `main`'s one error path: one `error:` line naming
/// the write error and exit 1, not a panic and backtrace (exit 101).
/// Skipped where the system has no `/dev/full`.
#[test]
fn stdout_write_error_fails_the_command_in_one_line() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let out = repro()
        .args([
            "fig1",
            "--device",
            "480",
            "--workload",
            "vectoradd",
            "--injections",
            "20",
        ])
        .stdout(full)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{:?}\n{stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].starts_with("error: failed printing to stdout: "),
        "{stderr}"
    );
}

#[test]
fn control_study_injects_the_lds_of_no_point() {
    let dir = std::env::temp_dir().join("repro_cli_control");
    let _ = std::fs::create_dir_all(&dir);
    let json = dir.join("control.json");
    let _ = run_ok(&[
        "fig1",
        "--device",
        "480",
        "--workload",
        "reduction",
        "--fault-model",
        "control",
        "--injections",
        "200",
        "--json",
        json.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&json).unwrap();
    let doc = grel_telemetry::Json::parse(&text).expect("--json output parses");
    let points = doc.as_arr().expect("an array of points");
    assert_eq!(points.len(), 1, "{text}");
    let field = |key: &str| {
        points[0]
            .get(key)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("no number {key} in {text}"))
    };
    // The register-file campaign is the control campaign, unchanged.
    for (key, value) in [
        ("rf_avf_fi", 0.22_f64),
        ("rf_avf_sdc", 0.0),
        ("rf_avf_ace", 0.12576291666666667),
        ("rf_occ", 0.1612825),
        ("rf_margin99", 0.09107532195155212),
    ] {
        assert_eq!(field(key).to_bits(), value.to_bits(), "{key} in {text}");
    }
    // The LDS reads as for a workload whose LDS is not injected: no FI
    // AVF, and the FIT from the ACE AVF.
    assert_eq!(field("lds_avf_fi"), 0.0, "{text}");
    let arch = gpu_archs::geforce_gtx_480();
    let fit = grel_core::epf::structure_fit(
        &arch,
        simt_sim::Structure::LocalMemory,
        field("lds_avf_ace"),
    );
    assert_eq!(field("fit_lds").to_bits(), fit.to_bits(), "{text}");
}

#[test]
fn outcomes_print_dashes_for_a_structure_without_a_campaign() {
    let out = run_ok(&[
        "outcomes",
        "--smoke",
        "--injections",
        "20",
        "--workload",
        "vectoradd",
        "--device",
        "5600",
    ]);
    let row = out
        .lines()
        .find(|l| l.starts_with("vectoradd"))
        .unwrap_or_else(|| panic!("no vectoradd row in\n{out}"));
    let (rf, lds) = row
        .split_once("LDS |")
        .and_then(|(_, cells)| cells.split_once('|'))
        .unwrap_or_else(|| panic!("no RF | LDS cells in {row}"));
    let rf: Vec<u64> = rf.split_whitespace().map(|c| c.parse().unwrap()).collect();
    assert_eq!(rf.iter().sum::<u64>(), 20, "the RF campaign counts: {row}");
    // vectoradd uses no LDS, so its LDS got no campaign.
    assert_eq!(
        lds.split_whitespace().collect::<Vec<_>>(),
        ["-"; 4],
        "{row}"
    );
}
