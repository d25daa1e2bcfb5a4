//! No-panic properties of the three text readers over byte-mutated
//! valid input: the MASS assembly parser, the JSON reader and the
//! `repro report` JSONL renderer. Each case applies a few truncations,
//! byte flips and spliced lines to a valid text; the reader must return
//! its result or its error, never panic.

use gpu_archs::geforce_gtx_480;
use gpu_workloads::all_workloads;
use grel_bench::report::render_run_report;
use grel_telemetry::Json;
use proptest::prelude::*;
use simt_isa::{parse_kernel, LoweredKernel};
use simt_sim::{Gpu, PlanStep};
use std::panic::{catch_unwind, UnwindSafe};
use std::sync::OnceLock;

/// `repro fig1 --smoke --injections 20 --workload transpose --device g80
/// --convergence 10 --metrics P`: every event kind a study writes.
const METRICS: &str = include_str!("data/fig1-smoke-metrics.jsonl");

/// One edit: kind, two positions and a byte.
type Edit = (u8, usize, usize, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>(), any::<u8>()), 1..6)
}

/// Applies `edits` to `seed` in order. Kind 0 truncates, kind 1 flips
/// bits of one byte, kind 2 copies one line to another position. Bytes
/// that are no longer UTF-8 read as U+FFFD.
fn mutate(seed: &str, edits: &[Edit]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, at, to, byte) in edits {
        match kind {
            0 => bytes.truncate(at % (bytes.len() + 1)),
            1 => {
                let n = bytes.len().max(1);
                if let Some(b) = bytes.get_mut(at % n) {
                    *b ^= byte.max(1);
                }
            }
            _ => {
                let mut lines: Vec<Vec<u8>> = bytes
                    .split_inclusive(|&b| b == b'\n')
                    .map(<[u8]>::to_vec)
                    .collect();
                if let Some(line) = lines.get(at % lines.len().max(1)).cloned() {
                    lines.insert(to % (lines.len() + 1), line);
                    bytes = lines.concat();
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `read` and fails the case, naming the input, if it panics.
fn no_panic(input: &str, read: impl FnOnce() + UnwindSafe) {
    assert!(catch_unwind(read).is_ok(), "reader panicked on {input:?}");
}

/// MASS text of a lowered kernel, in the form `parse_kernel` reads.
fn mass(k: &LoweredKernel) -> String {
    let mut text = format!(
        ".kernel {}\n.params {}\n.shared {}\n",
        k.name(),
        k.num_params(),
        k.shared_bytes()
    );
    for ins in k.body() {
        text += &format!("    {ins}\n");
    }
    text
}

/// The first kernel of every shipped workload, lowered for the GTX 480.
fn shipped_kernels() -> &'static [String] {
    static KERNELS: OnceLock<Vec<String>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        all_workloads(1)
            .iter()
            .map(|w| {
                let mut gpu = Gpu::new(geforce_gtx_480());
                match w.plan().next(&mut gpu).expect("first plan step") {
                    PlanStep::Launch { kernel, .. } => mass(&kernel),
                    PlanStep::Done(_) => panic!("{} launches no kernel", w.name()),
                }
            })
            .collect()
    })
}

#[test]
fn the_seeds_are_valid_input() {
    for text in shipped_kernels() {
        parse_kernel(text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    }
    for line in METRICS.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    render_run_report(METRICS).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mass_parser_never_panics(kernel in 0usize..10, edits in edits()) {
        let text = mutate(&shipped_kernels()[kernel], &edits);
        no_panic(&text, || {
            let _ = parse_kernel(&text);
        });
    }

    #[test]
    fn json_reader_never_panics(edits in edits()) {
        let text = mutate(METRICS, &edits);
        no_panic(&text, || {
            for line in text.lines() {
                let _ = Json::parse(line);
            }
            let _ = Json::parse(&text);
        });
    }

    #[test]
    fn run_report_never_panics(edits in edits()) {
        let text = mutate(METRICS, &edits);
        no_panic(&text, || {
            let _ = render_run_report(&text);
        });
    }
}
