//! Quickstart: measure the register-file AVF of one benchmark on one GPU
//! with both methodologies of the paper.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpu_reliability_repro::archs::geforce_gtx_480;
use gpu_reliability_repro::reliability::campaign::{Campaign, CampaignConfig, Capture};
use gpu_reliability_repro::reliability::AceAnalyzer;
use gpu_reliability_repro::sim::{Gpu, Structure};
use gpu_reliability_repro::workloads::{VectorAdd, Workload};
use grel_telemetry::NoopHook;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arch = geforce_gtx_480();
    let workload = VectorAdd::new(8192, 42);

    // 1. Fault-free run under ACE analysis: one pass gives the ACE AVF
    //    bound and the occupancy of every storage structure.
    let mut gpu = Gpu::new(arch.clone());
    let mut ace = AceAnalyzer::new(&arch);
    let output = workload.run(&mut gpu, &mut ace)?;
    assert_eq!(output, workload.reference(), "fault-free run is bit-exact");
    let rf = ace.report(Structure::VectorRegisterFile);
    println!("device    : {}", arch.name);
    println!(
        "workload  : {} ({} cycles)",
        workload.name(),
        gpu.app_cycle()
    );
    println!(
        "ACE       : register file AVF = {:.1}%  (occupancy {:.1}%)",
        rf.avf_ace * 100.0,
        rf.occupancy * 100.0
    );

    // 2. Statistical fault injection: 200 single-bit flips, uniformly
    //    sampled over (SM, word, bit, cycle), each replayed and classified.
    let cfg = CampaignConfig::quick(42);
    let setup = Campaign::new(&arch, &workload, &cfg, Capture::campaign(&cfg), &NoopHook)?;
    let fi = setup.run(Structure::VectorRegisterFile, cfg, &NoopHook)?;
    println!(
        "FI        : register file AVF = {:.1}% +/- {:.1}%  ({} masked / {} SDC / {} DUE)",
        fi.avf() * 100.0,
        fi.margin_99 * 100.0,
        fi.tally.masked,
        fi.tally.sdc,
        fi.tally.due
    );
    println!(
        "finding F3: ACE {} FI by {:.1} percentage points",
        if rf.avf_ace >= fi.avf() {
            "overestimates"
        } else {
            "underestimates"
        },
        (rf.avf_ace - fi.avf()).abs() * 100.0
    );
    Ok(())
}
