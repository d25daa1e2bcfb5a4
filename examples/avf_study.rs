//! Cross-architecture AVF study: one benchmark on all four GPUs of the
//! paper, reproducing one bar group of Fig. 1 and Fig. 2 — including the
//! FI-vs-ACE gap and the occupancy correlation.
//!
//! ```text
//! cargo run --release --example avf_study [workload] [injections]
//! ```
//!
//! Defaults: `transpose`, 200 injections per structure.

use gpu_reliability_repro::archs::all_devices;
use gpu_reliability_repro::reliability::campaign::CampaignConfig;
use gpu_reliability_repro::reliability::study::{evaluate_point_hooked, StudyConfig};
use gpu_reliability_repro::workloads::workload_by_name;
use grel_telemetry::NoopHook;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "transpose".into());
    let injections: u32 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(200);
    let seed = 2017;
    let workload = workload_by_name(&name, seed)
        .ok_or_else(|| format!("unknown workload '{name}' (paper spelling, e.g. matrixMul)"))?;

    let cfg = StudyConfig {
        campaign: CampaignConfig {
            injections,
            threads: std::thread::available_parallelism()?.get(),
            ..CampaignConfig::quick(seed)
        },
        workload_seed: seed,
        fi_on_unused_lds: false,
        provenance: false,
        ace_mode: Default::default(),
        sampling: Default::default(),
    };

    println!(
        "AVF of '{}' across the four GPUs ({injections} injections/structure)\n",
        workload.name()
    );
    println!(
        "{:<16} {:>8} | {:>7} {:>8} {:>7} | {:>7} {:>8} {:>7}",
        "", "", "RF", "", "", "LDS", "", ""
    );
    println!(
        "{:<16} {:>8} | {:>7} {:>8} {:>7} | {:>7} {:>8} {:>7}",
        "device", "cycles", "AVF-FI", "AVF-ACE", "occup", "AVF-FI", "AVF-ACE", "occup"
    );
    for arch in all_devices() {
        let p = evaluate_point_hooked(&arch, workload.as_ref(), &cfg, &NoopHook)?;
        println!(
            "{:<16} {:>8} | {:>6.1}% {:>7.1}% {:>6.1}% | {:>6.1}% {:>7.1}% {:>6.1}%",
            p.device,
            p.cycles,
            p.rf.avf_fi * 100.0,
            p.rf.avf_ace * 100.0,
            p.rf.occupancy * 100.0,
            p.lds.avf_fi * 100.0,
            p.lds.avf_ace * 100.0,
            p.lds.occupancy * 100.0,
        );
    }
    println!(
        "\nRead it like the paper: FI and ACE bars per device, occupancy as the red line; \
         the same application lands at very different AVFs on different microarchitectures (F1)."
    );
    Ok(())
}
