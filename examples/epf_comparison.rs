//! EPF comparison (Fig. 3): which GPU completes the most executions
//! between failures?
//!
//! AVF alone would rank devices by vulnerability; EPF folds in structure
//! sizes, raw FIT, clock frequency and runtime — and can invert the
//! ranking, which is exactly why the paper introduces it.
//!
//! ```text
//! cargo run --release --example epf_comparison [injections]
//! ```

use gpu_reliability_repro::archs::all_devices;
use gpu_reliability_repro::reliability::campaign::CampaignConfig;
use gpu_reliability_repro::reliability::study::{evaluate_point_hooked, StudyConfig};
use gpu_reliability_repro::workloads::{MatrixMul, Reduction, Workload};
use grel_telemetry::NoopHook;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let injections: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(100);
    let seed = 7;
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

    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(MatrixMul::new(64, seed)),
        Box::new(Reduction::new(8192, 256, seed)),
    ];
    for w in &workloads {
        println!("== {} ==", w.name());
        println!(
            "{:<16} {:>8} {:>9} {:>10} {:>10} {:>10}",
            "device", "cycles", "RF AVF", "FIT_GPU", "EIT", "EPF"
        );
        let mut best: Option<(String, f64)> = None;
        for arch in all_devices() {
            let p = evaluate_point_hooked(&arch, w.as_ref(), &cfg, &NoopHook)?;
            println!(
                "{:<16} {:>8} {:>8.1}% {:>10.2} {:>10.2e} {:>10.2e}",
                p.device,
                p.cycles,
                p.rf.avf_fi * 100.0,
                p.fit.total(),
                p.eit,
                p.epf
            );
            if best.as_ref().map(|(_, e)| p.epf > *e).unwrap_or(true) && p.epf.is_finite() {
                best = Some((p.device.clone(), p.epf));
            }
        }
        if let Some((dev, e)) = best {
            println!("-> most executions between failures: {dev} ({e:.2e})\n");
        }
    }
    Ok(())
}
