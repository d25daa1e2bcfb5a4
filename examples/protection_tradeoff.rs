//! Protection trade-off study: the decision the paper designed EPF for.
//!
//! "The EPF metric is useful to the architects who can quantify the
//! effectiveness of a hardware based error protection technique, which
//! can be applied to their designs (if needed) along with a performance
//! cost." — this example measures one workload on one device, then
//! projects FIT, the SDC share and EPF under parity and SECDED
//! protection of the studied storage structures.
//!
//! ```text
//! cargo run --release --example protection_tradeoff [injections]
//! ```

use gpu_reliability_repro::archs::quadro_fx_5800;
use gpu_reliability_repro::reliability::campaign::CampaignConfig;
use gpu_reliability_repro::reliability::protection::protection_sweep;
use gpu_reliability_repro::reliability::study::{evaluate_point_hooked, StudyConfig};
use gpu_reliability_repro::workloads::MatrixMul;
use grel_telemetry::NoopHook;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let injections: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(100);
    let seed = 2017;
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

    let arch = quadro_fx_5800();
    let workload = MatrixMul::new(64, seed);
    println!(
        "measuring matrixMul on {} ({injections} injections/structure)...",
        arch.name
    );
    let p = evaluate_point_hooked(&arch, &workload, &cfg, &NoopHook)?;
    println!(
        "baseline: RF AVF {:.1}% (SDC {:.1}% / DUE {:.1}%), FIT_GPU {:.1}, EPF {:.2e}\n",
        p.rf.avf_fi * 100.0,
        p.rf.avf_sdc * 100.0,
        (p.rf.avf_fi - p.rf.avf_sdc) * 100.0,
        p.fit.total(),
        p.epf
    );

    let sdc_share = if p.rf.avf_fi > 0.0 {
        p.rf.avf_sdc / p.rf.avf_fi
    } else {
        0.0
    };
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10}",
        "scheme", "FIT_GPU", "EIT", "EPF", "SDC share"
    );
    for proj in protection_sweep(&p.fit, p.eit, sdc_share) {
        println!(
            "{:<8} {:>10.2} {:>12.2e} {:>12.2e} {:>9.1}%",
            proj.scheme.to_string(),
            proj.fit_gpu,
            proj.eit,
            proj.epf,
            proj.sdc_share * 100.0
        );
    }
    println!(
        "\nparity trades nothing in FIT but converts every silent corruption into a\n\
         detected error; SECDED buys an order of magnitude in EPF for a ~6% slowdown."
    );
    Ok(())
}
