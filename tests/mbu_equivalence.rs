//! Multi-bit-upset campaigns replay through the same runner as the
//! single-bit ones, so they inherit its contracts: the tally is a pure
//! function of `(arch, workload, structure, width, cfg)`, identical at
//! any job count and with checkpoint resume on or off. A pinned tally
//! guards the site stream itself (seed, draw order, group layout).

use gpu_archs::geforce_gtx_480;
use gpu_workloads::{Reduction, Transpose, VectorAdd, Workload};
use grel_core::breakdown::mbu_campaign;
use grel_core::campaign::{CampaignConfig, Tally};
use simt_sim::{ArchConfig, Structure};

fn cfg(injections: u32, threads: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        threads,
        ..CampaignConfig::quick(2017)
    }
}

fn mbu(arch: &ArchConfig, w: &dyn Workload, width: u8, cfg: CampaignConfig) -> Tally {
    mbu_campaign(arch, w, Structure::VectorRegisterFile, width, cfg).unwrap()
}

#[test]
fn mbu_tally_is_job_count_and_checkpoint_invariant() {
    let arch = geforce_gtx_480();
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(Transpose::new(32, 3)),
        Box::new(Reduction::new(256, 32, 3)),
    ];
    for w in &workloads {
        for width in [1u8, 2, 4] {
            let label = format!("{} width {width}", w.name());
            let serial = mbu(&arch, w.as_ref(), width, cfg(24, 1));
            assert_eq!(serial.total(), 24, "{label}");
            let parallel = mbu(&arch, w.as_ref(), width, cfg(24, 3));
            assert_eq!(serial, parallel, "{label}: jobs 1 vs jobs 3");
            // A one-byte budget holds no snapshot: every group replays
            // from cycle zero on an empty ladder.
            let mut from_zero = cfg(24, 3);
            from_zero.checkpoint_budget_bytes = 1;
            let from_zero = mbu(&arch, w.as_ref(), width, from_zero);
            assert_eq!(serial, from_zero, "{label}: checkpointed vs from zero");
        }
    }
}

#[test]
fn mbu_tallies_match_the_pinned_site_stream() {
    // The small test device is saturated by the workload, so the sampled
    // register-file words are often live: SDCs and DUEs both show up,
    // and their split moves with the width.
    let arch = ArchConfig::small_test_gpu();
    let w = VectorAdd::new(256, 1);
    let got: Vec<Tally> = [1u8, 2, 4]
        .into_iter()
        .map(|width| mbu(&arch, &w, width, cfg(40, 2)))
        .collect();
    let tally = |masked, sdc, due, hang| Tally {
        masked,
        sdc,
        due,
        hang,
    };
    let pinned = vec![tally(37, 1, 2, 0), tally(37, 2, 1, 0), tally(37, 1, 2, 0)];
    assert_eq!(got, pinned, "MBU tallies moved");
}
