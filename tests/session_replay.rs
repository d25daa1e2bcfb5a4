//! Execution-session equivalence and checkpointed-replay correctness,
//! end to end: the incremental session driver must be indistinguishable
//! from a single-shot run, and replaying from checkpoints must never
//! change a campaign outcome.

use gpu_reliability_repro::archs::{
    all_devices, geforce_gtx_480, hd_radeon_7970, quadro_fx_5600, quadro_fx_5800,
};
use gpu_reliability_repro::reliability::campaign::{
    golden_run, run_injections_checkpointed, sample_model_sites, Campaign, CampaignConfig, Capture,
    CheckpointLadder, Outcome,
};
use gpu_reliability_repro::sim::{
    ArchConfig, Checkpoint, Due, FaultModelKind, FaultSite, Gpu, NoopObserver, Session, SimError,
    Structure,
};
use gpu_reliability_repro::workloads::{
    Backprop, DwtHaar1D, Gaussian, Histogram, Kmeans, MatrixMul, Reduction, Scan, Transpose,
    VectorAdd, Workload,
};
use grel_telemetry::NoopHook;
use proptest::prelude::*;

/// Every benchmark at an integration-test-friendly size.
fn all_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(VectorAdd::new(256, seed)),
        Box::new(Transpose::new(32, seed)),
        Box::new(MatrixMul::new(16, seed)),
        Box::new(Histogram::new(512, 64, seed)),
        Box::new(Reduction::new(256, 64, seed)),
        Box::new(Scan::new(256, 64, seed)),
        Box::new(DwtHaar1D::new(64, seed)),
        Box::new(Gaussian::new(8, seed)),
        Box::new(Kmeans::new(128, 4, 2, seed)),
        Box::new(Backprop::new(32, seed)),
    ]
}

/// Drives a plan in `stride`-cycle slices instead of one shot.
fn run_incremental(arch: &ArchConfig, w: &dyn Workload, stride: u64) -> (Vec<u32>, u64) {
    let mut gpu = Gpu::new(arch.clone());
    let mut session = Session::new(&mut gpu, w.plan());
    let mut mark = stride;
    while !session.finished() {
        session
            .run_until_cycle(mark, &mut NoopObserver)
            .expect("fault-free slice");
        mark += stride;
    }
    let out = session.outputs().expect("finished").to_vec();
    (out, gpu.app_cycle())
}

#[test]
fn incremental_session_matches_single_shot_on_every_device() {
    for arch in all_devices() {
        for w in all_workloads(11) {
            let mut gpu = Gpu::new(arch.clone());
            let one_shot = w.run(&mut gpu, &mut NoopObserver).unwrap();
            let cycles = gpu.app_cycle();
            // An awkward prime stride maximises mid-kernel boundaries.
            let (sliced, sliced_cycles) = run_incremental(&arch, w.as_ref(), 37);
            assert_eq!(
                one_shot,
                sliced,
                "{} on {}: outputs differ",
                w.name(),
                arch.name
            );
            assert_eq!(
                cycles,
                sliced_cycles,
                "{} on {}: cycles differ",
                w.name(),
                arch.name
            );
            assert_eq!(
                one_shot,
                w.reference(),
                "{} on {}: wrong result",
                w.name(),
                arch.name
            );
        }
    }
}

fn cfg(n: u32) -> CampaignConfig {
    CampaignConfig {
        injections: n,
        threads: 2,
        ..CampaignConfig::quick(77)
    }
}

/// From-zero and checkpointed replay of the identical site list must
/// produce the identical outcome sequence. The from-zero side replays
/// each site on a fresh device from the plan's first step
/// ([`replay_site`] without a checkpoint), not through a campaign,
/// whose replays all resume from a checkpoint.
fn assert_replay_equivalence(arch: &ArchConfig, w: &dyn Workload, structure: Structure) {
    let c = cfg(10);
    let golden = golden_run(arch, w).unwrap();
    let sites = sample_model_sites(
        arch,
        structure,
        FaultModelKind::Transient,
        golden.cycles,
        c.injections,
        c.seed,
    );
    let ladder = CheckpointLadder::build(arch, w, &golden, &c).unwrap();
    assert!(
        !ladder.is_empty(),
        "auto ladder must have rungs for {}",
        w.name()
    );
    let watchdog = golden.cycles.saturating_mul(c.watchdog_factor) + 10_000;
    let mut gpu = Gpu::new(arch.clone());
    let from_zero: Vec<Outcome> = sites
        .iter()
        .map(
            |&site| match replay_site(&mut gpu, w, None, site, watchdog) {
                Ok(out) if out == golden.outputs => Outcome::Masked,
                Ok(_) => Outcome::Sdc,
                Err(SimError::Due(Due::WatchdogTimeout { .. })) => Outcome::Hang,
                Err(SimError::Due(_)) => Outcome::Due,
                Err(e) => panic!("from-zero replay of {site} failed: {e}"),
            },
        )
        .collect();
    let from_ckpt = run_injections_checkpointed(arch, w, &golden, &ladder, &sites, c).unwrap();
    assert_eq!(
        from_zero,
        from_ckpt,
        "{structure} on {} / {}: checkpointed outcomes diverged",
        arch.name,
        w.name()
    );
}

#[test]
fn checkpointed_rf_campaign_matches_from_zero_on_two_devices() {
    for arch in [quadro_fx_5600(), geforce_gtx_480()] {
        assert_replay_equivalence(
            &arch,
            &Histogram::new(512, 64, 5),
            Structure::VectorRegisterFile,
        );
        assert_replay_equivalence(
            &arch,
            &Kmeans::new(128, 4, 2, 5),
            Structure::VectorRegisterFile,
        );
    }
}

#[test]
fn checkpointed_lds_campaign_matches_from_zero_on_two_devices() {
    for arch in [quadro_fx_5600(), hd_radeon_7970()] {
        assert_replay_equivalence(&arch, &Histogram::new(512, 64, 5), Structure::LocalMemory);
        assert_replay_equivalence(&arch, &Scan::new(256, 64, 5), Structure::LocalMemory);
    }
}

#[test]
fn checkpointed_srf_campaign_matches_from_zero_on_si() {
    // Only Southern Islands has a scalar register file.
    assert_replay_equivalence(
        &hd_radeon_7970(),
        &MatrixMul::new(16, 5),
        Structure::ScalarRegisterFile,
    );
}

/// Every storage word of a device: the RF, LDS and SRF of each SM in
/// turn, then global memory.
fn storage_words(gpu: &Gpu) -> Vec<u32> {
    let mut words = Vec::new();
    for sm in 0..gpu.arch().num_sms {
        for structure in Structure::ALL {
            words.extend(gpu.storage(sm, structure).iter());
        }
    }
    words.extend(gpu.global_words().iter());
    words
}

/// A 64-bit FNV-1a digest of [`storage_words`].
fn fingerprint(gpu: &Gpu) -> u64 {
    storage_words(gpu)
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Replays `site` on `gpu`: resumed from `from`, or from cycle zero on
/// a fresh device.
fn replay_site(
    gpu: &mut Gpu,
    w: &dyn Workload,
    from: Option<&Checkpoint>,
    site: FaultSite,
    watchdog: u64,
) -> Result<Vec<u32>, SimError> {
    let mut session = match from {
        Some(ck) => Session::resume(gpu, ck),
        None => {
            *gpu = Gpu::new(gpu.arch().clone());
            Session::new(gpu, w.plan())
        }
    };
    session.set_watchdog(watchdog);
    session.arm_fault(site).unwrap();
    session
        .run_to_completion(&mut NoopObserver)
        .map(<[u32]>::to_vec)
}

/// Copy-on-write storage never aliases: a worker device that replays
/// one site from rung `j` and then another from rung `k` ends the second
/// replay exactly where a from-zero replay of that site ends (outputs,
/// clock, execution counters and every storage word), and no replay
/// changes a word of any rung.
fn assert_pages_never_alias(arch: &ArchConfig, w: &dyn Workload, structure: Structure, seed: u64) {
    let c = cfg(64);
    let golden = golden_run(arch, w).unwrap();
    let ladder = CheckpointLadder::build(arch, w, &golden, &c).unwrap();
    let label = format!("{structure} on {} / {} (seed {seed})", arch.name, w.name());
    let before: Vec<u64> = ladder
        .rungs()
        .iter()
        .map(|ck| fingerprint(ck.gpu()))
        .collect();
    // Two sites past the first rung, resumed from different rungs where
    // the ladder allows it.
    let sites = sample_model_sites(
        arch,
        structure,
        FaultModelKind::Transient,
        golden.cycles,
        c.injections,
        seed,
    );
    let mut resumable = sites
        .iter()
        .filter_map(|&s| ladder.nearest_indexed(s.cycle).0.map(|i| (i, s)));
    let (j, first) = resumable.next().expect("a site past the first rung");
    let (k, second) = resumable
        .clone()
        .find(|&(k, _)| k != j)
        .or_else(|| resumable.next())
        .expect("a second site past the first rung");
    let watchdog = golden.cycles.saturating_mul(c.watchdog_factor) + 10_000;

    let mut worker = Gpu::new(arch.clone());
    let _ = replay_site(&mut worker, w, Some(&ladder.rungs()[j]), first, watchdog);
    let resumed = replay_site(&mut worker, w, Some(&ladder.rungs()[k]), second, watchdog);
    let mut fresh = Gpu::new(arch.clone());
    let from_zero = replay_site(&mut fresh, w, None, second, watchdog);

    assert_eq!(resumed, from_zero, "{label}: outputs of {second}");
    assert_eq!(worker.app_cycle(), fresh.app_cycle(), "{label}: app_cycle");
    assert_eq!(
        worker.exec_totals(),
        fresh.exec_totals(),
        "{label}: exec_totals"
    );
    assert!(
        storage_words(&worker) == storage_words(&fresh),
        "{label}: storage words differ after {second} from rung {k}"
    );
    let after: Vec<u64> = ladder
        .rungs()
        .iter()
        .map(|ck| fingerprint(ck.gpu()))
        .collect();
    assert_eq!(before, after, "{label}: a replay wrote into a rung");
}

#[test]
fn copy_on_write_replays_never_alias_a_rung_or_each_other() {
    let cases: [(ArchConfig, Box<dyn Workload>, Structure); 5] = [
        (
            hd_radeon_7970(),
            Box::new(VectorAdd::new(256, 3)),
            Structure::VectorRegisterFile,
        ),
        (
            hd_radeon_7970(),
            Box::new(MatrixMul::new(16, 3)),
            Structure::ScalarRegisterFile,
        ),
        (
            geforce_gtx_480(),
            Box::new(Histogram::new(512, 64, 3)),
            Structure::LocalMemory,
        ),
        (
            quadro_fx_5600(),
            Box::new(Kmeans::new(128, 4, 2, 3)),
            Structure::VectorRegisterFile,
        ),
        (
            quadro_fx_5800(),
            Box::new(Transpose::new(32, 3)),
            Structure::LocalMemory,
        ),
    ];
    for (seed, (arch, w, structure)) in cases.iter().enumerate() {
        assert_pages_never_alias(arch, w.as_ref(), *structure, 40 + seed as u64);
    }
}

/// The rung cycles of a ladder.
fn rung_cycles(ladder: &CheckpointLadder) -> Vec<u64> {
    ladder.rungs().iter().map(Checkpoint::cycle).collect()
}

/// Every rung holds the storage words of the fault-free run at its
/// cycle, checked against a second run that takes no snapshot: a page a
/// rung shared with the run that laid it was never written after the
/// rung was taken.
fn assert_rungs_hold_the_run(arch: &ArchConfig, w: &dyn Workload, ladder: &CheckpointLadder) {
    let mut gpu = Gpu::new(arch.clone());
    let mut session = Session::new(&mut gpu, w.plan());
    for ck in ladder.rungs() {
        session
            .run_until_cycle(ck.cycle(), &mut NoopObserver)
            .unwrap();
        assert!(
            storage_words(ck.gpu()) == storage_words(session.gpu()),
            "{} / {}: the rung at cycle {} changed after it was taken",
            arch.name,
            w.name(),
            ck.cycle()
        );
    }
}

/// The ladder [`Campaign::new`] lays inside its golden pass is the one
/// [`CheckpointLadder::build`] lays on its own: the same rung cycles,
/// sizes and storage words, under the auto grid, a fixed interval and a
/// one-byte budget. Covers a single launch (HD 7970 vectoradd), several
/// launches with host steps between them (FX 5600 kmeans) and an LDS
/// kernel (GTX 480 matrixMul), at smoke size: kmeans ends in
/// (15, 16] times its auto spacing and matrixMul in (8, 8.5], so
/// thinning at 15 or at 17 rungs instead of 16 moves their grids.
#[test]
fn the_golden_pass_lays_the_standalone_ladder() {
    let cases: [(ArchConfig, Box<dyn Workload>); 3] = [
        (hd_radeon_7970(), Box::new(VectorAdd::new(1024, 7))),
        (quadro_fx_5600(), Box::new(Kmeans::new(256, 4, 2, 7))),
        (geforce_gtx_480(), Box::new(MatrixMul::new(32, 7))),
    ];
    for (arch, w) in &cases {
        let w = w.as_ref();
        for (interval, budget) in [(0, 0), (97, 0), (0, 1)] {
            let c = CampaignConfig {
                checkpoint_interval: interval,
                checkpoint_budget_bytes: budget,
                ..cfg(8)
            };
            let label = format!(
                "{} / {} (interval {interval}, budget {budget})",
                arch.name,
                w.name()
            );
            let setup = Campaign::new(arch, w, &c, Capture::campaign(&c), &NoopHook).unwrap();
            let (laid, cycles) = (setup.ladder(), setup.golden().cycles);
            let built = CheckpointLadder::build(arch, w, setup.golden(), &c).unwrap();
            assert_eq!(rung_cycles(laid), rung_cycles(&built), "{label}");
            for (a, b) in laid.rungs().iter().zip(built.rungs()) {
                assert_eq!(a.size_bytes(), b.size_bytes(), "{label}");
                assert!(storage_words(a.gpu()) == storage_words(b.gpu()), "{label}");
            }
            let rungs = rung_cycles(laid);
            match (interval, budget) {
                (_, 1) => assert!(rungs.is_empty(), "{label}: a one-byte budget holds no rung"),
                (0, _) => {
                    // Rungs at every multiple of a power-of-two spacing
                    // below the end, spaced in [C/16, C/8).
                    let s = rungs[0];
                    assert!(
                        s.is_power_of_two() && rungs.len() <= 15,
                        "{label}: {rungs:?}"
                    );
                    assert!(
                        16 * s >= cycles && 8 * s < cycles,
                        "{label}: {s} of {cycles}"
                    );
                    let grid: Vec<u64> = (1..).map(|k| k * s).take_while(|&m| m < cycles).collect();
                    assert_eq!(rungs, grid, "{label}");
                }
                _ => {
                    let grid: Vec<u64> = (1..)
                        .map(|k| k * interval)
                        .take_while(|&m| m < cycles)
                        .collect();
                    assert_eq!(rungs, grid, "{label}");
                }
            }
            assert_rungs_hold_the_run(arch, w, laid);
        }
        // A rung lies before the end of the run: a mark at its last
        // cycle lays none, a mark one cycle earlier lays one.
        let golden = golden_run(arch, w).unwrap();
        let end = golden.cycles;
        for (interval, want) in [(end, vec![]), (end - 1, vec![end - 1])] {
            let c = CampaignConfig {
                checkpoint_interval: interval,
                ..cfg(8)
            };
            let ladder = CheckpointLadder::build(arch, w, &golden, &c).unwrap();
            assert_eq!(rung_cycles(&ladder), want, "{} / {}", arch.name, w.name());
        }
    }
}

/// Under the auto grid a rung past the budget thins the grid instead of
/// ending the ladder: a budget of four rungs keeps two to four of them,
/// evenly spaced up to the end of the run, within the budget.
#[test]
fn an_auto_ladder_thins_to_fit_its_budget() {
    let (arch, w) = (hd_radeon_7970(), VectorAdd::new(256, 5));
    let golden = golden_run(&arch, &w).unwrap();
    let unbounded = CheckpointLadder::build(&arch, &w, &golden, &cfg(8)).unwrap();
    assert!(unbounded.len() > 4, "the budget below must bind");
    let c = CampaignConfig {
        checkpoint_budget_bytes: 4 * unbounded.rungs()[0].size_bytes() as u64,
        ..cfg(8)
    };
    let ladder = CheckpointLadder::build(&arch, &w, &golden, &c).unwrap();
    let rungs = rung_cycles(&ladder);
    assert!((2..=4).contains(&rungs.len()), "{rungs:?}");
    assert!(ladder.total_bytes() <= c.checkpoint_budget_bytes);
    let s = rungs[0];
    assert!(s.is_power_of_two());
    assert!(
        rungs
            .iter()
            .enumerate()
            .all(|(k, &r)| r == (k as u64 + 1) * s),
        "{rungs:?}"
    );
    assert!(rungs[rungs.len() - 1] + s >= golden.cycles, "{rungs:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot → restore round-trips at an arbitrary mid-execution
    /// cycle: finishing from the restored state reproduces the original
    /// outputs and cycle count exactly.
    #[test]
    fn snapshot_restore_roundtrips_at_any_cycle(seed in any::<u64>(), pct in 1u64..100) {
        let arch = quadro_fx_5600();
        let w = Transpose::new(32, seed % 16);
        let golden = golden_run(&arch, &w).unwrap();
        let cut = 1 + (golden.cycles - 2) * pct / 100;

        let mut gpu = Gpu::new(arch.clone());
        let mut session = Session::new(&mut gpu, w.plan());
        session.run_until_cycle(cut, &mut NoopObserver).unwrap();
        let ckpt = session.snapshot();
        let direct = session.run_to_completion(&mut NoopObserver).unwrap().to_vec();
        let direct_cycles = gpu.app_cycle();

        let mut gpu2 = Gpu::new(arch.clone());
        let mut resumed = Session::resume(&mut gpu2, &ckpt);
        let replayed = resumed.run_to_completion(&mut NoopObserver).unwrap();
        prop_assert_eq!(direct, replayed);
        prop_assert_eq!(direct_cycles, gpu2.app_cycle());
        prop_assert_eq!(golden.cycles, direct_cycles);
    }
}
