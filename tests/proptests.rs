//! Property-based tests over the public API: determinism, classification
//! sanity and site-space containment under randomized campaigns.

use gpu_reliability_repro::archs::{geforce_gtx_480, quadro_fx_5600};
use gpu_reliability_repro::reliability::campaign::{
    golden_run, sample_sites, Campaign, CampaignConfig, Capture, Outcome,
};
use gpu_reliability_repro::reliability::stats::{Proportion, Z_99};
use gpu_reliability_repro::sim::{Gpu, NoopObserver, Structure};
use gpu_reliability_repro::workloads::{VectorAdd, Workload};
use grel_telemetry::NoopHook;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seed's sites stay inside the structure and the sampled window.
    #[test]
    fn sites_always_in_range(seed in any::<u64>(), cycles in 1u64..1_000_000) {
        let arch = geforce_gtx_480();
        for s in sample_sites(&arch, Structure::VectorRegisterFile, cycles, 64, seed) {
            prop_assert!(s.sm < arch.num_sms);
            prop_assert!(s.word < arch.rf_words_per_sm());
            prop_assert!(s.bit < 32);
            prop_assert!(s.cycle < cycles);
        }
    }

    /// Site sampling is a seeded partial Fisher–Yates shuffle over the
    /// flat site index space: the same seed always reproduces the same
    /// list, and the list never contains the same `(sm, word, bit,
    /// cycle)` site twice — each drawn fault is a distinct member of the
    /// population, as the Leveugle margin assumes.
    #[test]
    fn sampling_is_deterministic_and_without_replacement(
        seed in any::<u64>(),
        cycles in 1u64..100_000,
    ) {
        let arch = geforce_gtx_480();
        let a = sample_sites(&arch, Structure::VectorRegisterFile, cycles, 128, seed);
        let b = sample_sites(&arch, Structure::VectorRegisterFile, cycles, 128, seed);
        prop_assert_eq!(&a, &b);
        let mut seen = std::collections::HashSet::new();
        for s in &a {
            prop_assert!(seen.insert(*s), "duplicate site {s:?}");
        }
    }

    /// Golden runs are a pure function of (arch, workload): any two
    /// evaluations agree in output and cycle count.
    #[test]
    fn golden_runs_are_pure(seed in any::<u64>()) {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, seed);
        let a = golden_run(&arch, &w).unwrap();
        let b = golden_run(&arch, &w).unwrap();
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.cycles, b.cycles);
    }

    /// Replaying the same site twice yields the same outcome, and a
    /// double flip at the same (site, cycle) pair cannot exist — but two
    /// *distinct* cycles for the same bit can differ, so we only check
    /// replay stability.
    #[test]
    fn classification_is_replay_stable(seed in any::<u64>()) {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 3);
        let golden = golden_run(&arch, &w).unwrap();
        let sites = sample_sites(&arch, Structure::VectorRegisterFile, golden.cycles, 4, seed);
        let cfg = CampaignConfig { injections: 4, threads: 1, ..CampaignConfig::quick(seed) };
        let mut c = cfg;
        c.checkpoint_budget_bytes = 1;
        let o1 = Campaign::new(&arch, &w, &c, Capture::default(), &NoopHook).and_then(|setup| setup.replay(&sites, c, &NoopHook)).unwrap();
        let o2 = Campaign::new(&arch, &w, &c, Capture::default(), &NoopHook).and_then(|setup| setup.replay(&sites, c, &NoopHook)).unwrap();
        prop_assert_eq!(o1, o2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A flipped-then-flipped-back world is unreachable: any injected
    /// run either matches golden exactly (masked) or differs/fails; the
    /// classifier never produces an impossible mixed state. Also: SDC
    /// outputs have the same length as golden.
    #[test]
    fn outcomes_partition_cleanly(seed in any::<u64>()) {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(512, 5);
        let golden = golden_run(&arch, &w).unwrap();
        let sites = sample_sites(&arch, Structure::VectorRegisterFile, golden.cycles, 6, seed);
        for site in sites {
            let mut gpu = Gpu::new(arch.clone());
            gpu.set_watchdog(golden.cycles * 10 + 10_000);
            gpu.arm_fault(site);
            match w.run(&mut gpu, &mut NoopObserver) {
                Ok(out) => {
                    prop_assert_eq!(out.len(), golden.outputs.len());
                    let _masked = out == golden.outputs;
                }
                Err(e) => {
                    prop_assert!(e.as_due().is_some(), "non-DUE failure: {e}");
                }
            }
        }
        // Silence the unused-variable lint path for Outcome.
        let _ = Outcome::Masked;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Proportion::interval(z)` is monotone in the confidence level —
    /// a larger z can only widen the interval — both bounds stay inside
    /// [0, 1], and `interval(Z_99)` reproduces `interval_99()` exactly
    /// (same finite-population margin, same bits).
    #[test]
    fn proportion_interval_monotone_and_clamped(
        trials in 1u64..400,
        hits_sel in any::<u64>(),
        za in 1u64..50,
        zb in 1u64..50,
    ) {
        let hits = hits_sel % (trials + 1);
        let population = trials * 1000 + 7;
        let p = Proportion::new(hits, trials, population);
        let (z_lo, z_hi) = (za.min(zb) as f64 / 10.0, za.max(zb) as f64 / 10.0);
        let (lo1, hi1) = p.interval(z_lo);
        let (lo2, hi2) = p.interval(z_hi);
        prop_assert!(lo2 <= lo1 && hi1 <= hi2, "larger z must widen: {lo1}..{hi1} vs {lo2}..{hi2}");
        for (lo, hi) in [(lo1, hi1), (lo2, hi2)] {
            prop_assert!(lo <= hi);
            prop_assert!((0.0..=1.0).contains(&lo), "lower bound {lo} escaped [0,1]");
            prop_assert!((0.0..=1.0).contains(&hi), "upper bound {hi} escaped [0,1]");
        }
        prop_assert_eq!(p.interval(Z_99), p.interval_99());
    }

    /// An exhaustive campaign (`trials == population`) has measured every
    /// site: the interval degenerates to the point estimate at any z.
    #[test]
    fn exhaustive_proportion_interval_is_a_point(
        trials in 1u64..1000,
        hits_sel in any::<u64>(),
        zt in 1u64..50,
    ) {
        let hits = hits_sel % (trials + 1);
        let p = Proportion::new(hits, trials, trials);
        prop_assert_eq!(p.margin(zt as f64 / 10.0), 0.0);
        prop_assert_eq!(p.interval(zt as f64 / 10.0), (p.value, p.value));
    }

    /// `Proportion::wilson(z)` always yields a well-formed interval:
    /// inside [0, 1], bracketing the point estimate, and nested in z —
    /// a larger confidence level can only widen it.
    #[test]
    fn wilson_interval_contained_bracketing_and_nested_in_z(
        trials in 1u64..400,
        hits_sel in any::<u64>(),
        za in 1u64..50,
        zb in 1u64..50,
    ) {
        let hits = hits_sel % (trials + 1);
        let population = trials * 1000 + 7;
        let p = Proportion::new(hits, trials, population);
        let (z_lo, z_hi) = (za.min(zb) as f64 / 10.0, za.max(zb) as f64 / 10.0);
        let (lo1, hi1) = p.wilson(z_lo);
        let (lo2, hi2) = p.wilson(z_hi);
        for (lo, hi) in [(lo1, hi1), (lo2, hi2)] {
            prop_assert!((0.0..=1.0).contains(&lo), "lower bound {lo} escaped [0,1]");
            prop_assert!((0.0..=1.0).contains(&hi), "upper bound {hi} escaped [0,1]");
            prop_assert!(lo <= p.value && p.value <= hi, "{lo}..{hi} must bracket {}", p.value);
        }
        prop_assert!(lo2 <= lo1 && hi1 <= hi2, "larger z must widen: {lo1}..{hi1} vs {lo2}..{hi2}");
    }

    /// As trials grow at a fixed proportion, the Wilson interval
    /// converges to the symmetric normal (Wald) interval — the score
    /// correction terms vanish at rate 1/n, so at n = 10,000 the two
    /// agree to well under a margin's worth of slack.
    #[test]
    fn wilson_converges_to_the_normal_interval(
        tenths in 0u64..=10,
        zt in 10u64..30,
    ) {
        let z = zt as f64 / 10.0;
        let trials = 10_000u64;
        let hits = trials * tenths / 10;
        // Effectively infinite population: FPC ~ 1.
        let p = Proportion::new(hits, trials, u64::MAX);
        let (wlo, whi) = p.wilson(z);
        // The Wald interval proper, p̂ ± z·sqrt(p̂(1-p̂)/n), clamped —
        // not `interval(z)`, which uses the conservative p = ½ variance.
        let wald = z * (p.value * (1.0 - p.value) / trials as f64).sqrt();
        let (nlo, nhi) = ((p.value - wald).max(0.0), (p.value + wald).min(1.0));
        // The score correction shifts each bound by at most ~z²/n
        // (center pull plus the +z²/4 under the root).
        let slack = (z * z + 1.0) / trials as f64 + 1e-12;
        prop_assert!((wlo - nlo).abs() <= slack, "lower: wilson {wlo} vs normal {nlo}");
        prop_assert!((whi - nhi).abs() <= slack, "upper: wilson {whi} vs normal {nhi}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `to_site_string` ↔ `FromStr` round-trips every field of every
    /// fault kind — the `sm:struct:word:bit:cycle[:kind]` grammar that
    /// `repro trace --site` speaks must name any site the sampler can
    /// draw, including the permanent and control-unit kinds.
    #[test]
    fn site_strings_round_trip_all_kinds(
        sm in any::<u32>(),
        word in any::<u32>(),
        bit in 0u8..32,
        cycle in any::<u64>(),
        st in 0usize..3,
        kind in 0usize..7,
    ) {
        use gpu_reliability_repro::sim::{ControlTarget, FaultKind, FaultSite};
        let structure = [
            Structure::VectorRegisterFile,
            Structure::LocalMemory,
            Structure::ScalarRegisterFile,
        ][st];
        let kind = [
            FaultKind::TransientFlip,
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Control(ControlTarget::SchedulerSlot),
            FaultKind::Control(ControlTarget::ActiveMask),
            FaultKind::Control(ControlTarget::Scoreboard),
            FaultKind::Control(ControlTarget::BarrierCounter),
        ][kind];
        let site = FaultSite::try_new(structure, sm, word, bit, cycle, kind).unwrap();
        let text = site.to_site_string();
        let parsed: FaultSite = text.parse().unwrap();
        prop_assert_eq!(parsed, site, "via {}", text);
    }

    /// Malformed site strings are rejected, never truncated into a
    /// wrong-but-valid site: out-of-range bits, numeric overflow past
    /// the field width, unknown structures or kinds, and wrong arity
    /// all fail to parse.
    #[test]
    fn malformed_site_strings_are_rejected(
        sm in any::<u32>(),
        word in any::<u32>(),
        bit in 32u64..,
        over in (u32::MAX as u64 + 1)..,
    ) {
        use gpu_reliability_repro::sim::FaultSite;
        for bad in [
            format!("{sm}:rf:{word}:{bit}:0"),         // bit out of range
            format!("{over}:rf:{word}:0:0"),           // sm overflows u32
            format!("{sm}:rf:{over}:0:0"),             // word overflows u32
            format!("{sm}:sram:{word}:0:0"),           // unknown structure
            format!("{sm}:rf:{word}:0:0:latchup"),     // unknown kind
            format!("{sm}:rf:{word}:0"),               // too few fields
            format!("{sm}:rf:{word}:0:0:transient:x"), // too many fields
            format!("{sm}:rf:{word}:-1:0"),            // negative field
            String::new(),                             // empty
        ] {
            prop_assert!(bad.parse::<FaultSite>().is_err(), "accepted {bad:?}");
        }
    }
}
