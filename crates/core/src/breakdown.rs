//! Detailed campaign analysis: per-site outcomes, bit-position
//! sensitivity, execution-phase sensitivity, and multi-bit upsets — the
//! deeper cuts the paper's "full scale of the study" paragraph promises
//! for follow-up work.

use crate::campaign::{Campaign, CampaignConfig, Outcome, Tally};
use crate::runner::Arming;
use grel_telemetry::NoopHook;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simt_sim::{FaultModelKind, FaultSite, SimError, Structure};

/// One injection with its classified outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteOutcome {
    /// Where and when the bit flipped.
    pub site: FaultSite,
    /// What happened.
    pub outcome: Outcome,
}

/// A campaign that keeps every `(site, outcome)` pair for post-analysis:
/// the same uniform sites a [`Campaign::run`] on `structure` draws, each
/// paired with its outcome.
///
/// # Errors
///
/// Propagates replay failures that are not fault classifications.
///
/// # Example
/// ```
/// use grel_core::breakdown::detailed_campaign_on;
/// use grel_core::campaign::{Campaign, CampaignConfig, Capture};
/// use gpu_workloads::VectorAdd;
/// use gpu_archs::quadro_fx_5600;
/// use grel_telemetry::NoopHook;
/// use simt_sim::Structure;
///
/// let (arch, w) = (quadro_fx_5600(), VectorAdd::new(256, 1));
/// let mut cfg = CampaignConfig::quick(1);
/// cfg.injections = 12;
/// let setup = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)?;
/// let detail = detailed_campaign_on(&setup, Structure::VectorRegisterFile, cfg)?;
/// assert_eq!(detail.len(), 12);
/// # Ok::<(), simt_sim::SimError>(())
/// ```
pub fn detailed_campaign_on(
    campaign: &Campaign<'_>,
    structure: Structure,
    cfg: CampaignConfig,
) -> Result<Vec<SiteOutcome>, SimError> {
    let sites = campaign.sample(structure, &cfg);
    let outcomes = campaign.replay(&sites, cfg, &NoopHook)?;
    Ok(sites
        .into_iter()
        .zip(outcomes)
        .map(|(site, outcome)| SiteOutcome { site, outcome })
        .collect())
}

/// AVF per bit position (0 = LSB … 31 = MSB), from a detailed campaign.
///
/// Buckets with no samples report `f64::NAN`; check
/// [`f64::is_nan`] before plotting.
pub fn avf_by_bit(detail: &[SiteOutcome]) -> [f64; 32] {
    let mut fail = [0u64; 32];
    let mut total = [0u64; 32];
    for d in detail {
        let b = d.site.bit as usize & 31;
        total[b] += 1;
        if d.outcome != Outcome::Masked {
            fail[b] += 1;
        }
    }
    std::array::from_fn(|b| {
        if total[b] == 0 {
            f64::NAN
        } else {
            fail[b] as f64 / total[b] as f64
        }
    })
}

/// AVF per execution phase: the run is split into `phases` equal cycle
/// windows; returns `(avf, samples)` per window. Early-phase flips tend
/// to be overwritten (masked), late-phase flips die with the launch.
pub fn avf_by_phase(detail: &[SiteOutcome], total_cycles: u64, phases: usize) -> Vec<(f64, u64)> {
    assert!(phases > 0, "need at least one phase");
    let mut fail = vec![0u64; phases];
    let mut total = vec![0u64; phases];
    for d in detail {
        let p = ((d.site.cycle as u128 * phases as u128) / total_cycles.max(1) as u128) as usize;
        let p = p.min(phases - 1);
        total[p] += 1;
        if d.outcome != Outcome::Masked {
            fail[p] += 1;
        }
    }
    (0..phases)
        .map(|p| {
            let avf = if total[p] == 0 {
                f64::NAN
            } else {
                fail[p] as f64 / total[p] as f64
            };
            (avf, total[p])
        })
        .collect()
}

/// Fraction of failures that are DUEs (vs SDCs) in a detailed campaign.
pub fn due_fraction(detail: &[SiteOutcome]) -> f64 {
    let failures = detail
        .iter()
        .filter(|d| d.outcome != Outcome::Masked)
        .count();
    if failures == 0 {
        return 0.0;
    }
    let dues = detail.iter().filter(|d| d.outcome == Outcome::Due).count();
    dues as f64 / failures as f64
}

/// Multi-bit-upset campaign: flips `width` *adjacent* bits at once (the
/// dominant MBU pattern in real SRAM). Each group of flips is one
/// injection of the shared runner, so it resumes from the checkpoint
/// ladder, fans out over `cfg.threads` workers and classifies exactly
/// like the single-bit campaign; the tally is identical at any job
/// count. Several widths can share one setup, so one golden run and one
/// ladder serve them all.
///
/// # Errors
///
/// [`SimError::LaunchConfig`] naming the MBU width when `width` is
/// outside `1..=32`; otherwise propagates replay failures that are not
/// fault classifications.
///
/// # Panics
///
/// Panics if the device lacks the structure.
///
/// # Example
/// ```
/// use grel_core::breakdown::mbu_campaign_on;
/// use grel_core::campaign::{Campaign, CampaignConfig, Capture};
/// use gpu_workloads::VectorAdd;
/// use gpu_archs::quadro_fx_5600;
/// use grel_telemetry::NoopHook;
/// use simt_sim::Structure;
///
/// let (arch, w) = (quadro_fx_5600(), VectorAdd::new(256, 1));
/// let mut cfg = CampaignConfig::quick(1);
/// cfg.injections = 8;
/// let setup = Campaign::new(&arch, &w, &cfg, Capture::campaign(&cfg), &NoopHook)?;
/// let tally = mbu_campaign_on(&setup, Structure::VectorRegisterFile, 2, cfg)?;
/// assert_eq!(tally.total(), 8);
/// assert!(mbu_campaign_on(&setup, Structure::VectorRegisterFile, 33, cfg).is_err());
/// # Ok::<(), simt_sim::SimError>(())
/// ```
pub fn mbu_campaign_on(
    campaign: &Campaign<'_>,
    structure: Structure,
    width: u8,
    cfg: CampaignConfig,
) -> Result<Tally, SimError> {
    if !(1..=32).contains(&width) {
        return Err(SimError::LaunchConfig {
            reason: format!("MBU width must be 1..=32, got {width}"),
        });
    }
    let space = campaign.space(structure, FaultModelKind::Transient);
    // One flat list, `width` adjacent-bit sites per injection.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x6b75);
    let mut sites = Vec::with_capacity(cfg.injections as usize * width as usize);
    for _ in 0..cfg.injections {
        let sm = rng.gen_range(0..space.sms());
        let word = rng.gen_range(0..space.words());
        let first_bit = rng.gen_range(0..=(32 - width as u32)) as u8;
        let cycle = rng.gen_range(0..space.cycles());
        sites.extend((0..width).map(|i| FaultSite::new(structure, sm, word, first_bit + i, cycle)));
    }
    let replayed = campaign.replay_with(&sites, Arming::Groups(width as usize), cfg, &NoopHook)?;
    Ok(replayed.outcomes.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Capture;
    use gpu_archs::quadro_fx_5600;
    use gpu_workloads::VectorAdd;
    use simt_sim::Structure;

    fn cfg(n: u32) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            threads: 1,
            ..CampaignConfig::quick(3)
        }
    }

    fn fake_detail() -> Vec<SiteOutcome> {
        let site = |bit, cycle, outcome| SiteOutcome {
            site: FaultSite::new(Structure::VectorRegisterFile, 0, 0, bit, cycle),
            outcome,
        };
        vec![
            site(0, 10, Outcome::Masked),
            site(0, 20, Outcome::Sdc),
            site(5, 80, Outcome::Due),
            site(5, 90, Outcome::Due),
        ]
    }

    #[test]
    fn bit_breakdown_buckets() {
        let by_bit = avf_by_bit(&fake_detail());
        assert_eq!(by_bit[0], 0.5);
        assert_eq!(by_bit[5], 1.0);
        assert!(by_bit[1].is_nan(), "unsampled bit");
    }

    #[test]
    fn phase_breakdown_buckets() {
        let phases = avf_by_phase(&fake_detail(), 100, 2);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0], (0.5, 2));
        assert_eq!(phases[1], (1.0, 2));
    }

    #[test]
    fn due_fraction_counts() {
        assert!((due_fraction(&fake_detail()) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(due_fraction(&[]), 0.0);
    }

    #[test]
    fn detailed_campaign_pairs_sites_and_outcomes() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 1);
        let c = cfg(10);
        let d = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
            .and_then(|setup| detailed_campaign_on(&setup, Structure::VectorRegisterFile, c))
            .unwrap();
        assert_eq!(d.len(), 10);
        // Same seed reproduces the same detail.
        let d2 = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
            .and_then(|setup| detailed_campaign_on(&setup, Structure::VectorRegisterFile, c))
            .unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn mbu_runs_and_single_bit_matches_sbu_statistics() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 1);
        let c = cfg(10);
        let t2 = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
            .and_then(|setup| mbu_campaign_on(&setup, Structure::VectorRegisterFile, 2, c))
            .unwrap();
        assert_eq!(t2.total(), 10);
        let t1 = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
            .and_then(|setup| mbu_campaign_on(&setup, Structure::VectorRegisterFile, 1, c))
            .unwrap();
        assert_eq!(t1.total(), 10);
    }

    #[test]
    fn mbu_watchdog_budget_saturates_instead_of_overflowing() {
        // `golden_cycles · u64::MAX + 10_000` would overflow; the budget
        // must clamp to "effectively never" and the campaign complete.
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 1);
        let mut c = cfg(6);
        c.watchdog_factor = u64::MAX;
        let t = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook)
            .and_then(|setup| mbu_campaign_on(&setup, Structure::VectorRegisterFile, 2, c))
            .unwrap();
        assert_eq!(t.total(), 6);
    }

    #[test]
    fn mbu_width_bounds() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(64, 1);
        let c = cfg(1);
        let setup = Campaign::new(&arch, &w, &c, Capture::campaign(&c), &NoopHook).unwrap();
        for width in [0, 33] {
            let err = mbu_campaign_on(&setup, Structure::VectorRegisterFile, width, c).unwrap_err();
            assert!(matches!(err, SimError::LaunchConfig { .. }), "{err:?}");
            assert!(err.to_string().contains("MBU width"), "{err}");
        }
        // The bounds themselves are valid widths.
        for width in [1, 32] {
            let t = mbu_campaign_on(&setup, Structure::VectorRegisterFile, width, c).unwrap();
            assert_eq!(t.total(), 1);
        }
    }
}
