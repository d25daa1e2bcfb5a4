//! The fault-site space of one campaign: its flat index layout, exact
//! population, spatial bounds and uniform sampler.
//!
//! A storage fault model (transient, stuck-at-0, stuck-at-1) names one
//! bit of one word of a structure: the flat index of
//! `(sm, word, bit, cycle)` is `((sm · words + word) · 32 + bit) ·
//! cycles + cycle`, with `words` the structure's words per SM. The
//! control model names one bit of one of four pieces of scheduler state
//! ([`ControlTarget::ALL`]) of a warp slot: `(((sm · slots + slot) · 4 +
//! target) · 32 + bit) · cycles + cycle`, with `slots` the device's warp
//! slots per SM. A control site's `word` is its warp slot and its
//! structure only a label, so the control space does not depend on the
//! structure. Both layouts are one formula: a per-SM axis of `words`
//! cells with `lanes` sites each (32 bits, or 4 targets × 32 bits).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simt_sim::{ArchConfig, ControlTarget, FaultKind, FaultModelKind, FaultSite, Structure};
use std::collections::HashMap;

/// The `(sm, cell, lane, cycle)` site space of one campaign.
#[derive(Debug)]
pub(crate) struct SiteSpace {
    structure: Structure,
    /// The kind every storage site carries; `None` for the control
    /// layout, whose kind comes from the target lane.
    kind: Option<FaultKind>,
    sms: u32,
    /// Words per SM for storage models, warp slots per SM for control;
    /// never zero.
    words: u32,
    /// Golden-run cycles; never zero.
    cycles: u64,
}

impl SiteSpace {
    /// The space a `model` campaign on `structure` samples from over a
    /// golden run of `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if a storage model's structure is absent from the device,
    /// if the device has no warp slots (control), or if `cycles` is zero.
    pub(crate) fn new(
        arch: &ArchConfig,
        structure: Structure,
        model: FaultModelKind,
        cycles: u64,
    ) -> Self {
        let kind = model.storage_kind();
        let words = Self::cells(arch, structure, kind).unwrap_or_else(|e| panic!("{e}"));
        assert!(cycles > 0, "cannot sample an empty execution");
        SiteSpace {
            structure,
            kind,
            sms: arch.num_sms,
            words,
            cycles,
        }
    }

    /// The per-SM cell count of a layout: the structure's words for a
    /// storage kind, the warp slots for control (`kind == None`).
    fn cells(
        arch: &ArchConfig,
        structure: Structure,
        kind: Option<FaultKind>,
    ) -> Result<u32, String> {
        match kind {
            Some(_) if arch.words_per_sm(structure) == 0 => {
                Err(format!("device has no {structure}"))
            }
            Some(_) => Ok(arch.words_per_sm(structure)),
            None if arch.max_warps_per_sm == 0 => Err("device has no warp slots".into()),
            None => Ok(arch.max_warps_per_sm),
        }
    }

    /// Checks that `site` names a cell `arch` has: its structure (storage
    /// kinds only), SM, word or warp slot, and bit. The cycle is not
    /// checked — a cycle past the end of execution is a real,
    /// trivially masked site.
    ///
    /// # Errors
    ///
    /// A message naming the offending coordinate and the device's range.
    pub(crate) fn check(arch: &ArchConfig, site: &FaultSite) -> Result<(), String> {
        let kind = match site.kind {
            FaultKind::Control(_) => None,
            storage => Some(storage),
        };
        let cells = Self::cells(arch, site.structure, kind)?;
        let (cell, per_sm) = match kind {
            Some(_) => ("word", format!("{} words", site.structure)),
            None => ("warp slot", "warp slots".to_string()),
        };
        if site.sm >= arch.num_sms {
            Err(format!(
                "sm {} out of range: the device has {} SMs (0..{})",
                site.sm, arch.num_sms, arch.num_sms
            ))
        } else if site.word >= cells {
            Err(format!(
                "{cell} {} out of range: the device has {cells} {per_sm} per SM (0..{cells})",
                site.word
            ))
        } else if site.bit >= 32 {
            Err(format!("bit {} out of range (0..32)", site.bit))
        } else {
            Ok(())
        }
    }

    /// The structure the sites are labelled with.
    pub(crate) fn structure(&self) -> Structure {
        self.structure
    }

    /// SMs of the device.
    pub(crate) fn sms(&self) -> u32 {
        self.sms
    }

    /// Cells per SM: words for storage models, warp slots for control.
    pub(crate) fn words(&self) -> u32 {
        self.words
    }

    /// Golden-run cycles: the cycle axis.
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Sites per `(sm, cell, cycle)`: 32 bits, or 4 targets × 32 bits.
    pub(crate) fn lanes(&self) -> u32 {
        if self.kind.is_some() {
            32
        } else {
            ControlTarget::ALL.len() as u32 * 32
        }
    }

    /// The exact number of sites.
    pub(crate) fn population(&self) -> u128 {
        self.sms as u128 * self.words as u128 * self.lanes() as u128 * self.cycles as u128
    }

    /// [`SiteSpace::population`] saturated to `u64`: the `N` of every
    /// finite-population margin.
    pub(crate) fn margin_population(&self) -> u64 {
        u64::try_from(self.population()).unwrap_or(u64::MAX)
    }

    /// The flat index of `(sm, cell, lane, cycle)`; `lane` is `bit` for
    /// storage and `target · 32 + bit` for control.
    pub(crate) fn encode(&self, sm: u32, word: u32, lane: u32, cycle: u64) -> u128 {
        let cell = sm as u128 * self.words as u128 + word as u128;
        (cell * self.lanes() as u128 + lane as u128) * self.cycles as u128 + cycle as u128
    }

    /// The site a flat index names (inverts [`SiteSpace::encode`]).
    pub(crate) fn decode(&self, mut idx: u128) -> FaultSite {
        let cycle = (idx % self.cycles as u128) as u64;
        idx /= self.cycles as u128;
        let lane = (idx % self.lanes() as u128) as u32;
        idx /= self.lanes() as u128;
        let word = (idx % self.words as u128) as u32;
        let sm = (idx / self.words as u128) as u32;
        let kind = self
            .kind
            .unwrap_or_else(|| FaultKind::Control(ControlTarget::ALL[(lane / 32) as usize]));
        FaultSite::new(self.structure, sm, word, (lane % 32) as u8, cycle).with_kind(kind)
    }

    /// `min(n, population)` distinct sites drawn uniformly: the first
    /// indices of the seed's [`FlatStream`] permutation, decoded. A
    /// request beyond the population returns every site exactly once.
    pub(crate) fn sample(&self, n: u32, seed: u64) -> Vec<FaultSite> {
        let population = self.population();
        let mut stream = FlatStream::new(population, seed);
        (0..(n as u128).min(population))
            .map(|_| self.decode(stream.next_index().expect("n is clamped to the population")))
            .collect()
    }
}

/// An incremental seed-stable partial Fisher–Yates shuffle over a flat
/// index space: each [`FlatStream::next_index`] call extends the same
/// uniform permutation, one distinct index at a time, so a consumer can
/// keep drawing until *its own* stopping rule fires (the adaptive
/// sampler) while remaining bit-compatible with the fixed-`n` sampler
/// (the first `n` indices of the stream are exactly the indices
/// [`SiteSpace::sample`] decodes).
///
/// Only the displaced prefix entries are materialised in a map: the
/// k-th draw swaps a uniform index from `[k, population)` into slot k,
/// so the first k slots are a uniform k-permutation of distinct
/// indices — O(1) amortised time and O(drawn) memory.
pub(crate) struct FlatStream {
    rng: StdRng,
    displaced: HashMap<u128, u128>,
    population: u128,
    drawn: u128,
}

impl FlatStream {
    /// A fresh stream over `[0, population)`.
    pub(crate) fn new(population: u128, seed: u64) -> Self {
        FlatStream {
            rng: StdRng::seed_from_u64(seed),
            displaced: HashMap::new(),
            population,
            drawn: 0,
        }
    }

    /// The next distinct index of the permutation, or `None` once every
    /// member of the population has been drawn.
    pub(crate) fn next_index(&mut self) -> Option<u128> {
        if self.drawn >= self.population {
            return None;
        }
        let k = self.drawn;
        let j = self.rng.gen_range(k..self.population);
        let pick = self.displaced.get(&j).copied().unwrap_or(j);
        let at_k = self.displaced.get(&k).copied().unwrap_or(k);
        self.displaced.insert(j, at_k);
        self.drawn += 1;
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_archs::all_devices;

    const STRUCTURES: [Structure; 3] = [
        Structure::VectorRegisterFile,
        Structure::LocalMemory,
        Structure::ScalarRegisterFile,
    ];

    /// Every space of the four devices under the four fault models, over
    /// a 1,000-cycle run.
    fn spaces() -> Vec<(ArchConfig, SiteSpace)> {
        let mut out = Vec::new();
        for arch in all_devices() {
            for model in FaultModelKind::ALL {
                for s in STRUCTURES {
                    if model.storage_kind().is_none() || arch.words_per_sm(s) > 0 {
                        out.push((arch.clone(), SiteSpace::new(&arch, s, model, 1000)));
                    }
                }
            }
        }
        out
    }

    /// The `(sm, cell, lane, cycle)` coordinates of a site.
    fn coords(site: &FaultSite) -> (u32, u32, u32, u64) {
        let target = match site.kind {
            FaultKind::Control(t) => t.index() as u32,
            _ => 0,
        };
        (
            site.sm,
            site.word,
            target * 32 + site.bit as u32,
            site.cycle,
        )
    }

    #[test]
    fn decode_inverts_encode() {
        for (_, space) in spaces() {
            for site in space.sample(200, 11) {
                let (sm, word, lane, cycle) = coords(&site);
                let idx = space.encode(sm, word, lane, cycle);
                assert!(idx < space.population());
                assert_eq!(space.decode(idx), site);
            }
            for idx in [0, space.population() - 1] {
                let (sm, word, lane, cycle) = coords(&space.decode(idx));
                assert_eq!(space.encode(sm, word, lane, cycle), idx);
            }
        }
    }

    #[test]
    fn sampled_sites_pass_the_bounds_check() {
        for (arch, space) in spaces() {
            for site in space.sample(200, 5) {
                assert_eq!(SiteSpace::check(&arch, &site), Ok(()), "{site}");
                assert!(site.cycle < space.cycles());
            }
        }
    }

    #[test]
    fn populations_match_the_per_layout_formulas() {
        for (arch, space) in spaces() {
            let (sms, cycles) = (arch.num_sms as u64, 1000);
            let per_cycle = match space.kind {
                Some(_) => arch.words_per_sm(space.structure()) as u64 * 32 * sms,
                None => sms * arch.max_warps_per_sm as u64 * 4 * 32,
            };
            assert_eq!(space.population(), (per_cycle * cycles) as u128);
            assert_eq!(space.margin_population(), per_cycle * cycles);
        }
        // The margin population saturates instead of wrapping.
        let arch = &all_devices()[0];
        let huge = SiteSpace::new(
            arch,
            Structure::VectorRegisterFile,
            FaultModelKind::Transient,
            u64::MAX,
        );
        assert_eq!(huge.margin_population(), u64::MAX);
        assert!(huge.population() > u64::MAX as u128);
    }

    #[test]
    fn bounds_check_names_the_coordinate_and_range() {
        let arch = all_devices()[2].clone();
        let rf = |sm, word, bit| FaultSite::new(Structure::VectorRegisterFile, sm, word, bit, 5);
        let sms = arch.num_sms;
        let err = SiteSpace::check(&arch, &rf(sms, 0, 0)).unwrap_err();
        assert!(
            err.contains(&format!("sm {sms} out of range")) && err.contains(&format!("0..{sms}")),
            "{err}"
        );
        let words = arch.rf_words_per_sm();
        let err = SiteSpace::check(&arch, &rf(0, words, 0)).unwrap_err();
        assert!(err.contains(&format!("word {words} out of range")), "{err}");
        let ctrl = rf(0, arch.max_warps_per_sm, 0)
            .with_kind(FaultKind::Control(ControlTarget::ActiveMask));
        let err = SiteSpace::check(&arch, &ctrl).unwrap_err();
        assert!(err.contains("warp slot"), "{err}");
        // A control site does not need the structure it is labelled with.
        let srf = FaultSite::new(Structure::ScalarRegisterFile, 0, 0, 0, 5);
        let absent = arch.srf_words_per_sm() == 0;
        assert_eq!(SiteSpace::check(&arch, &srf).is_err(), absent);
        let srf_ctrl = srf.with_kind(FaultKind::Control(ControlTarget::Scoreboard));
        assert_eq!(SiteSpace::check(&arch, &srf_ctrl), Ok(()));
        // The cycle is not a spatial coordinate.
        assert_eq!(
            SiteSpace::check(&arch, &rf(0, 0, 31).with_kind(FaultKind::StuckAt0)),
            Ok(())
        );
        let late = FaultSite {
            cycle: u64::MAX,
            ..rf(0, 0, 0)
        };
        assert_eq!(SiteSpace::check(&arch, &late), Ok(()));
    }

    #[test]
    #[should_panic(expected = "device has no warp slots")]
    fn control_space_needs_warp_slots() {
        let mut arch = all_devices()[0].clone();
        arch.max_warps_per_sm = 0;
        let _ = SiteSpace::new(
            &arch,
            Structure::VectorRegisterFile,
            FaultModelKind::Control,
            10,
        );
    }

    #[test]
    #[should_panic(expected = "cannot sample an empty execution")]
    fn empty_execution_has_no_space() {
        let arch = &all_devices()[0];
        let _ = SiteSpace::new(arch, Structure::LocalMemory, FaultModelKind::Stuck0, 0);
    }
}
