//! Adaptive stratified sampling: reach a target AVF margin with the
//! fewest replayed injections.
//!
//! The paper's campaigns draw a fixed uniform sample (2,000 injections
//! → ±2.88 % at 99 %). That budget is spent blindly: most of a typical
//! site population is *provably dead* (the [`LifetimeOracle`] knows a
//! flip there can never be read), and within the live remainder the
//! failure probability varies strongly with fault cycle and bit
//! position. This module turns the campaign interface around — the
//! caller states the precision (`target_margin`) and the engine spends
//! the fewest injections that deliver it:
//!
//! 1. **Stratify** the flat `(SM, word, bit, cycle)` site space along
//!    byproducts the toolkit already computes: live vs dead oracle
//!    intervals, fault-cycle quartile and bit half. Stratum weights are
//!    *exact* integer counts (live weights via
//!    [`LifetimeOracle::live_word_cycles_in`]), not estimates.
//! 2. **Pilot**: draw a small deterministic sample from every
//!    non-empty stratum — its share of the uniform sample that reaches
//!    the same margin, between 1 and 8 draws.
//! 3. **Allocate** the remaining budget in rounds by Neyman allocation
//!    (`n_h ∝ W_h·s_h`, with the per-stratum deviation floored by the
//!    Wilson score center so an all-masked pilot still leaves a
//!    stratum allocatable).
//! 4. **Stop** when the post-stratified margin — dead stratum exact at
//!    zero width, sampled strata combined in quadrature from their
//!    finite-population Wilson intervals, unsampled strata bounded
//!    linearly at half width — is at or below the target.
//!
//! # Determinism
//!
//! The engine inherits the PR-3 contract end to end. Each stratum owns
//! a seed-stable partial Fisher–Yates permutation over its *own* index
//! space (a `FlatStream` sized to the stratum, seeded from the
//! campaign seed and the stratum index), and a rank→site mapping built
//! from explicit live/dead cycle segments — drawing the n-th site of a
//! rare stratum costs O(log segments), never a scan of the full
//! population. Each round's sites flow through the existing striped
//! worker pool and scatter-merge, so round tallies are bit-identical
//! at any `--jobs`, with pruning and batching on or off. Allocation is
//! a pure function of (campaign definition, cumulative stratum
//! tallies): same seed ⇒ same rounds, asserted by
//! `tests/sampling_equivalence.rs`.

use crate::ace::{LifetimeOracle, WordCycleSegment};
use crate::campaign::{structure_label, Campaign, CampaignConfig, Tally};
use crate::runner::Arming;
use crate::space::{FlatStream, SiteSpace};
use crate::stats::{required_sample_size, Proportion, Z_99};
use grel_telemetry::{Event, NoopHook, TelemetryHook};
use simt_sim::{FaultModelKind, FaultSite, SimError, Structure};

/// The adaptive engine's one setting, carried by a study point's
/// [`crate::study::CampaignMode::Adaptive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPlan {
    /// Target half-width of the post-stratified 99 % AVF interval; the
    /// engine stops as soon as its margin is at or below this. It must
    /// be positive and finite: [`Campaign::run_adaptive`] rejects any
    /// other value.
    pub target_margin: f64,
}

impl SamplingPlan {
    /// A plan targeting `margin`.
    pub fn with_target(margin: f64) -> Self {
        SamplingPlan {
            target_margin: margin,
        }
    }
}

/// One stratum's final state.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSnapshot {
    /// Label (`live/c2/b0`, `dead`, or `c2/b0` without an oracle).
    pub label: String,
    /// Exact site count of the stratum (saturated to `u64`).
    pub population: u64,
    /// Sites sampled (pruned dead sites included — they classify
    /// without replay but still count as drawn trials).
    pub seen: u64,
    /// The final allocation target (equals `seen` once converged).
    pub planned: u64,
    /// Outcome counters over the stratum's sample.
    pub tally: Tally,
    /// Stratum AVF point estimate (`failures / seen`; 0 when unsampled).
    pub avf: f64,
    /// Wilson 99 % interval bounds (finite-population corrected).
    pub lo: f64,
    /// Upper Wilson bound.
    pub hi: f64,
}

/// One allocation round, recorded for reproducibility: the quota
/// vector is the pure-function output `tests/sampling_equivalence.rs`
/// pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// Round index (0 = pilot).
    pub round: u32,
    /// Sites drawn from each stratum this round (stratum order).
    pub quotas: Vec<u64>,
    /// Cumulative sites sampled after the round.
    pub sampled: u64,
    /// Cumulative sites actually replayed after the round (sampled
    /// minus oracle-pruned; equals `sampled` when pruning is off).
    pub replayed: u64,
    /// Post-stratified margin after the round, in bits (`f64::to_bits`
    /// of the margin — kept as bits so the plan derives `Eq` and the
    /// purity test can compare plans exactly).
    pub margin_bits: u64,
}

impl RoundPlan {
    /// The post-stratified 99 % margin after this round.
    pub fn margin(&self) -> f64 {
        f64::from_bits(self.margin_bits)
    }
}

/// Result of an adaptive campaign on one structure.
#[derive(Debug, Clone)]
pub struct AdaptiveCampaign {
    /// Structure injected.
    pub structure: Structure,
    /// Outcome counters over every sampled site (all strata pooled).
    pub tally: Tally,
    /// Total sites sampled.
    pub sampled: u64,
    /// Total sites replayed (sampled minus oracle-pruned).
    pub replayed: u64,
    /// Post-stratified AVF estimate `Σ W_h · p̂_h`.
    pub avf: f64,
    /// Post-stratified SDC-only AVF.
    pub avf_sdc: f64,
    /// Post-stratified 99 % margin at the stop point.
    pub margin: f64,
    /// The margin the engine aimed for.
    pub target_margin: f64,
    /// Whether the target was reached (false only if the round cap or
    /// population exhaustion ended the campaign first).
    pub converged: bool,
    /// Size of the full fault-site population.
    pub population: u64,
    /// Fault-free cycle count.
    pub golden_cycles: u64,
    /// Every allocation round in order (round 0 is the pilot).
    pub rounds: Vec<RoundPlan>,
    /// Per-stratum final state, in stratum order.
    pub strata: Vec<StratumSnapshot>,
}

/// The most pilot draws a stratum takes. Deliberately lean — with the
/// nine-stratum partition the pilot replays at most 64 live sites, and
/// rounds grow geometrically from there — because every pilot site is
/// spent before any variance is known.
const MAX_PILOT: u64 = 8;

/// A stratum's pilot: its share `W_h · n_u` of the `uniform` sample
/// that reaches the same margin, at least 1 and at most [`MAX_PILOT`]
/// draws, and never more than the stratum holds. A stratum the uniform
/// campaign would barely touch is not sampled eight times over.
fn pilot(population: u128, total: u128, uniform: u64) -> u64 {
    let share = (population as f64 / total as f64 * uniform as f64).ceil() as u64;
    share
        .clamp(1, MAX_PILOT)
        .min(u64::try_from(population).unwrap_or(u64::MAX))
}

/// Fault-cycle quartiles and bit halves: each crossing is one stratum
/// (one live stratum when the campaign has a liveness axis).
const CYCLE_PARTS: u64 = 4;
const BIT_PARTS: u32 = 2;

/// Hard cap on allocation rounds — a backstop, never the expected stop
/// (per-round quotas at least double a stratum's sample, so real
/// campaigns converge or exhaust long before this).
const MAX_ROUNDS: u32 = 64;

/// SplitMix64-style mix of the campaign seed and a stratum index, so
/// neighbouring strata draw unrelated (but fully reproducible)
/// permutation streams.
fn stratum_seed(seed: u64, h: usize) -> u64 {
    let mut z = seed ^ (h as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rank → `(sm, word, cycle)` bijection over one stratum's word-cycle
/// sites, in `(sm, word, cycle)` order. Rectangular strata decode
/// arithmetically; live strata bisect the cumulative lengths of their
/// explicit segment list, and the dead stratum bisects the gaps
/// between the live segments.
#[derive(Clone)]
enum RankMap {
    /// `sms × words × cycles` box (no liveness axis).
    Rect {
        sms: u32,
        words: u32,
        cycle_lo: u64,
        cycles: u64,
    },
    /// Explicit live cycle runs; `cum[i]` is the number of word-cycle
    /// sites in `segs[..i]`.
    Live {
        segs: Vec<WordCycleSegment>,
        cum: Vec<u64>,
    },
    /// Every `(sm, word, cycle)` of the `words × cycles` box per SM that
    /// no live run covers. With the box flattened in that order,
    /// `dead[i]` is the number of dead sites before live run `i` and
    /// `live[i]` the number of live sites up to and including it.
    Dead {
        dead: Vec<u64>,
        live: Vec<u64>,
        words: u32,
        cycles: u64,
        sites: u64,
    },
}

impl RankMap {
    fn live(segs: Vec<WordCycleSegment>) -> Self {
        let mut cum = Vec::with_capacity(segs.len());
        let mut total = 0u64;
        for s in &segs {
            cum.push(total);
            total += s.len();
        }
        RankMap::Live { segs, cum }
    }

    /// The complement of `live_segs` (sorted, disjoint runs inside the
    /// box).
    fn dead(live_segs: &[WordCycleSegment], sms: u32, words: u32, cycles: u64) -> Self {
        let mut dead = Vec::with_capacity(live_segs.len());
        let mut live = Vec::with_capacity(live_segs.len());
        let mut live_sites = 0u64;
        for s in live_segs {
            let flat = (s.sm as u64 * words as u64 + s.word as u64) * cycles + s.lo;
            dead.push(flat - live_sites);
            live_sites += s.len();
            live.push(live_sites);
        }
        RankMap::Dead {
            dead,
            live,
            words,
            cycles,
            sites: sms as u64 * words as u64 * cycles - live_sites,
        }
    }

    /// Word-cycle sites in the map.
    fn word_cycles(&self) -> u128 {
        match self {
            RankMap::Rect {
                sms, words, cycles, ..
            } => *sms as u128 * *words as u128 * *cycles as u128,
            RankMap::Live { segs, cum } => match (segs.last(), cum.last()) {
                (Some(s), Some(&c)) => (c + s.len()) as u128,
                _ => 0,
            },
            RankMap::Dead { sites, .. } => *sites as u128,
        }
    }

    /// The `rank`-th word-cycle site (rank < `word_cycles()`).
    fn site_of(&self, rank: u128) -> (u32, u32, u64) {
        match self {
            RankMap::Rect {
                words,
                cycle_lo,
                cycles,
                ..
            } => {
                // Rank-major over (sm, word, cycle), matching the flat
                // encoding order.
                let per_sm = *words as u128 * *cycles as u128;
                let sm = (rank / per_sm) as u32;
                let rem = rank % per_sm;
                let word = (rem / *cycles as u128) as u32;
                let cycle = cycle_lo + (rem % *cycles as u128) as u64;
                (sm, word, cycle)
            }
            RankMap::Live { segs, cum } => {
                let rank = rank as u64;
                let i = cum.partition_point(|&c| c <= rank) - 1;
                let seg = &segs[i];
                (seg.sm, seg.word, seg.lo + (rank - cum[i]))
            }
            RankMap::Dead {
                dead,
                live,
                words,
                cycles,
                ..
            } => {
                // The live runs with at most `rank` dead sites before
                // them all lie before the site; skip their sites.
                let rank = rank as u64;
                let k = dead.partition_point(|&d| d <= rank);
                let flat = rank + k.checked_sub(1).map_or(0, |i| live[i]);
                let (cell, words) = (flat / cycles, *words as u64);
                ((cell / words) as u32, (cell % words) as u32, flat % cycles)
            }
        }
    }
}

/// Internal per-stratum accounting plus the stratum's own sampler.
struct Stratum {
    label: String,
    population: u128,
    seen: u64,
    planned: u64,
    tally: Tally,
    /// The dead stratum's estimate is analytic (AVF exactly 0).
    dead: bool,
    /// Rank → word-cycle site mapping over this stratum only.
    map: RankMap,
    /// Width of the stratum's bit-axis slice (16 or 32) and its first
    /// bit. The dead stratum always spans all 32 bits — the bit axis
    /// only splits live cells.
    bits_span: u32,
    bit_lo: u32,
    /// Seed-stable in-stratum permutation (campaign seed ⊕ stratum
    /// index), drawn lazily as rounds allocate.
    stream: FlatStream,
    /// Round 0's draws, and the floor of every later round's growth.
    pilot: u64,
}

impl Stratum {
    /// The next undrawn site of the stratum as a flat index of `space`,
    /// or `None` when exhausted.
    fn next_flat(&mut self, space: &SiteSpace) -> Option<u128> {
        let local = self.stream.next_index()?;
        // The stratum's lanes: its bit slice of each of the space's
        // 32-bit lane groups (one for storage, four targets for control).
        let lanes = self.bits_span * (space.lanes() / 32);
        let wc = local / lanes as u128;
        let lane = (local % lanes as u128) as u32;
        let (target, bit) = (lane / self.bits_span, self.bit_lo + lane % self.bits_span);
        let (sm, word, cycle) = self.map.site_of(wc);
        Some(space.encode(sm, word, target * 32 + bit, cycle))
    }
}

impl Stratum {
    fn weight(&self, total: u128) -> f64 {
        self.population as f64 / total as f64
    }

    fn exhausted(&self) -> bool {
        self.seen as u128 >= self.population
    }

    /// Wilson 99 % interval over the stratum's own population; `(0,0)`
    /// for the dead stratum (oracle soundness) and `(0,1)` — maximal
    /// ignorance — before any sample.
    fn wilson(&self) -> (f64, f64) {
        if self.dead {
            return (0.0, 0.0);
        }
        if self.seen == 0 {
            return (0.0, 1.0);
        }
        let pop = u64::try_from(self.population).unwrap_or(u64::MAX);
        Proportion::new(self.tally.failures(), self.seen, pop).wilson(Z_99)
    }

    /// Point estimate used in the post-stratified sum: exact 0 for the
    /// dead stratum, the sample proportion otherwise, and the
    /// maximal-ignorance midpoint ½ before any sample (paired with the
    /// ½ linear margin contribution, so an unsampled stratum is never
    /// silently counted as safe).
    fn estimate(&self) -> f64 {
        if self.dead {
            0.0
        } else if self.seen == 0 {
            0.5
        } else {
            self.tally.failures() as f64 / self.seen as f64
        }
    }

    fn estimate_sdc(&self) -> f64 {
        if self.dead {
            0.0
        } else if self.seen == 0 {
            0.5
        } else {
            self.tally.sdc as f64 / self.seen as f64
        }
    }

    /// Per-stratum standard deviation for Neyman allocation, floored
    /// by the Wilson center so an all-masked sample keeps a small
    /// positive deviation (it could still be hiding failures).
    fn deviation(&self) -> f64 {
        if self.dead || self.exhausted() {
            return 0.0;
        }
        if self.seen == 0 {
            return 0.5;
        }
        let pop = u64::try_from(self.population).unwrap_or(u64::MAX);
        let (lo, hi) = Proportion::new(self.tally.failures(), self.seen, pop).wilson(Z_99);
        let center = f64::midpoint(lo, hi);
        (center * (1.0 - center)).sqrt()
    }
}

/// Builds the stratum table: exact populations, rank→site maps and
/// seed-stable per-stratum permutation streams. Every fault-cycle
/// quartile × bit half crossing is one stratum; with an `oracle` (the
/// liveness axis) those strata hold live sites only and one more
/// stratum holds every dead site. The bit axis splits the space's
/// per-`(word, cycle)` lanes (32 bits for storage, `4 targets × 32 bits`
/// for control). `uniform` is the uniform sample size of the target
/// margin, which sizes each stratum's [`pilot`].
fn strata(
    space: &SiteSpace,
    oracle: Option<&LifetimeOracle>,
    seed: u64,
    uniform: u64,
) -> Vec<Stratum> {
    let (lanes, total) = (space.lanes() as u128, space.population());
    let bits_span = 32 / BIT_PARTS;
    let cycles = space.cycles();
    let cells = (CYCLE_PARTS * BIT_PARTS as u64) as usize;
    // Every live run of the structure: each live stratum clips it to
    // its cycle quartile, and the dead stratum is its complement.
    let live_segs = oracle.map_or_else(Vec::new, |o| {
        o.segments_in(space.structure(), 0, space.words(), 0, cycles)
    });
    let mut out: Vec<Stratum> = Vec::with_capacity(cells + 1);
    let mut live_total: u128 = 0;
    for cell in 0..cells {
        let (q, b) = (cell as u64 / BIT_PARTS as u64, cell as u32 % BIT_PARTS);
        let c_lo = (q * cycles).div_ceil(CYCLE_PARTS);
        let c_hi = ((q + 1) * cycles).div_ceil(CYCLE_PARTS);
        let map = match oracle {
            // The bit halves of one cycle quartile share its word-cycle
            // sites: the half below built them already.
            Some(_) if b > 0 => out[cell - 1].map.clone(),
            Some(oracle) => {
                let map = RankMap::live(
                    live_segs
                        .iter()
                        .filter(|s| s.lo < c_hi && s.hi >= c_lo)
                        .map(|s| WordCycleSegment {
                            lo: s.lo.max(c_lo),
                            hi: s.hi.min(c_hi - 1),
                            ..*s
                        })
                        .collect(),
                );
                debug_assert_eq!(
                    map.word_cycles(),
                    oracle.live_word_cycles_in(space.structure(), 0, space.words(), c_lo, c_hi)
                        as u128,
                    "segment list and live count must describe the same set"
                );
                map
            }
            None => RankMap::Rect {
                sms: space.sms(),
                words: space.words(),
                cycle_lo: c_lo,
                cycles: c_hi - c_lo,
            },
        };
        let population = map.word_cycles() * (lanes / BIT_PARTS as u128);
        live_total += population;
        let live = if oracle.is_some() { "live/" } else { "" };
        out.push(Stratum {
            label: format!("{live}c{q}/b{b}"),
            population,
            seen: 0,
            planned: 0,
            tally: Tally::default(),
            dead: false,
            bits_span,
            bit_lo: b * bits_span,
            stream: FlatStream::new(population, stratum_seed(seed, cell)),
            pilot: pilot(population, total, uniform),
            map,
        });
    }
    if oracle.is_some() {
        let map = RankMap::dead(&live_segs, space.sms(), space.words(), cycles);
        let dead_population = map.word_cycles() * lanes;
        debug_assert_eq!(
            dead_population,
            total - live_total,
            "the dead stratum is exactly the complement of the live cells"
        );
        out.push(Stratum {
            label: "dead".to_string(),
            population: dead_population,
            seen: 0,
            planned: 0,
            tally: Tally::default(),
            dead: true,
            bits_span: 32,
            bit_lo: 0,
            stream: FlatStream::new(dead_population, stratum_seed(seed, out.len())),
            pilot: pilot(dead_population, total, uniform),
            map,
        });
    }
    out
}

/// The post-stratified estimate: `(avf, avf_sdc, margin)`.
///
/// The margin combines three exact-by-construction pieces: the dead
/// stratum contributes zero (oracle soundness); sampled strata combine
/// their weighted finite-population Wilson half-widths in quadrature
/// (independent samples); unsampled strata are bounded linearly at
/// half their weight (an AVF lives in `[0, 1]`, so ½ is the worst-case
/// half-width — no distributional assumption at all).
fn post_stratified(strata: &[Stratum], total: u128) -> (f64, f64, f64) {
    let mut avf = 0.0;
    let mut avf_sdc = 0.0;
    let mut linear = 0.0;
    let mut quad = 0.0;
    for s in strata {
        if s.population == 0 {
            continue;
        }
        let w = s.weight(total);
        avf += w * s.estimate();
        avf_sdc += w * s.estimate_sdc();
        if s.dead {
            continue;
        }
        if s.seen == 0 {
            linear += w * 0.5;
        } else {
            let (lo, hi) = s.wilson();
            let half = (hi - lo) / 2.0;
            quad += (w * half) * (w * half);
        }
    }
    (avf, avf_sdc, linear + quad.sqrt())
}

/// Neyman allocation: the next round's quota per stratum, a pure
/// function of (stratum populations, cumulative stratum tallies,
/// target margin). Quotas at least double a stratum's sample per round
/// (geometric growth bounds both the round count and the overshoot
/// past a noisy pilot's variance estimate).
fn allocate(strata: &[Stratum], total: u128, target: f64) -> Vec<u64> {
    let weighted: Vec<f64> = strata
        .iter()
        .map(|s| {
            if s.population == 0 {
                0.0
            } else {
                s.weight(total) * s.deviation()
            }
        })
        .collect();
    let sum: f64 = weighted.iter().sum();
    if sum <= 0.0 {
        return vec![0; strata.len()];
    }
    // Infinite-population Neyman total for margin `target` at Z_99 —
    // conservative (the FPC only shrinks real margins below this).
    let n_total = (Z_99 / target) * (Z_99 / target) * sum * sum;
    strata
        .iter()
        .zip(&weighted)
        .map(|(s, &ws)| {
            if ws <= 0.0 {
                return 0;
            }
            let share = (n_total * ws / sum).ceil() as u64;
            let missing = share.saturating_sub(s.seen);
            let headroom = u64::try_from(s.population).unwrap_or(u64::MAX) - s.seen;
            // Geometric round growth: at most double (pilot-floored).
            missing.min(s.seen.max(s.pilot)).min(headroom)
        })
        .collect()
}

impl Campaign<'_> {
    /// Runs the adaptive engine on `structure` against this setup, with
    /// full telemetry: per-round `campaign.round` events, per-stratum
    /// sample counters, `campaign.convergence` events (with the
    /// per-stratum `strata` array) at every round boundary, and a
    /// closing `campaign.done`. The liveness axis needs a captured
    /// oracle and the transient model; without them the strata cross
    /// the other axes only.
    ///
    /// # Errors
    ///
    /// [`SimError::LaunchConfig`] naming the margin when `plan` is
    /// disabled (`target_margin <= 0`) or not finite; otherwise
    /// propagates replay failures that are not fault classifications.
    pub fn run_adaptive<H: TelemetryHook>(
        &self,
        structure: Structure,
        cfg: CampaignConfig,
        plan: SamplingPlan,
        hook: &H,
    ) -> Result<AdaptiveCampaign, SimError> {
        let (arch, workload, oracle) = (self.arch, self.workload, self.oracle());
        if !(plan.target_margin.is_finite() && plan.target_margin > 0.0) {
            return Err(SimError::LaunchConfig {
                reason: format!(
                    "adaptive sampling needs a positive finite target margin, got {}",
                    plan.target_margin
                ),
            });
        }
        let started = H::ENABLED.then(std::time::Instant::now);
        let space = self.space(structure, cfg.fault_model);
        let (cycles, population) = (space.cycles(), space.population());
        let liveness = oracle.filter(|_| cfg.fault_model == FaultModelKind::Transient);
        let uniform = required_sample_size(space.margin_population(), plan.target_margin, Z_99);
        let mut strata = strata(&space, liveness, cfg.seed, uniform);
        // Rounds drive their own convergence narration: cadence is pushed
        // past any real sample size and `emit_now` fires at each round
        // boundary instead, so the event stream narrates rounds, not raw
        // outcome counts.
        let mut monitor = crate::convergence::ConvergenceMonitor::new(
            workload.name(),
            &arch.name,
            structure,
            cfg.fault_model,
            space.margin_population(),
            0,
            u64::MAX,
        )
        .with_target(plan.target_margin);
        let mut round_cfg = cfg;
        round_cfg.convergence = 0;
        let mut rounds: Vec<RoundPlan> = Vec::new();
        let mut sampled: u64 = 0;
        let mut replayed: u64 = 0;
        let (mut avf, mut avf_sdc, mut margin) = post_stratified(&strata, population);
        // The pilot always runs: even when the dead-weight bound already
        // meets a loose target, an estimate backed by zero samples helps
        // nobody. Convergence is evaluated from round 1 on.
        let mut converged = false;
        // Round 0 draws the pilot; later rounds draw the Neyman quotas
        // computed from the tallies accumulated so far.
        let mut quotas: Vec<u64> = strata.iter().map(|s| s.pilot).collect();
        while !converged && (rounds.len() as u32) < MAX_ROUNDS && quotas.iter().any(|&q| q > 0) {
            // Draw this round's sites stratum by stratum: each stratum's
            // permutation stream yields the next undrawn in-stratum rank,
            // which the rank map turns into a concrete flat site index.
            let mut round_sites: Vec<FaultSite> = Vec::new();
            let mut site_stratum: Vec<usize> = Vec::new();
            let mut drawn: Vec<u64> = vec![0; strata.len()];
            for (h, s) in strata.iter_mut().enumerate() {
                for _ in 0..quotas[h] {
                    let Some(flat) = s.next_flat(&space) else {
                        break;
                    };
                    round_sites.push(space.decode(flat));
                    site_stratum.push(h);
                    drawn[h] += 1;
                }
            }
            if round_sites.is_empty() {
                break;
            }
            let replay = self.replay_with(&round_sites, Arming::Groups(1), round_cfg, hook)?;
            let round_replayed = round_sites.len() as u64 - replay.pruned;
            for (&h, &o) in site_stratum.iter().zip(&replay.outcomes) {
                strata[h].seen += 1;
                strata[h].tally.add(o);
                monitor.observe(o, &NoopHook);
            }
            sampled += round_sites.len() as u64;
            replayed += round_replayed;
            (avf, avf_sdc, margin) = post_stratified(&strata, population);
            converged = margin <= plan.target_margin;
            quotas = if converged {
                vec![0; strata.len()]
            } else {
                let mut q = allocate(&strata, population, plan.target_margin);
                if q.iter().all(|&x| x == 0) {
                    // The Wilson-quadrature margin can sit above the target
                    // while the normal-approximation allocation believes it
                    // is met. Force progress into the widest remaining
                    // contributor (deterministic: first maximum wins).
                    let widest = strata
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| !s.dead && !s.exhausted() && s.population > 0)
                        .max_by(|(ia, a), (ib, b)| {
                            let wa = a.weight(population) * (a.wilson().1 - a.wilson().0);
                            let wb = b.weight(population) * (b.wilson().1 - b.wilson().0);
                            wa.partial_cmp(&wb)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(ib.cmp(ia))
                        })
                        .map(|(i, _)| i);
                    if let Some(h) = widest {
                        let s = &strata[h];
                        let headroom = u64::try_from(s.population).unwrap_or(u64::MAX) - s.seen;
                        q[h] = s.seen.max(s.pilot).min(headroom);
                    }
                    q
                } else {
                    q
                }
            };
            for (s, &q) in strata.iter_mut().zip(&quotas) {
                s.planned = s.seen + q;
            }
            let planned_total: u64 = strata.iter().map(|s| s.planned).sum();
            let round = rounds.len() as u32;
            rounds.push(RoundPlan {
                round,
                quotas: drawn.clone(),
                sampled,
                replayed,
                margin_bits: margin.to_bits(),
            });
            if H::ENABLED {
                for (h, s) in strata.iter().enumerate() {
                    if drawn[h] > 0 {
                        let label = s.label.as_str();
                        hook.count(
                            &format!("campaign_stratum_sampled_total{{stratum=\"{label}\"}}"),
                            drawn[h],
                        );
                    }
                }
                hook.count("campaign_rounds_total", 1);
                hook.count("campaign_adaptive_replayed_total", round_replayed);
                hook.event(
                    &Event::new("campaign.round")
                        .field("workload", workload.name())
                        .field("device", arch.name.as_str())
                        .field("structure", structure_label(structure))
                        .field("fault_kind", cfg.fault_model.as_str())
                        .field("round", round as u64)
                        .field("sampled", sampled)
                        .field("replayed", replayed)
                        .field("avf", avf)
                        .field("margin", margin)
                        .field("target_margin", plan.target_margin)
                        .field("converged", converged),
                );
                monitor.set_planned(planned_total);
                monitor.set_strata(
                    strata
                        .iter()
                        .filter(|s| s.population > 0)
                        .map(|s| crate::convergence::StratumProgress {
                            label: s.label.clone(),
                            seen: s.seen,
                            planned: s.planned,
                        })
                        .collect(),
                );
                monitor.emit_now(hook);
            }
        }
        let result = AdaptiveCampaign {
            structure,
            tally: strata
                .iter()
                .fold(Tally::default(), |t, s| t.merge(&s.tally)),
            sampled,
            replayed,
            avf,
            avf_sdc,
            margin,
            target_margin: plan.target_margin,
            converged,
            population: space.margin_population(),
            golden_cycles: cycles,
            rounds,
            strata: strata
                .iter()
                .map(|s| {
                    let (lo, hi) = s.wilson();
                    StratumSnapshot {
                        label: s.label.clone(),
                        population: u64::try_from(s.population).unwrap_or(u64::MAX),
                        seen: s.seen,
                        planned: s.planned,
                        tally: s.tally,
                        avf: if s.seen == 0 {
                            0.0
                        } else {
                            s.tally.failures() as f64 / s.seen as f64
                        },
                        lo,
                        hi,
                    }
                })
                .collect(),
        };
        if let Some(started) = started {
            let seconds = started.elapsed().as_secs_f64();
            let per_second = if seconds > 0.0 {
                result.replayed as f64 / seconds
            } else {
                0.0
            };
            hook.observe("campaign_seconds", seconds);
            hook.gauge("campaign_injections_per_second", per_second);
            hook.event(
                &Event::new("campaign.done")
                    .field("workload", workload.name())
                    .field("device", arch.name.as_str())
                    .field("structure", structure.to_string())
                    .field("fault_kind", cfg.fault_model.as_str())
                    .field("injections", result.tally.total())
                    .field("masked", result.tally.masked)
                    .field("sdc", result.tally.sdc)
                    .field("due", result.tally.due)
                    .field("hang", result.tally.hang)
                    .field("avf", result.avf)
                    .field("golden_cycles", cycles)
                    .field("ladder_rungs", self.ladder().len())
                    .field("sampling", "adaptive")
                    .field("rounds", result.rounds.len() as u64)
                    .field("replayed", result.replayed)
                    .field("margin", result.margin)
                    .field("target_margin", result.target_margin)
                    .field("converged", result.converged)
                    .field("seconds", seconds)
                    .field("injections_per_second", per_second),
            );
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Capture;
    use gpu_archs::{geforce_gtx_480, quadro_fx_5600};
    use gpu_workloads::{Reduction, VectorAdd};
    use simt_sim::ArchConfig;

    /// The setup an adaptive transient campaign captures.
    const ORACLE: Capture = Capture {
        ace: None,
        oracle: true,
        writes: false,
    };

    /// The target the tests' campaigns aim for.
    const PLAN: SamplingPlan = SamplingPlan {
        target_margin: 0.05,
    };

    #[test]
    fn adaptive_campaign_reaches_a_loose_target() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let mut cfg = CampaignConfig::quick(11);
        cfg.threads = 2;
        let r = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, PLAN, &NoopHook)
            })
            .unwrap();
        assert!(r.converged, "margin {} vs target 0.05", r.margin);
        assert!(r.margin <= 0.05);
        assert_eq!(r.tally.total(), r.sampled);
        assert!(r.replayed <= r.sampled);
        assert!(!r.rounds.is_empty());
        assert_eq!(
            r.rounds.last().unwrap().sampled,
            r.sampled,
            "rounds narrate the whole campaign"
        );
        let strata_seen: u64 = r.strata.iter().map(|s| s.seen).sum();
        assert_eq!(strata_seen, r.sampled, "every sample belongs to a stratum");
        assert!((0.0..=1.0).contains(&r.avf));
        assert!(r.avf_sdc <= r.avf + 1e-12);
    }

    #[test]
    fn stratum_populations_partition_the_site_space() {
        let arch = geforce_gtx_480();
        let w = VectorAdd::new(1024, 3);
        let cfg = CampaignConfig::quick(3);
        let r = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, PLAN, &NoopHook)
            })
            .unwrap();
        let total: u64 = r.strata.iter().map(|s| s.population).sum();
        assert_eq!(total, r.population, "strata must tile the population");
        let dead = r.strata.iter().find(|s| s.label == "dead").unwrap();
        assert!(
            dead.population > r.population / 2,
            "vectoradd leaves most of the RF dead ({} of {})",
            dead.population,
            r.population
        );
        assert_eq!(dead.tally.failures(), 0, "dead samples can never fail");
    }

    #[test]
    fn the_dead_map_ranks_every_site_the_oracle_calls_dead() {
        let arch = ArchConfig::small_test_gpu();
        let w = Reduction::new(128, 32, 2);
        let cfg = CampaignConfig::quick(2);
        let setup = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook).unwrap();
        let oracle = setup.oracle().unwrap();
        for structure in [Structure::VectorRegisterFile, Structure::LocalMemory] {
            let space = setup.space(structure, FaultModelKind::Transient);
            let table = strata(&space, Some(oracle), cfg.seed, 2000);
            let dead = table.last().filter(|s| s.dead).unwrap();
            // A brute-force scan in the map's (sm, word, cycle) order.
            let mut rank = 0;
            for sm in 0..space.sms() {
                for word in 0..space.words() {
                    for cycle in 0..space.cycles() {
                        if oracle.is_dead(FaultSite::new(structure, sm, word, 0, cycle)) {
                            let site = dead.map.site_of(rank);
                            assert_eq!(site, (sm, word, cycle), "{structure:?} rank {rank}");
                            rank += 1;
                        }
                    }
                }
            }
            assert_eq!(dead.map.word_cycles(), rank, "{structure:?}");
            assert!(
                rank < space.population() / 32,
                "{structure:?} has live sites"
            );
        }
    }

    #[test]
    fn allocation_is_a_pure_function_of_the_seed() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 7);
        let cfg = CampaignConfig::quick(7);
        let a = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, PLAN, &NoopHook)
            })
            .unwrap();
        let b = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, PLAN, &NoopHook)
            })
            .unwrap();
        assert_eq!(a.rounds, b.rounds, "same seed must yield the same rounds");
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.avf.to_bits(), b.avf.to_bits());
        assert_eq!(a.margin.to_bits(), b.margin.to_bits());
    }

    #[test]
    fn the_pilot_is_each_stratums_share_of_the_uniform_sample() {
        // The margin of a 100-injection uniform campaign, the one
        // `repro bench-campaign --smoke` compares against.
        let target = 0.1288;
        let arch = geforce_gtx_480();
        let w = VectorAdd::new(1024, 7);
        let cfg = CampaignConfig::quick(7);
        let plan = SamplingPlan::with_target(target);
        let r = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, plan, &NoopHook)
            })
            .unwrap();
        let uniform = required_sample_size(r.population, target, Z_99) as f64;
        for (s, &quota) in r.strata.iter().zip(&r.rounds[0].quotas) {
            let share = (s.population as f64 / r.population as f64 * uniform).ceil() as u64;
            assert!(
                quota <= share.clamp(1, MAX_PILOT),
                "{}: {quota} pilot draws for a share of {share}",
                s.label
            );
        }
        assert!(r.converged);
    }

    #[test]
    fn disabled_plan_rejected() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 1);
        let cfg = CampaignConfig::quick(1);
        let setup = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook).unwrap();
        for margin in [0.0, -0.05, f64::NAN, f64::INFINITY] {
            let plan = SamplingPlan::with_target(margin);
            let err = setup
                .run_adaptive(Structure::VectorRegisterFile, cfg, plan, &NoopHook)
                .unwrap_err();
            assert!(matches!(err, SimError::LaunchConfig { .. }), "{err:?}");
            assert!(err.to_string().contains(&format!("got {margin}")), "{err}");
        }
    }
}
