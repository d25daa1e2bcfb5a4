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
//!    intervals, fault-cycle quartile, bit half, and (optionally) the
//!    word-index region. Stratum weights are *exact* integer counts
//!    (live weights via [`LifetimeOracle::live_word_cycles_in`]), not
//!    estimates.
//! 2. **Pilot**: draw a small deterministic sample from every
//!    non-empty stratum.
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
use crate::stats::{Proportion, Z_99};
use grel_telemetry::{Event, NoopHook, TelemetryHook};
use simt_sim::{FaultModelKind, FaultSite, SimError, Structure};

/// Which stratification axes the engine crosses. Axes that a campaign
/// cannot support are dropped silently: liveness needs a captured
/// [`LifetimeOracle`] and the transient model; an axis whose
/// cardinality exceeds the dimension it splits just yields empty
/// strata, which carry zero weight and are never drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrataSpec {
    /// Split provably-dead sites (per the lifetime oracle) into their
    /// own stratum. The dead stratum's AVF is exactly zero — oracle
    /// soundness, not an estimate — so it contributes nothing to the
    /// post-stratified margin and is never allocated beyond its pilot.
    pub liveness: bool,
    /// Split the live remainder by fault-cycle quartile.
    pub cycle: bool,
    /// Split by bit position (low half `0..16` vs high half `16..32`).
    pub bit: bool,
    /// Split by word-index (RF region / LDS address) quartile. Off by
    /// default: the cycle and bit axes capture most of the variance
    /// and fewer strata keep the pilot cheap.
    pub region: bool,
}

impl Default for StrataSpec {
    fn default() -> Self {
        StrataSpec {
            liveness: true,
            cycle: true,
            bit: true,
            region: false,
        }
    }
}

impl StrataSpec {
    /// Every axis on (8 live strata × 4 regions = 32 cells + dead).
    pub fn full() -> Self {
        StrataSpec {
            liveness: true,
            cycle: true,
            bit: true,
            region: true,
        }
    }

    /// No axes at all: one stratum, equivalent to uniform sampling
    /// with a margin-driven stop rule.
    pub fn none() -> Self {
        StrataSpec {
            liveness: false,
            cycle: false,
            bit: false,
            region: false,
        }
    }
}

/// The adaptive engine's knobs. A default plan is *disabled*
/// (`target_margin == 0.0`): the campaign keeps its fixed-`injections`
/// uniform path byte-for-byte, which is what lets the engine ride on
/// [`crate::study::StudyConfig`] without disturbing any baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPlan {
    /// Target half-width of the post-stratified 99 % AVF interval; the
    /// engine stops as soon as its margin is at or below this. `0.0`
    /// disables the engine entirely.
    pub target_margin: f64,
    /// Pilot draws per non-empty stratum (clamped to the stratum
    /// population; at least 1). The default is deliberately lean —
    /// with the default nine-stratum partition a pilot of 8 replays at
    /// most 64 live sites, and rounds grow geometrically from there —
    /// because every pilot site is spent before any variance is known.
    pub pilot: u32,
    /// Stratification axes.
    pub strata: StrataSpec,
}

impl Default for SamplingPlan {
    fn default() -> Self {
        SamplingPlan {
            target_margin: 0.0,
            pilot: 8,
            strata: StrataSpec::default(),
        }
    }
}

impl SamplingPlan {
    /// A plan targeting `margin` with default pilot and strata.
    pub fn with_target(margin: f64) -> Self {
        SamplingPlan {
            target_margin: margin,
            ..Self::default()
        }
    }

    /// Whether the adaptive engine is on (a positive target margin).
    pub fn enabled(&self) -> bool {
        self.target_margin > 0.0
    }
}

/// One stratum's final state.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSnapshot {
    /// Label (`live/c2/b0`, `dead`, `all`, …).
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
/// sites. Rectangular strata decode arithmetically; liveness strata
/// bisect the cumulative lengths of their explicit segment list.
enum RankMap {
    /// `sms × words × cycles` box (no liveness axis).
    Rect {
        sms: u32,
        word_lo: u32,
        words: u32,
        cycle_lo: u64,
        cycles: u64,
    },
    /// Explicit live or dead cycle runs; `cum[i]` is the number of
    /// word-cycle sites in `segs[..i]`.
    Segs {
        segs: Vec<WordCycleSegment>,
        cum: Vec<u64>,
    },
}

impl RankMap {
    fn from_segments(segs: Vec<WordCycleSegment>) -> Self {
        let mut cum = Vec::with_capacity(segs.len());
        let mut total = 0u64;
        for s in &segs {
            cum.push(total);
            total += s.len();
        }
        RankMap::Segs { segs, cum }
    }

    /// Word-cycle sites in the map.
    fn word_cycles(&self) -> u128 {
        match self {
            RankMap::Rect {
                sms, words, cycles, ..
            } => *sms as u128 * *words as u128 * *cycles as u128,
            RankMap::Segs { segs, cum } => match (segs.last(), cum.last()) {
                (Some(s), Some(&c)) => (c + s.len()) as u128,
                _ => 0,
            },
        }
    }

    /// The `rank`-th word-cycle site (rank < `word_cycles()`).
    fn site_of(&self, rank: u128) -> (u32, u32, u64) {
        match self {
            RankMap::Rect {
                word_lo,
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
                let word = word_lo + (rem / *cycles as u128) as u32;
                let cycle = cycle_lo + (rem % *cycles as u128) as u64;
                (sm, word, cycle)
            }
            RankMap::Segs { segs, cum } => {
                let rank = rank as u64;
                let i = cum.partition_point(|&c| c <= rank) - 1;
                let seg = &segs[i];
                (seg.sm, seg.word, seg.lo + (rank - cum[i]))
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

/// The stratum partition of one campaign's site space: axis
/// cardinalities, the site → stratum classifier and the exact weights.
struct Partition<'s> {
    space: &'s SiteSpace,
    liveness: bool,
    cyc_parts: u32,
    bit_parts: u32,
    reg_parts: u32,
}

/// `ceil(a·b / c)` over integers: the lower edge of part `a` when `c`
/// units are split into `b` parts by `floor(x·b/c)`.
fn part_lo(part: u128, parts: u128, units: u128) -> u128 {
    (part * units).div_ceil(parts)
}

impl Partition<'_> {
    fn live_cells(&self) -> usize {
        (self.cyc_parts * self.bit_parts * self.reg_parts) as usize
    }

    fn count(&self) -> usize {
        self.live_cells() + usize::from(self.liveness)
    }

    fn cell_label(&self, cell: usize) -> String {
        let r = cell as u32 % self.reg_parts;
        let b = (cell as u32 / self.reg_parts) % self.bit_parts;
        let q = cell as u32 / (self.reg_parts * self.bit_parts);
        let mut parts: Vec<String> = Vec::new();
        if self.liveness {
            parts.push("live".to_string());
        }
        if self.cyc_parts > 1 {
            parts.push(format!("c{q}"));
        }
        if self.bit_parts > 1 {
            parts.push(format!("b{b}"));
        }
        if self.reg_parts > 1 {
            parts.push(format!("r{r}"));
        }
        if parts.is_empty() {
            "all".to_string()
        } else {
            parts.join("/")
        }
    }

    /// Builds the stratum table: exact populations, rank→site maps and
    /// seed-stable per-stratum permutation streams. The bit axis splits
    /// the space's per-`(word, cycle)` lanes (32 bits for storage,
    /// `4 targets × 32 bits` for control).
    fn strata(&self, oracle: Option<&LifetimeOracle>, seed: u64) -> Vec<Stratum> {
        let (space, lanes) = (self.space, self.space.lanes() as u128);
        let bits_per_part = lanes / self.bit_parts as u128;
        let bits_span = 32 / self.bit_parts;
        let mut out: Vec<Stratum> = Vec::with_capacity(self.count());
        let mut live_total: u128 = 0;
        for cell in 0..self.live_cells() {
            let r = cell as u128 % self.reg_parts as u128;
            let b = (cell as u32 / self.reg_parts) % self.bit_parts;
            let q = cell as u128 / (self.reg_parts as u128 * self.bit_parts as u128);
            let (words, cycles) = (space.words() as u128, space.cycles() as u128);
            let w_lo = part_lo(r, self.reg_parts as u128, words) as u32;
            let w_hi = part_lo(r + 1, self.reg_parts as u128, words) as u32;
            let c_lo = part_lo(q, self.cyc_parts as u128, cycles) as u64;
            let c_hi = part_lo(q + 1, self.cyc_parts as u128, cycles) as u64;
            let map = match (self.liveness, oracle) {
                (true, Some(oracle)) => {
                    let map = RankMap::from_segments(oracle.segments_in(
                        space.structure(),
                        w_lo,
                        w_hi,
                        c_lo,
                        c_hi,
                        true,
                    ));
                    debug_assert_eq!(
                        map.word_cycles(),
                        oracle.live_word_cycles_in(space.structure(), w_lo, w_hi, c_lo, c_hi)
                            as u128,
                        "segment list and live count must describe the same set"
                    );
                    map
                }
                _ => RankMap::Rect {
                    sms: space.sms(),
                    word_lo: w_lo,
                    words: w_hi.saturating_sub(w_lo),
                    cycle_lo: c_lo,
                    cycles: c_hi.saturating_sub(c_lo),
                },
            };
            let population = map.word_cycles() * bits_per_part;
            live_total += population;
            out.push(Stratum {
                label: self.cell_label(cell),
                population,
                seen: 0,
                planned: 0,
                tally: Tally::default(),
                dead: false,
                bits_span,
                bit_lo: b * bits_span,
                stream: FlatStream::new(population, stratum_seed(seed, cell)),
                map,
            });
        }
        if self.liveness {
            let oracle = oracle.expect("liveness strata require an oracle");
            let map = RankMap::from_segments(oracle.segments_in(
                space.structure(),
                0,
                space.words(),
                0,
                space.cycles(),
                false,
            ));
            let dead_population = map.word_cycles() * lanes;
            debug_assert_eq!(
                dead_population,
                space.population() - live_total,
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
                map,
            });
        }
        out
    }
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
/// target margin, pilot). Quotas at least double a stratum's sample
/// per round (geometric growth bounds both the round count and the
/// overshoot past a noisy pilot's variance estimate).
fn allocate(strata: &[Stratum], total: u128, target: f64, pilot: u64) -> Vec<u64> {
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
            missing.min(s.seen.max(pilot)).min(headroom)
        })
        .collect()
}

impl Campaign<'_> {
    /// Runs the adaptive engine on `structure` against this setup, with
    /// full telemetry: per-round `campaign.round` events, per-stratum
    /// sample counters, `campaign.convergence` events (with the
    /// per-stratum `strata` array) at every round boundary, and a
    /// closing `campaign.done`. The liveness axis needs a captured
    /// oracle; without one the strata cross the other axes only.
    ///
    /// # Errors
    ///
    /// Propagates replay failures that are not fault classifications.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is disabled (`target_margin <= 0`) or not
    /// finite.
    pub fn run_adaptive<H: TelemetryHook>(
        &self,
        structure: Structure,
        cfg: CampaignConfig,
        plan: SamplingPlan,
        hook: &H,
    ) -> Result<AdaptiveCampaign, SimError> {
        let (arch, workload, oracle) = (self.arch, self.workload, self.oracle());
        assert!(
            plan.target_margin.is_finite() && plan.target_margin > 0.0,
            "adaptive sampling needs a positive finite target margin"
        );
        let started = H::ENABLED.then(std::time::Instant::now);
        let space = self.space(structure, cfg.fault_model);
        let (cycles, population) = (space.cycles(), space.population());
        let spec = plan.strata;
        let partition = Partition {
            space: &space,
            liveness: spec.liveness
                && oracle.is_some()
                && cfg.fault_model == FaultModelKind::Transient,
            cyc_parts: if spec.cycle { 4 } else { 1 },
            bit_parts: if spec.bit { 2 } else { 1 },
            reg_parts: if spec.region { 4 } else { 1 },
        };
        let mut strata = partition.strata(oracle, cfg.seed);
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
        let pilot = plan.pilot.max(1) as u64;
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
        let mut quotas: Vec<u64> = strata
            .iter()
            .map(|s| pilot.min(u64::try_from(s.population).unwrap_or(u64::MAX)))
            .collect();
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
                let mut q = allocate(&strata, population, plan.target_margin, pilot);
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
                        q[h] = s.seen.max(pilot).min(headroom);
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
    use gpu_workloads::VectorAdd;

    /// The setup an adaptive transient campaign captures.
    const ORACLE: Capture = Capture {
        ace: None,
        oracle: true,
        writes: false,
    };

    fn plan(target: f64) -> SamplingPlan {
        SamplingPlan {
            target_margin: target,
            pilot: 8,
            strata: StrataSpec::default(),
        }
    }

    #[test]
    fn default_plan_is_disabled() {
        assert!(!SamplingPlan::default().enabled());
        assert!(SamplingPlan::with_target(0.05).enabled());
    }

    #[test]
    fn adaptive_campaign_reaches_a_loose_target() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 11);
        let mut cfg = CampaignConfig::quick(11);
        cfg.threads = 2;
        let r = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, plan(0.05), &NoopHook)
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
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, plan(0.05), &NoopHook)
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
    fn allocation_is_a_pure_function_of_the_seed() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 7);
        let cfg = CampaignConfig::quick(7);
        let a = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, plan(0.05), &NoopHook)
            })
            .unwrap();
        let b = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| {
                setup.run_adaptive(Structure::VectorRegisterFile, cfg, plan(0.05), &NoopHook)
            })
            .unwrap();
        assert_eq!(a.rounds, b.rounds, "same seed must yield the same rounds");
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.avf.to_bits(), b.avf.to_bits());
        assert_eq!(a.margin.to_bits(), b.margin.to_bits());
    }

    #[test]
    fn no_strata_spec_still_converges() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 5);
        let cfg = CampaignConfig::quick(5);
        let p = SamplingPlan {
            target_margin: 0.25,
            pilot: 8,
            strata: StrataSpec::none(),
        };
        let r = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook)
            .and_then(|setup| setup.run_adaptive(Structure::VectorRegisterFile, cfg, p, &NoopHook))
            .unwrap();
        assert!(r.converged);
        assert_eq!(r.strata.len(), 1);
        assert_eq!(r.strata[0].label, "all");
    }

    #[test]
    #[should_panic(expected = "positive finite target margin")]
    fn disabled_plan_rejected() {
        let arch = quadro_fx_5600();
        let w = VectorAdd::new(256, 1);
        let cfg = CampaignConfig::quick(1);
        let _ = Campaign::new(&arch, &w, &cfg, ORACLE, &NoopHook).and_then(|setup| {
            setup.run_adaptive(
                Structure::VectorRegisterFile,
                cfg,
                SamplingPlan::default(),
                &NoopHook,
            )
        });
    }
}
