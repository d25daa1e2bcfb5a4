//! The batch plane of a bit-plane batched replay: where each fault
//! scenario's divergence and its fork requests are kept.
//!
//! A batched pass runs up to [`MAX_BATCH_SCENARIOS`] transient sites as
//! *scenarios* of one golden simulation. The device executes pure golden
//! state; a scenario's would-be divergence lives in sparse overlay
//! cells, in one word map type per shard: each SM keeps one map per
//! storage structure and global memory keeps one. A scenario whose
//! divergence would change control flow, addressing, an atomic or host
//! logic asks to fork by setting its bit in the device's one pending-fork
//! mask, [`BatchPlane`]'s; the batch driver drains that mask alone
//! through [`Gpu::take_scenario_forks`](crate::Gpu::take_scenario_forks).

use crate::fault::{FaultSite, Structure};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum scenarios per batched replay pass: one bit of a `u64` mask
/// per scenario.
pub const MAX_BATCH_SCENARIOS: usize = 64;

/// The mask with one bit set for each of the first `n` scenarios.
///
/// # Example
/// ```
/// use simt_sim::overlay::scenario_mask;
/// assert_eq!(scenario_mask(3), 0b111);
/// assert_eq!(scenario_mask(64), u64::MAX);
/// ```
pub fn scenario_mask(n: usize) -> u64 {
    if n >= MAX_BATCH_SCENARIOS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One overlaid storage word of a batched replay: the set of fault
/// scenarios whose (hypothetical) faulty execution holds a value
/// different from the golden word, plus those values.
///
/// The invariant the batched pass maintains is that a cell never stores
/// a value equal to the current golden word: a write that re-converges a
/// scenario simply drops its entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OverlayCell {
    /// Bit `s` set when scenario `s` holds a divergent value here.
    pub(crate) mask: u64,
    /// `(scenario, value)` pairs, one per set bit of `mask`.
    vals: Vec<(u8, u32)>,
}

impl OverlayCell {
    /// Scenario `s`'s divergent value, if it has one.
    pub(crate) fn get(&self, s: u8) -> Option<u32> {
        self.vals.iter().find(|&&(i, _)| i == s).map(|&(_, v)| v)
    }

    /// Sets scenario `s`'s divergent value (replacing any previous one).
    pub(crate) fn set(&mut self, s: u8, value: u32) {
        if let Some(slot) = self.vals.iter_mut().find(|(i, _)| *i == s) {
            slot.1 = value;
        } else {
            self.vals.push((s, value));
        }
        self.mask |= 1 << s;
    }

    /// Drops every scenario in `mask` from the cell.
    pub(crate) fn drop_scenarios(&mut self, mask: u64) {
        if self.mask & mask == 0 {
            return;
        }
        self.vals.retain(|&(i, _)| mask >> i & 1 == 0);
        self.mask &= !mask;
    }

    /// The `(scenario, value)` pairs.
    pub(crate) fn entries(&self) -> &[(u8, u32)] {
        &self.vals
    }
}

/// One overlay shard: the divergent cells of one storage structure's
/// words, keyed by word index. An empty cell is never kept.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlayMap {
    cells: HashMap<u32, OverlayCell>,
}

impl OverlayMap {
    /// The cell of word `w`, if any scenario diverges there.
    pub(crate) fn cell(&self, w: u32) -> Option<&OverlayCell> {
        self.cells.get(&w)
    }

    /// The scenarios that diverge at word `w`.
    pub(crate) fn mask(&self, w: u32) -> u64 {
        self.cell(w).map_or(0, |c| c.mask)
    }

    /// Records scenario `s` holding `value` at word `w`.
    pub(crate) fn assert_value(&mut self, w: u32, s: u8, value: u32) {
        self.cells.entry(w).or_default().set(s, value);
    }

    /// Architectural overwrite of word `w`: every scenario's execution
    /// performs the same write, so all divergence there dies (divergent
    /// results re-assert afterwards).
    pub(crate) fn clear_word(&mut self, w: u32) {
        self.cells.remove(&w);
    }

    /// Clears every cell (an inter-launch storage reset zeroes golden
    /// and faulty state alike).
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
    }

    /// Removes the scenarios in `mask` from every cell (they forked into
    /// private replays; their overlays are dead weight from here on).
    pub(crate) fn drop_scenarios(&mut self, mask: u64) {
        self.cells.retain(|_, c| {
            c.drop_scenarios(mask);
            c.mask != 0
        });
    }

    /// Scenario `s`'s divergent words as `(word, value)`, for
    /// materializing its private state out of a shared-pass snapshot.
    pub(crate) fn scenario_values(&self, s: u8) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.cells
            .iter()
            .filter_map(move |(&w, c)| c.get(s).map(|v| (w, v)))
    }
}

/// An SM's overlay shard: one [`OverlayMap`] per storage structure.
#[derive(Debug, Clone, Default)]
pub(crate) struct SmOverlay([OverlayMap; 3]);

impl SmOverlay {
    /// The map of `structure`'s words.
    pub(crate) fn map(&self, structure: Structure) -> &OverlayMap {
        &self.0[structure as usize]
    }

    /// The map of `structure`'s words, writable.
    pub(crate) fn map_mut(&mut self, structure: Structure) -> &mut OverlayMap {
        &mut self.0[structure as usize]
    }

    /// All three maps, for sweeps that treat every structure alike.
    pub(crate) fn maps_mut(&mut self) -> &mut [OverlayMap; 3] {
        &mut self.0
    }
}

/// The global-memory overlay shard: its [`OverlayMap`], keyed by word
/// index, plus the scenarios that host-side reads touched. Host reads
/// take `&self`, so their record is atomic and accumulates until the
/// session drains it after each plan step: into forks for a mid-plan
/// read, or into the final-output divergence mask when the read belongs
/// to a verbatim plan's output collection.
#[derive(Debug, Default)]
pub(crate) struct GlobalOverlay {
    /// The divergent words.
    pub(crate) map: OverlayMap,
    /// Scenarios whose divergent words were read by the host since the
    /// last drain.
    host_touched: AtomicU64,
}

impl Clone for GlobalOverlay {
    fn clone(&self) -> Self {
        GlobalOverlay {
            map: self.map.clone(),
            host_touched: AtomicU64::new(self.host_touched.load(Ordering::Relaxed)),
        }
    }
}

impl GlobalOverlay {
    /// Marks every scenario divergent at word `w` as read by the host:
    /// its faulty value is architecturally observable from this read.
    pub(crate) fn note_host_read(&self, w: u32) {
        let mask = self.map.mask(w);
        if mask != 0 {
            self.host_touched.fetch_or(mask, Ordering::Relaxed);
        }
    }

    /// Drains the scenarios touched by host reads since the last drain.
    pub(crate) fn take_host_touches(&mut self) -> u64 {
        std::mem::take(self.host_touched.get_mut())
    }
}

/// The master state of one bit-plane batched replay pass: up to
/// [`MAX_BATCH_SCENARIOS`] transient sites sharing a single golden
/// simulation, each tracked as a *scenario* (a bit of the `u64` masks).
///
/// A scenario leaves the pass — *forks* into a private replay — only
/// when its divergence becomes architecturally consequential: a
/// divergent predicate or address, an atomic touching an overlaid word,
/// or a host read of one. Every such trigger sets the scenario's bit in
/// the one pending-fork mask. A scenario still unforked when the
/// workload finishes is provably Masked. The default plane has no sites:
/// the device is not batching.
#[derive(Debug, Clone, Default)]
pub struct BatchPlane {
    /// The batched sites, scenario `s` = `sites[s]`.
    pub sites: Vec<FaultSite>,
    /// Scenarios that forked into private replays (overlays dropped).
    pub forked: u64,
    /// Scenarios whose flip has been asserted into the overlays.
    pub armed: u64,
    /// Scenarios a fork trigger asked to leave the pass since the last
    /// drain: the device's one pending-fork mask.
    pub(crate) pending_forks: u64,
}

impl BatchPlane {
    /// Builds a plane over `sites` (all transient, at most 64).
    ///
    /// # Panics
    ///
    /// If `sites` is empty, exceeds [`MAX_BATCH_SCENARIOS`], or contains
    /// a non-transient site (the overlay soundness argument — a clean
    /// overwrite kills divergence — only holds for transient flips).
    pub fn new(sites: Vec<FaultSite>) -> Self {
        assert!(
            !sites.is_empty() && sites.len() <= MAX_BATCH_SCENARIOS,
            "batch of {} sites (expected 1..={MAX_BATCH_SCENARIOS})",
            sites.len()
        );
        assert!(
            sites.iter().all(FaultSite::is_transient),
            "batched replay is kind-gated to transient flips"
        );
        BatchPlane {
            sites,
            ..BatchPlane::default()
        }
    }

    /// Mask with one bit set per scenario in the plane.
    pub fn all_mask(&self) -> u64 {
        scenario_mask(self.sites.len())
    }

    /// Drains the pending-fork mask: marks the requested scenarios that
    /// had not forked yet as forked and returns them.
    pub(crate) fn take_forks(&mut self) -> u64 {
        let new = std::mem::take(&mut self.pending_forks) & !self.forked & self.all_mask();
        self.forked |= new;
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_keeps_only_divergent_cells() {
        let mut m = OverlayMap::default();
        m.assert_value(7, 0, 10);
        m.assert_value(7, 3, 13);
        m.assert_value(9, 3, 99);
        assert_eq!(m.mask(7), 0b1001);
        assert_eq!(m.cell(7).unwrap().get(3), Some(13));
        m.drop_scenarios(1 << 3);
        assert_eq!(m.mask(7), 0b1);
        assert!(m.cell(9).is_none(), "a cell left empty is swept");
        assert_eq!(m.scenario_values(0).collect::<Vec<_>>(), [(7, 10)]);
        m.clear_word(7);
        assert_eq!(m.mask(7), 0);
    }

    #[test]
    fn plane_drains_each_fork_once() {
        let site = FaultSite::new(Structure::VectorRegisterFile, 0, 0, 0, 0);
        let mut plane = BatchPlane::new(vec![site; 3]);
        plane.pending_forks = 0b1010;
        assert_eq!(plane.take_forks(), 0b0010, "bit 3 is off the plane");
        plane.pending_forks = 0b0011;
        assert_eq!(plane.take_forks(), 0b0001, "scenario 1 forked already");
        assert_eq!(plane.forked, 0b0011);
        assert_eq!(
            BatchPlane::default().take_forks(),
            0,
            "an idle plane forks nothing"
        );
    }
}
