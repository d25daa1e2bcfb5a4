//! Fault sites and fault models: where, when and *how* a fault lands.
//!
//! The reproduced study injects transient single-bit flips in storage
//! arrays. This module generalises that into a site = structure × kind ×
//! persistence taxonomy:
//!
//! * [`FaultKind::TransientFlip`] — today's behaviour, a one-shot XOR of
//!   one storage bit (bit-identical to the pre-refactor campaigns);
//! * [`FaultKind::StuckAt0`] / [`FaultKind::StuckAt1`] — permanent cell
//!   faults that re-assert on every write through the SM's write-intercept
//!   hooks, so a clean overwrite does *not* mask them;
//! * [`FaultKind::Control`] — corruption of parallelism-management state
//!   (warp-scheduler slot timing, per-warp active masks, scoreboard
//!   entries, block barrier counters), the fault class that dominates
//!   hangs and DUEs on real devices.

use std::fmt;
use std::str::FromStr;

/// A fault-injectable storage structure of an SM.
///
/// The reproduced study targets the vector register file (Fig. 1) and the
/// local/shared memory (Fig. 2); the scalar register file is an extension
/// available on Southern-Islands-style devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Structure {
    /// The per-SM vector register file.
    VectorRegisterFile,
    /// The per-SM local/shared memory (LDS).
    LocalMemory,
    /// The per-SM scalar register file (AMD-style architectures only).
    ScalarRegisterFile,
}

impl Structure {
    /// Every structure, in declaration order (the order of
    /// [`Structure::index`]).
    pub const ALL: [Structure; 3] = [
        Structure::VectorRegisterFile,
        Structure::LocalMemory,
        Structure::ScalarRegisterFile,
    ];

    /// Position within [`Structure::ALL`]: the key of every per-structure
    /// array (allocators, lifetime trackers, phase ordinals).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable short token used in site strings, span paths and telemetry
    /// labels (`rf`, `lds`, `srf`); parse it back with [`str::parse`].
    ///
    /// # Example
    /// ```
    /// use simt_sim::Structure;
    /// for s in Structure::ALL {
    ///     assert_eq!(s.label().parse::<Structure>(), Ok(s));
    /// }
    /// ```
    pub fn label(self) -> &'static str {
        match self {
            Structure::VectorRegisterFile => "rf",
            Structure::LocalMemory => "lds",
            Structure::ScalarRegisterFile => "srf",
        }
    }
}

impl FromStr for Structure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Structure::ALL
            .into_iter()
            .find(|st| st.label() == s)
            .ok_or_else(|| format!("unknown structure {s:?} (expected rf, lds or srf)"))
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Structure::VectorRegisterFile => "register file",
            Structure::LocalMemory => "local memory",
            Structure::ScalarRegisterFile => "scalar register file",
        })
    }
}

/// Which piece of parallelism-management state a control fault corrupts.
///
/// All four targets exist in the SM model already: warp slots carry their
/// issue timing and active mask, the per-warp scoreboard gates issue on
/// operand readiness, and each resident block counts warps parked at its
/// barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ControlTarget {
    /// The warp slot's issue timing (`next_issue`): a flipped high bit
    /// pushes the warp's next issue far into the future — a hang.
    SchedulerSlot,
    /// The warp's active lane mask: lanes silently join or leave the
    /// computation, or the warp arrives divergent at a barrier.
    ActiveMask,
    /// A vector-register scoreboard entry: issue gating goes wrong, the
    /// warp stalls on a never-ready operand or issues too early.
    Scoreboard,
    /// The resident block's barrier arrival counter: the release condition
    /// `at_barrier == running_warps` may never hold again — a deadlock.
    BarrierCounter,
}

impl ControlTarget {
    /// Every control target, in population-index order.
    pub const ALL: [ControlTarget; 4] = [
        ControlTarget::SchedulerSlot,
        ControlTarget::ActiveMask,
        ControlTarget::Scoreboard,
        ControlTarget::BarrierCounter,
    ];

    /// Stable short token used in site strings and telemetry labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            ControlTarget::SchedulerSlot => "sched",
            ControlTarget::ActiveMask => "mask",
            ControlTarget::Scoreboard => "sboard",
            ControlTarget::BarrierCounter => "barrier",
        }
    }

    /// Position within [`ControlTarget::ALL`] (for flat population
    /// indices).
    pub fn index(&self) -> u64 {
        match self {
            ControlTarget::SchedulerSlot => 0,
            ControlTarget::ActiveMask => 1,
            ControlTarget::Scoreboard => 2,
            ControlTarget::BarrierCounter => 3,
        }
    }
}

impl fmt::Display for ControlTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ControlTarget {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sched" => Ok(ControlTarget::SchedulerSlot),
            "mask" => Ok(ControlTarget::ActiveMask),
            "sboard" => Ok(ControlTarget::Scoreboard),
            "barrier" => Ok(ControlTarget::BarrierCounter),
            other => Err(format!(
                "unknown control target {other:?} (expected sched, mask, sboard or barrier)"
            )),
        }
    }
}

/// How an injected fault behaves over time — the *kind* axis of the
/// site = structure × kind × persistence taxonomy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// A one-shot single-bit XOR of a storage word — the paper's model.
    #[default]
    TransientFlip,
    /// A storage cell permanently reads 0: forced at injection and
    /// re-asserted on every subsequent write of its word.
    StuckAt0,
    /// A storage cell permanently reads 1 (re-asserts like
    /// [`FaultKind::StuckAt0`]).
    StuckAt1,
    /// A one-shot corruption of parallelism-management state.
    Control(ControlTarget),
}

impl FaultKind {
    /// Stable token used in site strings, event fields and counter labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::TransientFlip => "transient",
            FaultKind::StuckAt0 => "stuck0",
            FaultKind::StuckAt1 => "stuck1",
            FaultKind::Control(ControlTarget::SchedulerSlot) => "ctrl-sched",
            FaultKind::Control(ControlTarget::ActiveMask) => "ctrl-mask",
            FaultKind::Control(ControlTarget::Scoreboard) => "ctrl-sboard",
            FaultKind::Control(ControlTarget::BarrierCounter) => "ctrl-barrier",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transient" => Ok(FaultKind::TransientFlip),
            "stuck0" => Ok(FaultKind::StuckAt0),
            "stuck1" => Ok(FaultKind::StuckAt1),
            other => {
                if let Some(t) = other.strip_prefix("ctrl-") {
                    Ok(FaultKind::Control(t.parse()?))
                } else {
                    Err(format!(
                        "unknown fault kind {other:?} (expected transient, stuck0, \
                         stuck1 or ctrl-<sched|mask|sboard|barrier>)"
                    ))
                }
            }
        }
    }
}

/// The campaign-level fault-model selector: which *family* of kinds a
/// campaign samples from (`repro --fault-model ...`).
///
/// [`FaultModelKind::Control`] fans out over every [`ControlTarget`];
/// the other selectors map to exactly one [`FaultKind`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultModelKind {
    /// Transient single-bit flips (the default; the paper's model).
    #[default]
    Transient,
    /// Permanent stuck-at-0 cell faults.
    Stuck0,
    /// Permanent stuck-at-1 cell faults.
    Stuck1,
    /// Control-unit faults over all four [`ControlTarget`]s.
    Control,
}

impl FaultModelKind {
    /// Every selector, in CLI/report order.
    pub const ALL: [FaultModelKind; 4] = [
        FaultModelKind::Transient,
        FaultModelKind::Stuck0,
        FaultModelKind::Stuck1,
        FaultModelKind::Control,
    ];

    /// Stable token used by `--fault-model`, event fields and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultModelKind::Transient => "transient",
            FaultModelKind::Stuck0 => "stuck0",
            FaultModelKind::Stuck1 => "stuck1",
            FaultModelKind::Control => "control",
        }
    }

    /// The storage-fault kind this selector injects, or `None` for the
    /// control family (which fans out over [`ControlTarget::ALL`]).
    pub fn storage_kind(&self) -> Option<FaultKind> {
        match self {
            FaultModelKind::Transient => Some(FaultKind::TransientFlip),
            FaultModelKind::Stuck0 => Some(FaultKind::StuckAt0),
            FaultModelKind::Stuck1 => Some(FaultKind::StuckAt1),
            FaultModelKind::Control => None,
        }
    }
}

impl fmt::Display for FaultModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "transient" => Ok(FaultModelKind::Transient),
            "stuck0" => Ok(FaultModelKind::Stuck0),
            "stuck1" => Ok(FaultModelKind::Stuck1),
            "control" => Ok(FaultModelKind::Control),
            other => Err(format!(
                "unknown fault model {other:?} (expected transient, stuck0, stuck1 or control)"
            )),
        }
    }
}

/// Rejected [`FaultSite::try_new`] input: the bit is outside its word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidFaultSite {
    /// The offending bit index.
    pub bit: u8,
}

impl fmt::Display for InvalidFaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bit {} out of range (0..32)", self.bit)
    }
}

impl std::error::Error for InvalidFaultSite {}

/// A fault site: structure, SM, physical bit, the device cycle at which
/// the fault is injected, and the fault kind.
///
/// Cycles count the *application* clock: monotonically increasing across
/// all launches of a workload on one [`crate::Gpu`] instance, so a site
/// drawn uniformly over the fault-free total exercises every kernel of a
/// multi-launch workload proportionally to its duration.
///
/// For [`FaultKind::Control`] sites the `word`/`bit` pair addresses
/// control state instead of storage: `word` selects the warp slot (or
/// block slot for barrier counters) and `bit` the flipped bit of the
/// targeted field.
///
/// # Example
/// ```
/// use simt_sim::{FaultKind, FaultSite, Structure};
/// let s = FaultSite::new(Structure::VectorRegisterFile, 3, 128, 17, 40_000);
/// assert_eq!(s.bit_index(), 128 * 32 + 17);
/// assert_eq!(s.kind, FaultKind::TransientFlip);
/// assert!(FaultSite::try_new(Structure::LocalMemory, 0, 0, 32, 0, FaultKind::StuckAt1).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultSite {
    /// Target structure.
    pub structure: Structure,
    /// Target SM / compute unit index.
    pub sm: u32,
    /// Physical word index within the structure (warp/block slot for
    /// control faults).
    pub word: u32,
    /// Bit within the word (0..32).
    pub bit: u8,
    /// Application cycle at which the fault is injected.
    pub cycle: u64,
    /// How the fault behaves (transient, stuck-at, control).
    pub kind: FaultKind,
}

impl FaultSite {
    /// A transient-flip site (the paper's model).
    ///
    /// Debug builds assert `bit < 32`; use [`FaultSite::try_new`] to
    /// validate untrusted input.
    pub fn new(structure: Structure, sm: u32, word: u32, bit: u8, cycle: u64) -> Self {
        debug_assert!(bit < 32, "bit {bit} out of range (0..32)");
        FaultSite {
            structure,
            sm,
            word,
            bit,
            cycle,
            kind: FaultKind::TransientFlip,
        }
    }

    /// A validated site of any kind.
    ///
    /// # Errors
    ///
    /// [`InvalidFaultSite`] if `bit >= 32`.
    pub fn try_new(
        structure: Structure,
        sm: u32,
        word: u32,
        bit: u8,
        cycle: u64,
        kind: FaultKind,
    ) -> Result<Self, InvalidFaultSite> {
        if bit >= 32 {
            return Err(InvalidFaultSite { bit });
        }
        Ok(FaultSite {
            structure,
            sm,
            word,
            bit,
            cycle,
            kind,
        })
    }

    /// The same site with a different fault kind (builder style).
    pub fn with_kind(mut self, kind: FaultKind) -> Self {
        self.kind = kind;
        self
    }

    /// Flat bit index within the structure (`word * 32 + bit`).
    pub fn bit_index(&self) -> u64 {
        self.word as u64 * 32 + self.bit as u64
    }

    /// The site is a transient flip (the only kind the overwrite-masking
    /// fast paths may prune).
    pub fn is_transient(&self) -> bool {
        self.kind == FaultKind::TransientFlip
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sm{} word {} bit {} @ cycle {}",
            self.structure, self.sm, self.word, self.bit, self.cycle
        )?;
        // Transient sites keep the historical rendering byte-identical;
        // every other kind is annotated so traces are unambiguous.
        if self.kind != FaultKind::TransientFlip {
            write!(f, " [{}]", self.kind)?;
        }
        Ok(())
    }
}

impl FromStr for FaultSite {
    type Err = String;

    /// Parses the `sm:struct:word:bit:cycle[:kind]` site grammar used by
    /// `repro trace --site`; the kind component defaults to `transient`.
    ///
    /// # Example
    /// ```
    /// use simt_sim::{FaultKind, FaultSite};
    /// let s: FaultSite = "3:rf:128:17:40000:stuck0".parse().unwrap();
    /// assert_eq!(s.kind, FaultKind::StuckAt0);
    /// assert!("3:rf:0:32:0".parse::<FaultSite>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 5 && parts.len() != 6 {
            return Err(format!(
                "expected sm:struct:word:bit:cycle[:kind] (5-6 fields), got {} in {s:?}",
                parts.len()
            ));
        }
        let structure = parts[1].parse::<Structure>()?;
        let num = |name: &str, v: &str| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("invalid {name} {v:?} in {s:?}"))
        };
        let num32 = |name: &str, v: &str| -> Result<u32, String> {
            // Reject (rather than truncate) values over u32::MAX.
            v.parse::<u32>()
                .map_err(|_| format!("invalid {name} {v:?} in {s:?}"))
        };
        let kind = match parts.get(5) {
            Some(k) => k.parse::<FaultKind>()?,
            None => FaultKind::TransientFlip,
        };
        let bit = num("bit", parts[3])?;
        if bit >= 32 {
            return Err(format!("bit {bit} out of range (0..32)"));
        }
        FaultSite::try_new(
            structure,
            num32("sm", parts[0])?,
            num32("word", parts[2])?,
            bit as u8,
            num("cycle", parts[4])?,
            kind,
        )
        .map_err(|e| e.to_string())
    }
}

impl FaultSite {
    /// Renders the site in the `sm:struct:word:bit:cycle[:kind]` grammar
    /// accepted by [`FaultSite::from_str`] (round-trips all kinds).
    pub fn to_site_string(&self) -> String {
        let mut out = format!(
            "{}:{}:{}:{}:{}",
            self.sm,
            self.structure.label(),
            self.word,
            self.bit,
            self.cycle
        );
        if self.kind != FaultKind::TransientFlip {
            out.push(':');
            out.push_str(self.kind.as_str());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let s = FaultSite::new(Structure::LocalMemory, 0, 5, 31, 7);
        assert_eq!(s.to_string(), "local memory sm0 word 5 bit 31 @ cycle 7");
        assert_eq!(s.bit_index(), 191);
    }

    #[test]
    fn display_annotates_non_transient_kinds() {
        let s = FaultSite::new(Structure::VectorRegisterFile, 1, 2, 3, 4);
        assert_eq!(
            s.with_kind(FaultKind::StuckAt1).to_string(),
            "register file sm1 word 2 bit 3 @ cycle 4 [stuck1]"
        );
        assert_eq!(
            s.with_kind(FaultKind::Control(ControlTarget::BarrierCounter))
                .to_string(),
            "register file sm1 word 2 bit 3 @ cycle 4 [ctrl-barrier]"
        );
    }

    #[test]
    fn structure_names() {
        assert_eq!(Structure::VectorRegisterFile.to_string(), "register file");
        assert_eq!(
            Structure::ScalarRegisterFile.to_string(),
            "scalar register file"
        );
    }

    #[test]
    fn try_new_validates_bit() {
        let err = FaultSite::try_new(
            Structure::VectorRegisterFile,
            0,
            0,
            32,
            0,
            FaultKind::TransientFlip,
        )
        .unwrap_err();
        assert_eq!(err, InvalidFaultSite { bit: 32 });
        assert!(err.to_string().contains("32"));
        assert!(
            FaultSite::try_new(Structure::LocalMemory, 0, 0, 31, 0, FaultKind::StuckAt0).is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    #[cfg(debug_assertions)]
    fn new_asserts_bit_in_debug() {
        let _ = FaultSite::new(Structure::VectorRegisterFile, 0, 0, 33, 0);
    }

    #[test]
    fn site_string_round_trips_all_kinds() {
        let base = FaultSite::new(Structure::ScalarRegisterFile, 2, 17, 9, 1234);
        let kinds = [
            FaultKind::TransientFlip,
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Control(ControlTarget::SchedulerSlot),
            FaultKind::Control(ControlTarget::ActiveMask),
            FaultKind::Control(ControlTarget::Scoreboard),
            FaultKind::Control(ControlTarget::BarrierCounter),
        ];
        for kind in kinds {
            let site = base.with_kind(kind);
            let text = site.to_site_string();
            let back: FaultSite = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, site, "round-trip of {text}");
        }
        // Transient keeps the historical 5-field form.
        assert_eq!(base.to_site_string(), "2:srf:17:9:1234");
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in [
            FaultKind::TransientFlip,
            FaultKind::StuckAt0,
            FaultKind::StuckAt1,
            FaultKind::Control(ControlTarget::Scoreboard),
        ] {
            assert_eq!(kind.as_str().parse::<FaultKind>().unwrap(), kind);
        }
        assert!("ctrl-bogus".parse::<FaultKind>().is_err());
        for m in FaultModelKind::ALL {
            assert_eq!(m.as_str().parse::<FaultModelKind>().unwrap(), m);
        }
    }

    #[test]
    fn model_storage_kinds() {
        assert_eq!(
            FaultModelKind::Stuck1.storage_kind(),
            Some(FaultKind::StuckAt1)
        );
        assert_eq!(FaultModelKind::Control.storage_kind(), None);
    }
}
