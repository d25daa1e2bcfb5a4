//! Simulation errors: launch-time failures and detected unrecoverable
//! errors (DUEs).

use std::error::Error;
use std::fmt;

/// A *detected unrecoverable error* — the failure class a fault-injection
/// campaign records when a bit flip crashes or hangs the workload instead
/// of (or in addition to) corrupting its output.
///
/// # Example
/// ```
/// use simt_sim::Due;
/// let d = Due::GlobalOutOfBounds { addr: 0x10, sm: 0, cycle: 42 };
/// assert!(d.to_string().contains("out-of-bounds"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Due {
    /// A global-memory access touched an unallocated or null-guard address.
    GlobalOutOfBounds {
        /// Faulting byte address.
        addr: u32,
        /// SM that issued the access.
        sm: u32,
        /// Device cycle of the access.
        cycle: u64,
    },
    /// A global-memory access was not 4-byte aligned.
    MisalignedAccess {
        /// Faulting byte address.
        addr: u32,
        /// SM that issued the access.
        sm: u32,
        /// Device cycle of the access.
        cycle: u64,
    },
    /// A shared-memory access fell outside the block's LDS allocation.
    SharedOutOfBounds {
        /// Faulting byte address (block-relative).
        addr: u32,
        /// SM that issued the access.
        sm: u32,
        /// Device cycle of the access.
        cycle: u64,
    },
    /// A warp reached `bar.sync` with partial divergence (undefined
    /// behaviour on real devices; typically a hang).
    BarrierDivergence {
        /// SM of the offending warp.
        sm: u32,
        /// Device cycle.
        cycle: u64,
    },
    /// The launch exceeded its watchdog cycle budget (hang / livelock).
    WatchdogTimeout {
        /// Cycle budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for Due {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Due::GlobalOutOfBounds { addr, sm, cycle } => write!(
                f,
                "out-of-bounds global access at 0x{addr:x} (sm {sm}, cycle {cycle})"
            ),
            Due::MisalignedAccess { addr, sm, cycle } => write!(
                f,
                "misaligned global access at 0x{addr:x} (sm {sm}, cycle {cycle})"
            ),
            Due::SharedOutOfBounds { addr, sm, cycle } => write!(
                f,
                "out-of-bounds shared access at 0x{addr:x} (sm {sm}, cycle {cycle})"
            ),
            Due::BarrierDivergence { sm, cycle } => {
                write!(f, "divergent barrier (sm {sm}, cycle {cycle})")
            }
            Due::WatchdogTimeout { limit } => {
                write!(f, "watchdog timeout after {limit} cycles")
            }
        }
    }
}

impl Error for Due {}

/// Errors returned by [`crate::Gpu`] entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The launch terminated with a detected unrecoverable error.
    Due(Due),
    /// The kernel cannot run on this device (resource overflow or
    /// capability mismatch).
    LaunchConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// A fault-free pass reached a cycle its lifetime tracking (ACE
    /// analysis and the lifetime oracle) cannot record.
    CycleLimit {
        /// Workload of the pass.
        workload: String,
        /// Device of the pass.
        device: String,
        /// The first cycle the tracking dropped.
        cycle: u64,
        /// The tracking records cycles below this one.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Due(d) => write!(f, "detected unrecoverable error: {d}"),
            SimError::LaunchConfig { reason } => write!(f, "invalid launch: {reason}"),
            SimError::CycleLimit {
                workload,
                device,
                cycle,
                limit,
            } => write!(
                f,
                "{workload} on {device} reached cycle {cycle}; lifetime tracking records cycles below {limit}"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Due(d) => Some(d),
            SimError::LaunchConfig { .. } | SimError::CycleLimit { .. } => None,
        }
    }
}

impl From<Due> for SimError {
    fn from(d: Due) -> Self {
        SimError::Due(d)
    }
}

impl SimError {
    /// The DUE payload, if this error is one.
    ///
    /// # Example
    /// ```
    /// use simt_sim::{Due, SimError};
    /// let e = SimError::from(Due::WatchdogTimeout { limit: 10 });
    /// assert!(e.as_due().is_some());
    /// ```
    pub fn as_due(&self) -> Option<Due> {
        match self {
            SimError::Due(d) => Some(*d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: SimError = Due::BarrierDivergence { sm: 1, cycle: 9 }.into();
        assert!(e.to_string().contains("divergent barrier"));
        assert!(e.source().is_some());
        let c = SimError::LaunchConfig {
            reason: "too many warps".into(),
        };
        assert!(c.to_string().contains("too many warps"));
        assert!(c.source().is_none());
        assert!(c.as_due().is_none());
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SimError>();
        assert_err::<Due>();
    }
}
