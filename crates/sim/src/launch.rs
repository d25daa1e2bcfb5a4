//! Launch configuration and per-launch statistics.

/// A 2-D extent (grid or block dimensions).
///
/// # Example
/// ```
/// use simt_sim::Dim;
/// assert_eq!(Dim::new(4, 2).count(), 8);
/// assert_eq!(Dim::linear(16).count(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Extent in x.
    pub x: u32,
    /// Extent in y.
    pub y: u32,
}

impl Dim {
    /// A 2-D extent.
    pub fn new(x: u32, y: u32) -> Self {
        Dim { x, y }
    }

    /// A 1-D extent (`y = 1`).
    pub fn linear(x: u32) -> Self {
        Dim { x, y: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> u32 {
        self.x * self.y
    }
}

/// Grid and block dimensions of one kernel launch.
///
/// # Example
/// ```
/// use simt_sim::{Dim, LaunchConfig};
/// let cfg = LaunchConfig::linear(32, 128);
/// assert_eq!(cfg.total_threads(), 4096);
/// let tiled = LaunchConfig::new(Dim::new(4, 4), Dim::new(16, 16));
/// assert_eq!(tiled.threads_per_block(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Blocks in the grid.
    pub grid: Dim,
    /// Threads per block.
    pub block: Dim,
}

impl LaunchConfig {
    /// A 2-D launch.
    pub fn new(grid: Dim, block: Dim) -> Self {
        LaunchConfig { grid, block }
    }

    /// A 1-D launch: `blocks` blocks of `threads` threads.
    pub fn linear(blocks: u32, threads: u32) -> Self {
        LaunchConfig {
            grid: Dim::linear(blocks),
            block: Dim::linear(threads),
        }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count()
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u32 {
        self.grid.count() * self.block.count()
    }

    /// Warps per block for a given warp size (rounded up).
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block().div_ceil(warp_size)
    }
}

/// Statistics of one completed launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Device cycles consumed by this launch.
    pub cycles: u64,
    /// Warp-level instructions issued (vector pipeline).
    pub warp_instructions: u64,
    /// Scalar instructions issued (scalar pipeline; 0 on vector-only archs).
    pub scalar_instructions: u64,
    /// Thread-level instructions executed (sum over active lanes).
    pub thread_instructions: u64,
    /// Global-memory transactions after coalescing.
    pub mem_transactions: u64,
    /// Blocks executed.
    pub blocks: u32,
    /// Application cycle at which the launch started.
    pub start_cycle: u64,
}

impl LaunchStats {
    /// Instructions per cycle (warp-level), 0 for an empty launch.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims() {
        assert_eq!(Dim::new(3, 5).count(), 15);
        assert_eq!(Dim::linear(7), Dim::new(7, 1));
    }

    #[test]
    fn launch_derivations() {
        let c = LaunchConfig::new(Dim::new(2, 2), Dim::new(8, 8));
        assert_eq!(c.threads_per_block(), 64);
        assert_eq!(c.total_threads(), 256);
        assert_eq!(c.warps_per_block(32), 2);
        assert_eq!(c.warps_per_block(60), 2, "rounds up");
    }

    #[test]
    fn ipc() {
        let s = LaunchStats {
            cycles: 100,
            warp_instructions: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(LaunchStats::default().ipc(), 0.0);
    }
}
