//! Machine configuration and launch geometry.

use sassi_mem::HierarchyConfig;
use serde::{Deserialize, Serialize};

/// Configuration of the simulated GPU.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_ctas_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: u32,
    /// Per-thread local memory (stack) slab in bytes.
    pub local_bytes_per_thread: u32,
    /// Registers provisioned per thread by the simulator's register
    /// file (instruction encodings may name up to R254, but resident
    /// state is capped here; the backend compiles to 63 by default).
    pub regs_per_thread: u32,
    /// Memory hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Core clock in MHz, used only to convert cycles to seconds for
    /// whole-program time modelling.
    pub clock_mhz: u32,
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        // A small Kepler-class device (think one GK104 cluster).
        GpuConfig {
            num_sms: 8,
            max_warps_per_sm: 16,
            max_ctas_per_sm: 8,
            shared_per_sm: 48 * 1024,
            local_bytes_per_thread: 2048,
            regs_per_thread: 64,
            hierarchy: HierarchyConfig::default(),
            clock_mhz: 745,
        }
    }
}

impl GpuConfig {
    /// Seconds represented by `cycles` at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1e6)
    }
}

/// Grid and block dimensions of a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchDims {
    /// Grid dimensions in blocks.
    pub grid: (u32, u32, u32),
    /// Block dimensions in threads.
    pub block: (u32, u32, u32),
}

impl LaunchDims {
    /// 1-D launch helper.
    pub fn linear(grid: u32, block: u32) -> LaunchDims {
        LaunchDims {
            grid: (grid, 1, 1),
            block: (block, 1, 1),
        }
    }

    /// 2-D launch helper.
    pub fn plane(grid: (u32, u32), block: (u32, u32)) -> LaunchDims {
        LaunchDims {
            grid: (grid.0, grid.1, 1),
            block: (block.0, block.1, 1),
        }
    }

    /// Threads per block and total blocks in the grid, or `None` if
    /// either product overflows a `u32`. `Device::launch` rejects such
    /// a geometry before anything else reads it, so the unchecked
    /// accessors below never see one during a launch.
    pub fn checked_sizes(&self) -> Option<(u32, u32)> {
        let product = |(x, y, z): (u32, u32, u32)| x.checked_mul(y)?.checked_mul(z);
        Some((product(self.block)?, product(self.grid)?))
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1 * self.block.2
    }

    /// Warps per block (rounded up).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(32)
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> u32 {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.total_blocks() as u64 * self.threads_per_block() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_math() {
        let d = LaunchDims::linear(10, 96);
        assert_eq!(d.threads_per_block(), 96);
        assert_eq!(d.warps_per_block(), 3);
        assert_eq!(d.total_blocks(), 10);
        assert_eq!(d.total_threads(), 960);
        let d = LaunchDims::plane((4, 4), (16, 16));
        assert_eq!(d.threads_per_block(), 256);
        assert_eq!(d.total_blocks(), 16);
        assert_eq!(d.checked_sizes(), Some((256, 16)));
        let wide = |grid, block| LaunchDims { grid, block }.checked_sizes();
        assert_eq!(
            wide((65536, 65535, 1), (1, 1, 1)),
            Some((1, u32::MAX - 65535))
        );
        assert_eq!(wide((65536, 65537, 1), (32, 1, 1)), None);
        assert_eq!(wide((1, 1, 1), (65536, 65536, 1)), None);
        assert_eq!(wide((1, 1, 1), (2, 65536, 32768)), None);
    }

    #[test]
    fn clock_conversion() {
        let c = GpuConfig {
            clock_mhz: 1000,
            ..GpuConfig::default()
        };
        assert!((c.cycles_to_seconds(1_000_000) - 1e-3).abs() < 1e-12);
    }
}
