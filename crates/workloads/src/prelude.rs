//! Shared imports for workload modules.

pub use crate::data;
pub use crate::harness::{launch, RunFailure, Workload, WorkloadOutput};
pub use sassi_kir::{KFunction, KernelBuilder, VSrc, V32, V64};
pub use sassi_rt::{DevBuf, Runtime};
pub use sassi_sim::{HandlerRuntime, LaunchDims, Module};

/// Blocks needed to cover `n` threads with `block`-sized blocks.
pub fn grid_for(n: u32, block: u32) -> u32 {
    n.div_ceil(block).max(1)
}
