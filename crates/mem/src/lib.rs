//! # sassi-mem — the simulated GPU memory subsystem
//!
//! Everything below the load/store unit: backing storage for global
//! memory ([`DeviceMemory`]), the per-warp request coalescer ([`coalesce_addresses`])
//! (32-byte lines, matching the granularity the paper's memory-divergence
//! study uses in §6), set-associative L1/L2 [`cache`]s and a bandwidth-
//! limited [`dram`] model, glued together by [`MemoryHierarchy`].
//!
//! The hierarchy answers one question for the SIMT core: *given the set
//! of addresses a warp's active lanes touch, how many transactions are
//! generated and when is the data back?* Those two outputs drive both
//! the performance model (Table 3's kernel slowdowns) and the memory-
//! divergence statistics (Figures 7 and 8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod coalesce;
pub mod dram;

mod device;
mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use coalesce::{
    coalesce_addresses, coalesce_batch, CoalesceResult, LineBatch, LINE_BYTES, MAX_WARP_LINES,
};
pub use device::{apply_atom, DeviceMemory, JournalOp, MemError, WindowMut};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{AccessOutcome, HierarchyConfig, HierarchyStats, MemoryHierarchy};
