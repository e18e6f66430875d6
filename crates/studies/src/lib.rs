//! # sassi-studies — the paper's four case studies
//!
//! Each module reproduces one section of the evaluation in *Flexible
//! Software Profiling of GPU Architectures* (ISCA 2015):
//!
//! | Module | Paper | Regenerates |
//! |---|---|---|
//! | [`branch`] | §5, Figure 4 handler | Table 1, Figure 5 |
//! | [`memdiv`] | §6, Figure 6 handler | Figures 7 and 8 |
//! | [`value`] | §7, Figure 9 handler | Table 2 |
//! | [`inject`] | §8 | Figure 10 |
//! | [`overhead`] | §9.1 | Table 3 + stub ablation |
//!
//! All studies run real workloads from [`sassi_workloads`] with real
//! SASSI instrumentation from [`sassi`]; the handlers mirror the
//! paper's CUDA handlers line by line (ballots, leader election,
//! per-instruction hash tables, atomic accumulation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod inject;
pub mod memdiv;
pub mod overhead;
pub mod report;
mod shard;
pub mod value;

pub use shard::Merge;
