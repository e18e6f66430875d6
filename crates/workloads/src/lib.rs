//! # sassi-workloads — the benchmark suite
//!
//! Kernels in the spirit of the Parboil and Rodinia suites and NERSC's
//! miniFE, written in the [`sassi_kir`] builder DSL and driven by host
//! code through [`sassi_rt`]. Each workload generates deterministic
//! synthetic inputs (see [`data`]), runs end to end on the simulated
//! GPU, and checks itself against a host-computed golden output — the
//! ground truth the error-injection study diffs against.
//!
//! The suite spans the behavioural space the paper's case studies need:
//! fully convergent kernels (`sgemm`, `streamcluster`), data-dependent
//! divergence (`bfs`, `tpacf`, `heartwall`, `mummergpu`), coalesced vs
//! scattered access (miniFE ELL vs CSR, `spmv`), atomics (`histo`,
//! `bfs`), warp intrinsics (miniFE's dot), barriers and shared memory
//! (`hotspot`, `backprop`, `lud`), and SFU-heavy math (`mri-q`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data;
pub mod harness;
pub mod minife;
pub mod parboil;
pub mod prelude;
pub mod rodinia;

mod registry;

pub use harness::{
    execute, execute_with_jobs, verify_golden, ExecutionReport, RunFailure, Workload,
    WorkloadOutput,
};
pub use registry::{
    all_workloads, by_name, fig10_set, fig7_set, table1_set, table2_set, table3_set,
};
