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
//!
//! A study handler accumulates into `Arc<Mutex<S>>`. A launch under a
//! [`Sassi`] runtime runs its CTA shards in order on the launching
//! thread, so the lock is never contended. It stays because perfbench
//! builds the study instrumentors around state it reads back itself
//! (each module's `instrumentor`), until ROADMAP item 3 settles how a
//! handler holds its state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod inject;
pub mod memdiv;
pub mod overhead;
pub mod report;
pub mod value;

use parking_lot::Mutex;
use sassi::Sassi;
use sassi_workloads::{execute, Workload};
use std::sync::Arc;

/// Runs `w` under the instrumentor `build` makes around a fresh `S`
/// and returns the state the handlers accumulated.
///
/// # Panics
///
/// Panics if the instrumented run does not complete.
fn run<S: Default>(w: &dyn Workload, build: fn(Arc<Mutex<S>>) -> Sassi) -> S {
    let state = Arc::new(Mutex::new(S::default()));
    let mut sassi = build(state.clone());
    let report = execute(w, Some(&mut sassi), None);
    assert!(
        report.output.is_ok(),
        "{}: {:?}",
        w.name(),
        report.output.err()
    );
    let st = std::mem::take(&mut *state.lock());
    st
}
