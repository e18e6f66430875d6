//! The instrumentation-overhead study (paper §9.1; regenerates Table 3)
//! and the stub-handler ablation (the observation that ABI setup and
//! register spilling account for ~80% of the total overhead).

use crate::{branch, inject, memdiv, value};
use parking_lot::Mutex;
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_sim::GpuConfig;
use sassi_workloads::{execute, Workload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The four case-study instrumentation configurations, plus the stub.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum StudyConfig {
    /// Case Study I: before conditional branches.
    CondBranches,
    /// Case Study II: before memory operations.
    MemoryDivergence,
    /// Case Study III: after register writes.
    ValueProfiling,
    /// Case Study IV: after register/predicate writes (profiling pass).
    ErrorInjection,
    /// Value-profiling sites with an *empty* handler body: measures the
    /// ABI/spill floor of §9.1.
    StubValueSites,
}

impl StudyConfig {
    /// All Table 3 columns.
    pub fn table3() -> [StudyConfig; 4] {
        [
            StudyConfig::CondBranches,
            StudyConfig::MemoryDivergence,
            StudyConfig::ValueProfiling,
            StudyConfig::ErrorInjection,
        ]
    }

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            StudyConfig::CondBranches => "Cond. Branches",
            StudyConfig::MemoryDivergence => "Memory Divergence",
            StudyConfig::ValueProfiling => "Value Profiling",
            StudyConfig::ErrorInjection => "Error Injection",
            StudyConfig::StubValueSites => "Stub (value sites)",
        }
    }

    /// Builds the instrumentor for this configuration (with throwaway
    /// state — the overhead study only measures time).
    pub fn instrumentor(&self) -> Sassi {
        match self {
            StudyConfig::CondBranches => {
                branch::instrumentor(Arc::new(Mutex::new(Default::default())))
            }
            StudyConfig::MemoryDivergence => {
                memdiv::instrumentor(Arc::new(Mutex::new(Default::default())))
            }
            StudyConfig::ValueProfiling => {
                value::instrumentor(Arc::new(Mutex::new(Default::default())))
            }
            StudyConfig::ErrorInjection => {
                // The profiling pass of Case Study IV.
                inject::profile_instrumentor(Arc::new(Mutex::new(Default::default())))
            }
            StudyConfig::StubValueSites => {
                let mut s = Sassi::new();
                s.on_after(
                    SiteFilter::REG_WRITES,
                    InfoFlags::REGISTERS,
                    Box::new(FnHandler::free(|_| {})),
                );
                s
            }
        }
    }
}

/// One measurement: wall-clock and kernel-time slowdowns.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Slowdown {
    /// Whole-program ratio `T/t`.
    pub total: f64,
    /// Device-side ratio `K/k`.
    pub kernel: f64,
}

/// One Table 3 row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OverheadRow {
    /// Workload label.
    pub name: String,
    /// Baseline whole-program seconds (`t`).
    pub baseline_total_s: f64,
    /// Baseline kernel milliseconds (`k`).
    pub baseline_kernel_ms: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Slowdowns per configuration, in `StudyConfig::table3()` order.
    pub slowdowns: Vec<Slowdown>,
    /// The stub measurement.
    pub stub: Slowdown,
    /// Fraction of the value-profiling *kernel* overhead already paid
    /// by the empty-handler stub (§9.1 reports ≈0.8).
    pub stub_fraction: f64,
}

/// Runs the overhead study for one workload.
pub fn run(w: &dyn Workload) -> OverheadRow {
    let cfg = GpuConfig::default();
    let base = execute(w, None, None);
    assert!(base.output.is_ok(), "{}: baseline failed", w.name());
    let t = base.clock.total_seconds(&cfg);
    let k = base.clock.kernel_seconds(&cfg);

    let measure = |config: StudyConfig| -> Slowdown {
        let mut sassi = config.instrumentor();
        let rep = execute(w, Some(&mut sassi), None);
        assert!(
            rep.output.is_ok(),
            "{}: {} failed",
            w.name(),
            config.label()
        );
        Slowdown {
            total: rep.clock.total_seconds(&cfg) / t,
            kernel: rep.clock.kernel_seconds(&cfg) / k,
        }
    };

    let slowdowns: Vec<Slowdown> = StudyConfig::table3().iter().map(|&c| measure(c)).collect();
    let stub = measure(StudyConfig::StubValueSites);
    let value_k = slowdowns[2].kernel;
    let stub_fraction = if value_k > 1.0 {
        (stub.kernel - 1.0) / (value_k - 1.0)
    } else {
        0.0
    };

    OverheadRow {
        name: w.name(),
        baseline_total_s: t,
        baseline_kernel_ms: k * 1e3,
        launches: base.launches,
        slowdowns,
        stub,
        stub_fraction,
    }
}

/// Harmonic mean over rows of a selected ratio.
///
/// Slowdown ratios are positive by construction; a zero or negative
/// value would poison the reciprocal sum (yielding 0, a NaN or a
/// negative "mean") while looking like a plausible table entry, so
/// non-finite and non-positive inputs are skipped with a warning (and
/// rejected outright in debug builds).
pub fn harmonic_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut n = 0usize;
    let mut denom = 0f64;
    for v in values {
        debug_assert!(
            v.is_finite() && v > 0.0,
            "harmonic_mean: non-positive ratio {v}"
        );
        let recip = 1.0 / v;
        if !(v > 0.0 && recip.is_finite()) {
            eprintln!("warning: harmonic_mean skipping non-positive ratio {v}");
            continue;
        }
        n += 1;
        denom += recip;
    }
    if n == 0 {
        0.0
    } else {
        n as f64 / denom
    }
}

/// Measures the end-to-end kernel slowdown of before-all-instructions
/// instrumentation under both spill policies: liveness-driven minimal
/// saves vs. the save-everything baseline of a liveness-blind binary
/// rewriter. Returns (liveness, save_everything) kernel slowdowns.
pub fn run_spill_policy_ablation(w: &dyn Workload) -> (f64, f64) {
    let cfg = GpuConfig::default();
    let base = execute(w, None, None);
    let k = base.clock.kernel_seconds(&cfg);
    let run = |policy: sassi::SpillPolicy| -> f64 {
        let mut s = Sassi::new();
        s.on_before(
            SiteFilter::ALL,
            InfoFlags::NONE,
            Box::new(FnHandler::free(|_| {})),
        );
        s.set_spill_policy(policy);
        let rep = execute(w, Some(&mut s), None);
        assert!(rep.output.is_ok());
        rep.clock.kernel_seconds(&cfg) / k
    };
    (
        run(sassi::SpillPolicy::Liveness),
        run(sassi::SpillPolicy::SaveEverything),
    )
}

/// The liveness ablation of DESIGN.md: average registers SASSI saves
/// per site with liveness-driven spilling vs. the save-everything
/// alternative a binary instrumentor without liveness must use.
pub fn spill_ablation(w: &dyn Workload) -> (f64, f64) {
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(|_| {})),
    );
    let funcs: Vec<_> = w
        .kernels()
        .iter()
        .map(|k| sassi_kir::Compiler::new().compile(k).expect("compile"))
        .collect();
    let avg_saves = |policy| {
        let (mut saves, mut sites) = (0u64, 0u64);
        for f in &funcs {
            for (_, set) in sassi::planned_spills(f, sassi.specs(), policy) {
                saves += set.gpr_count() as u64;
                sites += 1;
            }
        }
        if sites == 0 {
            0.0
        } else {
            saves as f64 / sites as f64
        }
    };
    (
        avg_saves(sassi::SpillPolicy::Liveness),
        avg_saves(sassi::SpillPolicy::SaveEverything),
    )
}

#[cfg(test)]
mod tests {
    use super::harmonic_mean;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(harmonic_mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn single_value_is_itself() {
        assert!((harmonic_mean([2.5].into_iter()) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn known_pair() {
        // hmean(1, 3) = 2 / (1 + 1/3) = 1.5
        assert!((harmonic_mean([1.0, 3.0].into_iter()) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-positive ratio"))]
    fn zero_is_rejected_not_absorbed() {
        // Release builds skip the poisoned entry instead of silently
        // returning 0; debug builds flag the bug at the call site.
        let m = harmonic_mean([0.0, 2.0].into_iter());
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-positive ratio"))]
    fn negative_is_rejected_not_averaged() {
        let m = harmonic_mean([-4.0, 2.0].into_iter());
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-positive ratio"))]
    fn nan_is_rejected() {
        let m = harmonic_mean([f64::NAN, 2.0].into_iter());
        assert!((m - 2.0).abs() < 1e-12);
    }
}
