//! The hot-loop comparison behind `repro hotloop`: the same workload
//! set executed by the pre-decoded µop interpreter serially, with
//! CTA-parallel launches and under the branch study, with
//! per-instruction-class issue counters from the serial run — the
//! where-do-cycles-go artifact future perf PRs diff against
//! (`results/timings/sim_hot_loop.json`).

use crate::exec::{run_units, WorkloadCache};
use parking_lot::Mutex;
use sassi_rt::{ModuleBuilder, Runtime};
use sassi_sim::{IssueCounters, NoHandlers};
use serde::Serialize;
use std::sync::Arc;

/// The workloads the hot-loop comparison executes: convergent compute
/// (`sgemm`), divergent graph traversal (`bfs`), scattered memory
/// (`spmv`), shared-memory stencil (`hotspot`), SFU-heavy math
/// (`mri-q`) and an atomics/barrier mix (`streamcluster`).
pub const HOTLOOP_SET: &[&str] = &[
    "sgemm (medium)",
    "bfs (1M)",
    "spmv (large)",
    "hotspot",
    "mri-q",
    "streamcluster",
];

/// One interpreter configuration's side of the comparison.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ModeRun {
    /// End-to-end wall-clock seconds for the sweep.
    pub wall_s: f64,
    /// Summed per-unit compute seconds (scheduling-independent).
    pub busy_s: f64,
    /// Warp-level instructions interpreted.
    pub warp_instrs: u64,
    /// Thread-level instructions interpreted.
    pub thread_instrs: u64,
    /// Warp instructions interpreted per busy second.
    pub instrs_per_s: f64,
}

/// The full artifact written to `results/timings/sim_hot_loop.json`.
#[derive(Clone, Debug, Serialize)]
pub struct HotLoopReport {
    /// Workload display names executed (once each, per configuration).
    pub workloads: Vec<String>,
    /// CTA-shard worker threads the parallel sweep ran with. Every
    /// sweep executes the workloads one at a time (no outer workers),
    /// so wall times compare like for like.
    pub jobs: usize,
    /// The pre-decoded µop interpreter, serial launches.
    pub decoded: ModeRun,
    /// The pre-decoded µop interpreter with `jobs` CTA-shard workers
    /// per launch — the SM-worker execution model.
    pub parallel: ModeRun,
    /// The decoded interpreter running the same workloads under the
    /// paper's branch study (Case Study I): every conditional branch
    /// trampolines into the handler. Serial launches, so the wall time
    /// compares directly against `decoded`. The instruction counts
    /// include the trampoline SASS the instrumentor injected.
    pub instrumented: ModeRun,
    /// Warp-level handler invocations across the instrumented sweep.
    pub handler_calls: u64,
    /// instrumented wall time / decoded (native) wall time — the
    /// end-to-end slowdown of branch instrumentation, the analogue of
    /// the paper's Table 4 `cfg` row.
    pub instrumented_overhead: f64,
    /// decoded serial wall time / parallel wall time: how much faster
    /// the same workloads finish when each launch's CTAs run across
    /// `jobs` workers instead of one. ~1.0 on a single-core host;
    /// approaches the populated shard count on a multicore host.
    pub parallel_speedup: f64,
    /// Per-instruction-class issue counts (identical across the serial
    /// and parallel sweeps; taken from the serial run).
    pub issue: IssueCounters,
}

/// Timed passes per sweep. Each configuration's sweep lasts only a few
/// hundred milliseconds, which on a busy single-core host is
/// noise-dominated; every sweep therefore runs `PASSES` times after its
/// warm-up and reports the fastest pass (best-of-N discards scheduler
/// preemption and cache-pollution outliers, which are strictly
/// additive). Instruction counts are asserted identical across passes.
const PASSES: usize = 3;

/// One untimed launch before a timed sweep. Sweeps used to run cold —
/// the first timed workload paid one-time process costs (lazy
/// allocator growth, page faults on freshly-mapped device heaps, lazy
/// statics), biasing whichever configuration ran first. Warming with a
/// real workload under the same configuration moves those costs out of
/// every timed window.
fn warmup(cta_jobs: usize) {
    let w = sassi_workloads::by_name("hotspot").expect("warm-up workload");
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = mb.build(None).expect("build");
    let mut rt = Runtime::with_defaults();
    rt.set_cta_jobs(cta_jobs);
    let out = w.execute(&mut rt, &module, &mut NoHandlers);
    assert!(out.is_ok(), "warm-up: {:?}", out.err());
}

fn sweep(cta_jobs: usize) -> (ModeRun, IssueCounters) {
    warmup(cta_jobs);
    let mut best: Option<(ModeRun, IssueCounters)> = None;
    for _ in 0..PASSES {
        let pass = sweep_pass(cta_jobs);
        match &best {
            Some((b, bi)) => {
                assert_eq!(b.warp_instrs, pass.0.warp_instrs);
                assert_eq!(*bi, pass.1, "issue counters diverge across passes");
                if pass.0.wall_s < b.wall_s {
                    best = Some(pass);
                }
            }
            None => best = Some(pass),
        }
    }
    best.expect("at least one pass")
}

fn sweep_pass(cta_jobs: usize) -> (ModeRun, IssueCounters) {
    let (per_unit, timing) = run_units(1, HOTLOOP_SET, WorkloadCache::default, |cache, name, _| {
        let w = cache.get(name);
        let mut mb = ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        let module = mb.build(None).expect("build");
        let mut rt = Runtime::with_defaults();
        rt.set_cta_jobs(cta_jobs);
        let out = w.execute(&mut rt, &module, &mut NoHandlers);
        assert!(out.is_ok(), "{name}: {:?}", out.err());
        let mut issue = IssueCounters::default();
        let (mut wi, mut ti) = (0u64, 0u64);
        for r in rt.records() {
            wi += r.result.stats.warp_instrs;
            ti += r.result.stats.thread_instrs;
            issue.merge(&r.result.stats.issue);
        }
        (wi, ti, issue)
    });
    let mut issue = IssueCounters::default();
    let (mut wi, mut ti) = (0u64, 0u64);
    for (w, t, i) in &per_unit {
        wi += w;
        ti += t;
        issue.merge(i);
    }
    let run = ModeRun {
        wall_s: timing.wall_s,
        busy_s: timing.busy_s,
        warp_instrs: wi,
        thread_instrs: ti,
        instrs_per_s: if timing.busy_s > 0.0 {
            wi as f64 / timing.busy_s
        } else {
            0.0
        },
    };
    (run, issue)
}

/// The branch-study sweep: decoded interpreter, serial launches, every
/// conditional branch instrumented. Returns the run plus the total
/// warp-level handler invocations.
fn instrumented_sweep() -> (ModeRun, u64) {
    warmup(1);
    let mut best: Option<(ModeRun, u64)> = None;
    for _ in 0..PASSES {
        let pass = instrumented_pass();
        match &best {
            Some((b, bh)) => {
                assert_eq!(b.warp_instrs, pass.0.warp_instrs);
                assert_eq!(*bh, pass.1, "handler calls diverge across passes");
                if pass.0.wall_s < b.wall_s {
                    best = Some(pass);
                }
            }
            None => best = Some(pass),
        }
    }
    best.expect("at least one pass")
}

fn instrumented_pass() -> (ModeRun, u64) {
    let (per_unit, timing) = run_units(1, HOTLOOP_SET, WorkloadCache::default, |cache, name, _| {
        let w = cache.get(name);
        let state = Arc::new(Mutex::new(sassi_studies::branch::BranchState::default()));
        let mut sassi = sassi_studies::branch::instrumentor(state);
        let mut mb = ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        let module = mb.build(Some(&sassi)).expect("build");
        let mut rt = Runtime::with_defaults();
        let out = w.execute(&mut rt, &module, &mut sassi);
        assert!(out.is_ok(), "{name}: {:?}", out.err());
        let (mut wi, mut ti, mut hc) = (0u64, 0u64, 0u64);
        for r in rt.records() {
            wi += r.result.stats.warp_instrs;
            ti += r.result.stats.thread_instrs;
            hc += r.result.stats.handler_calls;
        }
        (wi, ti, hc)
    });
    let (mut wi, mut ti, mut hc) = (0u64, 0u64, 0u64);
    for (w, t, h) in &per_unit {
        wi += w;
        ti += t;
        hc += h;
    }
    let run = ModeRun {
        wall_s: timing.wall_s,
        busy_s: timing.busy_s,
        warp_instrs: wi,
        thread_instrs: ti,
        instrs_per_s: if timing.busy_s > 0.0 {
            wi as f64 / timing.busy_s
        } else {
            0.0
        },
    };
    (run, hc)
}

/// Runs the comparison (decoded serial, decoded CTA-parallel, then
/// the branch-instrumented serial sweep) and returns the report.
/// Workloads always run one at a time — `jobs` buys CTA-shard workers
/// in the parallel sweep only — so the sweeps' wall times are directly
/// comparable instead of confounded by outer-level scheduling. The
/// issue-class breakdown and instruction counts are asserted identical
/// between the serial and parallel sweeps, a cheap online check of the
/// parallel engine's stat merge.
pub fn compare(jobs: usize) -> HotLoopReport {
    let (decoded, issue_d) = sweep(1);
    let (parallel, issue_p) = sweep(jobs);
    let (instrumented, handler_calls) = instrumented_sweep();
    assert!(handler_calls > 0, "branch sweep fired no handler calls");
    // Trampolines add instructions, so the instrumented sweep is only
    // sanity-checked for more work than native, not exact equality.
    assert!(instrumented.warp_instrs > decoded.warp_instrs);
    assert_eq!(
        issue_d, issue_p,
        "issue-class counters diverge between serial and CTA-parallel runs"
    );
    assert_eq!(decoded.warp_instrs, parallel.warp_instrs);
    assert_eq!(decoded.thread_instrs, parallel.thread_instrs);
    HotLoopReport {
        workloads: HOTLOOP_SET.iter().map(|s| s.to_string()).collect(),
        jobs,
        parallel_speedup: if parallel.wall_s > 0.0 {
            decoded.wall_s / parallel.wall_s
        } else {
            1.0
        },
        instrumented_overhead: if decoded.wall_s > 0.0 {
            instrumented.wall_s / decoded.wall_s
        } else {
            1.0
        },
        decoded,
        parallel,
        instrumented,
        handler_calls,
        issue: issue_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotloop_set_names_resolve() {
        for name in HOTLOOP_SET {
            assert!(
                sassi_workloads::by_name(name).is_some(),
                "unknown workload `{name}` in HOTLOOP_SET"
            );
        }
    }
}
