//! The SM-worker execution model's guarantees: launches are
//! byte-identical for any `cta_jobs` value (outputs, stats, handler
//! state), the decoded CTA-parallel engine matches the reference
//! serial interpreter, cross-CTA reduction atomics merge exactly, and
//! per-warp state survives relaunch without reallocation.

use sassi_isa::AtomOp;
use sassi_kir::{KFunction, KernelBuilder};
use sassi_rt::{LaunchRecord, ModuleBuilder, Runtime};
use sassi_sim::{ExecMode, LaunchDims, NoHandlers};
use sassi_workloads::{by_name, RunFailure, Workload, WorkloadOutput};

fn run_workload(
    w: &dyn Workload,
    mode: ExecMode,
    cta_jobs: usize,
) -> (Result<WorkloadOutput, RunFailure>, Vec<LaunchRecord>) {
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = mb.build(None).expect("build");
    let mut rt = Runtime::with_defaults();
    rt.device.exec_mode = mode;
    rt.set_cta_jobs(cta_jobs);
    let out = w.execute(&mut rt, &module, &mut NoHandlers);
    (out, rt.records().to_vec())
}

/// Workloads covering the engine's interesting regimes: reduction
/// atomics on contended bins (`histo`), barriers plus shared memory
/// (`streamcluster`, `hotspot`), divergent traversal with a
/// consuming-form CAS that must gate the launch to the serial path
/// (`bfs`), a consuming-form `atom.add` (`miniFE`), and a multi-launch
/// convergent kernel (`sgemm`).
const PARALLEL_SAMPLE: &[&str] = &[
    "histo",
    "streamcluster",
    "hotspot",
    "bfs (UT)",
    "miniFE (CSR)",
    "sgemm (small)",
];

#[test]
fn cta_parallel_launches_match_serial() {
    for name in PARALLEL_SAMPLE {
        let w = by_name(name).expect("workload");
        let (out_1, rec_1) = run_workload(w.as_ref(), ExecMode::Decoded, 1);
        let (out_4, rec_4) = run_workload(w.as_ref(), ExecMode::Decoded, 4);
        assert_eq!(out_1, out_4, "{name}: output diverges with cta_jobs=4");
        // LaunchRecord equality covers outcome, every LaunchStats
        // counter (cycles, instrs, divergence, issue classes,
        // handler calls) and the memory-system counters.
        assert_eq!(rec_1, rec_4, "{name}: launch records diverge");
    }
}

/// The decoded engine on four CTA workers matches the reference
/// interpreter run serially: outputs and every launch-record field,
/// cycles included, since both run under the same scheduler.
#[test]
fn decoded_parallel_matches_reference_serial() {
    for name in PARALLEL_SAMPLE {
        let w = by_name(name).expect("workload");
        let (out_p, rec_p) = run_workload(w.as_ref(), ExecMode::Decoded, 4);
        let (out_r, rec_r) = run_workload(w.as_ref(), ExecMode::Reference, 1);
        assert_eq!(
            out_p, out_r,
            "{name}: decoded parallel output diverges from reference serial"
        );
        assert_eq!(rec_p, rec_r, "{name}: launch records diverge");
    }
}

/// Every thread of every CTA RED-adds into one of eight contended
/// global bins — the cross-CTA commutative-atomic case the journal
/// commit has to merge exactly.
fn red_bins_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("red_bins");
    let bins = b.param_ptr(0);
    let i = b.global_tid_x();
    let seven = b.iconst(7);
    let bin = b.and(i, seven);
    let e = b.lea(bins, bin, 2);
    let one = b.iconst(1);
    b.red_global(AtomOp::Add, e, one);
    b.finish()
}

#[test]
fn cross_cta_reduction_atomics_merge_exactly() {
    let mut mb = ModuleBuilder::new();
    mb.add_kernel(red_bins_kernel());
    let module = mb.build(None).unwrap();
    let mut results = Vec::new();
    for jobs in [1usize, 4] {
        let mut rt = Runtime::with_defaults();
        rt.set_cta_jobs(jobs);
        let bins = rt.alloc_zeroed_u32(8);
        let res = rt
            .launch(
                &module,
                "red_bins",
                LaunchDims::linear(64, 64),
                &[bins.addr],
                &mut NoHandlers,
            )
            .unwrap();
        assert!(res.is_ok());
        let out = rt.read_u32(bins);
        // 64 CTAs x 64 threads spread evenly over 8 bins.
        assert_eq!(out, vec![512u32; 8], "jobs={jobs}");
        results.push((out, res));
    }
    assert_eq!(results[0], results[1], "stats diverge across job counts");
}

#[test]
fn relaunch_reuses_warp_state() {
    // A fresh thread holds no spare SM slots, so its first device must
    // provision warps whatever ran before on the test harness's threads.
    std::thread::spawn(|| {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(red_bins_kernel());
        let module = mb.build(None).unwrap();
        let mut rt = Runtime::with_defaults();
        let bins = rt.alloc_zeroed_u32(8);
        let dims = LaunchDims::linear(32, 64);
        for _ in 0..2 {
            rt.launch(&module, "red_bins", dims, &[bins.addr], &mut NoHandlers)
                .unwrap();
        }
        let after_two = rt.device.warp_allocations();
        assert!(after_two > 0, "first launch must provision warps");
        // Two more launches with the same geometry: every warp context must
        // come from the recycled pool, never a fresh allocation.
        for _ in 0..2 {
            rt.launch(&module, "red_bins", dims, &[bins.addr], &mut NoHandlers)
                .unwrap();
        }
        assert_eq!(
            rt.device.warp_allocations(),
            after_two,
            "relaunch with identical geometry must not allocate warp state"
        );
        assert_eq!(rt.read_u32(bins), vec![4 * 256u32; 8]);
    })
    .join()
    .unwrap();
}
