//! Steady-state allocation accounting for the instrumented path.
//!
//! What this pins is an allocation-free steady state *per thread*, not
//! per device: SM slots outlive their device and go to the next device
//! launched on the same thread, so only the thread's first device
//! provisions warp contexts. Every later device of the same geometry,
//! warm-up included, allocates none.
//!
//! The launch machinery performs a small, fixed number of heap
//! allocations per launch (the constant bank, the shard results and
//! warp lists, journal growth) — identically for native and instrumented modules of the
//! same geometry. Traps must contribute *zero* on top: dispatch indexes
//! the instrumentor's handler list by the id the `JCAL` names, lane
//! iteration is a mask walk, and the study handlers reuse scratch
//! capacity. So a steady-state instrumented relaunch must allocate
//! exactly as much as a native relaunch — and warp contexts must come
//! from the recycled pool.
//!
//! This file holds a single `#[test]` on purpose: the counting
//! allocator is process-global, and a sibling test running concurrently
//! would pollute the deltas.

use parking_lot::Mutex;
use sassi::Sassi;
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, LaunchDims, Module};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const MAXC: u64 = 50_000_000;

/// Branches, global loads/stores and register writes in one kernel, so
/// each study's filter finds sites: out[i] = in[i] < 100 ? in[i]*3
/// : in[i]-100.
fn mixed_kernel() -> sassi_isa::Function {
    let mut b = KernelBuilder::kernel("mixed");
    let i = b.global_tid_x();
    let n = b.param_u32(0);
    let src = b.param_ptr(1);
    let dst = b.param_ptr(2);
    let p = b.setp_u32_lt(i, n);
    b.if_(p, |b| {
        let es = b.lea(src, i, 2);
        let v = b.ld_global_u32(es);
        let small = b.setp_u32_lt(v, 100u32);
        let tripled = b.imul(v, 3u32);
        let shifted = b.isub(v, 100u32);
        let r = b.sel(small, tripled, shifted);
        let ed = b.lea(dst, i, 2);
        b.st_global_u32(ed, r);
    });
    Compiler::new().compile(&b.finish()).unwrap()
}

struct Bench {
    dev: Device,
    module: Module,
    params: Vec<u64>,
    dims: LaunchDims,
}

impl Bench {
    fn new(sassi: Option<&Sassi>) -> Bench {
        let mut dev = Device::with_defaults();
        let n = 256u32;
        let src = dev.mem.alloc(4 * n as u64, 4).unwrap();
        let dst = dev.mem.alloc(4 * n as u64, 4).unwrap();
        for k in 0..n {
            dev.mem.write_u32(src + 4 * k as u64, k * 7 % 250).unwrap();
        }
        let func = mixed_kernel();
        let func = match sassi {
            Some(s) => s.apply(&func, 0),
            None => func,
        };
        Bench {
            dev,
            module: Module::link(&[func]).unwrap(),
            params: vec![n as u64, src, dst],
            dims: LaunchDims::linear(8, 32),
        }
    }

    fn launch(&mut self, rt: &mut Sassi) -> sassi_sim::LaunchResult {
        let res = self
            .dev
            .launch(&self.module, "mixed", self.dims, &self.params, rt, 0, MAXC)
            .unwrap();
        assert!(res.is_ok(), "outcome: {:?}", res.outcome);
        res
    }

    /// Heap allocations during one launch.
    fn measure(&mut self, rt: &mut Sassi) -> (u64, sassi_sim::LaunchResult) {
        let before = ALLOCS.load(Ordering::Relaxed);
        let res = self.launch(rt);
        (ALLOCS.load(Ordering::Relaxed) - before, res)
    }
}

#[test]
fn instrumented_relaunch_allocates_no_more_than_native() {
    // Native baseline: same kernel, same geometry, empty instrumentor.
    // The test thread's first device: its warm-up provisions the warps
    // that every later bench inherits.
    let mut native_rt = Sassi::new();
    let mut native = Bench::new(None);
    for _ in 0..2 {
        native.launch(&mut native_rt); // warm pools and caches
    }
    assert!(
        native.dev.warp_allocations() > 0,
        "native: the thread's first device must provision warps"
    );
    let (native_delta, _) = native.measure(&mut native_rt);
    drop(native);

    // Each study's real instrumentor, driven steady-state.
    let branch_state = Arc::new(Mutex::new(sassi_studies::branch::BranchState::default()));
    let memdiv_state = Arc::new(Mutex::new(sassi_studies::memdiv::MemDivState::default()));
    let value_state = Arc::new(Mutex::new(sassi_studies::value::ValueState::default()));
    let studies: Vec<(&str, Sassi)> = vec![
        ("branch", sassi_studies::branch::instrumentor(branch_state)),
        ("memdiv", sassi_studies::memdiv::instrumentor(memdiv_state)),
        ("value", sassi_studies::value::instrumentor(value_state)),
    ];

    for (name, mut sassi) in studies {
        let mut bench = Bench::new(Some(&sassi));
        for _ in 0..2 {
            bench.launch(&mut sassi); // warm: pools, scratch, study maps
        }
        let warps_warm = bench.dev.warp_allocations();
        assert_eq!(
            warps_warm, 0,
            "{name}: warm-up must inherit the dropped bench's warps"
        );

        let (d1, r1) = bench.measure(&mut sassi);
        let (d2, r2) = bench.measure(&mut sassi);
        assert!(
            r1.stats.handler_calls > 0,
            "{name}: kernel must actually trap"
        );
        assert_eq!(
            d1, d2,
            "{name}: steady-state relaunches must allocate identically"
        );
        assert_eq!(r1.stats.handler_calls, r2.stats.handler_calls);
        // The tentpole invariant: with per-trap allocation at zero, the
        // instrumented launch performs exactly the native launch's
        // fixed machinery allocations.
        assert_eq!(
            d1, native_delta,
            "{name}: {} handler calls leaked allocations ({d1} vs native {native_delta})",
            r1.stats.handler_calls
        );
        // And warp contexts keep coming from the recycled pool.
        assert_eq!(
            bench.dev.warp_allocations(),
            warps_warm,
            "{name}: instrumented relaunch must not allocate warp state"
        );
    }
}
