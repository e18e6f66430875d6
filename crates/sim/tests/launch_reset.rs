//! What every launch starts from: a device recycles its SM slots (warp
//! contexts, CTA slots, cache hierarchies) across launches, and a
//! dropped device's slots go to the next device launched on the same
//! thread, yet each launch must behave as on a fresh device — zeroed
//! local memory, cold caches, and the hierarchy `cfg` currently names.

use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_isa::Function;
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LaunchResult, Module};
use sassi_sim::{GpuConfig, NoHandlers};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The default per-thread local slab, in bytes.
const SLAB: u32 = 2048;

/// Slab offsets the local-memory kernels touch: the bottom, the
/// middle and the top word of the slab.
const SLAB_OFFSETS: [u32; 3] = [0, SLAB / 2, SLAB - 4];

/// Both kernels allocate the whole slab as their stack frame, so frame
/// offsets are slab offsets. `st` writes `tid + 1` to each of
/// `offsets` with local stores and then to `generic_off` through a
/// generic pointer. `ld` sums what it finds at [`SLAB_OFFSETS`] and
/// at `SLAB / 4` into `out[tid]`, storing nothing locally.
fn local_kernels(offsets: &[u32], generic_off: i32) -> Module {
    Module::link(&local_functions(offsets, generic_off)).unwrap()
}

/// The uninstrumented `st` and `ld` of [`local_kernels`].
fn local_functions(offsets: &[u32], generic_off: i32) -> [Function; 2] {
    let mut st = KernelBuilder::kernel("st");
    let slot = st.frame_alloc(SLAB);
    let tid = st.global_tid_x();
    let v = st.iadd(tid, 1u32);
    for &off in offsets {
        let o = st.iconst(off);
        st.st_frame_u32_dyn(o, v);
    }
    let p = st.frame_addr_generic(slot, generic_off);
    st.st_generic_u32(p, 0, v);

    let mut ld = KernelBuilder::kernel("ld");
    let slot = ld.frame_alloc(SLAB);
    let tid = ld.global_tid_x();
    let out = ld.param_ptr(0);
    let acc = ld.var_u32(0u32);
    for off in SLAB_OFFSETS {
        let o = ld.iconst(off);
        let x = ld.ld_frame_u32_dyn(o);
        let t = ld.iadd(acc, x);
        ld.assign(acc, t);
    }
    let p = ld.frame_addr_generic(slot, SLAB as i32 / 4);
    let x = ld.ld_generic_u32(p, 0);
    let t = ld.iadd(acc, x);
    let e = ld.lea(out, tid, 2);
    ld.st_global_u32(e, t);

    let c = Compiler::new();
    [
        c.compile(&st.finish()).unwrap(),
        c.compile(&ld.finish()).unwrap(),
    ]
}

fn launch(
    dev: &mut Device,
    module: &Module,
    kernel: &str,
    dims: LaunchDims,
    params: &[u64],
) -> LaunchResult {
    dev.launch(module, kernel, dims, params, &mut NoHandlers, 0, 1 << 30)
        .unwrap()
}

#[test]
fn relaunch_reads_zeroed_local_memory() {
    // 16 CTAs of 64 threads over 8 SMs: every warp context the `ld`
    // launch uses was written by the `st` launch before it.
    let dims = LaunchDims::linear(16, 64);
    let module = local_kernels(&SLAB_OFFSETS, SLAB as i32 / 4);
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        let n = dims.total_threads();
        let out = dev.mem.alloc(4 * n, 8).unwrap();
        let r = launch(&mut dev, &module, "st", dims, &[]);
        assert!(r.is_ok(), "{:?}", r.outcome);
        let allocs = dev.warp_allocations();
        assert!(launch(&mut dev, &module, "ld", dims, &[out]).is_ok());
        assert_eq!(dev.warp_allocations(), allocs, "{mode:?}: warps recycled");
        for i in 0..n {
            assert_eq!(
                dev.mem.read_u32(out + 4 * i).unwrap(),
                0,
                "{mode:?}: thread {i}"
            );
        }
    }
}

#[test]
fn local_store_past_the_slab_is_a_stack_violation() {
    let dims = LaunchDims::linear(2, 32);
    // A store just past the slab must fault, not write: first through
    // a local address, then through a generic one.
    let past_local = local_kernels(&[0, SLAB], SLAB as i32 / 4);
    let past_generic = local_kernels(&SLAB_OFFSETS, SLAB as i32);
    for (module, mode) in [
        (&past_local, ExecMode::Decoded),
        (&past_local, ExecMode::Reference),
        (&past_generic, ExecMode::Decoded),
        (&past_generic, ExecMode::Reference),
    ] {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        let res = launch(&mut dev, module, "st", dims, &[]);
        match res.outcome {
            KernelOutcome::Fault(info) => assert!(
                info.kind
                    == FaultKind::StackViolation {
                        offset: SLAB as u64
                    },
                "{mode:?}: {info:?}"
            ),
            other => panic!("{mode:?}: expected a stack violation, got {other:?}"),
        }
        // The words stored before the fault are gone on relaunch.
        let out = dev.mem.alloc(4 * 64, 8).unwrap();
        assert!(launch(&mut dev, module, "ld", dims, &[out]).is_ok());
        for i in 0..64 {
            assert_eq!(
                dev.mem.read_u32(out + 4 * i).unwrap(),
                0,
                "{mode:?}: thread {i}"
            );
        }
    }
}

/// Each thread sums 64 strided global loads; the loads dominate its
/// cycle count, so any hierarchy latency shows in `cycles`.
fn load_loop_kernel() -> Module {
    let mut b = KernelBuilder::kernel("loads");
    let tid = b.global_tid_x();
    let buf = b.param_ptr(0);
    let acc = b.var_u32(0u32);
    let bound = b.iconst(64);
    b.for_range(0u32, bound, 1, |b, i| {
        let stride = b.imul(i, 97u32);
        let idx = b.iadd(stride, tid);
        let masked = b.and(idx, 0x3ffu32);
        let e = b.lea(buf, masked, 2);
        let v = b.ld_global_u32(e);
        let t = b.iadd(acc, v);
        b.assign(acc, t);
    });
    Module::link(&[Compiler::new().compile(&b.finish()).unwrap()]).unwrap()
}

#[test]
fn hierarchy_config_change_applies_to_the_next_launch() {
    let module = load_loop_kernel();
    let dims = LaunchDims::linear(16, 64);
    let mut cfg = GpuConfig::default();
    let mut dev = Device::new(cfg, 1 << 20);
    let buf = dev.mem.alloc(4096, 8).unwrap();
    let before = launch(&mut dev, &module, "loads", dims, &[buf]);

    cfg.hierarchy.l1_latency = 500;
    dev.cfg.hierarchy.l1_latency = 500;
    let after = launch(&mut dev, &module, "loads", dims, &[buf]);

    let mut fresh = Device::new(cfg, 1 << 20);
    let fbuf = fresh.mem.alloc(4096, 8).unwrap();
    assert_eq!(fbuf, buf);
    let want = launch(&mut fresh, &module, "loads", dims, &[fbuf]);
    assert_eq!(
        after, want,
        "relaunch after a config change must match a fresh device"
    );
    assert!(after.stats.cycles > before.stats.cycles);
}

/// The geometry of every cross-device launch: 2 CTAs of 2 warps on each
/// of the 8 SMs.
fn cross_dims() -> LaunchDims {
    LaunchDims::linear(16, 64)
}

/// Runs `f` on a thread of its own, which starts with no spare SM slots.
fn on_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// What workload B observes: each launch's result and the device
/// memory it leaves.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<LaunchResult>,
    heap: Vec<u8>,
}

/// Workload B on a new default device: `ld` sums its local slab into
/// `out` (zeros on a fresh device), then `loads` sums strided global
/// loads, whose cycles show the hierarchy. Returns what B observed and
/// the device's fresh warp-context allocations.
fn workload_b(mode: ExecMode) -> (Observed, u64) {
    let mut dev = Device::new(GpuConfig::default(), 1 << 20);
    dev.exec_mode = mode;
    let buf = dev.mem.alloc(4096, 8).unwrap();
    for i in 0..1024 {
        dev.mem.write_u32(buf + 4 * i, 7 * i as u32 + 1).unwrap();
    }
    let out_len = 4 * cross_dims().total_threads();
    let out = dev.mem.alloc(out_len, 8).unwrap();
    let local = local_kernels(&SLAB_OFFSETS, SLAB as i32 / 4);
    let results = vec![
        launch(&mut dev, &local, "ld", cross_dims(), &[out]),
        launch(&mut dev, &load_loop_kernel(), "loads", cross_dims(), &[buf]),
    ];
    let mut heap = dev.mem.read_bytes(buf, 4096).unwrap().to_vec();
    heap.extend_from_slice(dev.mem.read_bytes(out, out_len as u32).unwrap());
    (Observed { results, heap }, dev.warp_allocations())
}

/// Device A of a cross-device case: how its one `st` launch ends, or
/// how its config differs from B's default one.
#[derive(Clone, Copy, Debug)]
enum PriorDevice {
    Completed,
    Faulted,
    Hung,
    OtherHierarchy,
    OtherLocalSlab,
    OtherRegs,
}

impl PriorDevice {
    const ALL: [PriorDevice; 6] = [
        PriorDevice::Completed,
        PriorDevice::Faulted,
        PriorDevice::Hung,
        PriorDevice::OtherHierarchy,
        PriorDevice::OtherLocalSlab,
        PriorDevice::OtherRegs,
    ];

    /// Builds device A, runs `st` to the outcome the case names, with
    /// every warp B needs written, and drops the device.
    fn run(self, mode: ExecMode) {
        let mut cfg = GpuConfig::default();
        match self {
            PriorDevice::OtherHierarchy => cfg.hierarchy.l1_latency = 500,
            PriorDevice::OtherLocalSlab => cfg.local_bytes_per_thread = 2 * SLAB,
            PriorDevice::OtherRegs => cfg.regs_per_thread = 128,
            _ => {}
        }
        let module = match self {
            PriorDevice::Faulted => local_kernels(&[0, SLAB], SLAB as i32 / 4),
            _ => local_kernels(&SLAB_OFFSETS, SLAB as i32 / 4),
        };
        let max_cycles = match self {
            PriorDevice::Hung => 20,
            _ => 1 << 30,
        };
        let mut dev = Device::new(cfg, 1 << 20);
        dev.exec_mode = mode;
        let res = dev
            .launch(
                &module,
                "st",
                cross_dims(),
                &[],
                &mut NoHandlers,
                0,
                max_cycles,
            )
            .unwrap();
        match self {
            PriorDevice::Faulted => assert!(
                matches!(
                    res.outcome,
                    KernelOutcome::Fault(info)
                        if matches!(info.kind, FaultKind::StackViolation { .. })
                ),
                "{:?}",
                res.outcome
            ),
            PriorDevice::Hung => assert_eq!(res.outcome, KernelOutcome::Hang),
            _ => assert!(res.is_ok(), "{:?}", res.outcome),
        }
    }

    /// Whether A's slots hold every warp context B needs: all but a
    /// slot built under another hierarchy, which B rebuilds.
    fn slots_suffice(self) -> bool {
        !matches!(self, PriorDevice::OtherHierarchy)
    }
}

#[test]
fn a_dropped_devices_slots_serve_the_next_device_as_fresh_ones() {
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let (fresh, fresh_allocs) = on_new_thread(|| workload_b(mode));
        assert!(fresh_allocs > 0, "{mode:?}: B provisions warps");
        for prior in PriorDevice::ALL {
            let (after, allocs) = on_new_thread(|| {
                prior.run(mode);
                workload_b(mode)
            });
            assert_eq!(after, fresh, "{mode:?}: B after {prior:?}");
            let want = if prior.slots_suffice() {
                0
            } else {
                fresh_allocs
            };
            assert_eq!(
                allocs, want,
                "{mode:?}: B's warp allocations after {prior:?}"
            );
        }
    }
}

/// A device whose `st` leaves its trampolines stack room below the
/// slab-sized frame.
fn roomy_device(mode: ExecMode) -> Device {
    let cfg = GpuConfig {
        local_bytes_per_thread: 2 * SLAB,
        ..GpuConfig::default()
    };
    let mut dev = Device::new(cfg, 1 << 20);
    dev.exec_mode = mode;
    dev
}

/// Launches an instrumented `st` on `dev` under a handler that panics
/// at the first memory site on the last SM, once every earlier SM has
/// finished and the last one holds every warp it will run, part-way
/// through.
fn launch_panicking(dev: &mut Device) {
    let last_sm = dev.cfg.num_sms - 1;
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |ctx| {
            assert!(ctx.trap.sm_id < last_sm, "handler fault");
        })),
    );
    let funcs = local_functions(&SLAB_OFFSETS, SLAB as i32 / 4).map(|f| sassi.apply(&f, 0));
    let module = Module::link(&funcs).unwrap();
    let _ = dev.launch(&module, "st", cross_dims(), &[], &mut sassi, 0, 1 << 30);
}

#[test]
fn a_panicking_launch_leaves_the_next_device_as_fresh() {
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let (fresh, fresh_allocs) = on_new_thread(|| workload_b(mode));
        // Dropped while its thread unwinds, the device returns no
        // slots: B provisions its own.
        let (after, allocs) = on_new_thread(|| {
            let res = catch_unwind(|| launch_panicking(&mut roomy_device(mode)));
            assert!(res.is_err(), "{mode:?}: the handler panics");
            workload_b(mode)
        });
        assert_eq!(after, fresh, "{mode:?}: B after a panic");
        assert_eq!(allocs, fresh_allocs, "{mode:?}: nothing recycled");
        // Dropped after the unwind, the slots the panic stopped
        // mid-launch serve B as fresh ones.
        let (after, allocs) = on_new_thread(|| {
            let mut dev = roomy_device(mode);
            let res = catch_unwind(AssertUnwindSafe(|| launch_panicking(&mut dev)));
            assert!(res.is_err(), "{mode:?}: the handler panics");
            drop(dev);
            workload_b(mode)
        });
        assert_eq!(after, fresh, "{mode:?}: B after a caught panic");
        assert_eq!(allocs, 0, "{mode:?}: every slot recycled");
    }
}
