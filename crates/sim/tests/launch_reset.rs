//! What every launch starts from: a device recycles its SM slots (warp
//! contexts, CTA slots, cache hierarchies) across launches, yet each
//! launch must behave as on a fresh device — zeroed local memory, cold
//! caches, and the hierarchy `cfg` currently names.

use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LaunchResult, Module};
use sassi_sim::{GpuConfig, NoHandlers};

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
    Module::link(&[
        c.compile(&st.finish()).unwrap(),
        c.compile(&ld.finish()).unwrap(),
    ])
    .unwrap()
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
