//! Compiled-SASS handler mode end to end: a handler written in the
//! kernel DSL is linked into the module by `ModuleBuilder` and called
//! by the injected trampolines as device code (paper §3.3).

use sassi::{InfoFlags, Sassi, SiteFilter};
use sassi_isa::AtomOp;
use sassi_kir::{KFunction, KernelBuilder};
use sassi_rt::{LaunchDims, ModuleBuilder, Runtime};
use sassi_sim::NoHandlers;

/// Adds 1 to the counter the launch passes as its second parameter.
fn counting_handler() -> KFunction {
    let mut h = KernelBuilder::abi_function("count_memory_ops");
    let counter = h.param_ptr(1);
    let one = h.iconst(1);
    h.red_global(AtomOp::Add, counter, one);
    h.ret();
    h.finish()
}

/// One store per thread: `out[i] = i * 3`.
fn store_kernel() -> KFunction {
    let mut b = KernelBuilder::kernel("store");
    let i = b.global_tid_x();
    let out = b.param_ptr(0);
    let v = b.imul(i, 3u32);
    let e = b.lea(out, i, 2);
    b.st_global_u32(e, v);
    b.finish()
}

#[test]
fn sass_handler_runs_before_every_memory_op() {
    let mut mb = ModuleBuilder::new();
    let handler = mb.add_sass_handler(counting_handler());
    mb.add_kernel(store_kernel());
    let mut sassi = Sassi::new();
    sassi.on_before_sass(SiteFilter::MEMORY, InfoFlags::MEMORY, handler);
    let module = mb.build(Some(&sassi)).expect("build");

    let mut rt = Runtime::with_defaults();
    let out = rt.alloc_zeroed_u32(64);
    let counter = rt.alloc_zeroed_u32(1);
    let res = rt
        .launch(
            &module,
            "store",
            LaunchDims::linear(2, 32),
            &[out.addr, counter.addr],
            &mut NoHandlers,
        )
        .expect("launch");
    assert!(res.is_ok(), "{:?}", res.outcome);

    let want: Vec<u32> = (0..64).map(|i| i * 3).collect();
    assert_eq!(rt.read_u32(out), want, "the handler disturbed the kernel");
    assert_eq!(
        rt.read_u32(counter),
        vec![64],
        "one call per thread's store"
    );
    // The handler is a call into linked code, not a native trap.
    assert_eq!(res.stats.handler_calls, 0);
}
