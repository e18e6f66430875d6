//! Criterion benchmark: raw simulator throughput (warp instructions per
//! second) on convergent, divergent and memory-bound kernels, with the
//! pre-decoded µop interpreter benchmarked head-to-head against the
//! reference (seed) interpreter on every kernel. Each of those
//! iterations builds a fresh device; `sim/relaunch_floor` instead
//! relaunches a one-store kernel on one warm device, timing the fixed
//! cost every launch pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, ExecMode, LaunchDims, Module, NoHandlers};

fn run_once(
    module: &Module,
    kernel: &str,
    mode: ExecMode,
    params_make: impl Fn(&mut Device) -> Vec<u64>,
) -> u64 {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    let params = params_make(&mut dev);
    let res = dev
        .launch(
            module,
            kernel,
            LaunchDims::linear(16, 128),
            &params,
            &mut NoHandlers,
            0,
            1 << 34,
        )
        .unwrap();
    assert!(res.is_ok());
    res.stats.warp_instrs
}

fn alu_kernel() -> Module {
    let mut b = KernelBuilder::kernel("alu");
    let tid = b.global_tid_x();
    let out = b.param_ptr(0);
    let x = b.var_u32(1u32);
    let bound = b.iconst(256);
    b.for_range(0u32, bound, 1, |b, i| {
        let t = b.imad(x, 33u32, i);
        let t = b.xor(t, 0x5a5au32);
        b.assign(x, t);
    });
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, x);
    Module::link(&[Compiler::new().compile(&b.finish()).unwrap()]).unwrap()
}

fn divergent_kernel() -> Module {
    let mut b = KernelBuilder::kernel("div");
    let tid = b.global_tid_x();
    let out = b.param_ptr(0);
    let lane = b.lane_id();
    let acc = b.var_u32(0u32);
    // Every lane loops a different number of times.
    b.for_range(0u32, lane, 1, |b, i| {
        let t = b.iadd(acc, i);
        b.assign(acc, t);
    });
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, acc);
    Module::link(&[Compiler::new().compile(&b.finish()).unwrap()]).unwrap()
}

fn memory_kernel() -> Module {
    let mut b = KernelBuilder::kernel("mem");
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
    let e = b.lea(buf, tid, 2);
    b.st_global_u32(e, acc);
    Module::link(&[Compiler::new().compile(&b.finish()).unwrap()]).unwrap()
}

fn bench_sim(c: &mut Criterion) {
    let cases = [
        ("alu_convergent", alu_kernel(), "alu"),
        ("control_divergent", divergent_kernel(), "div"),
        ("memory_bound", memory_kernel(), "mem"),
    ];
    for (label, module, kernel) in &cases {
        let instrs = run_once(module, kernel, ExecMode::Decoded, |d| {
            vec![d.mem.alloc(4096 * 4, 8).unwrap()]
        });
        let mut g = c.benchmark_group("sim");
        g.throughput(Throughput::Elements(instrs));
        for (mode, suffix) in [
            (ExecMode::Decoded, "decoded"),
            (ExecMode::Reference, "reference"),
        ] {
            g.bench_function(&format!("{label}/{suffix}"), |bench| {
                bench.iter(|| {
                    run_once(module, kernel, mode, |d| {
                        vec![d.mem.alloc(4096 * 4, 8).unwrap()]
                    })
                })
            });
        }
        g.finish();
    }
}

fn store_kernel() -> Module {
    let mut b = KernelBuilder::kernel("store");
    let tid = b.global_tid_x();
    let out = b.param_ptr(0);
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, tid);
    Module::link(&[Compiler::new().compile(&b.finish()).unwrap()]).unwrap()
}

fn bench_relaunch(c: &mut Criterion) {
    let module = store_kernel();
    let dims = LaunchDims::linear(8, 32);
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(dims.total_threads() * 4, 8).unwrap();
    let mut relaunch = || {
        let res = dev
            .launch(&module, "store", dims, &[out], &mut NoHandlers, 0, 1 << 20)
            .unwrap();
        assert!(res.is_ok());
        res.stats.warp_instrs
    };
    // Warm up: the first launch builds the SM slots.
    relaunch();
    let mut g = c.benchmark_group("sim");
    g.bench_function("relaunch_floor", |b| b.iter(&mut relaunch));
    g.finish();
}

criterion_group!(benches, bench_sim, bench_relaunch);
criterion_main!(benches);
