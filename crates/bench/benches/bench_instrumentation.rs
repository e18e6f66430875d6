//! Criterion benchmark: end-to-end cost of running an instrumented
//! kernel relative to its baseline — the per-configuration slope behind
//! Table 3 — plus steady-state trap dispatch across the four parameter
//! combinations.

use criterion::{criterion_group, criterion_main, Criterion};
use sassi::{FnHandler, InfoFlags, Sassi, SiteCtx, SiteFilter};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, LaunchDims, Module};
use sassi_workloads::{by_name, execute};

fn bench_instrumentation(c: &mut Criterion) {
    let w = by_name("nn").unwrap();
    let mut g = c.benchmark_group("instrumentation");
    g.sample_size(10);

    g.bench_function("baseline", |bench| {
        bench.iter(|| {
            let rep = execute(w.as_ref(), None, None);
            assert!(rep.output.is_ok());
            rep.kernel_cycles
        })
    });

    let configs: [(&str, SiteFilter, InfoFlags); 3] = [
        (
            "before_branches",
            SiteFilter::COND_BRANCHES,
            InfoFlags::COND_BRANCH,
        ),
        ("before_memory", SiteFilter::MEMORY, InfoFlags::MEMORY),
        ("before_all", SiteFilter::ALL, InfoFlags::NONE),
    ];
    for (label, filter, what) in configs {
        g.bench_function(label, |bench| {
            bench.iter(|| {
                let mut sassi = Sassi::new();
                sassi.on_before(filter, what, Box::new(FnHandler::free(|_| {})));
                let rep = execute(w.as_ref(), Some(&mut sassi), None);
                assert!(rep.output.is_ok());
                rep.kernel_cycles
            })
        });
    }
    g.bench_function("after_reg_writes", |bench| {
        bench.iter(|| {
            let mut sassi = Sassi::new();
            sassi.on_after(
                SiteFilter::REG_WRITES,
                InfoFlags::REGISTERS,
                Box::new(FnHandler::free(|_| {})),
            );
            let rep = execute(w.as_ref(), Some(&mut sassi), None);
            assert!(rep.output.is_ok());
            rep.kernel_cycles
        })
    });
    g.finish();
}

/// Branches, global memory and register writes in one straight kernel,
/// so every site filter below finds work.
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

/// Steady-state trap dispatch: one persistent device and pre-linked
/// instrumented module, relaunched per iteration so decode, site
/// binding, warp pools and handler scratch are all warm — the
/// measurement isolates the trampoline + dispatch + handler path that
/// the allocation-free fast path optimizes. The handler bodies read
/// their parameters as the study handlers do, through the warp views;
/// `register_lanes` reads the `register` case's values lane by lane
/// through the per-lane view, the cost the warp views replace.
fn bench_trap_dispatch(c: &mut Criterion) {
    type HandlerBody = fn(&mut SiteCtx<'_, '_>);
    let combos: [(&str, SiteFilter, InfoFlags, bool, HandlerBody); 5] = [
        (
            "branch",
            SiteFilter::COND_BRANCHES,
            InfoFlags::COND_BRANCH,
            false,
            |ctx| {
                let taken = ctx
                    .warp_branch_params()
                    .expect("branch info")
                    .taken(ctx.trap)
                    .expect("readable parameters");
                std::hint::black_box(taken);
            },
        ),
        (
            "memory",
            SiteFilter::MEMORY,
            InfoFlags::MEMORY,
            false,
            |ctx| {
                let active = ctx.active_mask();
                let addrs = ctx
                    .warp_memory_params()
                    .expect("memory info")
                    .addresses(ctx.trap, active)
                    .expect("readable parameters");
                let mut lines = 0u64;
                for lane in ctx.active_lanes() {
                    lines ^= addrs[lane] >> 5;
                }
                std::hint::black_box(lines);
            },
        ),
        (
            "register",
            SiteFilter::REG_WRITES,
            InfoFlags::REGISTERS,
            true,
            |ctx| {
                let mut acc = 0u32;
                if let Some(leader) = ctx.leader() {
                    let rp = ctx.warp_register_params().expect("register info");
                    let n = rp.num_dsts(ctx.trap, leader).expect("readable parameters");
                    for d in 0..n {
                        let values = rp
                            .values(ctx.trap, ctx.active_mask(), d)
                            .expect("readable parameters");
                        for lane in ctx.active_lanes() {
                            acc &= values[lane];
                        }
                    }
                }
                std::hint::black_box(acc);
            },
        ),
        (
            "register_lanes",
            SiteFilter::REG_WRITES,
            InfoFlags::REGISTERS,
            true,
            |ctx| {
                let mut acc = 0u32;
                if let Some(leader) = ctx.leader() {
                    let rp = ctx.register_params(leader).expect("register info");
                    for d in 0..rp.num_dsts(ctx.trap) {
                        for lane in ctx.active_lanes() {
                            acc &=
                                sassi::RegisterParamsView::new(ctx.trap, lane).value(ctx.trap, d);
                        }
                    }
                }
                std::hint::black_box(acc);
            },
        ),
        ("generic", SiteFilter::ALL, InfoFlags::NONE, false, |ctx| {
            std::hint::black_box(ctx.active_lanes().len());
        }),
    ];

    let mut g = c.benchmark_group("trap_dispatch");
    g.sample_size(20);
    for (label, filter, what, after, body) in combos {
        let mut sassi = Sassi::new();
        if after {
            sassi.on_after(filter, what, Box::new(FnHandler::free(body)));
        } else {
            sassi.on_before(filter, what, Box::new(FnHandler::free(body)));
        }

        let mut dev = Device::with_defaults();
        let n = 512u32;
        let src = dev.mem.alloc(4 * n as u64, 4).unwrap();
        let dst = dev.mem.alloc(4 * n as u64, 4).unwrap();
        for k in 0..n {
            dev.mem.write_u32(src + 4 * k as u64, k * 7 % 250).unwrap();
        }
        let module = Module::link(&[sassi.apply(&mixed_kernel(), 0)]).unwrap();
        let params = [n as u64, src, dst];
        let dims = LaunchDims::linear(16, 32);
        // Warm decode cache, site binding and the warp pool.
        let warm = dev
            .launch(&module, "mixed", dims, &params, &mut sassi, 0, 50_000_000)
            .unwrap();
        assert!(warm.is_ok());
        assert!(warm.stats.handler_calls > 0, "{label}: no traps fired");

        g.bench_function(label, |bench| {
            bench.iter(|| {
                let res = dev
                    .launch(&module, "mixed", dims, &params, &mut sassi, 0, 50_000_000)
                    .unwrap();
                assert!(res.is_ok());
                res.stats.handler_calls
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_instrumentation, bench_trap_dispatch);
criterion_main!(benches);
