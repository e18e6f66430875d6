//! Criterion benchmark: raw simulator throughput (warp instructions per
//! second) on convergent, divergent and memory-bound kernels, with the
//! pre-decoded µop interpreter benchmarked head-to-head against the
//! reference (seed) interpreter on every kernel. Each of those
//! iterations builds a fresh device; `sim/relaunch_floor` instead
//! relaunches a one-store kernel on one warm device, timing the fixed
//! cost every launch pays, and `sim/fresh_device_launch` builds a new
//! default device and launches the same kernel once per iteration, as
//! each run of an injection campaign does, so it times device set-up
//! with SM slots recycled from the device dropped before it.
//!
//! The `interp/*` group times the interpreter alone: hand-written SASS
//! loops relaunched on one warm device, so launch set-up is a small
//! share. `alu_full_mask` runs ALU µops with every lane active,
//! `alu_half_mask` the same µops guarded to half the warp, and
//! `spill_fill` saves and restores 16 registers at one stack offset,
//! as an instrumentation trampoline does, and `spill_fill_one_uop_runs`
//! the same in a module that also holds an unreached consuming atomic,
//! so that every µop is a run of its own and each spill or fill is run
//! as a local span of one µop. `trampoline_full_mask` runs
//! the code SASSI inserts at one site (a real `Sassi::apply` of a
//! one-instruction kernel, calling a no-op handler), and
//! `trampoline_half_mask` the same with half the warp exited, as
//! instrumented apps run it with partly active warps.
//! `trampoline_regs_full_mask` and `trampoline_regs_half_mask` run the
//! trampoline an error-injection campaign inserts after each candidate
//! instead, whose register and parameter stores are most of its µops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_isa::{
    AtomOp, CmpOp, Function, FunctionMeta, Gpr, Guard, Instr, Label, LogicOp, MemAddr, MemWidth,
    Op, PredReg, SpecialReg, Src,
};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, ExecMode, HandlerRuntime, LaunchDims, LinkedFunction, Module, NoHandlers};
use std::collections::BTreeMap;

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
    g.bench_function("fresh_device_launch", |b| {
        b.iter(|| {
            let mut dev = Device::with_defaults();
            let out = dev.mem.alloc(dims.total_threads() * 4, 8).unwrap();
            let res = dev
                .launch(&module, "store", dims, &[out], &mut NoHandlers, 0, 1 << 20)
                .unwrap();
            assert!(res.is_ok());
            res.stats.warp_instrs
        })
    });
    g.finish();
}

/// Iterations of each `interp/*` loop body.
const INTERP_ITERS: u32 = 64;

/// A raw SASS kernel `k`: seed R2..R17 per lane, set `P0` on lanes
/// 0..16 (and exit lanes 16..32 if `half_warp`), run `body`
/// `INTERP_ITERS` times in a uniform loop, exit. With `one_uop_runs`,
/// an unreached consuming global atomic follows the `EXIT`, which
/// makes every µop of the module the last of its run.
fn interp_kernel(body: Vec<Instr>, half_warp: bool, one_uop_runs: bool) -> Module {
    let r = Gpr::new;
    let mut code = vec![
        Instr::new(Op::S2R {
            d: r(0),
            sr: SpecialReg::LaneId,
        }),
        Instr::new(Op::ISetP {
            p: PredReg::new(0),
            cmp: CmpOp::Lt,
            a: r(0),
            b: Src::Imm(16),
            signed: false,
            combine: None,
        }),
    ];
    for k in 2..18 {
        code.push(Instr::new(Op::IMad {
            d: r(k),
            a: r(0),
            b: Src::Imm(2 * k as u32 + 1),
            c: r(0),
        }));
    }
    code.push(Instr::new(Op::Mov32I {
        d: r(18),
        imm: INTERP_ITERS,
    }));
    if half_warp {
        code.push(Instr::guarded(Guard::not(PredReg::new(0)), Op::Exit));
    }
    let top = code.len() as u32;
    code.extend(body);
    code.push(Instr::new(Op::IAdd {
        d: r(18),
        a: r(18),
        b: Src::Imm(u32::MAX),
        x: false,
        cc: false,
    }));
    code.push(Instr::new(Op::ISetP {
        p: PredReg::new(1),
        cmp: CmpOp::Ne,
        a: r(18),
        b: Src::Imm(0),
        signed: false,
        combine: None,
    }));
    code.push(Instr::guarded(
        Guard::on(PredReg::new(1)),
        Op::Bra {
            target: Label::Pc(top),
            uniform: true,
        },
    ));
    code.push(Instr::new(Op::Exit));
    if one_uop_runs {
        code.push(Instr::new(Op::Atom {
            d: r(2),
            op: AtomOp::Add,
            addr: MemAddr::global(r(4), 0),
            v: r(2),
            v2: None,
            wide: false,
        }));
    }
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end: code.len() as u32,
        meta: FunctionMeta {
            reg_high_water: 19,
            ..FunctionMeta::default()
        },
    };
    let module = Module::from_parts(code, vec![f], BTreeMap::new());
    assert_eq!(
        module.decoded().has_consuming_global_atomics(),
        one_uop_runs
    );
    module
}

/// Sixteen dependent integer ALU µops over R2..R9 under `guard`.
fn alu_body(guard: Guard) -> Vec<Instr> {
    let r = Gpr::new;
    let mut body = Vec::new();
    for k in 0..4u8 {
        let (a, b, c, d) = (r(2 + k), r(3 + k), r(4 + k), r(5 + k));
        body.push(Op::IMad {
            d: a,
            a,
            b: Src::Reg(b),
            c,
        });
        body.push(Op::Lop {
            d: b,
            op: LogicOp::Xor,
            a: b,
            b: Src::Reg(a),
            inv_b: false,
        });
        body.push(Op::IAdd {
            d: c,
            a: c,
            b: Src::Imm(0x9e37),
            x: false,
            cc: false,
        });
        body.push(Op::Shr {
            d,
            a: d,
            b: Src::Imm(1),
            signed: false,
        });
    }
    body.into_iter()
        .map(|op| Instr::guarded(guard, op))
        .collect()
}

/// A trampoline's save and restore: push 64 bytes of stack, store
/// R2..R17 at one offset per register (the same for every lane), load
/// them back, pop.
fn spill_fill_body() -> Vec<Instr> {
    let sp_add = |imm: i32| {
        Instr::new(Op::IAdd {
            d: Gpr::SP,
            a: Gpr::SP,
            b: Src::Imm(imm as u32),
            x: false,
            cc: false,
        })
    };
    let mut body = vec![sp_add(-64)];
    for k in 0..16 {
        body.push(Instr::new(Op::St {
            v: Gpr::new(2 + k),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, 4 * k as i32),
            spill: true,
        }));
    }
    for k in 0..16 {
        body.push(Instr::new(Op::Ld {
            d: Gpr::new(2 + k),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, 4 * k as i32),
            spill: true,
        }));
    }
    body.push(sp_add(64));
    body
}

/// SASSI's instrumentation of a one-instruction kernel (`IADD R2, R2,
/// 0x1`) before every instruction with a no-op handler: the
/// trampoline's stack push, register and predicate saves, parameter
/// stores, handler call, restores and pop, then the instruction. The
/// handler runs under the returned `Sassi`.
fn trampoline_body() -> (Vec<Instr>, Sassi) {
    let site = Function::new(
        "site",
        vec![Instr::new(Op::IAdd {
            d: Gpr::new(2),
            a: Gpr::new(2),
            b: Src::Imm(1),
            x: false,
            cc: false,
        })],
        FunctionMeta::default(),
    );
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(|_| {})),
    );
    let body = sassi.apply(&site, 0).instrs;
    assert!(body.len() > 8, "no trampoline: {body:?}");
    (body, sassi)
}

/// The trampoline an error-injection campaign inserts after each
/// candidate (an `After` site under a register-write filter, with
/// `REGISTERS` info) around `IADD R2, R2, 0x1`, with R2..R5 and R8..R11
/// live after it: eight spills and fills, the destination value, the
/// register-parameter and before-parameter `MOV32I`/`STL` pairs, the
/// handler call, then the instruction. The live set comes from two
/// instructions after the site, an `ISETP` and a `STG.128`, which are
/// cut from the body (neither writes a GPR, so neither is a site). The
/// handler runs under the returned `Sassi`.
fn trampoline_regs_body() -> (Vec<Instr>, Sassi) {
    let r = Gpr::new;
    let tail = [
        Instr::new(Op::ISetP {
            p: PredReg::new(2),
            cmp: CmpOp::Lt,
            a: r(2),
            b: Src::Reg(r(3)),
            signed: false,
            combine: None,
        }),
        Instr::new(Op::St {
            v: r(8),
            width: MemWidth::B128,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
    ];
    let mut code = vec![Instr::new(Op::IAdd {
        d: r(2),
        a: r(2),
        b: Src::Imm(1),
        x: false,
        cc: false,
    })];
    code.extend(tail.clone());
    let site = Function::new("site", code, FunctionMeta::default());
    let mut sassi = Sassi::new();
    sassi.on_after(
        SiteFilter::REG_WRITES,
        InfoFlags::REGISTERS,
        Box::new(FnHandler::free(|_| {})),
    );
    let mut body = sassi.apply(&site, 0).instrs;
    let cut = body.split_off(body.len() - tail.len());
    assert_eq!(cut, tail, "the tail is instrumented");
    assert!(body.len() > 40, "no injection trampoline: {body:?}");
    (body, sassi)
}

fn bench_interp(c: &mut Criterion) {
    let (tramp_full, mut sassi_full) = trampoline_body();
    let (tramp_half, mut sassi_half) = trampoline_body();
    let (regs_full, mut sassi_regs_full) = trampoline_regs_body();
    let (regs_half, mut sassi_regs_half) = trampoline_regs_body();
    let cases: [(&str, Module, &mut dyn HandlerRuntime); 8] = [
        (
            "alu_full_mask",
            interp_kernel(alu_body(Guard::ALWAYS), false, false),
            &mut NoHandlers,
        ),
        (
            "alu_half_mask",
            interp_kernel(alu_body(Guard::on(PredReg::new(0))), false, false),
            &mut NoHandlers,
        ),
        (
            "spill_fill",
            interp_kernel(spill_fill_body(), false, false),
            &mut NoHandlers,
        ),
        (
            "spill_fill_one_uop_runs",
            interp_kernel(spill_fill_body(), false, true),
            &mut NoHandlers,
        ),
        (
            "trampoline_full_mask",
            interp_kernel(tramp_full, false, false),
            &mut sassi_full,
        ),
        (
            "trampoline_half_mask",
            interp_kernel(tramp_half, true, false),
            &mut sassi_half,
        ),
        (
            "trampoline_regs_full_mask",
            interp_kernel(regs_full, false, false),
            &mut sassi_regs_full,
        ),
        (
            "trampoline_regs_half_mask",
            interp_kernel(regs_half, true, false),
            &mut sassi_regs_half,
        ),
    ];
    let dims = LaunchDims::linear(1, 256);
    for (label, module, runtime) in cases {
        let mut dev = Device::with_defaults();
        let mut relaunch = || {
            let res = dev
                .launch(&module, "k", dims, &[], runtime, 0, 1 << 30)
                .unwrap();
            assert!(res.is_ok(), "{label}: {:?}", res.outcome);
            res.stats.warp_instrs
        };
        // The first launch builds the SM slots.
        let instrs = relaunch();
        let mut g = c.benchmark_group("interp");
        g.throughput(Throughput::Elements(instrs));
        g.bench_function(label, |b| b.iter(&mut relaunch));
        g.finish();
    }
}

criterion_group!(benches, bench_sim, bench_relaunch, bench_interp);
criterion_main!(benches);
