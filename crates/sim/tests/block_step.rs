//! The run-stepped scheduler's contract, in three parts:
//!
//! 1. **Run shape** — over random instruction streams, decode's
//!    per-pc run end is one past the first control transfer or barrier
//!    at or after the pc (or the module's end), traps do not end runs,
//!    and in a module with consuming global atomics every run and
//!    every local span is one µop.
//! 2. **Oracle equivalence** — on divergent, barrier, trap-dense and
//!    faulting kernels, the decoded interpreter's fused run loop gives
//!    the same `LaunchResult` (cycles included), memory and precise
//!    faults as the reference interpreter under the same scheduler.
//! 3. **Timing contract** — a run does not wait on dependences inside
//!    it, and each SM-side µop is charged a pinned latency (DESIGN.md,
//!    "Timing contract").

use proptest::prelude::*;
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_isa::{FunctionMeta, Instr, Label, Op};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{
    Device, ExecMode, KernelOutcome, LaunchDims, LaunchResult, LinkedFunction, Module, NoHandlers,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Part 1: the run shape over arbitrary instruction streams.

/// A compact generator of instruction streams that mixes straight-line
/// µops, spills and fills among them, with every run-ending shape:
/// branches (valid and wild), reconvergence pushes/pops, barriers,
/// returns, calls to linked and unlinked functions, and calls to
/// handlers (→ `Trap`, which must NOT end a run).
fn instr_strategy(len: u32) -> impl Strategy<Value = Instr> {
    use sassi_isa::{Gpr, MemAddr, MemWidth};
    // The vendored proptest shim has no weighted arms or `Just`; a
    // single discriminant draw keeps straight-line µops (Nop, STL,
    // LDL) common enough that runs and spans of useful length appear.
    (0u32..20, 0..len * 2, 0u32..4).prop_map(|(kind, pc, h)| {
        let local = MemAddr::local(Gpr::SP, 4 * h as i32);
        Instr::new(match kind {
            0..=3 => Op::Nop,
            4 | 5 => Op::St {
                v: Gpr::new(2),
                width: MemWidth::B32,
                addr: local,
                spill: true,
            },
            6 | 7 => Op::Ld {
                d: Gpr::new(3),
                width: MemWidth::B32,
                addr: local,
                spill: true,
            },
            8 => Op::MemBar,
            9 | 10 => Op::Bra {
                target: Label::Pc(pc),
                uniform: false,
            },
            11 => Op::Ssy {
                target: Label::Pc(pc),
            },
            12 => Op::Sync,
            13 => Op::BarSync,
            14 => Op::Ret,
            15 => Op::Exit,
            16 | 17 => Op::Jcal {
                target: Label::Handler(h),
            },
            18 => Op::Jcal {
                target: Label::Pc(pc),
            },
            _ => Op::Jcal {
                target: Label::Func(h),
            },
        })
    })
}

/// Whether `op` ends a run, read off the instruction itself: every
/// control transfer and the CTA barrier, but not a call into a
/// handler, which resumes at the next pc.
fn ends_run(op: &Op) -> bool {
    match op {
        Op::Bra { .. } | Op::Ssy { .. } | Op::Sync | Op::Exit | Op::Ret | Op::BarSync => true,
        Op::Jcal { target } => !matches!(target, Label::Handler(_)),
        _ => false,
    }
}

fn raw_module(code: Vec<Instr>) -> Module {
    let end = code.len() as u32;
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end,
        meta: FunctionMeta {
            reg_high_water: 8,
            ..FunctionMeta::default()
        },
    };
    Module::from_parts(code, vec![f], BTreeMap::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each pc's run ends one past the first run-ending instruction at
    /// or after it, or at the module's end, and no local span crosses
    /// its run's end. With a consuming global atomic appended
    /// (unreached), every run is one µop and every span at most one.
    #[test]
    fn run_end_follows_raw_ops(
        code in prop::collection::vec(instr_strategy(64), 1..64),
    ) {
        let n = code.len() as u32;
        let mut want = vec![n; code.len()];
        for pc in (0..code.len()).rev() {
            if ends_run(&code[pc].op) {
                want[pc] = pc as u32 + 1;
            } else if pc + 1 < code.len() {
                want[pc] = want[pc + 1];
            }
        }
        let module = raw_module(code.clone());
        let dm = module.decoded();
        prop_assert!(!dm.has_consuming_global_atomics());
        for pc in 0..n {
            prop_assert_eq!(dm.run_end(pc), want[pc as usize], "run end from pc {}", pc);
            let span = dm.get(pc).unwrap().span as u32;
            prop_assert!(pc + span <= want[pc as usize], "span from pc {} leaves its run", pc);
        }
        // Out-of-range pcs degrade to a single-fetch extent.
        prop_assert_eq!(dm.run_end(n), n + 1);

        let mut code = code;
        code.push(Instr::new(Op::Atom {
            d: sassi_isa::Gpr::new(2),
            op: sassi_isa::AtomOp::Add,
            addr: sassi_isa::MemAddr::global(sassi_isa::Gpr::new(4), 0),
            v: sassi_isa::Gpr::new(2),
            v2: None,
            wide: false,
        }));
        let module = raw_module(code);
        let dm = module.decoded();
        prop_assert!(dm.has_consuming_global_atomics());
        for pc in 0..=n + 1 {
            prop_assert_eq!(dm.run_end(pc), pc + 1, "one-µop run from pc {}", pc);
            prop_assert!(dm.get(pc).map_or(0, |di| di.span) <= 1, "span from pc {}", pc);
        }
    }
}

// ---------------------------------------------------------------------
// Part 2: oracle equivalence, decoded vs reference interpreter.

/// Launches `module`'s kernel `k` on a device running `mode`; returns
/// the result and the first `out_words` of its output buffer.
fn run_mode(
    module: &Module,
    dims: LaunchDims,
    out_words: u64,
    mode: ExecMode,
    sassi: Option<&mut Sassi>,
) -> (LaunchResult, Vec<u32>) {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    let out = dev.mem.alloc(out_words * 4, 8).unwrap();
    let res = match sassi {
        Some(s) => dev.launch(module, "k", dims, &[out], s, 0, 1 << 32),
        None => dev.launch(module, "k", dims, &[out], &mut NoHandlers, 0, 1 << 32),
    }
    .unwrap();
    let mem = (0..out_words)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect();
    (res, mem)
}

/// Kernel with nested divergence, a barrier astride the divergent
/// region's reconvergence point, and global traffic — every boundary
/// kind on one hot path.
fn divergent_barrier_kernel(n_then: u32, n_else: u32, bit: u32) -> sassi_kir::KFunction {
    let mut b = KernelBuilder::kernel("k");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let t = b.shr(tid, bit);
    let tb = b.and(t, 1u32);
    let taken = b.setp_u32_eq(tb, 1u32);
    let acc = b.var_u32(0u32);
    b.if_else(
        taken,
        |b| {
            let mut v = tid;
            for _ in 0..n_then {
                v = b.imul(v, 3u32);
            }
            b.assign(acc, v);
        },
        |b| {
            let mut v = tid;
            for _ in 0..n_else {
                v = b.iadd(v, 7u32);
            }
            b.assign(acc, v);
        },
    );
    b.bar_sync();
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, acc);
    b.finish()
}

/// Kernel where lanes selected by `bit` store through a wild pointer —
/// the precise-fault case. Lanes fault mid-module with live stores
/// before and after the faulting site.
fn faulting_kernel(bit: u32, n_pre: u32) -> sassi_kir::KFunction {
    let mut b = KernelBuilder::kernel("k");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let mut v = tid;
    for _ in 0..n_pre {
        v = b.iadd(v, 11u32);
    }
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, v);
    let t = b.shr(tid, bit);
    let tb = b.and(t, 1u32);
    let taken = b.setp_u32_eq(tb, 1u32);
    b.if_else(
        taken,
        |b| {
            // 64 MiB past the base: outside every allocation, and small
            // enough to survive the 32-bit shift inside `lea`.
            let wild = b.iconst(0x0100_0000u32);
            let e = b.lea(out, wild, 2);
            b.st_global_u32(e, wild);
        },
        |_| {},
    );
    let e2 = b.lea(out, tid, 2);
    b.st_global_u32(e2, v);
    b.finish()
}

fn check_equivalent(module: &Module, dims: LaunchDims, out_words: u64, instrument: bool) {
    let (mut s_ref, mut s_dec) = (Sassi::new(), Sassi::new());
    for s in [&mut s_ref, &mut s_dec] {
        s.on_before(
            SiteFilter::ALL,
            InfoFlags::NONE,
            Box::new(FnHandler::free(|_| {})),
        );
    }
    let (res_r, mem_r) = run_mode(
        module,
        dims,
        out_words,
        ExecMode::Reference,
        instrument.then_some(&mut s_ref),
    );
    let (res_d, mem_d) = run_mode(
        module,
        dims,
        out_words,
        ExecMode::Decoded,
        instrument.then_some(&mut s_dec),
    );
    // The whole result: outcome, every `LaunchStats` counter (cycles
    // included) and the memory-system counters.
    assert_eq!(res_d, res_r, "launch result diverges");
    assert_eq!(mem_d, mem_r, "memory diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Divergence + barrier + memory kernels: the decoded run loop is
    /// cycle-exact against the reference interpreter, with and without
    /// every-site instrumentation (traps inside runs).
    #[test]
    fn decoded_runs_match_reference(
        n_then in 0u32..4,
        n_else in 0u32..4,
        bit in 0u32..5,
        instrument in any::<bool>(),
    ) {
        let kf = divergent_barrier_kernel(n_then, n_else, bit);
        let plain = Compiler::new().compile(&kf).unwrap();
        let func = if instrument {
            let mut s = Sassi::new();
            s.on_before(SiteFilter::ALL, InfoFlags::NONE, Box::new(FnHandler::free(|_| {})));
            s.apply(&plain, 0)
        } else {
            plain
        };
        let module = Module::link(std::slice::from_ref(&func)).unwrap();
        check_equivalent(&module, LaunchDims::linear(2, 64), 128, instrument);
    }

    /// Faulting kernels: a fault in the middle of a run is precise —
    /// the decoded loop reports the same fault (kind, pc, sm), cycles
    /// and memory effects up to the fault as the reference.
    #[test]
    fn runs_preserve_precise_faults(
        bit in 0u32..5,
        n_pre in 0u32..4,
    ) {
        let kf = faulting_kernel(bit, n_pre);
        let func = Compiler::new().compile(&kf).unwrap();
        let module = Module::link(std::slice::from_ref(&func)).unwrap();
        let dims = LaunchDims::linear(2, 32);
        let (res_r, mem_r) = run_mode(&module, dims, 64, ExecMode::Reference, None);
        let (res_d, mem_d) = run_mode(&module, dims, 64, ExecMode::Decoded, None);
        prop_assert!(matches!(res_r.outcome, KernelOutcome::Fault(_)), "expected a fault");
        prop_assert_eq!(res_d, res_r, "fault result diverges");
        prop_assert_eq!(mem_d, mem_r, "pre-fault memory diverges");
    }
}

/// A trap-dense straight-line kernel: with every-site instrumentation
/// the whole body is one run full of `Trap` µops — the case that
/// motivates keeping traps from ending runs.
#[test]
fn traps_do_not_fragment_blocks() {
    let mut b = KernelBuilder::kernel("k");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let mut v = tid;
    for i in 0..8 {
        v = b.iadd(v, i + 1);
    }
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, v);
    let plain = Compiler::new().compile(&b.finish()).unwrap();
    let mut s = Sassi::new();
    s.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(|_| {})),
    );
    let inst = s.apply(&plain, 0);
    let module = Module::link(std::slice::from_ref(&inst)).unwrap();
    let dm = module.decoded();
    assert!(dm.trap_count() > 0);
    // Trap sites sit strictly inside runs: none ends a run.
    for site in dm.sites() {
        assert!(
            dm.run_end(site.pc) > site.pc + 1,
            "trap at {} must not end its run",
            site.pc
        );
    }
    check_equivalent(&module, LaunchDims::linear(2, 32), 64, true);
}

// ---------------------------------------------------------------------
// Part 3: the timing contract.

/// One warp runs a single straight-line run: a global load, then an
/// ALU µop reading either the load's destination or an unrelated
/// register, then a store of the ALU result. A run does not wait on
/// dependences inside it, so both variants take the same cycles — one
/// per µop — while the dependent one still computes with the loaded
/// value.
#[test]
fn runs_do_not_wait_on_intra_block_dependences() {
    use sassi_isa::{CBankAddr, Gpr, MemAddr, MemWidth, Src};
    let r = Gpr::new;
    let kernel = |alu_src: Gpr| {
        raw_module(vec![
            Instr::new(Op::Mov {
                d: r(2),
                a: Src::Const(CBankAddr::new(0, 0x140)),
            }),
            Instr::new(Op::Mov {
                d: r(3),
                a: Src::Const(CBankAddr::new(0, 0x144)),
            }),
            Instr::new(Op::Ld {
                d: r(4),
                width: MemWidth::B32,
                addr: MemAddr::global(r(2), 0),
                spill: false,
            }),
            Instr::new(Op::IAdd {
                d: r(5),
                a: alu_src,
                b: Src::Imm(1),
                x: false,
                cc: false,
            }),
            Instr::new(Op::St {
                v: r(5),
                width: MemWidth::B32,
                addr: MemAddr::global(r(2), 4),
                spill: false,
            }),
            Instr::new(Op::Exit),
        ])
    };
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut cycles = Vec::new();
        for (alu_src, want) in [(r(4), 42), (r(6), 1)] {
            let module = kernel(alu_src);
            assert_eq!(module.decoded().run_end(0), 6);
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            let buf = dev.mem.alloc(8, 8).unwrap();
            dev.mem.write_u32(buf, 41).unwrap();
            let res = dev
                .launch(
                    &module,
                    "k",
                    LaunchDims::linear(1, 32),
                    &[buf],
                    &mut NoHandlers,
                    0,
                    1 << 20,
                )
                .unwrap();
            assert!(res.is_ok(), "{:?}", res.outcome);
            assert_eq!(dev.mem.read_u32(buf + 4).unwrap(), want);
            cycles.push(res.stats.cycles);
        }
        assert_eq!(
            cycles[0], cycles[1],
            "{mode:?}: a dependent µop inside a run must not stall"
        );
        assert_eq!(cycles[0], 6, "{mode:?}: one cycle per µop");
    }
}

/// A handler runtime whose every trap costs a fixed 50 instructions
/// (100 cycles).
struct FixedCost;

impl sassi_sim::HandlerRuntime for FixedCost {
    fn handle(
        &mut self,
        _trap: sassi_sim::TrapRef,
        _ctx: &mut sassi_sim::TrapCtx<'_>,
    ) -> sassi_sim::HandlerCost {
        sassi_sim::HandlerCost {
            instructions: 50,
            ..sassi_sim::HandlerCost::FREE
        }
    }
}

/// Each µop that leaves the decoded run loop for the SM — shared,
/// global (on and off the window path), atomic, barrier, fence,
/// call/return and trap — is charged its latency in absolute cycles.
/// Both interpreters fold latencies in the one run loop, so the
/// differential tests cannot see a latency lost on both paths; these
/// figures can.
///
/// Every kernel is one warp: a prologue points `R2:R3` at the first
/// buffer plus `lane << shift` and sets `R5 = lane << shift`, then the
/// µop under test ends its run (or is the last µop before the `BRA`
/// that closes it), so the warp's next run waits out its latency and
/// the launch's cycles are that µop's issue cycle plus its latency
/// plus the closing µops.
#[test]
fn sm_side_uop_latencies_in_cycles() {
    use sassi_isa::{AtomOp, CBankAddr, Gpr, MemAddr, MemWidth, SpecialReg, Src};
    let r = Gpr::new;
    let kernel = |shift: u8, under_test: Vec<Op>| {
        let mut ops = vec![
            Op::Mov {
                d: r(2),
                a: Src::Const(CBankAddr::new(0, 0x140)),
            },
            Op::Mov {
                d: r(3),
                a: Src::Const(CBankAddr::new(0, 0x144)),
            },
            Op::S2R {
                d: r(0),
                sr: SpecialReg::LaneId,
            },
            Op::IScAdd {
                d: r(5),
                a: r(0),
                b: Src::Imm(0),
                shift,
            },
            Op::IAdd {
                d: r(2),
                a: r(2),
                b: Src::Reg(r(5)),
                x: false,
                cc: false,
            },
        ];
        ops.extend(under_test);
        let close = ops.len() as u32 + 1;
        ops.push(Op::Bra {
            target: Label::Pc(close),
            uniform: true,
        });
        ops.push(Op::Exit);
        let code: Vec<Instr> = ops.into_iter().map(Instr::new).collect();
        let end = code.len() as u32;
        let f = LinkedFunction {
            name: "k".to_string(),
            entry: 0,
            end,
            meta: FunctionMeta {
                reg_high_water: 8,
                shared_bytes: 128,
                uses_barrier: true,
                ..FunctionMeta::default()
            },
        };
        Module::from_parts(code, vec![f], BTreeMap::new())
    };
    let (shared, global) = (MemAddr::shared(r(5), 0), MemAddr::global(r(2), 0));
    let ld = |addr| Op::Ld {
        d: r(4),
        width: MemWidth::B32,
        addr,
        spill: false,
    };
    let st = |addr| Op::St {
        v: r(0),
        width: MemWidth::B32,
        addr,
        spill: false,
    };
    // The live destination makes this a consuming atomic, so every run
    // is one µop and the prologue's latencies are waited out too.
    let atom = Op::Atom {
        d: r(4),
        op: AtomOp::Add,
        addr: global,
        v: r(0),
        v2: None,
        wide: false,
    };
    let red = Op::Red {
        op: AtomOp::Add,
        addr: global,
        v: r(0),
        wide: false,
    };
    // `CALL 8; BRA 7; EXIT; RET`: the callee returns to the `BRA`.
    let call_ret = vec![
        Op::Jcal {
            target: Label::Pc(8),
        },
        Op::Bra {
            target: Label::Pc(7),
            uniform: true,
        },
        Op::Exit,
        Op::Ret,
    ];
    let trap = Op::Jcal {
        target: Label::Handler(0),
    };
    // (µop, prologue shift, µops under test, cycles). Stride 4 keeps
    // every lane inside the first 128-byte buffer; with stride 8 lanes
    // 16..32 read the second, so no one allocation spans the warp and
    // each lane is checked alone.
    let cases = [
        ("shared LD", 2, vec![ld(shared)], 30),
        ("shared ST", 2, vec![st(shared)], 30),
        ("global LD, window", 2, vec![ld(global)], 422),
        ("global LD, per lane", 3, vec![ld(global)], 430),
        ("ATOM", 2, vec![atom], 445),
        ("RED", 2, vec![red], 438),
        ("BAR.SYNC", 2, vec![Op::BarSync], 9),
        ("MEMBAR", 2, vec![Op::MemBar], 14),
        ("CALL/RET", 2, call_ret, 16),
        ("trap", 2, vec![trap], 110),
    ];
    for (name, shift, under_test, want) in cases {
        let module = kernel(shift, under_test);
        let mut per_mode = Vec::new();
        for mode in [ExecMode::Decoded, ExecMode::Reference] {
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            let a = dev.mem.alloc(128, 8).unwrap();
            dev.mem.alloc(128, 8).unwrap();
            let res = dev
                .launch(
                    &module,
                    "k",
                    LaunchDims::linear(1, 32),
                    &[a],
                    &mut FixedCost,
                    0,
                    1 << 20,
                )
                .unwrap();
            assert!(res.is_ok(), "{name} ({mode:?}): {:?}", res.outcome);
            per_mode.push(res.stats.cycles);
        }
        assert_eq!(per_mode, [want; 2], "{name}: (Decoded, Reference) cycles");
    }
}

/// A local span the decoded run loop runs as one step charges what
/// its µops charge one by one: one cycle each, and a ready time that
/// is its last original's, issue cycle plus the 28-cycle local
/// latency. Each one-warp kernel is the span from pc 0, a `BRA`
/// closing its run and `EXIT`, so the launch takes `k` cycles for the
/// span, then the `EXIT` at the span's ready time, `k - 1 + 28`, and
/// one more cycle: `k + 28`. A lone spill or fill is a span of one.
///
/// In a module with a consuming global atomic (unreached here) every
/// run is one µop and decode marks every span 1, so the spills run one
/// per run, each issued at the last one's ready time: µop `i` at
/// `28 i`, the `BRA` at `28 k` and the `EXIT` at its ready time,
/// `28 k + 2`, for `28 k + 3`.
#[test]
fn local_span_cycles_and_ready_time() {
    use sassi_isa::{AtomOp, Gpr, MemAddr, MemWidth};
    let r = Gpr::new;
    let stl = |v: u8, off: i32| Op::St {
        v: r(v),
        width: MemWidth::B32,
        addr: MemAddr::local(Gpr::SP, off),
        spill: true,
    };
    let ldl = |d: u8, off: i32| Op::Ld {
        d: r(d),
        width: MemWidth::B32,
        addr: MemAddr::local(Gpr::SP, off),
        spill: true,
    };
    let spills = |k: i32| {
        (0..k)
            .map(|j| stl(2 + j as u8, -4 - 4 * j))
            .collect::<Vec<_>>()
    };
    let fills = |k: i32| {
        (0..k)
            .map(|j| ldl(2 + j as u8, -4 - 4 * j))
            .collect::<Vec<_>>()
    };
    let pairs = |k: i32| {
        (0..k)
            .flat_map(|j| {
                [
                    Op::Mov32I {
                        d: r(3),
                        imm: j as u32,
                    },
                    stl(3, -4 - 4 * j),
                ]
            })
            .collect::<Vec<_>>()
    };
    let cases = [
        ("a lone spill", spills(1), false),
        ("a lone fill", fills(1), false),
        ("2 spills", spills(2), false),
        ("8 spills", spills(8), false),
        ("5 fills", fills(5), false),
        ("3 MOV32I/STL pairs", pairs(3), false),
        ("3 spills in one-µop runs", spills(3), true),
    ];
    for (name, span, one_uop_runs) in cases {
        let k = span.len() as u32;
        let mut ops = span;
        ops.push(Op::Bra {
            target: Label::Pc(k + 1),
            uniform: true,
        });
        ops.push(Op::Exit);
        if one_uop_runs {
            ops.push(Op::Atom {
                d: r(2),
                op: AtomOp::Add,
                addr: MemAddr::global(r(4), 0),
                v: r(2),
                v2: None,
                wide: false,
            });
        }
        let module = raw_module(ops.into_iter().map(Instr::new).collect());
        let dm = module.decoded();
        let span = if one_uop_runs { 1 } else { k };
        assert_eq!(dm.get(0).unwrap().span as u32, span, "{name}");
        assert_eq!(dm.has_consuming_global_atomics(), one_uop_runs, "{name}");
        let cycles = if one_uop_runs { 28 * k + 3 } else { k + 28 };
        for mode in [ExecMode::Decoded, ExecMode::Reference] {
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            let res = dev
                .launch(
                    &module,
                    "k",
                    LaunchDims::linear(1, 32),
                    &[],
                    &mut NoHandlers,
                    0,
                    1 << 20,
                )
                .unwrap();
            assert!(res.is_ok(), "{name} ({mode:?}): {:?}", res.outcome);
            assert_eq!(res.stats.cycles, cycles as u64, "{name} ({mode:?}): cycles");
            assert_eq!(res.stats.warp_instrs, k as u64 + 2, "{name} ({mode:?})");
            assert_eq!(
                res.stats.thread_instrs,
                32 * (k as u64 + 2),
                "{name} ({mode:?})"
            );
        }
    }
}
