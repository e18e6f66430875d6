//! The block-stepped scheduler's contract, in three parts:
//!
//! 1. **Table invariants** — over random instruction streams, the
//!    decode-time basic-block table is a partition of the pc space
//!    whose internal pcs are exactly the non-boundary µops and whose
//!    block-ending pcs are exactly the control-transfer/barrier µops
//!    (or the end of the module).
//! 2. **Oracle equivalence** — on divergent, barrier, trap-dense and
//!    faulting kernels, the decoded interpreter's fused run loop gives
//!    the same `LaunchResult` (cycles included), memory and precise
//!    faults as the reference interpreter under the same scheduler.
//! 3. **Timing contract** — a run does not wait on dependences inside
//!    it (DESIGN.md, "Timing contract").

use proptest::prelude::*;
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_isa::{FunctionMeta, Instr, Label, Op};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{
    is_block_boundary, Device, ExecMode, KernelOutcome, LaunchDims, LaunchResult, LinkedFunction,
    Module, NoHandlers,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Half 1: table invariants over arbitrary instruction streams.

/// A compact generator of instruction streams that mixes straight-line
/// µops with every block-ending shape: branches (valid and wild),
/// reconvergence pushes/pops, barriers, returns, calls to functions
/// (unlinked → `Invalid`) and to handlers (→ `Trap`, which must NOT
/// end a block).
fn instr_strategy(len: u32) -> impl Strategy<Value = Instr> {
    // The vendored proptest shim has no weighted arms or `Just`; a
    // single discriminant draw keeps straight-line µops (Nop) common
    // enough that runs of useful length appear.
    (0u32..16, 0..len * 2, 0u32..4).prop_map(|(kind, pc, h)| {
        Instr::new(match kind {
            0..=5 => Op::Nop,
            6 => Op::MemBar,
            7 | 8 => Op::Bra {
                target: Label::Pc(pc),
                uniform: false,
            },
            9 => Op::Ssy {
                target: Label::Pc(pc),
            },
            10 => Op::Sync,
            11 => Op::BarSync,
            12 => Op::Ret,
            13 => Op::Exit,
            14 => Op::Jcal {
                target: Label::Handler(h),
            },
            _ => Op::Jcal {
                target: Label::Func(h),
            },
        })
    })
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

    /// Every pc belongs to exactly one block, blocks tile `0..len`
    /// contiguously, and a pc is the last of its block iff its µop is
    /// a block boundary or the module's final instruction.
    #[test]
    fn block_table_partitions_pc_space(
        code in prop::collection::vec(instr_strategy(64), 1..64),
    ) {
        let module = raw_module(code);
        let dm = module.decoded();
        let n = dm.len() as u32;
        let blocks = dm.blocks();

        // Partition: contiguous, non-empty, covering exactly 0..n.
        prop_assert!(!blocks.is_empty());
        prop_assert_eq!(blocks[0].start, 0);
        prop_assert_eq!(blocks[blocks.len() - 1].end, n);
        for w in blocks.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "blocks must tile the pc space");
            prop_assert!(w[0].start < w[0].end, "blocks are non-empty");
        }

        for pc in 0..n {
            // Membership: block_index agrees with the block extents.
            let bi = dm.block_index(pc).expect("in-range pc") as usize;
            let b = blocks[bi];
            prop_assert!(b.start <= pc && pc < b.end, "pc {} outside its block {:?}", pc, b);
            prop_assert_eq!(dm.block_end(pc), b.end);

            // Boundary coincidence: last-of-block ⟺ boundary µop or
            // final instruction; internal pcs are never boundaries.
            let uop = &dm.get(pc).unwrap().uop;
            let is_last = pc + 1 == b.end;
            if is_block_boundary(uop) {
                prop_assert!(is_last, "boundary µop at {} must end its block", pc);
            } else if is_last {
                prop_assert_eq!(b.end, n, "only the module end may close a block \
                                           on a non-boundary µop (pc {})", pc);
            }
        }

        // Out-of-range pcs degrade to a single-fetch extent.
        prop_assert_eq!(dm.block_end(n), n + 1);
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
    /// every-site instrumentation (traps inside blocks).
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
/// the whole body is one block full of `Trap` µops — the case that
/// motivates keeping traps out of the boundary set.
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
    // Trap sites sit strictly inside blocks: none ends a block.
    for site in dm.sites() {
        assert!(
            dm.block_end(site.pc) > site.pc + 1,
            "trap at {} must not end its block",
            site.pc
        );
    }
    check_equivalent(&module, LaunchDims::linear(2, 32), 64, true);
}

// ---------------------------------------------------------------------
// Part 3: the timing contract.

/// One warp runs a single straight-line block: a global load, then an
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
            assert_eq!(module.decoded().blocks().len(), 1);
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
