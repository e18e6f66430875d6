//! Differential test of the register-major warp state and the decoded
//! run loop: random straight-line blocks of ALU, `S2R`, `VOTE` and
//! `SHFL` µops, local loads and stores, and global stores of register
//! snapshots run in both exec modes, and must give the same
//! `LaunchResult` (outcome, fault pc and cycles included) and the same
//! global output. The decoded interpreter runs every warp-local µop in
//! its run loop, with its row paths (full-mask ALU loops, one masked
//! row copy per word for a local span every lane makes at one offset)
//! where they apply; the reference interpreter runs every lane of
//! every µop on its own.
//!
//! The blocks vary the access width (8 to 128 bits), aligned,
//! unaligned and cross-word offsets, one slab offset for all lanes or
//! one per lane, accesses at and past the slab's top word, `d == a ==
//! b` aliasing and `RZ` operands, and full, half, one-lane and empty
//! guard masks. They also draw the local accesses that run per lane
//! although every lane makes them at one aligned offset: off a base
//! that is not 4-aligned, at an offset that makes the address aligned,
//! and a load into its own base register. A block may end in a loop
//! back to a branch target inside it, and may run in a module whose
//! runs are one µop long (a consuming global atomic anywhere in a
//! module makes every µop the last of its run), so every kind of
//! warp-local µop also ends runs and sits right before a branch
//! target. The snapshots make a fault mid-run show what memory held
//! when it struck.

use proptest::prelude::*;
use sassi_isa::{
    AtomOp, CmpOp, FunctionMeta, Gpr, Guard, Instr, Label, LogicOp, MemAddr, MemWidth, Op, PredReg,
    ShflMode, SpecialReg, Src, VoteMode, GLOBAL_HEAP_BASE,
};
use sassi_sim::{
    Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LaunchResult, LinkedFunction, Module,
    NoHandlers,
};
use std::collections::BTreeMap;

/// Registers the random ops read and write: R4..R11, and `RZ` one
/// time in nine.
fn reg_strategy() -> impl Strategy<Value = Gpr> {
    (4u8..13).prop_map(|r| if r < 12 { Gpr::new(r) } else { Gpr::RZ })
}

/// Guards: always (full mask) three times in seven, else `P0` (lanes
/// 0..16), `!P0` (lanes 16..32), `P1` (lane 5 only) or `P2` (no lane).
fn guard_strategy() -> impl Strategy<Value = Guard> {
    (0u8..7).prop_map(|g| match g {
        0 => Guard::on(PredReg::new(0)),
        1 => Guard::not(PredReg::new(0)),
        2 => Guard::on(PredReg::new(1)),
        3 => Guard::on(PredReg::new(2)),
        _ => Guard::ALWAYS,
    })
}

fn width_strategy() -> impl Strategy<Value = MemWidth> {
    (0u8..7).prop_map(|w| {
        [
            MemWidth::U8,
            MemWidth::S8,
            MemWidth::U16,
            MemWidth::S16,
            MemWidth::B32,
            MemWidth::B64,
            MemWidth::B128,
        ][w as usize]
    })
}

/// A local address: `R1` (the stack pointer, the same for every lane)
/// three times in eight, else `R16` (a distinct 8-aligned offset per
/// lane) or `R17` (a distinct offset of every alignment per lane),
/// minus `k` bytes. `k` is below 16 one time in four, so `R1 - k`
/// reaches the slab's top word and, below the access width, runs past
/// it. One time in eight the address is `R14 + 2 - 4 j` instead: `R14`
/// is the same for every lane and ≡ 2 (mod 4), so the address is
/// 4-aligned but its base is not, and no local span takes it.
fn local_addr_strategy() -> impl Strategy<Value = MemAddr> {
    let k = (0u8..4, 0i32..16, 16i32..64)
        .prop_map(|(pick, near, far)| if pick == 0 { near } else { far });
    (0u8..8, k, 0i32..16).prop_map(|(b, k, j)| match b {
        0 | 1 => MemAddr::local(Gpr::new(16), -k),
        2 | 3 => MemAddr::local(Gpr::new(17), -k),
        4 => MemAddr::local(misaligned_base(), 2 - 4 * j),
        _ => MemAddr::local(Gpr::SP, -k),
    })
}

/// `R14`, which the prologue sets to `R1 - 66`: the same for every
/// lane, ≡ 2 (mod 4), and 64 bytes below the slab's top at offset 2.
fn misaligned_base() -> Gpr {
    Gpr::new(14)
}

/// `LDL R16, [R16+4]`: a 32-bit load into its own base register, which
/// never joins a local span.
fn self_base_load() -> Op {
    Op::Ld {
        d: Gpr::new(16),
        width: MemWidth::B32,
        addr: MemAddr::local(Gpr::new(16), 4),
        spill: true,
    }
}

/// A register operand four times in five, else an immediate.
fn src_strategy() -> impl Strategy<Value = Src> {
    (0u8..5, reg_strategy(), any::<u32>()).prop_map(|(pick, r, imm)| {
        if pick == 0 {
            Src::Imm(imm)
        } else {
            Src::Reg(r)
        }
    })
}

fn alu_strategy() -> impl Strategy<Value = Op> {
    let r = reg_strategy;
    let flags = || (any::<bool>(), any::<bool>());
    prop_oneof![
        (r(), src_strategy()).prop_map(|(d, a)| Op::Mov { d, a }),
        (r(), r(), src_strategy(), flags()).prop_map(|(d, a, b, (x, cc))| Op::IAdd {
            d,
            a,
            b,
            x,
            cc
        }),
        (r(), r(), src_strategy()).prop_map(|(d, a, b)| Op::ISub { d, a, b }),
        (r(), r(), src_strategy(), flags()).prop_map(|(d, a, b, (signed, hi))| Op::IMul {
            d,
            a,
            b,
            signed,
            hi
        }),
        (r(), r(), src_strategy(), r()).prop_map(|(d, a, b, c)| Op::IMad { d, a, b, c }),
        (r(), r(), src_strategy(), 0u8..32).prop_map(|(d, a, b, shift)| Op::IScAdd {
            d,
            a,
            b,
            shift
        }),
        (r(), r(), src_strategy(), flags()).prop_map(|(d, a, b, (min, signed))| Op::IMnMx {
            d,
            a,
            b,
            min,
            signed
        }),
        (r(), r(), src_strategy()).prop_map(|(d, a, b)| Op::Shl { d, a, b }),
        (r(), r(), src_strategy(), any::<bool>()).prop_map(|(d, a, b, signed)| Op::Shr {
            d,
            a,
            b,
            signed
        }),
        (r(), (0u8..4, any::<bool>()), r(), src_strategy()).prop_map(|(d, (op, inv_b), a, b)| {
            let op = [LogicOp::And, LogicOp::Or, LogicOp::Xor, LogicOp::PassB][op as usize];
            Op::Lop { d, op, a, b, inv_b }
        }),
        (r(), r()).prop_map(|(d, a)| Op::Flo { d, a }),
        (r(), r(), src_strategy(), (0u8..4, any::<bool>())).prop_map(|(d, a, b, (p, neg_p))| {
            Op::Sel {
                d,
                a,
                b,
                p: PredReg::new(p),
                neg_p,
            }
        }),
        (r(), r(), src_strategy(), flags()).prop_map(|(d, a, b, (neg_a, neg_b))| Op::FAdd {
            d,
            a,
            b,
            neg_a,
            neg_b
        }),
        (r(), r(), src_strategy(), r(), flags()).prop_map(|(d, a, b, c, (neg_b, neg_c))| {
            Op::FFma {
                d,
                a,
                b,
                c,
                neg_b,
                neg_c,
            }
        }),
        (3u8..5, r(), src_strategy(), flags()).prop_map(|(p, a, b, (signed, combine))| {
            Op::ISetP {
                p: PredReg::new(p),
                cmp: CmpOp::Lt,
                a,
                b,
                signed,
                combine: combine.then_some((PredReg::new(0), true)),
            }
        }),
    ]
}

/// A local store or load half the time each, except that one time in
/// sixteen it is [`self_base_load`].
fn local_strategy() -> impl Strategy<Value = Op> {
    (
        0u8..16,
        width_strategy(),
        reg_strategy(),
        local_addr_strategy(),
    )
        .prop_map(|(pick, width, r, addr)| match pick {
            0 => self_base_load(),
            1..=8 => Op::St {
                v: r,
                width,
                addr,
                spill: false,
            },
            _ => Op::Ld {
                d: r,
                width,
                addr,
                spill: false,
            },
        })
}

/// The warp-local µops besides the ALU ones: `S2R` (the cycle counter
/// among its sources), `VOTE` and `SHFL` (shift amounts that reach
/// past the warp), writing `P3` or `P4` when they set a predicate.
fn warp_wide_strategy() -> impl Strategy<Value = Op> {
    let r = reg_strategy;
    let p_out = || (0u8..3).prop_map(|p| (p > 0).then(|| PredReg::new(2 + p)));
    prop_oneof![
        (r(), 0u8..7).prop_map(|(d, sr)| Op::S2R {
            d,
            sr: [
                SpecialReg::LaneId,
                SpecialReg::TidX,
                SpecialReg::ClockLo,
                SpecialReg::WarpId,
                SpecialReg::SmId,
                SpecialReg::LaneMaskLt,
                SpecialReg::ActiveMask,
            ][sr as usize],
        }),
        (0u8..3, r(), p_out(), 0u8..5, any::<bool>()).prop_map(|(mode, d, p_out, src, neg_src)| {
            Op::Vote {
                mode: [VoteMode::All, VoteMode::Any, VoteMode::Ballot][mode as usize],
                d,
                p_out,
                src: if src < 4 {
                    PredReg::new(src)
                } else {
                    PredReg::PT
                },
                neg_src,
            }
        }),
        ((0u8..4, r(), r()), src_strategy(), p_out(), 0u32..40).prop_map(
            |((mode, d, a), b, p_out, delta)| Op::Shfl {
                mode: [ShflMode::Idx, ShflMode::Up, ShflMode::Down, ShflMode::Bfly][mode as usize],
                d,
                a,
                // An immediate shift stays small enough to land in the
                // warp most of the time.
                b: match b {
                    Src::Imm(_) => Src::Imm(delta),
                    b => b,
                },
                c: Src::Imm(31),
                p_out,
            }
        ),
    ]
}

/// A global store of one register of every guarded lane into one of
/// the 16 snapshot words of its lane's output.
fn snapshot_strategy() -> impl Strategy<Value = Op> {
    (reg_strategy(), 0i32..16).prop_map(|(v, slot)| Op::St {
        v,
        width: MemWidth::B32,
        addr: MemAddr::global(out_ptr(), SNAPSHOTS + 4 * slot),
        spill: false,
    })
}

/// One guarded µop of the random block: an ALU µop, a local load or
/// store, a warp-wide µop or a snapshot store.
fn step_strategy() -> impl Strategy<Value = Instr> {
    (
        (guard_strategy(), 0u8..9),
        alu_strategy(),
        local_strategy(),
        warp_wide_strategy(),
        snapshot_strategy(),
    )
        .prop_map(|((g, pick), alu, local, wide, snap)| {
            let op = match pick {
                0..=2 => alu,
                3..=5 => local,
                6 | 7 => wide,
                _ => snap,
            };
            Instr::guarded(g, op)
        })
}

/// A trampoline-shaped run: 2 to 9 local accesses under one guard off
/// one base, all stores (of registers, or `MOV32I`/`STL` constant
/// pairs through a staging register) or all loads, 32 to 128 bits wide
/// at 4-aligned offsets below the base, as a trampoline's spills,
/// parameter stores and fills are. The base is `R1` (uniform and
/// aligned) half the time, else `R16` (a distinct offset per lane), or
/// `R14` set to `R1 - 2` (uniform, misaligned) or `R1 - 64` (uniform,
/// aligned). One access in eight sits within two words of the base,
/// where a wide one runs past the slab's top; one element in sixteen
/// writes the base, a move to a fixed aligned offset or a load.
fn trampoline_run_strategy() -> impl Strategy<Value = Vec<Instr>> {
    let elem = (
        (0u8..16, reg_strategy(), any::<u32>()),
        (0u8..3, 0u8..8, 1i32..24),
    );
    (
        (0u8..8, guard_strategy(), any::<bool>()),
        prop::collection::vec(elem, 2..10),
    )
        .prop_map(|((base_pick, guard, store), elems)| {
            let mut run = Vec::new();
            let base = match base_pick {
                0 => Gpr::new(16),
                1 | 2 => {
                    let adj = if base_pick == 1 { -2i32 } else { -64 };
                    run.push(Instr::new(Op::IAdd {
                        d: Gpr::new(14),
                        a: Gpr::SP,
                        b: Src::Imm(adj as u32),
                        x: false,
                        cc: false,
                    }));
                    Gpr::new(14)
                }
                _ => Gpr::SP,
            };
            for ((kind, r, imm), (w, near, far)) in elems {
                let width = [MemWidth::B32, MemWidth::B64, MemWidth::B128][w as usize];
                let words = if near == 0 { w as i32 % 2 } else { far };
                let addr = MemAddr::local(base, -4 * words);
                let ops = match (store, kind) {
                    (true, 15) => vec![Op::Mov32I { d: base, imm: 1024 }],
                    (true, 8..) => vec![
                        Op::Mov32I { d: r, imm },
                        Op::St {
                            v: r,
                            width: MemWidth::B32,
                            addr,
                            spill: false,
                        },
                    ],
                    (true, _) => vec![Op::St {
                        v: r,
                        width,
                        addr,
                        spill: true,
                    }],
                    (false, 15) => vec![Op::Ld {
                        d: base,
                        width: MemWidth::B32,
                        addr,
                        spill: true,
                    }],
                    (false, _) => vec![Op::Ld {
                        d: r,
                        width,
                        addr,
                        spill: true,
                    }],
                };
                run.extend(ops.into_iter().map(|op| Instr::guarded(guard, op)));
            }
            run
        })
}

/// A piece of a trampoline-shaped block: a trampoline-shaped run three
/// times in four, else one random µop.
fn piece_strategy() -> impl Strategy<Value = Vec<Instr>> {
    (0u8..4, trampoline_run_strategy(), step_strategy()).prop_map(|(pick, run, step)| {
        if pick == 0 {
            vec![step]
        } else {
            run
        }
    })
}

/// Folds the 24 local words below `R1` into `R15` (`R15 = 31 * R15 +
/// word`), so what the runs stored reaches the output even where no
/// later load read it.
fn local_digest() -> Vec<Instr> {
    let mut code = vec![mov(15, 0)];
    for k in 0..24 {
        code.push(Instr::new(Op::Ld {
            d: Gpr::new(13),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, -4 - 4 * k),
            spill: false,
        }));
        code.push(Instr::new(Op::IMad {
            d: Gpr::new(15),
            a: Gpr::new(15),
            b: Src::Imm(31),
            c: Gpr::new(13),
        }));
    }
    code
}

/// A block of one to four pieces, then the local digest.
fn trampoline_block(pieces: Vec<Vec<Instr>>) -> Vec<Instr> {
    let mut block: Vec<Instr> = pieces.into_iter().flatten().collect();
    block.extend(local_digest());
    block
}

/// How the random block sits in the kernel.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// The block from this index on runs twice, after a branch back to
    /// it, so the µop before that index sits right before a branch
    /// target.
    loop_from: Option<usize>,
    /// An unreached consuming global atomic makes every run of the
    /// module one µop long.
    one_uop_runs: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (any::<bool>(), 0usize..24, any::<bool>()).prop_map(|(looped, at, one_uop_runs)| Shape {
        loop_from: looped.then_some(at),
        one_uop_runs,
    })
}

const OUT: u64 = GLOBAL_HEAP_BASE;
/// Bytes of output per lane: R4..R15, the predicate file, then 16
/// snapshot words at `SNAPSHOTS`.
const LANE_OUT: u32 = 128;
const SNAPSHOTS: i32 = 64;

/// The register pair holding the lane's output address, `OUT + lane *
/// LANE_OUT`.
fn out_ptr() -> Gpr {
    Gpr::new(18)
}

fn mov(d: u8, imm: u32) -> Instr {
    Instr::new(Op::Mov32I {
        d: Gpr::new(d),
        imm,
    })
}

fn isetp(p: u8, a: Gpr, cmp: CmpOp, b: u32) -> Instr {
    Instr::new(Op::ISetP {
        p: PredReg::new(p),
        cmp,
        a,
        b: Src::Imm(b),
        signed: false,
        combine: None,
    })
}

fn imad(d: u8, a: u8, b: u32, c: u8) -> Instr {
    Instr::new(Op::IMad {
        d: Gpr::new(d),
        a: Gpr::new(a),
        b: Src::Imm(b),
        c: Gpr::new(c),
    })
}

/// The kernel: a prologue seeding registers, predicates and local
/// memory per lane, the random block laid out as `shape` says, and an
/// epilogue writing R4..R15 and the predicates of every lane to global
/// memory.
fn kernel(block: &[Instr], seeds: &[u32], shape: Shape) -> Module {
    let lane = Gpr::new(0);
    let mut code = vec![
        Instr::new(Op::S2R {
            d: lane,
            sr: SpecialReg::LaneId,
        }),
        isetp(0, lane, CmpOp::Lt, 16),
        isetp(1, lane, CmpOp::Eq, 5),
        isetp(2, lane, CmpOp::Gt, 40),
    ];
    for (i, &s) in seeds.iter().enumerate() {
        // R(4+i) = lane * odd + seed: distinct per lane.
        code.push(mov(13, s));
        code.push(imad(4 + i as u8, 0, 2 * i as u32 + 0x9e37_79b1, 13));
    }
    // R16 = SP - 8 - 8 * lane, R17 = SP - 16 - 3 * lane, R14 = SP - 66.
    code.push(mov(13, (-8i32) as u32));
    code.push(imad(16, 0, (-8i32) as u32, 13));
    code.push(Instr::new(Op::IAdd {
        d: Gpr::new(16),
        a: Gpr::new(16),
        b: Src::Reg(Gpr::SP),
        x: false,
        cc: false,
    }));
    code.push(mov(13, (-16i32) as u32));
    code.push(imad(17, 0, (-3i32) as u32, 13));
    code.push(Instr::new(Op::IAdd {
        d: Gpr::new(17),
        a: Gpr::new(17),
        b: Src::Reg(Gpr::SP),
        x: false,
        cc: false,
    }));
    code.push(Instr::new(Op::IAdd {
        d: misaligned_base(),
        a: Gpr::SP,
        b: Src::Imm((-66i32) as u32),
        x: false,
        cc: false,
    }));
    // Non-zero local words below the stack pointer, so loads of words
    // no random store wrote still read lane-specific data.
    for k in 0..24 {
        code.push(Instr::new(Op::St {
            v: Gpr::new(4 + (k % 8) as u8),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, -4 - 4 * k),
            spill: false,
        }));
    }
    // R18:R19 = OUT + lane * LANE_OUT; R21 counts the block's passes.
    code.push(mov(13, OUT as u32));
    code.push(imad(18, 0, LANE_OUT, 13));
    code.push(mov(19, (OUT >> 32) as u32));
    code.push(mov(21, 2));
    let split = shape.loop_from.map_or(block.len(), |k| k.min(block.len()));
    code.extend_from_slice(&block[..split]);
    let top = code.len() as u32;
    code.extend_from_slice(&block[split..]);
    if shape.loop_from.is_some() {
        code.push(Instr::new(Op::IAdd {
            d: Gpr::new(21),
            a: Gpr::new(21),
            b: Src::Imm(u32::MAX),
            x: false,
            cc: false,
        }));
        code.push(isetp(6, Gpr::new(21), CmpOp::Ne, 0));
        code.push(Instr::guarded(
            Guard::on(PredReg::new(6)),
            Op::Bra {
                target: Label::Pc(top),
                uniform: true,
            },
        ));
    }
    for (k, r) in [4u8, 8, 12].into_iter().enumerate() {
        code.push(Instr::new(Op::St {
            v: Gpr::new(r),
            width: MemWidth::B128,
            addr: MemAddr::global(out_ptr(), 16 * k as i32),
            spill: false,
        }));
    }
    code.push(Instr::new(Op::P2R { d: Gpr::new(20) }));
    code.push(Instr::new(Op::St {
        v: Gpr::new(20),
        width: MemWidth::B32,
        addr: MemAddr::global(out_ptr(), 48),
        spill: false,
    }));
    code.push(Instr::new(Op::Exit));
    if shape.one_uop_runs {
        code.push(Instr::new(Op::Atom {
            d: Gpr::new(22),
            op: AtomOp::Add,
            addr: MemAddr::global(out_ptr(), 0),
            v: Gpr::new(4),
            v2: None,
            wide: false,
        }));
    }
    let end = code.len() as u32;
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end,
        meta: FunctionMeta {
            reg_high_water: 23,
            ..FunctionMeta::default()
        },
    };
    let m = Module::from_parts(code, vec![f], BTreeMap::new());
    assert_eq!(
        m.decoded().has_consuming_global_atomics(),
        shape.one_uop_runs
    );
    m
}

fn run(module: &Module, mode: ExecMode) -> (LaunchResult, Vec<u8>) {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    let bytes = 32 * LANE_OUT as u64;
    assert_eq!(dev.mem.alloc(bytes, 16).unwrap(), OUT);
    let res = dev
        .launch(
            module,
            "k",
            LaunchDims::linear(1, 32),
            &[],
            &mut NoHandlers,
            0,
            1 << 20,
        )
        .unwrap();
    let out = dev.mem.read_bytes(OUT, bytes as u32).unwrap().to_vec();
    (res, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_alu_and_local_blocks_agree_across_modes(
        seeds in prop::collection::vec(any::<u32>(), 8..9),
        block in prop::collection::vec(step_strategy(), 1..24),
        shape in shape_strategy(),
    ) {
        let module = kernel(&block, &seeds, shape);
        let (res_d, out_d) = run(&module, ExecMode::Decoded);
        let (res_r, out_r) = run(&module, ExecMode::Reference);
        prop_assert_eq!(&res_d, &res_r, "launch result diverges");
        prop_assert_eq!(out_d, out_r, "global output diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Blocks of trampoline-shaped runs, which the decoded run loop
    /// runs as local spans where every access is on the row path and
    /// in the slab, and one µop at a time where one is not.
    #[test]
    fn trampoline_shaped_runs_agree_across_modes(
        seeds in prop::collection::vec(any::<u32>(), 8..9),
        pieces in prop::collection::vec(piece_strategy(), 1..5),
        shape in shape_strategy(),
    ) {
        let module = kernel(&trampoline_block(pieces), &seeds, shape);
        let (res_d, out_d) = run(&module, ExecMode::Decoded);
        let (res_r, out_r) = run(&module, ExecMode::Reference);
        prop_assert_eq!(&res_d, &res_r, "launch result diverges");
        prop_assert_eq!(out_d, out_r, "global output diverges");
    }
}

/// The trampoline-shaped generator reaches what its test is for:
/// multi-µop spans, launches that complete and that fault, loops back
/// into the middle of a span, and modules whose runs are one µop long.
/// Decode marks every span of a one-µop-run module 1, so multi-µop
/// spans are counted among the other modules: at least three in four
/// of them hold one.
#[test]
fn trampoline_shaped_blocks_cover_spans() {
    let (mut ok, mut fault, mut spans, mut mid_span, mut one_uop) = (0, 0, 0, 0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let pieces = prop::collection::vec(piece_strategy(), 1..5).generate(&mut rng);
        let shape = shape_strategy().generate(&mut rng);
        let module = kernel(&trampoline_block(pieces), &[1, 2, 3, 4, 5, 6, 7, 8], shape);
        let dm = module.decoded();
        let span = |pc: u32| dm.get(pc).map_or(0, |di| di.span);
        spans += (!shape.one_uop_runs && (0..dm.len() as u32).any(|pc| span(pc) >= 2)) as u32;
        let target = (0..dm.len() as u32).find_map(|pc| match dm.get(pc).unwrap().uop {
            sassi_sim::UOp::Bra { target } => Some(target),
            _ => None,
        });
        mid_span += target.is_some_and(|t| span(t) > 0 && span(t - 1) == span(t) + 1) as u32;
        one_uop += shape.one_uop_runs as u32;
        let (res, _) = run(&module, ExecMode::Decoded);
        if res.is_ok() {
            ok += 1;
        } else {
            fault += 1;
        }
    }
    let multi = 64 - one_uop;
    assert!(
        4 * spans > 3 * multi && ok > 8 && fault > 8 && mid_span > 2 && one_uop > 16,
        "{spans} of {multi} with longer runs with spans, completed {ok}, faulted {fault}, \
         {mid_span} looping into a span, {one_uop} with one-µop runs"
    );
}

/// The generator reaches what the test is for: completed and faulting
/// launches alike, in both shapes, with snapshots written before a
/// fault, and blocks holding the per-lane local accesses: one off the
/// misaligned base, and a load into its own base.
#[test]
fn generated_blocks_cover_faults_and_completions() {
    let (mut ok, mut fault, mut one_uop, mut snapshot_then_fault) = (0, 0, 0, 0);
    let (mut misaligned, mut self_base) = (0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let block = prop::collection::vec(step_strategy(), 1..24).generate(&mut rng);
        let shape = shape_strategy().generate(&mut rng);
        let local_base = |ins: &Instr| match ins.op {
            Op::Ld { addr, .. } | Op::St { addr, .. } => Some(addr.base),
            _ => None,
        };
        misaligned += block
            .iter()
            .any(|ins| local_base(ins) == Some(misaligned_base())) as u32;
        self_base += block.iter().any(|ins| ins.op == self_base_load()) as u32;
        let (res, out) = run(
            &kernel(&block, &[1, 2, 3, 4, 5, 6, 7, 8], shape),
            ExecMode::Decoded,
        );
        one_uop += shape.one_uop_runs as u32;
        if res.is_ok() {
            ok += 1;
        } else {
            fault += 1;
            snapshot_then_fault += out.iter().any(|&b| b != 0) as u32;
        }
    }
    assert!(
        ok > 16
            && fault > 0
            && snapshot_then_fault > 0
            && one_uop > 16
            && misaligned > 8
            && self_base > 8,
        "completed {ok}, faulted {fault} ({snapshot_then_fault} after a snapshot), \
         {one_uop} with one-µop runs, {misaligned} off the misaligned base, \
         {self_base} with a load into its own base"
    );
}

/// Runs `block`, whose first µop snapshots `R4`, in both modes and
/// both run shapes, and checks that they agree (fault pc, cycles and
/// memory included), that they fault as `want` at the block's `at`-th
/// µop, and that the snapshot reached memory.
fn assert_fault_mid_run(block: Vec<Instr>, at: usize, want: FaultKind) {
    for one_uop_runs in [false, true] {
        let shape = Shape {
            loop_from: None,
            one_uop_runs,
        };
        let module = kernel(&block, &[1, 2, 3, 4, 5, 6, 7, 8], shape);
        let (res_d, out_d) = run(&module, ExecMode::Decoded);
        let (res_r, out_r) = run(&module, ExecMode::Reference);
        assert_eq!(res_d, res_r, "{shape:?}: launch result diverges");
        assert_eq!(out_d, out_r, "{shape:?}: global output diverges");
        let KernelOutcome::Fault(info) = res_d.outcome else {
            panic!("{shape:?}: expected a fault, got {:?}", res_d.outcome);
        };
        assert_eq!(info.kind, want, "{shape:?}");
        let block_start = module.code().len() - block.len() - 6 - one_uop_runs as usize;
        assert_eq!(info.pc as usize, block_start + at, "{shape:?}: fault pc");
        // The snapshot before the fault reached memory: lane 3 stored
        // its seeded R4.
        let lane3 = 3 * LANE_OUT as usize + SNAPSHOTS as usize;
        assert_ne!(
            &out_d[lane3..lane3 + 4],
            &[0; 4],
            "{shape:?}: snapshot lost"
        );
    }
}

/// A uniform local store past the slab in the middle of a run, after
/// a snapshot and an `S2R` of the clock: the decoded loop hands it to
/// the per-lane store, whose first lane faults before any lane writes,
/// at the same pc and cycle as the reference interpreter.
#[test]
fn uniform_store_past_the_slab_faults_mid_run() {
    let r = Gpr::new;
    let block = vec![
        Instr::new(snapshot(4, 0)),
        Instr::new(Op::S2R {
            d: r(5),
            sr: SpecialReg::ClockLo,
        }),
        // R1 is the slab's top: a 64-bit store at R1 - 4 runs 4 bytes
        // past it.
        Instr::new(Op::St {
            v: r(6),
            width: MemWidth::B64,
            addr: MemAddr::local(Gpr::SP, -4),
            spill: true,
        }),
        Instr::new(snapshot(5, 1)),
        Instr::new(Op::Mov {
            d: r(7),
            a: Src::Imm(1),
        }),
    ];
    assert_fault_mid_run(block, 2, FaultKind::StackViolation { offset: 2044 });
}

/// A store off the misaligned base `R14` (`R1 - 66`) at offset 66 is
/// 4-aligned, the same for every lane and one word past the slab: no
/// local span takes it, and the per-lane store faults at its first
/// lane, at the same pc and cycle in both modes.
#[test]
fn store_off_a_misaligned_base_faults_mid_run() {
    let block = vec![
        Instr::new(snapshot(4, 0)),
        Instr::new(Op::St {
            v: Gpr::new(6),
            width: MemWidth::B32,
            addr: MemAddr::local(misaligned_base(), 66),
            spill: true,
        }),
        Instr::new(snapshot(5, 1)),
    ];
    assert_fault_mid_run(block, 1, FaultKind::StackViolation { offset: 2048 });
}

/// The local accesses every lane makes at one 4-aligned offset that
/// run per lane: a store and a load off the misaligned base at offset
/// 2, and `LDL R16, [R16+4]`, whose base is the same for the lanes of
/// a one-lane guard. Both modes agree on the registers, the memory and
/// the cycles, under a full and a one-lane guard, in both run shapes.
#[test]
fn per_lane_local_accesses_agree_across_modes() {
    let r = Gpr::new;
    for guard in [Guard::ALWAYS, Guard::on(PredReg::new(1))] {
        let block: Vec<Instr> = [
            Op::St {
                v: r(4),
                width: MemWidth::B64,
                addr: MemAddr::local(misaligned_base(), 2),
                spill: true,
            },
            Op::Ld {
                d: r(8),
                width: MemWidth::B128,
                addr: MemAddr::local(misaligned_base(), -2),
                spill: true,
            },
            self_base_load(),
            snapshot(16, 0),
        ]
        .into_iter()
        .map(|op| Instr::guarded(guard, op))
        .collect();
        for one_uop_runs in [false, true] {
            let shape = Shape {
                loop_from: None,
                one_uop_runs,
            };
            let module = kernel(&block, &[1, 2, 3, 4, 5, 6, 7, 8], shape);
            let dm = module.decoded();
            let in_span = (0..dm.len() as u32).any(|pc| {
                let di = dm.get(pc).unwrap();
                let base = match di.uop {
                    sassi_sim::UOp::Ld { addr, .. } | sassi_sim::UOp::St { addr, .. } => addr.base,
                    _ => return false,
                };
                di.span != 0 && (base == misaligned_base() || base == r(16))
            });
            assert!(!in_span, "a span takes a per-lane access");
            let (res_d, out_d) = run(&module, ExecMode::Decoded);
            let (res_r, out_r) = run(&module, ExecMode::Reference);
            assert!(res_d.is_ok(), "{guard:?} {shape:?}: {:?}", res_d.outcome);
            assert_eq!(res_d, res_r, "{guard:?} {shape:?}: launch result diverges");
            assert_eq!(out_d, out_r, "{guard:?} {shape:?}: global output diverges");
        }
    }
}

/// The load counterpart, under a half-warp guard.
#[test]
fn uniform_load_past_the_slab_faults_mid_run() {
    let r = Gpr::new;
    let block = vec![
        Instr::new(snapshot(4, 0)),
        Instr::new(Op::Vote {
            mode: VoteMode::Ballot,
            d: r(5),
            p_out: None,
            src: PredReg::new(0),
            neg_src: false,
        }),
        Instr::guarded(
            Guard::on(PredReg::new(0)),
            Op::Ld {
                d: r(8),
                width: MemWidth::B128,
                addr: MemAddr::local(Gpr::SP, -8),
                spill: true,
            },
        ),
        Instr::new(snapshot(5, 1)),
    ];
    assert_fault_mid_run(block, 2, FaultKind::StackViolation { offset: 2040 });
}

fn snapshot(v: u8, slot: i32) -> Op {
    Op::St {
        v: Gpr::new(v),
        width: MemWidth::B32,
        addr: MemAddr::global(out_ptr(), SNAPSHOTS + 4 * slot),
        spill: false,
    }
}
