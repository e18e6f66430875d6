//! Differential test of the register-major warp state: random
//! straight-line blocks of ALU µops and local loads and stores run in
//! both exec modes, and must give the same `LaunchResult` (outcome,
//! fault and cycles included) and the same global output. The decoded
//! interpreter takes its row paths (full-mask ALU loops, one masked
//! row copy per word for a spill every lane makes at one offset) where
//! they apply; the reference interpreter runs every lane on its own.
//!
//! The blocks vary the access width (8 to 128 bits), aligned,
//! unaligned and cross-word offsets, one slab offset for all lanes or
//! one per lane, accesses at and past the slab's top word, `d == a ==
//! b` aliasing and `RZ` operands, and full, half, one-lane and empty
//! guard masks.

use proptest::prelude::*;
use sassi_isa::{
    CmpOp, FunctionMeta, Gpr, Guard, Instr, LogicOp, MemAddr, MemWidth, Op, PredReg, SpecialReg,
    Src, GLOBAL_HEAP_BASE,
};
use sassi_sim::{Device, ExecMode, LaunchDims, LaunchResult, LinkedFunction, Module, NoHandlers};
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
/// half the time, else `R16` (a distinct 8-aligned offset per lane) or
/// `R17` (a distinct offset of every alignment per lane), minus `k`
/// bytes. `k` is below 16 one time in four, so `R1 - k` reaches the
/// slab's top word and, below the access width, runs past it.
fn local_addr_strategy() -> impl Strategy<Value = MemAddr> {
    let base = (0u8..4).prop_map(|b| match b {
        0 => Gpr::new(16),
        1 => Gpr::new(17),
        _ => Gpr::SP,
    });
    let k = (0u8..4, 0i32..16, 16i32..64)
        .prop_map(|(pick, near, far)| if pick == 0 { near } else { far });
    (base, k).prop_map(|(b, k)| MemAddr::local(b, -k))
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

fn local_strategy() -> impl Strategy<Value = Op> {
    let r = reg_strategy;
    prop_oneof![
        (width_strategy(), r(), local_addr_strategy()).prop_map(|(width, v, addr)| Op::St {
            v,
            width,
            addr,
            spill: false,
        }),
        (width_strategy(), r(), local_addr_strategy()).prop_map(|(width, d, addr)| Op::Ld {
            d,
            width,
            addr,
            spill: false,
        }),
    ]
}

/// One guarded µop of the random block: an ALU µop or, as often, a
/// local load or store.
fn step_strategy() -> impl Strategy<Value = Instr> {
    (
        guard_strategy(),
        any::<bool>(),
        alu_strategy(),
        local_strategy(),
    )
        .prop_map(|(g, mem, alu, local)| Instr::guarded(g, if mem { local } else { alu }))
}

const OUT: u64 = GLOBAL_HEAP_BASE;
/// Bytes of output per lane: R4..R15, then the predicate file.
const LANE_OUT: u32 = 64;

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
/// memory per lane, the random block, and an epilogue writing R4..R15
/// and the predicates of every lane to global memory.
fn kernel(block: &[Instr], seeds: &[u32]) -> Module {
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
    // R16 = SP - 8 - 8 * lane, R17 = SP - 16 - 3 * lane.
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
    code.extend_from_slice(block);
    // R18:R19 = OUT + lane * LANE_OUT.
    code.push(mov(13, OUT as u32));
    code.push(imad(18, 0, LANE_OUT, 13));
    code.push(mov(19, (OUT >> 32) as u32));
    for (k, r) in [4u8, 8, 12].into_iter().enumerate() {
        code.push(Instr::new(Op::St {
            v: Gpr::new(r),
            width: MemWidth::B128,
            addr: MemAddr::global(Gpr::new(18), 16 * k as i32),
            spill: false,
        }));
    }
    code.push(Instr::new(Op::P2R { d: Gpr::new(20) }));
    code.push(Instr::new(Op::St {
        v: Gpr::new(20),
        width: MemWidth::B32,
        addr: MemAddr::global(Gpr::new(18), 48),
        spill: false,
    }));
    code.push(Instr::new(Op::Exit));
    let end = code.len() as u32;
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end,
        meta: FunctionMeta {
            reg_high_water: 21,
            ..FunctionMeta::default()
        },
    };
    Module::from_parts(code, vec![f], BTreeMap::new())
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
    ) {
        let module = kernel(&block, &seeds);
        let (res_d, out_d) = run(&module, ExecMode::Decoded);
        let (res_r, out_r) = run(&module, ExecMode::Reference);
        prop_assert_eq!(&res_d, &res_r, "launch result diverges");
        prop_assert_eq!(out_d, out_r, "global output diverges");
    }
}

/// The generator reaches what the test is for: completed and faulting
/// launches alike.
#[test]
fn generated_blocks_cover_faults_and_completions() {
    let (mut ok, mut fault) = (0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let block = prop::collection::vec(step_strategy(), 1..24).generate(&mut rng);
        let (res, _) = run(
            &kernel(&block, &[1, 2, 3, 4, 5, 6, 7, 8]),
            ExecMode::Decoded,
        );
        if res.is_ok() {
            ok += 1;
        } else {
            fault += 1;
        }
    }
    assert!(ok > 16 && fault > 0, "completed {ok}, faulted {fault}");
}
