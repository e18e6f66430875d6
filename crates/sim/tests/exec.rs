//! Instruction-semantics tests: hand-constructed SASS executed on the
//! device, checked against architecturally expected values — carry
//! chains, predication, wide accesses, warp intrinsics, atomics,
//! special registers, barriers and fault detection.

use sassi_isa::{
    AtomOp, CmpOp, Function, FunctionMeta, Gpr, Guard, Instr, Label, LogicOp, MemAddr, MemWidth,
    MufuFunc, Op, PredReg, ShflMode, Src, VoteMode,
};
use sassi_sim::{Device, FaultKind, KernelOutcome, LaunchDims, Module, NoHandlers};

fn r(n: u8) -> Gpr {
    Gpr::new(n)
}

fn p(n: u8) -> PredReg {
    PredReg::new(n)
}

/// Runs raw instructions as a single-warp kernel; thread `lane` stores
/// R20 to `out[lane]` at the end. Returns the 32 output values.
fn run_raw(mut body: Vec<Instr>) -> Vec<u32> {
    // Epilogue: compute &out[lane] into R40:R41 and store R20.
    // out pointer arrives in c[0][0x140] (param 0).
    body.extend([
        Instr::new(Op::S2R {
            d: r(38),
            sr: sassi_isa::SpecialReg::LaneId,
        }),
        Instr::new(Op::Shl {
            d: r(38),
            a: r(38),
            b: Src::Imm(2),
        }),
        Instr::new(Op::Mov {
            d: r(40),
            a: Src::Const(sassi_isa::CBankAddr::new(0, 0x140)),
        }),
        Instr::new(Op::Mov {
            d: r(41),
            a: Src::Const(sassi_isa::CBankAddr::new(0, 0x144)),
        }),
        Instr::new(Op::IAdd {
            d: r(40),
            a: r(40),
            b: Src::Reg(r(38)),
            x: false,
            cc: true,
        }),
        Instr::new(Op::IAdd {
            d: r(41),
            a: r(41),
            b: Src::Reg(Gpr::RZ),
            x: true,
            cc: false,
        }),
        Instr::new(Op::St {
            v: r(20),
            width: MemWidth::B32,
            addr: MemAddr::global(r(40), 0),
            spill: false,
        }),
        Instr::new(Op::Exit),
    ]);
    let f = Function::new("raw", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(32 * 4, 8).unwrap();
    let res = dev
        .launch(
            &module,
            "raw",
            LaunchDims::linear(1, 32),
            &[out],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(res.is_ok(), "{:?}", res.outcome);
    (0..32)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect()
}

#[test]
fn carry_chain_64bit_add() {
    // R20:R21 = 0xffff_ffff + 1 with carry into the high word.
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(10),
            imm: 0xffff_ffff,
        }),
        Instr::new(Op::Mov32I { d: r(11), imm: 0 }),
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(10),
            b: Src::Imm(1),
            x: false,
            cc: true,
        }),
        Instr::new(Op::IAdd {
            d: r(21),
            a: r(11),
            b: Src::Reg(Gpr::RZ),
            x: true,
            cc: false,
        }),
        // fold high word into the observed register: R20 = R20 + R21
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(20),
            b: Src::Reg(r(21)),
            x: false,
            cc: false,
        }),
    ];
    let out = run_raw(body);
    assert!(
        out.iter().all(|&v| v == 1),
        "0xffffffff + 1 = 0x1_0000_0000"
    );
}

#[test]
fn predication_gates_lanes() {
    // P0 = lane < 8; R20 = 7 only where P0.
    let body = vec![
        Instr::new(Op::S2R {
            d: r(2),
            sr: sassi_isa::SpecialReg::LaneId,
        }),
        Instr::new(Op::ISetP {
            p: p(0),
            cmp: CmpOp::Lt,
            a: r(2),
            b: Src::Imm(8),
            signed: false,
            combine: None,
        }),
        Instr::new(Op::Mov32I { d: r(20), imm: 0 }),
        Instr::guarded(Guard::on(p(0)), Op::Mov32I { d: r(20), imm: 7 }),
    ];
    let out = run_raw(body);
    for (lane, &v) in out.iter().enumerate().take(32) {
        assert_eq!(v, if lane < 8 { 7 } else { 0 }, "lane {lane}");
    }
}

#[test]
fn ballot_and_popc() {
    // ballot(lane is odd) = 0xaaaa_aaaa; popc = 16.
    let body = vec![
        Instr::new(Op::S2R {
            d: r(2),
            sr: sassi_isa::SpecialReg::LaneId,
        }),
        Instr::new(Op::Lop {
            d: r(3),
            op: LogicOp::And,
            a: r(2),
            b: Src::Imm(1),
            inv_b: false,
        }),
        Instr::new(Op::ISetP {
            p: p(1),
            cmp: CmpOp::Eq,
            a: r(3),
            b: Src::Imm(1),
            signed: false,
            combine: None,
        }),
        Instr::new(Op::Vote {
            mode: VoteMode::Ballot,
            d: r(4),
            p_out: None,
            src: p(1),
            neg_src: false,
        }),
        Instr::new(Op::Popc { d: r(20), a: r(4) }),
    ];
    let out = run_raw(body);
    assert!(out.iter().all(|&v| v == 16));
}

#[test]
fn shfl_bfly_swaps_neighbours() {
    let body = vec![
        Instr::new(Op::S2R {
            d: r(2),
            sr: sassi_isa::SpecialReg::LaneId,
        }),
        Instr::new(Op::Shfl {
            mode: ShflMode::Bfly,
            d: r(20),
            a: r(2),
            b: Src::Imm(1),
            c: Src::Imm(0x1f),
            p_out: None,
        }),
    ];
    let out = run_raw(body);
    for (lane, &v) in out.iter().enumerate().take(32) {
        assert_eq!(v, (lane ^ 1) as u32);
    }
}

#[test]
fn mufu_and_float_ops() {
    // R20 = f2i(rcp(4.0) * 8.0) = 2
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(2),
            imm: 4.0f32.to_bits(),
        }),
        Instr::new(Op::Mufu {
            d: r(3),
            func: MufuFunc::Rcp,
            a: r(2),
        }),
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: 8.0f32.to_bits(),
        }),
        Instr::new(Op::FMul {
            d: r(5),
            a: r(3),
            b: Src::Reg(r(4)),
        }),
        Instr::new(Op::F2I {
            d: r(20),
            a: r(5),
            to: sassi_isa::IntWidth::S32,
        }),
    ];
    let out = run_raw(body);
    assert!(out.iter().all(|&v| v == 2));
}

#[test]
fn signed_ops_and_shifts() {
    // R20 = (-8 >> 2 arithmetic) + (0x80000000 >> 31 logical) = -2 + 1
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(2),
            imm: (-8i32) as u32,
        }),
        Instr::new(Op::Shr {
            d: r(3),
            a: r(2),
            b: Src::Imm(2),
            signed: true,
        }),
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: 0x8000_0000,
        }),
        Instr::new(Op::Shr {
            d: r(5),
            a: r(4),
            b: Src::Imm(31),
            signed: false,
        }),
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(3),
            b: Src::Reg(r(5)),
            x: false,
            cc: false,
        }),
    ];
    let out = run_raw(body);
    assert!(
        out.iter().all(|&v| v == (-1i32) as u32),
        "got {:#x}",
        out[0]
    );
}

#[test]
fn flo_brev_imnmx() {
    // flo(0x0800) = 11; brev(1) = 0x8000_0000; min_s(-1, 1) = -1,
    // observed: 11 + (brev(1)>>31) + min == 11 + 1 - 1 = 11
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(2),
            imm: 0x800,
        }),
        Instr::new(Op::Flo { d: r(3), a: r(2) }),
        Instr::new(Op::Mov32I { d: r(4), imm: 1 }),
        Instr::new(Op::Brev { d: r(5), a: r(4) }),
        Instr::new(Op::Shr {
            d: r(5),
            a: r(5),
            b: Src::Imm(31),
            signed: false,
        }),
        Instr::new(Op::Mov32I {
            d: r(6),
            imm: (-1i32) as u32,
        }),
        Instr::new(Op::IMnMx {
            d: r(7),
            a: r(6),
            b: Src::Imm(1),
            min: true,
            signed: true,
        }),
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(3),
            b: Src::Reg(r(5)),
            x: false,
            cc: false,
        }),
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(20),
            b: Src::Reg(r(7)),
            x: false,
            cc: false,
        }),
    ];
    let out = run_raw(body);
    assert!(out.iter().all(|&v| v == 11), "got {}", out[0]);
}

#[test]
fn wide_load_store_roundtrip() {
    // Store R10:R11 as B64 to out[lane*2..], load back into R20 via B64.
    let mut dev = Device::with_defaults();
    let buf = dev.mem.alloc(32 * 8, 8).unwrap();
    let body = vec![
        Instr::new(Op::S2R {
            d: r(2),
            sr: sassi_isa::SpecialReg::LaneId,
        }),
        Instr::new(Op::Shl {
            d: r(3),
            a: r(2),
            b: Src::Imm(3),
        }),
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: buf as u32,
        }),
        Instr::new(Op::Mov32I {
            d: r(5),
            imm: (buf >> 32) as u32,
        }),
        Instr::new(Op::IAdd {
            d: r(4),
            a: r(4),
            b: Src::Reg(r(3)),
            x: false,
            cc: true,
        }),
        Instr::new(Op::IAdd {
            d: r(5),
            a: r(5),
            b: Src::Reg(Gpr::RZ),
            x: true,
            cc: false,
        }),
        Instr::new(Op::Mov32I {
            d: r(10),
            imm: 0x1111_1111,
        }),
        Instr::new(Op::Mov32I {
            d: r(11),
            imm: 0x2222_2222,
        }),
        Instr::new(Op::St {
            v: r(10),
            width: MemWidth::B64,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
        Instr::new(Op::Ld {
            d: r(20),
            width: MemWidth::B64,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
        // fold: R20 += R21
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(20),
            b: Src::Reg(r(21)),
            x: false,
            cc: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("wide", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let res = dev
        .launch(
            &module,
            "wide",
            LaunchDims::linear(1, 32),
            &[buf],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(res.is_ok());
    assert_eq!(dev.mem.read_u64(buf).unwrap(), 0x2222_2222_1111_1111);
}

#[test]
fn subword_loads_extend_correctly() {
    let mut dev = Device::with_defaults();
    let buf = dev.mem.alloc(64, 8).unwrap();
    dev.mem.write_u32(buf, 0xfedc_ba98).unwrap();
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: buf as u32,
        }),
        Instr::new(Op::Mov32I {
            d: r(5),
            imm: (buf >> 32) as u32,
        }),
        Instr::new(Op::Ld {
            d: r(10),
            width: MemWidth::U8,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
        Instr::new(Op::Ld {
            d: r(11),
            width: MemWidth::S8,
            addr: MemAddr::global(r(4), 1),
            spill: false,
        }),
        Instr::new(Op::Ld {
            d: r(12),
            width: MemWidth::U16,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
        Instr::new(Op::Ld {
            d: r(13),
            width: MemWidth::S16,
            addr: MemAddr::global(r(4), 2),
            spill: false,
        }),
        Instr::new(Op::St {
            v: r(10),
            width: MemWidth::B32,
            addr: MemAddr::global(r(4), 16),
            spill: false,
        }),
        Instr::new(Op::St {
            v: r(11),
            width: MemWidth::B32,
            addr: MemAddr::global(r(4), 20),
            spill: false,
        }),
        Instr::new(Op::St {
            v: r(12),
            width: MemWidth::B32,
            addr: MemAddr::global(r(4), 24),
            spill: false,
        }),
        Instr::new(Op::St {
            v: r(13),
            width: MemWidth::B32,
            addr: MemAddr::global(r(4), 28),
            spill: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("sub", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let res = dev
        .launch(
            &module,
            "sub",
            LaunchDims::linear(1, 1),
            &[buf],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(res.is_ok());
    assert_eq!(dev.mem.read_u32(buf + 16).unwrap(), 0x98, "U8");
    assert_eq!(
        dev.mem.read_u32(buf + 20).unwrap(),
        0xffff_ffba,
        "S8 sign-extends"
    );
    assert_eq!(dev.mem.read_u32(buf + 24).unwrap(), 0xba98, "U16");
    assert_eq!(
        dev.mem.read_u32(buf + 28).unwrap(),
        0xffff_fedc,
        "S16 sign-extends"
    );
}

#[test]
fn atomic_cas_and_exch() {
    let mut dev = Device::with_defaults();
    let buf = dev.mem.alloc(16, 8).unwrap();
    dev.mem.write_u32(buf, 5).unwrap();
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: buf as u32,
        }),
        Instr::new(Op::Mov32I {
            d: r(5),
            imm: (buf >> 32) as u32,
        }),
        Instr::new(Op::Mov32I { d: r(6), imm: 5 }),
        Instr::new(Op::Mov32I { d: r(8), imm: 9 }),
        // CAS(buf, 5, 9): exactly one lane wins; all lanes read old.
        Instr::new(Op::Atom {
            d: r(10),
            op: AtomOp::Cas,
            addr: MemAddr::global(r(4), 0),
            v: r(6),
            v2: Some(r(8)),
            wide: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("cas", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let res = dev
        .launch(
            &module,
            "cas",
            LaunchDims::linear(1, 32),
            &[buf],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(res.is_ok());
    assert_eq!(
        dev.mem.read_u32(buf).unwrap(),
        9,
        "first lane's CAS wins; later lanes see 9 != 5"
    );
}

#[test]
fn oob_store_faults_with_address() {
    let mut dev = Device::with_defaults();
    let buf = dev.mem.alloc(16, 8).unwrap();
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: (buf + 4096) as u32,
        }),
        Instr::new(Op::Mov32I {
            d: r(5),
            imm: ((buf + 4096) >> 32) as u32,
        }),
        Instr::new(Op::St {
            v: r(0),
            width: MemWidth::B32,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("oob", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let res = dev
        .launch(
            &module,
            "oob",
            LaunchDims::linear(1, 1),
            &[buf],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    match res.outcome {
        KernelOutcome::Fault(info) => match info.kind {
            FaultKind::MemViolation { addr } => assert_eq!(addr, buf + 4096),
            other => panic!("wrong fault {other:?}"),
        },
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn misaligned_atomic_faults() {
    let mut dev = Device::with_defaults();
    let buf = dev.mem.alloc(16, 8).unwrap();
    let body = vec![
        Instr::new(Op::Mov32I {
            d: r(4),
            imm: (buf + 2) as u32,
        }),
        Instr::new(Op::Mov32I {
            d: r(5),
            imm: ((buf + 2) >> 32) as u32,
        }),
        Instr::new(Op::Atom {
            d: r(10),
            op: AtomOp::Add,
            addr: MemAddr::global(r(4), 0),
            v: r(0),
            v2: None,
            wide: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("mis", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let res = dev
        .launch(
            &module,
            "mis",
            LaunchDims::linear(1, 1),
            &[buf],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(matches!(
        res.outcome,
        KernelOutcome::Fault(sassi_sim::FaultInfo {
            kind: FaultKind::Misaligned { .. },
            ..
        })
    ));
}

#[test]
fn stack_overflow_detected() {
    // Push the stack pointer far below zero and touch it.
    let body = vec![
        Instr::new(Op::IAdd {
            d: Gpr::SP,
            a: Gpr::SP,
            b: Src::Imm((-100_000i32) as u32),
            x: false,
            cc: false,
        }),
        Instr::new(Op::St {
            v: r(0),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, 0),
            spill: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("so", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let mut dev = Device::with_defaults();
    let buf = dev.mem.alloc(16, 8).unwrap();
    let res = dev
        .launch(
            &module,
            "so",
            LaunchDims::linear(1, 1),
            &[buf],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(matches!(
        res.outcome,
        KernelOutcome::Fault(sassi_sim::FaultInfo {
            kind: FaultKind::StackViolation { .. },
            ..
        })
    ));
}

#[test]
fn infinite_loop_hits_watchdog() {
    let body = vec![Instr::new(Op::Bra {
        target: Label::Pc(0),
        uniform: true,
    })];
    let f = Function::new("spin", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let mut dev = Device::with_defaults();
    let res = dev
        .launch(
            &module,
            "spin",
            LaunchDims::linear(1, 32),
            &[],
            &mut NoHandlers,
            0,
            50_000,
        )
        .unwrap();
    assert!(matches!(res.outcome, KernelOutcome::Hang));
}

/// A `CAL` to its own pc recurses without end. The call stack is
/// finite, so the launch faults at the `CAL` long before the watchdog,
/// with the same fault, cycles and memory in both interpreters.
#[test]
fn runaway_recursion_overflows_the_call_stack() {
    use sassi_isa::CBankAddr;
    use sassi_sim::ExecMode;
    let body = vec![
        Instr::new(Op::Mov {
            d: r(4),
            a: Src::Const(CBankAddr::new(0, 0x140)),
        }),
        Instr::new(Op::Mov {
            d: r(5),
            a: Src::Const(CBankAddr::new(0, 0x144)),
        }),
        Instr::new(Op::Mov32I { d: r(2), imm: 7 }),
        Instr::new(Op::St {
            v: r(2),
            width: MemWidth::B32,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        }),
        Instr::new(Op::Jcal {
            target: Label::Pc(4),
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("rec", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let mut runs = Vec::new();
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        let buf = dev.mem.alloc(16, 8).unwrap();
        let res = dev
            .launch(
                &module,
                "rec",
                LaunchDims::linear(1, 64),
                &[buf],
                &mut NoHandlers,
                0,
                100_000,
            )
            .unwrap();
        assert!(
            matches!(
                res.outcome,
                KernelOutcome::Fault(sassi_sim::FaultInfo {
                    kind: FaultKind::CallStackOverflow,
                    pc: 4,
                    ..
                })
            ),
            "{mode:?}: {:?}",
            res.outcome
        );
        assert_eq!(dev.mem.read_u32(buf).unwrap(), 7, "{mode:?}");
        runs.push((res, dev.mem.read_bytes(buf, 16).unwrap().to_vec()));
    }
    assert_eq!(runs[0], runs[1], "Decoded vs Reference");
}

#[test]
fn special_registers_report_geometry() {
    // R20 = ctaid.x * 1000 + ntid.x — checked across a 3-block launch.
    let body = vec![
        Instr::new(Op::S2R {
            d: r(2),
            sr: sassi_isa::SpecialReg::CtaIdX,
        }),
        Instr::new(Op::S2R {
            d: r(3),
            sr: sassi_isa::SpecialReg::NTidX,
        }),
        Instr::new(Op::IMul {
            d: r(20),
            a: r(2),
            b: Src::Imm(1000),
            signed: false,
            hi: false,
        }),
        Instr::new(Op::IAdd {
            d: r(20),
            a: r(20),
            b: Src::Reg(r(3)),
            x: false,
            cc: false,
        }),
        // store to out[ctaid]
        Instr::new(Op::Mov {
            d: r(40),
            a: Src::Const(sassi_isa::CBankAddr::new(0, 0x140)),
        }),
        Instr::new(Op::Mov {
            d: r(41),
            a: Src::Const(sassi_isa::CBankAddr::new(0, 0x144)),
        }),
        Instr::new(Op::Shl {
            d: r(4),
            a: r(2),
            b: Src::Imm(2),
        }),
        Instr::new(Op::IAdd {
            d: r(40),
            a: r(40),
            b: Src::Reg(r(4)),
            x: false,
            cc: true,
        }),
        Instr::new(Op::IAdd {
            d: r(41),
            a: r(41),
            b: Src::Reg(Gpr::RZ),
            x: true,
            cc: false,
        }),
        Instr::new(Op::St {
            v: r(20),
            width: MemWidth::B32,
            addr: MemAddr::global(r(40), 0),
            spill: false,
        }),
        Instr::new(Op::Exit),
    ];
    let f = Function::new("geom", body, FunctionMeta::default());
    let module = Module::link(&[f]).unwrap();
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(3 * 4, 8).unwrap();
    let res = dev
        .launch(
            &module,
            "geom",
            LaunchDims::linear(3, 32),
            &[out],
            &mut NoHandlers,
            0,
            1 << 24,
        )
        .unwrap();
    assert!(res.is_ok());
    for cta in 0..3u64 {
        assert_eq!(
            dev.mem.read_u32(out + 4 * cta).unwrap(),
            cta as u32 * 1000 + 32
        );
    }
}

#[test]
fn vote_all_any_under_divergence() {
    // With only lanes 0..4 active (via guarded exit), __all(lane<4)
    // must be true among survivors.
    let body = vec![
        Instr::new(Op::S2R {
            d: r(2),
            sr: sassi_isa::SpecialReg::LaneId,
        }),
        Instr::new(Op::ISetP {
            p: p(0),
            cmp: CmpOp::Ge,
            a: r(2),
            b: Src::Imm(4),
            signed: false,
            combine: None,
        }),
        Instr::guarded(Guard::on(p(0)), Op::Exit),
        // survivors: lanes 0..4
        Instr::new(Op::ISetP {
            p: p(1),
            cmp: CmpOp::Lt,
            a: r(2),
            b: Src::Imm(4),
            signed: false,
            combine: None,
        }),
        Instr::new(Op::Vote {
            mode: VoteMode::All,
            d: r(20),
            p_out: Some(p(2)),
            src: p(1),
            neg_src: false,
        }),
    ];
    let out = run_raw(body);
    for (lane, &v) in out.iter().enumerate().take(4) {
        assert_eq!(v, 1, "lane {lane} sees __all true");
    }
}

#[test]
fn psetp_logic_table() {
    // P0=true, P1=false; check AND/OR/XOR with negations via SEL.
    let cases = [
        (LogicOp::And, false, false, 0u32), // t && f
        (LogicOp::Or, false, false, 1),     // t || f
        (LogicOp::Xor, false, false, 1),    // t ^ f
        (LogicOp::And, false, true, 1),     // t && !f
        (LogicOp::Or, true, false, 0),      // !t || f
    ];
    for (op, na, nb, want) in cases {
        let body = vec![
            Instr::new(Op::ISetP {
                p: p(0),
                cmp: CmpOp::Eq,
                a: Gpr::RZ,
                b: Src::Imm(0),
                signed: false,
                combine: None,
            }), // P0 = true
            Instr::new(Op::ISetP {
                p: p(1),
                cmp: CmpOp::Ne,
                a: Gpr::RZ,
                b: Src::Imm(0),
                signed: false,
                combine: None,
            }), // P1 = false
            Instr::new(Op::PSetP {
                p: p(2),
                op,
                a: p(0),
                b: p(1),
                neg_a: na,
                neg_b: nb,
            }),
            Instr::new(Op::Mov32I { d: r(2), imm: 1 }),
            Instr::new(Op::Sel {
                d: r(20),
                a: r(2),
                b: Src::Imm(0),
                p: p(2),
                neg_p: false,
            }),
        ];
        let out = run_raw(body);
        assert_eq!(out[0], want, "{op:?} na={na} nb={nb}");
    }
}

#[test]
fn p2r_r2p_roundtrip_semantics() {
    // Set P0,P2 true; pack; clear preds; unpack; verify via SEL.
    let body = vec![
        Instr::new(Op::ISetP {
            p: p(0),
            cmp: CmpOp::Eq,
            a: Gpr::RZ,
            b: Src::Imm(0),
            signed: false,
            combine: None,
        }),
        Instr::new(Op::ISetP {
            p: p(2),
            cmp: CmpOp::Eq,
            a: Gpr::RZ,
            b: Src::Imm(0),
            signed: false,
            combine: None,
        }),
        Instr::new(Op::P2R { d: r(9) }),
        // clobber all predicates with zeros
        Instr::new(Op::Mov32I { d: r(8), imm: 0 }),
        Instr::new(Op::R2P { a: r(8) }),
        // restore
        Instr::new(Op::R2P { a: r(9) }),
        Instr::new(Op::Mov32I { d: r(2), imm: 4 }),
        Instr::new(Op::Mov32I { d: r(20), imm: 0 }),
        Instr::guarded(
            Guard::on(p(0)),
            Op::IAdd {
                d: r(20),
                a: r(20),
                b: Src::Imm(1),
                x: false,
                cc: false,
            },
        ),
        Instr::guarded(
            Guard::on(p(1)),
            Op::IAdd {
                d: r(20),
                a: r(20),
                b: Src::Imm(10),
                x: false,
                cc: false,
            },
        ),
        Instr::guarded(
            Guard::on(p(2)),
            Op::IAdd {
                d: r(20),
                a: r(20),
                b: Src::Reg(r(2)),
                x: false,
                cc: false,
            },
        ),
    ];
    let out = run_raw(body);
    assert!(
        out.iter().all(|&v| v == 5),
        "P0 and P2 restored, P1 clear: got {}",
        out[0]
    );
}
