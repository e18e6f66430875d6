//! Differential tests: the pre-decoded µop interpreter
//! ([`ExecMode::Decoded`]) must be observationally identical to the
//! reference interpreter ([`ExecMode::Reference`], the original seed
//! semantics) — same outputs, same memory, same `LaunchStats` to the
//! cycle, same fault outcomes — across the whole benchmark registry, a
//! random kernel corpus, and hand-built fault-path modules. Both modes
//! run under the one production scheduler (run-to-boundary stepping),
//! so the comparison is cycle-exact.

use proptest::prelude::*;
use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
use sassi_kir::{Compiler, KernelBuilder, V32};
use sassi_rt::{LaunchRecord, ModuleBuilder, Runtime};
use sassi_sim::{
    Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LaunchError, LaunchResult,
    LinkedFunction, Module, NoHandlers,
};
use sassi_workloads::{all_workloads, RunFailure, Workload, WorkloadOutput};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Registry workloads: every benchmark, both interpreters, everything
// observable compared.

fn run_workload(
    w: &dyn Workload,
    mode: ExecMode,
) -> (Result<WorkloadOutput, RunFailure>, Vec<LaunchRecord>) {
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = mb.build(None).expect("build");
    let mut rt = Runtime::with_defaults();
    rt.device.exec_mode = mode;
    let out = w.execute(&mut rt, &module, &mut NoHandlers);
    (out, rt.records().to_vec())
}

fn check_workload(w: &dyn Workload) {
    let name = w.name();
    let (out_d, rec_d) = run_workload(w, ExecMode::Decoded);
    let (out_r, rec_r) = run_workload(w, ExecMode::Reference);
    assert_eq!(out_d, out_r, "{name}: output diverges across exec modes");
    assert_eq!(
        rec_d.len(),
        rec_r.len(),
        "{name}: launch count diverges across exec modes"
    );
    for (d, r) in rec_d.iter().zip(&rec_r) {
        // LaunchRecord equality covers outcome, every LaunchStats
        // counter (cycles, instrs, divergence, issue-class breakdown)
        // and the memory-system counters.
        assert_eq!(d, r, "{name}: launch {} diverges", d.info.launch_index);
        assert_eq!(
            d.result.stats.issue.total(),
            d.result.stats.warp_instrs,
            "{name}: issue-class counters must partition warp_instrs"
        );
    }
}

#[test]
fn registry_workloads_agree_across_modes() {
    // Each workload runs twice (once per mode); spread them over worker
    // threads so the debug-profile suite stays fast.
    let workloads = all_workloads();
    let n_threads = 8;
    std::thread::scope(|s| {
        let mut chunks: Vec<Vec<Box<dyn Workload>>> = (0..n_threads).map(|_| Vec::new()).collect();
        for (i, w) in workloads.into_iter().enumerate() {
            chunks[i % n_threads].push(w);
        }
        for chunk in chunks {
            s.spawn(move || {
                for w in &chunk {
                    check_workload(w.as_ref());
                }
            });
        }
    });
}

// ---------------------------------------------------------------------
// Random kernel corpus: straight-line arithmetic and nested divergence,
// plain and fully instrumented (the instrumented variant exercises the
// Trap µop and the handler return path).

#[derive(Clone, Debug)]
enum Step {
    Add(usize, usize),
    Mul(usize, usize),
    Xor(usize, usize),
    Shl(usize, u32),
    SelLt(usize, usize, usize),
    If { bit: u8, then_n: u8, else_n: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Add(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Mul(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Xor(a, b)),
        (any::<usize>(), 0u32..32).prop_map(|(a, s)| Step::Shl(a, s)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(a, b, c)| Step::SelLt(a, b, c)),
        (0u8..5, 1u8..4, 0u8..4).prop_map(|(bit, t, e)| Step::If {
            bit,
            then_n: t,
            else_n: e
        }),
    ]
}

fn build_kernel(seeds: &[u32], steps: &[Step]) -> sassi_kir::KFunction {
    let mut b = KernelBuilder::kernel("prog");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let mut vals: Vec<V32> = seeds.iter().map(|&s| b.iadd(tid, s)).collect();
    for st in steps {
        let n = vals.len();
        let v = match st {
            Step::Add(a, c) => b.iadd(vals[a % n], vals[c % n]),
            Step::Mul(a, c) => b.imul(vals[a % n], vals[c % n]),
            Step::Xor(a, c) => b.xor(vals[a % n], vals[c % n]),
            Step::Shl(a, s) => b.shl(vals[a % n], *s),
            Step::SelLt(a, c, d) => {
                let p = b.setp_u32_lt(vals[a % n], vals[c % n]);
                b.sel(p, vals[a % n], vals[d % n])
            }
            Step::If {
                bit,
                then_n,
                else_n,
            } => {
                let last = *vals.last().unwrap();
                let t = b.shr(tid, *bit as u32);
                let tb = b.and(t, 1u32);
                let taken = b.setp_u32_eq(tb, 1u32);
                let result = b.var_u32(0u32);
                b.if_else(
                    taken,
                    |b| {
                        let mut v = last;
                        for _ in 0..*then_n {
                            let one = b.iconst(1);
                            v = b.imad(v, 2u32, one);
                        }
                        b.assign(result, v);
                    },
                    |b| {
                        let mut v = last;
                        for _ in 0..*else_n {
                            v = b.iadd(v, 13u32);
                        }
                        b.assign(result, v);
                    },
                );
                result
            }
        };
        vals.push(v);
    }
    let mut acc = b.iconst(0);
    for v in &vals {
        acc = b.iadd(acc, *v);
    }
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, acc);
    b.finish()
}

/// Runs a linked module in `mode`; returns the launch result and the
/// output buffer contents.
fn run_mode(
    module: &Module,
    mode: ExecMode,
    handlers: Option<&mut Sassi>,
) -> (LaunchResult, Vec<u32>) {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    let out = dev.mem.alloc(64 * 4, 8).unwrap();
    let res = match handlers {
        Some(s) => dev
            .launch(
                module,
                "prog",
                LaunchDims::linear(2, 32),
                &[out],
                s,
                0,
                1 << 32,
            )
            .unwrap(),
        None => dev
            .launch(
                module,
                "prog",
                LaunchDims::linear(2, 32),
                &[out],
                &mut NoHandlers,
                0,
                1 << 32,
            )
            .unwrap(),
    };
    assert!(res.is_ok(), "{:?}", res.outcome);
    let mem = (0..64)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect();
    (res, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random kernels (arithmetic, predication, nested divergence) give
    /// identical results, stats and memory in both modes — plain and
    /// under every-site instrumentation.
    #[test]
    fn random_kernels_agree_across_modes(
        seeds in prop::collection::vec(any::<u32>(), 2..6),
        steps in prop::collection::vec(step_strategy(), 3..16),
    ) {
        let kf = build_kernel(&seeds, &steps);
        let func = Compiler::new().compile(&kf).unwrap();

        let module = Module::link(std::slice::from_ref(&func)).unwrap();
        let (res_d, mem_d) = run_mode(&module, ExecMode::Decoded, None);
        let (res_r, mem_r) = run_mode(&module, ExecMode::Reference, None);
        prop_assert_eq!(&res_d, &res_r, "plain launch result diverges");
        prop_assert_eq!(&mem_d, &mem_r, "plain memory diverges");

        // Instrumented: every instruction becomes a trap site, so the
        // decoded Trap µop and handler resume path run constantly.
        let mut sassi = Sassi::new();
        sassi.on_before(SiteFilter::ALL, InfoFlags::NONE, Box::new(FnHandler::free(|_| {})));
        let inst = sassi.apply(&func, 0);
        let imodule = Module::link(std::slice::from_ref(&inst)).unwrap();
        let (ires_d, imem_d) = run_mode(&imodule, ExecMode::Decoded, Some(&mut sassi));
        let (ires_r, imem_r) = run_mode(&imodule, ExecMode::Reference, Some(&mut sassi));
        prop_assert_eq!(&ires_d, &ires_r, "instrumented launch result diverges");
        prop_assert_eq!(&imem_d, &imem_r, "instrumented memory diverges");
        prop_assert!(ires_d.stats.handler_calls > 0);
        prop_assert_eq!(&mem_d, &imem_d, "instrumentation not transparent");
    }
}

// ---------------------------------------------------------------------
// Fault paths: ill-formed control transfers must fault identically —
// the decode stage turns them into `UOp::Invalid` at link time, but the
// fault must only fire if a warp actually reaches the site, with the
// exact FaultKind the reference interpreter raises.

use sassi_isa::{FunctionMeta, Gpr, Instr, Label, MemAddr, MemWidth, Op};

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

fn launch_raw(module: &Module, mode: ExecMode) -> LaunchResult {
    let mut dev = Device::with_defaults();
    dev.exec_mode = mode;
    dev.launch(
        module,
        "k",
        LaunchDims::linear(1, 32),
        &[],
        &mut NoHandlers,
        0,
        1 << 20,
    )
    .unwrap()
}

fn assert_fault_parity(module: &Module, want: FaultKind) {
    let d = launch_raw(module, ExecMode::Decoded);
    let r = launch_raw(module, ExecMode::Reference);
    assert_eq!(d, r, "fault outcome diverges across exec modes");
    match d.outcome {
        KernelOutcome::Fault(info) => assert_eq!(info.kind, want),
        other => panic!("expected fault {want:?}, got {other:?}"),
    }
}

#[test]
fn far_branch_faults_identically() {
    let m = raw_module(vec![
        Instr::new(Op::Bra {
            target: Label::Pc(999),
            uniform: false,
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(&m, FaultKind::InvalidPc { pc: 999 });
}

#[test]
fn non_pc_branch_label_faults_identically() {
    let m = raw_module(vec![
        Instr::new(Op::Bra {
            target: Label::Func(0),
            uniform: false,
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(&m, FaultKind::InvalidPc { pc: u64::MAX });
}

#[test]
fn unlinked_call_faults_identically() {
    let m = raw_module(vec![
        Instr::new(Op::Jcal {
            target: Label::Func(0),
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(&m, FaultKind::InvalidPc { pc: 0 });
}

#[test]
fn load_wrapping_the_address_space_faults_identically() {
    // R2:R3 are zero at warp start, so `[R2-0x4]` is 2^64 - 4: the
    // 4-byte range wraps past the top of the address space.
    let m = raw_module(vec![
        Instr::new(Op::Ld {
            d: Gpr::new(0),
            width: MemWidth::B32,
            addr: MemAddr::global(Gpr::new(2), -4),
            spill: false,
        }),
        Instr::new(Op::Exit),
    ]);
    assert_fault_parity(
        &m,
        FaultKind::MemViolation {
            addr: 0xFFFF_FFFF_FFFF_FFFC,
        },
    );
}

#[test]
fn unprovisioned_register_is_rejected_at_launch() {
    // The SM provisions 64 registers per thread. Lane l's R100 would be
    // lane l+1's R36, so the launch must fail before any warp runs.
    let m = raw_module(vec![
        Instr::new(Op::Mov32I {
            d: Gpr::new(100),
            imm: 0x7,
        }),
        Instr::new(Op::Exit),
    ]);
    assert_eq!(m.decoded().regs_used(), 101);
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        let r = dev.launch(
            &m,
            "k",
            LaunchDims::linear(1, 32),
            &[],
            &mut NoHandlers,
            0,
            1 << 20,
        );
        assert!(
            matches!(r, Err(LaunchError::BadGeometry(_))),
            "{mode:?}: {r:?}"
        );
    }
}

#[test]
fn oversized_geometry_is_rejected_at_launch() {
    // Each grid or block product overflows a u32: 65536 * 65537 blocks
    // would wrap to 65536, and 65536 * 65536 threads to an empty block.
    let m = raw_module(vec![Instr::new(Op::Exit)]);
    let oversized = [
        LaunchDims {
            grid: (65536, 65537, 1),
            block: (32, 1, 1),
        },
        LaunchDims {
            grid: (1, 1, 1),
            block: (65536, 65536, 1),
        },
        LaunchDims {
            grid: (2, 1, 1),
            block: (64, 1 << 16, 1 << 16),
        },
    ];
    for dims in oversized {
        for mode in [ExecMode::Decoded, ExecMode::Reference] {
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            let r = dev.launch(&m, "k", dims, &[], &mut NoHandlers, 0, 1 << 20);
            match r {
                Err(LaunchError::BadGeometry(msg)) => {
                    assert!(msg.contains("overflows u32"), "{mode:?} {dims:?}: {msg}")
                }
                other => panic!("{mode:?} {dims:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn unreached_invalid_site_is_harmless() {
    // The bad branch sits after EXIT: decode marks it UOp::Invalid, but
    // no warp reaches it, so the launch completes in both modes.
    let m = raw_module(vec![
        Instr::new(Op::Exit),
        Instr::new(Op::Bra {
            target: Label::Pc(999),
            uniform: false,
        }),
    ]);
    let d = launch_raw(&m, ExecMode::Decoded);
    let r = launch_raw(&m, ExecMode::Reference);
    assert_eq!(d, r);
    assert!(d.is_ok());
}

#[test]
fn rz_stores_zeros_and_loads_into_rz_are_discarded() {
    // R4..R7 hold non-zero words. `RZ` as a store source, of any width,
    // stores zeros in every word; a 64-bit load into `RZ` is dropped.
    // Both go to local memory and to global memory at R2:R3.
    let mov = |d: u8, imm: u32| {
        Instr::new(Op::Mov32I {
            d: Gpr::new(d),
            imm,
        })
    };
    let st = |v: Gpr, width: MemWidth, addr: MemAddr| {
        Instr::new(Op::St {
            v,
            width,
            addr,
            spill: false,
        })
    };
    let ld = |d: Gpr, width: MemWidth, addr: MemAddr| {
        Instr::new(Op::Ld {
            d,
            width,
            addr,
            spill: false,
        })
    };
    let local = |off| MemAddr::local(Gpr::SP, off);
    let global = |off| MemAddr::global(Gpr::new(2), off);
    let out = sassi_isa::GLOBAL_HEAP_BASE;
    let m = raw_module(vec![
        mov(2, out as u32),
        mov(3, (out >> 32) as u32),
        mov(4, 0xdead_beef),
        mov(5, 0x0123_4567),
        mov(6, 0x89ab_cdef),
        mov(7, 0x7654_3210),
        // Local: fill 16 bytes, then clear them with RZ stores.
        st(Gpr::new(4), MemWidth::B128, local(-16)),
        st(Gpr::RZ, MemWidth::B32, local(-16)),
        st(Gpr::RZ, MemWidth::B64, local(-12)),
        st(Gpr::RZ, MemWidth::U8, local(-4)),
        st(Gpr::RZ, MemWidth::U16, local(-3)),
        st(Gpr::RZ, MemWidth::U8, local(-1)),
        ld(Gpr::RZ, MemWidth::B64, local(-16)),
        ld(Gpr::new(8), MemWidth::B128, local(-16)),
        st(Gpr::new(8), MemWidth::B128, global(0)),
        // Global: the same, for a 128-bit and a 64-bit RZ store.
        st(Gpr::new(4), MemWidth::B128, global(16)),
        st(Gpr::new(4), MemWidth::B128, global(32)),
        st(Gpr::RZ, MemWidth::B64, global(16)),
        st(Gpr::RZ, MemWidth::B128, global(32)),
        ld(Gpr::RZ, MemWidth::B64, global(16)),
        Instr::new(Op::Exit),
    ]);
    let run = |mode| {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        assert_eq!(dev.mem.alloc(48, 16).unwrap(), out);
        let res = dev
            .launch(
                &m,
                "k",
                LaunchDims::linear(1, 32),
                &[],
                &mut NoHandlers,
                0,
                1 << 20,
            )
            .unwrap();
        (res, dev.mem.read_bytes(out, 48).unwrap().to_vec())
    };
    let (res_d, mem_d) = run(ExecMode::Decoded);
    let (res_r, mem_r) = run(ExecMode::Reference);
    assert!(res_d.is_ok(), "{:?}", res_d.outcome);
    assert_eq!(res_d, res_r, "launch result diverges across exec modes");
    assert_eq!(mem_d, mem_r, "memory diverges across exec modes");
    let mut want = [0u8; 48];
    want[24..28].copy_from_slice(&0x89ab_cdefu32.to_le_bytes());
    want[28..32].copy_from_slice(&0x7654_3210u32.to_le_bytes());
    assert_eq!(mem_d, want);
}

#[test]
fn global_access_running_off_its_allocation_faults_identically() {
    // Lane l accesses `out + 4l`; `out` holds 16 words, so lane 16 is
    // the first lane outside it. The store faults there, after lanes
    // 0..16 have stored; the load faults at the same lane.
    let out = sassi_isa::GLOBAL_HEAP_BASE;
    let lane = Gpr::new(0);
    let prologue = || {
        vec![
            Instr::new(Op::S2R {
                d: lane,
                sr: sassi_isa::SpecialReg::LaneId,
            }),
            Instr::new(Op::Mov32I {
                d: Gpr::new(3),
                imm: out as u32,
            }),
            Instr::new(Op::IScAdd {
                d: Gpr::new(2),
                a: lane,
                b: sassi_isa::Src::Reg(Gpr::new(3)),
                shift: 2,
            }),
            Instr::new(Op::Mov32I {
                d: Gpr::new(3),
                imm: (out >> 32) as u32,
            }),
        ]
    };
    let mut store = prologue();
    store.push(Instr::new(Op::St {
        v: lane,
        width: MemWidth::B32,
        addr: MemAddr::global(Gpr::new(2), 0),
        spill: false,
    }));
    let mut load = prologue();
    load.push(Instr::new(Op::Ld {
        d: Gpr::new(4),
        width: MemWidth::B32,
        addr: MemAddr::global(Gpr::new(2), 0),
        spill: false,
    }));
    for code in [store, load] {
        let m = raw_module(code);
        let run = |mode| {
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            assert_eq!(dev.mem.alloc(64, 16).unwrap(), out);
            let res = dev
                .launch(
                    &m,
                    "k",
                    LaunchDims::linear(1, 32),
                    &[],
                    &mut NoHandlers,
                    0,
                    1 << 20,
                )
                .unwrap();
            (res, dev.mem.read_bytes(out, 64).unwrap().to_vec())
        };
        let (res_d, mem_d) = run(ExecMode::Decoded);
        let (res_r, mem_r) = run(ExecMode::Reference);
        assert_eq!(res_d, res_r, "fault outcome diverges across exec modes");
        assert_eq!(mem_d, mem_r, "memory diverges across exec modes");
        match res_d.outcome {
            KernelOutcome::Fault(info) => {
                assert_eq!(info.kind, FaultKind::MemViolation { addr: out + 64 })
            }
            other => panic!("expected a fault, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// The zero-allocation claim: a launch in either mode must never clone
// an `Instr` (the seed interpreter cloned one per warp-step). Only
// meaningful under cfg(debug_assertions), where the ISA crate counts
// clones.

#[cfg(debug_assertions)]
#[test]
fn launches_never_clone_instructions() {
    let mut b = KernelBuilder::kernel("prog");
    let out = b.param_ptr(0);
    let tid = b.global_tid_x();
    let v = b.imul(tid, 3u32);
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, v);
    let func = Compiler::new().compile(&b.finish()).unwrap();
    let module = Module::link(std::slice::from_ref(&func)).unwrap();

    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut dev = Device::with_defaults();
        dev.exec_mode = mode;
        let out = dev.mem.alloc(64 * 4, 8).unwrap();
        let before = sassi_isa::clone_count::current();
        let res = dev
            .launch(
                &module,
                "prog",
                LaunchDims::linear(2, 32),
                &[out],
                &mut NoHandlers,
                0,
                1 << 32,
            )
            .unwrap();
        let after = sassi_isa::clone_count::current();
        assert!(res.is_ok());
        assert_eq!(
            after - before,
            0,
            "{mode:?} execution cloned Instrs in the hot loop"
        );
    }
}
