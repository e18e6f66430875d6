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
    Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LaunchResult, LinkedFunction, Module,
    NoHandlers,
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
