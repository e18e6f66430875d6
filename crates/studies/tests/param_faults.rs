//! A trap whose parameter pointers lead nowhere ends its launch as a
//! fault at the trap, under the branch, memdiv and value instrumentors
//! and both interpreters: an unreadable parameter object is the
//! kernel's fault, never a host panic.

use parking_lot::Mutex;
use sassi::Sassi;
use sassi_isa::{FunctionMeta, Gpr, Instr, Label, Op, Src};
use sassi_sim::{Device, ExecMode, FaultKind, KernelOutcome, LaunchDims, LinkedFunction, Module};
use sassi_studies::{branch, memdiv, value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `R4:R5 = R6:R7 = 0; JCAL handler0; EXIT` as raw SASS: the handler
/// the instrumentor registered first receives null parameter pointers.
fn null_parameters_kernel() -> Module {
    let zero = |r| Op::Mov {
        d: Gpr::new(r),
        a: Src::Reg(Gpr::RZ),
    };
    let ops = vec![
        zero(4),
        zero(5),
        zero(6),
        zero(7),
        Op::Jcal {
            target: Label::Handler(0),
        },
        Op::Exit,
    ];
    let code: Vec<Instr> = ops.into_iter().map(Instr::new).collect();
    let f = LinkedFunction {
        name: "k".to_string(),
        entry: 0,
        end: code.len() as u32,
        meta: FunctionMeta {
            reg_high_water: 8,
            ..FunctionMeta::default()
        },
    };
    Module::from_parts(code, vec![f], BTreeMap::new())
}

#[test]
fn null_parameter_pointers_fault_at_the_trap() {
    let module = null_parameters_kernel();
    // The first field each handler reads: the branch handler the
    // direction at R6:R7 + 0, the others `instrWillExecute` at
    // R4:R5 + 4.
    type Build = fn() -> Sassi;
    let cases: [(&str, Build, u64); 3] = [
        (
            "branch",
            || branch::instrumentor(Arc::new(Mutex::new(Default::default()))),
            0,
        ),
        (
            "memdiv",
            || memdiv::instrumentor(Arc::new(Mutex::new(Default::default()))),
            4,
        ),
        (
            "value",
            || value::instrumentor(Arc::new(Mutex::new(Default::default()))),
            4,
        ),
    ];
    for (study, build, addr) in cases {
        for mode in [ExecMode::Decoded, ExecMode::Reference] {
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            let mut sassi = build();
            let res = dev
                .launch(
                    &module,
                    "k",
                    LaunchDims::linear(1, 32),
                    &[],
                    &mut sassi,
                    0,
                    1_000_000,
                )
                .expect("launches");
            match res.outcome {
                KernelOutcome::Fault(f) => {
                    assert_eq!(f.pc, 4, "{study} {mode:?}: fault at the trap");
                    assert_eq!(f.kind, FaultKind::MemViolation { addr }, "{study} {mode:?}");
                }
                other => panic!("{study} {mode:?}: {other:?}"),
            }
            assert_eq!(res.stats.handler_calls, 1, "{study} {mode:?}");
        }
    }
}
