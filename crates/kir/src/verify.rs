//! Verification passes: kernel-IR well-formedness and SASS-level
//! reconvergence checking.

use crate::builder::KFunction;
use crate::compiler::CompileError;
use crate::kop::{KAddr, KOp};
use crate::sasslive::{cfg, postdominators};
use crate::vreg::{LabelId, VClass, VReg, VSrc};
use sassi_isa::{AddrSpace, Function, Label, Op};
use std::collections::HashSet;

fn class_of(f: &KFunction, r: VReg) -> VClass {
    f.classes[r.index() as usize]
}

fn expect(f: &KFunction, r: VReg, want: VClass, what: &str, at: usize) -> Result<(), CompileError> {
    let got = class_of(f, r);
    if got != want {
        return Err(CompileError::Verify(format!(
            "instruction {at}: {what} {r} has class {got:?}, expected {want:?}"
        )));
    }
    Ok(())
}

fn expect_src(
    f: &KFunction,
    s: &VSrc,
    want: VClass,
    what: &str,
    at: usize,
) -> Result<(), CompileError> {
    if let VSrc::Reg(r) = s {
        expect(f, *r, want, what, at)?;
    }
    Ok(())
}

/// Checks kernel-IR well-formedness: label discipline, operand register
/// classes and address-space/base-class agreement.
///
/// # Errors
///
/// Returns [`CompileError::Verify`] describing the first violation, or
/// [`CompileError::UnplacedLabel`].
pub fn check_kir(f: &KFunction) -> Result<(), CompileError> {
    use VClass::{Pred, B32, B64};
    let mut placed: HashSet<LabelId> = HashSet::new();
    for ins in &f.instrs {
        if let KOp::Label { id } = ins.op {
            if !placed.insert(id) {
                return Err(CompileError::Verify(format!("label {id} placed twice")));
            }
        }
    }

    for (at, ins) in f.instrs.iter().enumerate() {
        if let Some((p, _)) = &ins.guard {
            expect(f, *p, Pred, "guard", at)?;
        }
        let check_label = |l: &LabelId| -> Result<(), CompileError> {
            if placed.contains(l) {
                Ok(())
            } else {
                Err(CompileError::UnplacedLabel(l.0))
            }
        };
        match &ins.op {
            KOp::Imm32 { d, .. } => expect(f, *d, B32, "dest", at)?,
            KOp::Imm64 { d, .. } => expect(f, *d, B64, "dest", at)?,
            KOp::Mov32 { d, a } => {
                expect(f, *d, B32, "dest", at)?;
                expect_src(f, a, B32, "src", at)?;
            }
            KOp::Mov64 { d, a } => {
                expect(f, *d, B64, "dest", at)?;
                expect(f, *a, B64, "src", at)?;
            }
            KOp::Special { d, .. } | KOp::LdConst32 { d, .. } => expect(f, *d, B32, "dest", at)?,
            KOp::LdConst64 { d, .. } => expect(f, *d, B64, "dest", at)?,
            KOp::AbiParam64 { d, idx } => {
                expect(f, *d, B64, "dest", at)?;
                if !f.abi_function {
                    return Err(CompileError::Verify(format!(
                        "instruction {at}: AbiParam64 outside ABI function"
                    )));
                }
                if *idx > 1 {
                    return Err(CompileError::Verify(format!(
                        "instruction {at}: ABI param index {idx} out of range"
                    )));
                }
            }
            KOp::IBin { d, a, b, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
            }
            KOp::IMad { d, a, b, c } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
                expect(f, *c, B32, "src c", at)?;
            }
            KOp::IUn { d, a, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src", at)?;
            }
            KOp::Sel { d, a, b, p, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
                expect(f, *p, Pred, "pred", at)?;
            }
            KOp::Add64 { d, a, b } => {
                expect(f, *d, B64, "dest", at)?;
                expect(f, *a, B64, "src a", at)?;
                expect(f, *b, B64, "src b", at)?;
            }
            KOp::Lea64 { d, a, b, shift } => {
                expect(f, *d, B64, "dest", at)?;
                expect(f, *a, B64, "base", at)?;
                expect(f, *b, B32, "index", at)?;
                if *shift > 31 {
                    return Err(CompileError::Verify(format!(
                        "instruction {at}: lea shift {shift} out of range"
                    )));
                }
            }
            KOp::Widen { d, a, .. } => {
                expect(f, *d, B64, "dest", at)?;
                expect(f, *a, B32, "src", at)?;
            }
            KOp::Pack64 { d, lo, hi } => {
                expect(f, *d, B64, "dest", at)?;
                expect(f, *lo, B32, "lo", at)?;
                expect(f, *hi, B32, "hi", at)?;
            }
            KOp::Lo32 { d, a } | KOp::Hi32 { d, a } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B64, "src", at)?;
            }
            KOp::FBin { d, a, b, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
            }
            KOp::FFma { d, a, b, c } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
                expect(f, *c, B32, "src c", at)?;
            }
            KOp::Mufu { d, a, .. } | KOp::I2F { d, a, .. } | KOp::F2I { d, a, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src", at)?;
            }
            KOp::ISetP { p, a, b, .. } | KOp::FSetP { p, a, b, .. } => {
                expect(f, *p, Pred, "dest pred", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
            }
            KOp::PBin { p, a, b, .. } => {
                expect(f, *p, Pred, "dest pred", at)?;
                expect(f, *a, Pred, "src a", at)?;
                expect(f, *b, Pred, "src b", at)?;
            }
            KOp::PImm { p, .. } => expect(f, *p, Pred, "dest pred", at)?,
            KOp::Ld {
                d,
                width,
                space,
                addr,
            } => {
                let want = if width.regs() == 2 { B64 } else { B32 };
                expect(f, *d, want, "dest", at)?;
                check_addr(f, *space, addr, at)?;
            }
            KOp::St {
                v,
                width,
                space,
                addr,
            } => {
                let want = if width.regs() == 2 { B64 } else { B32 };
                expect(f, *v, want, "value", at)?;
                check_addr(f, *space, addr, at)?;
            }
            KOp::Tld { d, base, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *base, B64, "base", at)?;
            }
            KOp::Atom {
                d,
                wide,
                space,
                addr,
                v,
                v2,
                ..
            } => {
                let want = if *wide { B64 } else { B32 };
                if let Some(d) = d {
                    expect(f, *d, want, "dest", at)?;
                }
                expect(f, *v, want, "value", at)?;
                if let Some(v2) = v2 {
                    expect(f, *v2, want, "value2", at)?;
                }
                if !matches!(space, AddrSpace::Global | AddrSpace::Shared) {
                    return Err(CompileError::Verify(format!(
                        "instruction {at}: atomics only on global/shared"
                    )));
                }
                check_addr(f, *space, addr, at)?;
            }
            KOp::FrameAddrGeneric { d, .. } => expect(f, *d, B64, "dest", at)?,
            KOp::Vote { d, p_out, src, .. } => {
                if let Some(d) = d {
                    expect(f, *d, B32, "dest", at)?;
                }
                if let Some(p) = p_out {
                    expect(f, *p, Pred, "dest pred", at)?;
                }
                expect(f, *src, Pred, "src pred", at)?;
            }
            KOp::Shfl { d, a, b, p_out, .. } => {
                expect(f, *d, B32, "dest", at)?;
                expect(f, *a, B32, "src a", at)?;
                expect_src(f, b, B32, "src b", at)?;
                if let Some(p) = p_out {
                    expect(f, *p, Pred, "dest pred", at)?;
                }
            }
            KOp::Bra { t } => check_label(t)?,
            KOp::Ssy { t } => check_label(t)?,
            KOp::Sync { reconv } => check_label(reconv)?,
            KOp::Ret => {
                if !f.abi_function {
                    return Err(CompileError::Verify(format!(
                        "instruction {at}: RET in kernel (use EXIT)"
                    )));
                }
            }
            KOp::MemBar | KOp::Bar | KOp::Label { .. } | KOp::Exit | KOp::Nop => {}
        }
    }
    Ok(())
}

fn check_addr(
    f: &KFunction,
    space: AddrSpace,
    addr: &KAddr,
    at: usize,
) -> Result<(), CompileError> {
    match (space, addr) {
        (AddrSpace::Local, KAddr::Frame { .. }) => Ok(()),
        (AddrSpace::Local, KAddr::Reg { base, .. })
        | (AddrSpace::Shared, KAddr::Reg { base, .. }) => {
            expect(f, *base, VClass::B32, "address base", at)
        }
        (AddrSpace::Global, KAddr::Reg { base, .. })
        | (AddrSpace::Generic, KAddr::Reg { base, .. }) => {
            expect(f, *base, VClass::B64, "address base", at)
        }
        _ => Err(CompileError::Verify(format!(
            "instruction {at}: invalid space/address combination {space:?}"
        ))),
    }
}

/// Checks that every `SSY` target post-dominates the `SSY` itself —
/// i.e. the backend placed reconvergence points at immediate
/// post-dominators, the invariant divergence hardware relies on.
///
/// Lanes that `EXIT` under a guard are excluded from the requirement
/// (exited lanes never reconverge).
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn check_reconvergence(f: &Function) -> Result<(), String> {
    let cfg = cfg(f);
    let pdom = postdominators(&cfg);
    for (i, ins) in f.instrs.iter().enumerate() {
        if let Op::Ssy {
            target: Label::Pc(t),
        } = ins.op
        {
            let from = cfg.block_of[i];
            let Some(&to) = cfg.block_of.get(t as usize) else {
                return Err(format!("SSY at {i} targets {t}, past the end"));
            };
            if !pdom[from][to] {
                return Err(format!(
                    "SSY at {i} targets {t}, which does not post-dominate it"
                ));
            }
        }
    }
    // Every SYNC must have reconvergence metadata.
    for (i, ins) in f.instrs.iter().enumerate() {
        if matches!(ins.op, Op::Sync) && !f.meta.sync_reconv.contains_key(&(i as u32)) {
            return Err(format!("SYNC at {i} has no reconvergence metadata"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::compiler::Compiler;
    use crate::kop::KInstr;

    #[test]
    fn well_formed_kernel_passes() {
        let mut b = KernelBuilder::kernel("k");
        let x = b.iconst(3);
        let p = b.setp_u32_lt(x, 5u32);
        b.if_(p, |b| {
            let _ = b.iadd(x, 1u32);
        });
        assert!(check_kir(&b.finish()).is_ok());
    }

    #[test]
    fn class_mismatch_rejected() {
        let mut b = KernelBuilder::kernel("k");
        let x = b.iconst(3); // B32
        let f_ok = b.finish();
        let mut f = f_ok;
        // Forge an Add64 over a B32 register.
        f.instrs.push(KInstr::new(KOp::Add64 {
            d: x.vreg(),
            a: x.vreg(),
            b: x.vreg(),
        }));
        assert!(matches!(check_kir(&f), Err(CompileError::Verify(_))));
    }

    #[test]
    fn ret_in_kernel_rejected() {
        let mut b = KernelBuilder::kernel("k");
        let _ = b.iconst(0);
        let mut f = b.finish();
        f.instrs.push(KInstr::new(KOp::Ret));
        assert!(matches!(check_kir(&f), Err(CompileError::Verify(_))));
    }

    #[test]
    fn compiled_control_flow_reconverges_at_postdominators() {
        let mut b = KernelBuilder::kernel("k");
        let x = b.iconst(1);
        let p = b.setp_u32_lt(x, 2u32);
        b.if_else(
            p,
            |b| {
                let _ = b.iadd(x, 1u32);
            },
            |b| {
                let _ = b.iadd(x, 2u32);
            },
        );
        let n = b.iconst(4);
        b.for_range(0u32, n, 1, |b, i| {
            let _ = b.iadd(i, 1u32);
        });
        let f = Compiler::new().compile(&b.finish()).unwrap();
        check_reconvergence(&f).unwrap();
    }
}
