//! The backend compiler driver — our `ptxas`.
//!
//! Pipeline: KIR verification → CFG → liveness → linear-scan register
//! allocation (optionally under a register cap, the `-maxrregcount`
//! analogue) → lowering to SASS → reconvergence verification. SASSI's
//! `Sassi::apply` then runs over the result as the final pass, as the
//! paper's Figure 1 shows it inside `ptxas`.

use crate::builder::KFunction;
use crate::cfg::Cfg;
use crate::liveness::{block_liveness, live_intervals};
use crate::lower::lower;
use crate::regalloc::{allocate, RegAllocError};
use crate::verify;
use sassi_isa::Function;
use std::fmt;

/// Compilation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// Register allocation failed.
    RegAlloc(RegAllocError),
    /// A single IR instruction needed more scratch registers than the
    /// reserved quad provides.
    ScratchPressure,
    /// A label was referenced but never placed.
    UnplacedLabel(u32),
    /// IR or reconvergence verification failed.
    Verify(String),
    /// Internal invariant violation (a compiler bug).
    Internal(&'static str),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::RegAlloc(e) => write!(f, "register allocation failed: {e}"),
            CompileError::ScratchPressure => {
                write!(f, "instruction exceeds the reserved scratch registers")
            }
            CompileError::UnplacedLabel(l) => write!(f, "label L{l} referenced but never placed"),
            CompileError::Verify(m) => write!(f, "verification failed: {m}"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<RegAllocError> for CompileError {
    fn from(e: RegAllocError) -> CompileError {
        CompileError::RegAlloc(e)
    }
}

/// The backend compiler.
///
/// ```
/// use sassi_kir::{Compiler, KernelBuilder};
///
/// let mut b = KernelBuilder::kernel("triple");
/// let x = b.param_u32(0);
/// let y = b.imul(x, 3u32);
/// let out = b.param_ptr(1);
/// b.st_global_u32(out, y);
/// let f = Compiler::new().compile(&b.finish()).unwrap();
/// assert!(f.len() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct Compiler {
    max_regs: u8,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with the default register budget (63, the classic
    /// Kepler per-thread limit for full occupancy).
    pub fn new() -> Compiler {
        Compiler { max_regs: 63 }
    }

    /// Caps the per-thread register budget — the analogue of compiling
    /// with `-maxrregcount`. The paper compiles instrumentation handlers
    /// with a cap of 16 (§3.2).
    pub fn max_regs(mut self, n: u8) -> Compiler {
        self.max_regs = n;
        self
    }

    /// Compiles a function to SASS.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for malformed IR, unsatisfiable
    /// register pressure (predicates) or verification failures.
    pub fn compile(&self, f: &KFunction) -> Result<Function, CompileError> {
        verify::check_kir(f)?;
        let cfg = Cfg::build(f);
        let lv = block_liveness(f, &cfg);
        let intervals = live_intervals(f, &cfg, &lv);
        let alloc = allocate(f, &intervals, self.max_regs, f.frame_bytes)?;
        let func = lower(f, &alloc)?;
        verify::check_reconvergence(&func).map_err(CompileError::Verify)?;
        Ok(func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use sassi_isa::Op;

    fn vadd_kfunc() -> KFunction {
        let mut b = KernelBuilder::kernel("vadd");
        let i = b.global_tid_x();
        let n = b.param_u32(0);
        let pa = b.param_ptr(1);
        let pb = b.param_ptr(2);
        let po = b.param_ptr(3);
        let p = b.setp_u32_lt(i, n);
        b.if_(p, |b| {
            let ea = b.lea(pa, i, 2);
            let eb = b.lea(pb, i, 2);
            let x = b.ld_global_f32(ea);
            let y = b.ld_global_f32(eb);
            let sum = b.fadd(x, y);
            let eo = b.lea(po, i, 2);
            b.st_global_u32(eo, sum);
        });
        b.finish()
    }

    #[test]
    fn compiles_vadd() {
        let f = Compiler::new().compile(&vadd_kfunc()).unwrap();
        assert!(f.instrs.iter().any(|i| matches!(i.op, Op::Ssy { .. })));
        assert!(f.instrs.iter().any(|i| matches!(i.op, Op::Exit)));
        assert!(f.meta.reg_high_water >= 2);
        // No spills expected at 63 registers.
        assert!(!f.instrs.iter().any(|i| i.class().is_spill_or_fill()));
    }

    #[test]
    fn cap_16_forces_spill_code() {
        let mut b = KernelBuilder::kernel("pressure");
        let out = b.param_ptr(0);
        let vals: Vec<_> = (0..20).map(|k| b.iconst(k)).collect();
        let mut acc = b.iconst(0);
        for v in &vals {
            acc = b.iadd(acc, *v);
        }
        b.st_global_u32(out, acc);
        let kf = b.finish();
        let f = Compiler::new().max_regs(16).compile(&kf).unwrap();
        assert!(
            f.instrs.iter().any(|i| i.class().is_spill_or_fill()),
            "expected spill code under the 16-register cap:\n{f}"
        );
        assert!(f.meta.frame_bytes > 0);
        // Prologue adjusts the stack pointer.
        assert!(matches!(f.instrs[0].op, Op::IAdd { d, .. } if d == sassi_isa::Gpr::SP));
    }

    #[test]
    fn branch_targets_resolved() {
        let f = Compiler::new().compile(&vadd_kfunc()).unwrap();
        for ins in &f.instrs {
            match &ins.op {
                Op::Bra { target, .. } | Op::Ssy { target } => match target {
                    sassi_isa::Label::Pc(t) => assert!((*t as usize) < f.instrs.len() + 1),
                    other => panic!("unresolved label {other:?}"),
                },
                _ => {}
            }
        }
        // Every SYNC has a recorded reconvergence point.
        for (i, ins) in f.instrs.iter().enumerate() {
            if matches!(ins.op, Op::Sync) {
                assert!(
                    f.meta.sync_reconv.contains_key(&(i as u32)),
                    "sync at {i} missing reconvergence metadata"
                );
            }
        }
    }

    #[test]
    fn loop_kernel_compiles() {
        let mut b = KernelBuilder::kernel("sum");
        let n = b.param_u32(0);
        let src = b.param_ptr(1);
        let out = b.param_ptr(2);
        let acc = b.var_u32(0u32);
        b.for_range(0u32, n, 1, |b, i| {
            let e = b.lea(src, i, 2);
            let v = b.ld_global_u32(e);
            let nxt = b.iadd(acc, v);
            b.assign(acc, nxt);
        });
        b.st_global_u32(out, acc);
        let f = Compiler::new().compile(&b.finish()).unwrap();
        assert!(f.instrs.iter().any(|i| matches!(i.op, Op::Bra { .. })));
    }
}
