//! Program containers: a compiled [`Function`] of SASS instructions plus
//! the compile-time metadata the backend compiler hands to SASSI.
//!
//! The paper stresses (§10.1) that a compiler-integrated instrumentor has
//! structural information a binary rewriter cannot easily reconstruct —
//! control-flow structure, reconvergence targets, basic-block headers and
//! register liveness. [`FunctionMeta`] is where our backend records what
//! the code alone does not show, such as reconvergence targets and frame
//! size. Basic-block headers and liveness are derived from the code by
//! the compiler's CFG (`sassi_kir::sasslive`) whenever they are needed,
//! so they are never stored and cannot go stale.

use crate::instr::Instr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Compile-time metadata attached to a function by the backend compiler.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FunctionMeta {
    /// For each `SYNC` instruction (by instruction index), the pc of the
    /// reconvergence point established by its matching `SSY`. Used to
    /// build a precise CFG for liveness and by verification.
    pub sync_reconv: BTreeMap<u32, u32>,
    /// Per-thread stack frame bytes reserved by the prologue (spills and
    /// local arrays).
    pub frame_bytes: u32,
    /// Static bytes of shared memory the function requires per block.
    pub shared_bytes: u32,
    /// Highest GPR index used plus one (occupancy input).
    pub reg_high_water: u32,
    /// Whether the function executes block-wide barriers.
    pub uses_barrier: bool,
}

/// A compiled device function: straight-line SASS with in-function
/// branch targets expressed as instruction indices.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name (kernel or handler symbol).
    pub name: String,
    /// The instruction stream.
    pub instrs: Vec<Instr>,
    /// Backend-compiler metadata.
    pub meta: FunctionMeta,
}

impl Function {
    /// Creates a function from raw parts, recomputing nothing.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>, meta: FunctionMeta) -> Function {
        Function {
            name: name.into(),
            instrs,
            meta,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Renders a `cuobjdump`-style listing of the function.
    pub fn listing(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, ".func {}:", self.name);
        for (i, ins) in self.instrs.iter().enumerate() {
            let _ = writeln!(s, "  /*{i:04}*/  {ins};");
        }
        s
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.listing())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn listing_contains_indices() {
        let f = Function::new(
            "k",
            vec![Instr::new(Op::Nop), Instr::new(Op::Exit)],
            FunctionMeta::default(),
        );
        let l = f.listing();
        assert!(l.contains("/*0000*/  NOP;"));
        assert!(l.contains("/*0001*/  EXIT;"));
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }
}
