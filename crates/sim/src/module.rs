//! Linked device modules — the `nvlink` analogue.
//!
//! A [`Module`] holds the flat code space of one or more compiled
//! functions (kernels, device functions, compiled-SASS instrumentation
//! handlers). Linking concatenates function bodies, relocates
//! in-function `Pc` labels, resolves symbolic `Func` call targets, and
//! merges reconvergence metadata. `Handler` call targets survive
//! linking — they trap into native handlers at execution time. A module
//! is decoded once, when it is assembled, and its code cannot change
//! afterwards.

use crate::decode::DecodedModule;
use sassi_isa::{Function, FunctionMeta, Instr, Label};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A linking failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// Two functions share a name.
    DuplicateSymbol(String),
    /// A `Func` call target index is out of range.
    UnresolvedFunction(u32),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            LinkError::UnresolvedFunction(i) => write!(f, "call to unknown function #{i}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Metadata of one linked function.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkedFunction {
    /// Symbol name.
    pub name: String,
    /// Entry pc in the module's flat code space.
    pub entry: u32,
    /// One past the last instruction.
    pub end: u32,
    /// The compile-time metadata carried over from the backend.
    pub meta: FunctionMeta,
}

/// A linked device module.
#[derive(Debug)]
pub struct Module {
    /// Flat code space.
    code: Vec<Instr>,
    /// Linked functions in link order.
    pub functions: Vec<LinkedFunction>,
    /// Reconvergence targets for every `SYNC`, keyed by flat pc.
    pub sync_reconv: BTreeMap<u32, u32>,
    /// The pre-decoded form of `code` (see [`DecodedModule`]).
    decoded: DecodedModule,
}

impl Module {
    /// Links `funcs` into a module. `Func(i)` call targets refer to the
    /// i-th function in the slice.
    ///
    /// # Errors
    ///
    /// [`LinkError::DuplicateSymbol`] for repeated names and
    /// [`LinkError::UnresolvedFunction`] for out-of-range call targets.
    pub fn link(funcs: &[Function]) -> Result<Module, LinkError> {
        let mut names = HashMap::new();
        let mut entries = Vec::with_capacity(funcs.len());
        let mut base = 0u32;
        for (i, f) in funcs.iter().enumerate() {
            if names.insert(f.name.clone(), i).is_some() {
                return Err(LinkError::DuplicateSymbol(f.name.clone()));
            }
            entries.push(base);
            base += f.instrs.len() as u32;
        }

        let mut code = Vec::with_capacity(base as usize);
        let mut functions = Vec::with_capacity(funcs.len());
        let mut sync_reconv = BTreeMap::new();
        for (i, f) in funcs.iter().enumerate() {
            let entry = entries[i];
            for ins in &f.instrs {
                let mut ins = ins.clone();
                if let Some(target) = ins.op.target_mut() {
                    *target = match *target {
                        Label::Pc(pc) => Label::Pc(pc + entry),
                        Label::Func(fi) => {
                            let fi = fi as usize;
                            if fi >= funcs.len() {
                                return Err(LinkError::UnresolvedFunction(fi as u32));
                            }
                            Label::Pc(entries[fi])
                        }
                        Label::Handler(h) => Label::Handler(h),
                    };
                }
                code.push(ins);
            }
            for (&sync_pc, &reconv) in &f.meta.sync_reconv {
                sync_reconv.insert(sync_pc + entry, reconv + entry);
            }
            functions.push(LinkedFunction {
                name: f.name.clone(),
                entry,
                end: entry + f.instrs.len() as u32,
                meta: f.meta.clone(),
            });
        }
        Ok(Module::from_parts(code, functions, sync_reconv))
    }

    /// Assembles a module directly from its parts (no relocation) and
    /// decodes it. [`Module::link`] ends here; tests call it directly
    /// for code the builder API rejects, e.g. invalid control-transfer
    /// targets.
    pub fn from_parts(
        code: Vec<Instr>,
        functions: Vec<LinkedFunction>,
        sync_reconv: BTreeMap<u32, u32>,
    ) -> Module {
        // Decode at assembly: linking is the cold path, execution the
        // hot one, and first-launch timing stays indistinguishable from
        // steady state.
        let decoded = DecodedModule::decode(&code);
        Module {
            code,
            functions,
            sync_reconv,
            decoded,
        }
    }

    /// The flat code space.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// The pre-decoded µop form of the module.
    pub fn decoded(&self) -> &DecodedModule {
        &self.decoded
    }

    /// Finds a linked function by name.
    pub fn function(&self, name: &str) -> Option<&LinkedFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The function containing `pc`, if any.
    pub fn function_at(&self, pc: u32) -> Option<&LinkedFunction> {
        self.functions.iter().find(|f| pc >= f.entry && pc < f.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sassi_isa::{FunctionMeta, Gpr, Instr, Op, Src};

    fn f(name: &str, n: usize) -> Function {
        let mut instrs = vec![];
        for _ in 0..n.saturating_sub(1) {
            instrs.push(Instr::new(Op::Nop));
        }
        instrs.push(Instr::new(Op::Exit));
        Function::new(name, instrs, FunctionMeta::default())
    }

    #[test]
    fn concatenates_and_finds() {
        let m = Module::link(&[f("a", 3), f("b", 2)]).unwrap();
        assert_eq!(m.code().len(), 5);
        assert_eq!(m.function("b").unwrap().entry, 3);
        assert_eq!(m.function_at(4).unwrap().name, "b");
        assert!(m.function("c").is_none());
    }

    #[test]
    fn relocates_branches_and_calls() {
        let mut a = f("a", 2);
        a.instrs.insert(
            0,
            Instr::new(Op::Bra {
                target: Label::Pc(1),
                uniform: false,
            }),
        ); // now 3 instrs
        let mut b = f("b", 2);
        b.instrs.insert(
            0,
            Instr::new(Op::Jcal {
                target: Label::Func(0),
            }),
        );
        let m = Module::link(&[a, b]).unwrap();
        // b starts at 3; its first instruction calls a's entry (0).
        match m.code()[3].op {
            Op::Jcal {
                target: Label::Pc(t),
            } => assert_eq!(t, 0),
            ref o => panic!("unexpected {o:?}"),
        }
        // a's branch now targets 1 (unchanged, base 0).
        match m.code()[0].op {
            Op::Bra {
                target: Label::Pc(t),
                ..
            } => assert_eq!(t, 1),
            ref o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn handler_targets_survive() {
        let mut a = f("a", 2);
        a.instrs.insert(
            0,
            Instr::new(Op::Jcal {
                target: Label::Handler(7),
            }),
        );
        let m = Module::link(&[a]).unwrap();
        assert!(matches!(
            m.code()[0].op,
            Op::Jcal {
                target: Label::Handler(7)
            }
        ));
    }

    #[test]
    fn duplicate_symbol_rejected() {
        assert!(matches!(
            Module::link(&[f("x", 1), f("x", 1)]),
            Err(LinkError::DuplicateSymbol(_))
        ));
    }

    #[test]
    fn unresolved_function_rejected() {
        let mut a = f("a", 2);
        a.instrs.insert(
            0,
            Instr::new(Op::Jcal {
                target: Label::Func(5),
            }),
        );
        assert!(matches!(
            Module::link(&[a]),
            Err(LinkError::UnresolvedFunction(5))
        ));
    }

    #[test]
    fn sync_metadata_relocated() {
        let mut a = f("a", 2);
        let mut meta = FunctionMeta::default();
        meta.sync_reconv.insert(0, 1);
        a.meta = meta;
        let b = {
            let mut b = f("b", 3);
            let mut meta = FunctionMeta::default();
            meta.sync_reconv.insert(1, 2);
            b.meta = meta;
            b.instrs[0] = Instr::new(Op::Mov {
                d: Gpr::new(0),
                a: Src::Imm(0),
            });
            b
        };
        let m = Module::link(&[a, b]).unwrap();
        assert_eq!(m.sync_reconv.get(&0), Some(&1));
        assert_eq!(m.sync_reconv.get(&3), Some(&4));
    }
}
