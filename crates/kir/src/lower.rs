//! Lowering: kernel IR + register assignment → SASS instructions.
//!
//! Each IR operation expands to one to three machine instructions.
//! Spilled virtual registers are materialized here: fills (`LDL` from
//! the stack frame, flagged as spill so SASSI's `IsSpillOrFill` sees
//! them) before uses, stores after defs, all staged through the four
//! reserved scratch registers.

use crate::builder::KFunction;
use crate::compiler::CompileError;
use crate::kop::{FBinOp, IBinOp, IUnOp, KAddr, KInstr, KOp};
use crate::regalloc::{Allocation, Loc};
use crate::vreg::{LabelId, VReg, VSrc};
use sassi_isa::{
    cbank0, AddrSpace, CBankAddr, Function, FunctionMeta, Gpr, Guard, Instr, IntWidth, Label,
    LogicOp, MemAddr, MemWidth, Op, PredReg, Src,
};
use std::collections::{BTreeMap, HashMap};

/// Per-instruction scratch register manager over the reserved quad.
struct Scratch {
    regs: [u8; 4],
    used: [bool; 4],
}

impl Scratch {
    fn new(regs: [u8; 4]) -> Scratch {
        Scratch {
            regs,
            used: [false; 4],
        }
    }

    fn take1(&mut self) -> Result<Gpr, CompileError> {
        for i in 0..4 {
            if !self.used[i] {
                self.used[i] = true;
                return Ok(Gpr::new(self.regs[i]));
            }
        }
        Err(CompileError::ScratchPressure)
    }

    fn take_pair(&mut self) -> Result<Gpr, CompileError> {
        for base in [0usize, 2] {
            if !self.used[base] && !self.used[base + 1] {
                self.used[base] = true;
                self.used[base + 1] = true;
                return Ok(Gpr::new(self.regs[base]));
            }
        }
        Err(CompileError::ScratchPressure)
    }

    /// Releases every slot — used by single-instruction ops, where the
    /// destination may safely alias source scratch (the machine reads
    /// all operands before writing).
    fn release_all(&mut self) {
        self.used = [false; 4];
    }
}

struct Lowerer<'a> {
    alloc: &'a Allocation,
    out: Vec<Instr>,
    fixups: Vec<(usize, LabelId)>,
    sync_fixups: Vec<(usize, LabelId)>,
    label_pos: HashMap<LabelId, u32>,
    frame_total: u32,
    uses_barrier: bool,
}

impl<'a> Lowerer<'a> {
    fn loc(&self, v: VReg) -> Result<Loc, CompileError> {
        self.alloc.locs[v.index() as usize].ok_or(CompileError::Internal("unallocated vreg"))
    }

    fn pred(&self, v: VReg) -> Result<PredReg, CompileError> {
        match self.loc(v)? {
            Loc::Pred(i) => Ok(PredReg::new(i)),
            _ => Err(CompileError::Internal("expected predicate location")),
        }
    }

    fn guard(&self, g: &Option<(VReg, bool)>) -> Result<Guard, CompileError> {
        match g {
            None => Ok(Guard::ALWAYS),
            Some((p, neg)) => Ok(Guard {
                pred: self.pred(*p)?,
                neg: *neg,
            }),
        }
    }

    fn emit(&mut self, guard: Guard, op: Op) {
        self.out.push(Instr::guarded(guard, op));
    }

    /// Resolves a 32-bit source vreg, filling from the stack if spilled.
    fn use32(&mut self, v: VReg, s: &mut Scratch) -> Result<Gpr, CompileError> {
        match self.loc(v)? {
            Loc::Gpr(r) => Ok(Gpr::new(r)),
            Loc::Pair(r) => Ok(Gpr::new(r)), // low half
            Loc::SpillB32(off) => {
                let t = s.take1()?;
                self.emit(
                    Guard::ALWAYS,
                    Op::Ld {
                        d: t,
                        width: MemWidth::B32,
                        addr: MemAddr::local(Gpr::SP, off as i32),
                        spill: true,
                    },
                );
                Ok(t)
            }
            _ => Err(CompileError::Internal("class mismatch for 32-bit use")),
        }
    }

    /// Resolves a 64-bit source vreg (returns the low register of the
    /// pair), filling from the stack if spilled.
    fn use64(&mut self, v: VReg, s: &mut Scratch) -> Result<Gpr, CompileError> {
        match self.loc(v)? {
            Loc::Pair(r) => Ok(Gpr::new(r)),
            Loc::SpillB64(off) => {
                let t = s.take_pair()?;
                self.emit(
                    Guard::ALWAYS,
                    Op::Ld {
                        d: t,
                        width: MemWidth::B64,
                        addr: MemAddr::local(Gpr::SP, off as i32),
                        spill: true,
                    },
                );
                Ok(t)
            }
            _ => Err(CompileError::Internal("class mismatch for 64-bit use")),
        }
    }

    fn use_src(&mut self, src: &VSrc, s: &mut Scratch) -> Result<Src, CompileError> {
        match src {
            VSrc::Imm(v) => Ok(Src::Imm(*v)),
            VSrc::Reg(r) => Ok(Src::Reg(self.use32(*r, s)?)),
        }
    }

    /// Resolves a 32-bit destination; returns the register to write and
    /// an optional spill store to append after the operation.
    fn def32(&mut self, v: VReg, s: &mut Scratch) -> Result<(Gpr, Option<u32>), CompileError> {
        match self.loc(v)? {
            Loc::Gpr(r) => Ok((Gpr::new(r), None)),
            Loc::SpillB32(off) => Ok((s.take1()?, Some(off))),
            _ => Err(CompileError::Internal("class mismatch for 32-bit def")),
        }
    }

    fn def64(&mut self, v: VReg, s: &mut Scratch) -> Result<(Gpr, Option<u32>), CompileError> {
        match self.loc(v)? {
            Loc::Pair(r) => Ok((Gpr::new(r), None)),
            Loc::SpillB64(off) => Ok((s.take_pair()?, Some(off))),
            _ => Err(CompileError::Internal("class mismatch for 64-bit def")),
        }
    }

    fn store_def32(&mut self, guard: Guard, reg: Gpr, slot: Option<u32>) {
        if let Some(off) = slot {
            self.emit(
                guard,
                Op::St {
                    v: reg,
                    width: MemWidth::B32,
                    addr: MemAddr::local(Gpr::SP, off as i32),
                    spill: true,
                },
            );
        }
    }

    fn store_def64(&mut self, guard: Guard, reg: Gpr, slot: Option<u32>) {
        if let Some(off) = slot {
            self.emit(
                guard,
                Op::St {
                    v: reg,
                    width: MemWidth::B64,
                    addr: MemAddr::local(Gpr::SP, off as i32),
                    spill: true,
                },
            );
        }
    }

    /// Resolves a memory operand to a machine [`MemAddr`].
    fn mem_addr(
        &mut self,
        space: AddrSpace,
        addr: &KAddr,
        s: &mut Scratch,
    ) -> Result<MemAddr, CompileError> {
        match (space, addr) {
            (AddrSpace::Local, KAddr::Frame { offset }) => Ok(MemAddr::local(Gpr::SP, *offset)),
            (AddrSpace::Local, KAddr::Reg { base, offset }) => {
                // Dynamic frame offset: local address = SP + base.
                let b = self.use32(*base, s)?;
                let t = s.take1()?;
                self.emit(
                    Guard::ALWAYS,
                    Op::IAdd {
                        d: t,
                        a: b,
                        b: Src::Reg(Gpr::SP),
                        x: false,
                        cc: false,
                    },
                );
                Ok(MemAddr::local(t, *offset))
            }
            (AddrSpace::Shared, KAddr::Reg { base, offset }) => {
                Ok(MemAddr::shared(self.use32(*base, s)?, *offset))
            }
            (AddrSpace::Global, KAddr::Reg { base, offset }) => {
                Ok(MemAddr::global(self.use64(*base, s)?, *offset))
            }
            (AddrSpace::Generic, KAddr::Reg { base, offset }) => {
                Ok(MemAddr::generic(self.use64(*base, s)?, *offset))
            }
            _ => Err(CompileError::Internal("invalid space/address combination")),
        }
    }

    fn lower_instr(&mut self, ins: &KInstr) -> Result<(), CompileError> {
        let g = self.guard(&ins.guard)?;
        let mut s = Scratch::new(self.alloc.scratch);
        match &ins.op {
            KOp::Imm32 { d, v } => {
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(g, Op::Mov32I { d: dr, imm: *v });
                self.store_def32(g, dr, slot);
            }
            KOp::Imm64 { d, v } => {
                let (dr, slot) = self.def64(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov32I {
                        d: dr,
                        imm: *v as u32,
                    },
                );
                self.emit(
                    g,
                    Op::Mov32I {
                        d: dr.pair_hi(),
                        imm: (*v >> 32) as u32,
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::Mov32 { d, a } => {
                let av = self.use_src(a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(g, Op::Mov { d: dr, a: av });
                self.store_def32(g, dr, slot);
            }
            KOp::Mov64 { d, a } => {
                let ar = self.use64(*a, &mut s)?;
                let (dr, slot) = self.def64(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Reg(ar),
                    },
                );
                self.emit(
                    g,
                    Op::Mov {
                        d: dr.pair_hi(),
                        a: Src::Reg(ar.pair_hi()),
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::Special { d, sr } => {
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(g, Op::S2R { d: dr, sr: *sr });
                self.store_def32(g, dr, slot);
            }
            KOp::LdConst32 { d, addr } => {
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Const(*addr),
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::LdConst64 { d, addr } => {
                let (dr, slot) = self.def64(*d, &mut s)?;
                let hi = CBankAddr::new(addr.bank, addr.offset + 4);
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Const(*addr),
                    },
                );
                self.emit(
                    g,
                    Op::Mov {
                        d: dr.pair_hi(),
                        a: Src::Const(hi),
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::AbiParam64 { d, idx } => {
                let src = Gpr::new(4 + 2 * idx);
                let (dr, slot) = self.def64(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Reg(src),
                    },
                );
                self.emit(
                    g,
                    Op::Mov {
                        d: dr.pair_hi(),
                        a: Src::Reg(src.pair_hi()),
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::IBin { op, d, a, b } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                let mop = match op {
                    IBinOp::Add => Op::IAdd {
                        d: dr,
                        a: ar,
                        b: bv,
                        x: false,
                        cc: false,
                    },
                    IBinOp::Sub => Op::ISub {
                        d: dr,
                        a: ar,
                        b: bv,
                    },
                    IBinOp::Mul => Op::IMul {
                        d: dr,
                        a: ar,
                        b: bv,
                        signed: true,
                        hi: false,
                    },
                    IBinOp::MulHiU => Op::IMul {
                        d: dr,
                        a: ar,
                        b: bv,
                        signed: false,
                        hi: true,
                    },
                    IBinOp::MinS => Op::IMnMx {
                        d: dr,
                        a: ar,
                        b: bv,
                        min: true,
                        signed: true,
                    },
                    IBinOp::MinU => Op::IMnMx {
                        d: dr,
                        a: ar,
                        b: bv,
                        min: true,
                        signed: false,
                    },
                    IBinOp::MaxS => Op::IMnMx {
                        d: dr,
                        a: ar,
                        b: bv,
                        min: false,
                        signed: true,
                    },
                    IBinOp::MaxU => Op::IMnMx {
                        d: dr,
                        a: ar,
                        b: bv,
                        min: false,
                        signed: false,
                    },
                    IBinOp::And => Op::Lop {
                        d: dr,
                        op: LogicOp::And,
                        a: ar,
                        b: bv,
                        inv_b: false,
                    },
                    IBinOp::Or => Op::Lop {
                        d: dr,
                        op: LogicOp::Or,
                        a: ar,
                        b: bv,
                        inv_b: false,
                    },
                    IBinOp::Xor => Op::Lop {
                        d: dr,
                        op: LogicOp::Xor,
                        a: ar,
                        b: bv,
                        inv_b: false,
                    },
                    IBinOp::Shl => Op::Shl {
                        d: dr,
                        a: ar,
                        b: bv,
                    },
                    IBinOp::ShrU => Op::Shr {
                        d: dr,
                        a: ar,
                        b: bv,
                        signed: false,
                    },
                    IBinOp::ShrS => Op::Shr {
                        d: dr,
                        a: ar,
                        b: bv,
                        signed: true,
                    },
                };
                self.emit(g, mop);
                self.store_def32(g, dr, slot);
            }
            KOp::IMad { d, a, b, c } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                let cr = self.use32(*c, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::IMad {
                        d: dr,
                        a: ar,
                        b: bv,
                        c: cr,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::IUn { op, d, a } => {
                let ar = self.use32(*a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                let mop = match op {
                    IUnOp::Popc => Op::Popc { d: dr, a: ar },
                    IUnOp::Flo => Op::Flo { d: dr, a: ar },
                    IUnOp::Brev => Op::Brev { d: dr, a: ar },
                };
                self.emit(g, mop);
                self.store_def32(g, dr, slot);
            }
            KOp::Sel { d, a, b, p, neg_p } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                let pr = self.pred(*p)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Sel {
                        d: dr,
                        a: ar,
                        b: bv,
                        p: pr,
                        neg_p: *neg_p,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::Add64 { d, a, b } => {
                let ar = self.use64(*a, &mut s)?;
                let br = self.use64(*b, &mut s)?;
                // Destination may alias `a` (component-wise safe).
                let (dr, slot) = match self.loc(*d)? {
                    Loc::Pair(r) => (Gpr::new(r), None),
                    Loc::SpillB64(off) => match s.take_pair() {
                        Ok(t) => (t, Some(off)),
                        Err(_) => (ar, Some(off)), // alias a's scratch pair
                    },
                    _ => return Err(CompileError::Internal("class mismatch add64")),
                };
                self.emit(
                    g,
                    Op::IAdd {
                        d: dr,
                        a: ar,
                        b: Src::Reg(br),
                        x: false,
                        cc: true,
                    },
                );
                self.emit(
                    g,
                    Op::IAdd {
                        d: dr.pair_hi(),
                        a: ar.pair_hi(),
                        b: Src::Reg(br.pair_hi()),
                        x: true,
                        cc: false,
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::Lea64 { d, a, b, shift } => {
                let ar = self.use64(*a, &mut s)?;
                let br = self.use32(*b, &mut s)?;
                let (dr, slot) = match self.loc(*d)? {
                    Loc::Pair(r) => (Gpr::new(r), None),
                    Loc::SpillB64(off) => match s.take_pair() {
                        Ok(t) => (t, Some(off)),
                        Err(_) => (ar, Some(off)), // alias a's pair; safe below
                    },
                    _ => return Err(CompileError::Internal("class mismatch lea64")),
                };
                if *shift == 0 {
                    self.emit(
                        g,
                        Op::IAdd {
                            d: dr,
                            a: ar,
                            b: Src::Reg(br),
                            x: false,
                            cc: true,
                        },
                    );
                } else {
                    // Shift into a temp that never aliases ar's components:
                    // reuse b's register when it is scratch, else grab one.
                    let t = if self.alloc.scratch.contains(&br.index()) {
                        br
                    } else {
                        s.take1().unwrap_or(br)
                    };
                    if t == br {
                        // In-place shift is fine only if br is dead after
                        // this op; conservatively require it to be scratch
                        // or fall back to dlo when distinct from sources.
                        if !self.alloc.scratch.contains(&br.index()) {
                            // dlo is guaranteed distinct from ar/br when the
                            // destination is a real pair (allocator rule).
                            self.emit(
                                g,
                                Op::Shl {
                                    d: dr,
                                    a: br,
                                    b: Src::Imm(*shift as u32),
                                },
                            );
                            self.emit(
                                g,
                                Op::IAdd {
                                    d: dr,
                                    a: ar,
                                    b: Src::Reg(dr),
                                    x: false,
                                    cc: true,
                                },
                            );
                            self.emit(
                                g,
                                Op::IAdd {
                                    d: dr.pair_hi(),
                                    a: ar.pair_hi(),
                                    b: Src::Reg(Gpr::RZ),
                                    x: true,
                                    cc: false,
                                },
                            );
                            self.store_def64(g, dr, slot);
                            return Ok(());
                        }
                        self.emit(
                            g,
                            Op::Shl {
                                d: t,
                                a: br,
                                b: Src::Imm(*shift as u32),
                            },
                        );
                    } else {
                        self.emit(
                            g,
                            Op::Shl {
                                d: t,
                                a: br,
                                b: Src::Imm(*shift as u32),
                            },
                        );
                    }
                    self.emit(
                        g,
                        Op::IAdd {
                            d: dr,
                            a: ar,
                            b: Src::Reg(t),
                            x: false,
                            cc: true,
                        },
                    );
                }
                self.emit(
                    g,
                    Op::IAdd {
                        d: dr.pair_hi(),
                        a: ar.pair_hi(),
                        b: Src::Reg(Gpr::RZ),
                        x: true,
                        cc: false,
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::Widen { d, a, signed } => {
                let ar = self.use32(*a, &mut s)?;
                let (dr, slot) = self.def64(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Reg(ar),
                    },
                );
                if *signed {
                    self.emit(
                        g,
                        Op::Shr {
                            d: dr.pair_hi(),
                            a: ar,
                            b: Src::Imm(31),
                            signed: true,
                        },
                    );
                } else {
                    self.emit(
                        g,
                        Op::Mov32I {
                            d: dr.pair_hi(),
                            imm: 0,
                        },
                    );
                }
                self.store_def64(g, dr, slot);
            }
            KOp::Pack64 { d, lo, hi } => {
                let lr = self.use32(*lo, &mut s)?;
                let hr = self.use32(*hi, &mut s)?;
                let (dr, slot) = self.def64(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Reg(lr),
                    },
                );
                self.emit(
                    g,
                    Op::Mov {
                        d: dr.pair_hi(),
                        a: Src::Reg(hr),
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::Lo32 { d, a } => {
                let ar = self.use64(*a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Reg(ar),
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::Hi32 { d, a } => {
                let ar = self.use64(*a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mov {
                        d: dr,
                        a: Src::Reg(ar.pair_hi()),
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::FBin { op, d, a, b } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                let mop = match op {
                    FBinOp::Add => Op::FAdd {
                        d: dr,
                        a: ar,
                        b: bv,
                        neg_a: false,
                        neg_b: false,
                    },
                    FBinOp::Sub => Op::FAdd {
                        d: dr,
                        a: ar,
                        b: bv,
                        neg_a: false,
                        neg_b: true,
                    },
                    FBinOp::Mul => Op::FMul {
                        d: dr,
                        a: ar,
                        b: bv,
                    },
                    FBinOp::Min => Op::FMnMx {
                        d: dr,
                        a: ar,
                        b: bv,
                        min: true,
                    },
                    FBinOp::Max => Op::FMnMx {
                        d: dr,
                        a: ar,
                        b: bv,
                        min: false,
                    },
                };
                self.emit(g, mop);
                self.store_def32(g, dr, slot);
            }
            KOp::FFma { d, a, b, c } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                let cr = self.use32(*c, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::FFma {
                        d: dr,
                        a: ar,
                        b: bv,
                        c: cr,
                        neg_b: false,
                        neg_c: false,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::Mufu { d, func, a } => {
                let ar = self.use32(*a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Mufu {
                        d: dr,
                        func: *func,
                        a: ar,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::I2F { d, a, .. } => {
                let ar = self.use32(*a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::I2F {
                        d: dr,
                        a: ar,
                        from: IntWidth::S32,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::F2I { d, a, .. } => {
                let ar = self.use32(*a, &mut s)?;
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::F2I {
                        d: dr,
                        a: ar,
                        to: IntWidth::S32,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::ISetP {
                p,
                cmp,
                signed,
                a,
                b,
            } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                let pr = self.pred(*p)?;
                self.emit(
                    g,
                    Op::ISetP {
                        p: pr,
                        cmp: *cmp,
                        a: ar,
                        b: bv,
                        signed: *signed,
                        combine: None,
                    },
                );
            }
            KOp::FSetP { p, cmp, a, b } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                let pr = self.pred(*p)?;
                self.emit(
                    g,
                    Op::FSetP {
                        p: pr,
                        cmp: *cmp,
                        a: ar,
                        b: bv,
                    },
                );
            }
            KOp::PBin {
                p,
                op,
                a,
                b,
                neg_a,
                neg_b,
            } => {
                let pr = self.pred(*p)?;
                let ar = self.pred(*a)?;
                let br = self.pred(*b)?;
                self.emit(
                    g,
                    Op::PSetP {
                        p: pr,
                        op: *op,
                        a: ar,
                        b: br,
                        neg_a: *neg_a,
                        neg_b: *neg_b,
                    },
                );
            }
            KOp::PImm { p, v } => {
                let pr = self.pred(*p)?;
                self.emit(
                    g,
                    Op::PSetP {
                        p: pr,
                        op: LogicOp::And,
                        a: PredReg::PT,
                        b: PredReg::PT,
                        neg_a: !*v,
                        neg_b: false,
                    },
                );
            }
            KOp::Ld {
                d,
                width,
                space,
                addr,
            } => {
                let maddr = self.mem_addr(*space, addr, &mut s)?;
                let (dr, slot) = if width.regs() == 2 {
                    self.def64(*d, &mut s)?
                } else {
                    self.def32(*d, &mut s)?
                };
                self.emit(
                    g,
                    Op::Ld {
                        d: dr,
                        width: *width,
                        addr: maddr,
                        spill: false,
                    },
                );
                if width.regs() == 2 {
                    self.store_def64(g, dr, slot);
                } else {
                    self.store_def32(g, dr, slot);
                }
            }
            KOp::St {
                v,
                width,
                space,
                addr,
            } => {
                let maddr = self.mem_addr(*space, addr, &mut s)?;
                let vr = if width.regs() == 2 {
                    self.use64(*v, &mut s)?
                } else {
                    self.use32(*v, &mut s)?
                };
                self.emit(
                    g,
                    Op::St {
                        v: vr,
                        width: *width,
                        addr: maddr,
                        spill: false,
                    },
                );
            }
            KOp::Tld {
                d,
                width,
                base,
                offset,
            } => {
                let br = self.use64(*base, &mut s)?;
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Tld {
                        d: dr,
                        width: *width,
                        addr: MemAddr::global(br, *offset),
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::Atom {
                d,
                op,
                wide,
                space,
                addr,
                v,
                v2,
            } => {
                let maddr = self.mem_addr(*space, addr, &mut s)?;
                let vr = if *wide {
                    self.use64(*v, &mut s)?
                } else {
                    self.use32(*v, &mut s)?
                };
                let v2r = match v2 {
                    Some(x) => Some(if *wide {
                        self.use64(*x, &mut s)?
                    } else {
                        self.use32(*x, &mut s)?
                    }),
                    None => None,
                };
                match d {
                    None => self.emit(
                        g,
                        Op::Red {
                            op: *op,
                            addr: maddr,
                            v: vr,
                            wide: *wide,
                        },
                    ),
                    Some(dv) => {
                        s.release_all(); // single instruction: dest may alias
                        let (dr, slot) = if *wide {
                            self.def64(*dv, &mut s)?
                        } else {
                            self.def32(*dv, &mut s)?
                        };
                        self.emit(
                            g,
                            Op::Atom {
                                d: dr,
                                op: *op,
                                addr: maddr,
                                v: vr,
                                v2: v2r,
                                wide: *wide,
                            },
                        );
                        if *wide {
                            self.store_def64(g, dr, slot);
                        } else {
                            self.store_def32(g, dr, slot);
                        }
                    }
                }
            }
            KOp::FrameAddrGeneric { d, offset } => {
                let (dr, slot) = self.def64(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Lop {
                        d: dr,
                        op: LogicOp::Or,
                        a: Gpr::SP,
                        b: Src::Const(CBankAddr::new(0, cbank0::LOCAL_WINDOW)),
                        inv_b: false,
                    },
                );
                if *offset != 0 {
                    self.emit(
                        g,
                        Op::IAdd {
                            d: dr,
                            a: dr,
                            b: Src::Imm(*offset as u32),
                            x: false,
                            cc: false,
                        },
                    );
                }
                self.emit(
                    g,
                    Op::Mov32I {
                        d: dr.pair_hi(),
                        imm: 0,
                    },
                );
                self.store_def64(g, dr, slot);
            }
            KOp::MemBar => self.emit(g, Op::MemBar),
            KOp::Vote {
                mode,
                d,
                p_out,
                src,
                neg_src,
            } => {
                let sp = self.pred(*src)?;
                let pout = match p_out {
                    Some(p) => Some(self.pred(*p)?),
                    None => None,
                };
                let (dr, slot) = match d {
                    Some(dv) => self.def32(*dv, &mut s)?,
                    None => (Gpr::RZ, None),
                };
                self.emit(
                    g,
                    Op::Vote {
                        mode: *mode,
                        d: dr,
                        p_out: pout,
                        src: sp,
                        neg_src: *neg_src,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::Shfl {
                mode,
                d,
                a,
                b,
                c_imm,
                p_out,
            } => {
                let ar = self.use32(*a, &mut s)?;
                let bv = self.use_src(b, &mut s)?;
                let pout = match p_out {
                    Some(p) => Some(self.pred(*p)?),
                    None => None,
                };
                s.release_all();
                let (dr, slot) = self.def32(*d, &mut s)?;
                self.emit(
                    g,
                    Op::Shfl {
                        mode: *mode,
                        d: dr,
                        a: ar,
                        b: bv,
                        c: Src::Imm(*c_imm),
                        p_out: pout,
                    },
                );
                self.store_def32(g, dr, slot);
            }
            KOp::Bar => {
                self.uses_barrier = true;
                self.emit(g, Op::BarSync);
            }
            KOp::Label { id } => {
                self.label_pos.insert(*id, self.out.len() as u32);
            }
            KOp::Bra { t } => {
                self.fixups.push((self.out.len(), *t));
                self.emit(
                    g,
                    Op::Bra {
                        target: Label::Pc(u32::MAX),
                        uniform: false,
                    },
                );
            }
            KOp::Ssy { t } => {
                self.fixups.push((self.out.len(), *t));
                self.emit(
                    g,
                    Op::Ssy {
                        target: Label::Pc(u32::MAX),
                    },
                );
            }
            KOp::Sync { reconv } => {
                self.sync_fixups.push((self.out.len(), *reconv));
                self.emit(g, Op::Sync);
            }
            KOp::Exit => self.emit(g, Op::Exit),
            KOp::Ret => {
                if self.frame_total > 0 {
                    self.emit(
                        Guard::ALWAYS,
                        Op::IAdd {
                            d: Gpr::SP,
                            a: Gpr::SP,
                            b: Src::Imm(self.frame_total),
                            x: false,
                            cc: false,
                        },
                    );
                }
                self.emit(g, Op::Ret);
            }
            KOp::Nop => self.emit(g, Op::Nop),
        }
        Ok(())
    }
}

/// Lowers an allocated function to SASS.
pub(crate) fn lower(f: &KFunction, alloc: &Allocation) -> Result<Function, CompileError> {
    let frame_total = (f.frame_bytes + alloc.spill_bytes + 7) & !7;
    let mut lw = Lowerer {
        alloc,
        out: Vec::new(),
        fixups: Vec::new(),
        sync_fixups: Vec::new(),
        label_pos: HashMap::new(),
        frame_total,
        uses_barrier: false,
    };

    if frame_total > 0 {
        lw.emit(
            Guard::ALWAYS,
            Op::IAdd {
                d: Gpr::SP,
                a: Gpr::SP,
                b: Src::Imm((frame_total as i32).wrapping_neg() as u32),
                x: false,
                cc: false,
            },
        );
    }

    for ins in &f.instrs {
        lw.lower_instr(ins)?;
    }

    // Labels may be placed at end-of-stream (loop exits right before the
    // implicit terminator); the builder always appends EXIT/RET last, so
    // every label position is a valid instruction index by now.
    let Lowerer {
        out,
        fixups,
        sync_fixups,
        label_pos,
        uses_barrier,
        ..
    } = lw;
    let mut out = out;
    for (pos, lbl) in fixups {
        let target = *label_pos
            .get(&lbl)
            .ok_or(CompileError::UnplacedLabel(lbl.0))?;
        match &mut out[pos].op {
            Op::Bra { target: t, .. } | Op::Ssy { target: t } => *t = Label::Pc(target),
            _ => return Err(CompileError::Internal("fixup target not a branch")),
        }
    }
    let mut sync_reconv = BTreeMap::new();
    for (pos, lbl) in sync_fixups {
        let target = *label_pos
            .get(&lbl)
            .ok_or(CompileError::UnplacedLabel(lbl.0))?;
        sync_reconv.insert(pos as u32, target);
    }

    let meta = FunctionMeta {
        sync_reconv,
        frame_bytes: frame_total,
        shared_bytes: f.shared_bytes,
        reg_high_water: alloc.reg_high_water,
        uses_barrier,
    };
    Ok(Function::new(f.name.clone(), out, meta))
}
