//! Link-time pre-decode: lowering a linked [`Module`](crate::Module)'s
//! `Vec<Instr>` into a flat, cache-friendly µop array the interpreter
//! executes without per-step allocation, cloning or operand
//! re-matching.
//!
//! The seed interpreter cloned a full [`Instr`] (nested `Src`/`Label`
//! enums) out of the module's code for every warp-instruction and
//! re-matched operand forms per lane. This module performs all of that
//! work once, at link time:
//!
//! * operand forms are resolved into the compact [`DSrc`] tagged enum
//!   (constant-bank reads collapse to a pre-offset bank-0 slot; reads
//!   of any other bank, which architecturally return zero, fold to an
//!   immediate 0);
//! * `Label::Pc` control targets become absolute `u32`s, validated
//!   once here instead of per execution — targets that would fault are
//!   lowered to [`UOp::Invalid`] so the fault (and only the fault)
//!   is deferred to execution, exactly as the un-decoded semantics
//!   demand;
//! * the guard predicate is packed into a one-byte header
//!   ([`DecodedInstr::guard`]) with a sentinel for the always-true
//!   guard, so unguarded instructions skip per-lane predicate reads;
//! * the ALU dependence latency and the [`IssueClass`] are
//!   precomputed into header bytes;
//! * maximal runs of local spills, fills and constant stores off one
//!   base register, a lone spill or fill included, are marked as
//!   *local spans* ([`DecodedInstr::span`]); a span is the only shape
//!   of local access the run loop executes as rows, one step per span,
//!   and every other local access runs lane by lane;
//! * instrumentation trap sites (`JCAL handlerN`) are recorded in a
//!   per-module site table sorted by pc, so SASSI's *selective
//!   instrumentation* property — uninstrumented instructions pay
//!   nothing — holds for the interpreter too, and tooling can query
//!   instrumentation density per function without rescanning
//!   instructions.
//!
//! The original `Instr` array stays on the [`Module`](crate::Module)
//! solely for traps, disassembly and error reporting.

use crate::stats::{FaultKind, IssueClass};
use crate::warp::group_reg;
use sassi_isa::{
    AddrSpace, AtomOp, CmpOp, Gpr, Instr, Label, LogicOp, MemAddr, MemWidth, MufuFunc, Op, PredReg,
    RegSet, ShflMode, SpecialReg, Src, VoteMode,
};

/// Guard byte sentinel: the statically-always-true guard (`@PT`).
pub const GUARD_ALWAYS: u8 = 0xFF;

/// Packs a guard into one byte: [`GUARD_ALWAYS`] for `@PT`, otherwise
/// bit 7 = complement, bits 0..2 = predicate register index. `@!PT`
/// keeps its per-lane encoding and evaluates to an empty mask, exactly
/// like the un-decoded guard loop.
fn encode_guard(ins: &Instr) -> u8 {
    if ins.guard.is_always() {
        GUARD_ALWAYS
    } else {
        ins.guard.pred.index() | if ins.guard.neg { 0x80 } else { 0 }
    }
}

/// A pre-resolved source operand.
///
/// `Const` operands are split at decode time: bank-0 reads keep their
/// byte offset (resolved against the launch's parameter image at
/// issue), reads of any other bank fold to `Imm(0)` — the value the
/// machine architecturally returns for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DSrc {
    /// A general-purpose register, read per lane.
    Reg(Gpr),
    /// A literal 32-bit value.
    Imm(u32),
    /// A bank-0 constant at this byte offset (warp-uniform).
    C0(u16),
}

fn dsrc(s: Src) -> DSrc {
    match s {
        Src::Reg(r) => DSrc::Reg(r),
        Src::Imm(v) => DSrc::Imm(v),
        Src::Const(c) => {
            if c.bank == 0 {
                DSrc::C0(c.offset)
            } else {
                DSrc::Imm(0)
            }
        }
    }
}

/// A control-transfer defect detected at decode time.
///
/// Invalid targets must *not* reject the module: an instruction that
/// is never executed must never fault. Decode therefore lowers the
/// defect into the µop and the executor raises the matching
/// [`FaultKind`] only if the instruction actually issues — the same
/// observable behaviour as validating per execution, without the
/// per-execution cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodedFault {
    /// A branch or SSY target that is not a `Pc` label after linking.
    BadLabel,
    /// A branch target beyond the end of the module's code space.
    FarBranch(u32),
    /// A call to a `Func` label that survived linking.
    UnlinkedCall,
}

impl DecodedFault {
    /// The fault the seed semantics raise for this defect when the
    /// instruction at `pc` issues.
    pub fn fault(self, pc: u32) -> FaultKind {
        match self {
            DecodedFault::BadLabel => FaultKind::InvalidPc { pc: u64::MAX },
            DecodedFault::FarBranch(t) => FaultKind::InvalidPc { pc: t as u64 },
            DecodedFault::UnlinkedCall => FaultKind::InvalidPc { pc: pc as u64 },
        }
    }
}

/// A pre-decoded operation. Mirrors [`Op`] with operand forms resolved
/// and semantically-identical variants merged (`MOV32I` → `Mov` of an
/// immediate, `TLD` → `Ld`, `RED` → `Atom` without destination).
///
/// Every variant is `Copy` and carries no heap data, so the hot loop
/// never allocates or clones.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // operand fields follow the `Op` conventions: d = dest, a/b/c = sources
pub enum UOp {
    // ---- control flow ----------------------------------------------------
    /// `SSY` with its reconvergence pc resolved.
    Ssy {
        reconv: u32,
    },
    Sync,
    /// `BRA` with a pre-validated absolute target.
    Bra {
        target: u32,
    },
    Exit,
    /// `JCAL` to a linked device function.
    Call {
        target: u32,
    },
    /// `JCAL` into a native instrumentation handler (a SASSI trap
    /// site). `site` indexes the module's decode-time site table
    /// ([`DecodedModule::sites`]), assigned in pc order.
    Trap {
        handler: u32,
        site: u32,
    },
    Ret,
    BarSync,
    MemBar,
    Nop,
    /// A decode-detected defect; faults if (and only if) executed.
    Invalid(DecodedFault),

    // ---- memory ----------------------------------------------------------
    Ld {
        d: Gpr,
        width: MemWidth,
        addr: MemAddr,
    },
    St {
        v: Gpr,
        width: MemWidth,
        addr: MemAddr,
    },
    Atom {
        d: Option<Gpr>,
        op: AtomOp,
        addr: MemAddr,
        v: Gpr,
        v2: Option<Gpr>,
        wide: bool,
    },

    // ---- warp-wide -------------------------------------------------------
    Vote {
        mode: VoteMode,
        d: Gpr,
        p_out: Option<PredReg>,
        src: PredReg,
        neg_src: bool,
    },
    Shfl {
        mode: ShflMode,
        d: Gpr,
        a: Gpr,
        b: DSrc,
        p_out: Option<PredReg>,
    },

    // ---- per-lane ALU ----------------------------------------------------
    Mov {
        d: Gpr,
        a: DSrc,
    },
    S2R {
        d: Gpr,
        sr: SpecialReg,
    },
    IAdd {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        x: bool,
        cc: bool,
    },
    ISub {
        d: Gpr,
        a: Gpr,
        b: DSrc,
    },
    IMul {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        signed: bool,
        hi: bool,
    },
    IMad {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        c: Gpr,
    },
    IScAdd {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        shift: u8,
    },
    IMnMx {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        min: bool,
        signed: bool,
    },
    Shl {
        d: Gpr,
        a: Gpr,
        b: DSrc,
    },
    Shr {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        signed: bool,
    },
    Lop {
        d: Gpr,
        op: LogicOp,
        a: Gpr,
        b: DSrc,
        inv_b: bool,
    },
    Popc {
        d: Gpr,
        a: Gpr,
    },
    Flo {
        d: Gpr,
        a: Gpr,
    },
    Brev {
        d: Gpr,
        a: Gpr,
    },
    Sel {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        p: PredReg,
        neg_p: bool,
    },
    FAdd {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        neg_a: bool,
        neg_b: bool,
    },
    FMul {
        d: Gpr,
        a: Gpr,
        b: DSrc,
    },
    FFma {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        c: Gpr,
        neg_b: bool,
        neg_c: bool,
    },
    FMnMx {
        d: Gpr,
        a: Gpr,
        b: DSrc,
        min: bool,
    },
    Mufu {
        d: Gpr,
        func: MufuFunc,
        a: Gpr,
    },
    I2F {
        d: Gpr,
        a: Gpr,
    },
    F2I {
        d: Gpr,
        a: Gpr,
    },
    ISetP {
        p: PredReg,
        cmp: CmpOp,
        a: Gpr,
        b: DSrc,
        signed: bool,
        combine: Option<(PredReg, bool)>,
    },
    FSetP {
        p: PredReg,
        cmp: CmpOp,
        a: Gpr,
        b: DSrc,
    },
    PSetP {
        p: PredReg,
        op: LogicOp,
        a: PredReg,
        b: PredReg,
        neg_a: bool,
        neg_b: bool,
    },
    P2R {
        d: Gpr,
    },
    R2P {
        a: Gpr,
    },
}

/// One pre-decoded instruction: a packed header plus the µop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecodedInstr {
    /// Packed guard byte (see [`GUARD_ALWAYS`]).
    pub guard: u8,
    /// Dependence latency for ALU-class µops (control and memory µops
    /// compute their own).
    pub lat: u8,
    /// Issue class for the per-class counters in `LaunchStats`.
    pub class: IssueClass,
    /// How many µops, this one included, remain of the local span this
    /// µop belongs to, or 0 if it belongs to none. A local span is a
    /// maximal run, under one guard and off one base register, of
    /// 32-, 64- or 128-bit local loads, or of such local stores and
    /// immediate moves, at 4-aligned offsets: a trampoline's spills,
    /// fills and parameter stores, or a lone spill or fill (a span of
    /// 1). The decoded run loop runs each span it reaches as one step,
    /// cut at the end of the run, if the base checks out at run time;
    /// a local access outside every span runs lane by lane.
    pub span: u8,
    /// The operation.
    pub uop: UOp,
}

impl DecodedInstr {
    /// Whether the instruction carries a non-trivial guard (what makes
    /// a control transfer *conditional* in the stats).
    pub fn is_guarded(&self) -> bool {
        self.guard != GUARD_ALWAYS
    }
}

/// One instrumentation trap site, resolved once at decode time.
///
/// Site indices are assigned in ascending pc order, so `sites[i].pc`
/// is sorted — [`DecodedModule::site_at`] and
/// [`DecodedModule::trap_sites_in`] binary-search it. Handler runtimes
/// receive this table via `HandlerRuntime::bind_sites` before a launch
/// issues any trap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrapSite {
    /// The absolute pc of the `JCAL handlerN` µop.
    pub pc: u32,
    /// The native handler id the site calls.
    pub handler: u32,
}

/// One maximal straight-line run of µops: pcs `start..end` with the
/// block's single (optional) block-ending µop at `end - 1`.
///
/// Blocks partition the module's pc space purely by *block-ending*
/// µops (see [`is_block_boundary`]): every control transfer or
/// barrier ends the block containing it, and the last instruction of
/// the module ends the final block. Branch *targets* do not split
/// blocks — a jump into the middle of a run simply executes the
/// remaining suffix, which is why the interpreter asks for the extent
/// *from the current pc* rather than from the block leader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// First pc of the block.
    pub start: u32,
    /// One past the last pc of the block.
    pub end: u32,
}

impl BasicBlock {
    /// Number of µops in the block (always ≥ 1).
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Blocks are never empty; this exists for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// What the µops of a local span from one pc on need checked before
/// they run as one step: the base register they all address through,
/// whether they store, and the byte range `[lo, hi)` their accesses
/// cover relative to that register's value. Only the decoded run loop
/// reads it, and only at a pc whose [`DecodedInstr::span`] is at least
/// 1.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LocalSpan {
    pub(crate) base: Gpr,
    pub(crate) store: bool,
    pub(crate) lo: i32,
    pub(crate) hi: i32,
}

/// The longest span one [`DecodedInstr::span`] byte records; a longer
/// run is split.
const MAX_SPAN: u8 = u8::MAX;

/// How a µop may join a local span: as a row-path-shaped local access
/// (see [`build_spans`]), or as an immediate move into `d`.
enum SpanMember {
    Access(LocalSpan),
    Imm(Gpr),
    None,
}

fn span_member(di: &DecodedInstr) -> SpanMember {
    let access = |store: bool, width: MemWidth, addr: MemAddr| {
        let words = match width {
            MemWidth::B32 | MemWidth::B64 | MemWidth::B128 => width.regs() as i32,
            _ => return SpanMember::None,
        };
        let hi = addr.offset.checked_add(4 * words);
        match hi {
            Some(hi) if addr.space == AddrSpace::Local && addr.offset % 4 == 0 => {
                SpanMember::Access(LocalSpan {
                    base: addr.base,
                    store,
                    lo: addr.offset,
                    hi,
                })
            }
            _ => SpanMember::None,
        }
    };
    match di.uop {
        UOp::St { width, addr, .. } => access(true, width, addr),
        // A load that writes its own base register would move the
        // span's addresses under it: it never joins one.
        UOp::Ld { d, width, addr } if !(0..width.regs()).any(|k| group_reg(d, k) == addr.base) => {
            access(false, width, addr)
        }
        UOp::Mov { d, a: DSrc::Imm(_) } => SpanMember::Imm(d),
        _ => SpanMember::None,
    }
}

/// Marks every maximal run of row-path-shaped local accesses that
/// share one direction, one base register and one guard, and returns
/// each pc's [`LocalSpan`]. A row-path-shaped access is a 32-, 64- or
/// 128-bit `Local` load or store at a 4-aligned static offset; a store
/// run also takes in `Mov`s of an immediate into any register but the
/// base (the constant half of a trampoline's `MOV32I`/`STL` pair). No
/// µop of a run writes its base or a predicate, so the base row and
/// the guard mask hold across the run. Anything else, a trap, a
/// branch or a write to the base included, ends the run. The scan runs
/// backwards so that each pc records the length and byte range of the
/// run from that pc on: a branch into the middle of a run runs the
/// suffix.
fn build_spans(code: &mut [DecodedInstr]) -> Vec<LocalSpan> {
    let none = LocalSpan {
        base: Gpr::RZ,
        store: false,
        lo: 0,
        hi: 0,
    };
    let mut spans = vec![none; code.len()];
    for pc in (0..code.len()).rev() {
        let guard = code[pc].guard;
        let next = code
            .get(pc + 1)
            .filter(|n| n.span != 0 && n.span < MAX_SPAN && n.guard == guard)
            .map(|n| (n.span, spans[pc + 1]));
        let (len, span) = match (span_member(&code[pc]), next) {
            (SpanMember::Access(a), Some((len, s))) if a.base == s.base && a.store == s.store => (
                len + 1,
                LocalSpan {
                    lo: a.lo.min(s.lo),
                    hi: a.hi.max(s.hi),
                    ..a
                },
            ),
            (SpanMember::Access(a), _) => (1, a),
            (SpanMember::Imm(d), Some((len, s))) if s.store && d != s.base => (len + 1, s),
            _ => continue,
        };
        code[pc].span = len;
        spans[pc] = span;
    }
    spans
}

/// Whether `uop` ends a basic block: any control transfer (`BRA`,
/// `SSY`, `SYNC`, `EXIT`, `JCAL` to a *function*, `RET`), the CTA
/// barrier (`BAR.SYNC`, which can suspend the warp), or a decode-time
/// defect (`Invalid`, a guaranteed fetch fault). Instrumentation
/// traps (`UOp::Trap`) deliberately do **not** end blocks: dispatch
/// is one indexed handler call and always resumes at `pc + 1`, so
/// straight-line runs flow through trap sites.
#[inline(always)]
pub fn is_block_boundary(uop: &UOp) -> bool {
    matches!(
        uop,
        UOp::Ssy { .. }
            | UOp::Sync
            | UOp::Bra { .. }
            | UOp::Exit
            | UOp::Call { .. }
            | UOp::Ret
            | UOp::BarSync
            | UOp::Invalid(_)
    )
}

/// The pre-decoded form of a linked module: the flat µop array, the
/// resolved trap-site table and the basic-block table.
#[derive(Clone, Debug)]
pub struct DecodedModule {
    code: Vec<DecodedInstr>,
    /// Trap sites in ascending pc order; `UOp::Trap::site` indexes this.
    sites: Vec<TrapSite>,
    /// Basic blocks in ascending pc order; a partition of `0..len()`.
    blocks: Vec<BasicBlock>,
    /// `block_idx[pc]` is the index into `blocks` of the block
    /// containing `pc`.
    block_idx: Vec<u32>,
    /// Whether any global/generic atomic *consumes* its old value
    /// (`ATOM` with a live destination, or any CAS/EXCH). See
    /// [`DecodedModule::has_consuming_global_atomics`].
    consuming_global_atomics: bool,
    /// One past the highest GPR any instruction names.
    regs_used: u32,
    /// Each pc's local span (see [`build_spans`]); meaningful where
    /// `code[pc].span != 0`.
    spans: Vec<LocalSpan>,
}

impl DecodedModule {
    /// Decodes every instruction of a linked module's flat code space.
    /// Never fails: defective instructions become [`UOp::Invalid`] and
    /// fault only if executed.
    pub fn decode(instrs: &[Instr]) -> DecodedModule {
        let n = instrs.len();
        let mut code = Vec::with_capacity(n);
        let mut sites = Vec::new();
        let mut consuming_global_atomics = false;
        let mut named = RegSet::new();
        for (pc, ins) in instrs.iter().enumerate() {
            let du = ins.defs_uses();
            named.union_with(&du.defs);
            named.union_with(&du.uses);
            let mut di = decode_instr(ins, n as u32);
            if let UOp::Trap { handler, site } = &mut di.uop {
                *site = sites.len() as u32;
                sites.push(TrapSite {
                    pc: pc as u32,
                    handler: *handler,
                });
            }
            if let UOp::Atom { d, op, addr, .. } = di.uop {
                let global = matches!(addr.space, AddrSpace::Global | AddrSpace::Generic);
                let consuming =
                    matches!(op, AtomOp::Cas | AtomOp::Exch) || d.is_some_and(|g| !g.is_rz());
                consuming_global_atomics |= global && consuming;
            }
            code.push(di);
        }
        let (blocks, block_idx) = build_blocks(&code);
        let spans = build_spans(&mut code);
        DecodedModule {
            code,
            sites,
            blocks,
            block_idx,
            consuming_global_atomics,
            regs_used: named.max_gpr().map_or(0, |r| r.index() as u32 + 1),
            spans,
        }
    }

    /// The local span from `pc` on and its first `n` µops, for a `pc`
    /// whose [`DecodedInstr::span`] is at least `n`.
    #[inline(always)]
    pub(crate) fn local_span(&self, pc: u32, n: u32) -> (&LocalSpan, &[DecodedInstr]) {
        let pc = pc as usize;
        (&self.spans[pc], &self.code[pc..pc + n as usize])
    }

    /// How many registers per thread the code needs: one past the
    /// highest GPR any instruction names, halves of pairs and quads
    /// included. A launch fails if the SM provisions fewer.
    pub fn regs_used(&self) -> u32 {
        self.regs_used
    }

    /// Whether the module contains a global (or generic) atomic whose
    /// old value can be observed by the program: an `ATOM` writing a
    /// live destination, or any CAS/EXCH. Such kernels see a total
    /// order over cross-CTA atomics, so CTA-parallel launches fall back
    /// to sequential shard execution. `RED`-style fire-and-forget
    /// reductions (destination-less or `RZ`) are commutative deltas and
    /// do not set this.
    pub fn has_consuming_global_atomics(&self) -> bool {
        self.consuming_global_atomics
    }

    /// The µop at `pc`, if in range.
    #[inline(always)]
    pub fn get(&self, pc: u32) -> Option<&DecodedInstr> {
        self.code.get(pc as usize)
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the module has no code.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Total instrumentation trap sites in the module.
    pub fn trap_count(&self) -> u32 {
        self.sites.len() as u32
    }

    /// The decode-time trap-site table, in ascending pc order.
    /// `UOp::Trap::site` indexes this table directly.
    pub fn sites(&self) -> &[TrapSite] {
        &self.sites
    }

    /// The site index of the trap at `pc`, if any — the lookup the
    /// reference interpreter uses (the decoded loop carries the index
    /// inside the µop instead).
    pub fn site_at(&self, pc: u32) -> Option<u32> {
        self.sites
            .binary_search_by_key(&pc, |s| s.pc)
            .ok()
            .map(|i| i as u32)
    }

    /// The basic-block table: a partition of `0..len()` in ascending
    /// pc order (see [`BasicBlock`]).
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Index into [`DecodedModule::blocks`] of the block containing
    /// `pc`, if `pc` is in range.
    pub fn block_index(&self, pc: u32) -> Option<u32> {
        self.block_idx.get(pc as usize).copied()
    }

    /// The block containing `pc`, if `pc` is in range.
    pub fn block_of(&self, pc: u32) -> Option<BasicBlock> {
        self.block_index(pc).map(|i| self.blocks[i as usize])
    }

    /// Exclusive end of the straight-line run containing `pc`: the
    /// interpreter may execute `pc..block_end(pc)` without re-picking
    /// a warp (the run's only possible control transfer sits at
    /// `block_end(pc) - 1`). Out-of-range pcs return `pc + 1` so the
    /// caller performs exactly one fetch, which faults precisely.
    #[inline(always)]
    pub fn block_end(&self, pc: u32) -> u32 {
        match self.block_idx.get(pc as usize) {
            Some(&i) => self.blocks[i as usize].end,
            None => pc.saturating_add(1),
        }
    }

    /// Trap sites within `[entry, end)` — pass a `LinkedFunction`'s
    /// range to get per-function instrumentation density.
    pub fn trap_sites_in(&self, entry: u32, end: u32) -> u32 {
        let lo = self.sites.partition_point(|s| s.pc < entry);
        let hi = self.sites.partition_point(|s| s.pc < end);
        hi.saturating_sub(lo) as u32
    }
}

/// Partitions the decoded code into basic blocks: a new block ends at
/// every block-ending µop ([`is_block_boundary`]) and at the end of
/// the module. Returns the block table plus the per-pc block index.
fn build_blocks(code: &[DecodedInstr]) -> (Vec<BasicBlock>, Vec<u32>) {
    let n = code.len();
    let mut blocks = Vec::new();
    let mut block_idx = vec![0u32; n];
    let mut start = 0usize;
    for pc in 0..n {
        if is_block_boundary(&code[pc].uop) || pc + 1 == n {
            let idx = blocks.len() as u32;
            blocks.push(BasicBlock {
                start: start as u32,
                end: pc as u32 + 1,
            });
            for slot in &mut block_idx[start..=pc] {
                *slot = idx;
            }
            start = pc + 1;
        }
    }
    (blocks, block_idx)
}

/// Lowers a branch-style target: `code_len` is the exclusive upper
/// bound a branch may name (branching *to* `code_len` is legal and
/// faults on the next fetch, matching the seed's `>` check).
fn bra_target(target: Label, code_len: u32) -> UOp {
    match target {
        Label::Pc(t) if t > code_len => UOp::Invalid(DecodedFault::FarBranch(t)),
        Label::Pc(t) => UOp::Bra { target: t },
        _ => UOp::Invalid(DecodedFault::BadLabel),
    }
}

fn decode_instr(ins: &Instr, code_len: u32) -> DecodedInstr {
    let uop = match &ins.op {
        // ---- control flow -----------------------------------------------
        // SSY performs no range check (the seed doesn't either): a wild
        // reconvergence pc faults at fetch time, not push time.
        Op::Ssy { target } => match target {
            Label::Pc(t) => UOp::Ssy { reconv: *t },
            _ => UOp::Invalid(DecodedFault::BadLabel),
        },
        Op::Sync => UOp::Sync,
        Op::Bra { target, .. } => bra_target(*target, code_len),
        Op::Exit => UOp::Exit,
        Op::Jcal { target } => match target {
            // Calls are not range-checked (seed parity): an
            // out-of-range callee faults on its first fetch.
            Label::Pc(t) => UOp::Call { target: *t },
            // The site index is assigned by the decode loop, which
            // knows the module-wide site ordinal.
            Label::Handler(h) => UOp::Trap {
                handler: *h,
                site: u32::MAX,
            },
            Label::Func(_) => UOp::Invalid(DecodedFault::UnlinkedCall),
        },
        Op::Ret => UOp::Ret,
        Op::BarSync => UOp::BarSync,
        Op::MemBar => UOp::MemBar,
        Op::Nop => UOp::Nop,

        // ---- memory ------------------------------------------------------
        Op::Ld { d, width, addr, .. } => UOp::Ld {
            d: *d,
            width: *width,
            addr: *addr,
        },
        Op::Tld { d, width, addr } => UOp::Ld {
            d: *d,
            width: *width,
            addr: *addr,
        },
        Op::St { v, width, addr, .. } => UOp::St {
            v: *v,
            width: *width,
            addr: *addr,
        },
        Op::Atom {
            d,
            op,
            addr,
            v,
            v2,
            wide,
        } => UOp::Atom {
            d: Some(*d),
            op: *op,
            addr: *addr,
            v: *v,
            v2: *v2,
            wide: *wide,
        },
        Op::Red { op, addr, v, wide } => UOp::Atom {
            d: None,
            op: *op,
            addr: *addr,
            v: *v,
            v2: None,
            wide: *wide,
        },

        // ---- warp-wide ---------------------------------------------------
        Op::Vote {
            mode,
            d,
            p_out,
            src,
            neg_src,
        } => UOp::Vote {
            mode: *mode,
            d: *d,
            p_out: *p_out,
            src: *src,
            neg_src: *neg_src,
        },
        Op::Shfl {
            mode,
            d,
            a,
            b,
            c: _,
            p_out,
        } => UOp::Shfl {
            mode: *mode,
            d: *d,
            a: *a,
            b: dsrc(*b),
            p_out: *p_out,
        },

        // ---- per-lane ALU ------------------------------------------------
        Op::Mov { d, a } => UOp::Mov { d: *d, a: dsrc(*a) },
        Op::Mov32I { d, imm } => UOp::Mov {
            d: *d,
            a: DSrc::Imm(*imm),
        },
        Op::S2R { d, sr } => UOp::S2R { d: *d, sr: *sr },
        Op::IAdd { d, a, b, x, cc } => UOp::IAdd {
            d: *d,
            a: *a,
            b: dsrc(*b),
            x: *x,
            cc: *cc,
        },
        Op::ISub { d, a, b } => UOp::ISub {
            d: *d,
            a: *a,
            b: dsrc(*b),
        },
        Op::IMul {
            d,
            a,
            b,
            signed,
            hi,
        } => UOp::IMul {
            d: *d,
            a: *a,
            b: dsrc(*b),
            signed: *signed,
            hi: *hi,
        },
        Op::IMad { d, a, b, c } => UOp::IMad {
            d: *d,
            a: *a,
            b: dsrc(*b),
            c: *c,
        },
        Op::IScAdd { d, a, b, shift } => UOp::IScAdd {
            d: *d,
            a: *a,
            b: dsrc(*b),
            shift: *shift,
        },
        Op::IMnMx {
            d,
            a,
            b,
            min,
            signed,
        } => UOp::IMnMx {
            d: *d,
            a: *a,
            b: dsrc(*b),
            min: *min,
            signed: *signed,
        },
        Op::Shl { d, a, b } => UOp::Shl {
            d: *d,
            a: *a,
            b: dsrc(*b),
        },
        Op::Shr { d, a, b, signed } => UOp::Shr {
            d: *d,
            a: *a,
            b: dsrc(*b),
            signed: *signed,
        },
        Op::Lop { d, op, a, b, inv_b } => UOp::Lop {
            d: *d,
            op: *op,
            a: *a,
            b: dsrc(*b),
            inv_b: *inv_b,
        },
        Op::Popc { d, a } => UOp::Popc { d: *d, a: *a },
        Op::Flo { d, a } => UOp::Flo { d: *d, a: *a },
        Op::Brev { d, a } => UOp::Brev { d: *d, a: *a },
        Op::Sel { d, a, b, p, neg_p } => UOp::Sel {
            d: *d,
            a: *a,
            b: dsrc(*b),
            p: *p,
            neg_p: *neg_p,
        },
        Op::FAdd {
            d,
            a,
            b,
            neg_a,
            neg_b,
        } => UOp::FAdd {
            d: *d,
            a: *a,
            b: dsrc(*b),
            neg_a: *neg_a,
            neg_b: *neg_b,
        },
        Op::FMul { d, a, b } => UOp::FMul {
            d: *d,
            a: *a,
            b: dsrc(*b),
        },
        Op::FFma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => UOp::FFma {
            d: *d,
            a: *a,
            b: dsrc(*b),
            c: *c,
            neg_b: *neg_b,
            neg_c: *neg_c,
        },
        Op::FMnMx { d, a, b, min } => UOp::FMnMx {
            d: *d,
            a: *a,
            b: dsrc(*b),
            min: *min,
        },
        Op::Mufu { d, func, a } => UOp::Mufu {
            d: *d,
            func: *func,
            a: *a,
        },
        Op::I2F { d, a, .. } => UOp::I2F { d: *d, a: *a },
        Op::F2I { d, a, .. } => UOp::F2I { d: *d, a: *a },
        Op::ISetP {
            p,
            cmp,
            a,
            b,
            signed,
            combine,
        } => UOp::ISetP {
            p: *p,
            cmp: *cmp,
            a: *a,
            b: dsrc(*b),
            signed: *signed,
            combine: *combine,
        },
        Op::FSetP { p, cmp, a, b } => UOp::FSetP {
            p: *p,
            cmp: *cmp,
            a: *a,
            b: dsrc(*b),
        },
        Op::PSetP {
            p,
            op,
            a,
            b,
            neg_a,
            neg_b,
        } => UOp::PSetP {
            p: *p,
            op: *op,
            a: *a,
            b: *b,
            neg_a: *neg_a,
            neg_b: *neg_b,
        },
        Op::P2R { d } => UOp::P2R { d: *d },
        Op::R2P { a } => UOp::R2P { a: *a },
    };
    let lat = match &ins.op {
        Op::Mufu { .. } | Op::MemBar => 8,
        Op::IMul { .. } | Op::IMad { .. } | Op::I2F { .. } | Op::F2I { .. } => 4,
        _ => 2,
    };
    DecodedInstr {
        guard: encode_guard(ins),
        lat,
        class: IssueClass::of(&ins.class()),
        span: 0,
        uop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;
    use sassi_isa::{CBankAddr, Guard};

    fn module_of(instrs: Vec<Instr>) -> Module {
        use sassi_isa::{Function, FunctionMeta};
        Module::link(&[Function::new("k", instrs, FunctionMeta::default())]).unwrap()
    }

    #[test]
    fn guard_packing() {
        let always = Instr::new(Op::Nop);
        assert_eq!(encode_guard(&always), GUARD_ALWAYS);
        let pos = Instr::guarded(Guard::on(PredReg::new(3)), Op::Nop);
        assert_eq!(encode_guard(&pos), 3);
        let neg = Instr::guarded(Guard::not(PredReg::new(5)), Op::Nop);
        assert_eq!(encode_guard(&neg), 0x85);
        // @!PT keeps its encoding: evaluates per lane to an empty mask.
        let never = Instr::guarded(Guard::not(PredReg::PT), Op::Nop);
        assert_eq!(encode_guard(&never), 0x87);
    }

    #[test]
    fn const_operands_pre_resolved() {
        assert_eq!(
            dsrc(Src::Const(CBankAddr { bank: 0, offset: 8 })),
            DSrc::C0(8)
        );
        // Non-bank-0 constants architecturally read zero.
        assert_eq!(
            dsrc(Src::Const(CBankAddr { bank: 3, offset: 8 })),
            DSrc::Imm(0)
        );
        assert_eq!(dsrc(Src::Imm(7)), DSrc::Imm(7));
        assert_eq!(dsrc(Src::Reg(Gpr::new(2))), DSrc::Reg(Gpr::new(2)));
    }

    #[test]
    fn branch_targets_validated_once() {
        assert_eq!(bra_target(Label::Pc(3), 10), UOp::Bra { target: 3 });
        // Branching to exactly code_len is legal (faults at next fetch).
        assert_eq!(bra_target(Label::Pc(10), 10), UOp::Bra { target: 10 });
        assert_eq!(
            bra_target(Label::Pc(11), 10),
            UOp::Invalid(DecodedFault::FarBranch(11))
        );
        assert_eq!(
            bra_target(Label::Func(0), 10),
            UOp::Invalid(DecodedFault::BadLabel)
        );
    }

    #[test]
    fn decoded_fault_kinds_match_seed() {
        assert_eq!(
            DecodedFault::BadLabel.fault(4),
            FaultKind::InvalidPc { pc: u64::MAX }
        );
        assert_eq!(
            DecodedFault::FarBranch(99).fault(4),
            FaultKind::InvalidPc { pc: 99 }
        );
        assert_eq!(
            DecodedFault::UnlinkedCall.fault(4),
            FaultKind::InvalidPc { pc: 4 }
        );
    }

    #[test]
    fn variant_merging() {
        let m = module_of(vec![
            Instr::new(Op::Mov32I {
                d: Gpr::new(0),
                imm: 42,
            }),
            Instr::new(Op::Red {
                op: AtomOp::Add,
                addr: MemAddr::global(Gpr::new(4), 0),
                v: Gpr::new(6),
                wide: false,
            }),
            Instr::new(Op::Tld {
                d: Gpr::new(0),
                width: MemWidth::B32,
                addr: MemAddr::global(Gpr::new(4), 0),
            }),
            Instr::new(Op::Exit),
        ]);
        let d = m.decoded();
        assert_eq!(
            d.get(0).unwrap().uop,
            UOp::Mov {
                d: Gpr::new(0),
                a: DSrc::Imm(42)
            }
        );
        assert!(matches!(d.get(1).unwrap().uop, UOp::Atom { d: None, .. }));
        assert!(matches!(d.get(2).unwrap().uop, UOp::Ld { .. }));
    }

    #[test]
    fn trap_site_table_marks_handler_calls() {
        let m = module_of(vec![
            Instr::new(Op::Nop),
            Instr::new(Op::Jcal {
                target: Label::Handler(7),
            }),
            Instr::new(Op::Nop),
            Instr::new(Op::Jcal {
                target: Label::Handler(2),
            }),
            Instr::new(Op::Exit),
        ]);
        let d = m.decoded();
        assert_eq!(d.trap_count(), 2);
        assert_eq!(
            d.sites(),
            [
                TrapSite { pc: 1, handler: 7 },
                TrapSite { pc: 3, handler: 2 }
            ]
        );
        assert_eq!(d.site_at(0), None);
        assert_eq!(d.site_at(1), Some(0));
        assert_eq!(d.site_at(3), Some(1));
        assert_eq!(d.site_at(4), None);
        assert_eq!(d.site_at(1000), None);
        assert_eq!(d.trap_sites_in(0, 5), 2);
        assert_eq!(d.trap_sites_in(2, 5), 1);
        assert_eq!(d.trap_sites_in(0, 1), 0);
        assert_eq!(d.trap_sites_in(4, 2), 0);
        assert_eq!(d.trap_sites_in(0, 1000), 2);
    }

    #[test]
    fn block_table_partitions_by_control_transfers_only() {
        let m = module_of(vec![
            Instr::new(Op::Nop), // 0
            Instr::new(Op::Jcal {
                target: Label::Handler(1),
            }), // 1: trap, NOT a boundary
            Instr::new(Op::MemBar), // 2: not a boundary
            Instr::new(Op::Bra {
                target: Label::Pc(0),
                uniform: false,
            }), // 3: ends block 0
            Instr::new(Op::Nop), // 4
            Instr::new(Op::BarSync), // 5: ends block 1
            Instr::new(Op::Exit), // 6: ends block 2
        ]);
        let d = m.decoded();
        assert_eq!(
            d.blocks(),
            &[
                BasicBlock { start: 0, end: 4 },
                BasicBlock { start: 4, end: 6 },
                BasicBlock { start: 6, end: 7 },
            ]
        );
        // Every pc maps to exactly one block and extents answer from
        // mid-block pcs, not just leaders.
        assert_eq!(d.block_index(0), Some(0));
        assert_eq!(d.block_index(2), Some(0));
        assert_eq!(d.block_index(3), Some(0));
        assert_eq!(d.block_index(4), Some(1));
        assert_eq!(d.block_index(6), Some(2));
        assert_eq!(d.block_end(2), 4);
        assert_eq!(d.block_end(4), 6);
        assert_eq!(d.block_of(5), Some(BasicBlock { start: 4, end: 6 }));
        // Out of range: one fetch (which faults precisely).
        assert_eq!(d.block_index(7), None);
        assert_eq!(d.block_end(7), 8);
        assert_eq!(d.block_end(u32::MAX), u32::MAX);
    }

    #[test]
    fn block_boundary_classification() {
        assert!(is_block_boundary(&UOp::Sync));
        assert!(is_block_boundary(&UOp::Ssy { reconv: 3 }));
        assert!(is_block_boundary(&UOp::Bra { target: 0 }));
        assert!(is_block_boundary(&UOp::Exit));
        assert!(is_block_boundary(&UOp::Call { target: 0 }));
        assert!(is_block_boundary(&UOp::Ret));
        assert!(is_block_boundary(&UOp::BarSync));
        assert!(is_block_boundary(&UOp::Invalid(DecodedFault::BadLabel)));
        // Traps resume at pc + 1, so straight-line runs flow through.
        assert!(!is_block_boundary(&UOp::Trap {
            handler: 0,
            site: 0
        }));
        assert!(!is_block_boundary(&UOp::MemBar));
        assert!(!is_block_boundary(&UOp::Nop));
    }

    /// The µop at `pc` and the length of the local span from it.
    fn span_of(d: &DecodedModule, pc: usize) -> (UOp, u8) {
        let di = d.get(pc as u32).unwrap();
        (di.uop, di.span)
    }

    /// The trampoline SASSI inserts after an injection candidate (an
    /// `After` site under a `REG_WRITES` filter, with `REGISTERS`
    /// info), decoded: its spills, the destination value it records and
    /// the register-parameter `MOV32I`/`STL` pairs form one span; the
    /// carry-flag save and the six before-parameter pairs another; the
    /// fills a third. No span holds a trap, a branch or a stack-pointer
    /// update.
    #[test]
    fn injection_trampoline_spans() {
        use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
        use sassi_isa::{Function, FunctionMeta};
        let r = Gpr::new;
        let iadd = |d, a, b| {
            Instr::new(Op::IAdd {
                d,
                a,
                b: Src::Reg(b),
                x: false,
                cc: false,
            })
        };
        // R2, R6 and R8:R9 are live after the first IADD, the site.
        let func = Function::new(
            "k",
            vec![
                iadd(r(2), r(3), r(4)),
                iadd(r(5), r(2), r(6)),
                Instr::new(Op::St {
                    v: r(5),
                    width: MemWidth::B32,
                    addr: MemAddr::global(r(8), 0),
                    spill: false,
                }),
                Instr::new(Op::Exit),
            ],
            FunctionMeta::default(),
        );
        let mut sassi = Sassi::new();
        sassi.on_after(
            SiteFilter::REG_WRITES,
            InfoFlags::REGISTERS,
            Box::new(FnHandler::free(|_| {})),
        );
        let instrs = sassi.apply(&func, 0).instrs;
        let d = DecodedModule::decode(&instrs);
        let uops: Vec<UOp> = (0..d.len()).map(|pc| span_of(&d, pc).0).collect();
        let sp_add =
            |u: &UOp| matches!(u, UOp::IAdd { d, a, .. } if *d == Gpr::SP && *a == Gpr::SP);
        let find =
            |from: usize, f: &dyn Fn(&UOp) -> bool| from + uops[from..].iter().position(f).unwrap();

        // The first trampoline: site at 0, push at 1.
        let push = find(0, &sp_add);
        assert_eq!(push, 1);
        let p2r = find(push, &|u| matches!(u, UOp::P2R { .. }));
        let save = push + 1..p2r;
        // Four spills, one destination value, four parameter pairs.
        let stores = save
            .clone()
            .filter(|&pc| matches!(uops[pc], UOp::St { .. }))
            .count();
        let movs = save
            .clone()
            .filter(|&pc| matches!(uops[pc], UOp::Mov { .. }))
            .count();
        assert_eq!((stores, movs), (4 + 1 + 4, 4), "{:?}", &uops[save.clone()]);
        for pc in save.clone() {
            assert_eq!(
                span_of(&d, pc).1 as usize,
                p2r - pc,
                "save span from pc {pc}"
            );
        }
        // The predicate save stands alone: a carry read follows it.
        assert_eq!(span_of(&d, p2r + 1).1, 1);
        assert!(matches!(uops[p2r + 2], UOp::IAdd { x: true, .. }));
        // The carry-flag save and the six before-parameter pairs.
        let cc = p2r + 3;
        assert!(matches!(uops[cc], UOp::St { .. }));
        assert_eq!(span_of(&d, cc).1, 13);
        assert!(matches!(uops[cc + 13], UOp::Lop { .. }));

        let trap = find(push, &|u| matches!(u, UOp::Trap { .. }));
        let pop = find(trap, &sp_add);
        let r2p = find(trap, &|u| matches!(u, UOp::R2P { .. }));
        // The carry and predicate fills stand alone; the four register
        // fills are one span.
        assert_eq!(span_of(&d, trap + 1).1, 1);
        assert_eq!(span_of(&d, trap + 3).1, 1);
        assert_eq!(pop - r2p - 1, 4);
        for pc in r2p + 1..pop {
            assert!(matches!(span_of(&d, pc).0, UOp::Ld { .. }));
            assert_eq!(
                span_of(&d, pc).1 as usize,
                pop - pc,
                "fill span from pc {pc}"
            );
        }

        // Every span of the module, both trampolines', holds only local
        // accesses and immediate moves.
        let mut marked = 0;
        for pc in 0..d.len() {
            let len = span_of(&d, pc).1 as usize;
            marked += (len > 0) as usize;
            for u in &uops[pc..pc + len] {
                assert!(
                    matches!(
                        u,
                        UOp::St { .. }
                            | UOp::Ld { .. }
                            | UOp::Mov {
                                a: DSrc::Imm(_),
                                ..
                            }
                    ),
                    "{u:?} in the span at pc {pc}"
                );
                assert!(!sp_add(u) && !is_block_boundary(u));
            }
        }
        assert!(marked > 2 * (save.len() + 13 + 4));
    }

    /// A `Mov` into the base ends a span; a load into its own base,
    /// through either word of a pair, is never marked.
    #[test]
    fn writes_to_the_base_end_spans() {
        let r = Gpr::new;
        let stl = |v: u8, off| {
            Instr::new(Op::St {
                v: r(v),
                width: MemWidth::B32,
                addr: MemAddr::local(Gpr::SP, off),
                spill: true,
            })
        };
        let ldl = |d: u8, width, off| {
            Instr::new(Op::Ld {
                d: r(d),
                width,
                addr: MemAddr::local(Gpr::SP, off),
                spill: true,
            })
        };
        let mov = |d: Gpr| Instr::new(Op::Mov32I { d, imm: 64 });
        let m = module_of(vec![
            stl(2, 0),
            mov(r(3)),
            stl(3, 4),
            mov(Gpr::SP),
            stl(4, 8),
            ldl(5, MemWidth::B32, 0),
            ldl(1, MemWidth::B32, 4),
            ldl(6, MemWidth::B32, 8),
            ldl(0, MemWidth::B64, 8),
            ldl(7, MemWidth::B32, 12),
            ldl(8, MemWidth::B32, 2),
            Instr::new(Op::Exit),
        ]);
        let d = m.decoded();
        let spans: Vec<u8> = (0..d.len()).map(|pc| span_of(d, pc).1).collect();
        // The move into a staging register joins; the one into SP ends
        // the run before it and joins nothing; the load into R1, and
        // the pair load R0:R1, are never marked, nor is the unaligned
        // load.
        assert_eq!(spans, [3, 2, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0]);
        let (s, code) = d.local_span(0, 3);
        assert_eq!(
            (s.base, s.store, s.lo, s.hi, code.len()),
            (Gpr::SP, true, 0, 8, 3)
        );
    }

    #[test]
    fn latency_precomputed() {
        let m = module_of(vec![
            Instr::new(Op::Mufu {
                d: Gpr::new(0),
                func: MufuFunc::Rcp,
                a: Gpr::new(1),
            }),
            Instr::new(Op::IMad {
                d: Gpr::new(0),
                a: Gpr::new(1),
                b: Src::Imm(3),
                c: Gpr::new(2),
            }),
            Instr::new(Op::IAdd {
                d: Gpr::new(0),
                a: Gpr::new(1),
                b: Src::Imm(3),
                x: false,
                cc: false,
            }),
            Instr::new(Op::Exit),
        ]);
        let d = m.decoded();
        assert_eq!(d.get(0).unwrap().lat, 8);
        assert_eq!(d.get(1).unwrap().lat, 4);
        assert_eq!(d.get(2).unwrap().lat, 2);
    }
}
