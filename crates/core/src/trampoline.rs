//! ABI-compliant trampoline generation — the code SASSI injects at each
//! instrumentation site (paper Figure 2(a)).
//!
//! For every site the trampoline, in simulated SASS:
//!
//! 1. extends the thread's stack (`IADD R1, R1, -frame`);
//! 2. saves the live caller-saved GPRs (the intersection of the
//!    compiler's liveness with the handler-clobberable set `R0..R15`),
//!    all predicates (`P2R`) and the carry flag into the
//!    `SASSIBeforeParams` spill area — *liveness-driven minimal
//!    spilling*, the advantage of running inside the backend compiler;
//! 3. initializes the parameter object(s): site id, `instrWillExecute`
//!    (the guard evaluated per lane), function address, instruction
//!    offset and static encoding, plus the requested extra object
//!    (memory address / branch direction / destination registers);
//! 4. materializes generic pointers to the stack objects in the ABI
//!    parameter registers R4:R5 and R6:R7
//!    (`LOP.OR R4, R1, c[0x0][0x24]`);
//! 5. calls the handler (`JCAL`);
//! 6. restores CC, predicates and the saved GPRs, and pops the stack.
//!
//! The sequence never alters the original instruction — SASSI leaves
//! the compiled kernel untouched (paper §3.2).

use crate::params::layout;
use crate::spec::{HandlerRef, InfoFlags, SpillPolicy};
use sassi_isa::{
    cbank0, AddrSpace, CBankAddr, Gpr, Instr, Label, LogicOp, MemAddr, MemWidth, Op, RegSet, Src,
};

/// Everything the generator needs to know about one site.
pub(crate) struct Site<'a> {
    /// The original instruction at the site.
    pub ins: &'a Instr,
    /// Its offset within the (pre-instrumentation) function.
    pub pc: u32,
    /// The function's base address (unique per function).
    pub fn_addr: u32,
    /// Site id within the function.
    pub site_id: u32,
    /// Registers live at the instrumentation point.
    pub live: &'a RegSet,
    /// Spill-set selection policy.
    pub policy: SpillPolicy,
    /// Extra parameter object to build.
    pub what: InfoFlags,
    /// The handler to call.
    pub handler: HandlerRef,
}

/// The GPRs a trampoline saves at a site where `live` is live: the
/// live ∩ clobberable set under the liveness policy, or the whole
/// clobberable set under the binary-rewriter baseline. The clobberable
/// set is R0 and R2..R15: R1 is the stack pointer, preserved by the
/// ABI, and handlers are compiled under the 16-register cap so R16+ is
/// never touched.
pub(crate) fn saved_gprs(live: &RegSet, policy: SpillPolicy) -> RegSet {
    let clobberable: RegSet = (0u8..16).filter(|r| *r != 1).map(Gpr::new).collect();
    match policy {
        SpillPolicy::Liveness => live.intersection(&clobberable),
        SpillPolicy::SaveEverything => clobberable,
    }
}

fn frame_bytes(what: InfoFlags) -> i32 {
    let extra = if what.contains(InfoFlags::REGISTERS) {
        layout::REG_SIZE
    } else if what.contains(InfoFlags::MEMORY) {
        layout::MEM_SIZE
    } else if what.contains(InfoFlags::COND_BRANCH) {
        layout::BR_SIZE
    } else {
        0
    };
    layout::BEFORE_SIZE + extra
}

struct Emitter<'a> {
    out: &'a mut Vec<Instr>,
}

impl Emitter<'_> {
    fn push(&mut self, op: Op) {
        self.out.push(Instr::new(op));
    }

    fn mov_imm(&mut self, d: Gpr, v: u32) {
        self.push(Op::Mov32I { d, imm: v });
    }

    fn stl(&mut self, off: i32, v: Gpr) {
        self.push(Op::St {
            v,
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, off),
            spill: false,
        });
    }

    fn stl_spill(&mut self, off: i32, v: Gpr) {
        self.push(Op::St {
            v,
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, off),
            spill: true,
        });
    }

    fn ldl_spill(&mut self, d: Gpr, off: i32) {
        self.push(Op::Ld {
            d,
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, off),
            spill: true,
        });
    }

    /// Stores a computed 32-bit value at a frame offset via a staging
    /// register.
    fn store_imm(&mut self, staging: Gpr, off: i32, v: u32) {
        self.mov_imm(staging, v);
        self.stl(off, staging);
    }
}

/// Emits the trampoline for `site` into `out`. For `Before` sites the
/// caller appends the original instruction afterwards; for `After`
/// sites the caller emits the original instruction first.
pub(crate) fn emit(out: &mut Vec<Instr>, site: &Site<'_>) {
    let frame = frame_bytes(site.what);
    let r3 = Gpr::new(3);
    let r4 = Gpr::new(4);
    let r5 = Gpr::new(5);
    let r6 = Gpr::new(6);
    let r7 = Gpr::new(7);
    let r8 = Gpr::new(8);
    let mut e = Emitter { out };

    // 1. Stack allocation.
    e.push(Op::IAdd {
        d: Gpr::SP,
        a: Gpr::SP,
        b: Src::Imm((-frame) as u32),
        x: false,
        cc: false,
    });

    // 2a. Save GPRs into the spill area.
    let spilled = saved_gprs(site.live, site.policy);
    for r in spilled.iter_gprs() {
        e.stl_spill(layout::GPR_SPILL + 4 * r.index() as i32, r);
    }

    // 3a. Extra parameter object (built before anything clobbers
    //     registers or CC: it reads original operand registers).
    match extra_kind(site.what) {
        Extra::Memory => emit_memory_params(&mut e, site, frame, r6, r7, r8),
        Extra::Branch => emit_branch_params(&mut e, site, r6, r8),
        Extra::Registers => emit_register_params(&mut e, site, r6),
        Extra::None => {}
    }

    // 2b. Save predicates and the carry flag.
    e.push(Op::P2R { d: r3 });
    e.stl(layout::PR_SPILL, r3);
    e.push(Op::IAdd {
        d: r3,
        a: Gpr::RZ,
        b: Src::Reg(Gpr::RZ),
        x: true,
        cc: false,
    });
    e.stl(layout::CC_SPILL, r3);

    // 3b. SASSIBeforeParams fields.
    e.store_imm(r3, layout::ID, site.site_id);
    if site.ins.guard.is_always() {
        e.store_imm(r3, layout::WILL_EXECUTE, 1);
    } else {
        e.mov_imm(r8, 1);
        e.push(Op::Sel {
            d: r3,
            a: r8,
            b: Src::Imm(0),
            p: site.ins.guard.pred,
            neg_p: site.ins.guard.neg,
        });
        e.stl(layout::WILL_EXECUTE, r3);
    }
    e.store_imm(r3, layout::FN_ADDR, site.fn_addr);
    e.store_imm(r3, layout::INS_OFFSET, site.pc);
    e.store_imm(r3, layout::INS_ENCODING, site.ins.encode_static());
    let live_mask: u32 = saved_gprs(site.live, SpillPolicy::Liveness)
        .iter_gprs()
        .map(|r| 1u32 << r.index())
        .sum();
    e.store_imm(r3, layout::LIVE_MASK, live_mask);

    // 4. ABI parameter pointers: R4:R5 → bp, R6:R7 → extra object.
    let local_window = Src::Const(CBankAddr::new(0, cbank0::LOCAL_WINDOW));
    e.push(Op::Lop {
        d: r4,
        op: LogicOp::Or,
        a: Gpr::SP,
        b: local_window,
        inv_b: false,
    });
    e.mov_imm(r5, 0);
    if extra_kind(site.what) != Extra::None {
        e.push(Op::Lop {
            d: r6,
            op: LogicOp::Or,
            a: Gpr::SP,
            b: local_window,
            inv_b: false,
        });
        e.push(Op::IAdd {
            d: r6,
            a: r6,
            b: Src::Imm(layout::BEFORE_SIZE as u32),
            x: false,
            cc: false,
        });
        e.mov_imm(r7, 0);
    } else {
        e.push(Op::Mov {
            d: r6,
            a: Src::Reg(Gpr::RZ),
        });
        e.push(Op::Mov {
            d: r7,
            a: Src::Reg(Gpr::RZ),
        });
    }

    // 5. The call.
    let target = match site.handler {
        HandlerRef::Native(id) => Label::Handler(id),
        HandlerRef::Sass(f) => Label::Func(f),
    };
    e.push(Op::Jcal { target });

    // 6. Restores: CC first (needs a scratch), then predicates, then
    //    GPRs (so the scratch's own value is reloaded last).
    e.ldl_spill(r3, layout::CC_SPILL);
    e.push(Op::IAdd {
        d: Gpr::RZ,
        a: r3,
        b: Src::Imm(u32::MAX),
        x: false,
        cc: true,
    });
    e.ldl_spill(r3, layout::PR_SPILL);
    e.push(Op::R2P { a: r3 });
    for r in spilled.iter_gprs() {
        e.ldl_spill(r, layout::GPR_SPILL + 4 * r.index() as i32);
    }
    e.push(Op::IAdd {
        d: Gpr::SP,
        a: Gpr::SP,
        b: Src::Imm(frame as u32),
        x: false,
        cc: false,
    });
}

#[derive(PartialEq, Eq)]
enum Extra {
    None,
    Memory,
    Branch,
    Registers,
}

fn extra_kind(what: InfoFlags) -> Extra {
    if what.contains(InfoFlags::REGISTERS) {
        Extra::Registers
    } else if what.contains(InfoFlags::MEMORY) {
        Extra::Memory
    } else if what.contains(InfoFlags::COND_BRANCH) {
        Extra::Branch
    } else {
        Extra::None
    }
}

/// Builds `SASSIMemoryParams`: the effective generic address of the
/// access, its properties, width and domain.
///
/// The low-word address add intentionally does not propagate a carry
/// into the high word: it must not disturb CC before CC is saved, and
/// device allocations never straddle a 4 GiB boundary.
fn emit_memory_params(e: &mut Emitter<'_>, site: &Site<'_>, frame: i32, r6: Gpr, r7: Gpr, r8: Gpr) {
    let base = layout::BEFORE_SIZE;
    let (addr, width, texture) = match &site.ins.op {
        Op::Ld { addr, width, .. } | Op::St { addr, width, .. } => (addr, *width, false),
        Op::Tld { addr, width, .. } => (addr, *width, true),
        Op::Atom { addr, wide, .. } | Op::Red { addr, wide, .. } => (
            addr,
            if *wide { MemWidth::B64 } else { MemWidth::B32 },
            false,
        ),
        _ => {
            // Non-memory site instrumented with MEMORY info: store a
            // null record.
            e.store_imm(r6, base + layout::MEM_ADDRESS, 0);
            e.store_imm(r6, base + layout::MEM_ADDRESS + 4, 0);
            e.store_imm(r6, base + layout::MEM_PROPERTIES, 0);
            e.store_imm(r6, base + layout::MEM_WIDTH, 0);
            e.store_imm(r6, base + layout::MEM_DOMAIN, 0);
            return;
        }
    };

    match addr.space {
        AddrSpace::Global | AddrSpace::Generic => {
            e.push(Op::IAdd {
                d: r6,
                a: addr.base,
                b: Src::Imm(addr.offset as u32),
                x: false,
                cc: false,
            });
            e.push(Op::Mov {
                d: r7,
                a: Src::Reg(addr.base.pair_hi()),
            });
        }
        AddrSpace::Local => {
            // Reconstruct the pre-trampoline stack offset: the original
            // base (usually SP) predates our frame push.
            let adj = if addr.base == Gpr::SP { frame } else { 0 };
            e.push(Op::IAdd {
                d: r6,
                a: addr.base,
                b: Src::Imm((addr.offset + adj) as u32),
                x: false,
                cc: false,
            });
            e.push(Op::Lop {
                d: r6,
                op: LogicOp::Or,
                a: r6,
                b: Src::Const(CBankAddr::new(0, cbank0::LOCAL_WINDOW)),
                inv_b: false,
            });
            e.mov_imm(r7, 0);
        }
        AddrSpace::Shared => {
            e.push(Op::IAdd {
                d: r6,
                a: addr.base,
                b: Src::Imm(addr.offset as u32),
                x: false,
                cc: false,
            });
            e.push(Op::Lop {
                d: r6,
                op: LogicOp::Or,
                a: r6,
                b: Src::Const(CBankAddr::new(0, cbank0::SHARED_WINDOW)),
                inv_b: false,
            });
            e.mov_imm(r7, 0);
        }
    }
    // STL.64 [SP + base + MEM_ADDRESS], R6  (R6:R7 pair)
    e.push(Op::St {
        v: r6,
        width: MemWidth::B64,
        addr: MemAddr::local(Gpr::SP, base + layout::MEM_ADDRESS),
        spill: false,
    });

    let c = site.ins.class();
    let mut props = 0u32;
    if c.is_mem_read() {
        props |= layout::mem_props::READ;
    }
    if c.is_mem_write() {
        props |= layout::mem_props::WRITE;
    }
    if c.is_atomic() {
        props |= layout::mem_props::ATOMIC;
    }
    if c.is_spill_or_fill() {
        props |= layout::mem_props::SPILL;
    }
    if texture {
        props |= layout::mem_props::TEXTURE;
    }
    e.store_imm(r8, base + layout::MEM_PROPERTIES, props);
    e.store_imm(r8, base + layout::MEM_WIDTH, width.bytes());
    let domain = crate::params::MemoryDomain::of_space(addr.space, texture) as u32;
    e.store_imm(r8, base + layout::MEM_DOMAIN, domain);
}

/// Builds `SASSICondBranchParams`: per-lane direction and the two
/// successor offsets.
fn emit_branch_params(e: &mut Emitter<'_>, site: &Site<'_>, r6: Gpr, r8: Gpr) {
    let base = layout::BEFORE_SIZE;
    if site.ins.guard.is_always() {
        e.store_imm(r6, base + layout::BR_DIRECTION, 1);
    } else {
        e.mov_imm(r8, 1);
        e.push(Op::Sel {
            d: r6,
            a: r8,
            b: Src::Imm(0),
            p: site.ins.guard.pred,
            neg_p: site.ins.guard.neg,
        });
        e.stl(base + layout::BR_DIRECTION, r6);
    }
    let target = match site.ins.op {
        Op::Bra {
            target: Label::Pc(t),
            ..
        } => t,
        _ => 0,
    };
    e.store_imm(r6, base + layout::BR_TARGET, target);
    e.store_imm(r6, base + layout::BR_FALLTHROUGH, site.pc + 1);
}

/// Builds `SASSIRegisterParams`: the GPR destinations of the original
/// instruction and their current values (meaningful at `After` sites).
fn emit_register_params(e: &mut Emitter<'_>, site: &Site<'_>, r6: Gpr) {
    let base = layout::BEFORE_SIZE;
    let dsts: Vec<Gpr> = site
        .ins
        .defs_uses()
        .defs
        .iter_gprs()
        .take(layout::REG_MAX_DSTS as usize)
        .collect();
    // Values first, read directly from the destination registers before
    // any staging write could clobber one of them.
    for (i, d) in dsts.iter().enumerate() {
        let off = base + layout::REG_ENTRIES + 8 * i as i32;
        e.stl(off + 4, *d);
    }
    e.store_imm(r6, base + layout::REG_NUM_DSTS, dsts.len() as u32);
    for (i, d) in dsts.iter().enumerate() {
        let off = base + layout::REG_ENTRIES + 8 * i as i32;
        e.store_imm(r6, off, d.index() as u32);
    }
    let du = site.ins.defs_uses();
    let pred_mask: u32 = du.defs.iter_preds().map(|p| 1u32 << p.index()).sum();
    e.store_imm(r6, base + layout::REG_PRED_MASK, pred_mask);
    e.store_imm(
        r6,
        base + layout::REG_CC_WRITE,
        du.defs.contains_cc() as u32,
    );
}
