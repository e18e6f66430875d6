//! The reference interpreter: the original, un-decoded step semantics,
//! executing straight from the linked `Instr` array.
//!
//! This is the differential-testing oracle for the pre-decoded fast
//! path (`Exec::run_warp_local` and `Exec::step_decoded`):
//! `crates/sim/tests/decode_equiv.rs`
//! runs every workload and a generated kernel corpus through both
//! modes and requires identical launch results, stats and memory. Keep
//! the semantics here boring and literal; optimizations belong in the
//! decoded loop.

use super::*;
use crate::stats::IssueClass;
use sassi_isa::{Instr, Label, Op, Src};

impl Exec<'_> {
    fn const_read(&self, bank: u8, offset: u16) -> u32 {
        if bank != 0 {
            return 0;
        }
        c0_read_img(self.cbank, offset)
    }

    fn src_val(&self, w: &Warp, lane: usize, s: &Src) -> u32 {
        match s {
            Src::Reg(r) => w.reg(lane, *r),
            Src::Imm(v) => *v,
            Src::Const(c) => self.const_read(c.bank, c.offset),
        }
    }

    fn guard_mask(&self, w: &Warp, ins: &Instr) -> LaneMask {
        if ins.guard.is_always() {
            return w.active;
        }
        let mut m = 0u32;
        for lane in w.active_lanes() {
            let p = w.pred(lane, ins.guard.pred);
            if p != ins.guard.neg {
                m |= 1 << lane;
            }
        }
        m
    }

    /// Executes one instruction of warp `wi` from the `Instr` array.
    /// Returns its latency, or a fault kind on abort.
    pub(super) fn step_reference(&mut self, wi: usize) -> Result<u64, FaultKind> {
        // Copying the long-lived reference out of `self` unties the
        // instruction from the `&mut self` borrow.
        let module: &Module = self.module;
        let pc = self.warps[wi].pc;
        let Some(ins) = module.code().get(pc as usize) else {
            return Err(FaultKind::InvalidPc { pc: pc as u64 });
        };
        let mask = self.guard_mask(&self.warps[wi], ins);
        self.stats.warp_instrs += 1;
        self.stats.thread_instrs += mask.count_ones() as u64;
        self.stats.issue.bump(IssueClass::of(&ins.class()));

        // Control transfers set the pc themselves and return; every
        // other arm yields its latency and falls through to `pc + 1`.
        let lat = match &ins.op {
            // ---- control flow ------------------------------------------------
            Op::Ssy { target } => {
                let t = target_pc(target)?;
                let w = &mut self.warps[wi];
                w.stack.push(crate::warp::StackEntry::Ssy {
                    reconv: t,
                    mask: w.active,
                });
                1
            }
            Op::Bra { target, .. } => {
                let t = target_pc(target)?;
                if (t as usize) > module.code().len() {
                    return Err(FaultKind::InvalidPc { pc: t as u64 });
                }
                let w = &mut self.warps[wi];
                if ins.is_guarded() {
                    self.stats.cond_branches += 1;
                }
                if w.branch(t, mask) {
                    self.stats.divergent_branches += 1;
                }
                return Ok(2);
            }
            Op::Sync => {
                let w = &mut self.warps[wi];
                if ins.is_guarded() {
                    // A predicated SYNC is a conditional control
                    // transfer: lanes that pass the guard park, the
                    // rest fall through.
                    self.stats.cond_branches += 1;
                    if mask != 0 && mask != w.active {
                        self.stats.divergent_branches += 1;
                    }
                }
                w.sync(mask);
                return Ok(2);
            }
            Op::Exit => {
                let w = &mut self.warps[wi];
                if ins.is_guarded() {
                    self.stats.cond_branches += 1;
                    if mask != 0 && mask != w.active {
                        self.stats.divergent_branches += 1;
                    }
                }
                w.exit_lanes(mask);
                return Ok(1);
            }
            Op::Jcal {
                target: Label::Pc(t),
            } => {
                self.warps[wi].call(*t)?;
                return Ok(4);
            }
            Op::Jcal {
                target: Label::Handler(id),
            } => {
                // The decoded µop carries its site index; here we look
                // it up from the (shared) site table.
                let site = self.decoded.site_at(pc).unwrap_or(u32::MAX);
                self.trap(wi, TrapRef { site, handler: *id })?
            }
            Op::Jcal { .. } => return Err(FaultKind::InvalidPc { pc: pc as u64 }),
            Op::Ret => {
                let w = &mut self.warps[wi];
                w.pc = w.call_stack.pop().ok_or(FaultKind::CallStackUnderflow)?;
                return Ok(4);
            }
            Op::BarSync => {
                self.bar_sync(wi);
                1
            }

            // ---- memory -----------------------------------------------------
            Op::Ld { d, width, addr, .. } | Op::Tld { d, width, addr } => {
                self.mem_load_lanes(wi, mask, *d, *width, addr)?
            }
            Op::St { v, width, addr, .. } => self.mem_store_lanes(wi, mask, *v, *width, addr)?,
            Op::Atom {
                d,
                op,
                addr,
                v,
                v2,
                wide,
            } => self.mem_atomic(wi, mask, Some(*d), *op, addr, *v, *v2, *wide)?,
            Op::Red { op, addr, v, wide } => {
                self.mem_atomic(wi, mask, None, *op, addr, *v, None, *wide)?
            }
            Op::MemBar => 8,

            // ---- warp-wide ---------------------------------------------------
            Op::Vote {
                mode,
                d,
                p_out,
                src,
                neg_src,
            } => {
                let w = &mut self.warps[wi];
                let mut ballot: u32 = 0;
                for lane in 0..32 {
                    if mask & (1 << lane) != 0 {
                        let v = w.pred(lane, *src) != *neg_src;
                        if v {
                            ballot |= 1 << lane;
                        }
                    }
                }
                let all = ballot & mask == mask && mask != 0;
                let any = ballot != 0;
                for lane in 0..32 {
                    if mask & (1 << lane) != 0 {
                        match mode {
                            VoteMode::Ballot => w.set_reg(lane, *d, ballot),
                            VoteMode::All => w.set_reg(lane, *d, all as u32),
                            VoteMode::Any => w.set_reg(lane, *d, any as u32),
                        }
                        if let Some(p) = p_out {
                            let v = match mode {
                                VoteMode::All => all,
                                VoteMode::Any => any,
                                VoteMode::Ballot => ballot != 0,
                            };
                            w.set_pred(lane, *p, v);
                        }
                    }
                }
                2
            }
            Op::Shfl {
                mode,
                d,
                a,
                b,
                c: _,
                p_out,
            } => {
                let w = &self.warps[wi];
                let mut snapshot = [0u32; 32];
                for (l, s) in snapshot.iter_mut().enumerate() {
                    *s = w.reg(l, *a);
                }
                for lane in 0..32usize {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let bv = self.src_val(&self.warps[wi], lane, b);
                    let src_lane = match mode {
                        ShflMode::Idx => (bv & 31) as usize,
                        ShflMode::Up => lane.wrapping_sub(bv as usize),
                        ShflMode::Down => lane + bv as usize,
                        ShflMode::Bfly => lane ^ (bv as usize & 31),
                    };
                    let in_range = src_lane < 32 && (mask & (1 << src_lane)) != 0;
                    let val = if in_range {
                        snapshot[src_lane]
                    } else {
                        snapshot[lane]
                    };
                    let w = &mut self.warps[wi];
                    w.set_reg(lane, *d, val);
                    if let Some(p) = p_out {
                        w.set_pred(lane, *p, in_range);
                    }
                }
                2
            }

            // ---- per-lane ALU -------------------------------------------------
            _ => {
                self.alu_reference(wi, ins, mask);
                alu_latency(&ins.op)
            }
        };
        self.warps[wi].pc += 1;
        Ok(lat)
    }

    /// Per-lane ALU execution for all remaining opcodes.
    fn alu_reference(&mut self, wi: usize, ins: &Instr, mask: LaneMask) {
        for lane in 0..32usize {
            if mask & (1 << lane) == 0 {
                continue;
            }
            // Read phase (immutable).
            let w = &self.warps[wi];
            enum Out {
                R(Gpr, u32),
                P(sassi_isa::PredReg, bool),
                RCc(Gpr, u32, bool),
                Preds(u8),
                None,
            }
            let out = match &ins.op {
                Op::Mov { d, a } => Out::R(*d, self.src_val(w, lane, a)),
                Op::Mov32I { d, imm } => Out::R(*d, *imm),
                Op::S2R { d, sr } => Out::R(*d, self.special(w, lane, *sr)),
                Op::IAdd { d, a, b, x, cc } => {
                    let av = w.reg(lane, *a) as u64;
                    let bv = self.src_val(w, lane, b) as u64;
                    let cin = if *x { w.cc[lane] as u64 } else { 0 };
                    let sum = av + bv + cin;
                    if *cc {
                        Out::RCc(*d, sum as u32, sum >> 32 != 0)
                    } else {
                        Out::R(*d, sum as u32)
                    }
                }
                Op::ISub { d, a, b } => {
                    Out::R(*d, w.reg(lane, *a).wrapping_sub(self.src_val(w, lane, b)))
                }
                Op::IMul {
                    d,
                    a,
                    b,
                    signed,
                    hi,
                } => {
                    let av = w.reg(lane, *a);
                    let bv = self.src_val(w, lane, b);
                    let v = if *signed {
                        let p = (av as i32 as i64) * (bv as i32 as i64);
                        if *hi {
                            (p >> 32) as u32
                        } else {
                            p as u32
                        }
                    } else {
                        let p = (av as u64) * (bv as u64);
                        if *hi {
                            (p >> 32) as u32
                        } else {
                            p as u32
                        }
                    };
                    Out::R(*d, v)
                }
                Op::IMad { d, a, b, c } => {
                    let v = w
                        .reg(lane, *a)
                        .wrapping_mul(self.src_val(w, lane, b))
                        .wrapping_add(w.reg(lane, *c));
                    Out::R(*d, v)
                }
                Op::IScAdd { d, a, b, shift } => {
                    let v = (w.reg(lane, *a) << shift).wrapping_add(self.src_val(w, lane, b));
                    Out::R(*d, v)
                }
                Op::IMnMx {
                    d,
                    a,
                    b,
                    min,
                    signed,
                } => {
                    let av = w.reg(lane, *a);
                    let bv = self.src_val(w, lane, b);
                    let v = match (signed, min) {
                        (true, true) => (av as i32).min(bv as i32) as u32,
                        (true, false) => (av as i32).max(bv as i32) as u32,
                        (false, true) => av.min(bv),
                        (false, false) => av.max(bv),
                    };
                    Out::R(*d, v)
                }
                Op::Shl { d, a, b } => {
                    let s = self.src_val(w, lane, b);
                    let v = if s >= 32 { 0 } else { w.reg(lane, *a) << s };
                    Out::R(*d, v)
                }
                Op::Shr { d, a, b, signed } => {
                    let s = self.src_val(w, lane, b);
                    let av = w.reg(lane, *a);
                    let v = if *signed {
                        if s >= 32 {
                            ((av as i32) >> 31) as u32
                        } else {
                            ((av as i32) >> s) as u32
                        }
                    } else if s >= 32 {
                        0
                    } else {
                        av >> s
                    };
                    Out::R(*d, v)
                }
                Op::Lop { d, op, a, b, inv_b } => {
                    let av = w.reg(lane, *a);
                    let mut bv = self.src_val(w, lane, b);
                    if *inv_b {
                        bv = !bv;
                    }
                    Out::R(*d, op.eval(av, bv))
                }
                Op::Popc { d, a } => Out::R(*d, w.reg(lane, *a).count_ones()),
                Op::Flo { d, a } => {
                    let av = w.reg(lane, *a);
                    Out::R(
                        *d,
                        if av == 0 {
                            u32::MAX
                        } else {
                            31 - av.leading_zeros()
                        },
                    )
                }
                Op::Brev { d, a } => Out::R(*d, w.reg(lane, *a).reverse_bits()),
                Op::Sel { d, a, b, p, neg_p } => {
                    let take_a = w.pred(lane, *p) != *neg_p;
                    let v = if take_a {
                        w.reg(lane, *a)
                    } else {
                        self.src_val(w, lane, b)
                    };
                    Out::R(*d, v)
                }
                Op::FAdd {
                    d,
                    a,
                    b,
                    neg_a,
                    neg_b,
                } => {
                    let mut av = f32::from_bits(w.reg(lane, *a));
                    let mut bv = f32::from_bits(self.src_val(w, lane, b));
                    if *neg_a {
                        av = -av;
                    }
                    if *neg_b {
                        bv = -bv;
                    }
                    Out::R(*d, (av + bv).to_bits())
                }
                Op::FMul { d, a, b } => {
                    let av = f32::from_bits(w.reg(lane, *a));
                    let bv = f32::from_bits(self.src_val(w, lane, b));
                    Out::R(*d, (av * bv).to_bits())
                }
                Op::FFma {
                    d,
                    a,
                    b,
                    c,
                    neg_b,
                    neg_c,
                } => {
                    let av = f32::from_bits(w.reg(lane, *a));
                    let mut bv = f32::from_bits(self.src_val(w, lane, b));
                    let mut cv = f32::from_bits(w.reg(lane, *c));
                    if *neg_b {
                        bv = -bv;
                    }
                    if *neg_c {
                        cv = -cv;
                    }
                    Out::R(*d, av.mul_add(bv, cv).to_bits())
                }
                Op::FMnMx { d, a, b, min } => {
                    let av = f32::from_bits(w.reg(lane, *a));
                    let bv = f32::from_bits(self.src_val(w, lane, b));
                    let v = if *min { av.min(bv) } else { av.max(bv) };
                    Out::R(*d, v.to_bits())
                }
                Op::Mufu { d, func, a } => {
                    let av = f32::from_bits(w.reg(lane, *a));
                    Out::R(*d, func.eval(av).to_bits())
                }
                Op::I2F { d, a, .. } => Out::R(*d, (w.reg(lane, *a) as i32 as f32).to_bits()),
                Op::F2I { d, a, .. } => Out::R(*d, f32::from_bits(w.reg(lane, *a)) as i32 as u32),
                Op::ISetP {
                    p,
                    cmp,
                    a,
                    b,
                    signed,
                    combine,
                } => {
                    let av = w.reg(lane, *a);
                    let bv = self.src_val(w, lane, b);
                    let base = if *signed {
                        cmp.eval_i64(av as i32 as i64, bv as i32 as i64)
                    } else {
                        cmp.eval_i64(av as i64, bv as i64)
                    };
                    let v = match combine {
                        None => base,
                        Some((cp, neg)) => base && (w.pred(lane, *cp) != *neg),
                    };
                    Out::P(*p, v)
                }
                Op::FSetP { p, cmp, a, b } => {
                    let av = f32::from_bits(w.reg(lane, *a));
                    let bv = f32::from_bits(self.src_val(w, lane, b));
                    Out::P(*p, cmp.eval_f32(av, bv))
                }
                Op::PSetP {
                    p,
                    op,
                    a,
                    b,
                    neg_a,
                    neg_b,
                } => {
                    let av = w.pred(lane, *a) != *neg_a;
                    let bv = w.pred(lane, *b) != *neg_b;
                    let v = match op {
                        LogicOp::And => av && bv,
                        LogicOp::Or => av || bv,
                        LogicOp::Xor => av != bv,
                        LogicOp::PassB => bv,
                    };
                    Out::P(*p, v)
                }
                Op::P2R { d } => Out::R(*d, w.preds[lane] as u32 & 0x7f),
                Op::R2P { a } => Out::Preds((w.reg(lane, *a) & 0x7f) as u8),
                Op::Nop => Out::None,
                // Handled in `step_reference`.
                _ => Out::None,
            };
            // Write phase.
            let w = &mut self.warps[wi];
            match out {
                Out::R(d, v) => w.set_reg(lane, d, v),
                Out::P(p, v) => w.set_pred(lane, p, v),
                Out::RCc(d, v, c) => {
                    w.set_reg(lane, d, v);
                    w.cc[lane] = c;
                }
                Out::Preds(bits) => w.preds[lane] = bits,
                Out::None => {}
            }
        }
    }
}

fn target_pc(l: &Label) -> Result<u32, FaultKind> {
    match l {
        Label::Pc(t) => Ok(*t),
        _ => Err(FaultKind::InvalidPc { pc: u64::MAX }),
    }
}

fn alu_latency(op: &Op) -> u64 {
    match op {
        Op::Mufu { .. } => 8,
        Op::IMul { .. } | Op::IMad { .. } => 4,
        Op::I2F { .. } | Op::F2I { .. } => 4,
        _ => 2,
    }
}
