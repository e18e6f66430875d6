//! Register def/use extraction — the raw material for liveness analysis
//! in the backend compiler and for SASSI's minimal spill decisions.

use crate::instr::{Instr, MemAddr, Src};
use crate::op::{MemWidth, Op};
use crate::reg::{Gpr, PredReg};
use serde::{Deserialize, Serialize};

/// A set of architectural registers: GPRs, predicates and the CC flag.
///
/// Backed by a 256-bit GPR bitmap (RZ membership is ignored: it is
/// never live), a 7-bit predicate bitmap (PT likewise ignored) and a CC
/// bit.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Serialize, Deserialize)]
pub struct RegSet {
    gprs: [u64; 4],
    preds: u8,
    cc: bool,
}

impl RegSet {
    /// The empty set.
    pub fn new() -> RegSet {
        RegSet::default()
    }

    /// Inserts a GPR (no-op for `RZ`).
    pub fn insert_gpr(&mut self, r: Gpr) {
        if !r.is_rz() {
            let i = r.index() as usize;
            self.gprs[i / 64] |= 1 << (i % 64);
        }
    }

    /// Inserts `count` consecutive GPRs starting at `r`. A run that
    /// reaches past `R254` keeps only the registers that exist.
    pub fn insert_gpr_run(&mut self, r: Gpr, count: u8) {
        if r.is_rz() {
            return;
        }
        for i in r.index()..r.index().saturating_add(count).min(Gpr::RZ.index()) {
            self.insert_gpr(Gpr::new(i));
        }
    }

    /// Inserts a predicate register (no-op for `PT`).
    pub fn insert_pred(&mut self, p: PredReg) {
        if !p.is_pt() {
            self.preds |= 1 << p.index();
        }
    }

    /// Marks the CC flag as a member.
    pub fn insert_cc(&mut self) {
        self.cc = true;
    }

    /// Membership test for a GPR (`RZ` is never a member).
    pub fn contains_gpr(&self, r: Gpr) -> bool {
        if r.is_rz() {
            return false;
        }
        let i = r.index() as usize;
        self.gprs[i / 64] & (1 << (i % 64)) != 0
    }

    /// Membership test for a predicate (`PT` is never a member).
    pub fn contains_pred(&self, p: PredReg) -> bool {
        !p.is_pt() && self.preds & (1 << p.index()) != 0
    }

    /// Whether the CC flag is a member.
    pub fn contains_cc(&self) -> bool {
        self.cc
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.gprs == [0; 4] && self.preds == 0 && !self.cc
    }

    /// Number of GPRs in the set.
    pub fn gpr_count(&self) -> u32 {
        self.gprs.iter().map(|w| w.count_ones()).sum()
    }

    /// The highest-numbered GPR in the set, if it holds any.
    pub fn max_gpr(&self) -> Option<Gpr> {
        let w = self.gprs.iter().rposition(|&word| word != 0)?;
        let bit = 63 - self.gprs[w].leading_zeros() as usize;
        Some(Gpr::new((w * 64 + bit) as u8))
    }

    /// Number of predicates in the set.
    pub fn pred_count(&self) -> u32 {
        self.preds.count_ones()
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &RegSet) {
        for i in 0..4 {
            self.gprs[i] |= other.gprs[i];
        }
        self.preds |= other.preds;
        self.cc |= other.cc;
    }

    /// Set difference, in place (`self -= other`).
    pub fn subtract(&mut self, other: &RegSet) {
        for i in 0..4 {
            self.gprs[i] &= !other.gprs[i];
        }
        self.preds &= !other.preds;
        self.cc &= !other.cc;
    }

    /// Set intersection, returning a new set.
    pub fn intersection(&self, other: &RegSet) -> RegSet {
        let mut out = RegSet::new();
        for i in 0..4 {
            out.gprs[i] = self.gprs[i] & other.gprs[i];
        }
        out.preds = self.preds & other.preds;
        out.cc = self.cc && other.cc;
        out
    }

    /// Iterates the GPRs in ascending register order.
    pub fn iter_gprs(&self) -> impl Iterator<Item = Gpr> + '_ {
        self.gprs.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(Gpr::new((w * 64 + bit) as u8))
            })
        })
    }

    /// Iterates the predicates in ascending order.
    pub fn iter_preds(&self) -> impl Iterator<Item = PredReg> + '_ {
        (0u8..7).filter_map(move |i| {
            let p = PredReg::new(i);
            self.contains_pred(p).then_some(p)
        })
    }
}

impl FromIterator<Gpr> for RegSet {
    fn from_iter<T: IntoIterator<Item = Gpr>>(iter: T) -> RegSet {
        let mut s = RegSet::new();
        for r in iter {
            s.insert_gpr(r);
        }
        s
    }
}

impl Extend<Gpr> for RegSet {
    fn extend<T: IntoIterator<Item = Gpr>>(&mut self, iter: T) {
        for r in iter {
            self.insert_gpr(r);
        }
    }
}

/// The registers an instruction defines and uses.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct RegDefsUses {
    /// Registers written by the instruction.
    pub defs: RegSet,
    /// Registers read by the instruction (including the guard predicate
    /// and memory-address bases).
    pub uses: RegSet,
}

fn use_src(set: &mut RegSet, s: &Src) {
    if let Src::Reg(r) = s {
        set.insert_gpr(*r);
    }
}

fn use_addr(set: &mut RegSet, a: &MemAddr) {
    set.insert_gpr_run(a.base, if a.is_wide_base() { 2 } else { 1 });
}

fn def_wide(set: &mut RegSet, d: Gpr, width: MemWidth) {
    set.insert_gpr_run(d, width.regs());
}

impl Instr {
    /// Computes the registers this instruction defines and uses.
    ///
    /// The guard predicate counts as a use. Wide memory operations
    /// def/use full register runs; wide address bases use the pair.
    pub fn defs_uses(&self) -> RegDefsUses {
        let mut d = RegSet::new();
        let mut u = RegSet::new();
        if !self.guard.pred.is_pt() {
            u.insert_pred(self.guard.pred);
        }
        match &self.op {
            Op::Mov { d: dst, a } => {
                d.insert_gpr(*dst);
                use_src(&mut u, a);
            }
            Op::Mov32I { d: dst, .. } => d.insert_gpr(*dst),
            Op::S2R { d: dst, .. } => d.insert_gpr(*dst),
            Op::IAdd {
                d: dst,
                a,
                b,
                x,
                cc,
            } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
                if *x {
                    u.insert_cc();
                }
                if *cc {
                    d.insert_cc();
                }
            }
            Op::ISub { d: dst, a, b } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
            }
            Op::IMul { d: dst, a, b, .. }
            | Op::Shl { d: dst, a, b }
            | Op::Shr { d: dst, a, b, .. } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
            }
            Op::IMad { d: dst, a, b, c } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
                u.insert_gpr(*c);
            }
            Op::IScAdd { d: dst, a, b, .. } | Op::IMnMx { d: dst, a, b, .. } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
            }
            Op::Lop { d: dst, a, b, .. } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
            }
            Op::Popc { d: dst, a } | Op::Flo { d: dst, a } | Op::Brev { d: dst, a } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
            }
            Op::Sel {
                d: dst, a, b, p, ..
            } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
                u.insert_pred(*p);
            }
            Op::FAdd { d: dst, a, b, .. }
            | Op::FMul { d: dst, a, b }
            | Op::FMnMx { d: dst, a, b, .. } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
            }
            Op::FFma {
                d: dst, a, b, c, ..
            } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
                u.insert_gpr(*c);
            }
            Op::Mufu { d: dst, a, .. } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
            }
            Op::I2F { d: dst, a, .. } | Op::F2I { d: dst, a, .. } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
            }
            Op::ISetP {
                p, a, b, combine, ..
            } => {
                d.insert_pred(*p);
                u.insert_gpr(*a);
                use_src(&mut u, b);
                if let Some((cp, _)) = combine {
                    u.insert_pred(*cp);
                }
            }
            Op::FSetP { p, a, b, .. } => {
                d.insert_pred(*p);
                u.insert_gpr(*a);
                use_src(&mut u, b);
            }
            Op::PSetP { p, a, b, .. } => {
                d.insert_pred(*p);
                u.insert_pred(*a);
                u.insert_pred(*b);
            }
            Op::P2R { d: dst } => {
                d.insert_gpr(*dst);
                for i in 0..7 {
                    u.insert_pred(PredReg::new(i));
                }
            }
            Op::R2P { a } => {
                u.insert_gpr(*a);
                for i in 0..7 {
                    d.insert_pred(PredReg::new(i));
                }
            }
            Op::Ld {
                d: dst,
                width,
                addr,
                ..
            }
            | Op::Tld {
                d: dst,
                width,
                addr,
            } => {
                def_wide(&mut d, *dst, *width);
                use_addr(&mut u, addr);
            }
            Op::St { v, width, addr, .. } => {
                u.insert_gpr_run(*v, width.regs());
                use_addr(&mut u, addr);
            }
            Op::Atom {
                d: dst,
                addr,
                v,
                v2,
                wide,
                ..
            } => {
                let n = if *wide { 2 } else { 1 };
                d.insert_gpr_run(*dst, n);
                u.insert_gpr_run(*v, n);
                if let Some(v2) = v2 {
                    u.insert_gpr_run(*v2, n);
                }
                use_addr(&mut u, addr);
            }
            Op::Red { addr, v, wide, .. } => {
                u.insert_gpr_run(*v, if *wide { 2 } else { 1 });
                use_addr(&mut u, addr);
            }
            Op::MemBar => {}
            Op::Vote {
                d: dst, p_out, src, ..
            } => {
                d.insert_gpr(*dst);
                if let Some(p) = p_out {
                    d.insert_pred(*p);
                }
                u.insert_pred(*src);
            }
            Op::Shfl {
                d: dst,
                a,
                b,
                c,
                p_out,
                ..
            } => {
                d.insert_gpr(*dst);
                u.insert_gpr(*a);
                use_src(&mut u, b);
                use_src(&mut u, c);
                if let Some(p) = p_out {
                    d.insert_pred(*p);
                }
            }
            Op::Ssy { .. }
            | Op::Sync
            | Op::Bra { .. }
            | Op::Jcal { .. }
            | Op::Ret
            | Op::Exit
            | Op::BarSync
            | Op::Nop => {}
        }
        RegDefsUses { defs: d, uses: u }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Guard;
    use crate::op::MemWidth;

    fn r(n: u8) -> Gpr {
        Gpr::new(n)
    }

    #[test]
    fn regset_basic_ops() {
        let mut s = RegSet::new();
        assert!(s.is_empty());
        s.insert_gpr(r(3));
        s.insert_gpr(r(200));
        s.insert_gpr(Gpr::RZ); // ignored
        assert!(s.contains_gpr(r(3)) && s.contains_gpr(r(200)));
        assert!(!s.contains_gpr(Gpr::RZ));
        assert_eq!(s.gpr_count(), 2);

        let mut t = RegSet::new();
        t.insert_gpr(r(3));
        let i = s.intersection(&t);
        assert!(i.contains_gpr(r(3)) && !i.contains_gpr(r(200)));
        s.subtract(&t);
        assert!(!s.contains_gpr(r(3)));
    }

    #[test]
    fn regset_iters_sorted() {
        let s: RegSet = [r(9), r(2), r(31)].into_iter().collect();
        let got: Vec<u8> = s.iter_gprs().map(|g| g.index()).collect();
        assert_eq!(got, vec![2, 9, 31]);
        let s: RegSet = [r(254), r(64), r(63), r(0), r(128)].into_iter().collect();
        let got: Vec<u8> = s.iter_gprs().map(|g| g.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 128, 254]);
    }

    #[test]
    fn guard_counts_as_use() {
        let i = Instr::guarded(
            Guard::on(PredReg::new(3)),
            Op::Mov {
                d: r(0),
                a: Src::Imm(1),
            },
        );
        let du = i.defs_uses();
        assert!(du.uses.contains_pred(PredReg::new(3)));
        assert!(du.defs.contains_gpr(r(0)));
    }

    #[test]
    fn wide_load_defines_pair_and_uses_base_pair() {
        let i = Instr::new(Op::Ld {
            d: r(10),
            width: MemWidth::B64,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        });
        let du = i.defs_uses();
        assert!(du.defs.contains_gpr(r(10)) && du.defs.contains_gpr(r(11)));
        assert!(du.uses.contains_gpr(r(4)) && du.uses.contains_gpr(r(5)));
    }

    #[test]
    fn local_store_uses_single_base() {
        let i = Instr::new(Op::St {
            v: r(0),
            width: MemWidth::B32,
            addr: MemAddr::local(Gpr::SP, 16),
            spill: false,
        });
        let du = i.defs_uses();
        assert!(du.uses.contains_gpr(Gpr::SP));
        assert!(!du.uses.contains_gpr(r(2)));
    }

    #[test]
    fn carry_chain_defs_uses_cc() {
        let lo = Instr::new(Op::IAdd {
            d: r(6),
            a: r(10),
            b: Src::Imm(0),
            x: false,
            cc: true,
        });
        let hi = Instr::new(Op::IAdd {
            d: r(7),
            a: r(11),
            b: Src::Reg(Gpr::RZ),
            x: true,
            cc: false,
        });
        assert!(lo.defs_uses().defs.contains_cc());
        assert!(hi.defs_uses().uses.contains_cc());
    }

    #[test]
    fn p2r_uses_all_preds_r2p_defines_them() {
        let p2r = Instr::new(Op::P2R { d: r(3) });
        assert_eq!(p2r.defs_uses().uses.pred_count(), 7);
        let r2p = Instr::new(Op::R2P { a: r(3) });
        assert_eq!(r2p.defs_uses().defs.pred_count(), 7);
    }

    #[test]
    fn b128_defines_four_regs() {
        let i = Instr::new(Op::Ld {
            d: r(8),
            width: MemWidth::B128,
            addr: MemAddr::global(r(4), 0),
            spill: false,
        });
        let du = i.defs_uses();
        for k in 8..12 {
            assert!(du.defs.contains_gpr(r(k)));
        }
        assert!(!du.defs.contains_gpr(r(12)));
    }

    #[test]
    fn max_gpr_is_the_highest_member() {
        assert_eq!(RegSet::new().max_gpr(), None);
        let s: RegSet = [r(9), r(2), r(63)].into_iter().collect();
        assert_eq!(s.max_gpr(), Some(r(63)));
        let s: RegSet = [r(64), r(254), Gpr::RZ].into_iter().collect();
        assert_eq!(s.max_gpr(), Some(r(254)));
    }

    #[test]
    fn runs_past_r254_keep_the_registers_that_exist() {
        // A quad at R252 and a wide base at R254 name R255, which does
        // not exist: the sets stop at R254 instead of panicking.
        let i = Instr::new(Op::Ld {
            d: r(252),
            width: MemWidth::B128,
            addr: MemAddr::global(r(254), 0),
            spill: false,
        });
        let du = i.defs_uses();
        assert_eq!(du.defs.gpr_count(), 3);
        assert_eq!(du.defs.max_gpr(), Some(r(254)));
        assert_eq!(du.uses.gpr_count(), 1);
    }
}
