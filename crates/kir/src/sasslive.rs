//! SASS-level control-flow graph, per-instruction register liveness and
//! post-dominance — the compile-time facts SASSI consumes.
//!
//! The paper's instrumentor runs as the final backend pass and uses the
//! compiler's liveness to spill only what a handler call could clobber.
//! This module computes exactly that: for every machine instruction, the
//! sets of GPRs, predicates and CC live before and after it.

use crate::cfg::{Cfg, Flow};
use sassi_isa::{Function, Label, Op, RegSet};

/// Builds the CFG of a compiled function, using `meta.sync_reconv` for
/// the reconvergence edges of `SYNC` instructions. `SSY` targets and
/// reconvergence points start blocks too, so a block start is exactly
/// what SASSI instruments as a basic-block header.
pub fn cfg(f: &Function) -> Cfg {
    let ssy_targets = f.instrs.iter().filter_map(|ins| match ins.op {
        Op::Ssy {
            target: Label::Pc(t),
        } => Some(t as usize),
        _ => None,
    });
    let reconv = f.meta.sync_reconv.values().map(|&t| t as usize);
    Cfg::from_flow(f.instrs.len(), ssy_targets.chain(reconv), |i| {
        let ins = &f.instrs[i];
        let guarded = ins.is_guarded();
        match &ins.op {
            Op::Bra { target, .. } => Flow::Jump {
                target: match target {
                    Label::Pc(t) => Some(*t as usize),
                    _ => None,
                },
                guarded,
            },
            Op::Sync => Flow::Jump {
                target: f.meta.sync_reconv.get(&(i as u32)).map(|&t| t as usize),
                guarded,
            },
            Op::Exit => Flow::Stop { guarded },
            Op::Ret => Flow::Stop { guarded: false },
            _ => Flow::Next,
        }
    })
}

/// Per-instruction liveness over architectural registers.
#[derive(Clone, Debug)]
pub struct SassLiveness {
    /// Registers live immediately before each instruction.
    pub live_in: Vec<RegSet>,
    /// Registers live immediately after each instruction.
    pub live_out: Vec<RegSet>,
}

/// Computes per-instruction liveness for a compiled function.
///
/// This is the map SASSI consults to decide which registers a
/// trampoline must save around a handler call.
pub fn liveness(f: &Function, cfg: &Cfg) -> SassLiveness {
    let nb = cfg.len();
    let n = f.instrs.len();
    let mut blk_gen = vec![RegSet::new(); nb];
    let mut blk_kill = vec![RegSet::new(); nb];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        for i in (b.start..b.end).rev() {
            let du = f.instrs[i].defs_uses();
            // A guarded def is a partial write: not a kill.
            if !f.instrs[i].is_guarded() {
                let mut defs = du.defs;
                blk_kill[bi].union_with(&defs);
                defs.subtract(&du.uses);
                // gen -= full defs
                let mut g = blk_gen[bi];
                g.subtract(&du.defs);
                blk_gen[bi] = g;
            }
            blk_gen[bi].union_with(&du.uses);
            if f.instrs[i].is_guarded() {
                // treat the guarded def as a use (old value may survive)
                blk_gen[bi].union_with(&du.defs);
            }
        }
    }

    let mut bin = vec![RegSet::new(); nb];
    let mut bout = vec![RegSet::new(); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nb).rev() {
            let mut out = RegSet::new();
            for &s in &cfg.succs[bi] {
                out.union_with(&bin[s]);
            }
            bout[bi] = out;
            let mut inn = out;
            inn.subtract(&blk_kill[bi]);
            inn.union_with(&blk_gen[bi]);
            if inn != bin[bi] {
                bin[bi] = inn;
                changed = true;
            }
        }
    }

    let mut live_in = vec![RegSet::new(); n];
    let mut live_out = vec![RegSet::new(); n];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        let mut live = bout[bi];
        for i in (b.start..b.end).rev() {
            live_out[i] = live;
            let du = f.instrs[i].defs_uses();
            if !f.instrs[i].is_guarded() {
                live.subtract(&du.defs);
            }
            live.union_with(&du.uses);
            if f.instrs[i].is_guarded() {
                live.union_with(&du.defs);
            }
            live_in[i] = live;
        }
    }
    SassLiveness { live_in, live_out }
}

/// Post-dominator sets per block (bit-matrix as Vec of bool rows), with
/// `RET`/unguarded-`EXIT` blocks flowing to a virtual exit.
pub fn postdominators(cfg: &Cfg) -> Vec<Vec<bool>> {
    let n = cfg.len();
    // pdom[b] = {b} ∪ ⋂ pdom(succ). Exit blocks start at {b}.
    let mut pdom: Vec<Vec<bool>> = (0..n)
        .map(|b| {
            if cfg.succs[b].is_empty() {
                let mut row = vec![false; n];
                row[b] = true;
                row
            } else {
                vec![true; n]
            }
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..n).rev() {
            if cfg.succs[b].is_empty() {
                continue;
            }
            let mut row = vec![true; n];
            for &s in &cfg.succs[b] {
                for (r, sv) in row.iter_mut().zip(&pdom[s]) {
                    *r &= sv;
                }
            }
            row[b] = true;
            if row != pdom[b] {
                pdom[b] = row;
                changed = true;
            }
        }
    }
    pdom
}
