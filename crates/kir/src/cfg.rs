//! Control-flow graphs: one builder for kernel IR and for SASS.
//!
//! [`Cfg::from_flow`] holds the only rule for where a basic block
//! starts and which blocks follow it. [`Cfg::build`] feeds it kernel
//! IR; [`crate::sasslive::cfg`] feeds it compiled SASS, and SASSI reads
//! its basic-block headers from that graph.

use crate::builder::KFunction;
use crate::kop::KOp;
use std::collections::HashMap;

/// A basic block: a half-open range of instruction indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
}

/// How one instruction passes control on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Continues with the next instruction.
    Next,
    /// Transfers to `target` (none when the target is unknown); a
    /// guarded jump also falls through.
    Jump {
        /// Instruction index of the target.
        target: Option<usize>,
        /// Whether lanes whose guard is false fall through.
        guarded: bool,
    },
    /// Ends the thread; a guarded stop also falls through.
    Stop {
        /// Whether lanes whose guard is false fall through.
        guarded: bool,
    },
}

/// Control-flow graph of a function.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Basic blocks in layout order.
    pub blocks: Vec<Block>,
    /// Successor block indices, per block.
    pub succs: Vec<Vec<usize>>,
    /// Block index containing each instruction.
    pub block_of: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `n` instructions whose control effects are
    /// `flow(0)..flow(n)`.
    ///
    /// Blocks start at the entry, at every jump target, at every index
    /// in `leaders`, and after every jump or stop. A jump goes to its
    /// target and a stop to no block; either falls through as well when
    /// guarded. A target or leader at or past `n` is neither a block
    /// start nor an edge: control that leaves the function faults when
    /// executed, it does not shape the graph.
    pub fn from_flow(
        n: usize,
        leaders: impl IntoIterator<Item = usize>,
        flow: impl Fn(usize) -> Flow,
    ) -> Cfg {
        let mut leader = vec![false; n.max(1)];
        leader[0] = true;
        let mut mark = |t: usize| {
            if t < n {
                leader[t] = true;
            }
        };
        leaders.into_iter().for_each(&mut mark);
        for i in 0..n {
            let f = flow(i);
            if let Flow::Jump {
                target: Some(t), ..
            } = f
            {
                mark(t);
            }
            if f != Flow::Next {
                mark(i + 1);
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (i, &is_leader) in leader.iter().enumerate().take(n).skip(1) {
            if is_leader {
                blocks.push(Block { start, end: i });
                start = i;
            }
        }
        if n > 0 {
            blocks.push(Block { start, end: n });
        }
        for (bi, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(bi);
        }

        let succs = blocks
            .iter()
            .map(|b| {
                let (target, falls) = match flow(b.end - 1) {
                    Flow::Next => (None, true),
                    Flow::Jump { target, guarded } => (target, guarded),
                    Flow::Stop { guarded } => (None, guarded),
                };
                let mut out = Vec::with_capacity(2);
                out.extend(target.filter(|&t| t < n).map(|t| block_of[t]));
                if falls && b.end < n {
                    out.push(block_of[b.end]);
                }
                out.dedup();
                out
            })
            .collect();

        Cfg {
            blocks,
            succs,
            block_of,
        }
    }

    /// Builds the CFG of `f`.
    ///
    /// Edges: a `BRA` goes to its target (plus fallthrough when
    /// guarded); a `SYNC` transfers parked lanes to its reconvergence
    /// label (plus fallthrough when guarded — lanes whose guard is
    /// false continue); `EXIT` ends the thread (fallthrough only when
    /// guarded) and `RET` always ends it. Every label starts a block.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label is never placed.
    pub fn build(f: &KFunction) -> Cfg {
        let mut label_pos = HashMap::new();
        for (i, ins) in f.instrs.iter().enumerate() {
            if let KOp::Label { id } = ins.op {
                label_pos.insert(id, i);
            }
        }
        Cfg::from_flow(f.instrs.len(), label_pos.values().copied(), |i| {
            let ins = &f.instrs[i];
            let guarded = ins.guard.is_some();
            match ins.op {
                KOp::Bra { t: l } | KOp::Sync { reconv: l } => {
                    let pos = *label_pos
                        .get(&l)
                        .unwrap_or_else(|| panic!("label {l} referenced but never placed"));
                    Flow::Jump {
                        target: Some(pos),
                        guarded,
                    }
                }
                KOp::Exit => Flow::Stop { guarded },
                KOp::Ret => Flow::Stop { guarded: false },
                _ => Flow::Next,
            }
        })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    #[test]
    fn straight_line_single_block() {
        let mut b = KernelBuilder::kernel("k");
        let x = b.iconst(1);
        let _ = b.iadd(x, 2u32);
        let f = b.finish();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 1);
        assert!(cfg.succs[0].is_empty(), "exit block has no successors");
    }

    #[test]
    fn if_produces_diamond_ish_graph() {
        let mut b = KernelBuilder::kernel("k");
        let x = b.iconst(1);
        let p = b.setp_u32_lt(x, 2u32);
        b.if_(p, |b| {
            let _ = b.iconst(3);
        });
        let f = b.finish();
        let cfg = Cfg::build(&f);
        // ssy+guarded-sync | body+sync | end(label)+exit
        assert!(cfg.len() >= 3);
        // Entry block ends with a guarded sync: both target and fallthrough.
        assert_eq!(cfg.succs[0].len(), 2);
    }

    #[test]
    fn loop_has_back_edge() {
        let mut b = KernelBuilder::kernel("k");
        let n = b.iconst(4);
        b.for_range(0u32, n, 1, |b, i| {
            let _ = b.iadd(i, 1u32);
        });
        let f = b.finish();
        let cfg = Cfg::build(&f);
        let has_back_edge = cfg
            .succs
            .iter()
            .enumerate()
            .any(|(bi, ss)| ss.iter().any(|&s| s <= bi));
        assert!(has_back_edge);
        // Every block except terminal ones has at least one successor.
        for (bi, ss) in cfg.succs.iter().enumerate() {
            let last = &f.instrs[cfg.blocks[bi].end - 1];
            if !matches!(last.op, KOp::Exit | KOp::Ret) {
                assert!(!ss.is_empty(), "non-exit block {bi} has no successors");
            }
        }
    }
}
