//! The shared CFG builder, driven from both IRs: compiled SASS through
//! `sasslive::cfg` and kernel IR through `Cfg::build` must place block
//! starts and edges by the same rules.

use sassi_isa::{Function, FunctionMeta, Guard, Instr, Label, Op, PredReg};
use sassi_kir::sasslive::{self, liveness, postdominators};
use sassi_kir::{Cfg, Flow, KFunction, KInstr, KOp, KernelBuilder, LabelId};

fn starts(c: &Cfg) -> Vec<usize> {
    c.blocks.iter().map(|b| b.start).collect()
}

// ---- SASS ------------------------------------------------------------

fn bra(t: u32) -> Op {
    Op::Bra {
        target: Label::Pc(t),
        uniform: false,
    }
}

/// A function of `(op, guarded)` pairs with the given SYNC →
/// reconvergence map.
fn sass(ops: Vec<(Op, bool)>, sync_reconv: &[(u32, u32)]) -> Function {
    let p0 = Guard {
        pred: PredReg::new(0),
        neg: false,
    };
    let instrs = ops
        .into_iter()
        .map(|(op, g)| {
            if g {
                Instr::guarded(p0, op)
            } else {
                Instr::new(op)
            }
        })
        .collect();
    let mut meta = FunctionMeta::default();
    meta.sync_reconv.extend(sync_reconv.iter().copied());
    Function::new("f", instrs, meta)
}

#[test]
fn sass_guarded_bra_has_two_successors_unguarded_one() {
    for (guarded, want) in [(true, vec![2, 1]), (false, vec![2])] {
        let f = sass(
            vec![(bra(2), guarded), (Op::Nop, false), (Op::Exit, false)],
            &[],
        );
        let c = sasslive::cfg(&f);
        assert_eq!(starts(&c), [0, 1, 2]);
        assert_eq!(c.succs[0], want, "guarded = {guarded}");
    }
}

#[test]
fn sass_exit_and_ret_stop_unless_a_guarded_exit() {
    for (op, guarded, want) in [
        (Op::Exit, false, vec![]),
        (Op::Ret, false, vec![]),
        (Op::Ret, true, vec![]),
        (Op::Exit, true, vec![1]),
    ] {
        let f = sass(vec![(op.clone(), guarded), (Op::Exit, false)], &[]);
        let c = sasslive::cfg(&f);
        assert_eq!(starts(&c), [0, 1]);
        assert_eq!(c.succs[0], want, "{op:?} guarded = {guarded}");
    }
}

#[test]
fn sass_sync_edge_comes_from_its_reconvergence_entry() {
    let ops = |guarded| {
        vec![
            (Op::Sync, guarded),
            (Op::Nop, false),
            (Op::Nop, false),
            (Op::Exit, false),
        ]
    };
    for (guarded, want) in [(false, vec![2]), (true, vec![2, 1])] {
        let c = sasslive::cfg(&sass(ops(guarded), &[(0, 2)]));
        assert_eq!(starts(&c), [0, 1, 2]);
        assert_eq!(c.succs[0], want, "guarded = {guarded}");
    }
    let c = sasslive::cfg(&sass(ops(false), &[]));
    assert_eq!(starts(&c), [0, 1]);
    assert!(c.succs[0].is_empty(), "no reconvergence entry, no edge");
    let c = sasslive::cfg(&sass(ops(true), &[]));
    assert_eq!(c.succs[0], [1], "a guarded SYNC still falls through");
}

#[test]
fn sass_ssy_target_starts_a_block() {
    let ssy = Op::Ssy {
        target: Label::Pc(2),
    };
    let f = sass(
        vec![
            (ssy, false),
            (Op::Nop, false),
            (Op::Nop, false),
            (Op::Exit, false),
        ],
        &[],
    );
    let c = sasslive::cfg(&f);
    assert_eq!(starts(&c), [0, 2]);
    assert_eq!(c.succs[0], [1]);
    assert_eq!(c.block_of, [0, 0, 1, 1]);
}

#[test]
fn sass_jump_past_the_end_is_neither_leader_nor_edge() {
    let one = sass(vec![(bra(1), false)], &[]);
    let c = sasslive::cfg(&one);
    assert_eq!(starts(&c), [0]);
    assert!(c.succs[0].is_empty());
    let two = sass(vec![(bra(2), true), (Op::Exit, false)], &[]);
    let c = sasslive::cfg(&two);
    assert_eq!(starts(&c), [0, 1]);
    assert_eq!(c.succs[0], [1]);
    for f in [&one, &two] {
        let c = sasslive::cfg(f);
        assert_eq!(liveness(f, &c).live_in.len(), f.len());
        assert_eq!(postdominators(&c).len(), c.len());
    }
}

// ---- kernel IR -------------------------------------------------------

/// A kernel-IR function of `(op, guarded)` pairs, plus one label the
/// ops may name.
fn kir(ops: impl FnOnce(LabelId) -> Vec<(KOp, bool)>) -> KFunction {
    let mut b = KernelBuilder::kernel("k");
    let x = b.iconst(0);
    let p = b.setp_u32_lt(x, 1u32);
    let l = b.new_label();
    let mut f = b.finish();
    f.instrs = ops(l)
        .into_iter()
        .map(|(op, guarded)| {
            let mut ins = KInstr::new(op);
            if guarded {
                ins.guard = Some((p.vreg(), false));
            }
            ins
        })
        .collect();
    f
}

#[test]
fn kir_guarded_bra_has_two_successors_unguarded_one() {
    for (guarded, want) in [(true, vec![2, 1]), (false, vec![2])] {
        let f = kir(|l| {
            vec![
                (KOp::Bra { t: l }, guarded),
                (KOp::Nop, false),
                (KOp::Label { id: l }, false),
                (KOp::Exit, false),
            ]
        });
        let c = Cfg::build(&f);
        assert_eq!(starts(&c), [0, 1, 2]);
        assert_eq!(c.succs[0], want, "guarded = {guarded}");
    }
}

#[test]
fn kir_exit_and_ret_stop_unless_a_guarded_exit() {
    for (op, guarded, want) in [
        (KOp::Exit, false, vec![]),
        (KOp::Ret, false, vec![]),
        (KOp::Ret, true, vec![]),
        (KOp::Exit, true, vec![1]),
    ] {
        let f = kir(|_| vec![(op.clone(), guarded), (KOp::Exit, false)]);
        let c = Cfg::build(&f);
        assert_eq!(starts(&c), [0, 1]);
        assert_eq!(c.succs[0], want, "{op:?} guarded = {guarded}");
    }
}

#[test]
fn kir_sync_goes_to_its_reconvergence_label() {
    for (guarded, want) in [(false, vec![2]), (true, vec![2, 1])] {
        let f = kir(|l| {
            vec![
                (KOp::Sync { reconv: l }, guarded),
                (KOp::Nop, false),
                (KOp::Label { id: l }, false),
                (KOp::Exit, false),
            ]
        });
        let c = Cfg::build(&f);
        assert_eq!(starts(&c), [0, 1, 2]);
        assert_eq!(c.succs[0], want, "guarded = {guarded}");
    }
}

#[test]
fn kir_ssy_target_label_starts_a_block() {
    let f = kir(|l| {
        vec![
            (KOp::Ssy { t: l }, false),
            (KOp::Nop, false),
            (KOp::Label { id: l }, false),
            (KOp::Exit, false),
        ]
    });
    let c = Cfg::build(&f);
    assert_eq!(starts(&c), [0, 2]);
    assert_eq!(c.succs[0], [1]);
}

#[test]
fn out_of_range_targets_and_leaders_are_ignored() {
    for (target, guarded, want) in [(Some(5), false, vec![]), (Some(9), true, vec![1])] {
        let c = Cfg::from_flow(2, [7], |i| match i {
            0 => Flow::Jump { target, guarded },
            _ => Flow::Stop { guarded: false },
        });
        assert_eq!(starts(&c), [0, 1]);
        assert_eq!(c.succs[0], want);
    }
}
