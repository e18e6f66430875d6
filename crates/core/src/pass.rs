//! The instrumentation pass: rewrites a compiled function, injecting a
//! trampoline at every site matched by the active specifications.
//!
//! Runs as the backend compiler's *final pass* (paper Figure 1): code
//! generation, scheduling and register allocation of the original
//! kernel are already done and are not perturbed — the pass only
//! interleaves trampolines and relocates branch targets and metadata.

use crate::spec::{InstPoint, InstrumentSpec, SiteFilter, SpillPolicy};
use crate::trampoline::{emit, saved_gprs, Site};
use sassi_isa::{Function, FunctionMeta, Instr, Label, Op, RegSet};
use sassi_kir::{sasslive, Cfg};
use std::collections::BTreeMap;

fn is_exit(ins: &Instr) -> bool {
    matches!(ins.op, Op::Exit)
}

fn matches_before(spec: &InstrumentSpec, ins: &Instr, pc: usize, cfg: &Cfg) -> bool {
    if spec.point != InstPoint::Before {
        return false;
    }
    if spec.filter.matches(ins) {
        return true;
    }
    (spec.filter.contains(SiteFilter::KERNEL_ENTRY) && pc == 0)
        || (spec.filter.contains(SiteFilter::BB_HEADERS)
            && pc == cfg.blocks[cfg.block_of[pc]].start)
        || (spec.filter.contains(SiteFilter::KERNEL_EXIT) && is_exit(ins))
}

fn matches_after(spec: &InstrumentSpec, ins: &Instr) -> bool {
    spec.point == InstPoint::After
        && spec.filter.matches(ins)
        // "after all instructions other than branches and jumps": no
        // after-instrumentation on control transfers.
        && !ins.class().is_control_xfer()
}

/// One site `specs` match in a function: the original instruction's
/// pc, the spec that matched (its `point` says which side of the
/// instruction the trampoline goes) and the registers live there —
/// live-in before the instruction, live-out after it.
struct Matched<'a> {
    pc: usize,
    spec: &'a InstrumentSpec,
    live: RegSet,
}

/// Every site `specs` match in `func`, in the order [`instrument`]
/// emits them: by pc, an instruction's `Before` sites in spec order,
/// then its `After` sites in spec order.
fn sites<'a>(func: &Function, specs: &'a [InstrumentSpec]) -> Vec<Matched<'a>> {
    let cfg = sasslive::cfg(func);
    let lv = sasslive::liveness(func, &cfg);
    let mut out = Vec::new();
    for (pc, ins) in func.instrs.iter().enumerate() {
        let before = specs
            .iter()
            .filter(|s| matches_before(s, ins, pc, &cfg))
            .map(|spec| Matched {
                pc,
                spec,
                live: lv.live_in[pc],
            });
        let after = specs
            .iter()
            .filter(|s| matches_after(s, ins))
            .map(|spec| Matched {
                pc,
                spec,
                live: lv.live_out[pc],
            });
        out.extend(before.chain(after));
    }
    out
}

/// Instruments `func` according to `specs`, saving registers around
/// each handler call as `policy` says. `fn_addr` is a unique base
/// address assigned to the function (used by handlers to form global
/// instruction addresses).
///
/// The returned function contains the original instructions, unchanged
/// and in their original order, with ABI trampolines interleaved;
/// branch targets and reconvergence metadata are relocated accordingly.
pub(crate) fn instrument(
    func: &Function,
    specs: &[InstrumentSpec],
    fn_addr: u32,
    policy: SpillPolicy,
) -> Function {
    if specs.is_empty() {
        return func.clone();
    }
    let n = func.instrs.len();

    let mut out: Vec<Instr> = Vec::with_capacity(n * 4);
    let mut new_start = vec![0u32; n + 1];
    let mut instr_pos = vec![0u32; n];
    let mut sites = sites(func, specs).into_iter().peekable();
    let mut site_id = 0u32;
    // Emits the trampolines of instruction `pc`'s sites at `point`.
    let mut emit_sites = |out: &mut Vec<Instr>, pc: usize, ins: &Instr, point: InstPoint| {
        while let Some(m) = sites.next_if(|m| m.pc == pc && m.spec.point == point) {
            let site = Site {
                ins,
                pc: pc as u32,
                fn_addr,
                site_id,
                live: &m.live,
                policy,
                what: m.spec.what,
                handler: m.spec.handler,
            };
            site_id += 1;
            emit(out, &site);
        }
    };

    for (pc, ins) in func.instrs.iter().enumerate() {
        new_start[pc] = out.len() as u32;
        emit_sites(&mut out, pc, ins, InstPoint::Before);
        instr_pos[pc] = out.len() as u32;
        out.push(ins.clone());
        emit_sites(&mut out, pc, ins, InstPoint::After);
    }
    new_start[n] = out.len() as u32;

    // Relocate in-function branch/SSY targets (original instructions
    // only — trampolines contain no Pc labels). A target past the end
    // stays the same distance past the new end, and faults as before.
    let new_len = out.len() as u32;
    for ins in &mut out {
        match &mut ins.op {
            Op::Bra {
                target: Label::Pc(t),
                ..
            }
            | Op::Ssy {
                target: Label::Pc(t),
            } => {
                *t = match new_start.get(*t as usize) {
                    Some(&s) => s,
                    None => *t - n as u32 + new_len,
                };
            }
            _ => {}
        }
    }

    let mut sync_reconv = BTreeMap::new();
    for (&sync_pc, &reconv) in &func.meta.sync_reconv {
        sync_reconv.insert(instr_pos[sync_pc as usize], new_start[reconv as usize]);
    }
    let meta = FunctionMeta {
        sync_reconv,
        frame_bytes: func.meta.frame_bytes,
        shared_bytes: func.meta.shared_bytes,
        reg_high_water: func.meta.reg_high_water.max(16),
        uses_barrier: func.meta.uses_barrier,
    };
    Function::new(func.name.clone(), out, meta)
}

/// Counts the sites `specs` would instrument in `func`, without
/// rewriting (used for overhead prediction and tests).
pub(crate) fn count_sites(func: &Function, specs: &[InstrumentSpec]) -> usize {
    sites(func, specs).len()
}

/// Returns the registers SASSI would save under `policy` at each
/// matched site, in instrumentation order — exposed for the ablation
/// study comparing liveness-driven spilling against save-everything.
pub fn planned_spills(
    func: &Function,
    specs: &[InstrumentSpec],
    policy: SpillPolicy,
) -> Vec<(u32, RegSet)> {
    sites(func, specs)
        .iter()
        .map(|m| (m.pc as u32, saved_gprs(&m.live, policy)))
        .collect()
}
