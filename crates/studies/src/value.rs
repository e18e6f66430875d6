//! Case Study III: value profiling and analysis (paper §7, Figure 9
//! handler; regenerates Table 2).
//!
//! SASSI instruments *after* every instruction that writes a register.
//! The handler tracks, per static instruction and destination: which
//! bits were constant one / constant zero across every executing thread
//! (via `atomicAnd`-style accumulation), and whether every write in a
//! warp carried the same value (scalar detection via `__shfl`/`__all`).

use crate::{shard, Merge};
use parking_lot::Mutex;
use sassi::{Handler, HandlerCost, HandlerShard, InfoFlags, Sassi, SiteCtx, SiteFilter};
use sassi_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-destination accumulation (one register written by one static
/// instruction).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DstProfile {
    /// Destination register number.
    pub reg_num: u32,
    /// Bits that were 1 in every written value.
    pub constant_ones: u32,
    /// Bits that were 0 in every written value.
    pub constant_zeros: u32,
    /// Whether all warps so far wrote warp-uniform values.
    pub is_scalar: bool,
}

impl DstProfile {
    fn new(reg_num: u32) -> DstProfile {
        DstProfile {
            reg_num,
            constant_ones: u32::MAX,
            constant_zeros: u32::MAX,
            is_scalar: true,
        }
    }

    /// Number of bits constant (one or zero) across the profile.
    pub fn constant_bits(&self) -> u32 {
        (self.constant_ones | self.constant_zeros).count_ones()
    }
}

/// Per-instruction profile.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct InstrProfile {
    /// Dynamic execution count (warp-level invocations with at least
    /// one executing lane).
    pub weight: u64,
    /// Destination profiles.
    pub dsts: Vec<DstProfile>,
}

/// Shared accumulation state: `ins_addr → InstrProfile`.
#[derive(Default)]
pub struct ValueState {
    /// Per-instruction profiles.
    pub instrs: HashMap<u64, InstrProfile>,
}

/// Weights sum, bit masks and scalar flags AND together.
/// `DstProfile::new` starts at the AND identity (all-ones masks,
/// scalar), so destinations one side never saw merge exactly.
impl Merge for ValueState {
    fn merge(&mut self, other: &ValueState) {
        for (addr, prof) in &other.instrs {
            let e = self.instrs.entry(*addr).or_default();
            e.weight += prof.weight;
            for (d, src) in prof.dsts.iter().enumerate() {
                if let Some(dst) = e.dsts.get_mut(d) {
                    dst.constant_ones &= src.constant_ones;
                    dst.constant_zeros &= src.constant_zeros;
                    dst.is_scalar &= src.is_scalar;
                } else {
                    e.dsts.push(*src);
                }
            }
        }
    }
}

struct ValueHandler {
    state: Arc<Mutex<ValueState>>,
}

impl Handler for ValueHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        // Lanes whose guard passed actually wrote their destinations —
        // a ballot, kept as a mask (no per-trap allocation).
        let exec = ctx.ballot(|l| ctx.params(l).will_execute(ctx.trap));
        if exec == 0 {
            return HandlerCost {
                instructions: 8,
                memory_ops: 0,
                atomics: 0,
            };
        }
        let leader = exec.trailing_zeros() as usize;
        let rp = ctx
            .register_params(leader)
            .expect("register info requested");
        let n = rp.num_dsts(ctx.trap);
        if n == 0 {
            return HandlerCost {
                instructions: 8,
                memory_ops: 0,
                atomics: 0,
            };
        }
        let addr = ctx.params(leader).ins_addr(ctx.trap);
        let mut st = self.state.lock();
        let prof = st.instrs.entry(addr).or_default();
        prof.weight += 1;
        for d in 0..n {
            let reg_num = rp.reg_num(ctx.trap, d);
            if prof.dsts.len() <= d as usize {
                prof.dsts.push(DstProfile::new(reg_num));
            }
            let slot = &mut prof.dsts[d as usize];
            // int leaderValue = __shfl(valueInReg, firstActiveThread);
            let leader_value = sassi::RegisterParamsView::new(ctx.trap, leader).value(ctx.trap, d);
            let mut all_same = true;
            for lane in sassi_isa::lanes(exec) {
                let v = sassi::RegisterParamsView::new(ctx.trap, lane).value(ctx.trap, d);
                // atomicAnd(&constantOnes, v); atomicAnd(&constantZeros, ~v);
                slot.constant_ones &= v;
                slot.constant_zeros &= !v;
                all_same &= v == leader_value;
            }
            // atomicAnd(&isScalar, __all(v == leaderValue));
            slot.is_scalar &= all_same;
        }
        // Figure 9's loop costs ~14 instructions + 3 atomics per
        // destination, plus hashing overhead.
        HandlerCost {
            instructions: 12 + 14 * n,
            memory_ops: 2,
            atomics: 3 * n,
        }
    }

    fn fork(&self) -> Option<HandlerShard> {
        shard::fork(&self.state, |state| Box::new(ValueHandler { state }))
    }
}

/// One Table 2 row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ValueRow {
    /// Workload label.
    pub name: String,
    /// Dynamic % of register bits constant.
    pub dyn_const_bits: f64,
    /// Dynamic % of register writes that are scalar.
    pub dyn_scalar: f64,
    /// Static % of register bits constant.
    pub static_const_bits: f64,
    /// Static % of register writes that are scalar.
    pub static_scalar: f64,
}

/// Builds the Case Study III instrumentor sharing `state`.
pub fn instrumentor(state: Arc<Mutex<ValueState>>) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.on_after(
        SiteFilter::REG_WRITES,
        InfoFlags::REGISTERS,
        Box::new(ValueHandler { state }),
    );
    sassi
}

/// Runs Case Study III on one workload.
pub fn run(w: &dyn Workload) -> ValueRow {
    run_with_jobs(w, 1)
}

/// Runs Case Study III with `cta_jobs` inner worker threads per
/// launch. Results are byte-identical for any job count.
pub fn run_with_jobs(w: &dyn Workload, cta_jobs: usize) -> ValueRow {
    let st: ValueState = shard::run(w, cta_jobs, instrumentor);

    let (mut dyn_cb_num, mut dyn_cb_den) = (0f64, 0f64);
    let (mut dyn_sc_num, mut dyn_sc_den) = (0f64, 0f64);
    let (mut st_cb_num, mut st_cb_den) = (0f64, 0f64);
    let (mut st_sc_num, mut st_sc_den) = (0f64, 0f64);
    // Iterate in address order: HashMap order would vary between runs
    // and f64 accumulation is not associative, so unsorted iteration
    // can flip low bits of the ratios from run to run.
    let mut by_addr: Vec<(&u64, &InstrProfile)> = st.instrs.iter().collect();
    by_addr.sort_by_key(|(addr, _)| **addr);
    for (_, prof) in by_addr {
        for d in &prof.dsts {
            let cb = d.constant_bits() as f64;
            dyn_cb_num += prof.weight as f64 * cb;
            dyn_cb_den += prof.weight as f64 * 32.0;
            dyn_sc_num += prof.weight as f64 * (d.is_scalar as u32 as f64);
            dyn_sc_den += prof.weight as f64;
            st_cb_num += cb;
            st_cb_den += 32.0;
            st_sc_num += d.is_scalar as u32 as f64;
            st_sc_den += 1.0;
        }
    }
    let pct = |n: f64, d: f64| if d == 0.0 { 0.0 } else { 100.0 * n / d };
    ValueRow {
        name: w.name(),
        dyn_const_bits: pct(dyn_cb_num, dyn_cb_den),
        dyn_scalar: pct(dyn_sc_num, dyn_sc_den),
        static_const_bits: pct(st_cb_num, st_cb_den),
        static_scalar: pct(st_sc_num, st_sc_den),
    }
}

/// Renders the paper's per-instruction bit-pattern report (the
/// `R13* <- [0000...T]` listing of §7.2) for one instruction profile.
pub fn bit_pattern(d: &DstProfile) -> String {
    let mut s = String::with_capacity(40);
    s.push_str(&format!(
        "R{}{} <- [",
        d.reg_num,
        if d.is_scalar { "*" } else { "" }
    ));
    for bit in (0..32).rev() {
        let m = 1u32 << bit;
        if d.constant_ones & m != 0 {
            s.push('1');
        } else if d.constant_zeros & m != 0 {
            s.push('0');
        } else {
            s.push('T');
        }
    }
    s.push(']');
    s
}
