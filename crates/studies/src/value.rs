//! Case Study III: value profiling and analysis (paper §7, Figure 9
//! handler; regenerates Table 2).
//!
//! SASSI instruments *after* every instruction that writes a register.
//! The handler tracks, per static instruction and destination: which
//! bits were constant one / constant zero across every executing thread
//! (via `atomicAnd`-style accumulation), and whether every write in a
//! warp carried the same value (scalar detection via `__shfl`/`__all`).

use parking_lot::Mutex;
use sassi::{Handler, HandlerCost, InfoFlags, MemError, Sassi, SiteCtx, SiteFilter};
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

struct ValueHandler {
    state: Arc<Mutex<ValueState>>,
}

impl Handler for ValueHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        // An unreadable parameter object records a fault that ends the
        // launch.
        match self.profile(ctx) {
            Ok(n) if n > 0 => {
                // Figure 9's loop costs ~14 instructions + 3 atomics per
                // destination, plus hashing overhead.
                HandlerCost {
                    instructions: 12 + 14 * n,
                    memory_ops: 2,
                    atomics: 3 * n,
                }
            }
            _ => HandlerCost {
                instructions: 8,
                memory_ops: 0,
                atomics: 0,
            },
        }
    }
}

impl ValueHandler {
    /// Profiles the destinations the executing lanes wrote; returns how
    /// many (0 when no lane executed or nothing was written).
    fn profile(&self, ctx: &SiteCtx<'_, '_>) -> Result<u32, MemError> {
        // Lanes whose guard passed actually wrote their destinations.
        let bp = ctx.warp_params();
        let exec = bp.will_execute(ctx.trap)?;
        if exec == 0 {
            return Ok(0);
        }
        let leader = exec.trailing_zeros() as usize;
        let rp = ctx.warp_register_params().expect("register info requested");
        let n = rp.num_dsts(ctx.trap, leader)?;
        if n == 0 {
            return Ok(0);
        }
        let addr = bp.ins_addr(ctx.trap, leader)?;
        let mut st = self.state.lock();
        let prof = st.instrs.entry(addr).or_default();
        prof.weight += 1;
        for d in 0..n {
            let reg_num = rp.reg_num(ctx.trap, leader, d)?;
            if prof.dsts.len() <= d as usize {
                prof.dsts.push(DstProfile::new(reg_num));
            }
            let slot = &mut prof.dsts[d as usize];
            let values = rp.values(ctx.trap, exec, d)?;
            // atomicAnd(&constantOnes, v); atomicAnd(&constantZeros, ~v);
            // and every value equals the leader's __shfl exactly when the
            // lanes' AND equals their OR.
            let (mut all, mut any) = (u32::MAX, 0);
            for lane in sassi_isa::lanes(exec) {
                all &= values[lane];
                any |= values[lane];
            }
            slot.constant_ones &= all;
            slot.constant_zeros &= !any;
            // atomicAnd(&isScalar, __all(v == leaderValue));
            slot.is_scalar &= all == any;
        }
        Ok(n)
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
    let st: ValueState = crate::run(w, instrumentor);

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
