//! Case Study II: memory divergence (paper §6, Figure 6 handler;
//! regenerates Figures 7 and 8).
//!
//! SASSI instruments before every memory operation; the handler filters
//! to executing global accesses, computes each lane's 32-byte line
//! address, iteratively elects leaders to count unique lines (the
//! Figure 6 loop), and tallies a 32×32 matrix of (active lanes ×
//! unique lines).

use parking_lot::Mutex;
use sassi::{Handler, HandlerCost, InfoFlags, MemError, MemoryDomain, Sassi, SiteCtx, SiteFilter};
use sassi_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// 32-byte lines, as in the paper ("for this work, we use a 32B line
/// size").
pub const OFFSET_BITS: u32 = 5;

/// Shared accumulation state.
pub struct MemDivState {
    /// `counters[active-1][unique-1]`, the Figure 8 matrix.
    pub counters: Vec<[u64; 32]>,
}

impl Default for MemDivState {
    fn default() -> MemDivState {
        MemDivState {
            counters: vec![[0u64; 32]; 32],
        }
    }
}

impl MemDivState {
    /// The Figure 7 PMF: fraction of *thread-level* accesses issued
    /// from warps touching `n+1` unique lines (index `n`).
    pub fn pmf(&self) -> [f64; 32] {
        let mut weighted = [0f64; 32];
        let mut total = 0f64;
        for active in 0..32 {
            for (wslot, &count) in weighted.iter_mut().zip(&self.counters[active]) {
                let w = count as f64 * (active as f64 + 1.0);
                *wslot += w;
                total += w;
            }
        }
        if total > 0.0 {
            for w in &mut weighted {
                *w /= total;
            }
        }
        weighted
    }

    /// Fraction of accesses that are fully diverged (unique == active,
    /// active > 1) — the annotation above Figure 7's bars.
    pub fn fully_diverged_fraction(&self) -> f64 {
        let mut full = 0f64;
        let mut total = 0f64;
        for active in 1..32 {
            for unique in 0..32 {
                let w = self.counters[active][unique] as f64 * (active as f64 + 1.0);
                total += w;
                if unique == active {
                    full += w;
                }
            }
        }
        // Include active == 1 in the total only (a single lane cannot
        // be "diverged").
        for unique in 0..32 {
            total += self.counters[0][unique] as f64;
        }
        if total == 0.0 {
            0.0
        } else {
            full / total
        }
    }
}

struct MemDivHandler {
    state: Arc<Mutex<MemDivState>>,
}

impl Handler for MemDivHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        // An unreadable parameter object records a fault that ends the
        // launch; the access is then not tallied.
        let (line_addrs, num_active) = global_lines(ctx).unwrap_or(([0; 32], 0));
        if num_active == 0 {
            return HandlerCost {
                instructions: 10,
                memory_ops: 0,
                atomics: 0,
            };
        }
        // The leader-election loop of Figure 6: each iteration elects
        // the first not-yet-matched lane's address and knocks out its
        // matches. Counting an address only at its first occurrence is
        // the same count, computed in place (no workset copy).
        let mut unique = 0usize;
        for i in 0..num_active {
            if line_addrs[..i].iter().all(|&a| a != line_addrs[i]) {
                unique += 1;
            }
        }
        let mut st = self.state.lock();
        st.counters[num_active - 1][unique - 1] += 1;
        // Cost model: the Figure 6 loop runs once per unique line (~6
        // instructions per iteration) plus fixed overhead and the tally.
        HandlerCost {
            instructions: 14 + 6 * unique as u32,
            memory_ops: 1,
            atomics: 1,
        }
    }
}

/// Figure 6's filter: the 32-byte line address of each lane whose
/// guard passes and whose access is global, in lane order, and how many
/// there are. At most one per lane, so the workset lives on the stack.
fn global_lines(ctx: &SiteCtx<'_, '_>) -> Result<([u64; 32], usize), MemError> {
    let exec = ctx.warp_params().will_execute(ctx.trap)?;
    let mp = ctx.warp_memory_params().expect("memory info requested");
    // The __isGlobal filter.
    let global = mp.in_domain(ctx.trap, exec, MemoryDomain::Global)?;
    let addrs = mp.addresses(ctx.trap, global)?;
    let mut line_addrs = [0u64; 32];
    for (i, lane) in sassi_isa::lanes(global).enumerate() {
        line_addrs[i] = addrs[lane] >> OFFSET_BITS;
    }
    Ok((line_addrs, global.count_ones() as usize))
}

/// The study result for one workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemDivStudy {
    /// Workload label.
    pub name: String,
    /// Figure 7 PMF (index n = n+1 unique lines).
    pub pmf: Vec<f64>,
    /// Fully-diverged fraction annotation.
    pub fully_diverged: f64,
    /// Figure 8 matrix: `matrix[active-1][unique-1]` counts.
    pub matrix: Vec<Vec<u64>>,
}

/// Builds the Case Study II instrumentor sharing `state`.
pub fn instrumentor(state: Arc<Mutex<MemDivState>>) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::MEMORY,
        Box::new(MemDivHandler { state }),
    );
    sassi
}

/// Runs Case Study II on one workload.
pub fn run(w: &dyn Workload) -> MemDivStudy {
    let st: MemDivState = crate::run(w, instrumentor);
    MemDivStudy {
        name: w.name(),
        pmf: st.pmf().to_vec(),
        fully_diverged: st.fully_diverged_fraction(),
        matrix: st.counters.iter().map(|r| r.to_vec()).collect(),
    }
}
