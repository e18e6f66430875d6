//! Case Study I: conditional control flow (paper §5, Figure 4 handler;
//! regenerates Table 1 and Figure 5).
//!
//! SASSI instruments before every conditional branch, and the handler
//! — mirroring Figure 4 line by line — ballots the lanes' directions,
//! elects the first active thread, and accumulates per-branch counters
//! in a hash table keyed by the instruction's address.

use crate::{shard, Merge};
use parking_lot::Mutex;
use sassi::{Handler, HandlerCost, HandlerShard, InfoFlags, Sassi, SiteCtx, SiteFilter};
use sassi_workloads::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Counters for one static branch (the paper's `BranchStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Times the branch executed (warp-level).
    pub total_branches: u64,
    /// Times it split the warp.
    pub divergent_branches: u64,
    /// Active threads summed over executions.
    pub active_threads: u64,
    /// Threads that took the branch.
    pub taken_threads: u64,
    /// Threads that fell through.
    pub taken_not_threads: u64,
}

/// Shared accumulation state: `ins_addr → BranchStats`.
#[derive(Default)]
pub struct BranchState {
    /// Per-branch counters.
    pub branches: HashMap<u64, BranchStats>,
}

/// Every field is an entry-wise sum.
impl Merge for BranchState {
    fn merge(&mut self, other: &BranchState) {
        for (addr, s) in &other.branches {
            let e = self.branches.entry(*addr).or_default();
            e.total_branches += s.total_branches;
            e.divergent_branches += s.divergent_branches;
            e.active_threads += s.active_threads;
            e.taken_threads += s.taken_threads;
            e.taken_not_threads += s.taken_not_threads;
        }
    }
}

struct BranchHandler {
    state: Arc<Mutex<BranchState>>,
}

impl Handler for BranchHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        // int active = __ballot(1);
        let active = ctx.active_mask();
        // int taken = __ballot(dir == true);
        let taken = ctx.ballot(|lane| {
            ctx.branch_params(lane)
                .expect("branch info requested")
                .direction(ctx.trap)
        });
        let ntaken = active & !taken;
        let num_active = active.count_ones() as u64;
        let num_taken = taken.count_ones() as u64;
        let num_not_taken = ntaken.count_ones() as u64;
        // The first active thread records the result.
        if let Some(leader) = ctx.leader() {
            let addr = ctx.params(leader).ins_addr(ctx.trap);
            let mut st = self.state.lock();
            let s = st.branches.entry(addr).or_default();
            s.total_branches += 1;
            s.active_threads += num_active;
            s.taken_threads += num_taken;
            s.taken_not_threads += num_not_taken;
            if num_taken != num_active && num_not_taken != num_active {
                s.divergent_branches += 1;
            }
        }
        // Figure 4's handler compiles to roughly this much SASS under
        // the 16-register cap: ballots, popcounts, hash-table probe and
        // five atomic adds.
        HandlerCost {
            instructions: 28,
            memory_ops: 2,
            atomics: 5,
        }
    }

    fn fork(&self) -> Option<HandlerShard> {
        shard::fork(&self.state, |state| Box::new(BranchHandler { state }))
    }
}

/// One Table 1 row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BranchRow {
    /// Benchmark (dataset) label.
    pub name: String,
    /// Static conditional branches in the binary.
    pub static_total: u64,
    /// Static branches that diverged at least once.
    pub static_divergent: u64,
    /// Dynamic (runtime) branch executions.
    pub dynamic_total: u64,
    /// Dynamic executions that split the warp.
    pub dynamic_divergent: u64,
}

impl BranchRow {
    /// Static divergent percentage.
    pub fn static_pct(&self) -> f64 {
        pct(self.static_divergent, self.static_total)
    }

    /// Dynamic divergent percentage.
    pub fn dynamic_pct(&self) -> f64 {
        pct(self.dynamic_divergent, self.dynamic_total)
    }
}

fn pct(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        100.0 * a as f64 / b as f64
    }
}

/// Full study result for one workload: the table row plus per-branch
/// counters for Figure 5.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BranchStudy {
    /// The Table 1 row.
    pub row: BranchRow,
    /// Per-branch statistics, sorted by descending execution count
    /// (Figure 5's x-axis order).
    pub per_branch: Vec<(u64, BranchStats)>,
}

/// Builds the Case Study I instrumentor sharing `state`.
pub fn instrumentor(state: Arc<Mutex<BranchState>>) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::COND_BRANCHES,
        InfoFlags::COND_BRANCH,
        Box::new(BranchHandler { state }),
    );
    sassi
}

/// Runs Case Study I on one workload.
pub fn run(w: &dyn Workload) -> BranchStudy {
    run_with_jobs(w, 1)
}

/// Runs Case Study I with `cta_jobs` inner worker threads per launch.
/// Results are byte-identical for any job count.
pub fn run_with_jobs(w: &dyn Workload, cta_jobs: usize) -> BranchStudy {
    // Static totals come from the compiled, uninstrumented binaries —
    // exactly what SASSI sees as the final compiler pass.
    let static_total: u64 = w
        .kernels()
        .iter()
        .map(|k| {
            let f = sassi_kir::Compiler::new().compile(k).expect("compile");
            f.instrs
                .iter()
                .filter(|i| i.class().is_cond_control_xfer())
                .count() as u64
        })
        .sum();

    let st: BranchState = shard::run(w, cta_jobs, instrumentor);
    let mut per_branch: Vec<(u64, BranchStats)> =
        st.branches.iter().map(|(a, s)| (*a, *s)).collect();
    // Tie-break on address: `st.branches` is a HashMap, so equal
    // counts would otherwise surface in nondeterministic order and
    // break byte-identical reports across runs.
    per_branch.sort_by(|a, b| {
        b.1.total_branches
            .cmp(&a.1.total_branches)
            .then(a.0.cmp(&b.0))
    });
    let dynamic_total: u64 = per_branch.iter().map(|(_, s)| s.total_branches).sum();
    let dynamic_divergent: u64 = per_branch.iter().map(|(_, s)| s.divergent_branches).sum();
    let static_divergent = per_branch
        .iter()
        .filter(|(_, s)| s.divergent_branches > 0)
        .count() as u64;

    BranchStudy {
        row: BranchRow {
            name: w.name(),
            static_total,
            static_divergent,
            dynamic_total,
            dynamic_divergent,
        },
        per_branch,
    }
}
