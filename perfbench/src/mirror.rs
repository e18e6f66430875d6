//! The parts of the public study entry points that the traced run must
//! re-enact to put spans around each layer.
//!
//! `branch::run`, `value::run` and `inject::run_one` build their runtime
//! inside the call, so a traced run cannot hook its launches. The traced
//! run instead drives the same public pieces (`instrumentor`,
//! `ModuleBuilder`, `Runtime`, `Workload::execute`) itself and derives
//! the result here, exactly as those functions do. The benchmark checks
//! every traced result against the untraced call's result (the digests
//! must match), so a drift between this file and the study crate shows
//! up as a correctness failure, not as a silently different workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sassi::{Handler, HandlerCost, InfoFlags, Sassi, SiteCtx, SiteFilter};
use sassi_isa::Gpr;
use sassi_studies::branch::{BranchRow, BranchState, BranchStats, BranchStudy};
use sassi_studies::inject::{InjectionSite, Outcome};
use sassi_studies::memdiv::{MemDivState, MemDivStudy};
use sassi_studies::value::{InstrProfile, ValueRow, ValueState};
use sassi_workloads::{RunFailure, Workload, WorkloadOutput};

/// Static conditional branches of `w`'s uninstrumented binaries, as
/// `branch::run` counts them.
pub fn branch_static_total(w: &dyn Workload) -> u64 {
    w.kernels()
        .iter()
        .map(|k| {
            let f = sassi_kir::Compiler::new().compile(k).expect("compile");
            f.instrs
                .iter()
                .filter(|i| i.class().is_cond_control_xfer())
                .count() as u64
        })
        .sum()
}

/// The Case Study I result from its accumulated state.
pub fn branch_study(name: String, static_total: u64, st: &BranchState) -> BranchStudy {
    let mut per_branch: Vec<(u64, BranchStats)> =
        st.branches.iter().map(|(a, s)| (*a, *s)).collect();
    per_branch.sort_by(|a, b| {
        b.1.total_branches
            .cmp(&a.1.total_branches)
            .then(a.0.cmp(&b.0))
    });
    let dynamic_total = per_branch.iter().map(|(_, s)| s.total_branches).sum();
    let dynamic_divergent = per_branch.iter().map(|(_, s)| s.divergent_branches).sum();
    let static_divergent = per_branch
        .iter()
        .filter(|(_, s)| s.divergent_branches > 0)
        .count() as u64;
    BranchStudy {
        row: BranchRow {
            name,
            static_total,
            static_divergent,
            dynamic_total,
            dynamic_divergent,
        },
        per_branch,
    }
}

/// The Case Study II result from its accumulated state.
pub fn memdiv_study(name: String, st: &MemDivState) -> MemDivStudy {
    MemDivStudy {
        name,
        pmf: st.pmf().to_vec(),
        fully_diverged: st.fully_diverged_fraction(),
        matrix: st.counters.iter().map(|r| r.to_vec()).collect(),
    }
}

/// The Case Study III row from its accumulated state.
pub fn value_row(name: String, st: &ValueState) -> ValueRow {
    let (mut dyn_cb_num, mut dyn_cb_den) = (0f64, 0f64);
    let (mut dyn_sc_num, mut dyn_sc_den) = (0f64, 0f64);
    let (mut st_cb_num, mut st_cb_den) = (0f64, 0f64);
    let (mut st_sc_num, mut st_sc_den) = (0f64, 0f64);
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
        name,
        dyn_const_bits: pct(dyn_cb_num, dyn_cb_den),
        dyn_scalar: pct(dyn_sc_num, dyn_sc_den),
        static_const_bits: pct(st_cb_num, st_cb_den),
        static_scalar: pct(st_sc_num, st_sc_den),
    }
}

/// The error-injection instrumentor `inject::run_one` builds for `site`.
pub fn inject_instrumentor(site: InjectionSite) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.on_after(
        SiteFilter::REG_WRITES | SiteFilter::PRED_WRITES,
        InfoFlags::REGISTERS,
        Box::new(InjectHandler {
            site,
            counter: 0,
            done: false,
        }),
    );
    sassi
}

/// Flips one bit in one destination of the selected dynamic
/// instruction, drawing destination and bit as `inject::run_one` does.
struct InjectHandler {
    site: InjectionSite,
    counter: u64,
    done: bool,
}

impl Handler for InjectHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        let cost = HandlerCost {
            instructions: 8,
            memory_ops: 0,
            atomics: 0,
        };
        if self.done || ctx.trap.launch_index != self.site.launch {
            return cost;
        }
        let exec = ctx.ballot(|l| ctx.params(l).will_execute(ctx.trap));
        let n = u64::from(exec.count_ones());
        if self.counter + n <= self.site.nth {
            self.counter += n;
            return cost;
        }
        let lane = sassi_isa::lanes(exec)
            .nth((self.site.nth - self.counter) as usize)
            .expect("selected execution index within executing mask");
        self.counter += n;
        self.done = true;

        let mut rng = StdRng::seed_from_u64(self.site.seed);
        let rp = sassi::RegisterParamsView::new(ctx.trap, lane);
        let ngpr = rp.num_dsts(ctx.trap);
        let pred_mask = rp.pred_dst_mask(ctx.trap);
        let writes_cc = rp.writes_cc(ctx.trap);
        // GPR destinations, then predicates (100 + k), then CC (200).
        let mut kinds = [0u32; 12];
        let mut nk = 0usize;
        for g in 0..ngpr {
            kinds[nk] = g;
            nk += 1;
        }
        for p in 0..pred_mask.count_ones() {
            kinds[nk] = 100 + p;
            nk += 1;
        }
        if writes_cc {
            kinds[nk] = 200;
            nk += 1;
        }
        if nk == 0 {
            return cost;
        }
        let choice = kinds[rng.gen_range(0..nk)];
        if choice < 100 {
            let reg = Gpr::new(rp.reg_num(ctx.trap, choice) as u8);
            let bit: u32 = rng.gen_range(0..32);
            let old = ctx.trap.reg(lane, reg);
            ctx.trap.set_reg(lane, reg, old ^ (1 << bit));
        } else if choice < 200 {
            // The (choice - 100)'th set bit of the predicate mask.
            let target = (0..7u8)
                .filter(|p| pred_mask & (1 << p) != 0)
                .nth((choice - 100) as usize)
                .unwrap_or(0);
            let p = sassi_isa::PredReg::new(target);
            let old = ctx.trap.pred(lane, p);
            ctx.trap.set_pred(lane, p, !old);
        } else {
            let old = ctx.trap.cc(lane);
            ctx.trap.set_cc(lane, !old);
        }
        cost
    }
}

/// Figure 10's classification of one injected run, as `inject::run_one`
/// makes it.
pub fn classify(output: Result<WorkloadOutput, RunFailure>, golden: &WorkloadOutput) -> Outcome {
    match output {
        Err(RunFailure::Hang) => Outcome::Hang,
        Err(RunFailure::Fault(f)) => match f.kind {
            sassi_sim::FaultKind::StackViolation { .. }
            | sassi_sim::FaultKind::SharedViolation { .. } => Outcome::FailureSymptom,
            _ => Outcome::Crash,
        },
        Err(RunFailure::Launch(_)) => Outcome::Crash,
        Ok(out) => {
            if out.buffers != golden.buffers {
                Outcome::SdcOutputFile
            } else if out.summary != golden.summary {
                Outcome::SdcStdoutOnly
            } else {
                Outcome::Masked
            }
        }
    }
}
