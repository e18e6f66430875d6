//! # sassi-studies — the paper's four case studies
//!
//! Each module reproduces one section of the evaluation in *Flexible
//! Software Profiling of GPU Architectures* (ISCA 2015):
//!
//! | Module | Paper | Regenerates |
//! |---|---|---|
//! | [`branch`] | §5, Figure 4 handler | Table 1, Figure 5 |
//! | [`memdiv`] | §6, Figure 6 handler | Figures 7 and 8 |
//! | [`value`] | §7, Figure 9 handler | Table 2 |
//! | [`inject`] | §8 | Figure 10 |
//! | [`overhead`] | §9.1 | Table 3 + stub ablation |
//!
//! All studies run real workloads from [`sassi_workloads`] with real
//! SASSI instrumentation from [`sassi`]; the handlers mirror the
//! paper's CUDA handlers line by line (ballots, leader election,
//! per-instruction hash tables, atomic accumulation).
//!
//! A study handler accumulates into `Arc<Mutex<S>>`. A launch under a
//! [`Sassi`] runtime runs its CTA shards in order on the launching
//! thread, so the lock is never contended. It stays because perfbench
//! builds the study instrumentors around state it reads back itself
//! (each module's `instrumentor`), until ROADMAP item 3 settles how a
//! handler holds its state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod inject;
pub mod memdiv;
pub mod overhead;
pub mod report;
pub mod value;

use parking_lot::Mutex;
use sassi::Sassi;
use sassi_workloads::{execute, Workload};
use std::sync::Arc;

/// Runs `w` under the instrumentor `build` makes around a fresh `S`
/// and returns the state the handlers accumulated.
///
/// # Panics
///
/// Panics if the instrumented run does not complete.
fn run<S: Default>(w: &dyn Workload, build: fn(Arc<Mutex<S>>) -> Sassi) -> S {
    let state = Arc::new(Mutex::new(S::default()));
    let mut sassi = build(state.clone());
    let report = execute(w, Some(&mut sassi), None);
    assert!(
        report.output.is_ok(),
        "{}: {:?}",
        w.name(),
        report.output.err()
    );
    let st = std::mem::take(&mut *state.lock());
    st
}

#[cfg(test)]
mod tests {
    //! Each ported handler accumulates the same state, and its app
    //! computes the same output in the same cycles, whether the handler
    //! reads its parameter objects as slab rows or lane by lane.

    use super::*;
    use crate::{branch, inject, memdiv, value};
    use sassi::{layout, HandlerCost, TrapCtx, TrapRef, TrapSite};
    use sassi_isa::{lanes, resolve_generic, AddrSpace, Gpr};
    use sassi_rt::{LaunchRecord, ModuleBuilder, Runtime};
    use sassi_sim::HandlerRuntime;
    use sassi_workloads::{by_name, RunFailure, WorkloadOutput};
    use serde::Serialize;
    use std::collections::{BTreeMap, HashMap};

    /// Runs `sassi`, and with `scatter` first copies each odd active
    /// lane's parameter objects `SHIFT` bytes further down that lane's
    /// stack and points the lane's pointer pairs at the copies. The
    /// pointers then differ between lanes, so every warp view reads lane
    /// by lane. After the handler the slab and the pointers are restored,
    /// keeping any bits the handler flipped in a pointer.
    struct Scatter<'s> {
        sassi: &'s mut Sassi,
        scatter: bool,
        /// Traps whose handler read its objects lane by lane.
        per_lane: u64,
    }

    const SHIFT: u64 = 0x100;

    impl HandlerRuntime for Scatter<'_> {
        fn bind_sites(&mut self, sites: &[TrapSite]) {
            self.sassi.bind_sites(sites);
        }

        fn handle(&mut self, trap: TrapRef, ctx: &mut TrapCtx<'_>) -> HandlerCost {
            let mut moved = Vec::new();
            let odd = lanes(ctx.active_mask()).filter(|lane| lane % 2 == 1);
            for lane in odd.take_while(|_| self.scatter) {
                // The before/after object, and the extra object after it.
                for (idx, size) in [(0, layout::BEFORE_SIZE), (1, layout::REG_SIZE)] {
                    let ptr = ctx.abi_param(lane, idx);
                    let Some((AddrSpace::Local, off)) = resolve_generic(ptr) else {
                        continue;
                    };
                    // The extra object may end closer to the slab top.
                    let size =
                        (size as u64).min(u64::from(ctx.warp.local_bytes()).saturating_sub(off));
                    let (mut obj, mut under) = (vec![0; size as usize], vec![0; size as usize]);
                    assert!(off >= SHIFT && ctx.warp.read_local(lane, off, &mut obj));
                    assert!(ctx.warp.read_local(lane, off - SHIFT, &mut under));
                    assert!(ctx.warp.write_local(lane, off - SHIFT, &obj));
                    let pair = Gpr::new(4 + 2 * idx);
                    ctx.warp.set_reg64(lane, pair, ptr - SHIFT);
                    moved.push((lane, pair, ptr, under));
                }
            }
            if !ctx.param_base(0).is_row() {
                self.per_lane += 1;
            }
            let cost = self.sassi.handle(trap, ctx);
            for (lane, pair, ptr, under) in moved.into_iter().rev() {
                let at = resolve_generic(ptr - SHIFT).unwrap().1;
                assert!(ctx.warp.write_local(lane, at, &under));
                let flipped = ctx.warp.reg64(lane, pair) ^ (ptr - SHIFT);
                ctx.warp.set_reg64(lane, pair, ptr ^ flipped);
            }
            cost
        }
    }

    /// Runs app `app` under the instrumentor `build` makes around a
    /// fresh `S`, with and without scattered objects, and checks that
    /// the two runs agree on the output, every launch record and the
    /// state `digest` renders.
    fn check<S: Default>(
        app: &str,
        build: impl Fn(Arc<Mutex<S>>) -> Sassi,
        digest: fn(&S) -> String,
    ) {
        let w = by_name(app).unwrap();
        let [rows, per_lane] = [false, true].map(|scatter| {
            let state = Arc::new(Mutex::new(S::default()));
            let mut sassi = build(state.clone());
            let mut mb = ModuleBuilder::new();
            for k in w.kernels() {
                mb.add_kernel(k);
            }
            let module = mb.build(Some(&sassi)).expect("build");
            let mut rt = Runtime::with_defaults();
            let mut runtime = Scatter {
                sassi: &mut sassi,
                scatter,
                per_lane: 0,
            };
            let out: Result<WorkloadOutput, RunFailure> = w.execute(&mut rt, &module, &mut runtime);
            let records: Vec<LaunchRecord> = rt.records().to_vec();
            let per_lane = runtime.per_lane;
            let st = digest(&state.lock());
            (out, records, per_lane, st)
        });
        assert_eq!(rows.2, 0, "{app}: the trampoline's objects are rows");
        assert!(per_lane.2 > 0, "{app}: no trap read lane by lane");
        assert_eq!(rows.0, per_lane.0, "{app}: output differs");
        assert_eq!(rows.1, per_lane.1, "{app}: launch records differ");
        assert_eq!(rows.3, per_lane.3, "{app}: study state differs");
    }

    /// JSON of a map keyed by instruction address, in address order.
    fn ordered<T: Serialize>(m: &HashMap<u64, T>) -> String {
        serde_json::to_string(&m.iter().collect::<BTreeMap<_, _>>()).unwrap()
    }

    #[test]
    fn study_handlers_agree_on_row_and_per_lane_reads() {
        check("hotspot", branch::instrumentor, |s| ordered(&s.branches));
        check("hotspot", memdiv::instrumentor, |s| {
            format!("{:?}", s.counters)
        });
        check("hotspot", value::instrumentor, |s| ordered(&s.instrs));
        check("nn", inject::profile_instrumentor, |s| {
            format!("{:?}", s.per_launch)
        });
        let w = by_name("nn").unwrap();
        let (space, _) = inject::profile(w.as_ref());
        for site in inject::select_sites(&space, 4, 7, &w.name()) {
            check(
                "nn",
                |_: Arc<Mutex<()>>| inject::injector(site),
                |_| String::new(),
            );
        }
    }
}
