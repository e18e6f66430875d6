//! Instrumentation combinations: multiple specs on one site, before +
//! after together, kernel-exit sites, instrumenting register-capped
//! (spill-heavy) kernels, sites whose original instruction is
//! predicated off for every lane, and traps naming a handler id that
//! was never registered.

use parking_lot::Mutex;
use sassi::{FnHandler, Handler, HandlerCost, InfoFlags, InstPoint, Sassi, SiteCtx, SiteFilter};
use sassi_isa::{FunctionMeta, Instr, Label, Op};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, ExecMode, LaunchDims, Module};
use std::sync::Arc;
use std::thread::ThreadId;

fn run(func: sassi_isa::Function, sassi: &mut Sassi, out_words: u64) -> (Vec<u32>, u64) {
    let name = func.name.clone();
    let module = Module::link(&[func]).unwrap();
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(out_words * 4, 8).unwrap();
    let res = dev
        .launch(
            &module,
            &name,
            LaunchDims::linear(1, 32),
            &[out],
            sassi,
            0,
            1 << 30,
        )
        .unwrap();
    assert!(res.is_ok(), "{:?}", res.outcome);
    let vals = (0..out_words)
        .map(|i| dev.mem.read_u32(out + 4 * i).unwrap())
        .collect();
    (vals, res.stats.handler_calls)
}

fn simple_kernel() -> sassi_isa::Function {
    let mut b = KernelBuilder::kernel("k");
    let tid = b.global_tid_x();
    let out = b.param_ptr(0);
    let v = b.imul(tid, 5u32);
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, v);
    Compiler::new().compile(&b.finish()).unwrap()
}

#[test]
fn before_and_after_on_the_same_instruction() {
    let order = Arc::new(Mutex::new(Vec::<(InstPoint, u64)>::new()));
    let mut sassi = Sassi::new();
    let o1 = order.clone();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |site| {
            if let Some(l) = site.leader() {
                o1.lock()
                    .push((site.point, site.params(l).ins_offset(site.trap) as u64));
            }
        })),
    );
    let o2 = order.clone();
    sassi.on_after(
        SiteFilter::MEMORY,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |site| {
            if let Some(l) = site.leader() {
                o2.lock()
                    .push((site.point, site.params(l).ins_offset(site.trap) as u64));
            }
        })),
    );
    let func = sassi.apply(&simple_kernel(), 0);
    let (vals, calls) = run(func, &mut sassi, 32);
    assert_eq!(vals[9], 45);
    assert_eq!(calls, 2, "one before + one after trap");
    let order = order.lock();
    assert_eq!(order.len(), 2);
    assert_eq!(order[0].0, InstPoint::Before);
    assert_eq!(order[1].0, InstPoint::After);
    assert_eq!(
        order[0].1, order[1].1,
        "both anchored to the same instruction"
    );
}

#[test]
fn multiple_before_specs_stack_in_registration_order() {
    let log = Arc::new(Mutex::new(Vec::<u32>::new()));
    let mut sassi = Sassi::new();
    for tag in [1u32, 2, 3] {
        let l = log.clone();
        sassi.on_before(
            SiteFilter::MEMORY,
            InfoFlags::NONE,
            Box::new(FnHandler::free(move |_| l.lock().push(tag))),
        );
    }
    let func = sassi.apply(&simple_kernel(), 0);
    let (_, calls) = run(func, &mut sassi, 32);
    assert_eq!(calls, 3);
    assert_eq!(*log.lock(), vec![1, 2, 3]);
}

#[test]
fn kernel_exit_fires_once_per_warp() {
    let exits = Arc::new(Mutex::new(0u64));
    let e2 = exits.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::KERNEL_EXIT,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |_| {
            *e2.lock() += 1;
        })),
    );
    let func = sassi.apply(&simple_kernel(), 0);
    let (_, _) = run(func, &mut sassi, 32);
    assert_eq!(*exits.lock(), 1, "single warp, single EXIT");
}

#[test]
fn instrumenting_a_spill_heavy_kernel_is_transparent() {
    // Compile under the 16-register cap so the kernel itself contains
    // LDL/STL spill traffic, then instrument everything on top.
    let mut b = KernelBuilder::kernel("pressure");
    let tid = b.global_tid_x();
    let out = b.param_ptr(0);
    let vals: Vec<_> = (0..20).map(|k| b.iadd(tid, k as u32)).collect();
    let mut acc = b.iconst(0);
    for v in &vals {
        let m = b.imul(*v, 3u32);
        acc = b.iadd(acc, m);
    }
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, acc);
    let kf = b.finish();
    let capped = Compiler::new().max_regs(16).compile(&kf).unwrap();
    assert!(capped.instrs.iter().any(|i| i.class().is_spill_or_fill()));

    // Count how many sites SASSI classifies as spill/fill.
    let spill_seen = Arc::new(Mutex::new(0u64));
    let s2 = spill_seen.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::MEMORY,
        Box::new(FnHandler::free(move |site| {
            if let Some(l) = site.leader() {
                if site.params(l).is_spill_or_fill(site.trap) {
                    *s2.lock() += 1;
                }
            }
        })),
    );
    let func = sassi.apply(&capped, 0);
    let (vals_out, _) = run(func, &mut sassi, 32);
    for t in 0..32u32 {
        let want: u32 = (0..20).map(|k| (t + k) * 3).sum();
        assert_eq!(vals_out[t as usize], want, "tid {t}");
    }
    assert!(
        *spill_seen.lock() > 0,
        "IsSpillOrFill must fire on compiler spills"
    );
}

#[test]
fn fully_predicated_off_sites_still_trap() {
    // A store guarded by an always-false predicate: the paper's design
    // calls the handler anyway, with instrWillExecute = false.
    use sassi_isa::{Guard, Instr, MemAddr, MemWidth, Op, PredReg};
    let mut func = simple_kernel();
    // Build @!PT ST (never executes) and insert it before EXIT.
    let dead_store = Instr::guarded(
        Guard::not(PredReg::PT),
        Op::St {
            v: sassi_isa::Gpr::new(0),
            width: MemWidth::B32,
            addr: MemAddr::global(sassi_isa::Gpr::new(4), 0),
            spill: false,
        },
    );
    let exit_at = func.instrs.len() - 1;
    func.instrs.insert(exit_at, dead_store);
    // (metadata: no branches target the tail, so indices stay valid)

    let flags = Arc::new(Mutex::new(Vec::<bool>::new()));
    let f2 = flags.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::MEMORY,
        Box::new(FnHandler::free(move |site| {
            if let Some(l) = site.leader() {
                f2.lock().push(site.params(l).will_execute(site.trap));
            }
        })),
    );
    let func = sassi.apply(&func, 0);
    let (_, calls) = run(func, &mut sassi, 32);
    assert_eq!(calls, 2, "real store + dead store both instrumented");
    let flags = flags.lock();
    assert!(flags.contains(&true) && flags.contains(&false));
}

#[test]
fn empty_sassi_apply_is_identity() {
    let sassi = Sassi::new();
    let func = simple_kernel();
    let same = sassi.apply(&func, 0);
    assert_eq!(func, same);
}

#[test]
fn live_mask_reports_compiler_liveness() {
    // At kernel entry nothing is live; at the store, the address pair
    // and value are.
    let masks = Arc::new(Mutex::new(Vec::<(u32, bool)>::new()));
    let m2 = masks.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |site| {
            if let Some(l) = site.leader() {
                let bp = site.params(l);
                m2.lock()
                    .push((bp.live_gpr_mask(site.trap), bp.is_mem(site.trap)));
            }
        })),
    );
    let func = sassi.apply(&simple_kernel(), 0);
    let _ = run(func, &mut sassi, 32);
    let masks = masks.lock();
    assert_eq!(masks[0].0, 0, "nothing live at kernel entry");
    let store_mask = masks.iter().find(|(_, mem)| *mem).unwrap().0;
    assert!(
        store_mask.count_ones() >= 2,
        "value + address live at the store: {store_mask:#x}"
    );
}

#[test]
fn reg_reads_filter_matches_consumers() {
    let sites = Arc::new(Mutex::new(0u64));
    let s2 = sites.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::REG_READS,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |_| {
            *s2.lock() += 1;
        })),
    );
    let func = simple_kernel();
    let expected = func
        .instrs
        .iter()
        .filter(|i| i.defs_uses().uses.gpr_count() > 0)
        .count() as u64;
    let func = sassi.apply(&func, 0);
    let (_, calls) = run(func, &mut sassi, 32);
    assert_eq!(calls, expected);
    assert_eq!(*sites.lock(), expected);
}

#[test]
fn bb_headers_instrument_every_block() {
    // A kernel with an if/else: blocks = entry, then, else, join (and
    // the trailing exit block, depending on layout).
    let mut b = sassi_kir::KernelBuilder::kernel("k");
    let tid = b.global_tid_x();
    let out = b.param_ptr(0);
    let p = b.setp_u32_lt(tid, 16u32);
    let r = b.var_u32(0u32);
    b.if_else(p, |b| b.assign_imm(r, 1), |b| b.assign_imm(r, 2));
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, r);
    let func = Compiler::new().compile(&b.finish()).unwrap();
    let n_headers = sassi_kir::sasslive::cfg(&func).len() as u64;
    assert!(n_headers >= 4, "expected several blocks, got {n_headers}");

    let hits = Arc::new(Mutex::new(0u64));
    let h2 = hits.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::BB_HEADERS,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |_| {
            *h2.lock() += 1;
        })),
    );
    assert_eq!(
        sassi.count_sites(&func) as u64,
        n_headers,
        "one site per block"
    );
    let func = sassi.apply(&func, 0);
    let (vals, _) = run(func, &mut sassi, 32);
    for (t, &v) in vals.iter().enumerate().take(32) {
        assert_eq!(v, if t < 16 { 1 } else { 2 });
    }
    // Every block header executed at least once (both arms taken).
    assert!(
        *hits.lock() >= n_headers,
        "hits {} < headers {n_headers}",
        hits.lock()
    );
}

const POINT_COUNTER_COST: HandlerCost = HandlerCost {
    instructions: 10,
    memory_ops: 0,
    atomics: 0,
};

/// Records the site point of every visit and the thread it ran on.
struct PointCounter {
    visits: Arc<Mutex<Vec<(InstPoint, ThreadId)>>>,
}

impl Handler for PointCounter {
    fn handle(&mut self, site: &mut SiteCtx<'_, '_>) -> HandlerCost {
        self.visits
            .lock()
            .push((site.point, std::thread::current().id()));
        POINT_COUNTER_COST
    }
}

#[test]
fn traps_dispatch_by_the_handler_id_the_jcal_names() {
    // A hand-written kernel calling a registered handler (id 0) and an
    // id nothing was registered under (5).
    let jcal = |h| {
        Instr::new(Op::Jcal {
            target: Label::Handler(h),
        })
    };
    let func = sassi_isa::Function::new(
        "k",
        vec![jcal(0), jcal(5), Instr::new(Op::Exit)],
        FunctionMeta::default(),
    );
    let module = Module::link(&[func]).unwrap();
    let dims = LaunchDims::linear(4, 64);
    let warps = 4 * 2;
    let launcher = std::thread::current().id();
    for mode in [ExecMode::Decoded, ExecMode::Reference] {
        let mut serial = None;
        for jobs in [1, 2] {
            let visits = Arc::new(Mutex::new(Vec::new()));
            let mut sassi = Sassi::new();
            let id = sassi.on_after(
                SiteFilter::REG_WRITES,
                InfoFlags::NONE,
                Box::new(PointCounter {
                    visits: visits.clone(),
                }),
            );
            assert_eq!(id, 0);
            let mut dev = Device::with_defaults();
            dev.exec_mode = mode;
            dev.cta_jobs = jobs;
            let res = dev
                .launch(&module, "k", dims, &[], &mut sassi, 0, 1 << 30)
                .unwrap();
            assert!(res.is_ok(), "{mode:?} jobs={jobs}: {:?}", res.outcome);
            // Instrumented launches run their CTA shards in order on the
            // launching thread, whatever the job count.
            assert_eq!(*serial.get_or_insert(res), res, "{mode:?} jobs={jobs}");
            let visits = visits.lock();
            assert_eq!(
                visits.len(),
                warps,
                "{mode:?} jobs={jobs}: one visit per warp"
            );
            assert!(visits
                .iter()
                .all(|&(p, thread)| p == InstPoint::After && thread == launcher));
            assert_eq!(
                res.stats.handler_calls,
                2 * warps as u64,
                "both traps count"
            );
            assert_eq!(
                res.stats.handler_cycles,
                warps as u64 * POINT_COUNTER_COST.cycles(),
                "{mode:?} jobs={jobs}: the unknown id costs nothing"
            );
        }
    }
}
