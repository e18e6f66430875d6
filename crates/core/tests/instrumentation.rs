//! End-to-end tests of the SASSI instrumentor: trampolines must be
//! transparent (results identical to the uninstrumented kernel), and
//! handlers must observe exactly the architectural facts the paper's
//! parameter objects promise.

use parking_lot::Mutex;
use sassi::{FnHandler, InfoFlags, MemoryDomain, Sassi, SiteFilter, SpillPolicy};
use sassi_kir::{Compiler, KernelBuilder};
use sassi_sim::{Device, LaunchDims, Module};
use std::sync::Arc;

const MAXC: u64 = 50_000_000;

fn run(
    func: sassi_isa::Function,
    sassi: &mut Sassi,
    dims: LaunchDims,
    bufs: &[(u64, Vec<u32>)],
    params: &[u64],
    dev: &mut Device,
) -> sassi_sim::LaunchResult {
    for (addr, data) in bufs {
        for (i, v) in data.iter().enumerate() {
            dev.mem.write_u32(addr + 4 * i as u64, *v).unwrap();
        }
    }
    let name = func.name.clone();
    let module = Module::link(&[func]).unwrap();
    dev.launch(&module, &name, dims, params, sassi, 0, MAXC)
        .unwrap()
}

/// A kernel with arithmetic, control flow and memory in one: for i < n,
/// out[i] = in[i] < 100 ? in[i]*3 : in[i]-100.
fn mixed_kernel() -> sassi_isa::Function {
    let mut b = KernelBuilder::kernel("mixed");
    let i = b.global_tid_x();
    let n = b.param_u32(0);
    let src = b.param_ptr(1);
    let dst = b.param_ptr(2);
    let p = b.setp_u32_lt(i, n);
    b.if_(p, |b| {
        let es = b.lea(src, i, 2);
        let v = b.ld_global_u32(es);
        let small = b.setp_u32_lt(v, 100u32);
        let tripled = b.imul(v, 3u32);
        let shifted = b.isub(v, 100u32);
        let r = b.sel(small, tripled, shifted);
        let ed = b.lea(dst, i, 2);
        b.st_global_u32(ed, r);
    });
    Compiler::new().compile(&b.finish()).unwrap()
}

fn expected_mixed(inp: &[u32]) -> Vec<u32> {
    inp.iter()
        .map(|&v| if v < 100 { v * 3 } else { v - 100 })
        .collect()
}

#[test]
fn instrumentation_is_transparent() {
    // Reference run without instrumentation.
    let n = 70u32;
    let input: Vec<u32> = (0..n).map(|k| k * 7 % 250).collect();

    let run_with = |sassi: &mut Sassi, instrument: bool| -> (Vec<u32>, u64) {
        let mut dev = Device::with_defaults();
        let src = dev.mem.alloc(4 * n as u64, 4).unwrap();
        let dst = dev.mem.alloc(4 * n as u64, 4).unwrap();
        let func = mixed_kernel();
        let func = if instrument {
            sassi.apply(&func, 0)
        } else {
            func
        };
        let res = run(
            func,
            sassi,
            LaunchDims::linear(3, 32),
            &[(src, input.clone())],
            &[n as u64, src, dst],
            &mut dev,
        );
        assert!(res.is_ok(), "outcome: {:?}", res.outcome);
        let out = (0..n)
            .map(|k| dev.mem.read_u32(dst + 4 * k as u64).unwrap())
            .collect();
        (out, res.stats.cycles)
    };

    let (baseline, base_cycles) = run_with(&mut Sassi::new(), false);
    assert_eq!(baseline, expected_mixed(&input));

    // Heavy instrumentation: before every instruction.
    let hits = Arc::new(Mutex::new(0u64));
    let h2 = hits.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |_| {
            *h2.lock() += 1;
        })),
    );
    let (instrumented, instr_cycles) = run_with(&mut sassi, true);
    assert_eq!(
        instrumented,
        expected_mixed(&input),
        "instrumentation altered results"
    );
    assert!(*hits.lock() > 0);
    assert!(
        instr_cycles > 2 * base_cycles,
        "per-instruction instrumentation should slow the kernel substantially \
         ({base_cycles} -> {instr_cycles})"
    );
}

#[test]
fn memory_params_report_addresses_and_widths() {
    let n = 64u32;
    let input: Vec<u32> = (0..n).collect();
    let mut dev = Device::with_defaults();
    let src = dev.mem.alloc(4 * n as u64, 4).unwrap();
    let dst = dev.mem.alloc(4 * n as u64, 4).unwrap();

    let seen = Arc::new(Mutex::new(Vec::<(u64, u32, bool, bool)>::new()));
    let s2 = seen.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::MEMORY,
        Box::new(FnHandler::free(move |site| {
            for lane in site.active_lanes() {
                let bp = site.params(lane);
                if !bp.will_execute(site.trap) || !bp.is_mem(site.trap) {
                    continue;
                }
                let mp = site.memory_params(lane).unwrap();
                if mp.domain(site.trap) == MemoryDomain::Global {
                    s2.lock().push((
                        mp.address(site.trap),
                        mp.width(site.trap),
                        mp.is_load(site.trap),
                        mp.is_store(site.trap),
                    ));
                }
            }
        })),
    );

    let func = sassi.apply(&mixed_kernel(), 0);
    let res = run(
        func,
        &mut sassi,
        LaunchDims::linear(2, 32),
        &[(src, input)],
        &[n as u64, src, dst],
        &mut dev,
    );
    assert!(res.is_ok());

    let seen = seen.lock();
    // One global load + one global store per thread.
    let loads: Vec<_> = seen.iter().filter(|e| e.2).collect();
    let stores: Vec<_> = seen.iter().filter(|e| e.3).collect();
    assert_eq!(loads.len(), n as usize);
    assert_eq!(stores.len(), n as usize);
    for k in 0..n as usize {
        assert!(
            loads.iter().any(|e| e.0 == src + 4 * k as u64),
            "missing load addr {k}"
        );
        assert!(
            stores.iter().any(|e| e.0 == dst + 4 * k as u64),
            "missing store addr {k}"
        );
    }
    assert!(seen.iter().all(|e| e.1 == 4), "all accesses are 4 bytes");
}

#[test]
fn branch_params_report_per_lane_direction() {
    // Branch on tid < 16 within each 32-thread warp.
    let mut b = KernelBuilder::kernel("split");
    let tid = b.tid_x();
    let out = b.param_ptr(0);
    let p = b.setp_u32_lt(tid, 16u32);
    b.if_else(
        p,
        |b| {
            let one = b.iconst(1);
            let e = b.lea(out, tid, 2);
            b.st_global_u32(e, one);
        },
        |b| {
            let two = b.iconst(2);
            let e = b.lea(out, tid, 2);
            b.st_global_u32(e, two);
        },
    );
    let func = Compiler::new().compile(&b.finish()).unwrap();

    let records = Arc::new(Mutex::new(Vec::<(u32, u32, u32)>::new())); // taken, not-taken, active
    let r2 = records.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::COND_BRANCHES,
        InfoFlags::COND_BRANCH,
        Box::new(FnHandler::free(move |site| {
            let active = site.active_mask();
            let taken = site.ballot(|lane| site.branch_params(lane).unwrap().direction(site.trap));
            r2.lock().push((taken, active & !taken, active));
        })),
    );

    let func = sassi.apply(&func, 0);
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(4 * 32, 4).unwrap();
    let res = run(
        func,
        &mut sassi,
        LaunchDims::linear(1, 32),
        &[],
        &[out],
        &mut dev,
    );
    assert!(res.is_ok());

    let recs = records.lock();
    assert_eq!(recs.len(), 1, "one conditional branch executed once");
    let (taken, not_taken, active) = recs[0];
    assert_eq!(active, u32::MAX);
    // The builder emits `@!p BRA else`: lanes with tid >= 16 take it.
    assert_eq!(taken, 0xffff_0000);
    assert_eq!(not_taken, 0x0000_ffff);
    // And the kernel result is still correct.
    for k in 0..32u64 {
        let want = if k < 16 { 1 } else { 2 };
        assert_eq!(dev.mem.read_u32(out + 4 * k).unwrap(), want);
    }
}

#[test]
fn register_params_capture_written_values_after() {
    // Each thread computes v = tid * 5 + 1; capture writes.
    let mut b = KernelBuilder::kernel("vals");
    let tid = b.tid_x();
    let out = b.param_ptr(0);
    let five = b.iconst(5);
    let one = b.iconst(1);
    let v = b.imad(tid, sassi_kir::VSrc::from(five), one);
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, v);
    let func = Compiler::new().compile(&b.finish()).unwrap();

    let captured = Arc::new(Mutex::new(Vec::<u32>::new()));
    let c2 = captured.clone();
    let mut sassi = Sassi::new();
    sassi.on_after(
        SiteFilter::REG_WRITES,
        InfoFlags::REGISTERS,
        Box::new(FnHandler::free(move |site| {
            for lane in site.active_lanes() {
                let rp = site.register_params(lane).unwrap();
                for i in 0..rp.num_dsts(site.trap) {
                    c2.lock().push(rp.value(site.trap, i));
                }
            }
        })),
    );

    let func = sassi.apply(&func, 0);
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(4 * 32, 4).unwrap();
    let res = run(
        func,
        &mut sassi,
        LaunchDims::linear(1, 32),
        &[],
        &[out],
        &mut dev,
    );
    assert!(res.is_ok());

    let vals = captured.lock();
    // Every thread's IMAD result tid*5+1 must appear among captures.
    for tid in 0..32u32 {
        assert!(
            vals.contains(&(tid * 5 + 1)),
            "missing captured value for tid {tid}"
        );
    }
    // Kernel output still correct.
    for k in 0..32u64 {
        assert_eq!(dev.mem.read_u32(out + 4 * k).unwrap(), k as u32 * 5 + 1);
    }
}

#[test]
fn will_execute_reflects_guards() {
    // Guarded store executes only on even tids; instrument before all
    // memory ops and check instrWillExecute.
    let mut b = KernelBuilder::kernel("guarded");
    let tid = b.tid_x();
    let out = b.param_ptr(0);
    let bit = b.and(tid, 1u32);
    let is_even = b.setp_u32_eq(bit, 0u32);
    // Use a structured if: inside, all lanes that reach the store have
    // even tid. To create a *predicated* (guarded) store instead, use
    // the raw guard on a sel-store idiom: simplest path is if_.
    b.if_(is_even, |b| {
        let e = b.lea(out, tid, 2);
        let one = b.iconst(1);
        b.st_global_u32(e, one);
    });
    let func = Compiler::new().compile(&b.finish()).unwrap();

    let execd = Arc::new(Mutex::new((0u32, 0u32))); // (will_execute lanes, total lanes)
    let e2 = execd.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::MEMORY,
        InfoFlags::MEMORY,
        Box::new(FnHandler::free(move |site| {
            for lane in site.active_lanes() {
                let bp = site.params(lane);
                let mut g = e2.lock();
                g.1 += 1;
                if bp.will_execute(site.trap) {
                    g.0 += 1;
                }
            }
        })),
    );

    let func = sassi.apply(&func, 0);
    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(4 * 32, 4).unwrap();
    let res = run(
        func,
        &mut sassi,
        LaunchDims::linear(1, 32),
        &[],
        &[out],
        &mut dev,
    );
    assert!(res.is_ok());

    let (willed, total) = *execd.lock();
    // The store sits inside a divergent region: only even lanes are
    // active there, and the store itself is unguarded — so every
    // *active* lane reports will_execute.
    assert_eq!(willed, total);
    assert_eq!(total, 16, "only the 16 even lanes reach the store");
}

#[test]
fn site_metadata_is_stable_and_unique() {
    let func = mixed_kernel();
    let ids = Arc::new(Mutex::new(Vec::<(u64, u32)>::new()));
    let i2 = ids.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |site| {
            if let Some(lane) = site.leader() {
                let bp = site.params(lane);
                i2.lock().push((bp.ins_addr(site.trap), bp.id(site.trap)));
            }
        })),
    );
    let fn_addr = 7 << 20;
    let instrumented = sassi.apply(&func, fn_addr);
    let sites = sassi.count_sites(&func);
    assert_eq!(sites, func.len(), "ALL instruments every instruction");

    let mut dev = Device::with_defaults();
    let src = dev.mem.alloc(256, 4).unwrap();
    let dst = dev.mem.alloc(256, 4).unwrap();
    let res = run(
        instrumented,
        &mut sassi,
        LaunchDims::linear(1, 32),
        &[(src, (0..32).collect())],
        &[32, src, dst],
        &mut dev,
    );
    assert!(res.is_ok());

    let ids = ids.lock();
    assert!(!ids.is_empty());
    // ins_addr embeds fn_addr and the pre-instrumentation offset.
    for (addr, _) in ids.iter() {
        assert!(*addr >= fn_addr as u64);
        assert!(*addr < fn_addr as u64 + func.len() as u64);
    }
}

#[test]
fn spill_coverage_is_liveness_driven() {
    // planned_spills: sites early in the kernel (few live regs) must
    // save fewer registers than the all-clobberable upper bound.
    let func = mixed_kernel();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(|_| {})),
    );
    let spills = sassi::planned_spills(&func, sassi.specs(), SpillPolicy::Liveness);
    assert_eq!(spills.len(), func.len());
    let all = sassi::planned_spills(&func, sassi.specs(), SpillPolicy::SaveEverything);
    // Save-everything saves R0 and R2..R15 at every site.
    assert!(all.iter().all(|(_, s)| s.gpr_count() == 15));
    let total: u32 = spills.iter().map(|(_, s)| s.gpr_count()).sum();
    let upper: u32 = all.iter().map(|(_, s)| s.gpr_count()).sum();
    assert!(
        total < upper / 2,
        "liveness-driven spilling should save far fewer than save-everything \
         ({total} vs {upper})"
    );
    // The entry site has no live GPRs at all.
    assert_eq!(spills[0].1.gpr_count(), 0);
}

#[test]
fn kernel_entry_and_bb_headers_instrument() {
    let func = mixed_kernel();
    let count = Arc::new(Mutex::new(0u64));
    let c2 = count.clone();
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::KERNEL_ENTRY,
        InfoFlags::NONE,
        Box::new(FnHandler::free(move |_| {
            *c2.lock() += 1;
        })),
    );
    let instrumented = sassi.apply(&func, 0);
    let mut dev = Device::with_defaults();
    let src = dev.mem.alloc(256, 4).unwrap();
    let dst = dev.mem.alloc(256, 4).unwrap();
    let res = run(
        instrumented,
        &mut sassi,
        LaunchDims::linear(4, 32),
        &[],
        &[16, src, dst],
        &mut dev,
    );
    assert!(res.is_ok());
    // One entry trap per warp (4 blocks × 1 warp).
    assert_eq!(*count.lock(), 4);
}

#[test]
fn divergent_loop_kernel_survives_full_instrumentation() {
    // Data-dependent loop: thread t iterates t times.
    let mut b = KernelBuilder::kernel("triangle");
    let tid = b.tid_x();
    let out = b.param_ptr(0);
    let acc = b.var_u32(0u32);
    b.for_range(0u32, tid, 1, |b, j| {
        let nxt = b.iadd(acc, j);
        b.assign(acc, nxt);
        let _ = b.iadd(nxt, 1u32);
    });
    let e = b.lea(out, tid, 2);
    b.st_global_u32(e, acc);
    let func = Compiler::new().compile(&b.finish()).unwrap();

    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(|_| {})),
    );
    let func = sassi.apply(&func, 0);

    let mut dev = Device::with_defaults();
    let out = dev.mem.alloc(4 * 32, 4).unwrap();
    let res = run(
        func,
        &mut sassi,
        LaunchDims::linear(1, 32),
        &[],
        &[out],
        &mut dev,
    );
    assert!(res.is_ok(), "outcome {:?}", res.outcome);
    for t in 0..32u64 {
        let want: u32 = (0..t as u32).sum();
        assert_eq!(dev.mem.read_u32(out + 4 * t).unwrap(), want, "thread {t}");
    }
}

#[test]
fn jump_past_the_end_faults_instead_of_panicking() {
    use sassi_isa::{Function, FunctionMeta, Guard, Instr, Label, Op, PredReg};
    use sassi_sim::{FaultKind, KernelOutcome};

    let bra = |t| Op::Bra {
        target: Label::Pc(t),
        uniform: false,
    };
    let p0 = Guard {
        pred: PredReg::new(0),
        neg: false,
    };
    // `BRA 1` jumps one past its only instruction; `@P0 BRA 2; EXIT`
    // does the same under a guard; `BRA 7` and `SSY 7` reach further.
    let func = |name: &str, instrs| Function::new(name, instrs, FunctionMeta::default());
    let one = func("one", vec![Instr::new(bra(1))]);
    let two = func(
        "two",
        vec![Instr::guarded(p0, bra(2)), Instr::new(Op::Exit)],
    );
    let far = func("far", vec![Instr::new(bra(7))]);
    let ssy = func(
        "ssy",
        vec![
            Instr::new(Op::Ssy {
                target: Label::Pc(7),
            }),
            Instr::new(Op::Exit),
        ],
    );
    let mut sassi = Sassi::new();
    sassi.on_before(
        SiteFilter::ALL,
        InfoFlags::NONE,
        Box::new(FnHandler::free(|_| {})),
    );
    for f in [&one, &two, &far] {
        sassi_kir::check_reconvergence(f).unwrap();
    }
    assert!(sassi_kir::check_reconvergence(&ssy).is_err());
    for f in [&one, &two, &far, &ssy] {
        assert!(sassi.apply(f, 0).len() > f.len());
    }

    for func in [one.clone(), sassi.apply(&one, 0), sassi.apply(&far, 0)] {
        let mut dev = Device::with_defaults();
        let res = run(
            func,
            &mut sassi,
            LaunchDims::linear(1, 32),
            &[],
            &[],
            &mut dev,
        );
        assert!(
            matches!(
                res.outcome,
                KernelOutcome::Fault(f) if matches!(f.kind, FaultKind::InvalidPc { .. })
            ),
            "{:?}",
            res.outcome
        );
    }
}
