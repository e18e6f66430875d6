//! The device executor: multi-SM, cycle-approximate SIMT simulation.
//!
//! Functional semantics are exact (every lane's registers, predicates,
//! memories); timing is approximate but divergence-faithful: one warp
//! instruction issues per SM per cycle, memory operations stall warps
//! for latencies produced by the coalescer/cache/DRAM model, and
//! control divergence serializes paths exactly as the divergence stack
//! dictates.
//!
//! # SM-worker execution model
//!
//! A launch's CTAs are partitioned round-robin over `min(num_sms,
//! total_blocks)` *shards* — CTA `i` goes to shard `i % shards`, a pure
//! function of launch geometry. Each shard models one SM: its own warp
//! contexts, CTA slots, memory hierarchy and [`LaunchStats`]
//! accumulator, with its own cycle loop. Shard results merge in
//! canonical shard order (work counters sum, `cycles` takes the max),
//! so the merged result is independent of how shards were scheduled.
//!
//! [`Device::cta_jobs`] chooses how many worker threads execute the
//! shards (worker `k` runs shards `k`, `k + jobs`, …). Parallel workers
//! need private global-memory views: each shard gets a
//! [`DeviceMemory::fork`] whose write journal is committed back in
//! shard order, and the handler runtime must split via
//! [`HandlerRuntime::fork_shard`]. Kernels whose global atomics
//! *consume* the old value (CAS/EXCH or `ATOM` with a live
//! destination) observe a cross-CTA total order, so such launches —
//! and launches whose runtime declines to fork — run their shards
//! sequentially on the calling thread instead, which is always
//! deterministic. Only [`NoHandlers`](crate::NoHandlers) forks today,
//! so every instrumented launch runs sequentially. Fire-and-forget
//! `RED` reductions are commutative and parallelize fine.

use crate::config::{GpuConfig, LaunchDims};
use crate::decode::{DSrc, DecodedModule, UOp, GUARD_ALWAYS};
use crate::module::{LinkedFunction, Module};
use crate::stats::{FaultInfo, FaultKind, KernelOutcome, LaunchResult, LaunchStats};
use crate::trap::{HandlerRuntime, TrapCtx, TrapRef};
use crate::warp::{Warp, WarpStatus};
use sassi_isa::{
    cbank0, resolve_generic, AddrSpace, AtomOp, Gpr, LaneMask, LogicOp, MemAddr, MemWidth, PredReg,
    ShflMode, SpecialReg, VoteMode,
};
use sassi_mem::{
    apply_atom, DeviceMemory, HierarchyConfig, HierarchyStats, JournalOp, MemError, MemoryHierarchy,
};
use std::fmt;

mod reference;

/// Host-side launch misuse (distinct from device faults, which are
/// reported in [`LaunchResult`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel symbol is not in the module.
    UnknownKernel(String),
    /// The launch geometry cannot be scheduled on this device.
    BadGeometry(String),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
            LaunchError::BadGeometry(m) => write!(f, "bad launch geometry: {m}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Which interpreter executes each µop of a scheduler run.
///
/// Both modes share one scheduler: every pick runs the warp to its
/// basic-block boundary (see `Exec::step_block`), so the two are
/// bit-exact — identical `LaunchResult`s (cycles included), stats and
/// memory effects. `Reference` exists as the differential-testing
/// oracle for the pre-decoded fast path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Execute the link-time pre-decoded µop array (the fast path).
    #[default]
    Decoded,
    /// Execute directly from the linked `Instr` array (the original
    /// seed semantics).
    Reference,
}

/// The simulated GPU: configuration, global memory and per-SM
/// execution state. Memory contents persist across launches, so hosts
/// can allocate buffers once and run many kernels, CUDA-style. SM
/// slots (warp contexts, CTA slots, cache hierarchies) also persist
/// and are recycled, so relaunching does not reallocate warp state.
pub struct Device {
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Global device memory.
    pub mem: DeviceMemory,
    /// Which interpreter executes the µops of each scheduler run
    /// (defaults to the decoded fast path; flip to `Reference` for
    /// differential testing).
    pub exec_mode: ExecMode,
    /// Worker threads executing SM shards of one launch. `1` (the
    /// default) runs shards sequentially on the calling thread; higher
    /// values fork per-shard memory views and handler runtimes and run
    /// shards on a fixed-size pool. Results are merged in canonical
    /// shard order, so they are identical for any value.
    pub cta_jobs: usize,
    slots: Vec<SmSlot>,
    warp_allocations: u64,
}

/// Persistent per-SM execution state, recycled across launches.
struct SmSlot {
    hier: MemoryHierarchy,
    warps: Vec<Warp>,
    ctas: Vec<Cta>,
    free_warps: Vec<usize>,
    free_ctas: Vec<usize>,
}

impl SmSlot {
    fn new(cfg: HierarchyConfig) -> SmSlot {
        SmSlot {
            hier: MemoryHierarchy::new(cfg),
            warps: Vec::new(),
            ctas: Vec::new(),
            free_warps: Vec::new(),
            free_ctas: Vec::new(),
        }
    }
}

/// The launch-wide immutable inputs shared by every shard.
struct ShardEnv<'a> {
    cfg: &'a GpuConfig,
    module: &'a Module,
    decoded: &'a DecodedModule,
    mode: ExecMode,
    kernel: &'a LinkedFunction,
    dims: LaunchDims,
    cbank: Vec<u8>,
    launch_index: u64,
    max_cycles: u64,
}

/// One shard's contribution to the launch result.
struct ShardOut {
    outcome: KernelOutcome,
    stats: LaunchStats,
    mem_stats: HierarchyStats,
    journal: Vec<JournalOp>,
    warp_allocs: u64,
}

impl Device {
    /// Creates a device with a global heap of `heap_bytes`.
    pub fn new(cfg: GpuConfig, heap_bytes: usize) -> Device {
        Device {
            cfg,
            mem: DeviceMemory::new(heap_bytes),
            exec_mode: ExecMode::default(),
            cta_jobs: 1,
            slots: Vec::new(),
            warp_allocations: 0,
        }
    }

    /// A default device with a 256 MiB heap.
    pub fn with_defaults() -> Device {
        Device::new(GpuConfig::default(), 256 << 20)
    }

    /// Total fresh warp-context allocations since device creation.
    /// Relaunches reuse retired contexts, so this does not grow when
    /// the same geometry is launched again.
    pub fn warp_allocations(&self) -> u64 {
        self.warp_allocations
    }

    /// Launches `kernel` from `module` and runs it to completion (or
    /// fault / watchdog expiry). `params` are 8-byte argument slots.
    ///
    /// # Errors
    ///
    /// Host-side [`LaunchError`]s only; device faults and hangs are
    /// reported inside the returned [`LaunchResult`].
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &mut self,
        module: &Module,
        kernel: &str,
        dims: LaunchDims,
        params: &[u64],
        runtime: &mut dyn HandlerRuntime,
        launch_index: u64,
        max_cycles: u64,
    ) -> Result<LaunchResult, LaunchError> {
        let kf = module
            .function(kernel)
            .ok_or_else(|| LaunchError::UnknownKernel(kernel.to_string()))?;
        let wpb = dims.warps_per_block();
        if wpb == 0 || dims.total_blocks() == 0 {
            return Err(LaunchError::BadGeometry("empty grid or block".into()));
        }
        if wpb > self.cfg.max_warps_per_sm {
            return Err(LaunchError::BadGeometry(format!(
                "block needs {wpb} warps, SM holds {}",
                self.cfg.max_warps_per_sm
            )));
        }
        let shared_bytes = (kf.meta.shared_bytes + 7) & !7;
        if shared_bytes > self.cfg.shared_per_sm {
            return Err(LaunchError::BadGeometry(format!(
                "block needs {shared_bytes} B shared, SM has {}",
                self.cfg.shared_per_sm
            )));
        }

        let total = dims.total_blocks();
        let num_shards = self.cfg.num_sms.min(total).max(1) as usize;
        while self.slots.len() < num_shards {
            self.slots.push(SmSlot::new(self.cfg.hierarchy));
        }
        // CTA i runs on shard i % num_shards: a pure function of launch
        // geometry, so shard contents are identical for any job count.
        let queues: Vec<Vec<u32>> = (0..num_shards as u32)
            .map(|s| (s..total).step_by(num_shards).collect())
            .collect();
        let decoded = module.decoded();
        // Hand the runtime the module's site table before any trap
        // fires (forked shard runtimes are bound below, after forking).
        runtime.bind_sites(decoded.sites());
        let env = ShardEnv {
            cfg: &self.cfg,
            module,
            decoded,
            mode: self.exec_mode,
            kernel: kf,
            dims,
            cbank: build_cbank0(&self.cfg, kf, dims, params),
            launch_index,
            max_cycles,
        };

        let jobs = self.cta_jobs.max(1).min(num_shards);
        // Parallel shards need private memory views, which is only
        // sound when no CTA consumes another CTA's atomic results, and
        // a handler runtime whose state can be forked and merged.
        let forks = if jobs > 1 && num_shards > 1 && !decoded.has_consuming_global_atomics() {
            let mut v = Vec::with_capacity(num_shards);
            for _ in 0..num_shards {
                match runtime.fork_shard() {
                    Some(f) => v.push(f),
                    None => break,
                }
            }
            (v.len() == num_shards).then_some(v)
        } else {
            None
        };

        let mut joins: Vec<Option<Box<dyn FnOnce() + Send>>> = Vec::new();
        let outs: Vec<ShardOut> = match forks {
            Some(forks) => {
                let mut runtimes: Vec<Box<dyn HandlerRuntime + Send>> =
                    Vec::with_capacity(num_shards);
                for f in forks {
                    let mut rt = f.runtime;
                    rt.bind_sites(decoded.sites());
                    runtimes.push(rt);
                    joins.push(Some(f.join));
                }
                let mems: Vec<DeviceMemory> = (0..num_shards).map(|_| self.mem.fork()).collect();
                let env = &env;
                // One shard's worker assignment: its index, SM slot,
                // forked memory view and forked handler runtime.
                type ShardWork<'s> = (
                    usize,
                    &'s mut SmSlot,
                    DeviceMemory,
                    Box<dyn HandlerRuntime + Send>,
                );
                // Deal shards statically: worker k runs shards
                // k, k + jobs, … — no load-dependent scheduling.
                let mut groups: Vec<Vec<ShardWork<'_>>> = (0..jobs).map(|_| Vec::new()).collect();
                for (s, ((slot, mem), rt)) in self.slots[..num_shards]
                    .iter_mut()
                    .zip(mems)
                    .zip(runtimes)
                    .enumerate()
                {
                    groups[s % jobs].push((s, slot, mem, rt));
                }
                let queues = &queues;
                let mut results: Vec<Option<ShardOut>> = (0..num_shards).map(|_| None).collect();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .into_iter()
                        .map(|group| {
                            scope.spawn(move || {
                                group
                                    .into_iter()
                                    .map(|(s, slot, mut mem, mut rt)| {
                                        let out = run_shard(
                                            env,
                                            slot,
                                            &mut mem,
                                            rt.as_mut(),
                                            s as u32,
                                            &queues[s],
                                        );
                                        (s, out)
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        for (s, out) in h.join().expect("shard worker panicked") {
                            results[s] = Some(out);
                        }
                    }
                });
                results
                    .into_iter()
                    .map(|o| o.expect("every shard ran"))
                    .collect()
            }
            None => (0..num_shards)
                .map(|s| {
                    run_shard(
                        &env,
                        &mut self.slots[s],
                        &mut self.mem,
                        &mut *runtime,
                        s as u32,
                        &queues[s],
                    )
                })
                .collect(),
        };

        // Merge in canonical shard order: commit journals, sum work
        // counters (cycles take the max), pick the lowest-shard fault,
        // and fold shard handler state back into the parent runtime.
        let mut outcome = KernelOutcome::Completed;
        let mut stats = LaunchStats::default();
        let mut mem_stats = HierarchyStats::default();
        for (s, out) in outs.iter().enumerate() {
            self.mem.commit(&out.journal);
            stats.merge_shard(&out.stats);
            mem_stats.merge(&out.mem_stats);
            self.warp_allocations += out.warp_allocs;
            if outcome.is_ok() && !out.outcome.is_ok() {
                outcome = out.outcome;
            }
            if let Some(join) = joins.get_mut(s).and_then(|j| j.take()) {
                join();
            }
        }
        Ok(LaunchResult {
            outcome,
            stats,
            mem: mem_stats,
        })
    }
}

/// Runs one SM shard to completion and returns its contribution.
fn run_shard(
    env: &ShardEnv<'_>,
    slot: &mut SmSlot,
    mem: &mut DeviceMemory,
    runtime: &mut dyn HandlerRuntime,
    sm_id: u32,
    queue: &[u32],
) -> ShardOut {
    slot.hier.reset();
    slot.free_warps.clear();
    slot.free_warps.extend(0..slot.warps.len());
    slot.free_ctas.clear();
    slot.free_ctas.extend(0..slot.ctas.len());
    let mut exec = Exec {
        cfg: env.cfg,
        module: env.module,
        decoded: env.decoded,
        mode: env.mode,
        kernel: env.kernel,
        dims: env.dims,
        cbank: &env.cbank,
        mem,
        hier: &mut slot.hier,
        runtime,
        launch_index: env.launch_index,
        sm_id,
        queue,
        next_in_queue: 0,
        ctas: &mut slot.ctas,
        warps: &mut slot.warps,
        free_warps: &mut slot.free_warps,
        free_ctas: &mut slot.free_ctas,
        list: Vec::new(),
        rr: 0,
        cycle: 0,
        stats: LaunchStats::default(),
        warp_allocs: 0,
        retire_pending: false,
    };
    let outcome = exec.run(env.max_cycles);
    let mut stats = exec.stats;
    stats.cycles = exec.cycle;
    let warp_allocs = exec.warp_allocs;
    drop(exec);
    ShardOut {
        outcome,
        stats,
        mem_stats: slot.hier.stats(),
        journal: mem.take_journal(),
        warp_allocs,
    }
}

fn build_cbank0(cfg: &GpuConfig, kf: &LinkedFunction, dims: LaunchDims, params: &[u64]) -> Vec<u8> {
    let mut img = vec![0u8; cbank0::PARAM_BASE as usize + 8 * params.len().max(1)];
    let mut w32 = |off: u16, v: u32| {
        img[off as usize..off as usize + 4].copy_from_slice(&v.to_le_bytes());
    };
    w32(cbank0::NTID_X, dims.block.0);
    w32(cbank0::NTID_Y, dims.block.1);
    w32(cbank0::NTID_Z, dims.block.2);
    w32(cbank0::NCTAID_X, dims.grid.0);
    w32(cbank0::NCTAID_Y, dims.grid.1);
    w32(cbank0::NCTAID_Z, dims.grid.2);
    w32(cbank0::LOCAL_SIZE, cfg.local_bytes_per_thread);
    w32(cbank0::SHARED_SIZE, kf.meta.shared_bytes);
    w32(cbank0::LOCAL_WINDOW, sassi_isa::GENERIC_LOCAL_TAG as u32);
    w32(cbank0::SHARED_WINDOW, sassi_isa::GENERIC_SHARED_TAG as u32);
    for (i, p) in params.iter().enumerate() {
        let off = cbank0::PARAM_BASE as usize + 8 * i;
        img[off..off + 8].copy_from_slice(&p.to_le_bytes());
    }
    img
}

struct Cta {
    ctaid: (u32, u32, u32),
    shared: Vec<u8>,
    warps_total: u32,
    warps_done: u32,
    warps_at_barrier: u32,
}

/// The execution loop of one SM shard: borrows the shard's persistent
/// state from its [`SmSlot`] and runs its CTA queue to completion.
struct Exec<'a> {
    cfg: &'a GpuConfig,
    module: &'a Module,
    decoded: &'a DecodedModule,
    mode: ExecMode,
    kernel: &'a LinkedFunction,
    dims: LaunchDims,
    cbank: &'a [u8],
    mem: &'a mut DeviceMemory,
    hier: &'a mut MemoryHierarchy,
    runtime: &'a mut dyn HandlerRuntime,
    launch_index: u64,
    /// Global shard id — the SM id handlers and `%smid` observe.
    sm_id: u32,
    /// Linear CTA ids assigned to this shard, issued in order.
    queue: &'a [u32],
    next_in_queue: usize,
    ctas: &'a mut Vec<Cta>,
    warps: &'a mut Vec<Warp>,
    free_warps: &'a mut Vec<usize>,
    free_ctas: &'a mut Vec<usize>,
    /// Warp indices resident on this SM.
    list: Vec<usize>,
    rr: usize,
    cycle: u64,
    stats: LaunchStats,
    warp_allocs: u64,
    /// Whether some listed warp went `Done` since the last retire
    /// scan. Warps only finish during their own step, so `pick` can
    /// skip the scan entirely on the (vastly more common) cycles where
    /// nothing retired.
    retire_pending: bool,
}

impl Exec<'_> {
    fn ctas_per_sm(&self) -> u32 {
        let wpb = self.dims.warps_per_block();
        let by_warps = self.cfg.max_warps_per_sm / wpb;
        let shared = (self.kernel.meta.shared_bytes + 7) & !7;
        let by_shared = self
            .cfg
            .shared_per_sm
            .checked_div(shared)
            .unwrap_or(u32::MAX);
        self.cfg.max_ctas_per_sm.min(by_warps).min(by_shared).max(1)
    }

    fn block_coords(&self, linear: u32) -> (u32, u32, u32) {
        let (gx, gy, _) = self.dims.grid;
        (linear % gx, (linear / gx) % gy, linear / (gx * gy))
    }

    fn issue_block(&mut self) {
        let Some(&linear) = self.queue.get(self.next_in_queue) else {
            return;
        };
        self.next_in_queue += 1;
        self.stats.blocks += 1;
        let wpb = self.dims.warps_per_block();
        let tpb = self.dims.threads_per_block();
        let shared_len = ((self.kernel.meta.shared_bytes + 7) & !7) as usize;
        let ctaid = self.block_coords(linear);
        let cta_idx = match self.free_ctas.pop() {
            Some(i) => {
                let c = &mut self.ctas[i];
                c.ctaid = ctaid;
                c.shared.clear();
                c.shared.resize(shared_len, 0);
                c.warps_total = wpb;
                c.warps_done = 0;
                c.warps_at_barrier = 0;
                i
            }
            None => {
                self.ctas.push(Cta {
                    ctaid,
                    shared: vec![0; shared_len],
                    warps_total: wpb,
                    warps_done: 0,
                    warps_at_barrier: 0,
                });
                self.ctas.len() - 1
            }
        };
        for w in 0..wpb {
            let first = w * 32;
            let count = tpb.saturating_sub(first).min(32);
            let existing: LaneMask = if count == 32 {
                u32::MAX
            } else {
                (1u32 << count) - 1
            };
            let wi = match self.free_warps.pop() {
                Some(i) => {
                    self.warps[i].reset(
                        cta_idx,
                        w,
                        self.kernel.entry,
                        existing,
                        self.cfg.regs_per_thread,
                        self.cfg.local_bytes_per_thread,
                    );
                    i
                }
                None => {
                    self.warp_allocs += 1;
                    self.warps.push(Warp::new(
                        cta_idx,
                        w,
                        self.kernel.entry,
                        existing,
                        self.cfg.regs_per_thread,
                        self.cfg.local_bytes_per_thread,
                    ));
                    self.warps.len() - 1
                }
            };
            self.list.push(wi);
        }
    }

    fn run(&mut self, max_cycles: u64) -> KernelOutcome {
        // Fill the SM to occupancy.
        let target = self.ctas_per_sm();
        for _ in 0..target {
            self.issue_block();
        }

        loop {
            if self.cycle > max_cycles {
                return KernelOutcome::Hang;
            }
            match self.pick() {
                Pick::Warp(wi) => {
                    // `step_block` charges its own cycles: one per µop
                    // executed, none for a faulting µop.
                    if let Err(kind) = self.step_block(wi) {
                        return KernelOutcome::Fault(FaultInfo {
                            kind,
                            pc: self.warps[wi].pc,
                            sm: self.sm_id,
                        });
                    }
                    if self.warps[wi].status == WarpStatus::Done {
                        self.retire_pending = true;
                    }
                }
                Pick::Stalled(until) => {
                    self.cycle = until.max(self.cycle + 1);
                }
                Pick::Empty => {
                    if self.next_in_queue >= self.queue.len() {
                        return KernelOutcome::Completed;
                    }
                    self.issue_block();
                }
            }
        }
    }

    /// Runs warp `wi` from its current pc to the end of the enclosing
    /// basic block: every remaining µop of the straight-line run
    /// (predicated-off ones included) executes under this one
    /// scheduler visit, bailing out early only on a fault, warp
    /// retirement or a barrier. This is the only scheduler path, for
    /// both [`ExecMode`]s.
    ///
    /// Kernels with consuming global atomics run one µop per visit
    /// (a run ending at `pc + 1`): a consumed old value (CAS winners,
    /// `atom` destinations) feeds the intra-SM warp interleaving back
    /// into the instruction stream, so coarsening that interleaving
    /// would change what such kernels compute.
    ///
    /// The timing contract (DESIGN.md): one cycle per µop executed;
    /// intermediate dependence stalls are *not* waited out mid-run;
    /// instead the run's final `ready_at` is the max over its µops',
    /// so a long-latency load still delays the warp's next run while
    /// other warps fill the gap.
    ///
    /// In `Decoded` mode consecutive ALU µops take a fused inner loop
    /// and every other µop goes through `step_decoded`; in `Reference`
    /// mode every µop goes through `step_reference`.
    fn step_block(&mut self, wi: usize) -> Result<(), FaultKind> {
        // The extent is asked from the *current* pc: jumps into the
        // middle of a run execute only its remaining suffix.
        let pc = self.warps[wi].pc;
        let end = if self.decoded.has_consuming_global_atomics() {
            pc.saturating_add(1)
        } else {
            self.decoded.block_end(pc)
        };
        let fused = self.mode == ExecMode::Decoded;
        let mut block_ready = 0u64;
        loop {
            // Straight-line fast path: consecutive ALU-class µops of
            // the run execute with the warp, the stat block and the
            // cycle counter borrowed once, instead of re-resolving
            // `self.warps[wi]` and dispatching through `step_decoded`
            // per µop. Semantics are identical: same guard
            // evaluation, same stat bumps, one cycle per µop, and the
            // same `ready_at` contribution (`cycle + lat`, what
            // `finish` would write) folded into the block maximum.
            // The boundary µop at `end - 1` — like memory, trap, S2R
            // and warp-wide µops — always takes the general path.
            if fused {
                let dm: &DecodedModule = self.decoded;
                let cbank = self.cbank;
                let w = &mut self.warps[wi];
                let stats = &mut self.stats;
                let mut cycle = self.cycle;
                while w.pc + 1 < end {
                    let Some(di) = dm.get(w.pc) else { break };
                    let mask = guard_mask(w, di.guard);
                    if !Self::exec_alu(cbank, w, &di.uop, mask) {
                        break;
                    }
                    stats.warp_instrs += 1;
                    stats.thread_instrs += mask.count_ones() as u64;
                    stats.issue.bump(di.class);
                    w.pc += 1;
                    block_ready = block_ready.max(cycle + (di.lat as u64).max(1));
                    cycle += 1;
                }
                self.cycle = cycle;
            }
            let pc = self.warps[wi].pc;
            // On a fault the warp's pc still names the faulting µop
            // and earlier µops' cycles are already charged — precise
            // resume needs no boundary at fault-capable µops.
            if fused {
                self.step_decoded(wi)?;
            } else {
                self.step_reference(wi)?;
            }
            self.cycle += 1;
            let w = &self.warps[wi];
            block_ready = block_ready.max(w.ready_at);
            // `pc + 1 == end` means the run's last µop just executed —
            // checked against the pre-step pc because a block-ending
            // branch may land anywhere (including back inside this
            // block, which starts a *new* scheduler visit). Every
            // non-ending µop advances pc by exactly one.
            if pc + 1 >= end || w.status != WarpStatus::Ready {
                break;
            }
        }
        let w = &mut self.warps[wi];
        w.ready_at = block_ready.max(w.ready_at);
        Ok(())
    }

    fn pick(&mut self) -> Pick {
        // Retire finished warps lazily — only on cycles where a warp
        // actually went `Done` (`retire_pending`), so the common path
        // skips straight to warp selection.
        if self.retire_pending {
            self.retire_pending = false;
            let mut i = 0;
            while i < self.list.len() {
                let wi = self.list[i];
                if self.warps[wi].status == WarpStatus::Done {
                    // Unlist the warp and recycle its context (registers
                    // and local slab are zeroed on reuse, not freed).
                    self.list.swap_remove(i);
                    self.free_warps.push(wi);
                    let cta = self.warps[wi].cta;
                    self.ctas[cta].warps_done += 1;
                    self.maybe_release_barrier(cta);
                    if self.ctas[cta].warps_done == self.ctas[cta].warps_total {
                        self.free_ctas.push(cta);
                        self.issue_block();
                    }
                    continue;
                }
                i += 1;
            }
        }
        if self.list.is_empty() {
            return Pick::Empty;
        }
        // Round-robin from `rr`: two linear passes (wrap once) instead
        // of a modulo per candidate. Visit order is identical.
        let n = self.list.len();
        let start = self.rr % n;
        let mut min_ready = u64::MAX;
        for k in start..n {
            let w = &self.warps[self.list[k]];
            if w.status == WarpStatus::Ready {
                if w.ready_at <= self.cycle {
                    self.rr = (k + 1) % n;
                    return Pick::Warp(self.list[k]);
                }
                min_ready = min_ready.min(w.ready_at);
            }
        }
        for k in 0..start {
            let w = &self.warps[self.list[k]];
            if w.status == WarpStatus::Ready {
                if w.ready_at <= self.cycle {
                    self.rr = k + 1;
                    return Pick::Warp(self.list[k]);
                }
                min_ready = min_ready.min(w.ready_at);
            }
        }
        if min_ready == u64::MAX {
            // Everyone is at a barrier or done — barrier release happens
            // on warp retirement/arrival; nothing to wait for timewise.
            Pick::Stalled(self.cycle + 1)
        } else {
            Pick::Stalled(min_ready)
        }
    }

    fn maybe_release_barrier(&mut self, cta_idx: usize) {
        let cta = &self.ctas[cta_idx];
        let waiting_target = cta.warps_total - cta.warps_done;
        if cta.warps_at_barrier > 0 && cta.warps_at_barrier >= waiting_target {
            self.ctas[cta_idx].warps_at_barrier = 0;
            for i in 0..self.list.len() {
                let wi = self.list[i];
                let w = &mut self.warps[wi];
                if w.cta == cta_idx && w.status == WarpStatus::AtBarrier {
                    w.status = WarpStatus::Ready;
                }
            }
        }
    }

    /// The pre-decoded hot loop: executes one µop with no allocation,
    /// no `Instr` clone and no operand re-matching.
    fn step_decoded(&mut self, wi: usize) -> Result<(), FaultKind> {
        // Copying the long-lived reference out of `self` unties the
        // instruction from the `&mut self` borrow, so the borrow
        // checker permits mutating warp/stat state while `di` lives.
        let dm: &DecodedModule = self.decoded;
        let pc = self.warps[wi].pc;
        let Some(di) = dm.get(pc) else {
            return Err(FaultKind::InvalidPc { pc: pc as u64 });
        };
        let mask = guard_mask(&self.warps[wi], di.guard);
        self.stats.warp_instrs += 1;
        self.stats.thread_instrs += mask.count_ones() as u64;
        self.stats.issue.bump(di.class);

        let lat: u64 = di.lat as u64;
        match di.uop {
            // ---- control flow ------------------------------------------------
            UOp::Ssy { reconv } => {
                let w = &mut self.warps[wi];
                w.stack.push(crate::warp::StackEntry::Ssy {
                    reconv,
                    mask: w.active,
                });
                w.pc += 1;
                finish(w, self.cycle, 1);
                return Ok(());
            }
            UOp::Bra { target } => {
                let w = &mut self.warps[wi];
                if di.is_guarded() {
                    self.stats.cond_branches += 1;
                }
                if w.branch(target, mask) {
                    self.stats.divergent_branches += 1;
                }
                finish(&mut self.warps[wi], self.cycle, 2);
                return Ok(());
            }
            UOp::Sync => {
                let w = &mut self.warps[wi];
                if di.is_guarded() {
                    // A predicated SYNC is a conditional control
                    // transfer: lanes that pass the guard park, the
                    // rest fall through.
                    self.stats.cond_branches += 1;
                    if mask != 0 && mask != w.active {
                        self.stats.divergent_branches += 1;
                    }
                }
                w.sync(mask);
                finish(&mut self.warps[wi], self.cycle, 2);
                return Ok(());
            }
            UOp::Exit => {
                let w = &mut self.warps[wi];
                if di.is_guarded() {
                    self.stats.cond_branches += 1;
                    if mask != 0 && mask != w.active {
                        self.stats.divergent_branches += 1;
                    }
                }
                w.exit_lanes(mask);
                finish(&mut self.warps[wi], self.cycle, 1);
                return Ok(());
            }
            UOp::Call { target } => {
                let w = &mut self.warps[wi];
                w.call_stack.push(w.pc + 1);
                w.pc = target;
                finish(w, self.cycle, 4);
                return Ok(());
            }
            UOp::Trap { handler, site } => {
                self.stats.handler_calls += 1;
                let cost = {
                    let warp = &mut self.warps[wi];
                    let cta = &mut self.ctas[warp.cta];
                    let mut ctx = TrapCtx {
                        warp,
                        shared: &mut cta.shared,
                        mem: self.mem,
                        ctaid: cta.ctaid,
                        block_dim: self.dims.block,
                        grid_dim: self.dims.grid,
                        sm_id: self.sm_id,
                        cycle: self.cycle,
                        kernel: &self.kernel.name,
                        launch_index: self.launch_index,
                    };
                    self.runtime.handle(TrapRef { site, handler }, &mut ctx)
                };
                let cycles = cost.cycles();
                self.stats.handler_cycles += cycles;
                self.warps[wi].pc += 1;
                finish(&mut self.warps[wi], self.cycle, 4 + cycles);
                return Ok(());
            }
            UOp::Ret => {
                let w = &mut self.warps[wi];
                match w.call_stack.pop() {
                    Some(r) => w.pc = r,
                    None => return Err(FaultKind::CallStackUnderflow),
                }
                finish(&mut self.warps[wi], self.cycle, 4);
                return Ok(());
            }
            UOp::BarSync => {
                let cta_idx = self.warps[wi].cta;
                {
                    let w = &mut self.warps[wi];
                    w.pc += 1;
                    w.status = WarpStatus::AtBarrier;
                    w.ready_at = self.cycle + 1;
                }
                self.ctas[cta_idx].warps_at_barrier += 1;
                self.maybe_release_barrier(cta_idx);
                return Ok(());
            }
            UOp::Invalid(defect) => return Err(defect.fault(pc)),

            // ---- memory -----------------------------------------------------
            UOp::Ld { d, width, addr } => {
                self.mem_load(wi, mask, d, width, &addr)?;
                self.warps[wi].pc += 1;
                return Ok(());
            }
            UOp::St { v, width, addr } => {
                self.mem_store(wi, mask, v, width, &addr)?;
                self.warps[wi].pc += 1;
                return Ok(());
            }
            UOp::Atom {
                d,
                op,
                addr,
                v,
                v2,
                wide,
            } => {
                self.mem_atomic(wi, mask, d, op, &addr, v, v2, wide)?;
                self.warps[wi].pc += 1;
                return Ok(());
            }
            UOp::MemBar => {} // lat precomputed in the header

            // ---- warp-wide ---------------------------------------------------
            UOp::Vote {
                mode,
                d,
                p_out,
                src,
                neg_src,
            } => {
                let w = &mut self.warps[wi];
                let mut ballot: u32 = 0;
                for_lanes(mask, |lane| {
                    if w.pred(lane, src) != neg_src {
                        ballot |= 1 << lane;
                    }
                });
                let all = ballot & mask == mask && mask != 0;
                let any = ballot != 0;
                for_lanes(mask, |lane| {
                    match mode {
                        VoteMode::Ballot => w.set_reg(lane, d, ballot),
                        VoteMode::All => w.set_reg(lane, d, all as u32),
                        VoteMode::Any => w.set_reg(lane, d, any as u32),
                    }
                    if let Some(p) = p_out {
                        let v = match mode {
                            VoteMode::All => all,
                            VoteMode::Any => any,
                            VoteMode::Ballot => ballot != 0,
                        };
                        w.set_pred(lane, p, v);
                    }
                });
            }
            UOp::Shfl {
                mode,
                d,
                a,
                b,
                p_out,
            } => {
                let b = rsrc_c(self.cbank, b);
                let w = &mut self.warps[wi];
                let mut snapshot = [0u32; 32];
                for (l, s) in snapshot.iter_mut().enumerate() {
                    *s = w.reg(l, a);
                }
                for_lanes(mask, |lane| {
                    let bv = rval(w, lane, b);
                    let src_lane = match mode {
                        ShflMode::Idx => (bv & 31) as usize,
                        ShflMode::Up => lane.wrapping_sub(bv as usize),
                        ShflMode::Down => lane + bv as usize,
                        ShflMode::Bfly => lane ^ (bv as usize & 31),
                    };
                    let in_range = src_lane < 32 && (mask & (1 << src_lane)) != 0;
                    let val = if in_range {
                        snapshot[src_lane]
                    } else {
                        snapshot[lane]
                    };
                    w.set_reg(lane, d, val);
                    if let Some(p) = p_out {
                        w.set_pred(lane, p, in_range);
                    }
                });
            }

            // ---- per-lane ALU -------------------------------------------------
            _ => self.alu_decoded(wi, &di.uop, mask),
        }
        let w = &mut self.warps[wi];
        w.pc += 1;
        finish(w, self.cycle, lat);
        Ok(())
    }

    /// Per-lane execution of the ALU-class µops. `S2R` is the one
    /// ALU-class µop that reads scheduler state (cta coordinates, sm
    /// id, the cycle counter), so it is handled here; every other op
    /// runs in the warp-only [`Exec::exec_alu`], shared with the
    /// block-stepped straight-line fast loop.
    fn alu_decoded(&mut self, wi: usize, uop: &UOp, mask: LaneMask) {
        if let UOp::S2R { d, sr } = *uop {
            let ctx = self.special_ctx(&self.warps[wi]);
            let w = &mut self.warps[wi];
            for_lanes(mask, |lane| {
                let v = special_value(&ctx, lane, sr);
                w.set_reg(lane, d, v);
            });
            return;
        }
        Self::exec_alu(self.cbank, &mut self.warps[wi], uop, mask);
    }

    /// Warp-only execution of the ALU-class µops: the operation is
    /// matched and its operands resolved once per warp; only the lane
    /// loop runs per thread. Returns `false` — having done nothing —
    /// for µops that need more than the warp and the constant bank
    /// (memory, control, trap, `S2R`, warp-wide), so callers fall
    /// back to the general `step_decoded` path.
    fn exec_alu(cbank: &[u8], w: &mut Warp, uop: &UOp, mask: LaneMask) -> bool {
        match *uop {
            UOp::Mov { d, a } => {
                let a = rsrc_c(cbank, a);
                for_lanes(mask, |lane| {
                    let v = rval(w, lane, a);
                    w.set_reg(lane, d, v);
                });
            }
            UOp::IAdd { d, a, b, x, cc } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = w.reg(lane, a) as u64;
                    let bv = rval(w, lane, b) as u64;
                    let cin = if x { w.cc[lane] as u64 } else { 0 };
                    let sum = av + bv + cin;
                    w.set_reg(lane, d, sum as u32);
                    if cc {
                        w.cc[lane] = sum >> 32 != 0;
                    }
                });
            }
            UOp::ISub { d, a, b } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let v = w.reg(lane, a).wrapping_sub(rval(w, lane, b));
                    w.set_reg(lane, d, v);
                });
            }
            UOp::IMul {
                d,
                a,
                b,
                signed,
                hi,
            } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = w.reg(lane, a);
                    let bv = rval(w, lane, b);
                    let v = if signed {
                        let p = (av as i32 as i64) * (bv as i32 as i64);
                        if hi {
                            (p >> 32) as u32
                        } else {
                            p as u32
                        }
                    } else {
                        let p = (av as u64) * (bv as u64);
                        if hi {
                            (p >> 32) as u32
                        } else {
                            p as u32
                        }
                    };
                    w.set_reg(lane, d, v);
                });
            }
            UOp::IMad { d, a, b, c } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let v = w
                        .reg(lane, a)
                        .wrapping_mul(rval(w, lane, b))
                        .wrapping_add(w.reg(lane, c));
                    w.set_reg(lane, d, v);
                });
            }
            UOp::IScAdd { d, a, b, shift } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let v = (w.reg(lane, a) << shift).wrapping_add(rval(w, lane, b));
                    w.set_reg(lane, d, v);
                });
            }
            UOp::IMnMx {
                d,
                a,
                b,
                min,
                signed,
            } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = w.reg(lane, a);
                    let bv = rval(w, lane, b);
                    let v = match (signed, min) {
                        (true, true) => (av as i32).min(bv as i32) as u32,
                        (true, false) => (av as i32).max(bv as i32) as u32,
                        (false, true) => av.min(bv),
                        (false, false) => av.max(bv),
                    };
                    w.set_reg(lane, d, v);
                });
            }
            UOp::Shl { d, a, b } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let s = rval(w, lane, b);
                    let v = if s >= 32 { 0 } else { w.reg(lane, a) << s };
                    w.set_reg(lane, d, v);
                });
            }
            UOp::Shr { d, a, b, signed } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let s = rval(w, lane, b);
                    let av = w.reg(lane, a);
                    let v = if signed {
                        if s >= 32 {
                            ((av as i32) >> 31) as u32
                        } else {
                            ((av as i32) >> s) as u32
                        }
                    } else if s >= 32 {
                        0
                    } else {
                        av >> s
                    };
                    w.set_reg(lane, d, v);
                });
            }
            UOp::Lop { d, op, a, b, inv_b } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = w.reg(lane, a);
                    let mut bv = rval(w, lane, b);
                    if inv_b {
                        bv = !bv;
                    }
                    w.set_reg(lane, d, op.eval(av, bv));
                });
            }
            UOp::Popc { d, a } => {
                for_lanes(mask, |lane| {
                    let v = w.reg(lane, a).count_ones();
                    w.set_reg(lane, d, v);
                });
            }
            UOp::Flo { d, a } => {
                for_lanes(mask, |lane| {
                    let av = w.reg(lane, a);
                    let v = if av == 0 {
                        u32::MAX
                    } else {
                        31 - av.leading_zeros()
                    };
                    w.set_reg(lane, d, v);
                });
            }
            UOp::Brev { d, a } => {
                for_lanes(mask, |lane| {
                    let v = w.reg(lane, a).reverse_bits();
                    w.set_reg(lane, d, v);
                });
            }
            UOp::Sel { d, a, b, p, neg_p } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let v = if w.pred(lane, p) != neg_p {
                        w.reg(lane, a)
                    } else {
                        rval(w, lane, b)
                    };
                    w.set_reg(lane, d, v);
                });
            }
            UOp::FAdd {
                d,
                a,
                b,
                neg_a,
                neg_b,
            } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let mut av = f32::from_bits(w.reg(lane, a));
                    let mut bv = f32::from_bits(rval(w, lane, b));
                    if neg_a {
                        av = -av;
                    }
                    if neg_b {
                        bv = -bv;
                    }
                    w.set_reg(lane, d, (av + bv).to_bits());
                });
            }
            UOp::FMul { d, a, b } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = f32::from_bits(w.reg(lane, a));
                    let bv = f32::from_bits(rval(w, lane, b));
                    w.set_reg(lane, d, (av * bv).to_bits());
                });
            }
            UOp::FFma {
                d,
                a,
                b,
                c,
                neg_b,
                neg_c,
            } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = f32::from_bits(w.reg(lane, a));
                    let mut bv = f32::from_bits(rval(w, lane, b));
                    let mut cv = f32::from_bits(w.reg(lane, c));
                    if neg_b {
                        bv = -bv;
                    }
                    if neg_c {
                        cv = -cv;
                    }
                    w.set_reg(lane, d, av.mul_add(bv, cv).to_bits());
                });
            }
            UOp::FMnMx { d, a, b, min } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = f32::from_bits(w.reg(lane, a));
                    let bv = f32::from_bits(rval(w, lane, b));
                    let v = if min { av.min(bv) } else { av.max(bv) };
                    w.set_reg(lane, d, v.to_bits());
                });
            }
            UOp::Mufu { d, func, a } => {
                for_lanes(mask, |lane| {
                    let av = f32::from_bits(w.reg(lane, a));
                    w.set_reg(lane, d, func.eval(av).to_bits());
                });
            }
            UOp::I2F { d, a } => {
                for_lanes(mask, |lane| {
                    let v = (w.reg(lane, a) as i32 as f32).to_bits();
                    w.set_reg(lane, d, v);
                });
            }
            UOp::F2I { d, a } => {
                for_lanes(mask, |lane| {
                    let v = f32::from_bits(w.reg(lane, a)) as i32 as u32;
                    w.set_reg(lane, d, v);
                });
            }
            UOp::ISetP {
                p,
                cmp,
                a,
                b,
                signed,
                combine,
            } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = w.reg(lane, a);
                    let bv = rval(w, lane, b);
                    let base = if signed {
                        cmp.eval_i64(av as i32 as i64, bv as i32 as i64)
                    } else {
                        cmp.eval_i64(av as i64, bv as i64)
                    };
                    let v = match combine {
                        None => base,
                        Some((cp, neg)) => base && (w.pred(lane, cp) != neg),
                    };
                    w.set_pred(lane, p, v);
                });
            }
            UOp::FSetP { p, cmp, a, b } => {
                let b = rsrc_c(cbank, b);
                for_lanes(mask, |lane| {
                    let av = f32::from_bits(w.reg(lane, a));
                    let bv = f32::from_bits(rval(w, lane, b));
                    w.set_pred(lane, p, cmp.eval_f32(av, bv));
                });
            }
            UOp::PSetP {
                p,
                op,
                a,
                b,
                neg_a,
                neg_b,
            } => {
                for_lanes(mask, |lane| {
                    let av = w.pred(lane, a) != neg_a;
                    let bv = w.pred(lane, b) != neg_b;
                    let v = match op {
                        LogicOp::And => av && bv,
                        LogicOp::Or => av || bv,
                        LogicOp::Xor => av != bv,
                        LogicOp::PassB => bv,
                    };
                    w.set_pred(lane, p, v);
                });
            }
            UOp::P2R { d } => {
                for_lanes(mask, |lane| {
                    let v = w.preds[lane] as u32 & 0x7f;
                    w.set_reg(lane, d, v);
                });
            }
            UOp::R2P { a } => {
                for_lanes(mask, |lane| {
                    w.preds[lane] = (w.reg(lane, a) & 0x7f) as u8;
                });
            }
            UOp::Nop | UOp::MemBar => {}
            // Control / memory / warp-wide / `S2R` µops take the
            // general `step_decoded` path.
            _ => return false,
        }
        true
    }

    /// Snapshots the warp-invariant inputs of special-register reads,
    /// so `S2R` hoists them out of the lane loop.
    fn special_ctx(&self, w: &Warp) -> SpecialCtx {
        let cta = &self.ctas[w.cta];
        SpecialCtx {
            warp_in_cta: w.warp_in_cta,
            active: w.active,
            ctaid: cta.ctaid,
            sm: self.sm_id,
            block: self.dims.block,
            grid: self.dims.grid,
            cycle: self.cycle,
        }
    }

    fn special(&self, w: &Warp, lane: usize, sr: SpecialReg) -> u32 {
        special_value(&self.special_ctx(w), lane, sr)
    }

    // ---- memory helpers ----------------------------------------------------

    /// Resolves a lane's effective address for `addr`; returns
    /// (space, resolved byte offset/address).
    fn lane_addr(
        &self,
        w: &Warp,
        lane: usize,
        addr: &MemAddr,
    ) -> Result<(AddrSpace, u64), FaultKind> {
        match addr.space {
            AddrSpace::Local => {
                let base = w.reg(lane, addr.base);
                let a = base.wrapping_add(addr.offset as u32) as u64;
                Ok((AddrSpace::Local, a))
            }
            AddrSpace::Shared => {
                let base = w.reg(lane, addr.base);
                Ok((
                    AddrSpace::Shared,
                    base.wrapping_add(addr.offset as u32) as u64,
                ))
            }
            AddrSpace::Global => {
                let a = w
                    .reg64(lane, addr.base)
                    .wrapping_add(addr.offset as i64 as u64);
                Ok((AddrSpace::Global, a))
            }
            AddrSpace::Generic => {
                let a = w
                    .reg64(lane, addr.base)
                    .wrapping_add(addr.offset as i64 as u64);
                match resolve_generic(a) {
                    Some((s, off)) => Ok((s, off)),
                    None => Err(FaultKind::MemViolation { addr: a }),
                }
            }
        }
    }

    fn mem_load(
        &mut self,
        wi: usize,
        mask: LaneMask,
        d: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<(), FaultKind> {
        let bytes = width.bytes();
        // The address space is a static property of the instruction
        // (only `Generic` resolves per lane), so dispatch on it once
        // and run a specialized per-lane loop — trampoline spills and
        // fills (`STL`/`LDL`) live entirely on the `Local` fast path.
        // Keep these arms separate from the general per-lane loop
        // below: folding them into it cost the instrumented perfbench
        // workloads about a third of their throughput (10–20% even
        // with the loop forced inline), because every trampoline
        // spill then pays the per-lane space resolution.
        match addr.space {
            AddrSpace::Local => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mut buf = [0u8; 16];
                    {
                        let w = &self.warps[wi];
                        let a = w.reg(lane, addr.base).wrapping_add(addr.offset as u32) as u64;
                        let off = a as usize;
                        let slab = w.lane_local(lane);
                        if off + bytes as usize > slab.len() {
                            return Err(FaultKind::StackViolation { offset: a });
                        }
                        buf[..bytes as usize].copy_from_slice(&slab[off..off + bytes as usize]);
                    }
                    write_load_result(&mut self.warps[wi], lane, d, width, &buf);
                }
                let lat = self.mem_latency(&[], bytes, false, mask != 0, false);
                finish(&mut self.warps[wi], self.cycle, lat);
                return Ok(());
            }
            AddrSpace::Shared => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mut buf = [0u8; 16];
                    {
                        let w = &self.warps[wi];
                        let a = w.reg(lane, addr.base).wrapping_add(addr.offset as u32) as u64;
                        let off = a as usize;
                        let shared = &self.ctas[w.cta].shared;
                        if off + bytes as usize > shared.len() {
                            return Err(FaultKind::SharedViolation { offset: a });
                        }
                        buf[..bytes as usize].copy_from_slice(&shared[off..off + bytes as usize]);
                    }
                    write_load_result(&mut self.warps[wi], lane, d, width, &buf);
                }
                let lat = self.mem_latency(&[], bytes, false, false, mask != 0);
                finish(&mut self.warps[wi], self.cycle, lat);
                return Ok(());
            }
            AddrSpace::Global | AddrSpace::Generic => {}
        }
        // Lane addresses are collected in lane order into a fixed
        // array: the coalescer is order-sensitive and the hot loop
        // must not allocate.
        let mut global_addrs = [0u64; 32];
        let mut n_global = 0usize;
        let mut has_local = false;
        let mut has_shared = false;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let (space, a) = self.lane_addr(&self.warps[wi], lane, addr)?;
            let data: [u8; 16] = match space {
                AddrSpace::Local => {
                    has_local = true;
                    let w = &self.warps[wi];
                    let slab = w.lane_local(lane);
                    let off = a as usize;
                    if off + bytes as usize > slab.len() {
                        return Err(FaultKind::StackViolation { offset: a });
                    }
                    let mut buf = [0u8; 16];
                    buf[..bytes as usize].copy_from_slice(&slab[off..off + bytes as usize]);
                    buf
                }
                AddrSpace::Shared => {
                    has_shared = true;
                    let cta = &self.ctas[self.warps[wi].cta];
                    let off = a as usize;
                    if off + bytes as usize > cta.shared.len() {
                        return Err(FaultKind::SharedViolation { offset: a });
                    }
                    let mut buf = [0u8; 16];
                    buf[..bytes as usize].copy_from_slice(&cta.shared[off..off + bytes as usize]);
                    buf
                }
                AddrSpace::Global | AddrSpace::Generic => {
                    global_addrs[n_global] = a;
                    n_global += 1;
                    let got = self.mem.read_bytes(a, bytes).map_err(mem_fault)?;
                    let mut buf = [0u8; 16];
                    buf[..bytes as usize].copy_from_slice(got);
                    buf
                }
            };
            let w = &mut self.warps[wi];
            write_load_result(w, lane, d, width, &data);
        }
        let lat = self.mem_latency(
            &global_addrs[..n_global],
            bytes,
            false,
            has_local,
            has_shared,
        );
        finish(&mut self.warps[wi], self.cycle, lat);
        Ok(())
    }

    fn mem_store(
        &mut self,
        wi: usize,
        mask: LaneMask,
        v: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<(), FaultKind> {
        let bytes = width.bytes();
        // Static-space fast paths, as in `mem_load` (and kept separate
        // for the same reason): trampoline GPR saves (`STL`) take the
        // `Local` arm.
        match addr.space {
            AddrSpace::Local => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mut buf = [0u8; 16];
                    let w = &mut self.warps[wi];
                    store_source_bytes(w, lane, v, width, bytes, &mut buf);
                    let a = w.reg(lane, addr.base).wrapping_add(addr.offset as u32) as u64;
                    let off = a as usize;
                    let slab = w.lane_local_mut(lane);
                    if off + bytes as usize > slab.len() {
                        return Err(FaultKind::StackViolation { offset: a });
                    }
                    slab[off..off + bytes as usize].copy_from_slice(&buf[..bytes as usize]);
                }
                let lat = self.mem_latency(&[], bytes, true, mask != 0, false);
                finish(&mut self.warps[wi], self.cycle, lat);
                return Ok(());
            }
            AddrSpace::Shared => {
                let mut m = mask;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mut buf = [0u8; 16];
                    let w = &self.warps[wi];
                    store_source_bytes(w, lane, v, width, bytes, &mut buf);
                    let a = w.reg(lane, addr.base).wrapping_add(addr.offset as u32) as u64;
                    let off = a as usize;
                    let shared = &mut self.ctas[w.cta].shared;
                    if off + bytes as usize > shared.len() {
                        return Err(FaultKind::SharedViolation { offset: a });
                    }
                    shared[off..off + bytes as usize].copy_from_slice(&buf[..bytes as usize]);
                }
                let lat = self.mem_latency(&[], bytes, true, false, mask != 0);
                finish(&mut self.warps[wi], self.cycle, lat);
                return Ok(());
            }
            AddrSpace::Global | AddrSpace::Generic => {}
        }
        let mut global_addrs = [0u64; 32];
        let mut n_global = 0usize;
        let mut has_local = false;
        let mut has_shared = false;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let (space, a) = self.lane_addr(&self.warps[wi], lane, addr)?;
            let mut buf = [0u8; 16];
            store_source_bytes(&self.warps[wi], lane, v, width, bytes, &mut buf);
            match space {
                AddrSpace::Local => {
                    has_local = true;
                    let w = &mut self.warps[wi];
                    let off = a as usize;
                    let slab = w.lane_local_mut(lane);
                    if off + bytes as usize > slab.len() {
                        return Err(FaultKind::StackViolation { offset: a });
                    }
                    slab[off..off + bytes as usize].copy_from_slice(&buf[..bytes as usize]);
                }
                AddrSpace::Shared => {
                    has_shared = true;
                    let cta = &mut self.ctas[self.warps[wi].cta];
                    let off = a as usize;
                    if off + bytes as usize > cta.shared.len() {
                        return Err(FaultKind::SharedViolation { offset: a });
                    }
                    cta.shared[off..off + bytes as usize].copy_from_slice(&buf[..bytes as usize]);
                }
                AddrSpace::Global | AddrSpace::Generic => {
                    global_addrs[n_global] = a;
                    n_global += 1;
                    self.mem
                        .write_bytes(a, &buf[..bytes as usize])
                        .map_err(mem_fault)?;
                }
            }
        }
        let lat = self.mem_latency(
            &global_addrs[..n_global],
            bytes,
            true,
            has_local,
            has_shared,
        );
        finish(&mut self.warps[wi], self.cycle, lat);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn mem_atomic(
        &mut self,
        wi: usize,
        mask: LaneMask,
        d: Option<Gpr>,
        op: AtomOp,
        addr: &MemAddr,
        v: Gpr,
        v2: Option<Gpr>,
        wide: bool,
    ) -> Result<(), FaultKind> {
        let mut global_addrs = [0u64; 32];
        let mut n_global = 0usize;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let (space, a) = self.lane_addr(&self.warps[wi], lane, addr)?;
            let (operand, operand2) = {
                let w = &self.warps[wi];
                let x = if wide {
                    w.reg64(lane, v)
                } else {
                    w.reg(lane, v) as u64
                };
                let y = match v2 {
                    Some(r) => {
                        if wide {
                            w.reg64(lane, r)
                        } else {
                            w.reg(lane, r) as u64
                        }
                    }
                    None => 0,
                };
                (x, y)
            };
            let old = match space {
                AddrSpace::Global | AddrSpace::Generic => {
                    global_addrs[n_global] = a;
                    n_global += 1;
                    // DeviceMemory applies the read-modify-write and,
                    // on forked shard views, records it in the journal
                    // so the master re-applies it at commit time.
                    self.mem
                        .atomic(op, a, operand, operand2, wide)
                        .map_err(mem_fault)?
                }
                AddrSpace::Shared => {
                    let cta = &mut self.ctas[self.warps[wi].cta];
                    let off = a as usize;
                    let size = if wide { 8 } else { 4 };
                    if off + size > cta.shared.len() {
                        return Err(FaultKind::SharedViolation { offset: a });
                    }
                    let old = if wide {
                        u64::from_le_bytes(cta.shared[off..off + 8].try_into().unwrap())
                    } else {
                        u32::from_le_bytes(cta.shared[off..off + 4].try_into().unwrap()) as u64
                    };
                    let new = apply_atom(op, old, operand, operand2, wide);
                    if wide {
                        cta.shared[off..off + 8].copy_from_slice(&new.to_le_bytes());
                    } else {
                        cta.shared[off..off + 4].copy_from_slice(&(new as u32).to_le_bytes());
                    }
                    old
                }
                AddrSpace::Local => return Err(FaultKind::MemViolation { addr: a }),
            };
            if let Some(d) = d {
                let w = &mut self.warps[wi];
                if wide {
                    w.set_reg64(lane, d, old);
                } else {
                    w.set_reg(lane, d, old as u32);
                }
            }
        }
        let width = if wide { 8 } else { 4 };
        let mut lat =
            self.mem_latency(&global_addrs[..n_global], width, true, false, n_global == 0);
        lat += 16; // read-modify-write turnaround
        finish(&mut self.warps[wi], self.cycle, lat);
        Ok(())
    }

    fn mem_latency(
        &mut self,
        global_addrs: &[u64],
        width: u32,
        write: bool,
        has_local: bool,
        has_shared: bool,
    ) -> u64 {
        let mut lat = 2u64;
        if !global_addrs.is_empty() {
            let out = self
                .hier
                .access_global(self.cycle, global_addrs, width, write);
            lat = lat.max(out.ready_at.saturating_sub(self.cycle));
        }
        if has_local {
            lat = lat.max(self.hier.local_latency());
        }
        if has_shared {
            lat = lat.max(self.hier.shared_latency());
        }
        lat
    }
}

enum Pick {
    Warp(usize),
    Stalled(u64),
    Empty,
}

fn finish(w: &mut Warp, cycle: u64, lat: u64) {
    w.ready_at = cycle + lat.max(1);
}

/// Reads 4 bytes of a bank-0 constant image (out-of-image reads
/// return 0, matching hardware's zero-backed tail).
#[inline(always)]
fn c0_read_img(cbank: &[u8], offset: u16) -> u32 {
    let off = offset as usize;
    if off + 4 > cbank.len() {
        return 0;
    }
    u32::from_le_bytes(cbank[off..off + 4].try_into().unwrap())
}

/// Resolves a pre-decoded operand against a constant-bank image:
/// constants and immediates become values here, once; only registers
/// remain per-lane work.
#[inline(always)]
fn rsrc_c(cbank: &[u8], s: DSrc) -> RSrc {
    match s {
        DSrc::Reg(r) => RSrc::Reg(r),
        DSrc::Imm(v) => RSrc::Val(v),
        DSrc::C0(off) => RSrc::Val(c0_read_img(cbank, off)),
    }
}

/// Guard evaluation from the packed guard byte.
#[inline]
fn guard_mask(w: &Warp, g: u8) -> LaneMask {
    if g == GUARD_ALWAYS {
        return w.active;
    }
    let idx = g & 7;
    let p = if idx == 7 {
        PredReg::PT
    } else {
        PredReg::new(idx)
    };
    let neg = g & 0x80 != 0;
    let mut m = 0u32;
    for lane in w.active_lanes() {
        if w.pred(lane, p) != neg {
            m |= 1 << lane;
        }
    }
    m
}

/// A source operand resolved for one warp-step: immediates and
/// constant reads are already values, only registers stay per-lane.
#[derive(Clone, Copy)]
enum RSrc {
    Val(u32),
    Reg(Gpr),
}

#[inline(always)]
fn rval(w: &Warp, lane: usize, s: RSrc) -> u32 {
    match s {
        RSrc::Val(v) => v,
        RSrc::Reg(r) => w.reg(lane, r),
    }
}

/// Applies `f` to every lane in `mask`, ascending. The full-warp case
/// takes a straight-line loop (no per-lane mask tests) — the
/// uniform-warp fast path.
#[inline(always)]
fn for_lanes(mask: LaneMask, mut f: impl FnMut(usize)) {
    if mask == u32::MAX {
        for lane in 0..32 {
            f(lane);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            f(lane);
        }
    }
}

/// Warp-invariant inputs of a special-register read.
struct SpecialCtx {
    warp_in_cta: u32,
    active: u32,
    ctaid: (u32, u32, u32),
    sm: u32,
    block: (u32, u32, u32),
    grid: (u32, u32, u32),
    cycle: u64,
}

fn special_value(ctx: &SpecialCtx, lane: usize, sr: SpecialReg) -> u32 {
    let linear = ctx.warp_in_cta * 32 + lane as u32;
    let (bx, by, _) = ctx.block;
    match sr {
        SpecialReg::TidX => linear % bx,
        SpecialReg::TidY => (linear / bx) % by,
        SpecialReg::TidZ => linear / (bx * by),
        SpecialReg::CtaIdX => ctx.ctaid.0,
        SpecialReg::CtaIdY => ctx.ctaid.1,
        SpecialReg::CtaIdZ => ctx.ctaid.2,
        SpecialReg::NTidX => ctx.block.0,
        SpecialReg::NTidY => ctx.block.1,
        SpecialReg::NTidZ => ctx.block.2,
        SpecialReg::NCtaIdX => ctx.grid.0,
        SpecialReg::NCtaIdY => ctx.grid.1,
        SpecialReg::NCtaIdZ => ctx.grid.2,
        SpecialReg::LaneId => lane as u32,
        SpecialReg::WarpId => ctx.warp_in_cta,
        SpecialReg::SmId => ctx.sm,
        SpecialReg::ClockLo => ctx.cycle as u32,
        SpecialReg::ClockHi => (ctx.cycle >> 32) as u32,
        SpecialReg::LaneMaskLt => (1u32 << lane) - 1,
        SpecialReg::ActiveMask => ctx.active,
    }
}

fn mem_fault(e: MemError) -> FaultKind {
    match e {
        MemError::OutOfBounds { addr } => FaultKind::MemViolation { addr },
        MemError::Misaligned { addr, .. } => FaultKind::Misaligned { addr },
        MemError::OutOfMemory => FaultKind::MemViolation { addr: 0 },
    }
}

// `apply_atom` lives in `sassi_mem` (the journaled global path uses it
// there); the shared-memory path above imports it from that crate.

/// Gathers one lane's store source registers into `buf` (little-endian
/// register pairs/quads; sub-word stores truncate the low register).
#[inline(always)]
fn store_source_bytes(
    w: &Warp,
    lane: usize,
    v: Gpr,
    width: MemWidth,
    bytes: u32,
    buf: &mut [u8; 16],
) {
    for k in 0..width.regs() {
        let val = w.reg(lane, Gpr::new(v.index() + k));
        buf[4 * k as usize..4 * k as usize + 4].copy_from_slice(&val.to_le_bytes());
    }
    if bytes < 4 {
        let val = w.reg(lane, v);
        buf[..bytes as usize].copy_from_slice(&val.to_le_bytes()[..bytes as usize]);
    }
}

fn write_load_result(w: &mut Warp, lane: usize, d: Gpr, width: MemWidth, data: &[u8; 16]) {
    match width {
        MemWidth::U8 => w.set_reg(lane, d, data[0] as u32),
        MemWidth::S8 => w.set_reg(lane, d, data[0] as i8 as i32 as u32),
        MemWidth::U16 => w.set_reg(lane, d, u16::from_le_bytes([data[0], data[1]]) as u32),
        MemWidth::S16 => w.set_reg(
            lane,
            d,
            i16::from_le_bytes([data[0], data[1]]) as i32 as u32,
        ),
        MemWidth::B32 => w.set_reg(lane, d, u32::from_le_bytes(data[..4].try_into().unwrap())),
        MemWidth::B64 | MemWidth::B128 => {
            for k in 0..width.regs() {
                let off = 4 * k as usize;
                let v = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
                w.set_reg(lane, Gpr::new(d.index() + k), v);
            }
        }
    }
}
