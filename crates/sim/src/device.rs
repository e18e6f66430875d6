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
use crate::decode::{DSrc, DecodedInstr, DecodedModule, UOp, GUARD_ALWAYS};
use crate::module::{LinkedFunction, Module};
use crate::stats::{FaultInfo, FaultKind, KernelOutcome, LaunchResult, LaunchStats};
use crate::trap::{HandlerRuntime, TrapCtx, TrapRef};
use crate::warp::{group_reg, Warp, WarpStatus};
use sassi_isa::{
    cbank0, resolve_generic, AddrSpace, AtomOp, Gpr, LaneMask, LogicOp, MemAddr, MemWidth, PredReg,
    ShflMode, SpecialReg, VoteMode,
};
use sassi_mem::{
    apply_atom, DeviceMemory, HierarchyConfig, HierarchyStats, JournalOp, MemError, MemoryHierarchy,
};
use std::cell::{Cell, RefCell};
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
///
/// SM slots outlive their device: dropping a device hands its slots
/// to the next device launched on the same thread, which takes them
/// before it builds any. Every launch starts each slot from a state
/// equal to a fresh one, so no result depends on where a slot came
/// from.
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

/// Persistent per-SM execution state, recycled across launches and,
/// through [`SPARE_SLOTS`], across devices.
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

thread_local! {
    /// SM slots of devices dropped on this thread, each device's slot 0
    /// last, so a launch that takes from the top gets slots in their
    /// old order. Never longer than the largest `num_sms` among the
    /// dropped devices.
    static SPARE_SLOTS: RefCell<Vec<SmSlot>> = const { RefCell::new(Vec::new()) };
}

/// The launch-wide immutable inputs shared by every shard.
struct ShardEnv<'a> {
    cfg: &'a GpuConfig,
    module: &'a Module,
    decoded: &'a DecodedModule,
    mode: ExecMode,
    kernel: &'a LinkedFunction,
    dims: LaunchDims,
    num_shards: u32,
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
    /// the same geometry is launched again. Slots outlive their
    /// device, so a device whose first launch recycles the slots of
    /// one dropped earlier on its thread counts only the contexts those
    /// slots lacked: 0 when they suffice.
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
        let Some((tpb, total_blocks)) = dims.checked_sizes() else {
            return Err(LaunchError::BadGeometry(format!("{dims:?} overflows u32")));
        };
        let wpb = tpb.div_ceil(32);
        if wpb == 0 || total_blocks == 0 {
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
        let regs = module.decoded().regs_used();
        if regs > self.cfg.regs_per_thread {
            return Err(LaunchError::BadGeometry(format!(
                "code needs {regs} registers per thread, SM provisions {}",
                self.cfg.regs_per_thread
            )));
        }

        let num_shards = self.cfg.num_sms.min(total_blocks).max(1) as usize;
        // Take the slots of devices dropped on this thread before
        // building any.
        if self.slots.len() < num_shards {
            let want = num_shards - self.slots.len();
            SPARE_SLOTS.with_borrow_mut(|spare| {
                let keep = spare.len().saturating_sub(want);
                self.slots.extend(spare.drain(keep..).rev());
            });
        }
        // `cfg` is public and spare slots come from other devices, so a
        // slot built under another hierarchy config is rebuilt rather
        // than recycled.
        for slot in self.slots.iter_mut().take(num_shards) {
            if slot.hier.config() != self.cfg.hierarchy {
                *slot = SmSlot::new(self.cfg.hierarchy);
            }
        }
        while self.slots.len() < num_shards {
            self.slots.push(SmSlot::new(self.cfg.hierarchy));
        }
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
            num_shards: num_shards as u32,
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
                let mut results: Vec<Option<ShardOut>> = (0..num_shards).map(|_| None).collect();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = groups
                        .into_iter()
                        .map(|group| {
                            scope.spawn(move || {
                                group
                                    .into_iter()
                                    .map(|(s, slot, mut mem, mut rt)| {
                                        let out =
                                            run_shard(env, slot, &mut mem, rt.as_mut(), s as u32);
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

impl Drop for Device {
    /// Hands the SM slots to this thread's spare list. A device dropped
    /// while its thread unwinds returns none: the panic may have
    /// stopped a launch anywhere, so its slots go no further.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let room = self.cfg.num_sms as usize;
        // The spare list is gone once the thread's locals are being
        // destroyed; the slots then drop with the device.
        let _ = SPARE_SLOTS.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            self.slots.truncate(room.saturating_sub(spare.len()));
            spare.extend(self.slots.drain(..).rev());
        });
    }
}

/// Runs one SM shard to completion and returns its contribution.
fn run_shard(
    env: &ShardEnv<'_>,
    slot: &mut SmSlot,
    mem: &mut DeviceMemory,
    runtime: &mut dyn HandlerRuntime,
    sm_id: u32,
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
        num_shards: env.num_shards,
        next_cta: sm_id,
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
/// state from its [`SmSlot`] and runs its share of the grid's CTAs to
/// completion.
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
    /// Shards in this launch. CTA `i` runs on shard `i % num_shards`,
    /// a pure function of launch geometry, so shard `sm_id` issues
    /// linear CTA ids `sm_id, sm_id + num_shards, …` in order.
    num_shards: u32,
    /// The next linear CTA id this shard issues; past the grid once
    /// every one has been.
    next_cta: u32,
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
        let linear = self.next_cta;
        if linear >= self.dims.total_blocks() {
            return;
        }
        self.next_cta = linear.saturating_add(self.num_shards);
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
                    if self.next_cta >= self.dims.total_blocks() {
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
    /// instead the run's final `ready_at` is the max over its µops'
    /// `cycle + lat.max(1)`, so a long-latency load still delays the
    /// warp's next run while other warps fill the gap. Executors only
    /// return a µop's latency; this is the one place `ready_at` is
    /// written.
    ///
    /// In `Decoded` mode every warp-local µop (see [`Exec::exec_warp`])
    /// and every local span (see [`exec_span`]) runs in
    /// [`Exec::run_warp_local`]'s loop, the run's last µop included,
    /// and only the µops that need the SM go through `step_decoded`; in
    /// `Reference` mode every µop goes through `step_reference`.
    fn step_block(&mut self, wi: usize) -> Result<(), FaultKind> {
        // The extent is asked from the *current* pc: jumps into the
        // middle of a run execute only its remaining suffix.
        let pc = self.warps[wi].pc;
        let end = if self.decoded.has_consuming_global_atomics() {
            pc.saturating_add(1)
        } else {
            self.decoded.block_end(pc)
        };
        let decoded = self.mode == ExecMode::Decoded;
        let mut block_ready = 0u64;
        loop {
            if decoded && self.run_warp_local(wi, end, &mut block_ready) {
                break;
            }
            let pc = self.warps[wi].pc;
            // On a fault the warp's pc still names the faulting µop
            // and earlier µops' cycles are already charged — precise
            // resume needs no boundary at fault-capable µops.
            let lat = if decoded {
                self.step_decoded(wi)?
            } else {
                self.step_reference(wi)?
            };
            block_ready = block_ready.max(self.cycle + lat.max(1));
            self.cycle += 1;
            // `pc + 1 == end` means the run's last µop just executed —
            // checked against the pre-step pc because a block-ending
            // branch may land anywhere (including back inside this
            // block, which starts a *new* scheduler visit). Every
            // non-ending µop advances pc by exactly one.
            if pc + 1 >= end || self.warps[wi].status != WarpStatus::Ready {
                break;
            }
        }
        // Every run executes at least one µop, and the warp was picked
        // with `ready_at <= cycle`, so `block_ready` is past it.
        self.warps[wi].ready_at = block_ready;
        Ok(())
    }

    /// The decoded run loop: runs warp `wi`'s warp-local µops with the
    /// warp, stats and cycle borrowed once, until the pc reaches `end`
    /// (`true`) or a µop needs the SM (`false`). Each µop bumps the
    /// stats and cycle as `step_decoded` does and folds its `cycle +
    /// lat.max(1)` into `block_ready` as `step_block` does.
    ///
    /// At every pc inside a local span (see [`DecodedInstr::span`]),
    /// [`exec_span`] runs the span's µops up to `end` as one step, a
    /// lone spill or fill included. If it declines, the µop at the pc
    /// runs alone: an immediate move in [`Exec::exec_warp`], a local
    /// access per lane in `step_decoded`; the next pc tries its own
    /// suffix of the span.
    fn run_warp_local(&mut self, wi: usize, end: u32, block_ready: &mut u64) -> bool {
        let dm: &DecodedModule = self.decoded;
        let env = WarpEnv {
            cbank: self.cbank,
            ctas: self.ctas,
            sm: self.sm_id,
            dims: &self.dims,
        };
        // What a local access costs, as `mem_latency` charges it.
        let local_lat = self.hier.local_latency().max(2);
        let w = &mut self.warps[wi];
        let stats = &mut self.stats;
        let mut cycle = self.cycle;
        let done = loop {
            let Some(di) = dm.get(w.pc) else { break false };
            let mask = guard_mask(w, di.guard);
            if di.span != 0 {
                let n = (di.span as u32).min(end - w.pc);
                if exec_span(dm, w, mask, n, local_lat, cycle, stats, block_ready) {
                    cycle += n as u64;
                    if w.pc >= end {
                        break true;
                    }
                    continue;
                }
            }
            let Some(lat) = Self::exec_warp(&env, w, di, mask, cycle) else {
                break false;
            };
            stats.warp_instrs += 1;
            stats.thread_instrs += mask.count_ones() as u64;
            stats.issue.bump(di.class);
            w.pc += 1;
            *block_ready = (*block_ready).max(cycle + lat.max(1));
            cycle += 1;
            if w.pc >= end {
                break true;
            }
        };
        self.cycle = cycle;
        done
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

    /// Executes one µop that [`Exec::exec_warp`] declines, with no
    /// allocation, no `Instr` clone and no operand re-matching: control
    /// flow, `BAR`, traps, `MEMBAR`, atomics, global, shared and
    /// generic memory, and the local accesses no local span ran (see
    /// [`exec_span`]), per lane. Returns the µop's latency;
    /// [`Exec::step_block`] folds it into `ready_at`.
    ///
    /// Kept out of line: inlined into the scheduler loop, it cost
    /// perfbench's `native` about 8% of its runs per second on a
    /// 2-core host.
    #[inline(never)]
    fn step_decoded(&mut self, wi: usize) -> Result<u64, FaultKind> {
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

        // Control transfers set the pc themselves and return; every
        // other arm yields its latency and falls through to `pc + 1`.
        let lat = match di.uop {
            // ---- control flow ------------------------------------------------
            UOp::Ssy { reconv } => {
                let w = &mut self.warps[wi];
                w.stack.push(crate::warp::StackEntry::Ssy {
                    reconv,
                    mask: w.active,
                });
                1
            }
            UOp::Bra { target } => {
                if di.is_guarded() {
                    self.stats.cond_branches += 1;
                }
                if self.warps[wi].branch(target, mask) {
                    self.stats.divergent_branches += 1;
                }
                return Ok(2);
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
                return Ok(2);
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
                return Ok(1);
            }
            UOp::Call { target } => {
                let w = &mut self.warps[wi];
                w.call_stack.push(w.pc + 1);
                w.pc = target;
                return Ok(4);
            }
            UOp::Trap { handler, site } => self.trap(wi, TrapRef { site, handler })?,
            UOp::Ret => {
                let w = &mut self.warps[wi];
                w.pc = w.call_stack.pop().ok_or(FaultKind::CallStackUnderflow)?;
                return Ok(4);
            }
            UOp::BarSync => {
                self.bar_sync(wi);
                1
            }
            UOp::Invalid(defect) => return Err(defect.fault(pc)),

            // ---- memory -----------------------------------------------------
            UOp::Ld { d, width, addr } => self.mem_load(wi, mask, d, width, &addr)?,
            UOp::St { v, width, addr } => self.mem_store(wi, mask, v, width, &addr)?,
            UOp::Atom {
                d,
                op,
                addr,
                v,
                v2,
                wide,
            } => self.mem_atomic(wi, mask, d, op, &addr, v, v2, wide)?,
            UOp::MemBar => di.lat as u64,

            // ALU, `S2R`, `VOTE` and `SHFL` need only the warp, and
            // `step_block`'s loop runs every one of them.
            _ => unreachable!("warp-local µop {:?} reached step_decoded", di.uop),
        };
        self.warps[wi].pc += 1;
        Ok(lat)
    }

    /// Dispatches the trap at warp `wi`'s pc to the handler runtime,
    /// for both interpreters. Returns the trap µop's latency: 4 cycles
    /// plus the handler's cost; or the fault the handler recorded (see
    /// [`TrapCtx::record_fault`]), raised at the trap's pc.
    fn trap(&mut self, wi: usize, trap: TrapRef) -> Result<u64, FaultKind> {
        self.stats.handler_calls += 1;
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
            fault: Cell::new(None),
        };
        let cycles = self.runtime.handle(trap, &mut ctx).cycles();
        if let Some(fault) = ctx.fault.take() {
            return Err(fault);
        }
        self.stats.handler_cycles += cycles;
        Ok(4 + cycles)
    }

    /// `BAR.SYNC` for both interpreters: parks warp `wi` at its CTA's
    /// barrier and releases the CTA if every live warp has arrived.
    fn bar_sync(&mut self, wi: usize) {
        let w = &mut self.warps[wi];
        w.status = WarpStatus::AtBarrier;
        let cta = w.cta;
        self.ctas[cta].warps_at_barrier += 1;
        self.maybe_release_barrier(cta);
    }

    /// The decoded executor of the warp-local µops, which need only the
    /// warp's registers and `env` and touch no memory: ALU, `S2R`,
    /// `VOTE`, `SHFL` and `NOP`. Returns the µop's latency, or `None`,
    /// having done nothing, for any other µop, a local access included
    /// (local spans run in [`exec_span`]). Operand rows are copied out
    /// first, so a destination may alias any operand, and a full mask
    /// fills the destination row in one loop over the lanes (see
    /// [`write_lanes`]).
    fn exec_warp(
        env: &WarpEnv,
        w: &mut Warp,
        di: &DecodedInstr,
        mask: LaneMask,
        cycle: u64,
    ) -> Option<u64> {
        let cbank = env.cbank;
        match di.uop {
            UOp::Mov { d, a } => {
                let a = src_row(w, rsrc_c(cbank, a));
                write_lanes(w, mask, d, |l| a[l]);
            }
            UOp::IAdd { d, a, b, x, cc } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let cin = if x { w.cc } else { [false; 32] };
                let sum = |l: usize| a[l] as u64 + b[l] as u64 + cin[l] as u64;
                write_lanes(w, mask, d, |l| sum(l) as u32);
                if cc {
                    for_lanes(mask, |l| w.cc[l] = sum(l) >> 32 != 0);
                }
            }
            UOp::ISub { d, a, b } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                write_lanes(w, mask, d, |l| a[l].wrapping_sub(b[l]));
            }
            UOp::IMul {
                d,
                a,
                b,
                signed,
                hi,
            } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let shift = if hi { 32 } else { 0 };
                if signed {
                    write_lanes(w, mask, d, |l| {
                        ((a[l] as i32 as i64 * b[l] as i32 as i64) >> shift) as u32
                    });
                } else {
                    write_lanes(w, mask, d, |l| {
                        ((a[l] as u64 * b[l] as u64) >> shift) as u32
                    });
                }
            }
            UOp::IMad { d, a, b, c } => {
                let (a, b, c) = (w.row(a), src_row(w, rsrc_c(cbank, b)), w.row(c));
                write_lanes(w, mask, d, |l| a[l].wrapping_mul(b[l]).wrapping_add(c[l]));
            }
            UOp::IScAdd { d, a, b, shift } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                write_lanes(w, mask, d, |l| (a[l] << shift).wrapping_add(b[l]));
            }
            UOp::IMnMx {
                d,
                a,
                b,
                min,
                signed,
            } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                match (signed, min) {
                    (true, true) => {
                        write_lanes(w, mask, d, |l| (a[l] as i32).min(b[l] as i32) as u32)
                    }
                    (true, false) => {
                        write_lanes(w, mask, d, |l| (a[l] as i32).max(b[l] as i32) as u32)
                    }
                    (false, true) => write_lanes(w, mask, d, |l| a[l].min(b[l])),
                    (false, false) => write_lanes(w, mask, d, |l| a[l].max(b[l])),
                }
            }
            UOp::Shl { d, a, b } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                write_lanes(w, mask, d, |l| a[l].checked_shl(b[l]).unwrap_or(0));
            }
            UOp::Shr { d, a, b, signed } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                if signed {
                    write_lanes(w, mask, d, |l| ((a[l] as i32) >> b[l].min(31)) as u32);
                } else {
                    write_lanes(w, mask, d, |l| a[l].checked_shr(b[l]).unwrap_or(0));
                }
            }
            UOp::Lop { d, op, a, b, inv_b } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let inv = if inv_b { u32::MAX } else { 0 };
                match op {
                    LogicOp::And => write_lanes(w, mask, d, |l| a[l] & (b[l] ^ inv)),
                    LogicOp::Or => write_lanes(w, mask, d, |l| a[l] | (b[l] ^ inv)),
                    LogicOp::Xor => write_lanes(w, mask, d, |l| a[l] ^ (b[l] ^ inv)),
                    LogicOp::PassB => write_lanes(w, mask, d, |l| b[l] ^ inv),
                }
            }
            UOp::Popc { d, a } => {
                let a = w.row(a);
                write_lanes(w, mask, d, |l| a[l].count_ones());
            }
            UOp::Flo { d, a } => {
                let a = w.row(a);
                write_lanes(w, mask, d, |l| 31u32.wrapping_sub(a[l].leading_zeros()));
            }
            UOp::Brev { d, a } => {
                let a = w.row(a);
                write_lanes(w, mask, d, |l| a[l].reverse_bits());
            }
            UOp::Sel { d, a, b, p, neg_p } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let pick_a = w.pred_lanes(p) ^ if neg_p { u32::MAX } else { 0 };
                write_lanes(
                    w,
                    mask,
                    d,
                    |l| {
                        if pick_a >> l & 1 != 0 {
                            a[l]
                        } else {
                            b[l]
                        }
                    },
                );
            }
            UOp::FAdd {
                d,
                a,
                b,
                neg_a,
                neg_b,
            } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let (sa, sb) = (sign_flip(neg_a), sign_flip(neg_b));
                write_lanes(w, mask, d, |l| {
                    (f32::from_bits(a[l] ^ sa) + f32::from_bits(b[l] ^ sb)).to_bits()
                });
            }
            UOp::FMul { d, a, b } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                write_lanes(w, mask, d, |l| {
                    (f32::from_bits(a[l]) * f32::from_bits(b[l])).to_bits()
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
                let (a, b, c) = (w.row(a), src_row(w, rsrc_c(cbank, b)), w.row(c));
                let (sb, sc) = (sign_flip(neg_b), sign_flip(neg_c));
                write_lanes(w, mask, d, |l| {
                    let (av, bv, cv) = (
                        f32::from_bits(a[l]),
                        f32::from_bits(b[l] ^ sb),
                        f32::from_bits(c[l] ^ sc),
                    );
                    av.mul_add(bv, cv).to_bits()
                });
            }
            UOp::FMnMx { d, a, b, min } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let (af, bf) = (
                    |l: usize| f32::from_bits(a[l]),
                    |l: usize| f32::from_bits(b[l]),
                );
                if min {
                    write_lanes(w, mask, d, |l| af(l).min(bf(l)).to_bits());
                } else {
                    write_lanes(w, mask, d, |l| af(l).max(bf(l)).to_bits());
                }
            }
            UOp::Mufu { d, func, a } => {
                let a = w.row(a);
                write_lanes(w, mask, d, |l| func.eval(f32::from_bits(a[l])).to_bits());
            }
            UOp::I2F { d, a } => {
                let a = w.row(a);
                write_lanes(w, mask, d, |l| (a[l] as i32 as f32).to_bits());
            }
            UOp::F2I { d, a } => {
                let a = w.row(a);
                write_lanes(w, mask, d, |l| f32::from_bits(a[l]) as i32 as u32);
            }
            UOp::ISetP {
                p,
                cmp,
                a,
                b,
                signed,
                combine,
            } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                let keep = match combine {
                    None => u32::MAX,
                    Some((cp, neg)) => w.pred_lanes(cp) ^ if neg { u32::MAX } else { 0 },
                };
                let test = |l: usize| {
                    let base = if signed {
                        cmp.eval_i64(a[l] as i32 as i64, b[l] as i32 as i64)
                    } else {
                        cmp.eval_i64(a[l] as i64, b[l] as i64)
                    };
                    base && keep >> l & 1 != 0
                };
                write_pred_lanes(w, mask, p, test);
            }
            UOp::FSetP { p, cmp, a, b } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                write_pred_lanes(w, mask, p, |l| {
                    cmp.eval_f32(f32::from_bits(a[l]), f32::from_bits(b[l]))
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
                let a = w.pred_lanes(a) ^ if neg_a { u32::MAX } else { 0 };
                let b = w.pred_lanes(b) ^ if neg_b { u32::MAX } else { 0 };
                let v = match op {
                    LogicOp::And => a & b,
                    LogicOp::Or => a | b,
                    LogicOp::Xor => a ^ b,
                    LogicOp::PassB => b,
                };
                write_pred_lanes(w, mask, p, |l| v >> l & 1 != 0);
            }
            UOp::P2R { d } => {
                let preds = w.preds;
                write_lanes(w, mask, d, |l| preds[l] as u32 & 0x7f);
            }
            UOp::R2P { a } => {
                let a = w.row(a);
                for_lanes(mask, |l| w.preds[l] = (a[l] & 0x7f) as u8);
            }
            UOp::S2R { d, sr } => {
                let v: [u32; 32] = std::array::from_fn(|l| special_value(env, w, cycle, l, sr));
                write_lanes(w, mask, d, |l| v[l]);
            }
            UOp::Vote {
                mode,
                d,
                p_out,
                src,
                neg_src,
            } => {
                let ballot = mask & (w.pred_lanes(src) ^ if neg_src { u32::MAX } else { 0 });
                let (all, any) = (ballot == mask && mask != 0, ballot != 0);
                let (v, p) = match mode {
                    VoteMode::Ballot => (ballot, any),
                    VoteMode::All => (all as u32, all),
                    VoteMode::Any => (any as u32, any),
                };
                write_lanes(w, mask, d, |_| v);
                if let Some(p_out) = p_out {
                    write_pred_lanes(w, mask, p_out, |_| p);
                }
            }
            UOp::Shfl {
                mode,
                d,
                a,
                b,
                p_out,
            } => {
                let (a, b) = (w.row(a), src_row(w, rsrc_c(cbank, b)));
                // The lane each lane reads, if it is in range and active.
                let from = |l: usize| {
                    let s = match mode {
                        ShflMode::Idx => (b[l] & 31) as usize,
                        ShflMode::Up => l.wrapping_sub(b[l] as usize),
                        ShflMode::Down => l + b[l] as usize,
                        ShflMode::Bfly => l ^ (b[l] as usize & 31),
                    };
                    (s < 32 && mask >> s & 1 != 0).then_some(s)
                };
                write_lanes(w, mask, d, |l| a[from(l).unwrap_or(l)]);
                if let Some(p) = p_out {
                    write_pred_lanes(w, mask, p, |l| from(l).is_some());
                }
            }
            UOp::Nop => {}
            _ => return None,
        }
        Some(di.lat as u64)
    }

    fn special(&self, w: &Warp, lane: usize, sr: SpecialReg) -> u32 {
        let env = WarpEnv {
            cbank: self.cbank,
            ctas: self.ctas,
            sm: self.sm_id,
            dims: &self.dims,
        };
        special_value(&env, w, self.cycle, lane, sr)
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

    /// `LD` in the decoded interpreter, for the loads no local span
    /// ran, dispatched once on the static address space. A
    /// static-`Global` load whose lanes fall in one allocation is
    /// checked once (see [`Exec::global_load`]); every other load runs
    /// [`Exec::mem_load_lanes`]. Returns the load's latency.
    fn mem_load(
        &mut self,
        wi: usize,
        mask: LaneMask,
        d: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<u64, FaultKind> {
        match (addr.space, width.bytes()) {
            (AddrSpace::Global, 1) => self.global_load::<1>(wi, mask, d, width, addr),
            (AddrSpace::Global, 2) => self.global_load::<2>(wi, mask, d, width, addr),
            (AddrSpace::Global, 4) => self.global_load::<4>(wi, mask, d, width, addr),
            (AddrSpace::Global, 8) => self.global_load::<8>(wi, mask, d, width, addr),
            (AddrSpace::Global, _) => self.global_load::<16>(wi, mask, d, width, addr),
            _ => self.mem_load_lanes(wi, mask, d, width, addr),
        }
    }

    /// A static-`Global` load of `N` bytes per lane. When the active
    /// lanes' accesses all fall inside one allocation, the heap is
    /// bounds-checked once for the warp; otherwise the per-lane loop
    /// checks each lane in lane order, so the faulting lane, its
    /// address and the results of the lanes before it do not change.
    fn global_load<const N: usize>(
        &mut self,
        wi: usize,
        mask: LaneMask,
        d: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<u64, FaultKind> {
        let (addrs, n, span) = global_addrs(&self.warps[wi], mask, addr, N as u64);
        let Some((lo, window)) = span.and_then(|(lo, len)| Some((lo, self.mem.window(lo, len)?)))
        else {
            return self.mem_load_lanes(wi, mask, d, width, addr);
        };
        let w = &mut self.warps[wi];
        let mut buf = [0u8; 16];
        for (&a, lane) in addrs.iter().zip(sassi_isa::lanes(mask)) {
            let o = (a - lo) as usize;
            buf[..N].copy_from_slice(&window[o..o + N]);
            write_load_result(w, lane, d, width, &buf);
        }
        Ok(self.mem_latency(&addrs[..n], N as u32, false, false, false))
    }

    /// `LD`, one lane at a time, in any address space: the reference
    /// interpreter's load, and the decoded one's for `Shared` and
    /// `Generic` addresses, local loads outside a local span and global
    /// loads off the window path. Returns the load's latency.
    pub(super) fn mem_load_lanes(
        &mut self,
        wi: usize,
        mask: LaneMask,
        d: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<u64, FaultKind> {
        let bytes = width.bytes();
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
            let mut buf = [0u8; 16];
            match space {
                AddrSpace::Local => {
                    has_local = true;
                    if !self.warps[wi].read_local(lane, a, &mut buf[..bytes as usize]) {
                        return Err(FaultKind::StackViolation { offset: a });
                    }
                }
                AddrSpace::Shared => {
                    has_shared = true;
                    let cta = &self.ctas[self.warps[wi].cta];
                    let off = a as usize;
                    if off + bytes as usize > cta.shared.len() {
                        return Err(FaultKind::SharedViolation { offset: a });
                    }
                    buf[..bytes as usize].copy_from_slice(&cta.shared[off..off + bytes as usize]);
                }
                AddrSpace::Global | AddrSpace::Generic => {
                    global_addrs[n_global] = a;
                    n_global += 1;
                    let got = self.mem.read_bytes(a, bytes).map_err(mem_fault)?;
                    buf[..bytes as usize].copy_from_slice(got);
                }
            }
            write_load_result(&mut self.warps[wi], lane, d, width, &buf);
        }
        Ok(self.mem_latency(
            &global_addrs[..n_global],
            bytes,
            false,
            has_local,
            has_shared,
        ))
    }

    /// `ST` in the decoded interpreter, for the stores no local span
    /// ran, dispatched as in [`Exec::mem_load`].
    fn mem_store(
        &mut self,
        wi: usize,
        mask: LaneMask,
        v: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<u64, FaultKind> {
        match (addr.space, width.bytes()) {
            (AddrSpace::Global, 1) => self.global_store::<1>(wi, mask, v, width, addr),
            (AddrSpace::Global, 2) => self.global_store::<2>(wi, mask, v, width, addr),
            (AddrSpace::Global, 4) => self.global_store::<4>(wi, mask, v, width, addr),
            (AddrSpace::Global, 8) => self.global_store::<8>(wi, mask, v, width, addr),
            (AddrSpace::Global, _) => self.global_store::<16>(wi, mask, v, width, addr),
            _ => self.mem_store_lanes(wi, mask, v, width, addr),
        }
    }

    /// A static-`Global` store of `N` bytes per lane, checked as in
    /// [`Exec::global_load`]. Lanes store (and forked views journal)
    /// in lane order on either path.
    fn global_store<const N: usize>(
        &mut self,
        wi: usize,
        mask: LaneMask,
        v: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<u64, FaultKind> {
        let (addrs, n, span) = global_addrs(&self.warps[wi], mask, addr, N as u64);
        let Some(mut window) = span.and_then(|(lo, len)| self.mem.window_mut(lo, len)) else {
            return self.mem_store_lanes(wi, mask, v, width, addr);
        };
        let w = &self.warps[wi];
        let mut buf = [0u8; 16];
        for (&a, lane) in addrs.iter().zip(sassi_isa::lanes(mask)) {
            store_source_bytes(w, lane, v, width, N as u32, &mut buf);
            window.write(a, &buf[..N]);
        }
        Ok(self.mem_latency(&addrs[..n], N as u32, true, false, false))
    }

    /// `ST`, one lane at a time, in any address space: the reference
    /// interpreter's store, and the decoded one's for `Shared` and
    /// `Generic` addresses, local stores outside a local span and global
    /// stores off the window path. Returns the store's latency.
    pub(super) fn mem_store_lanes(
        &mut self,
        wi: usize,
        mask: LaneMask,
        v: Gpr,
        width: MemWidth,
        addr: &MemAddr,
    ) -> Result<u64, FaultKind> {
        let bytes = width.bytes();
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
                    if !self.warps[wi].write_local(lane, a, &buf[..bytes as usize]) {
                        return Err(FaultKind::StackViolation { offset: a });
                    }
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
        Ok(self.mem_latency(
            &global_addrs[..n_global],
            bytes,
            true,
            has_local,
            has_shared,
        ))
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
    ) -> Result<u64, FaultKind> {
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
        let lat = self.mem_latency(&global_addrs[..n_global], width, true, false, n_global == 0);
        Ok(lat + 16) // read-modify-write turnaround
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
    let neg = if g & 0x80 != 0 { u32::MAX } else { 0 };
    w.active & (w.pred_lanes(p) ^ neg)
}

/// A source operand resolved for one warp-step: immediates and
/// constant reads are already values, only registers stay per-lane.
#[derive(Clone, Copy)]
enum RSrc {
    Val(u32),
    Reg(Gpr),
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

/// An operand row: a register's row, or an immediate or constant
/// broadcast to every lane.
#[inline(always)]
fn src_row(w: &Warp, s: RSrc) -> [u32; 32] {
    match s {
        RSrc::Val(v) => [v; 32],
        RSrc::Reg(r) => w.row(r),
    }
}

/// Writes `f(lane)` into register `d` of every lane in `mask`
/// (nothing for `RZ`). `f` reads operand rows copied out before the
/// call, so `d` may alias an operand. A full mask fills the whole row
/// in one loop over the lanes, which the compiler vectorizes for the
/// simple ops; other masks visit only their lanes.
#[inline(always)]
fn write_lanes(w: &mut Warp, mask: LaneMask, d: Gpr, f: impl Fn(usize) -> u32) {
    let Some(row) = w.row_mut(d) else { return };
    if mask == u32::MAX {
        for (lane, v) in row.iter_mut().enumerate() {
            *v = f(lane);
        }
    } else {
        for lane in sassi_isa::lanes(mask) {
            row[lane] = f(lane);
        }
    }
}

/// [`write_lanes`] for predicate `p` (writes to `PT` are dropped).
#[inline(always)]
fn write_pred_lanes(w: &mut Warp, mask: LaneMask, p: PredReg, f: impl Fn(usize) -> bool) {
    if p.is_pt() {
        return;
    }
    let bit = 1u8 << p.index();
    let set = |bits: &mut u8, v: bool| *bits = (*bits & !bit) | if v { bit } else { 0 };
    if mask == u32::MAX {
        for (lane, bits) in w.preds.iter_mut().enumerate() {
            set(bits, f(lane));
        }
    } else {
        for lane in sassi_isa::lanes(mask) {
            set(&mut w.preds[lane], f(lane));
        }
    }
}

/// The sign bit when `neg`, for flipping an `f32`'s sign in its bits.
#[inline(always)]
fn sign_flip(neg: bool) -> u32 {
    if neg {
        1 << 31
    } else {
        0
    }
}

/// What a warp-local µop reads besides its warp (see
/// [`Exec::exec_warp`]), borrowed from the `Exec` as the run loop
/// starts.
struct WarpEnv<'e> {
    cbank: &'e [u8],
    ctas: &'e [Cta],
    sm: u32,
    dims: &'e LaunchDims,
}

/// Lane `lane`'s value of special register `sr` in warp `w` at `cycle`.
fn special_value(env: &WarpEnv, w: &Warp, cycle: u64, lane: usize, sr: SpecialReg) -> u32 {
    let linear = w.warp_in_cta * 32 + lane as u32;
    let (block, grid) = (env.dims.block, env.dims.grid);
    let ctaid = || env.ctas[w.cta].ctaid;
    match sr {
        SpecialReg::TidX => linear % block.0,
        SpecialReg::TidY => (linear / block.0) % block.1,
        SpecialReg::TidZ => linear / (block.0 * block.1),
        SpecialReg::CtaIdX => ctaid().0,
        SpecialReg::CtaIdY => ctaid().1,
        SpecialReg::CtaIdZ => ctaid().2,
        SpecialReg::NTidX => block.0,
        SpecialReg::NTidY => block.1,
        SpecialReg::NTidZ => block.2,
        SpecialReg::NCtaIdX => grid.0,
        SpecialReg::NCtaIdY => grid.1,
        SpecialReg::NCtaIdZ => grid.2,
        SpecialReg::LaneId => lane as u32,
        SpecialReg::WarpId => w.warp_in_cta,
        SpecialReg::SmId => env.sm,
        SpecialReg::ClockLo => cycle as u32,
        SpecialReg::ClockHi => (cycle >> 32) as u32,
        SpecialReg::LaneMaskLt => (1u32 << lane) - 1,
        SpecialReg::ActiveMask => w.active,
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

/// The addresses of a static-`Global` access for the lanes of `mask`,
/// in lane order (the coalescer is order-sensitive), how many there
/// are, and the range `(lo, len)` spanning every lane's `bytes`-wide
/// access (`None` for an empty mask or a span that wraps).
fn global_addrs(
    w: &Warp,
    mask: LaneMask,
    addr: &MemAddr,
    bytes: u64,
) -> ([u64; 32], usize, Option<(u64, u64)>) {
    let (lo, hi) = (w.row(addr.base), w.row(addr.base.pair_hi()));
    let mut addrs = [0u64; 32];
    let (mut min, mut max) = (u64::MAX, 0);
    let mut n = 0;
    for lane in sassi_isa::lanes(mask) {
        let base = lo[lane] as u64 | (hi[lane] as u64) << 32;
        let a = base.wrapping_add(addr.offset as i64 as u64);
        addrs[n] = a;
        n += 1;
        min = min.min(a);
        max = max.max(a);
    }
    let span = match max.checked_add(bytes) {
        Some(end) if n > 0 => Some((min, end - min)),
        _ => None,
    };
    (addrs, n, span)
}

/// Runs the `n` µops of the local span at `w.pc` (see
/// [`DecodedInstr::span`]) under the guard mask `mask` as one step: one
/// uniformity and alignment check of the base row and one bounds check
/// of the span's lowest and highest byte, then each µop in order, a
/// masked row copy per word or an immediate fill. Stats, `w.pc` and
/// `block_ready` end as the µops run one by one in the run loop from
/// `cycle` leave them; the caller adds the `n` cycles. This is the only
/// row path of a local access: decode marks every access that can take
/// it, and this checks at run time what decode cannot. Returns `false`,
/// having done nothing, if the base is not uniform over `mask` or not
/// 4-aligned, or any access of the span would leave the slab. The µop
/// at `w.pc` then runs alone, a local access per lane as the reference
/// interpreter runs it: the same words, the same first-lane fault and
/// the same latency.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn exec_span(
    dm: &DecodedModule,
    w: &mut Warp,
    mask: LaneMask,
    n: u32,
    local_lat: u64,
    cycle: u64,
    stats: &mut LaunchStats,
    block_ready: &mut u64,
) -> bool {
    let (span, code) = dm.local_span(w.pc, n);
    let Some(b0) = w.uniform_reg(mask, span.base) else {
        return false;
    };
    let (lo, hi) = (b0 as i64 + span.lo as i64, b0 as i64 + span.hi as i64);
    if !b0.is_multiple_of(4) || lo < 0 || hi > w.local_bytes() as i64 {
        return false;
    }
    if span.store {
        w.note_local_write(lo as u32);
    }
    let at = |addr: MemAddr| b0.wrapping_add(addr.offset as u32);
    let mut ready = *block_ready;
    for (i, di) in code.iter().enumerate() {
        let lat = match di.uop {
            UOp::St { v, width, addr } => {
                w.store_words(mask, at(addr), v, width.regs());
                local_lat
            }
            UOp::Ld { d, width, addr } => {
                w.load_words(mask, at(addr), d, width.regs());
                local_lat
            }
            UOp::Mov { d, a: DSrc::Imm(x) } => {
                write_lanes(w, mask, d, |_| x);
                di.lat as u64
            }
            _ => unreachable!("{:?} in a local span", di.uop),
        };
        stats.issue.bump(di.class);
        ready = ready.max(cycle + i as u64 + lat.max(1));
    }
    *block_ready = ready;
    stats.warp_instrs += n as u64;
    stats.thread_instrs += n as u64 * mask.count_ones() as u64;
    w.pc += n;
    true
}

/// Gathers one lane's store source registers into `buf` (little-endian
/// register pairs/quads; sub-word stores truncate the low register).
/// A group based at `RZ` stores zeros (see [`group_reg`]).
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
        let val = w.reg(lane, group_reg(v, k));
        buf[4 * k as usize..4 * k as usize + 4].copy_from_slice(&val.to_le_bytes());
    }
    if bytes < 4 {
        let val = w.reg(lane, v);
        buf[..bytes as usize].copy_from_slice(&val.to_le_bytes()[..bytes as usize]);
    }
}

/// Writes one lane's loaded bytes into `d` (and the rest of its group
/// for 64- and 128-bit loads); a load into `RZ` is discarded.
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
                w.set_reg(lane, group_reg(d, k), v);
            }
        }
    }
}
