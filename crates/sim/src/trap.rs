//! The trap interface between the simulator and native instrumentation
//! handlers.
//!
//! When a warp executes `JCAL handlerN`, the simulator suspends it and
//! invokes the registered [`HandlerRuntime`] with a [`TrapCtx`] exposing
//! the warp's architectural state — lane registers, predicates, local
//! stacks, shared and global memory, thread coordinates. This is the
//! execution vehicle for handlers written in Rust (the reproduction's
//! stand-in for the paper's CUDA handlers); the ABI trampoline that
//! leads up to the trap is real simulated SASS either way.

use crate::decode::TrapSite;
use crate::stats::FaultKind;
use crate::warp::Warp;
use sassi_isa::{
    lanes, resolve_generic, AddrSpace, Gpr, LaneMask, Lanes, PredReg, GENERIC_LOCAL_TAG,
};
use sassi_mem::{DeviceMemory, MemError};
use std::borrow::Cow;
use std::cell::Cell;

/// Cost declared by a native handler for one invocation, charged to the
/// calling warp as cycles. This models the instructions the handler
/// would have executed had it been compiled to SASS under the
/// 16-register cap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandlerCost {
    /// Straight-line instructions executed.
    pub instructions: u32,
    /// Memory operations among them.
    pub memory_ops: u32,
    /// Atomic operations among them.
    pub atomics: u32,
}

impl HandlerCost {
    /// A zero-cost (free) invocation, for pure-observation experiments.
    pub const FREE: HandlerCost = HandlerCost {
        instructions: 0,
        memory_ops: 0,
        atomics: 0,
    };

    /// Converts the cost to warp cycles: dual-issue-ish ALU throughput,
    /// L1-latency memory operations, contended atomics.
    pub fn cycles(&self) -> u64 {
        2 * self.instructions as u64 + 12 * self.memory_ops as u64 + 30 * self.atomics as u64
    }
}

/// The per-trap view of a warp handed to handler runtimes.
///
/// Handlers observe and may mutate architectural state (registers,
/// predicates, memory), but must **not** redirect control flow:
/// `warp.pc` is owned by the interpreter, which resumes the warp at
/// `pc + 1` after every trap. The block-stepped scheduler relies on
/// this — trap sites sit in the middle of straight-line runs whose
/// extent was computed at decode time, so a handler that moved `pc`
/// would desynchronize the run (and, on real SASSI, would corrupt the
/// trampoline's return path just the same).
///
/// A handler that cannot read its parameter objects records the fault
/// here ([`TrapCtx::record_fault`]); the launch then ends with it at the
/// trap's pc once the handler returns, as it would had a compiled
/// handler's load faulted.
pub struct TrapCtx<'a> {
    /// The trapping warp (registers, predicates, local slabs, masks).
    pub warp: &'a mut Warp,
    /// The warp's block shared-memory segment.
    pub shared: &'a mut [u8],
    /// Global device memory.
    pub mem: &'a mut DeviceMemory,
    /// Block index of the warp's CTA.
    pub ctaid: (u32, u32, u32),
    /// Block dimensions.
    pub block_dim: (u32, u32, u32),
    /// Grid dimensions.
    pub grid_dim: (u32, u32, u32),
    /// SM executing the warp.
    pub sm_id: u32,
    /// Current cycle.
    pub cycle: u64,
    /// Name of the running kernel.
    pub kernel: &'a str,
    /// Dynamic index of this kernel launch (set by the host runtime).
    pub launch_index: u64,
    /// The first fault a handler recorded in this trap.
    pub(crate) fault: Cell<Option<FaultKind>>,
}

/// Where the parameter object an ABI pointer pair names lives for the
/// warp, checked once per trap by [`TrapCtx::param_base`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamBase {
    /// The ABI pair: 0 → R4:R5, 1 → R6:R7.
    idx: u8,
    /// The object's slab offset, when every active lane's pointer is
    /// the same 4-aligned local address.
    slab: Option<u32>,
}

impl ParamBase {
    /// Whether field reads take the row path: one bounds check and a
    /// borrowed slab row, rather than one read per lane.
    #[inline]
    pub fn is_row(&self) -> bool {
        self.slab.is_some()
    }
}

impl TrapCtx<'_> {
    /// Active lanes at the trap.
    pub fn active_mask(&self) -> LaneMask {
        self.warp.active
    }

    /// Iterates active lane indices: a copyable, allocation-free mask
    /// iterator in ascending lane order.
    pub fn active_lanes(&self) -> Lanes {
        lanes(self.warp.active)
    }

    /// Calls `f` for each active lane in ascending order — the fast
    /// path for handlers that only need a per-lane visit.
    pub fn for_each_active(&self, mut f: impl FnMut(usize)) {
        let mut m = self.warp.active;
        while m != 0 {
            f(m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }

    /// The first active lane (handler "leader").
    pub fn leader(&self) -> Option<usize> {
        self.warp.leader()
    }

    /// Lane `lane`'s register `r`.
    pub fn reg(&self, lane: usize, r: Gpr) -> u32 {
        self.warp.reg(lane, r)
    }

    /// Writes lane `lane`'s register `r` (error injection uses this).
    pub fn set_reg(&mut self, lane: usize, r: Gpr, v: u32) {
        self.warp.set_reg(lane, r, v);
    }

    /// Lane `lane`'s register pair at `r` as 64-bit.
    pub fn reg64(&self, lane: usize, r: Gpr) -> u64 {
        self.warp.reg64(lane, r)
    }

    /// Lane `lane`'s predicate `p`.
    pub fn pred(&self, lane: usize, p: PredReg) -> bool {
        self.warp.pred(lane, p)
    }

    /// Writes lane `lane`'s predicate `p`.
    pub fn set_pred(&mut self, lane: usize, p: PredReg, v: bool) {
        self.warp.set_pred(lane, p, v);
    }

    /// Lane `lane`'s carry flag.
    pub fn cc(&self, lane: usize) -> bool {
        self.warp.cc[lane]
    }

    /// Writes lane `lane`'s carry flag.
    pub fn set_cc(&mut self, lane: usize, v: bool) {
        self.warp.cc[lane] = v;
    }

    /// The ABI parameter pair `idx` (0 → R4:R5, 1 → R6:R7) of a lane —
    /// the generic pointers the SASSI trampoline passes to handlers.
    pub fn abi_param(&self, lane: usize, idx: u8) -> u64 {
        debug_assert!(idx < 2);
        self.warp.reg64(lane, Gpr::new(4 + 2 * idx))
    }

    /// Thread coordinates of a lane within its block.
    pub fn thread_idx(&self, lane: usize) -> (u32, u32, u32) {
        let linear = self.warp.warp_in_cta * 32 + lane as u32;
        let (bx, by, _) = self.block_dim;
        (linear % bx, (linear / bx) % by, linear / (bx * by))
    }

    /// Flat global thread id of a lane.
    pub fn global_thread_id(&self, lane: usize) -> u64 {
        let threads_per_block = (self.block_dim.0 * self.block_dim.1 * self.block_dim.2) as u64;
        let block_linear = self.ctaid.0 as u64
            + self.grid_dim.0 as u64
                * (self.ctaid.1 as u64 + self.grid_dim.1 as u64 * self.ctaid.2 as u64);
        block_linear * threads_per_block + (self.warp.warp_in_cta * 32) as u64 + lane as u64
    }

    /// Reads a `u32` through a lane's generic address. A 4-aligned
    /// local address reads its slab word in one read; any other local
    /// address assembles the word byte by byte.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] for addresses outside every window or
    /// allocation.
    pub fn read_generic_u32(&self, lane: usize, addr: u64) -> Result<u32, MemError> {
        match resolve_generic(addr) {
            Some((AddrSpace::Local, off)) if off.is_multiple_of(4) => self
                .warp
                .local_word(lane, off)
                .ok_or(MemError::OutOfBounds { addr }),
            Some((AddrSpace::Local, off)) => {
                let mut buf = [0u8; 4];
                if !self.warp.read_local(lane, off, &mut buf) {
                    return Err(MemError::OutOfBounds { addr });
                }
                Ok(u32::from_le_bytes(buf))
            }
            Some((AddrSpace::Shared, off)) => {
                let off = off as usize;
                if off + 4 > self.shared.len() {
                    return Err(MemError::OutOfBounds { addr });
                }
                Ok(u32::from_le_bytes(
                    self.shared[off..off + 4].try_into().unwrap(),
                ))
            }
            Some((AddrSpace::Global, a)) => self.mem.read_u32(a),
            _ => Err(MemError::OutOfBounds { addr }),
        }
    }

    /// Reads a `u64` through a lane's generic address.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::read_generic_u32`].
    pub fn read_generic_u64(&self, lane: usize, addr: u64) -> Result<u64, MemError> {
        let lo = self.read_generic_u32(lane, addr)? as u64;
        let hi = self.read_generic_u32(lane, addr + 4)? as u64;
        Ok(lo | (hi << 32))
    }

    /// Checks once for the warp where the parameter object ABI pair
    /// `idx` (0 → R4:R5, 1 → R6:R7) points. If every active lane holds
    /// the same 4-aligned generic local address, as the trampoline
    /// leaves it, the object is at one slab offset for every lane and
    /// each 4-byte field is one slab row: the two register rows are
    /// folded in place and the address decoded once. Otherwise, or
    /// with no active lane, fields are read lane by lane.
    #[inline]
    pub fn param_base(&self, idx: u8) -> ParamBase {
        debug_assert!(idx < 2);
        let (mask, lo) = (self.warp.active, Gpr::new(4 + 2 * idx));
        let slab = self
            .warp
            .uniform_reg(mask, lo)
            .zip(self.warp.uniform_reg(mask, lo.pair_hi()))
            .and_then(
                |(lo, hi)| match resolve_generic(u64::from(lo) | u64::from(hi) << 32) {
                    Some((AddrSpace::Local, off)) if off.is_multiple_of(4) => Some(off as u32),
                    _ => None,
                },
            );
        ParamBase { idx, slab }
    }

    /// The 4-byte field at byte offset `field` of the parameter object
    /// `base` names, for the lanes of `mask` (a subset of the active
    /// mask): entry `l` is lane `l`'s word. On the row path this is the
    /// slab row itself after one bounds check, and the entries of other
    /// lanes hold whatever their slabs hold. On the per-lane path each
    /// lane of `mask` reads through its own pointer, as
    /// [`TrapCtx::read_generic_u32`] does, and the other entries are
    /// zero. Both paths return the same words and the same error, and
    /// an empty `mask` reads nothing.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `field` is not 4-aligned, otherwise
    /// the error of the lowest lane of `mask` whose read fails. A
    /// failed read also records its fault ([`TrapCtx::record_fault`]).
    #[inline]
    pub fn param_field(
        &self,
        base: ParamBase,
        field: u32,
        mask: LaneMask,
    ) -> Result<Cow<'_, [u32; 32]>, MemError> {
        if let Some(slab) = base.slab.filter(|_| mask != 0 && field.is_multiple_of(4)) {
            if let Some(row) = self.warp.local_row(u64::from(slab) + u64::from(field)) {
                return Ok(Cow::Borrowed(row));
            }
        }
        self.param_field_slow(base, field, mask)
            .inspect_err(|&e| self.record_fault(e))
    }

    /// [`TrapCtx::param_field`] off the row path: the per-lane loop, and
    /// the row path's errors.
    #[inline(never)]
    fn param_field_slow(
        &self,
        base: ParamBase,
        field: u32,
        mask: LaneMask,
    ) -> Result<Cow<'_, [u32; 32]>, MemError> {
        let misaligned = |addr| MemError::Misaligned { addr, align: 4 };
        if let Some(slab) = base.slab.filter(|_| mask != 0) {
            let addr = (GENERIC_LOCAL_TAG | u64::from(slab)).wrapping_add(u64::from(field));
            return Err(match field.is_multiple_of(4) {
                true => MemError::OutOfBounds { addr },
                false => misaligned(addr),
            });
        }
        let mut row = [0; 32];
        for lane in lanes(mask) {
            let addr = self
                .abi_param(lane, base.idx)
                .wrapping_add(u64::from(field));
            if !field.is_multiple_of(4) {
                return Err(misaligned(addr));
            }
            row[lane] = self.read_generic_u32(lane, addr)?;
        }
        Ok(Cow::Owned(row))
    }

    /// Records that a handler could not read its parameter objects: the
    /// launch ends with this fault at the trap's pc once the handler
    /// returns. The fault is the one a compiled handler's generic load
    /// of the address raises: a stack or shared-segment violation in
    /// those windows, a memory violation anywhere else. Only the first
    /// fault of a trap is kept.
    #[cold]
    pub fn record_fault(&self, e: MemError) {
        if self.fault.get().is_some() {
            return;
        }
        self.fault.set(Some(match e {
            MemError::OutOfBounds { addr } => match resolve_generic(addr) {
                Some((AddrSpace::Local, offset)) => FaultKind::StackViolation { offset },
                Some((AddrSpace::Shared, offset)) => FaultKind::SharedViolation { offset },
                _ => FaultKind::MemViolation { addr },
            },
            MemError::Misaligned { addr, .. } => FaultKind::Misaligned { addr },
            MemError::OutOfMemory => FaultKind::MemViolation { addr: 0 },
        }));
    }

    /// Writes a `u32` through a lane's generic address.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::read_generic_u32`].
    pub fn write_generic_u32(&mut self, lane: usize, addr: u64, v: u32) -> Result<(), MemError> {
        match resolve_generic(addr) {
            Some((AddrSpace::Local, off)) => {
                if self.warp.write_local(lane, off, &v.to_le_bytes()) {
                    Ok(())
                } else {
                    Err(MemError::OutOfBounds { addr })
                }
            }
            Some((AddrSpace::Shared, off)) => {
                let off = off as usize;
                if off + 4 > self.shared.len() {
                    return Err(MemError::OutOfBounds { addr });
                }
                self.shared[off..off + 4].copy_from_slice(&v.to_le_bytes());
                Ok(())
            }
            Some((AddrSpace::Global, a)) => self.mem.write_u32(a, v),
            _ => Err(MemError::OutOfBounds { addr }),
        }
    }

    /// The generic address of a lane's current stack pointer — useful in
    /// tests for locating trampoline-allocated objects.
    pub fn stack_generic_addr(&self, lane: usize) -> u64 {
        GENERIC_LOCAL_TAG | self.warp.reg(lane, Gpr::SP) as u64
    }
}

/// A shard-local fork of a handler runtime, for CTA-parallel launches.
///
/// The `runtime` half moves to the shard's worker thread and receives
/// that shard's traps; `join` stays on the launching thread and is
/// called — in canonical shard order, after every shard has finished —
/// to merge the shard's accumulated handler state back into the parent.
pub struct RuntimeShard {
    /// The forked runtime executed by the shard.
    pub runtime: Box<dyn HandlerRuntime + Send>,
    /// Merges the shard's handler state into the parent runtime.
    pub join: Box<dyn FnOnce() + Send>,
}

/// The identity of the trap being dispatched: the native handler id
/// the `JCAL handlerN` names — what runtimes dispatch on — plus the
/// decode-time site index, for runtimes that attribute traps to sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrapRef {
    /// Index into the launch module's [`TrapSite`] table.
    pub site: u32,
    /// The native handler id named by the `JCAL handlerN`.
    pub handler: u32,
}

/// Receives traps from `JCAL handlerN` instructions.
pub trait HandlerRuntime {
    /// Handles the trap at `trap` for the given warp; the returned
    /// cost is charged to the warp as cycles.
    fn handle(&mut self, trap: TrapRef, ctx: &mut TrapCtx<'_>) -> HandlerCost;

    /// Called once per launch (and once per forked shard runtime),
    /// before any trap is dispatched, with the launching module's
    /// decode-time site table; `TrapRef::site` indexes it. The default
    /// does nothing: dispatch needs only `TrapRef::handler`. Wrapping
    /// runtimes delegate it so a wrapped runtime sees the same table.
    fn bind_sites(&mut self, _sites: &[TrapSite]) {}

    /// Forks a shard-local runtime for one SM shard of a CTA-parallel
    /// launch, or `None` if this runtime's state cannot be merged (the
    /// device then falls back to running shards sequentially, which is
    /// always correct). The default is `None`: order-dependent runtimes
    /// stay sequential unless they opt in. Only [`NoHandlers`] forks
    /// today; instrumented runtimes take the default.
    fn fork_shard(&self) -> Option<RuntimeShard> {
        None
    }
}

/// A runtime with no handlers: traps are ignored at zero cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHandlers;

impl HandlerRuntime for NoHandlers {
    fn handle(&mut self, _trap: TrapRef, _ctx: &mut TrapCtx<'_>) -> HandlerCost {
        HandlerCost::FREE
    }

    fn fork_shard(&self) -> Option<RuntimeShard> {
        Some(RuntimeShard {
            runtime: Box::new(NoHandlers),
            join: Box::new(|| {}),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_cycles() {
        let c = HandlerCost {
            instructions: 10,
            memory_ops: 2,
            atomics: 1,
        };
        assert_eq!(c.cycles(), 20 + 24 + 30);
        assert_eq!(HandlerCost::FREE.cycles(), 0);
    }

    /// Aligned local reads take the word path, unaligned ones the byte
    /// path; both return what four byte reads return, `OutOfBounds`
    /// past the slab included.
    #[test]
    fn generic_local_reads_match_the_byte_path() {
        const SLAB: u32 = 64;
        let mut warp = Warp::new(0, 0, 0, u32::MAX, 8, SLAB);
        for lane in [0, 7, 31] {
            let bytes: Vec<u8> = (0..SLAB).map(|i| (i * 37 + lane as u32) as u8).collect();
            assert!(warp.write_local(lane, 0, &bytes));
        }
        let mut shared = [0u8; 16];
        let mut mem = DeviceMemory::new(1 << 12);
        let ctx = TrapCtx {
            warp: &mut warp,
            shared: &mut shared,
            mem: &mut mem,
            ctaid: (0, 0, 0),
            block_dim: (32, 1, 1),
            grid_dim: (1, 1, 1),
            sm_id: 0,
            cycle: 0,
            kernel: "k",
            launch_index: 0,
            fault: Cell::new(None),
        };
        for lane in [0, 7, 31] {
            for off in 0..SLAB as u64 + 8 {
                let addr = GENERIC_LOCAL_TAG | off;
                let mut buf = [0u8; 4];
                let want = if ctx.warp.read_local(lane, off, &mut buf) {
                    Ok(u32::from_le_bytes(buf))
                } else {
                    Err(MemError::OutOfBounds { addr })
                };
                assert_eq!(
                    ctx.read_generic_u32(lane, addr),
                    want,
                    "lane {lane} off {off}"
                );
            }
        }
        // The slab's last word reads; the next one is past it.
        let top = GENERIC_LOCAL_TAG | (SLAB as u64 - 4);
        assert!(ctx.read_generic_u32(3, top).is_ok());
        assert_eq!(
            ctx.read_generic_u32(3, top + 4),
            Err(MemError::OutOfBounds { addr: top + 4 })
        );
    }

    /// Warp-wide field reads return what per-lane reads return in every
    /// lane they read, on the row path (one object offset for the warp)
    /// and on the per-lane path (pointers that differ), under full,
    /// half, one-lane and empty masks; a misaligned or past-the-slab
    /// field is an error, recorded as the fault a load would raise.
    #[test]
    fn param_fields_match_per_lane_reads() {
        const SLAB: u32 = 256;
        const OBJ: u64 = 0x40;
        let mut warp = Warp::new(0, 0, 0, u32::MAX, 8, SLAB);
        for lane in 0..32 {
            let bytes: Vec<u8> = (0..SLAB).map(|i| (i * 37 + lane * 11) as u8).collect();
            assert!(warp.write_local(lane as usize, 0, &bytes));
        }
        // R4:R5 names one object in lanes 0..=30 and another in lane 31;
        // R6:R7 names one object in every lane.
        for lane in 0..32 {
            let before = if lane == 31 { OBJ + 8 } else { OBJ };
            warp.set_reg64(lane, Gpr::new(4), GENERIC_LOCAL_TAG | before);
            warp.set_reg64(lane, Gpr::new(6), GENERIC_LOCAL_TAG | (OBJ + 0x60));
        }
        let mut shared = [0u8; 16];
        let mut mem = DeviceMemory::new(1 << 12);
        let ctx = TrapCtx {
            warp: &mut warp,
            shared: &mut shared,
            mem: &mut mem,
            ctaid: (0, 0, 0),
            block_dim: (32, 1, 1),
            grid_dim: (1, 1, 1),
            sm_id: 0,
            cycle: 0,
            kernel: "k",
            launch_index: 0,
            fault: Cell::new(None),
        };
        for mask in [u32::MAX, 0x0000_ffff, 1 << 31, 0] {
            ctx.warp.active = mask;
            let bases = [ctx.param_base(0), ctx.param_base(1)];
            assert_eq!(bases[0].is_row(), mask != 0 && mask != u32::MAX);
            assert_eq!(bases[1].is_row(), mask != 0);
            for (idx, &base) in bases.iter().enumerate() {
                for field in (0..0x60).step_by(4) {
                    let row = ctx.param_field(base, field, mask).unwrap();
                    for lane in lanes(mask) {
                        let addr = ctx.abi_param(lane, idx as u8) + field as u64;
                        let want = ctx.read_generic_u32(lane, addr);
                        assert_eq!(Ok(row[lane]), want, "mask {mask:#x} lane {lane}");
                        let one = ctx.param_field(base, field, 1 << lane).unwrap();
                        assert_eq!(one[lane], row[lane]);
                    }
                }
                if mask == 0 {
                    continue;
                }
                let lane = mask.trailing_zeros() as usize;
                let ptr = ctx.abi_param(lane, idx as u8);
                assert_eq!(
                    ctx.param_field(base, 6, mask),
                    Err(MemError::Misaligned {
                        addr: ptr + 6,
                        align: 4
                    })
                );
                assert_eq!(
                    ctx.fault.take(),
                    Some(FaultKind::Misaligned { addr: ptr + 6 })
                );
                let past = SLAB - (ptr - GENERIC_LOCAL_TAG) as u32;
                let addr = GENERIC_LOCAL_TAG | SLAB as u64;
                assert_eq!(
                    ctx.param_field(base, past, mask),
                    Err(MemError::OutOfBounds { addr })
                );
                assert_eq!(
                    ctx.fault.take(),
                    Some(FaultKind::StackViolation {
                        offset: SLAB as u64
                    })
                );
            }
        }
        assert_eq!(ctx.fault.get(), None, "successful reads record nothing");
        // A null pointer pair is a memory violation at the field.
        ctx.warp.active = u32::MAX;
        for lane in 0..32 {
            ctx.warp.set_reg64(lane, Gpr::new(4), 0);
        }
        let base = ctx.param_base(0);
        assert!(!base.is_row());
        assert_eq!(
            ctx.param_field(base, 4, u32::MAX),
            Err(MemError::OutOfBounds { addr: 4 })
        );
        assert_eq!(ctx.fault.get(), Some(FaultKind::MemViolation { addr: 4 }));
    }
}
