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
use crate::warp::Warp;
use sassi_isa::{
    lanes, resolve_generic, AddrSpace, Gpr, LaneMask, Lanes, PredReg, GENERIC_LOCAL_TAG,
};
use sassi_mem::{DeviceMemory, MemError};

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

    /// Reads a `u32` through a lane's generic address.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] for addresses outside every window or
    /// allocation.
    pub fn read_generic_u32(&self, lane: usize, addr: u64) -> Result<u32, MemError> {
        match resolve_generic(addr) {
            Some((AddrSpace::Local, off)) => {
                let slab = self.warp.lane_local(lane);
                let off = off as usize;
                if off + 4 > slab.len() {
                    return Err(MemError::OutOfBounds { addr });
                }
                Ok(u32::from_le_bytes(slab[off..off + 4].try_into().unwrap()))
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

    /// Writes a `u32` through a lane's generic address.
    ///
    /// # Errors
    ///
    /// As [`TrapCtx::read_generic_u32`].
    pub fn write_generic_u32(&mut self, lane: usize, addr: u64, v: u32) -> Result<(), MemError> {
        match resolve_generic(addr) {
            Some((AddrSpace::Local, off)) => {
                let slab = self.warp.lane_local_mut(lane);
                let off = off as usize;
                if off + 4 > slab.len() {
                    return Err(MemError::OutOfBounds { addr });
                }
                slab[off..off + 4].copy_from_slice(&v.to_le_bytes());
                Ok(())
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
}
