//! # sassi-sim — the SIMT GPU simulator
//!
//! The hardware substrate of the SASSI reproduction: a multi-SM,
//! cycle-approximate simulator executing the SASS-like ISA of
//! [`sassi_isa`], standing in for the Kepler GPUs of the paper
//! *Flexible Software Profiling of GPU Architectures* (ISCA 2015).
//!
//! * **SIMT semantics** — 32-lane warps with stack-based divergence and
//!   `SSY`/`SYNC` reconvergence ([`Warp`]), block barriers, warp-wide
//!   votes and shuffles, predication, register pairs, carry chains.
//! * **Memory** — per-lane address generation feeding the coalescer and
//!   L1/L2/DRAM timing model of [`sassi_mem`], with full functional
//!   backing storage and fault detection (out-of-bounds, misalignment,
//!   stack and shared violations become [`FaultKind`]s, the raw
//!   material of the paper's error-injection study).
//! * **Traps** — `JCAL handlerN` suspends the warp and calls a
//!   [`HandlerRuntime`] with a [`TrapCtx`] exposing all architectural
//!   state: the execution vehicle for instrumentation handlers.
//!
//! ```
//! use sassi_kir::{Compiler, KernelBuilder};
//! use sassi_sim::{Device, LaunchDims, Module, NoHandlers};
//!
//! // out[i] = i * 3
//! let mut b = KernelBuilder::kernel("triple");
//! let i = b.global_tid_x();
//! let out = b.param_ptr(0);
//! let v = b.imul(i, 3u32);
//! let e = b.lea(out, i, 2);
//! b.st_global_u32(e, v);
//! let func = Compiler::new().compile(&b.finish()).unwrap();
//!
//! let module = Module::link(&[func]).unwrap();
//! let mut dev = Device::with_defaults();
//! let buf = dev.mem.alloc(64 * 4, 4).unwrap();
//! let res = dev
//!     .launch(&module, "triple", LaunchDims::linear(2, 32), &[buf], &mut NoHandlers, 0, 1_000_000)
//!     .unwrap();
//! assert!(res.is_ok());
//! assert_eq!(dev.mem.read_u32(buf + 4 * 10).unwrap(), 30);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod decode;
mod device;
mod module;
mod stats;
mod trap;
mod warp;

pub use config::{GpuConfig, LaunchDims};
pub use decode::{
    is_block_boundary, BasicBlock, DSrc, DecodedFault, DecodedInstr, DecodedModule, TrapSite, UOp,
    GUARD_ALWAYS,
};
pub use device::{Device, ExecMode, LaunchError};
pub use module::{LinkError, LinkedFunction, Module};
pub use stats::{
    FaultInfo, FaultKind, IssueClass, IssueCounters, KernelOutcome, LaunchResult, LaunchStats,
};
pub use trap::{
    HandlerCost, HandlerRuntime, NoHandlers, ParamBase, RuntimeShard, TrapCtx, TrapRef,
};
pub use warp::{StackEntry, Warp, WarpStatus};
// The error of a `TrapCtx` memory read, for handler APIs built on it.
pub use sassi_mem::MemError;
