//! # sassi — flexible software profiling of GPU architectures
//!
//! Reproduction of **SASSI** (Stephenson et al., *Flexible Software
//! Profiling of GPU Architectures*, ISCA 2015): a selective, low-level
//! assembly-language instrumentation framework that injects
//! ABI-compliant calls to user-defined handlers at chosen instructions,
//! as the final pass of the backend compiler.
//!
//! The pieces, mapped to the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | `ptxas` flags choosing *where*/*what* | [`SiteFilter`], [`InfoFlags`], [`InstPoint`] |
//! | Figure 2(a) injected sequence | [`Sassi::apply`] → trampoline codegen |
//! | Figure 2(b,c) `SASSIBeforeParams`, `SASSIMemoryParams` | [`BeforeParamsView`], [`MemoryParamsView`], [`CondBranchParamsView`], [`RegisterParamsView`] |
//! | CUDA handler functions | the [`Handler`] trait + [`SiteCtx`] |
//! | `-maxrregcount=16` handler cap | compile handlers with `Compiler::max_regs(16)` (SASS mode) or charge [`sassi_sim::HandlerCost`] (native mode) |
//!
//! The trampoline — stack allocation, liveness-driven register saves,
//! parameter-object construction, the `JCAL`, and full restoration — is
//! real simulated SASS executed by [`sassi_sim`]; the paper reports
//! (§9.1) that this ABI/spill machinery dominates instrumentation
//! overhead, and it is executed, not estimated, here too.
//!
//! ```
//! use sassi::{FnHandler, InfoFlags, Sassi, SiteFilter};
//! use sassi_kir::{Compiler, KernelBuilder};
//! use sassi_sim::{Device, LaunchDims, Module};
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! // A kernel storing tid*2.
//! let mut b = KernelBuilder::kernel("k");
//! let i = b.global_tid_x();
//! let out = b.param_ptr(0);
//! let v = b.shl(i, 1u32);
//! let e = b.lea(out, i, 2);
//! b.st_global_u32(e, v);
//! let func = Compiler::new().compile(&b.finish()).unwrap();
//!
//! // Count dynamic (thread-level) memory operations, Figure 3 style.
//! let counter = Arc::new(Mutex::new(0u64));
//! let c2 = counter.clone();
//! let mut sassi = Sassi::new();
//! sassi.on_before(
//!     SiteFilter::MEMORY,
//!     InfoFlags::MEMORY,
//!     Box::new(FnHandler::free(move |site| {
//!         *c2.lock() += site.active_lanes().len() as u64;
//!     })),
//! );
//! let instrumented = sassi.apply(&func, 0);
//!
//! let module = Module::link(&[instrumented]).unwrap();
//! let mut dev = Device::with_defaults();
//! let buf = dev.mem.alloc(64 * 4, 4).unwrap();
//! let res = dev
//!     .launch(&module, "k", LaunchDims::linear(2, 32), &[buf], &mut sassi, 0, 10_000_000)
//!     .unwrap();
//! assert!(res.is_ok());
//! assert_eq!(*counter.lock(), 64); // one store per thread
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod handler;
mod params;
mod pass;
mod sassi;
mod spec;
mod trampoline;

pub use handler::{FnHandler, Handler, SiteCtx};
pub use params::{
    layout, BeforeParamsView, CondBranchParamsView, MemoryDomain, MemoryParamsView,
    RegisterParamsView, WarpBeforeParams, WarpBranchParams, WarpMemoryParams, WarpRegisterParams,
};
pub use pass::planned_spills;
pub use sassi::Sassi;
pub use spec::{HandlerRef, InfoFlags, InstPoint, InstrumentSpec, SiteFilter, SpillPolicy};

// Re-exported for handler authors.
pub use sassi_sim::{HandlerCost, MemError, ParamBase, TrapCtx, TrapRef, TrapSite};
