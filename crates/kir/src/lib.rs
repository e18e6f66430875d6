//! # sassi-kir — kernel IR, builder DSL and backend compiler
//!
//! The role NVIDIA's `nvcc`/`ptxas` chain plays in the paper *Flexible
//! Software Profiling of GPU Architectures* (ISCA 2015), rebuilt from
//! scratch:
//!
//! * [`KernelBuilder`] — a typed, structured DSL for authoring device
//!   kernels (the "CUDA source" of this reproduction). Control flow
//!   lowers to `SSY`/`SYNC` SIMT reconvergence.
//! * [`Compiler`] — the backend: CFG construction, dataflow liveness,
//!   linear-scan register allocation with spilling (including the
//!   16-register handler cap, `-maxrregcount=16` in the paper), and
//!   lowering to the SASS-like ISA of [`sassi_isa`].
//! * [`Cfg`] — the one control-flow-graph builder, shared by kernel IR
//!   ([`Cfg::build`]) and compiled SASS ([`sasslive::cfg`]).
//! * [`sasslive`] — the SASS CFG with its per-instruction liveness and
//!   post-dominance, the compile-time facts the SASSI instrumentor
//!   consumes when it runs as the compiler's final pass; its block
//!   starts are the basic-block headers SASSI instruments.
//!
//! ```
//! use sassi_kir::{Compiler, KernelBuilder};
//!
//! let mut b = KernelBuilder::kernel("scale");
//! let i = b.global_tid_x();
//! let n = b.param_u32(0);
//! let buf = b.param_ptr(1);
//! let p = b.setp_u32_lt(i, n);
//! b.if_(p, |b| {
//!     let e = b.lea(buf, i, 2);
//!     let v = b.ld_global_u32(e);
//!     let w = b.shl(v, 1u32);
//!     b.st_global_u32(e, w);
//! });
//! let sass = Compiler::new().compile(&b.finish()).unwrap();
//! println!("{sass}"); // cuobjdump-style listing
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod cfg;
mod compiler;
mod kop;
mod liveness;
mod lower;
mod regalloc;
pub mod sasslive;
mod verify;
mod vreg;

pub use builder::{FrameSlot, KFunction, KernelBuilder, SharedSlot};
pub use cfg::{Block, Cfg, Flow};
pub use compiler::{CompileError, Compiler};
pub use kop::{FBinOp, IBinOp, IUnOp, KAddr, KDefsUses, KGuard, KInstr, KOp};
pub use liveness::{block_liveness, live_intervals, Interval, Liveness, VBitSet};
pub use regalloc::{allocate, Allocation, Loc, RegAllocError};
pub use verify::{check_kir, check_reconvergence};
pub use vreg::{LabelId, VClass, VReg, VSrc, V32, V64, VP};
