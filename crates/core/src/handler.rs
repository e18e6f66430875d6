//! The handler-side API: what user instrumentation code is written
//! against.
//!
//! A [`Handler`] is the Rust analogue of the paper's CUDA handler
//! functions (Figures 3, 4, 6, 9): it is invoked once per warp at every
//! instrumentation site, receives a [`SiteCtx`] giving SIMT-style access
//! to the warp (ballot, leader election, warp-wide and per-lane
//! parameter objects, register and memory state), and returns the cost
//! to charge the warp
//! — standing in for the cycles its SASS compilation would have
//! consumed under the 16-register cap.

use crate::params::{
    BeforeParamsView, CondBranchParamsView, MemoryParamsView, RegisterParamsView, WarpBeforeParams,
    WarpBranchParams, WarpMemoryParams, WarpRegisterParams,
};
use crate::spec::{InfoFlags, InstPoint};
use sassi_isa::Lanes;
use sassi_sim::{HandlerCost, TrapCtx};

/// Per-site context handed to handlers.
pub struct SiteCtx<'a, 'c> {
    /// Raw warp/device access (registers, predicates, memories,
    /// coordinates, warp intrinsics).
    pub trap: &'a mut TrapCtx<'c>,
    /// Whether the site is before or after its instruction.
    pub point: InstPoint,
    /// Which extra parameter object the trampoline built.
    pub what: InfoFlags,
}

impl<'c> SiteCtx<'_, 'c> {
    /// Active lanes at the site (the `__ballot(1)` of the paper's
    /// handlers).
    pub fn active_mask(&self) -> u32 {
        self.trap.active_mask()
    }

    /// Active lane indices: a copyable, allocation-free mask iterator
    /// in ascending lane order.
    pub fn active_lanes(&self) -> Lanes {
        self.trap.active_lanes()
    }

    /// The first active lane — the leader the paper's handlers elect
    /// with `__ffs(__ballot(1)) - 1`.
    pub fn leader(&self) -> Option<usize> {
        self.trap.leader()
    }

    /// `__ballot(f(lane))` over the active lanes (allocation-free).
    pub fn ballot(&self, mut f: impl FnMut(usize) -> bool) -> u32 {
        let mut m = 0u32;
        let mut active = self.trap.active_mask();
        while active != 0 {
            let lane = active.trailing_zeros() as usize;
            active &= active - 1;
            if f(lane) {
                m |= 1 << lane;
            }
        }
        m
    }

    /// Lane `lane`'s `SASSIBeforeParams` / `SASSIAfterParams` view.
    pub fn params(&self, lane: usize) -> BeforeParamsView {
        BeforeParamsView::new(self.trap, lane)
    }

    /// Lane `lane`'s `SASSIMemoryParams` view, if the spec requested it.
    pub fn memory_params(&self, lane: usize) -> Option<MemoryParamsView> {
        self.what
            .contains(InfoFlags::MEMORY)
            .then(|| MemoryParamsView::new(self.trap, lane))
    }

    /// Lane `lane`'s `SASSICondBranchParams` view, if requested.
    pub fn branch_params(&self, lane: usize) -> Option<CondBranchParamsView> {
        self.what
            .contains(InfoFlags::COND_BRANCH)
            .then(|| CondBranchParamsView::new(self.trap, lane))
    }

    /// Lane `lane`'s `SASSIRegisterParams` view, if requested.
    pub fn register_params(&self, lane: usize) -> Option<RegisterParamsView> {
        self.what
            .contains(InfoFlags::REGISTERS)
            .then(|| RegisterParamsView::new(self.trap, lane))
    }

    /// The warp's `SASSIBeforeParams` / `SASSIAfterParams`, read a field
    /// for every lane at once (see [`WarpBeforeParams`]).
    #[inline]
    pub fn warp_params(&self) -> WarpBeforeParams {
        WarpBeforeParams::new(self.trap)
    }

    /// The warp's `SASSIMemoryParams`, if the spec requested it.
    #[inline]
    pub fn warp_memory_params(&self) -> Option<WarpMemoryParams> {
        self.what
            .contains(InfoFlags::MEMORY)
            .then(|| WarpMemoryParams::new(self.trap))
    }

    /// The warp's `SASSICondBranchParams`, if requested.
    #[inline]
    pub fn warp_branch_params(&self) -> Option<WarpBranchParams> {
        self.what
            .contains(InfoFlags::COND_BRANCH)
            .then(|| WarpBranchParams::new(self.trap))
    }

    /// The warp's `SASSIRegisterParams`, if requested.
    #[inline]
    pub fn warp_register_params(&self) -> Option<WarpRegisterParams> {
        self.what
            .contains(InfoFlags::REGISTERS)
            .then(|| WarpRegisterParams::new(self.trap))
    }
}

/// User instrumentation code, invoked per warp at each site.
pub trait Handler: Send {
    /// Handles one site visit. The returned [`HandlerCost`] is charged
    /// to the trapping warp as execution cycles.
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost;
}

impl<H: Handler + ?Sized> Handler for Box<H> {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        (**self).handle(ctx)
    }
}

/// A handler from a closure (plus a fixed cost) — convenient for small
/// experiments and tests.
pub struct FnHandler<F> {
    f: F,
    cost: HandlerCost,
}

impl<F> FnHandler<F>
where
    F: FnMut(&mut SiteCtx<'_, '_>) + Send,
{
    /// Wraps `f` with a fixed per-invocation cost.
    pub fn new(cost: HandlerCost, f: F) -> FnHandler<F> {
        FnHandler { f, cost }
    }

    /// Wraps `f` at zero cost (pure observation).
    pub fn free(f: F) -> FnHandler<F> {
        FnHandler {
            f,
            cost: HandlerCost::FREE,
        }
    }
}

impl<F> Handler for FnHandler<F>
where
    F: FnMut(&mut SiteCtx<'_, '_>) + Send,
{
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        (self.f)(ctx);
        self.cost
    }
}
