//! The handler-side API: what user instrumentation code is written
//! against.
//!
//! A [`Handler`] is the Rust analogue of the paper's CUDA handler
//! functions (Figures 3, 4, 6, 9): it is invoked once per warp at every
//! instrumentation site, receives a [`SiteCtx`] giving SIMT-style access
//! to the warp (ballot, leader election, per-lane parameter objects,
//! register and memory state), and returns the cost to charge the warp
//! — standing in for the cycles its SASS compilation would have
//! consumed under the 16-register cap.

use crate::params::{BeforeParamsView, CondBranchParamsView, MemoryParamsView, RegisterParamsView};
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

    /// Calls `f` for each active lane in ascending order.
    pub fn for_each_active(&self, f: impl FnMut(usize)) {
        self.trap.for_each_active(f)
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
}

/// A shard-local fork of a [`Handler`], for CTA-parallel launches.
///
/// The `handler` half receives one SM shard's site visits on that
/// shard's worker thread; `join` is called on the launching thread —
/// in canonical shard order, after every shard has finished — to merge
/// the shard's accumulated state back into the parent handler.
pub struct HandlerShard {
    /// The forked handler driven by the shard.
    pub handler: Box<dyn Handler>,
    /// Merges the shard's state into the parent handler.
    pub join: Box<dyn FnOnce() + Send>,
}

/// User instrumentation code, invoked per warp at each site.
pub trait Handler: Send {
    /// Handles one site visit. The returned [`HandlerCost`] is charged
    /// to the trapping warp as execution cycles.
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost;

    /// Forks a shard-local handler whose state can later be merged
    /// back, or `None` if this handler's state is order-dependent (the
    /// device then runs the launch's CTA shards sequentially, which is
    /// always correct). The default is `None`; handlers whose state
    /// merges commutatively should opt in.
    fn fork(&self) -> Option<HandlerShard> {
        None
    }
}

impl<H: Handler + ?Sized> Handler for Box<H> {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        (**self).handle(ctx)
    }

    fn fork(&self) -> Option<HandlerShard> {
        (**self).fork()
    }
}

/// Reusable per-trap scratch buffers for handlers.
///
/// The contract: a handler owns one `Scratch`, calls
/// [`Scratch::reset`] at the top of `handle`, and uses the buffers for
/// the duration of that single trap. Buffer *capacity* persists across
/// traps, so steady-state handler execution performs no heap
/// allocation; buffer *contents* do not survive a trap — state a
/// handler accumulates across traps belongs in its study state (the
/// part that merges on shard join). [`Handler::fork`] gives each CTA
/// shard a fresh `Scratch` (`Default`), never a shared one.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Lane indices.
    pub lanes: Vec<usize>,
    /// 64-bit values (addresses, register pairs).
    pub words: Vec<u64>,
    /// 32-bit values.
    pub vals: Vec<u32>,
}

impl Scratch {
    /// Empties every buffer, keeping capacity. Call at the top of
    /// `handle`.
    pub fn reset(&mut self) {
        self.lanes.clear();
        self.words.clear();
        self.vals.clear();
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
