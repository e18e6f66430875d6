//! The top-level instrumentor object: collects specs + handlers,
//! applies the compiler pass, and dispatches traps at execution time.

use crate::handler::{Handler, SiteCtx};
use crate::pass;
use crate::spec::{HandlerRef, InfoFlags, InstPoint, InstrumentSpec, SiteFilter, SpillPolicy};
use sassi_isa::Function;
use sassi_sim::{HandlerCost, HandlerRuntime, TrapCtx, TrapRef};

struct NativeEntry {
    handler: Box<dyn Handler>,
    what: InfoFlags,
    point: InstPoint,
}

/// The SASSI instrumentor.
///
/// Configure *where* and *what* with the `on_*` methods, apply the pass
/// to each compiled function with [`Sassi::apply`] (conceptually the
/// final `ptxas` pass of the paper's Figure 1), and pass the same
/// object as the [`HandlerRuntime`] when launching kernels.
///
/// A `Sassi` runtime does not fork into per-shard copies, so a launch
/// under it runs its CTA shards in order on the launching thread, and
/// every handler sees every trap of the launch.
///
/// ```
/// use sassi::{FnHandler, Sassi, SiteFilter, InfoFlags};
/// use sassi_kir::{Compiler, KernelBuilder};
///
/// let mut b = KernelBuilder::kernel("k");
/// let out = b.param_ptr(0);
/// let x = b.iconst(7);
/// b.st_global_u32(out, x);
/// let func = Compiler::new().compile(&b.finish()).unwrap();
///
/// let mut sassi = Sassi::new();
/// sassi.on_before(
///     SiteFilter::MEMORY,
///     InfoFlags::MEMORY,
///     Box::new(FnHandler::free(|_site| { /* count, inspect, ... */ })),
/// );
/// let instrumented = sassi.apply(&func, 0);
/// assert!(instrumented.len() > func.len());
/// ```
#[derive(Default)]
pub struct Sassi {
    specs: Vec<InstrumentSpec>,
    natives: Vec<NativeEntry>,
    policy: SpillPolicy,
}

impl Sassi {
    /// An instrumentor with no directives (applying it is the identity).
    pub fn new() -> Sassi {
        Sassi::default()
    }

    fn push_native(
        &mut self,
        point: InstPoint,
        filter: SiteFilter,
        what: InfoFlags,
        handler: Box<dyn Handler>,
    ) -> u32 {
        let id = self.natives.len() as u32;
        self.natives.push(NativeEntry {
            handler,
            what,
            point,
        });
        self.specs.push(InstrumentSpec {
            point,
            filter,
            what,
            handler: HandlerRef::Native(id),
        });
        id
    }

    /// Instruments *before* instructions matching `filter`, building
    /// the extra object selected by `what`, calling `handler`.
    pub fn on_before(
        &mut self,
        filter: SiteFilter,
        what: InfoFlags,
        handler: Box<dyn Handler>,
    ) -> u32 {
        self.push_native(InstPoint::Before, filter, what, handler)
    }

    /// Instruments *after* matching instructions (branches and jumps
    /// excluded, as in the paper).
    pub fn on_after(
        &mut self,
        filter: SiteFilter,
        what: InfoFlags,
        handler: Box<dyn Handler>,
    ) -> u32 {
        self.push_native(InstPoint::After, filter, what, handler)
    }

    /// Instruments with a handler compiled to SASS (linked as function
    /// `func_index` of the module) instead of a native handler.
    pub fn on_before_sass(&mut self, filter: SiteFilter, what: InfoFlags, func_index: u32) {
        self.specs.push(InstrumentSpec {
            point: InstPoint::Before,
            filter,
            what,
            handler: HandlerRef::Sass(func_index),
        });
    }

    /// The active instrumentation specs.
    pub fn specs(&self) -> &[InstrumentSpec] {
        &self.specs
    }

    /// Selects the trampoline spill policy (default:
    /// [`SpillPolicy::Liveness`]). `SaveEverything` models a
    /// liveness-blind binary rewriter — the ablation of DESIGN.md §3.3.
    pub fn set_spill_policy(&mut self, policy: SpillPolicy) -> &mut Sassi {
        self.policy = policy;
        self
    }

    /// Applies the instrumentation pass to one compiled function;
    /// `fn_addr` must be unique per function (e.g. `ordinal << 20`).
    pub fn apply(&self, func: &Function, fn_addr: u32) -> Function {
        pass::instrument(func, &self.specs, fn_addr, self.policy)
    }

    /// Number of sites the current specs would instrument in `func`.
    pub fn count_sites(&self, func: &Function) -> usize {
        pass::count_sites(func, &self.specs)
    }
}

impl HandlerRuntime for Sassi {
    /// Dispatches to the native handler the `JCAL handlerN` names —
    /// the handler chosen at instrumentation time, as in the paper's
    /// Figure 2(a). An id no handler was registered under costs
    /// nothing.
    fn handle(&mut self, trap_ref: TrapRef, trap: &mut TrapCtx<'_>) -> HandlerCost {
        let Some(entry) = self.natives.get_mut(trap_ref.handler as usize) else {
            return HandlerCost::FREE;
        };
        let mut ctx = SiteCtx {
            trap,
            point: entry.point,
            what: entry.what,
        };
        entry.handler.handle(&mut ctx)
    }
}
