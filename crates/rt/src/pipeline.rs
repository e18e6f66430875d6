//! The build pipeline: kernel IR → backend compiler → SASSI final pass
//! → linked module (paper Figure 1's ahead-of-time path).

use sassi::Sassi;
use sassi_kir::{CompileError, Compiler, KFunction};
use sassi_sim::{LinkError, Module};
use std::fmt;

/// Build failure.
#[derive(Debug)]
pub enum BuildError {
    /// Backend compilation failed.
    Compile(String, CompileError),
    /// Linking failed.
    Link(LinkError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(name, e) => write!(f, "compiling `{name}`: {e}"),
            BuildError::Link(e) => write!(f, "linking: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> BuildError {
        BuildError::Link(e)
    }
}

/// Builds a [`Module`] from kernel IR, with optional SASSI
/// instrumentation applied as the final backend pass.
///
/// Compiled-SASS handlers must be registered *before* kernels so their
/// function indices (used by `Sassi::on_before_sass`) are known; they
/// are compiled under the paper's 16-register cap and never themselves
/// instrumented.
pub struct ModuleBuilder {
    compiler: Compiler,
    handler_compiler: Compiler,
    handlers: Vec<KFunction>,
    kernels: Vec<KFunction>,
}

impl Default for ModuleBuilder {
    fn default() -> ModuleBuilder {
        ModuleBuilder::new()
    }
}

impl ModuleBuilder {
    /// A builder with the default kernel compiler (63 registers) and
    /// the capped handler compiler (16 registers, `-maxrregcount=16`).
    pub fn new() -> ModuleBuilder {
        ModuleBuilder {
            compiler: Compiler::new(),
            handler_compiler: Compiler::new().max_regs(16),
            handlers: Vec::new(),
            kernels: Vec::new(),
        }
    }

    /// Replaces the kernel compiler (e.g. to cap kernel registers).
    pub fn with_compiler(mut self, c: Compiler) -> ModuleBuilder {
        self.compiler = c;
        self
    }

    /// Registers a compiled-SASS instrumentation handler; returns the
    /// function index to pass to `Sassi::on_before_sass`.
    ///
    /// # Panics
    ///
    /// Panics if the handler contains a block barrier: as the paper
    /// notes (§9.3), `__syncthreads` is illegal in handlers because they
    /// may run with the warp diverged, so a barrier could never be
    /// reached by all threads.
    pub fn add_sass_handler(&mut self, f: KFunction) -> u32 {
        assert!(
            !f.instrs.iter().any(|i| matches!(i.op, sassi_kir::KOp::Bar)),
            "handler `{}` uses a block barrier, which is illegal in              instrumentation handlers (paper §9.3)",
            f.name
        );
        self.handlers.push(f);
        (self.handlers.len() - 1) as u32
    }

    /// Registers a kernel.
    pub fn add_kernel(&mut self, f: KFunction) -> &mut ModuleBuilder {
        self.kernels.push(f);
        self
    }

    /// Compiles everything, applies `sassi` to the kernels (not to
    /// handlers), and links. The linked module comes back pre-decoded:
    /// `Module::link` lowers the instruction stream into the flat µop
    /// array (and trap-site table) the simulator's hot loop executes,
    /// so no launch ever pays a decode cost.
    ///
    /// # Errors
    ///
    /// Compilation or link failures as [`BuildError`].
    pub fn build(&self, sassi: Option<&Sassi>) -> Result<Module, BuildError> {
        let mut funcs = Vec::with_capacity(self.handlers.len() + self.kernels.len());
        for h in &self.handlers {
            let f = self
                .handler_compiler
                .compile(h)
                .map_err(|e| BuildError::Compile(h.name.clone(), e))?;
            funcs.push(f);
        }
        for (i, k) in self.kernels.iter().enumerate() {
            let f = self
                .compiler
                .compile(k)
                .map_err(|e| BuildError::Compile(k.name.clone(), e))?;
            let f = match sassi {
                Some(s) => s.apply(&f, ((self.handlers.len() + i) as u32) << 20),
                None => f,
            };
            funcs.push(f);
        }
        Ok(Module::link(&funcs)?)
    }

    /// Per-function instrumentation density of a built module: for each
    /// linked function, `(name, trap_sites, instructions)` — how many
    /// of its instructions were rewritten into handler trap sites by
    /// the SASSI pass. Read from the decode stage's sorted trap-site
    /// table, so it costs no instruction scan.
    pub fn instrumentation_density(module: &Module) -> Vec<(String, u32, u32)> {
        let decoded = module.decoded();
        module
            .functions
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    decoded.trap_sites_in(f.entry, f.end),
                    f.end - f.entry,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sassi::{FnHandler, InfoFlags, SiteFilter};
    use sassi_kir::KernelBuilder;

    fn trivial_kernel(name: &str) -> KFunction {
        let mut b = KernelBuilder::kernel(name);
        let out = b.param_ptr(0);
        let x = b.iconst(42);
        b.st_global_u32(out, x);
        b.finish()
    }

    #[test]
    fn builds_plain_module() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(trivial_kernel("a"));
        mb.add_kernel(trivial_kernel("b"));
        let m = mb.build(None).unwrap();
        assert!(m.function("a").is_some());
        assert!(m.function("b").is_some());
    }

    #[test]
    fn instrumented_kernels_grow() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(trivial_kernel("a"));
        let plain = mb.build(None).unwrap();
        let mut sassi = Sassi::new();
        sassi.on_before(
            SiteFilter::ALL,
            InfoFlags::NONE,
            Box::new(FnHandler::free(|_| {})),
        );
        let inst = mb.build(Some(&sassi)).unwrap();
        assert!(inst.code.len() > plain.code.len());
    }

    #[test]
    fn instrumentation_density_counts_trap_sites() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(trivial_kernel("a"));
        let plain = mb.build(None).unwrap();
        assert!(ModuleBuilder::instrumentation_density(&plain)
            .iter()
            .all(|(_, traps, _)| *traps == 0));

        let mut sassi = Sassi::new();
        sassi.on_before(
            SiteFilter::ALL,
            InfoFlags::NONE,
            Box::new(FnHandler::free(|_| {})),
        );
        let inst = mb.build(Some(&sassi)).unwrap();
        let density = ModuleBuilder::instrumentation_density(&inst);
        let (_, traps, instrs) = density.iter().find(|(n, _, _)| n == "a").unwrap();
        assert!(*traps > 0, "every-site instrumentation must add traps");
        assert!(traps < instrs);
    }

    #[test]
    fn duplicate_kernel_names_fail_at_link() {
        let mut mb = ModuleBuilder::new();
        mb.add_kernel(trivial_kernel("a"));
        mb.add_kernel(trivial_kernel("a"));
        assert!(matches!(mb.build(None), Err(BuildError::Link(_))));
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use sassi_kir::KernelBuilder;

    #[test]
    fn handler_over_pred_budget_fails_to_build() {
        // A handler with 8 live predicates cannot compile; the pipeline
        // surfaces it as a BuildError::Compile naming the handler.
        let mut h = KernelBuilder::abi_function("hbad");
        let x = h.iconst(1);
        let ps: Vec<_> = (0..8u32).map(|k| h.setp_u32_lt(x, k)).collect();
        let mut acc = h.iconst(0);
        for p in &ps {
            let one = h.iconst(1);
            let zero = h.iconst(0);
            let v = h.sel(*p, one, zero);
            acc = h.iadd(acc, v);
        }
        let ptr = h.abi_param_ptr(0);
        h.st_generic_u32(ptr, 0, acc);
        h.ret();

        let mut mb = ModuleBuilder::new();
        let _ = mb.add_sass_handler(h.finish());
        let err = mb.build(None).unwrap_err();
        match err {
            BuildError::Compile(ref name, _) => assert_eq!(name, "hbad"),
            other => panic!("unexpected {other}"),
        }
        assert!(err.to_string().contains("hbad"));
    }

    #[test]
    fn handlers_compile_under_16_register_cap() {
        // The handler compiler must apply -maxrregcount=16: a handler
        // with high register pressure compiles WITH spill code.
        let mut h = KernelBuilder::abi_function("hfat");
        let ptr = h.abi_param_ptr(0);
        let vals: Vec<_> = (0..18u32)
            .map(|k| {
                let base = h.ld_generic_u32(ptr, 4 * k as i32);
                h.iadd(base, k)
            })
            .collect();
        let mut acc = h.iconst(0);
        for v in &vals {
            acc = h.iadd(acc, *v);
        }
        h.st_generic_u32(ptr, 0, acc);
        h.ret();
        let kf = h.finish();

        let capped = Compiler::new().max_regs(16).compile(&kf).unwrap();
        assert!(
            capped.instrs.iter().any(|i| i.class().is_spill_or_fill()),
            "16-register cap must force handler spills"
        );
        assert!(capped.meta.reg_high_water <= 16);
    }
}

#[cfg(test)]
mod handler_rules {
    use super::*;
    use sassi_kir::KernelBuilder;

    #[test]
    #[should_panic(expected = "uses a block barrier")]
    fn barriers_in_handlers_rejected() {
        let mut h = KernelBuilder::abi_function("hbar");
        h.bar_sync();
        h.ret();
        let mut mb = ModuleBuilder::new();
        let _ = mb.add_sass_handler(h.finish());
    }
}
