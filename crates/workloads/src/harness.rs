//! The workload abstraction and the execution harness that ties
//! compilation, instrumentation, launch and output checking together.

use sassi::Sassi;
use sassi_kir::KFunction;
use sassi_rt::{AppClock, ModuleBuilder, Runtime};
use sassi_sim::{
    Device, HandlerRuntime, KernelOutcome, LaunchDims, LaunchError, Module, NoHandlers,
};
use std::fmt;

/// What a run produced: the program's "output files" (device buffers
/// downloaded at the end) and its "stdout" (a printed summary such as a
/// checksum) — the two channels the error-injection study diffs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadOutput {
    /// Downloaded result buffers.
    pub buffers: Vec<Vec<u32>>,
    /// Host-printed summary: a checksum line per buffer, except that
    /// bfs prepends the number of rounds it ran.
    pub summary: String,
}

impl WorkloadOutput {
    /// The output of a run whose stdout is a checksum of each buffer,
    /// as real benchmarks print.
    pub fn new(buffers: Vec<Vec<u32>>) -> WorkloadOutput {
        let summary = summarize(&buffers);
        WorkloadOutput { buffers, summary }
    }
}

/// Why a workload run did not produce output.
#[derive(Clone, Debug, PartialEq)]
pub enum RunFailure {
    /// A kernel aborted (memory violation etc.) — the application
    /// crashes with an API error.
    Fault(sassi_sim::FaultInfo),
    /// A kernel exceeded the watchdog.
    Hang,
    /// Host-side launch failure.
    Launch(String),
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunFailure::Fault(i) => write!(f, "kernel fault: {i}"),
            RunFailure::Hang => write!(f, "kernel hang (watchdog)"),
            RunFailure::Launch(m) => write!(f, "launch error: {m}"),
        }
    }
}

impl From<LaunchError> for RunFailure {
    fn from(e: LaunchError) -> RunFailure {
        RunFailure::Launch(e.to_string())
    }
}

/// Launches `kernel` and fails the run when it does not complete: the
/// application aborts on the first failed kernel, as CUDA's sticky
/// error makes it.
///
/// # Errors
///
/// [`RunFailure`] when the kernel faults, hangs or cannot launch.
pub fn launch(
    rt: &mut Runtime,
    module: &Module,
    kernel: &str,
    dims: LaunchDims,
    params: &[u64],
    handlers: &mut dyn HandlerRuntime,
) -> Result<(), RunFailure> {
    match rt.launch(module, kernel, dims, params, handlers)?.outcome {
        KernelOutcome::Completed => Ok(()),
        KernelOutcome::Fault(i) => Err(RunFailure::Fault(i)),
        KernelOutcome::Hang => Err(RunFailure::Hang),
    }
}

/// A benchmark application: kernels plus the host driver that feeds
/// them data and collects results.
///
/// `Send` because the campaign engine hands boxed workloads to worker
/// threads; implementations hold only owned data.
pub trait Workload: Send {
    /// Display name, including the dataset (e.g. `bfs (NY)`).
    fn name(&self) -> String;

    /// The kernels to compile into the module.
    fn kernels(&self) -> Vec<KFunction>;

    /// Runs the application end to end: allocate and upload inputs,
    /// launch kernels (through `handlers` so instrumentation traps
    /// fire), download outputs.
    ///
    /// # Errors
    ///
    /// [`RunFailure`] when a kernel faults, hangs or cannot launch.
    fn execute(
        &self,
        rt: &mut Runtime,
        module: &Module,
        handlers: &mut dyn HandlerRuntime,
    ) -> Result<WorkloadOutput, RunFailure>;

    /// The golden output (host-computed reference).
    fn golden(&self) -> WorkloadOutput;
}

/// The result of one harness execution.
#[derive(Debug)]
pub struct ExecutionReport {
    /// Workload display name.
    pub name: String,
    /// Output, or how the run failed.
    pub output: Result<WorkloadOutput, RunFailure>,
    /// Whole-program clock.
    pub clock: AppClock,
    /// Total kernel cycles across launches.
    pub kernel_cycles: u64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Warp-level instructions across launches.
    pub warp_instrs: u64,
    /// Thread-level instructions across launches.
    pub thread_instrs: u64,
    /// Handler traps taken.
    pub handler_calls: u64,
}

impl ExecutionReport {
    /// Whether the run completed and matched the golden output.
    pub fn matches_golden(&self, golden: &WorkloadOutput) -> bool {
        matches!(&self.output, Ok(o) if o == golden)
    }
}

/// Builds the module for `w` (optionally instrumented by `sassi`) and
/// runs it on a fresh default device.
///
/// `watchdog` overrides the per-launch cycle budget (used by the
/// error-injection study for hang detection).
pub fn execute(
    w: &dyn Workload,
    sassi: Option<&mut Sassi>,
    watchdog: Option<u64>,
) -> ExecutionReport {
    execute_with_jobs(w, sassi, watchdog, 1)
}

/// As [`execute`], with `cta_jobs` worker threads executing the CTA
/// shards of each launch. Results are byte-identical for any job count
/// (the device merges shard results in canonical order).
pub fn execute_with_jobs(
    w: &dyn Workload,
    mut sassi: Option<&mut Sassi>,
    watchdog: Option<u64>,
    cta_jobs: usize,
) -> ExecutionReport {
    let mut mb = ModuleBuilder::new();
    for k in w.kernels() {
        mb.add_kernel(k);
    }
    let module = match mb.build(sassi.as_deref()) {
        Ok(m) => m,
        Err(e) => {
            return ExecutionReport {
                name: w.name(),
                output: Err(RunFailure::Launch(e.to_string())),
                clock: AppClock::new(),
                kernel_cycles: 0,
                launches: 0,
                warp_instrs: 0,
                thread_instrs: 0,
                handler_calls: 0,
            }
        }
    };
    let mut rt = Runtime::new(Device::with_defaults());
    rt.device.cta_jobs = cta_jobs.max(1);
    if let Some(wd) = watchdog {
        rt.watchdog_cycles = wd;
    }
    let output = match &mut sassi {
        Some(s) => w.execute(&mut rt, &module, *s),
        None => w.execute(&mut rt, &module, &mut NoHandlers),
    };
    let (mut wi, mut ti, mut hc) = (0, 0, 0);
    for r in rt.records() {
        wi += r.result.stats.warp_instrs;
        ti += r.result.stats.thread_instrs;
        hc += r.result.stats.handler_calls;
    }
    ExecutionReport {
        name: w.name(),
        output,
        clock: rt.clock,
        kernel_cycles: rt.total_kernel_cycles(),
        launches: rt.launch_count(),
        warp_instrs: wi,
        thread_instrs: ti,
        handler_calls: hc,
    }
}

/// Convenience: runs uninstrumented and asserts the golden output —
/// the self-check every workload's unit test calls.
pub fn verify_golden(w: &dyn Workload) -> ExecutionReport {
    let report = execute(w, None, None);
    let golden = w.golden();
    match &report.output {
        Ok(out) => assert_eq!(
            out,
            &golden,
            "{}: device output diverges from host golden",
            w.name()
        ),
        Err(e) => panic!("{}: run failed: {e}", w.name()),
    }
    report
}

/// Summarizes buffers into the "stdout" string: a short per-buffer
/// checksum.
fn summarize(buffers: &[Vec<u32>]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for (i, b) in buffers.iter().enumerate() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in b {
            h ^= v as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let _ = writeln!(s, "buffer{i}: n={} fnv={h:016x}", b.len());
    }
    s
}
