//! In-memory spans around the calls into each layer, the handler-runtime
//! timing wrapper, and the self-time attribution of a traced phase.
//!
//! Spans are recorded only from outside the simulator: around
//! `ModuleBuilder::build`, device set-up, `Workload::execute`, the golden
//! check and the study row, plus each launch (bracketed by the CUPTI
//! `on_kernel_launch` / `on_kernel_exit` callbacks). Handler calls are
//! far too frequent to keep one span each, so [`Timed`] sums their time
//! and the launch's exit callback records that sum as one `core.handle`
//! child span of the launch.

use sassi_rt::Runtime;
use sassi_sim::{HandlerCost, HandlerRuntime, RuntimeShard, TrapCtx, TrapRef, TrapSite};
use std::collections::BTreeMap;
use std::ops::DerefMut;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed interval of host time spent in a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`rt.build`, `sim.launch`, ...); `run` for the root
    /// span of one application run.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The application run this span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    open: Vec<u32>,
    runs: u32,
}

/// Records spans in memory; clones share one buffer.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    buf: Arc<Mutex<Buf>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            buf: Arc::default(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buf> {
        self.buf
            .lock()
            .expect("tracer buffer poisoned by a panicking run")
    }

    fn open(&self, name: &'static str, new_run: bool) -> u32 {
        let t = self.now();
        let mut b = self.lock();
        if new_run {
            b.runs += 1;
        }
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied();
        let run = b.runs;
        b.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            run,
        });
        b.open.push(id);
        id
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str) -> u32 {
        self.open(name, false)
    }

    /// Closes span `id`, and with it any span opened inside it that is
    /// still open (a launch whose exit callback never fired, or a run
    /// that panicked).
    pub fn end(&self, id: u32) {
        let t = self.now();
        let mut b = self.lock();
        while let Some(top) = b.open.pop() {
            b.spans[top as usize].end_ns = t;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` as one application run, under a new root span. The span
    /// is closed, with any span still open inside it, even when `f`
    /// panics; the panic then goes on to the caller.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        let id = self.open("run", true);
        let out = catch_unwind(AssertUnwindSafe(f));
        self.end(id);
        out.unwrap_or_else(|p| resume_unwind(p))
    }

    /// Records an already-measured `ns` of work as a closed child of
    /// span `parent`, starting where the parent started.
    pub fn child_total(&self, name: &'static str, parent: u32, ns: u64) {
        let mut b = self.lock();
        let p = b.spans[parent as usize];
        b.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + ns,
            parent: Some(parent),
            run: p.run,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Host time and call counts accumulated by [`Timed`] runtimes; shared
/// by a runtime and every shard forked from it.
#[derive(Debug, Default)]
pub struct HandleClock {
    /// Nanoseconds spent inside `HandlerRuntime::handle`.
    pub ns: AtomicU64,
    /// `handle` calls.
    pub calls: AtomicU64,
    /// Shard runtimes forked for CTA-parallel launches.
    pub forks: AtomicU64,
}

/// A handler runtime that times every `handle` call of the runtime it
/// wraps. `bind_sites` is delegated, and `fork_shard` wraps each forked
/// shard runtime, so CTA-parallel launches still fork and their traps
/// are timed too.
pub struct Timed<R> {
    inner: R,
    clock: Arc<HandleClock>,
}

impl<R> Timed<R> {
    /// Wraps `inner`, accumulating into `clock`.
    pub fn new(inner: R, clock: Arc<HandleClock>) -> Timed<R> {
        Timed { inner, clock }
    }
}

impl<R> HandlerRuntime for Timed<R>
where
    R: DerefMut,
    R::Target: HandlerRuntime,
{
    fn handle(&mut self, trap: TrapRef, ctx: &mut TrapCtx<'_>) -> HandlerCost {
        let t = Instant::now();
        let cost = self.inner.handle(trap, ctx);
        // Statistics only: no other data is published through these.
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        cost
    }

    fn bind_sites(&mut self, sites: &[TrapSite]) {
        self.inner.bind_sites(sites);
    }

    fn fork_shard(&self) -> Option<RuntimeShard> {
        let shard = self.inner.fork_shard()?;
        self.clock.forks.fetch_add(1, Ordering::Relaxed);
        Some(RuntimeShard {
            runtime: Box::new(Timed::new(shard.runtime, self.clock.clone())),
            join: shard.join,
        })
    }
}

/// Registers CUPTI callbacks on `rt` that bracket every launch in a
/// `sim.launch` span and attach the launch's handler time (read from
/// `clock`) as its `core.handle` child.
pub fn hook_launches(rt: &mut Runtime, tracer: &Tracer, clock: &Arc<HandleClock>) {
    // (open launch span id, handler ns at launch start)
    let open = Arc::new(Mutex::new((0u32, 0u64)));
    let (t, c, o) = (tracer.clone(), clock.clone(), open.clone());
    rt.cupti.on_kernel_launch(move |_, _| {
        let id = t.begin("sim.launch");
        *o.lock().expect("launch mark poisoned") = (id, c.ns.load(Ordering::Relaxed));
    });
    let (t, c) = (tracer.clone(), clock.clone());
    rt.cupti.on_kernel_exit(move |_, _, _| {
        let (id, ns0) = *open.lock().expect("launch mark poisoned");
        let ns = c.ns.load(Ordering::Relaxed) - ns0;
        if ns > 0 {
            t.child_total("core.handle", id, ns);
        }
        t.end(id);
    });
}

/// Total and self time of one layer over a traced phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Self-time attribution of a set of spans.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Per layer (span name), including the `run` root, whose self time
    /// is the part of each run no layer span covers.
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Sum over runs of the first launch's duration.
    pub first_launch_ns: u64,
}

impl Attribution {
    /// Attributes `spans`.
    pub fn of(spans: &[Span]) -> Attribution {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur();
            }
        }
        let mut a = Attribution::default();
        let mut last_run_with_launch = 0;
        for (s, cov) in spans.iter().zip(covered) {
            let l = a.layers.entry(s.name).or_default();
            l.total_ns += s.dur();
            l.self_ns += s.dur().saturating_sub(cov);
            if s.name == "sim.launch" && s.run != last_run_with_launch {
                last_run_with_launch = s.run;
                a.first_launch_ns += s.dur();
            }
        }
        a
    }

    /// The layer `name` (zero if it never appeared).
    pub fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Share of run wall time covered by layer self times, in percent.
    pub fn coverage_pct(&self) -> f64 {
        let run = self.layer("run");
        if run.total_ns == 0 {
            return 0.0;
        }
        100.0 * (run.total_ns - run.self_ns) as f64 / run.total_ns as f64
    }
}

/// Renders spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `run`).
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.run
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                run: 1,
            },
            Span {
                name: "rt.execute",
                start_ns: 10,
                end_ns: 90,
                parent: Some(0),
                run: 1,
            },
            Span {
                name: "sim.launch",
                start_ns: 20,
                end_ns: 80,
                parent: Some(1),
                run: 1,
            },
            Span {
                name: "core.handle",
                start_ns: 20,
                end_ns: 30,
                parent: Some(2),
                run: 1,
            },
        ];
        let a = Attribution::of(&spans);
        assert_eq!(a.layer("run").self_ns, 20);
        assert_eq!(a.layer("rt.execute").self_ns, 20);
        assert_eq!(a.layer("sim.launch").self_ns, 50);
        assert_eq!(a.layer("core.handle").self_ns, 10);
        assert_eq!(a.first_launch_ns, 60);
        assert!((a.coverage_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn a_panicking_run_closes_its_spans() {
        let t = Tracer::default();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            t.run(|| {
                // A launch whose exit callback never fires.
                t.begin("sim.launch");
                panic!("launch failed");
            })
        }));
        assert!(panicked.is_err());
        t.run(|| t.span("rt.build", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[1].parent, Some(0));
        // The next run is a new root, not a child of the panicked one.
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2));
    }
}
