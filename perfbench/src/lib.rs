//! # perfbench — layer-attributed benchmark of the SASSI reproduction
//!
//! Drives the workspace crates through their public APIs only. One
//! invocation runs one workload ([`suite::Kind`]) as a closed loop with
//! one client: whole passes over its apps, in a fixed round-robin order,
//! until the time budget is spent.
//!
//! * [`end_to_end`] times untraced runs and reports what a user of the
//!   simulator sees: set-up time, throughput, latency percentiles and
//!   peak memory.
//! * [`per_layer`] alternates untraced passes with traced ones, which
//!   put spans around each layer ([`trace`]); it attributes host time to
//!   the layers and reports simulated counts and the tracing overhead.
//!
//! See `perfbench/README.md` for the metric table and how to run it.

#![forbid(unsafe_code)]

pub mod mirror;
pub mod suite;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use suite::{launch_floor, Counts, Kind, Options, RunResult, Suite};
use trace::{Attribution, Tracer};

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference host speed: end-to-end times are scaled to a host on
/// which [`Reference::time_ms`] takes this long (a 2-core Xeon VM at its
/// uncontended speed).
pub const REF_NOMINAL_MS: f64 = 3.0;

/// Instructions of the reference program, and steps one timing runs.
const REF_PROGRAM_LEN: usize = 4096;
const REF_STEPS: usize = 1_000_000;

/// Words of the reference machine's memory (256 KiB).
const REF_MEMORY_WORDS: u64 = 1 << 15;

/// Words of the reference walk's table (4 MiB), and steps of one walk.
const WALK_WORDS: u64 = 1 << 19;
const WALK_STEPS: usize = 300_000;

/// A fixed workload that shares no code with the simulator, one copy per
/// thread the workload runs on (its shard workers). A copy has two
/// parts, and its time is their geometric mean:
/// * a toy bytecode interpreter (16 registers, 8 opcodes, data-dependent
///   jumps) running a fixed pseudo-random program over a 256 KiB memory,
///   whose dispatch loop stresses a core the way the simulator's
///   interpreter does;
/// * a random read/write walk over a 4 MiB table, which stresses the
///   caches and memory the way set-up and device creation do.
///
/// Everything is allocated and written once, up front, and each timing
/// starts from the same memory image, so every timing does the same work,
/// whatever heap state the simulator's runs leave behind.
///
/// On a shared host the speed of a core drifts by up to 1.6x over tens
/// of seconds, for this loop and the simulator alike. The benchmark
/// times the reference around every set-up and every run, and scales
/// each by `REF_NOMINAL_MS` over the mean of its two reference times.
/// That cancels the drift but not a change in the simulator. Timing it
/// between every two runs also means every run starts from the same
/// cache state, whichever app ran before it.
pub struct Reference {
    /// `[opcode, a, b, c]` per instruction.
    program: Vec<[u8; 4]>,
    copies: Vec<RefMemory>,
}

/// The memory one copy of the reference works on.
struct RefMemory {
    machine: Vec<u64>,
    walk: Vec<u64>,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Reference {
    /// The program, and pre-faulted memories for each of `threads`
    /// threads.
    pub fn new(threads: usize) -> Reference {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let program = (0..REF_PROGRAM_LEN)
            .map(|_| {
                x = xorshift(x);
                let [op, a, b, c, ..] = x.to_le_bytes();
                [op % 8, a % 16, b % 16, c % 16]
            })
            .collect();
        let copies = (0..threads.max(1))
            .map(|_| RefMemory {
                machine: (0..REF_MEMORY_WORDS).collect(),
                walk: (0..WALK_WORDS).collect(),
            })
            .collect();
        Reference { program, copies }
    }

    /// Runs every copy at once and returns the slowest copy's time, in
    /// ms.
    pub fn time_ms(&mut self) -> f64 {
        let program = &self.program;
        let copy_ms = |m: &mut RefMemory| {
            (interpreter_ms(program, &mut m.machine) * walk_ms(&mut m.walk)).sqrt()
        };
        if let [m] = self.copies.as_mut_slice() {
            return copy_ms(m);
        }
        std::thread::scope(|s| {
            let copies: Vec<_> = self
                .copies
                .iter_mut()
                .map(|m| s.spawn(move || copy_ms(m)))
                .collect();
            copies
                .into_iter()
                .map(|c| c.join().expect("reference loop does not panic"))
                .fold(0.0, f64::max)
        })
    }
}

fn interpreter_ms(program: &[[u8; 4]], memory: &mut [u64]) -> f64 {
    for (i, w) in memory.iter_mut().enumerate() {
        *w = i as u64;
    }
    let t = Instant::now();
    let mask = memory.len() - 1;
    let mut r = [1u64; 16];
    let mut pc = 0;
    for _ in 0..REF_STEPS {
        let [op, a, b, c] = program[pc].map(usize::from);
        pc += 1;
        match op {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b].wrapping_mul(r[c] | 1),
            2 => r[a] = r[b] ^ (r[c] >> 3),
            3 => r[a] = memory[r[b] as usize & mask],
            4 => memory[r[b] as usize & mask] = r[c],
            5 => r[a] = r[b].rotate_left(c as u32),
            6 if r[b] & 1 == 0 => pc = r[c] as usize % program.len(),
            6 => {}
            _ => r[a] = r[b].wrapping_sub(r[c]),
        }
        if pc == program.len() {
            pc = 0;
        }
    }
    std::hint::black_box(r);
    t.elapsed().as_secs_f64() * 1e3
}

fn walk_ms(table: &mut [u64]) -> f64 {
    for (i, w) in table.iter_mut().enumerate() {
        *w = i as u64;
    }
    let t = Instant::now();
    let mask = table.len() - 1;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for _ in 0..WALK_STEPS {
        x = xorshift(x);
        let i = x as usize & mask;
        acc = acc.wrapping_add(table[i]).rotate_left(5) ^ x;
        if acc & 3 == 0 {
            table[i] = acc;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// `REF_NOMINAL_MS` over the mean of two reference times.
fn scale(before: f64, after: f64) -> f64 {
    2.0 * REF_NOMINAL_MS / (before + after)
}

/// The outcome of a closed-loop window of whole passes.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Per-run latency, in run order.
    pub lat_ms: Vec<f64>,
    /// [`Reference::time_ms`] before the first run and after each: run
    /// `i` lies between `ref_ms[i]` and `ref_ms[i + 1]`.
    pub ref_ms: Vec<f64>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked, produced wrong output, or whose digest
    /// differed from an earlier repeat of the same task.
    pub failed: u64,
    /// Each task's digest, from its first completed run.
    digests: Vec<Option<u64>>,
}

impl Window {
    /// Runs one pass over `suite`'s tasks, timing the reference after
    /// each run. Each run is isolated with `catch_unwind`: a panic counts
    /// as a failed run and the pass goes on. A run whose digest differs
    /// from an earlier run of the same task also fails.
    pub fn pass(
        &mut self,
        suite: &Suite,
        reference: &mut Reference,
        mut run: impl FnMut(usize) -> RunResult,
    ) {
        self.digests.resize(suite.len(), None);
        if self.ref_ms.is_empty() {
            self.ref_ms.push(reference.time_ms());
        }
        for (i, slot) in self.digests.iter_mut().enumerate() {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| run(i)));
            self.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.ref_ms.push(reference.time_ms());
            self.attempted += 1;
            let good = match r {
                Ok(r) => r.ok && *slot.get_or_insert(r.digest) == r.digest,
                Err(_) => false,
            };
            if !good {
                self.failed += 1;
            }
        }
    }

    /// Whole passes completed.
    pub fn passes(&self) -> usize {
        self.lat_ms.len() / self.digests.len().max(1)
    }

    /// Total run time, in s.
    pub fn wall_s(&self) -> f64 {
        self.lat_ms.iter().sum::<f64>() / 1e3
    }

    /// Run latencies scaled to the reference host speed, in run order.
    pub fn scaled_lat_ms(&self) -> Vec<f64> {
        self.lat_ms
            .iter()
            .zip(self.ref_ms.windows(2))
            .map(|(l, r)| l * scale(r[0], r[1]))
            .collect()
    }

    /// Runs per second of each pass, from `lat_ms` (e.g. scaled).
    pub fn pass_rates(&self, lat_ms: &[f64]) -> Vec<f64> {
        let n = self.digests.len().max(1);
        lat_ms
            .chunks_exact(n)
            .map(|c| n as f64 * 1e3 / c.iter().sum::<f64>())
            .collect()
    }

    /// Digest of one pass, over tasks in seed-independent order; `None`
    /// if some task never completed.
    pub fn digest(&self, suite: &Suite) -> Option<u64> {
        let mut keyed: Vec<(String, Option<u64>)> = self
            .digests
            .iter()
            .enumerate()
            .map(|(i, d)| (suite.key(i), *d))
            .collect();
        keyed.sort();
        let text = keyed
            .iter()
            .map(|(k, d)| d.map(|d| format!("{k}={d:016x};")))
            .collect::<Option<String>>()?;
        Some(suite::fnv(text.as_bytes()))
    }
}

/// One metric of a report.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one benchmark invocation prints.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output was correct and every digest repeated.
    pub correct: bool,
    /// Runs attempted in the measured window(s).
    pub attempted: u64,
    /// Runs failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn setup(kind: Kind, opts: &Options) -> Result<Suite, String> {
    catch_unwind(AssertUnwindSafe(|| Suite::setup(kind, opts)))
        .unwrap_or_else(|_| Err("set-up panicked".to_string()))
}

fn digest_note(kind: Kind, label: &str, digest: Option<u64>) -> String {
    match digest {
        Some(d) => format!("digest {} {label} {d:016x}", kind.name()),
        None => format!("digest {} {label} incomplete", kind.name()),
    }
}

/// Times untraced runs: `setup_reps` set-ups (the median is `setup_s`),
/// then whole passes for `seconds`. Times are scaled to the reference
/// host speed ([`Reference`]); the unscaled figures are printed in the
/// notes.
///
/// # Errors
///
/// A failed set-up.
pub fn end_to_end(
    kind: Kind,
    opts: &Options,
    seconds: f64,
    setup_reps: usize,
) -> Result<Report, String> {
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    let mut suite = None;
    let mut reference = Reference::new(kind.jobs());
    for _ in 0..setup_reps.max(1) {
        drop(suite.take());
        let before = reference.time_ms();
        let t = Instant::now();
        suite = Some(setup(kind, opts)?);
        let s = t.elapsed().as_secs_f64();
        setup_raw.push(s);
        setup_s.push(s * scale(before, reference.time_ms()));
    }
    let suite = suite.expect("at least one set-up");
    let mut w = Window::default();
    let start = Instant::now();
    while w.passes() == 0 || start.elapsed().as_secs_f64() < seconds {
        w.pass(&suite, &mut reference, |i| suite.run_untraced(i));
    }
    let scaled = w.scaled_lat_ms();
    let rates = w.pass_rates(&scaled);
    let raw_rates = w.pass_rates(&w.lat_ms);
    let mut sorted = scaled;
    sorted.sort_by(f64::total_cmp);
    let mut raw = w.lat_ms.clone();
    raw.sort_by(f64::total_cmp);
    let p90 = percentile(&sorted, 0.9);
    let beyond = sorted.iter().filter(|&&v| v > p90).count();
    let digest = w.digest(&suite);

    let mut r = Report {
        correct: w.failed == 0 && digest.is_some(),
        attempted: w.attempted,
        failed: w.failed,
        ..Report::default()
    };
    r.push("setup_s", median(&setup_s), "s");
    r.push("runs_per_s", median(&rates), "1/s");
    r.push("run_ms_p50", percentile(&sorted, 0.5), "ms");
    r.push("run_ms_p90", p90, "ms");
    r.push("peak_rss_mb", peak_rss_mb(), "MiB");
    r.notes.push(format!(
        "{}: {} runs in {} passes over {:.2} s; p90 has {beyond} samples beyond it; \
         failed_frac {:.4}",
        kind.name(),
        w.attempted,
        w.passes(),
        w.wall_s(),
        w.failed as f64 / w.attempted as f64
    ));
    r.notes.push(format!(
        "unscaled: reference {:.3} ms (nominal {REF_NOMINAL_MS}), setup_s {:.4}, \
         runs_per_s {:.3}, run_ms_p50 {:.3}, run_ms_p90 {:.3}",
        median(&w.ref_ms),
        median(&setup_raw),
        median(&raw_rates),
        percentile(&raw, 0.5),
        percentile(&raw, 0.9)
    ));
    r.notes.push(format!(
        "set-ups (s, unscaled): {}",
        setup_raw
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    r.notes.push(digest_note(kind, "untraced", digest));
    Ok(r)
}

/// Alternates an untraced and a traced pass until `seconds` have
/// elapsed, and reports per-layer host time, simulated counts (means per
/// run) and the tracing overhead (traced against untraced pass time,
/// both scaled to the reference host speed). Per-layer times are
/// unscaled; `host.ref_ms` gives the reference time they were taken at.
/// Writes the spans to `trace_out` as JSON lines when given.
///
/// # Errors
///
/// A failed set-up, or a trace file that cannot be written.
pub fn per_layer(
    kind: Kind,
    opts: &Options,
    seconds: f64,
    trace_out: Option<&std::path::Path>,
) -> Result<Report, String> {
    let suite = setup(kind, opts)?;
    let tracer = Tracer::default();
    let mut counts = Counts::default();
    let mut reference = Reference::new(kind.jobs());
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let start = Instant::now();
    while plain.passes() == 0 || start.elapsed().as_secs_f64() < seconds {
        plain.pass(&suite, &mut reference, |i| suite.run_untraced(i));
        traced.pass(&suite, &mut reference, |i| {
            suite.run_traced(i, &tracer, &mut counts)
        });
    }
    let (floor_us, cold_us) = launch_floor(20, 5);

    let spans = tracer.spans();
    if let Some(path) = trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, trace::to_jsonl(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let a = Attribution::of(&spans);
    let runs = traced.attempted as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / runs;
    let per_run = |n: u64| n as f64 / runs;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let launch = a.layer("sim.launch");
    let handle = a.layer("core.handle");
    let c = &counts;
    let scaled_sum = |w: &Window| w.scaled_lat_ms().iter().sum::<f64>();
    let overhead = scaled_sum(&traced) / scaled_sum(&plain) - 1.0;
    let (plain_digest, traced_digest) = (plain.digest(&suite), traced.digest(&suite));
    let digests_match = plain_digest.is_some() && plain_digest == traced_digest;

    let mut r = Report {
        correct: plain.failed == 0 && traced.failed == 0 && digests_match,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        ..Report::default()
    };
    r.push("rt.build_ms", ms(a.layer("rt.build").total_ns), "ms");
    r.push("rt.host_ms", ms(a.layer("rt.execute").self_ns), "ms");
    r.push(
        "rt.transfer_mb",
        per_run(c.transfer_bytes) / f64::from(1 << 20),
        "MiB",
    );
    r.push("sim.device_ms", ms(a.layer("sim.device").total_ns), "ms");
    r.push("sim.launch_ms", ms(launch.total_ns), "ms");
    r.push("sim.interp_ms", ms(launch.self_ns), "ms");
    r.push("sim.first_launch_ms", ms(a.first_launch_ns), "ms");
    r.push("sim.launch_floor_us", floor_us, "us");
    r.push("sim.cold_launch_us", cold_us, "us");
    r.push("sim.launches", per_run(c.launches), "count");
    r.push("sim.warp_instrs", per_run(c.warp_instrs), "count");
    r.push("sim.warp_allocs", per_run(c.warp_allocs), "count");
    r.push("sim.shard_forks", per_run(c.shard_forks), "count");
    r.push("sim.issue.memory", per_run(c.issue.memory), "count");
    r.push("sim.issue.control", per_run(c.issue.control), "count");
    r.push("sim.issue.numeric", per_run(c.issue.numeric), "count");
    r.push("sim.issue.misc", per_run(c.issue.misc), "count");
    r.push(
        "sim.minstr_per_s",
        c.warp_instrs as f64 / (launch.self_ns as f64 / 1e9) / 1e6,
        "Minstr/s",
    );
    r.push(
        "sim.lane_util",
        ratio(c.thread_instrs, 32 * c.warp_instrs),
        "fraction",
    );
    r.push("sim.kcycles", per_run(c.cycles) / 1e3, "kcycles");
    r.push("sim.ipc", ratio(c.warp_instrs, c.cycles), "instr/cycle");
    r.push(
        "sim.handler_kcycles",
        per_run(c.handler_cycles) / 1e3,
        "kcycles",
    );
    r.push("mem.warp_accesses", per_run(c.mem.warp_accesses), "count");
    r.push(
        "mem.tx_per_access",
        ratio(c.mem.transactions, c.mem.warp_accesses),
        "tx/access",
    );
    let (l1, l2) = (&c.mem.l1, &c.mem.l2);
    r.push(
        "mem.l1_hit_rate",
        ratio(l1.hits, l1.hits + l1.misses),
        "fraction",
    );
    r.push(
        "mem.l2_hit_rate",
        ratio(l2.hits, l2.hits + l2.misses),
        "fraction",
    );
    r.push("mem.dram_tx", per_run(c.mem.dram_transactions), "count");
    r.push("core.trap_sites", per_run(c.trap_sites), "count");
    r.push("core.handler_calls", per_run(c.handler_calls), "count");
    r.push("core.handle_ms", ms(handle.total_ns), "ms");
    r.push(
        "core.ns_per_handle",
        ratio(handle.total_ns, c.handler_calls),
        "ns",
    );
    r.push(
        "core.trap_density",
        ratio(c.handler_calls, c.warp_instrs),
        "fraction",
    );
    r.push(
        "workloads.golden_ms",
        ms(a.layer("workloads.golden").total_ns),
        "ms",
    );
    r.push("studies.row_ms", ms(a.layer("studies.row").total_ns), "ms");
    r.push("inject.plan_ms", suite.plan_ns as f64 / 1e6, "ms");
    // Outcome tallies of one pass: every planned site once.
    let pass = |n: u64| n as f64 / traced.passes() as f64;
    for (name, n) in [
        "inject.masked",
        "inject.crash",
        "inject.hang",
        "inject.failure_symptom",
        "inject.sdc_stdout",
        "inject.sdc_output",
    ]
    .into_iter()
    .zip(c.outcomes)
    {
        r.push(name, pass(n), "count");
    }
    r.push("trace.run_ms", ms(a.layer("run").total_ns), "ms");
    r.push("trace.coverage_pct", a.coverage_pct(), "%");
    r.push("trace.overhead_pct", 100.0 * overhead, "%");
    r.push("host.ref_ms", median(&traced.ref_ms), "ms");

    r.notes.push(format!(
        "{}: untraced {} runs / {} passes in {:.2} s; traced {} runs / {} passes in {:.2} s; \
         {} spans",
        kind.name(),
        plain.attempted,
        plain.passes(),
        plain.wall_s(),
        traced.attempted,
        traced.passes(),
        traced.wall_s(),
        spans.len()
    ));
    r.notes.push(digest_note(kind, "untraced", plain_digest));
    r.notes.push(digest_note(kind, "traced", traced_digest));
    if !digests_match {
        r.notes
            .push("traced and untraced digests differ: the simulation changed".to_string());
    }
    Ok(r)
}
