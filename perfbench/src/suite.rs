//! The four workloads: their apps, their set-up, and one application
//! run, either untraced (through the public study entry points) or
//! traced (the same public pieces, driven with spans around each layer).

use crate::mirror;
use crate::trace::{hook_launches, HandleClock, Timed, Tracer};
use parking_lot::Mutex;
use sassi::Sassi;
use sassi_kir::KernelBuilder;
use sassi_mem::HierarchyStats;
use sassi_rt::{ModuleBuilder, Runtime};
use sassi_sim::{Device, IssueCounters, LaunchDims, NoHandlers};
use sassi_studies::inject::{self, InjectionSite, Outcome};
use sassi_studies::{branch, memdiv, value};
use sassi_workloads::{all_workloads, execute_with_jobs, RunFailure, Workload, WorkloadOutput};
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// `native`: compute-bound, scattered-memory and launch-heavy apps.
pub const NATIVE_APPS: [&str; 9] = [
    "sgemm (medium)",
    "tpacf (small)",
    "heartwall",
    "cutcp",
    "spmv (large)",
    "bfs",
    "miniFE (CSR)",
    "gaussian",
    "nw",
];

/// `profile_studies`: every app runs under all three profiling studies.
pub const STUDY_APPS: [&str; 5] = [
    "bfs (1M)",
    "spmv (large)",
    "hotspot",
    "mri-q",
    "streamcluster",
];

/// `inject_campaign`: Figure 10 apps whose injections take 50–250 ms.
pub const INJECT_APPS: [&str; 6] = ["nn", "backprop", "histo", "lud", "stencil", "srad_v1"];

/// Injection sites planned per app; one `inject_campaign` pass runs
/// each once. Sites are a prefix of the Figure 10 campaign's (a site
/// depends only on the campaign seed, the app and its index). Under
/// `FIG10_SEED` these 48 sites end 10.4% non-masked (6.3% crash, 4.2%
/// SDC), against 11.3% (5.7%, 5.7%) over the 900 sites of
/// `results/fig10.json` for these apps.
pub const SITES_PER_APP: usize = 8;

/// CTA shard workers per launch on `native_sharded`, capped at `nproc`.
pub const SHARD_WORKERS: usize = 2;

/// The committed study results (`table1.json`, `fig7.json`,
/// `table2.json`).
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results");

/// The expected digest of every `profile_studies` task, keyed by
/// [`Suite::key`].
pub const EXPECTED_STUDIES: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/expected/profile_studies.json");

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Uninstrumented runs, serial launches.
    Native,
    /// Uninstrumented runs, each launch's CTAs on shard workers.
    NativeSharded,
    /// Case-study rows from `branch::run`, `memdiv::run`, `value::run`.
    ProfileStudies,
    /// One `inject::run_one` per run.
    InjectCampaign,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] = [
        Kind::Native,
        Kind::NativeSharded,
        Kind::ProfileStudies,
        Kind::InjectCampaign,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Native => "native",
            Kind::NativeSharded => "native_sharded",
            Kind::ProfileStudies => "profile_studies",
            Kind::InjectCampaign => "inject_campaign",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// CTA shard workers per launch.
    pub fn jobs(self) -> usize {
        match self {
            Kind::NativeSharded => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                SHARD_WORKERS.min(cores)
            }
            _ => 1,
        }
    }

    /// The workload's apps, in round-robin order.
    pub fn apps(self) -> &'static [&'static str] {
        match self {
            Kind::Native | Kind::NativeSharded => &NATIVE_APPS,
            Kind::ProfileStudies => &STUDY_APPS,
            Kind::InjectCampaign => &INJECT_APPS,
        }
    }
}

/// Benchmark settings.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Rotates the round-robin start, so each seed runs the apps in a
    /// different (fixed) order.
    pub seed: u64,
    /// Seed of the injection campaign plan.
    pub campaign_seed: u64,
}

/// A case study of `profile_studies`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Study {
    /// Case Study I (Table 1).
    Branch,
    /// Case Study II (Figure 7).
    MemDiv,
    /// Case Study III (Table 2).
    Value,
}

impl Study {
    const ALL: [Study; 3] = [Study::Branch, Study::MemDiv, Study::Value];

    fn name(self) -> &'static str {
        match self {
            Study::Branch => "branch",
            Study::MemDiv => "memdiv",
            Study::Value => "value",
        }
    }

    /// The committed results file holding this study's rows.
    fn results_file(self) -> &'static str {
        match self {
            Study::Branch => "table1.json",
            Study::MemDiv => "fig7.json",
            Study::Value => "table2.json",
        }
    }
}

enum Task {
    Native {
        app: usize,
        golden: WorkloadOutput,
    },
    Study {
        app: usize,
        study: Study,
        /// The row the committed results file holds, if it holds the app.
        committed: Option<Value>,
        /// The digest from [`EXPECTED_STUDIES`]; a task without one fails.
        expected: Option<u64>,
    },
    Inject {
        app: usize,
        index: usize,
        site: InjectionSite,
        watchdog: u64,
    },
}

impl Task {
    fn app(&self) -> usize {
        match self {
            Task::Native { app, .. } | Task::Study { app, .. } | Task::Inject { app, .. } => *app,
        }
    }
}

/// What one application run produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The output was correct: golden output on `native*`, the expected
    /// digest and any committed row on `profile_studies`; always true for
    /// an injection, whose outcome is the measurement.
    pub ok: bool,
    /// Digest of the run's simulated results.
    pub digest: u64,
}

/// Simulated counts summed over traced runs.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Kernel launches.
    pub launches: u64,
    /// Warp-level instructions.
    pub warp_instrs: u64,
    /// Thread-level instructions.
    pub thread_instrs: u64,
    /// Kernel cycles.
    pub cycles: u64,
    /// Handler traps.
    pub handler_calls: u64,
    /// Cycles charged to handler bodies.
    pub handler_cycles: u64,
    /// Issue-class breakdown of `warp_instrs`.
    pub issue: IssueCounters,
    /// Memory-hierarchy counters.
    pub mem: HierarchyStats,
    /// Fresh warp-context allocations.
    pub warp_allocs: u64,
    /// Host↔device bytes copied.
    pub transfer_bytes: u64,
    /// Trap sites in the built modules.
    pub trap_sites: u64,
    /// Shard runtimes forked through the timing wrapper.
    pub shard_forks: u64,
    /// Injection outcomes, in `Outcome::all()` order.
    pub outcomes: [u64; 6],
}

/// A set-up workload: its apps, goldens or plans, and the task list of
/// one pass.
pub struct Suite {
    jobs: usize,
    apps: Vec<Box<dyn Workload>>,
    tasks: Vec<Task>,
    /// Host time `inject::plan_campaign` took over all apps.
    pub plan_ns: u64,
}

/// FNV-1a, the digest hash.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Launch counters that `ExecutionReport` and `Runtime::records` both
/// expose, plus the output; identical for a traced and untraced run.
fn native_digest(output: &Result<WorkloadOutput, RunFailure>, sums: [u64; 5]) -> u64 {
    let out = match output {
        Ok(o) => o.summary.clone(),
        Err(e) => e.to_string(),
    };
    fnv(format!("{sums:?}{out}").as_bytes())
}

fn read_json(path: &std::path::Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn expected_digest(file: &Value, key: &str) -> Option<u64> {
    let Value::Map(entries) = file else {
        return None;
    };
    entries.iter().find_map(|(k, v)| match v {
        Value::Str(hex) if k == key => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    })
}

/// A study run is correct when its digest is the expected one and its
/// row equals the committed row, where the results file holds the app.
fn study_ok(committed: &Option<Value>, expected: Option<u64>, row: &Value, digest: u64) -> bool {
    expected == Some(digest) && committed.as_ref().is_none_or(|c| c == row)
}

fn committed_row(file: &Value, name: &str) -> Option<Value> {
    let Value::Seq(rows) = file else { return None };
    rows.iter()
        .find(|row| match row {
            Value::Map(fields) => fields
                .iter()
                .any(|(k, v)| k == "name" && *v == Value::Str(name.to_string())),
            Value::Seq(items) => items.first() == Some(&Value::Str(name.to_string())),
            _ => false,
        })
        .cloned()
}

/// The row the committed results file holds for a study result, and the
/// full result's digest.
fn study_row<S: Serialize>(full: &S, row: Value) -> (Value, u64) {
    let text = serde_json::to_string(full).expect("study results serialize");
    (row, fnv(text.as_bytes()))
}

fn study_result_branch(s: &branch::BranchStudy) -> (Value, u64) {
    study_row(s, s.row.to_value())
}

fn study_result_memdiv(s: &memdiv::MemDivStudy) -> (Value, u64) {
    study_row(
        s,
        (s.name.clone(), s.pmf.clone(), s.fully_diverged).to_value(),
    )
}

fn study_result_value(s: &value::ValueRow) -> (Value, u64) {
    study_row(s, s.to_value())
}

fn outcome_index(o: Outcome) -> usize {
    Outcome::all()
        .iter()
        .position(|&k| k == o)
        .expect("outcome listed in Outcome::all")
}

impl Suite {
    /// Builds the workload: constructs its apps in seed-rotated order,
    /// computes goldens, loads committed rows or plans the injection
    /// campaign, and makes one untimed warm-up run.
    ///
    /// # Errors
    ///
    /// A missing app, results or expected-digest file.
    ///
    /// # Panics
    ///
    /// If the warm-up run panics. A warm-up run with a wrong result does
    /// not stop set-up: every timed run of that task fails as well.
    pub fn setup(kind: Kind, opts: &Options) -> Result<Suite, String> {
        let names = kind.apps();
        let mut pool = all_workloads();
        let start = (opts.seed % names.len() as u64) as usize;
        let mut apps = Vec::with_capacity(names.len());
        for k in 0..names.len() {
            let name = names[(start + k) % names.len()];
            let pos = pool
                .iter()
                .position(|w| w.name() == name)
                .ok_or_else(|| format!("unknown app `{name}`"))?;
            apps.push(pool.swap_remove(pos));
        }
        let mut tasks = Vec::new();
        let mut plan_ns = 0;
        match kind {
            Kind::Native | Kind::NativeSharded => {
                for (app, w) in apps.iter().enumerate() {
                    tasks.push(Task::Native {
                        app,
                        golden: w.golden(),
                    });
                }
            }
            Kind::ProfileStudies => {
                let mut files = Vec::new();
                for study in Study::ALL {
                    files.push(read_json(
                        &std::path::Path::new(RESULTS_DIR).join(study.results_file()),
                    )?);
                }
                let expected = read_json(std::path::Path::new(EXPECTED_STUDIES))?;
                for (app, w) in apps.iter().enumerate() {
                    for (study, file) in Study::ALL.into_iter().zip(&files) {
                        let key = format!("{}/{}", w.name(), study.name());
                        tasks.push(Task::Study {
                            app,
                            study,
                            committed: committed_row(file, &w.name()),
                            expected: expected_digest(&expected, &key),
                        });
                    }
                }
            }
            Kind::InjectCampaign => {
                let mut plans = Vec::new();
                for w in &apps {
                    let t = Instant::now();
                    plans.push(inject::plan_campaign(
                        w.as_ref(),
                        SITES_PER_APP,
                        opts.campaign_seed,
                    ));
                    plan_ns += t.elapsed().as_nanos() as u64;
                }
                for index in 0..SITES_PER_APP {
                    for (app, plan) in plans.iter().enumerate() {
                        tasks.push(Task::Inject {
                            app,
                            index,
                            site: plan.sites[index],
                            watchdog: plan.watchdog,
                        });
                    }
                }
            }
        }
        let suite = Suite {
            jobs: kind.jobs(),
            apps,
            tasks,
            plan_ns,
        };
        // Warm up on the first run of the unrotated order, so set-up
        // costs the same for every seed.
        let first = (names.len() - start) % names.len();
        let warm = (0..suite.len())
            .find(|&i| suite.tasks[i].app() == first)
            .expect("every app has a task");
        suite.run_untraced(warm);
        Ok(suite)
    }

    /// CTA shard workers per launch.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs in one pass.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether a pass is empty (never, for a set-up suite).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// A seed-independent name of task `i`, for canonical digests.
    pub fn key(&self, i: usize) -> String {
        match &self.tasks[i] {
            Task::Native { app, .. } => self.apps[*app].name(),
            Task::Study { app, study, .. } => {
                format!("{}/{}", self.apps[*app].name(), study.name())
            }
            Task::Inject { app, index, .. } => {
                format!("{}/site{index}", self.apps[*app].name())
            }
        }
    }

    /// Runs task `i` through the crates' public entry points, untraced.
    ///
    /// # Panics
    ///
    /// Whatever the entry point panics on (the caller isolates it).
    pub fn run_untraced(&self, i: usize) -> RunResult {
        match &self.tasks[i] {
            Task::Native { app, golden } => {
                let w = self.apps[*app].as_ref();
                let rep = execute_with_jobs(w, None, None, self.jobs);
                let sums = [
                    rep.launches,
                    rep.warp_instrs,
                    rep.thread_instrs,
                    rep.kernel_cycles,
                    rep.handler_calls,
                ];
                RunResult {
                    ok: rep.matches_golden(golden),
                    digest: native_digest(&rep.output, sums),
                }
            }
            Task::Study {
                app,
                study,
                committed,
                expected,
            } => {
                let w = self.apps[*app].as_ref();
                let (row, digest) = match study {
                    Study::Branch => study_result_branch(&branch::run(w)),
                    Study::MemDiv => study_result_memdiv(&memdiv::run(w)),
                    Study::Value => study_result_value(&value::run(w)),
                };
                RunResult {
                    ok: study_ok(committed, *expected, &row, digest),
                    digest,
                }
            }
            Task::Inject {
                app,
                site,
                watchdog,
                ..
            } => {
                let o = inject::run_one(self.apps[*app].as_ref(), *site, *watchdog);
                RunResult {
                    ok: true,
                    digest: fnv(o.label().as_bytes()),
                }
            }
        }
    }

    /// Runs task `i` with spans around each layer, adding its simulated
    /// counts to `counts`. Produces the same [`RunResult`] as
    /// [`Suite::run_untraced`].
    ///
    /// # Panics
    ///
    /// As [`Suite::run_untraced`]; the run's spans are closed first.
    pub fn run_traced(&self, i: usize, tr: &Tracer, counts: &mut Counts) -> RunResult {
        tr.run(|| self.traced_body(i, tr, counts))
    }

    fn traced_body(&self, i: usize, tr: &Tracer, counts: &mut Counts) -> RunResult {
        match &self.tasks[i] {
            Task::Native { app, golden } => {
                let w = self.apps[*app].as_ref();
                let (output, sums) = traced_execute(tr, w, None, None, self.jobs, counts);
                let ok = tr.span(
                    "workloads.golden",
                    || matches!(&output, Ok(o) if o == golden),
                );
                RunResult {
                    ok,
                    digest: native_digest(&output, sums),
                }
            }
            Task::Study {
                app,
                study,
                committed,
                expected,
            } => {
                let w = self.apps[*app].as_ref();
                let failed = RunResult {
                    ok: false,
                    digest: 0,
                };
                let (row, digest) = match study {
                    Study::Branch => {
                        let state = Arc::new(Mutex::new(branch::BranchState::default()));
                        let mut sassi = branch::instrumentor(state.clone());
                        let static_total =
                            tr.span("studies.row", || mirror::branch_static_total(w));
                        let (out, _) = traced_execute(tr, w, Some(&mut sassi), None, 1, counts);
                        if out.is_err() {
                            return failed;
                        }
                        tr.span("studies.row", || {
                            study_result_branch(&mirror::branch_study(
                                w.name(),
                                static_total,
                                &state.lock(),
                            ))
                        })
                    }
                    Study::MemDiv => {
                        let state = Arc::new(Mutex::new(memdiv::MemDivState::default()));
                        let mut sassi = memdiv::instrumentor(state.clone());
                        let (out, _) = traced_execute(tr, w, Some(&mut sassi), None, 1, counts);
                        if out.is_err() {
                            return failed;
                        }
                        tr.span("studies.row", || {
                            study_result_memdiv(&mirror::memdiv_study(w.name(), &state.lock()))
                        })
                    }
                    Study::Value => {
                        let state = Arc::new(Mutex::new(value::ValueState::default()));
                        let mut sassi = value::instrumentor(state.clone());
                        let (out, _) = traced_execute(tr, w, Some(&mut sassi), None, 1, counts);
                        if out.is_err() {
                            return failed;
                        }
                        tr.span("studies.row", || {
                            study_result_value(&mirror::value_row(w.name(), &state.lock()))
                        })
                    }
                };
                let ok = tr.span("studies.row", || {
                    study_ok(committed, *expected, &row, digest)
                });
                RunResult { ok, digest }
            }
            Task::Inject {
                app,
                site,
                watchdog,
                ..
            } => {
                let w = self.apps[*app].as_ref();
                let mut sassi = mirror::inject_instrumentor(*site);
                let (out, _) = traced_execute(tr, w, Some(&mut sassi), Some(*watchdog), 1, counts);
                let o = tr.span("workloads.golden", || mirror::classify(out, &w.golden()));
                counts.outcomes[outcome_index(o)] += 1;
                RunResult {
                    ok: true,
                    digest: fnv(o.label().as_bytes()),
                }
            }
        }
    }
}

/// `sassi_workloads::execute_with_opts` with spans: build, device
/// set-up, execute (launches hooked through CUPTI, handlers through
/// [`Timed`]) and device tear-down. Returns the output and the launch
/// counters of [`native_digest`].
fn traced_execute(
    tr: &Tracer,
    w: &dyn Workload,
    sassi: Option<&mut Sassi>,
    watchdog: Option<u64>,
    jobs: usize,
    counts: &mut Counts,
) -> (Result<WorkloadOutput, RunFailure>, [u64; 5]) {
    let built = tr.span("rt.build", || {
        let mut mb = ModuleBuilder::new();
        for k in w.kernels() {
            mb.add_kernel(k);
        }
        mb.build(sassi.as_deref())
    });
    let module = match built {
        Ok(m) => m,
        Err(e) => return (Err(RunFailure::Launch(e.to_string())), [0; 5]),
    };
    counts.trap_sites += ModuleBuilder::instrumentation_density(&module)
        .iter()
        .map(|(_, sites, _)| u64::from(*sites))
        .sum::<u64>();
    let mut rt = tr.span("sim.device", || {
        let mut rt = Runtime::new(Device::with_defaults());
        rt.set_cta_jobs(jobs);
        rt
    });
    if let Some(wd) = watchdog {
        rt.watchdog_cycles = wd;
    }
    let clock = Arc::new(HandleClock::default());
    hook_launches(&mut rt, tr, &clock);
    let output = tr.span("rt.execute", || match sassi {
        Some(s) => w.execute(&mut rt, &module, &mut Timed::new(s, clock.clone())),
        None => w.execute(
            &mut rt,
            &module,
            &mut Timed::new(&mut NoHandlers, clock.clone()),
        ),
    });
    let mut sums = [0u64; 5];
    for r in rt.records() {
        let s = &r.result.stats;
        sums[0] += 1;
        sums[1] += s.warp_instrs;
        sums[2] += s.thread_instrs;
        sums[3] += s.cycles;
        sums[4] += s.handler_calls;
        counts.handler_cycles += s.handler_cycles;
        counts.issue.merge(&s.issue);
        counts.mem.merge(&r.result.mem);
    }
    counts.launches += sums[0];
    counts.warp_instrs += sums[1];
    counts.thread_instrs += sums[2];
    counts.cycles += sums[3];
    counts.handler_calls += sums[4];
    counts.warp_allocs += rt.device.warp_allocations();
    counts.transfer_bytes += rt.clock.transfer_bytes;
    counts.shard_forks += clock.forks.load(Ordering::Relaxed);
    tr.span("sim.device", move || drop((rt, module)));
    (output, sums)
}

/// Host cost of an empty-ish launch: a one-store kernel over `num_sms`
/// CTAs. Returns the median warm relaunch and the median first launch
/// on a fresh device, in µs.
pub fn launch_floor(warm_reps: usize, cold_reps: usize) -> (f64, f64) {
    let mut b = KernelBuilder::kernel("store");
    let i = b.global_tid_x();
    let out = b.param_ptr(0);
    let e = b.lea(out, i, 2);
    b.st_global_u32(e, i);
    let mut mb = ModuleBuilder::new();
    mb.add_kernel(b.finish());
    let module = mb.build(None).expect("one-store kernel builds");
    let timed_launch = |rt: &mut Runtime| {
        let sms = rt.device.cfg.num_sms;
        let buf = rt.alloc_zeroed_u32(sms as usize * 32);
        let t = Instant::now();
        let res = rt
            .launch(
                &module,
                "store",
                LaunchDims::linear(sms, 32),
                &[buf.addr],
                &mut NoHandlers,
            )
            .expect("one-store kernel launches");
        assert!(res.is_ok(), "one-store kernel completes");
        t.elapsed().as_secs_f64() * 1e6
    };
    let cold: Vec<f64> = (0..cold_reps)
        .map(|_| timed_launch(&mut Runtime::with_defaults()))
        .collect();
    let mut rt = Runtime::with_defaults();
    timed_launch(&mut rt);
    let warm: Vec<f64> = (0..warm_reps).map(|_| timed_launch(&mut rt)).collect();
    (crate::median(&warm), crate::median(&cold))
}
