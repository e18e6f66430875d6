//! Case Study IV: error injection (paper §8; regenerates Figure 10).
//!
//! Three steps, as in the paper: (1) a profiling pass counts the
//! architecture-level injection space — dynamic executions of
//! instructions that write a GPR, predicate or CC and are not
//! predicated off; (2) sites are selected uniformly at random from that
//! space; (3) each injection run flips one random bit in one randomly
//! chosen destination of the selected dynamic instruction, then the
//! application runs to completion while we watch for crashes, hangs and
//! output corruption against the golden output.
//!
//! Unlike the CUDA-GDB approach the paper compares against, predicate
//! and CC destinations are injectable — the handler rewrites them
//! through the trap context.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sassi::{Handler, HandlerCost, InfoFlags, Sassi, SiteCtx, SiteFilter};
use sassi_isa::Gpr;
use sassi_workloads::{execute, RunFailure, Workload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

fn injection_filter() -> SiteFilter {
    SiteFilter::REG_WRITES | SiteFilter::PRED_WRITES
}

// ---------------------------------------------------------- profiling --

/// Profile of the injection space.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct InjectionSpace {
    /// Candidate (thread-level) executions per kernel launch.
    pub per_launch: Vec<u64>,
}

impl InjectionSpace {
    /// Total candidate executions.
    pub fn total(&self) -> u64 {
        self.per_launch.iter().sum()
    }
}

struct ProfileHandler {
    state: Arc<Mutex<InjectionSpace>>,
}

impl Handler for ProfileHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        // An unreadable parameter object records a fault that ends the
        // launch; nothing is counted.
        let executing = ctx
            .warp_params()
            .will_execute(ctx.trap)
            .map_or(0, |exec| u64::from(exec.count_ones()));
        if executing > 0 {
            let li = ctx.trap.launch_index as usize;
            let mut st = self.state.lock();
            if st.per_launch.len() <= li {
                st.per_launch.resize(li + 1, 0);
            }
            st.per_launch[li] += executing;
        }
        HandlerCost {
            instructions: 8,
            memory_ops: 0,
            atomics: 1,
        }
    }
}

/// The profiling pass's instrumentor: after every injection
/// candidate, count the executing lanes into `state`.
pub(crate) fn profile_instrumentor(state: Arc<Mutex<InjectionSpace>>) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.on_after(
        injection_filter(),
        InfoFlags::REGISTERS,
        Box::new(ProfileHandler { state }),
    );
    sassi
}

/// Runs the profiling pass; also returns the instrumented run's total
/// kernel cycles (used to scale the hang watchdog).
pub fn profile(w: &dyn Workload) -> (InjectionSpace, u64) {
    let state = Arc::new(Mutex::new(InjectionSpace::default()));
    let mut sassi = profile_instrumentor(state.clone());
    let report = execute(w, Some(&mut sassi), None);
    assert!(report.output.is_ok(), "{}: profile run failed", w.name());
    let space = state.lock().clone();
    (space, report.kernel_cycles)
}

// ----------------------------------------------------------- injection --

/// One selected injection site.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct InjectionSite {
    /// Kernel launch index.
    pub launch: u64,
    /// Candidate execution index within the launch.
    pub nth: u64,
    /// Seed choosing the destination and bit.
    pub seed: u64,
}

/// Derives the seed for site `site_index` of a campaign.
///
/// The seed is a pure function of `(campaign_seed, workload,
/// site_index)` — FNV-1a over the three components, a hash that is
/// stable across platforms and releases (unlike `DefaultHasher`).
/// Because no generator state is threaded between sites, site `k` is
/// identical whether sites are drawn serially, in parallel, or alone.
pub fn site_seed(campaign_seed: u64, workload: &str, site_index: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in campaign_seed
        .to_le_bytes()
        .iter()
        .chain(workload.as_bytes())
        .chain(&site_index.to_le_bytes())
    {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Selects `count` sites uniformly from the profiled space.
///
/// Each site is drawn from its own generator seeded by
/// [`site_seed`], so the selection is order-independent: the engine
/// can dispatch injections across workers in any order and still
/// reproduce the exact site list of a serial run.
pub fn select_sites(
    space: &InjectionSpace,
    count: usize,
    seed: u64,
    workload: &str,
) -> Vec<InjectionSite> {
    let total = space.total();
    assert!(total > 0, "empty injection space");
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(site_seed(seed, workload, i as u64));
            let mut pick = rng.gen_range(0..total);
            let mut launch = 0u64;
            for (li, &c) in space.per_launch.iter().enumerate() {
                if pick < c {
                    launch = li as u64;
                    break;
                }
                pick -= c;
            }
            InjectionSite {
                launch,
                nth: pick,
                seed: rng.gen(),
            }
        })
        .collect()
}

struct InjectHandler {
    site: InjectionSite,
    counter: u64,
    done: bool,
}

impl Handler for InjectHandler {
    fn handle(&mut self, ctx: &mut SiteCtx<'_, '_>) -> HandlerCost {
        let cost = HandlerCost {
            instructions: 8,
            memory_ops: 0,
            atomics: 0,
        };
        if self.done || ctx.trap.launch_index != self.site.launch {
            return cost;
        }
        // An unreadable parameter object records a fault that ends the
        // launch; nothing is injected.
        let Ok(exec) = ctx.warp_params().will_execute(ctx.trap) else {
            return cost;
        };
        let n = u64::from(exec.count_ones());
        if self.counter + n <= self.site.nth {
            self.counter += n;
            return cost;
        }
        // The selected dynamic execution is one of this warp's lanes:
        // the (nth - counter)'th set bit, in ascending lane order.
        let lane = sassi_isa::lanes(exec)
            .nth((self.site.nth - self.counter) as usize)
            .expect("selected execution index within executing mask");
        self.counter += n;
        self.done = true;

        let mut rng = StdRng::seed_from_u64(self.site.seed);
        let rp = sassi::RegisterParamsView::new(ctx.trap, lane);
        let ngpr = rp.num_dsts(ctx.trap);
        let pred_mask = rp.pred_dst_mask(ctx.trap);
        let writes_cc = rp.writes_cc(ctx.trap);

        // Enumerate destinations: GPRs, predicates, CC. At most 4 GPR
        // dsts + 7 predicates + CC, so a stack array holds all of them
        // (content and order match the old Vec exactly — the RNG draw
        // below must stay byte-identical).
        let mut kinds = [0u32; 12];
        let mut nk = 0usize;
        for g in 0..ngpr {
            kinds[nk] = g;
            nk += 1;
        }
        let npred = pred_mask.count_ones();
        for p in 0..npred {
            kinds[nk] = 100 + p;
            nk += 1;
        }
        if writes_cc {
            kinds[nk] = 200;
            nk += 1;
        }
        if nk == 0 {
            return cost;
        }
        let choice = kinds[rng.gen_range(0..nk)];
        if choice < 100 {
            // Flip one random bit of a 32-bit GPR destination.
            let reg = rp.reg_num(ctx.trap, choice) as u8;
            let bit: u32 = rng.gen_range(0..32);
            let old = ctx.trap.reg(lane, Gpr::new(reg));
            ctx.trap.set_reg(lane, Gpr::new(reg), old ^ (1 << bit));
        } else if choice < 200 {
            // Flip the written predicate bit.
            let idx = choice - 100;
            let mut seen = 0;
            let mut target = 0u8;
            for p in 0..7u8 {
                if pred_mask & (1 << p) != 0 {
                    if seen == idx {
                        target = p;
                        break;
                    }
                    seen += 1;
                }
            }
            let p = sassi_isa::PredReg::new(target);
            let old = ctx.trap.pred(lane, p);
            ctx.trap.set_pred(lane, p, !old);
        } else {
            let old = ctx.trap.cc(lane);
            ctx.trap.set_cc(lane, !old);
        }
        cost
    }
}

// ------------------------------------------------------------ outcomes --

/// Figure 10's outcome categories.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Outcome {
    /// No observable effect: outputs and stdout match the golden run.
    Masked,
    /// The application crashed (invalid control transfer, call-stack
    /// corruption, or an illegal global access aborting the process).
    Crash,
    /// Watchdog expiry.
    Hang,
    /// The kernel failed in a way the runtime reports (local/shared
    /// violations surfacing as unsuccessful kernel execution).
    FailureSymptom,
    /// Output buffers match but the printed summary differs
    /// ("stdout only different").
    SdcStdoutOnly,
    /// Output buffers differ ("output file different").
    SdcOutputFile,
}

impl Outcome {
    /// All categories in Figure 10's legend order.
    pub fn all() -> [Outcome; 6] {
        [
            Outcome::Masked,
            Outcome::Crash,
            Outcome::Hang,
            Outcome::FailureSymptom,
            Outcome::SdcStdoutOnly,
            Outcome::SdcOutputFile,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Masked => "Masked",
            Outcome::Crash => "Crashes",
            Outcome::Hang => "Hangs",
            Outcome::FailureSymptom => "Failure symptoms",
            Outcome::SdcStdoutOnly => "Stdout only different",
            Outcome::SdcOutputFile => "Output file different",
        }
    }
}

/// Distribution of outcomes for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InjectionCampaign {
    /// Workload label.
    pub name: String,
    /// Runs per category.
    pub counts: Vec<(Outcome, u64)>,
    /// Total runs.
    pub runs: u64,
}

impl InjectionCampaign {
    /// Fraction of runs in `o`.
    pub fn fraction(&self, o: Outcome) -> f64 {
        let c = self
            .counts
            .iter()
            .find(|(k, _)| *k == o)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        if self.runs == 0 {
            0.0
        } else {
            c as f64 / self.runs as f64
        }
    }
}

/// The instrumentor of one injection run: after every injection
/// candidate, count executions and inject at `site`.
pub(crate) fn injector(site: InjectionSite) -> Sassi {
    let mut sassi = Sassi::new();
    sassi.on_after(
        injection_filter(),
        InfoFlags::REGISTERS,
        Box::new(InjectHandler {
            site,
            counter: 0,
            done: false,
        }),
    );
    sassi
}

/// Runs one injection and categorizes the outcome.
pub fn run_one(w: &dyn Workload, site: InjectionSite, watchdog: u64) -> Outcome {
    let mut sassi = injector(site);
    let report = execute(w, Some(&mut sassi), Some(watchdog));
    match report.output {
        Err(RunFailure::Hang) => Outcome::Hang,
        Err(RunFailure::Fault(f)) => match f.kind {
            sassi_sim::FaultKind::StackViolation { .. }
            | sassi_sim::FaultKind::SharedViolation { .. } => Outcome::FailureSymptom,
            _ => Outcome::Crash,
        },
        Err(RunFailure::Launch(_)) => Outcome::Crash,
        Ok(out) => {
            let golden = w.golden();
            if out.buffers != golden.buffers {
                Outcome::SdcOutputFile
            } else if out.summary != golden.summary {
                Outcome::SdcStdoutOnly
            } else {
                Outcome::Masked
            }
        }
    }
}

/// The precomputed, dispatch-order-independent part of a campaign:
/// every injection site plus the hang watchdog, fixed before any
/// injection runs. Parallel engines fan the sites out and tally the
/// outcomes back in site order.
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    /// Hang watchdog in cycles, scaled from the profiled run.
    pub watchdog: u64,
    /// All selected sites, in canonical (site-index) order.
    pub sites: Vec<InjectionSite>,
}

/// Profiles `w` and precomputes all `runs` injection sites.
pub fn plan_campaign(w: &dyn Workload, runs: usize, seed: u64) -> CampaignPlan {
    let (space, instr_cycles) = profile(w);
    let watchdog = instr_cycles * 4 + 2_000_000;
    let sites = select_sites(&space, runs, seed, &w.name());
    CampaignPlan { watchdog, sites }
}

/// Folds per-site outcomes into Figure 10's category counts.
pub fn tally(name: String, outcomes: &[Outcome]) -> InjectionCampaign {
    let mut counts: std::collections::HashMap<Outcome, u64> = Default::default();
    for &o in outcomes {
        *counts.entry(o).or_default() += 1;
    }
    InjectionCampaign {
        name,
        counts: Outcome::all()
            .iter()
            .map(|&o| (o, counts.get(&o).copied().unwrap_or(0)))
            .collect(),
        runs: outcomes.len() as u64,
    }
}

/// Runs a full campaign serially: profile, select `runs` sites, inject
/// each. The parallel engine produces bit-identical results by running
/// [`plan_campaign`] + [`run_one`] per site + [`tally`].
pub fn run_campaign(w: &dyn Workload, runs: usize, seed: u64) -> InjectionCampaign {
    let plan = plan_campaign(w, runs, seed);
    let outcomes: Vec<Outcome> = plan
        .sites
        .iter()
        .map(|&site| run_one(w, site, plan.watchdog))
        .collect();
    tally(w.name(), &outcomes)
}

// `sassi_sim::FaultKind` used in matching above.
pub use sassi_sim::FaultKind;
