//! `repro` — regenerates every table and figure of the paper.
//!
//! Every sweep runs on the deterministic parallel campaign engine
//! (`sassi_bench::exec`): results are byte-identical for any `--jobs`
//! value, including 1.

use sassi_bench::exec::{default_jobs, Timing};
use sassi_bench::{campaigns, save_json};
use sassi_studies::report;

const USAGE: &str = "usage: repro [--jobs N] [table1|fig5|fig7|fig8|table2|table3|fig10 [runs]|ablation-stub|ablation-spill|all]
  --jobs N     worker threads per sweep (default: available parallelism)
  fig10 runs   injections per workload (positive integer, default 150)";

fn usage_exit(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Cli {
    cmd: String,
    /// Positional arguments after the subcommand.
    rest: Vec<String>,
    jobs: usize,
}

fn parse_cli() -> Cli {
    let mut jobs: Option<usize> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let jobs_value = if a == "--jobs" || a == "-j" {
            Some(
                args.next()
                    .unwrap_or_else(|| usage_exit(&format!("`{a}` needs a value"))),
            )
        } else {
            a.strip_prefix("--jobs=").map(str::to_owned)
        };
        if let Some(v) = jobs_value {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => usage_exit(&format!(
                    "invalid job count `{v}` (want a positive integer)"
                )),
            }
        } else if a.starts_with('-') {
            usage_exit(&format!("unknown option `{a}`"));
        } else {
            positional.push(a);
        }
    }
    let cmd = positional
        .first()
        .cloned()
        .unwrap_or_else(|| String::from("all"));
    let rest = positional.get(1..).unwrap_or_default().to_vec();
    Cli {
        cmd,
        rest,
        jobs: jobs.unwrap_or_else(default_jobs),
    }
}

/// Rejects trailing positional arguments for subcommands that take none.
fn no_args(cli: &Cli) {
    if let Some(extra) = cli.rest.first() {
        usage_exit(&format!("`{}` takes no arguments (got `{extra}`)", cli.cmd));
    }
}

fn fig10_runs(cli: &Cli) -> usize {
    if let Some(extra) = cli.rest.get(1) {
        usage_exit(&format!(
            "`fig10` takes at most one argument (got `{extra}`)"
        ));
    }
    match cli.rest.first() {
        None => 150,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_exit(&format!(
                "invalid run count `{s}` (want a positive integer)"
            )),
        },
    }
}

/// Prints the sweep's throughput line and records it under
/// `results/timings/` (kept out of `results/*.json` so the main
/// artifacts stay byte-identical across `--jobs` settings).
fn report_timing(name: &str, timing: &Timing) {
    println!("{}", timing.summary(name));
    save_json(&format!("timings/{name}"), timing);
}

fn main() {
    let cli = parse_cli();
    match cli.cmd.as_str() {
        "table1" => {
            no_args(&cli);
            table1(cli.jobs);
        }
        "fig5" => {
            no_args(&cli);
            fig5(cli.jobs);
        }
        "fig7" => {
            no_args(&cli);
            fig7(cli.jobs);
        }
        "fig8" => {
            no_args(&cli);
            fig8(cli.jobs);
        }
        "table2" => {
            no_args(&cli);
            table2(cli.jobs);
        }
        "table3" => {
            no_args(&cli);
            table3(cli.jobs);
        }
        "fig10" => {
            let runs = fig10_runs(&cli);
            fig10(runs, cli.jobs);
        }
        "ablation-stub" => {
            no_args(&cli);
            ablation_stub(cli.jobs);
        }
        "ablation-spill" => {
            no_args(&cli);
            ablation_spill(cli.jobs);
        }
        "all" => {
            no_args(&cli);
            table1(cli.jobs);
            fig5(cli.jobs);
            fig7(cli.jobs);
            fig8(cli.jobs);
            table2(cli.jobs);
            table3(cli.jobs);
            fig10(150, cli.jobs);
            ablation_stub(cli.jobs);
            ablation_spill(cli.jobs);
        }
        other => usage_exit(&format!("unknown experiment `{other}`")),
    }
}

fn table1(jobs: usize) {
    let (rows, timing) = campaigns::table1(jobs);
    println!("{}", report::table1(&rows));
    save_json(
        "table1",
        &rows.iter().map(|r| r.row.clone()).collect::<Vec<_>>(),
    );
    report_timing("table1", &timing);
}

fn fig5(jobs: usize) {
    let (studies, timing) = campaigns::fig5(jobs);
    for study in &studies {
        println!("{}", report::figure5(study, 12));
        save_json(
            &format!("fig5_{}", study.row.name.replace(['(', ')', ' '], "")),
            &study.per_branch,
        );
    }
    report_timing("fig5", &timing);
}

fn fig7(jobs: usize) {
    let (studies, timing) = campaigns::fig7(jobs);
    println!("{}", report::figure7(&studies));
    save_json(
        "fig7",
        &studies
            .iter()
            .map(|s| (s.name.clone(), s.pmf.clone(), s.fully_diverged))
            .collect::<Vec<_>>(),
    );
    report_timing("fig7", &timing);
}

fn fig8(jobs: usize) {
    let (studies, timing) = campaigns::fig8(jobs);
    for study in &studies {
        println!("{}", report::figure8(study));
        save_json(
            &format!("fig8_{}", study.name.replace(['(', ')', ' '], "")),
            &study.matrix,
        );
    }
    report_timing("fig8", &timing);
}

fn table2(jobs: usize) {
    let (rows, timing) = campaigns::table2(jobs);
    println!("{}", report::table2(&rows));
    save_json("table2", &rows);
    report_timing("table2", &timing);
}

fn table3(jobs: usize) {
    let (rows, timing) = campaigns::table3(jobs);
    println!("{}", report::table3(&rows));
    save_json("table3", &rows);
    report_timing("table3", &timing);
}

fn fig10(runs: usize, jobs: usize) {
    let (campaigns, timing) = campaigns::fig10(runs, campaigns::FIG10_SEED, jobs);
    println!("{}", report::figure10(&campaigns));
    save_json("fig10", &campaigns);
    report_timing("fig10", &timing);
}

fn ablation_stub(jobs: usize) {
    let (rows, timing) = campaigns::ablation_stub(jobs);
    println!("Stub-handler ablation (§9.1): kernel slowdown with full vs empty handler");
    for row in &rows {
        println!(
            "  {:<14} value-profiling {:>6.1}x | stub {:>6.1}x | stub fraction {:.0}%",
            row.name,
            row.slowdowns[2].kernel,
            row.stub.kernel,
            100.0 * row.stub_fraction
        );
    }
    let mean = rows.iter().map(|r| r.stub_fraction).sum::<f64>() / rows.len() as f64;
    println!(
        "  mean stub fraction: {:.0}% (paper reports ~80%)",
        100.0 * mean
    );
    save_json("ablation_stub", &rows);
    report_timing("ablation-stub", &timing);
}

fn ablation_spill(jobs: usize) {
    let (rows, timing) = campaigns::ablation_spill(jobs);
    println!("Liveness ablation: liveness-driven minimal saves vs save-everything (binary-rewriter baseline)");
    println!(
        "{:<16} {:>14} {:>16} {:>12} {:>10}",
        "benchmark", "avg saves/site", "save-all (=15)", "liveness K", "save-all K"
    );
    for row in &rows {
        println!(
            "{:<16} {:>14.1} {:>16.0} {:>11.1}x {:>9.1}x",
            row.name, row.live_saves, row.all_saves, row.k_live, row.k_all
        );
    }
    report_timing("ablation-spill", &timing);
}
