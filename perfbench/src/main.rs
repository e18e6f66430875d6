//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Optional: `--campaign-seed <n>` (default: the Figure 10 seed).
//!
//! Prints human-readable lines, then one JSON result line. Exits 2 on
//! bad arguments and 1 when set-up fails.

use perfbench::suite::{Kind, Options};
use perfbench::{end_to_end, per_layer, Report};
use sassi_bench::campaigns::FIG10_SEED;
use std::process::{exit, Command};

const USAGE: &str = "usage: perfbench --workload <native|native_sharded|profile_studies|\
inject_campaign> --seed <n> --seconds <s> --trace <0|1> [--campaign-seed <n>]";

/// Set-ups per end-to-end invocation; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    kind: Kind,
    opts: Options,
    seconds: f64,
    trace: bool,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2)
}

fn parse_num(flag: &str, v: &str) -> u64 {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| usage_exit(&format!("{flag} takes a whole number, got `{v}`")))
}

fn parse_args() -> Args {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut opts = Options {
        seed: 0,
        campaign_seed: FIG10_SEED,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::parse(&v)
                        .unwrap_or_else(|| usage_exit(&format!("unknown workload `{v}`"))),
                )
            }
            "--seed" => seed = Some(parse_num(&flag, &v)),
            "--seconds" => seconds = Some(parse_num(&flag, &v) as f64),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_exit("--trace takes 0 or 1"),
                })
            }
            "--campaign-seed" => opts.campaign_seed = parse_num(&flag, &v),
            _ => usage_exit(&format!("unknown argument `{flag}`")),
        }
    }
    let missing = |f: &str| -> ! { usage_exit(&format!("missing {f}")) };
    opts.seed = seed.unwrap_or_else(|| missing("--seed"));
    Args {
        kind: kind.unwrap_or_else(|| missing("--workload")),
        opts,
        seconds: seconds.unwrap_or_else(|| missing("--seconds")),
        trace: trace.unwrap_or_else(|| missing("--trace")),
    }
}

/// The commit of the checkout, if it is a git work tree (searching no
/// further up than the current directory).
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} commit={} workload={} shard_workers={} \
         campaign_seed={:#x} seed={} trace={}",
        commit(),
        args.kind.name(),
        args.kind.jobs(),
        args.opts.campaign_seed,
        args.opts.seed,
        u8::from(args.trace)
    );
    let trace_out = std::path::PathBuf::from(format!(
        "{}/traces/{}-seed{}.jsonl",
        env!("CARGO_MANIFEST_DIR"),
        args.kind.name(),
        args.opts.seed
    ));
    let result: Result<Report, String> = if args.trace {
        per_layer(args.kind, &args.opts, args.seconds, Some(&trace_out))
    } else {
        end_to_end(args.kind, &args.opts, args.seconds, SETUP_REPS)
    };
    match result {
        Ok(report) => {
            for line in &report.notes {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}
