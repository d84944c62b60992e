//! Command line of the PDAT benchmark.
//!
//! ```text
//! pdatbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--short]
//! pdatbench steady --workload <name> --runs <n> [--seed <first>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run prints progress on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (with `--workload all`, one line per workload, each
//! prefixed by the workload's name). `steady` runs one workload `runs` times, each with the
//! next seed, and prints each metric's median, quartiles and spread.

use pdatbench::stats::{median, quartiles, RunReport};
use pdatbench::workloads::{run, Options, REFERENCE_WORKLOADS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: pdatbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--short]\n       pdatbench steady --workload <name> --runs <n> [--seed <first>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        short: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--short" {
            a.short = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--runs" => a.runs = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.iter().chain(&REFERENCE_WORKLOADS);
    if a.workload != "all" && !known.clone().any(|w| *w == a.workload) {
        return Err(format!(
            "--workload must be all or one of {}",
            known.copied().collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(a)
}

/// Where traced runs write their spans: the build directory, so the
/// checkout stays clean.
fn trace_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("pdatbench/target"), PathBuf::from);
    base.join("pdatbench-trace")
}

/// Run one workload `runs` times with consecutive seeds and print each
/// metric's median, quartiles and spread (interquartile range over the
/// median, the measure `BENCHMARK.json` bounds are checked against).
fn steady(a: &Args) -> Result<(), String> {
    if a.workload == "all" {
        return Err("steady takes one workload".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for k in 0..a.runs {
        let seed = a.seed + k as u64;
        let out = Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = stdout
            .lines()
            .last()
            .and_then(RunReport::from_json)
            .ok_or(format!(
                "seed {seed}: no result line (exit {:?})",
                out.status.code()
            ))?;
        eprintln!("seed {seed}: {}", stdout.lines().last().unwrap_or_default());
        if !report.correct {
            return Err(format!("seed {seed}: outputs failed their checks"));
        }
        shares.push(report.failed as f64 / report.attempted as f64);
        for m in report.metrics {
            values.entry(m.name).or_default().push(m.value);
        }
    }
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, v) in &values {
        let [q1, med, q3] = quartiles(v);
        println!(
            "{name:<24} {q1:>14.6} {med:>14.6} {q3:>14.6} {:>7.2}%",
            100.0 * (q3 - q1) / med.abs()
        );
    }
    println!("failed share: median {}", median(&shares));
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let steady_mode = args.first().map(String::as_str) == Some("steady");
    if steady_mode {
        args.remove(0);
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if steady_mode {
        return match steady(&a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let o = Options {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        short: a.short,
        trace_dir: trace_dir(),
    };
    if a.workload == "all" {
        // One line per workload, each prefixed by its name.
        let mut all_correct = true;
        for w in WORKLOADS {
            let report = run(w, &o).expect("listed workloads exist");
            all_correct &= report.correct && report.failed == 0;
            println!("{w}: {}", report.to_json());
        }
        return if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run(&a.workload, &o) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
