//! Closed-loop fleet benchmark over the real dro-edge stack on loopback.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <fleet_round|report_storm|prior_fetch|fleet_sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. Every workload is closed loop with one
//! load thread, and the learner ticks synchronously in that thread, so
//! the sequence of operations depends only on the seed. An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run (`--trace 1`)
//! runs an untraced pass and then a traced pass of the same work, and
//! prints the per-layer metrics from spans around the calls into each
//! crate. Either run checks the program's outputs and prints
//! `"correct": false` (and exits non-zero) when one is wrong. The last line
//! of standard output is the JSON result; the lines before it are for
//! people. `--smoke` runs every workload at toy size with all its checks.
//!
//! The thread count is deliberately left at the program's default
//! (`DRE_NUM_THREADS` is not set): the per-call thread spawns in the
//! learner are part of what the benchmark measures.

mod common;
mod fleet_round;
mod fleet_sim;
mod prior_fetch;
mod report;
mod report_storm;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;

use common::{Check, Params, RunOutput};
use report::{result_line, Metrics, Tally, END_TO_END, PER_LAYER};

/// A workload: runs itself under `Params` and checks its own outputs.
type Workload = fn(&Params) -> Check<RunOutput>;

/// The workloads. `BENCHMARK.json` lists all but `fleet_round`, whose
/// run-to-run spread on a shared host is too wide for its bound.
const WORKLOADS: &[(&str, Workload)] = &[
    ("fleet_round", fleet_round::run),
    ("report_storm", report_storm::run),
    ("prior_fetch", prior_fetch::run),
    ("fleet_sim", fleet_sim::run),
];

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    params: Params,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must lie in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.iter().any(|(n, _)| n == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !smoke && (workload.is_none() || seed.is_none()) {
        return Err("--workload and --seed are required (or --smoke)".to_string());
    }
    Ok(Args {
        workload,
        params: Params {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace,
            smoke,
        },
    })
}

/// Runs one workload and prints its human-readable lines.
fn run_workload(name: &str, params: &Params) -> Check<RunOutput> {
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f)
        .expect("workload names are checked at parse time");
    let out = run(params)?;
    for (metric, value, unit) in &out.named {
        println!("{name}: {metric} = {value} {unit}");
    }
    for (kind, n) in out.tally.failures() {
        println!("{name}: failed {kind} = {n}");
    }
    Ok(out)
}

fn provenance(params: &Params) {
    let root = std::env::current_dir().unwrap_or_default();
    println!(
        "provenance: rev {} | hardware threads {} | parallel.threads {} | parallel feature {} | seed {}",
        sys::git_rev(&root),
        sys::hardware_threads(),
        dre_parallel::max_threads(),
        cfg!(feature = "parallel"),
        params.seed,
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    provenance(&args.params);
    if args.params.smoke {
        return smoke(&args.params);
    }
    let name = args.workload.as_deref().expect("checked at parse time");
    let (correct, tally, metrics) = match run_workload(name, &args.params) {
        Ok(out) => {
            let metrics = if args.params.trace {
                out.layers
            } else {
                out.e2e
            };
            let finite = metrics.entries().all(|(_, v, _)| v.is_finite());
            if !finite {
                eprintln!("fleetbench: a metric is not a finite number");
            }
            (finite, out.tally, metrics)
        }
        Err(e) => {
            eprintln!("fleetbench: {name}: check failed: {e}");
            let declared = if args.params.trace {
                PER_LAYER
            } else {
                END_TO_END
            };
            (false, Tally::default(), Metrics::new(declared))
        }
    };
    let mut tally = tally;
    if tally.attempted() == 0 {
        tally.attempt(1);
        tally.fail("run_failed", 1);
    }
    println!("{}", result_line(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at toy size, traced, with all checks.
fn smoke(params: &Params) -> ExitCode {
    let params = Params {
        seconds: 0.0,
        trace: true,
        smoke: true,
        ..*params
    };
    let mut ok = true;
    for (name, _) in WORKLOADS {
        if let Err(e) = run_workload(name, &params) {
            eprintln!("fleetbench: {name}: check failed: {e}");
            ok = false;
        }
    }
    println!("smoke: {}", if ok { "all checks passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload prior_fetch --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("prior_fetch"));
        assert_eq!(
            (a.params.seed, a.params.seconds, a.params.trace),
            (9, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload fleet_sim").is_err());
        assert!(args("--workload fleet_sim --seed 1 --trace 2").is_err());
        assert!(args("--workload fleet_sim --seed 1 --seconds 0").is_err());
        assert!(args("--smoke").is_ok());
    }

    /// Every workload and its output checks, at toy size, in seconds.
    #[test]
    fn smoke_runs_every_workload() {
        let params = Params {
            seed: 3,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        for (name, run) in WORKLOADS {
            let out = run(&params).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.tally.attempted() > 0, "{name} attempted nothing");
            assert_eq!(out.tally.failed(), 0, "{name}: {:?}", out.tally.failures());
            assert!(out.layers.get("parallel.threads").unwrap() >= 1.0);
        }
    }
}
