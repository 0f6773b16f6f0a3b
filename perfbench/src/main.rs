//! The repository benchmark. One command runs one workload through the
//! public entry points the CLIs use, checks its outputs, and prints one
//! JSON result line last on stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload advc-interference --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. `--smoke` shortens every simulation to a few
//! hundred cycles; `--record` prints the output digests of one execution
//! as reference lines. See README.md for the metrics and workloads.

mod driver;
mod gate;
mod inputs;
mod md5;
mod metrics;
mod service;
mod sim;
mod stats;
mod trace;

use gate::Reference;
use metrics::{result_line, Outcome, END_TO_END, PER_LAYER};

/// Where traces and the service's temporary state go, relative to the
/// working directory (the checkout root).
pub const OUT_DIR: &str = ".perfbench-out";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Measurement budget of an untraced run, in seconds.
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
    /// Shortened protocol for a quick end-to-end check.
    pub smoke: bool,
    /// Print reference digests instead of a result line.
    pub record: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--record]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        smoke: false,
        record: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !inputs::WORKLOADS
        .iter()
        .any(|(name, _)| *name == args.workload)
    {
        let names: Vec<&str> = inputs::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

/// Run one workload as the arguments ask.
pub fn run(args: &Args) -> Outcome {
    // Reference digests pin the full protocol; a smoke run or a
    // recording only checks its own cross-run equalities.
    let bundled = Reference::bundled();
    let reference = (!args.smoke && !args.record).then_some(&bundled);
    let workload = inputs::WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .find(|name| *name == args.workload)
        .expect("workload validated by parse_args");
    match (workload, args.trace) {
        (inputs::SERVICE, false) => service::run(args, reference),
        (inputs::SERVICE, true) => service::run_traced(args, reference),
        (_, false) => sim::run(workload, args, reference),
        (_, true) => sim::run_traced(workload, args, reference),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} ({}{}), {} CPUs",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        if args.smoke { ", smoke" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let outcome = run(&args);
    if args.record {
        for (item, md5) in &outcome.digests {
            println!("{} {} {item} {md5}", args.seed, args.workload);
        }
    } else {
        let list = if args.trace { PER_LAYER } else { END_TO_END };
        for (name, value, unit) in outcome.values.listed(list) {
            eprintln!("{name:<26} {value:>16.6} {unit}");
        }
        eprintln!(
            "ops {} ops_failed {}",
            outcome.attempted, outcome.gate.failed_ops
        );
        println!("{}", result_line(&outcome, list));
    }
    if !outcome.gate.passed() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload sweep-grid --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sweep-grid", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload sweep-grid --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sweep-grid --bogus")).is_err());
        assert!(parse_args(&argv("--workload sweep-grid --seed")).is_err());
    }

    /// Smoke mode runs every workload, untraced and traced, with every
    /// check passing and every declared metric present.
    #[test]
    fn smoke_runs_every_workload() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        std::env::set_current_dir(&root).expect("benchmark runs from the checkout root");
        for (workload, _) in inputs::WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                    record: false,
                };
                let outcome = run(&args);
                assert!(
                    outcome.gate.passed(),
                    "{workload} trace={trace}: {:?}",
                    outcome.gate.reasons
                );
                assert!(outcome.attempted > 0);
                let list = if trace { PER_LAYER } else { END_TO_END };
                let line = result_line(&outcome, list);
                assert!(line.starts_with("{\"correct\": true,"), "{line}");
                if !trace {
                    for (name, value, _) in outcome.values.listed(END_TO_END) {
                        assert!(value > 0.0, "{workload}: {name} = {value}");
                    }
                }
            }
        }
    }
}
