//! The crash → fail-signal cost benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-small --seed 1 --seconds 60 --trace 0
//! ```
//!
//! Each workload deploys one group under both protocols through
//! `fs_harness::Scenario`, drives it with the members' own open-loop
//! Poisson drivers and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced run gives the per-layer ones and writes its spans to
//! `perfbench-spans/`.  See `perfbench/README.md` for what each workload
//! and metric is for.

mod classify;
mod deploy;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use report::Report;
use spans::Spans;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let seconds = seconds.unwrap_or(60);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(def) = workloads::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} cpu(s)",
        def.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut spans = Spans::new(args.trace);
    let mut report = Report::new(args.seed);
    let result = if args.trace {
        workloads::traced(&def, args.seed, &mut spans, &mut report)
    } else {
        workloads::end_to_end(&def, args.seed, args.seconds, &mut spans, &mut report)
    };
    if let Err(check) = result {
        eprintln!("perfbench: correctness check failed: {check}");
        return ExitCode::from(1);
    }
    let mut names: Vec<String> = report.names().iter().map(|n| n.to_string()).collect();
    names.sort();
    if names != workloads::expected_metrics(args.trace) {
        eprintln!("perfbench: correctness check failed: metric-set: reported {names:?}");
        return ExitCode::from(1);
    }
    if args.trace {
        let path = std::path::Path::new("perfbench-spans")
            .join(format!("{}-seed{}.jsonl", def.name, args.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        );
    }
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload kv-small --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "kv-small".into(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(
            parse_args(&argv("--seed 7")).is_err(),
            "workload is required"
        );
        assert!(parse_args(&argv("--workload a --seed x")).is_err());
        assert!(parse_args(&argv("--workload a --trace 2")).is_err());
        assert!(parse_args(&argv("--workload a --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload a --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}
