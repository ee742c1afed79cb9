//! tickbench — the benchmark of the UA-GPNM tick pipeline.
//!
//! ```text
//! tickbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tickbench --self-test
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` re-drives every
//! tick through the layers' public functions and reports the per-layer
//! split. The last line of standard output is one JSON object; the exit
//! code is nonzero when any output was wrong. `--self-test` runs all four
//! workloads at a tiny size in both modes and checks that two same-seed
//! traced runs give identical work counters. See `README.md`.

mod gen;
mod mirror;
mod paper_run;
mod report;
mod service_run;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use report::{Outcome, COUNTERS};
use workload::{Size, Spec, Workload};

const USAGE: &str =
    "usage: tickbench --workload <trickle-k16|churn-k2-readers|paged-starved|paper-cell> \
--seed <n> --seconds <s> --trace <0|1>\n       tickbench --self-test";

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: Duration,
        traced: bool,
    },
    SelfTest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args == ["--self-test"] {
        return Ok(Command::SelfTest);
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
    })
}

/// One run of `workload`.
fn run(workload: Workload, size: Size, seed: u64, seconds: Duration, traced: bool) -> Outcome {
    match workload.spec(size) {
        Spec::Service(spec) => service_run::run(&spec, seed, seconds, traced),
        Spec::Paper(spec) => paper_run::run(&spec, seed, seconds, traced),
    }
}

/// Keep the paged backend's spill files inside the benchmark's directory:
/// the pager creates them under the process temp directory.
fn keep_spill_files_local() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/.spill");
    std::fs::create_dir_all(dir).expect("create the spill directory");
    std::env::set_var("TMPDIR", dir);
}

/// Run every workload at the tiny size: an untraced run and two traced runs
/// with one seed. Passes when every run is correct and both traced runs
/// report identical work counters.
fn self_test() -> bool {
    let seconds = Duration::from_millis(300);
    let mut pass = true;
    for workload in Workload::ALL {
        let untraced = run(workload, Size::Tiny, 7, seconds, false);
        let first = run(workload, Size::Tiny, 7, seconds, true);
        let second = run(workload, Size::Tiny, 7, seconds, true);
        let correct = untraced.correct() && first.correct() && second.correct();
        for outcome in [&untraced, &first, &second]
            .into_iter()
            .filter(|o| !o.correct())
        {
            for note in &outcome.notes {
                eprintln!("self-test {}: {note}", workload.name());
            }
        }
        let differing: Vec<&str> = COUNTERS
            .iter()
            .copied()
            .filter(|c| first.values.get(c) != second.values.get(c))
            .collect();
        eprintln!(
            "self-test {}: correct={correct} ticks={}/{}/{} counters {}",
            workload.name(),
            untraced.attempted,
            first.attempted,
            second.attempted,
            if differing.is_empty() {
                "repeat".to_string()
            } else {
                format!("differ: {differing:?}")
            }
        );
        pass &= correct && differing.is_empty();
    }
    pass
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tickbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    keep_spill_files_local();
    match command {
        Command::SelfTest => {
            if self_test() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Command::Run {
            workload,
            seed,
            seconds,
            traced,
        } => {
            let outcome = run(workload, Size::Full, seed, seconds, traced);
            for note in &outcome.notes {
                eprintln!("{}: {note}", workload.name());
            }
            println!("{}", outcome.json(traced));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            parse(&args(
                "--workload paper-cell --seed 3 --seconds 10 --trace 1"
            )),
            Ok(Command::Run {
                workload: Workload::Paper,
                seed: 3,
                seconds: Duration::from_secs(10),
                traced: true,
            })
        );
        assert!(parse(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse(&args(
            "--workload paper-cell --seed 3 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(&args("--workload paper-cell --seed 3")).is_err());
        assert!(parse(&args("--workload")).is_err());
    }

    /// Every workload is correct at the tiny size, and two traced runs with
    /// the same seed give identical work counters.
    #[test]
    fn self_test_passes() {
        keep_spill_files_local();
        assert!(self_test());
    }
}
