//! End-to-end benchmark for DeepLens. See `README.md` in this directory.
//!
//! ```text
//! deeplens-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line printed is its result
//! deeplens-benchmark [--seed <n>] [--seconds <s>] [--trace [0|1]]
//!     all four workloads, each in a child process
//! deeplens-benchmark --repeat [n]
//!     two sets of n full runs; fails when their medians disagree by more
//!     than a metric's bound
//! ```

mod api;
mod gen;
mod ingest;
mod probes;
mod report;
mod run;
mod scan;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use report::{Better, RunResult};
use run::RunArgs;

/// Seconds one run measures for when `--seconds` is not given; the same
/// value `BENCHMARK.json` declares as `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_REPEAT: usize = 3;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        // `--trace` and `--repeat` may stand alone; the others need a value.
        let optional = it.next_if(|next| !next.starts_with("--")).cloned();
        let required = || {
            optional
                .clone()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(required()?),
            "--seed" => {
                let v = required()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a whole number"))?;
            }
            "--seconds" => {
                let v = required()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds: '{v}' is not a positive number"))?;
            }
            "--trace" => {
                cli.trace = match optional.as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                cli.repeat = Some(match optional {
                    None => DEFAULT_REPEAT,
                    Some(v) => v.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("--repeat takes a count of at least 1, not '{v}'")
                    })?,
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// Run one workload in this process. Everything the engine writes (session
/// directories under `TMPDIR`) stays inside the checkout and is removed.
fn run_workload(name: &str, args: &RunArgs) -> Result<bool, String> {
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join("bench-results")
        .join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", &scratch);
    let correct = match name {
        "serve_cold" => run::run::<serve::ServeCold>(args),
        "serve_mixed_rw" => run::run::<serve::ServeMixedRw>(args),
        "ingest_video" => run::run::<ingest::IngestVideo>(args),
        "scan_analytics" => run::run::<scan::ScanAnalytics>(args),
        other => {
            return Err(format!(
                "unknown workload '{other}'; the workloads are {}",
                report::WORKLOADS.join(", ")
            ))
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(correct)
}

/// Run `workload` in a child process, pass its output through, and parse
/// the result off its last line.
fn run_child(workload: &str, cli: &Cli) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = RunResult::from_json(last).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: {} of {} operations failed or mismatched",
            result.failed, result.attempted
        ));
    }
    Ok(result)
}

type SuiteResults = Vec<(&'static str, RunResult)>;

/// All four workloads, each in its own process, plus the machine-readable
/// file.
fn run_suite(cli: &Cli) -> Result<SuiteResults, String> {
    let mut results = Vec::new();
    for workload in report::WORKLOADS {
        results.push((workload, run_child(workload, cli)?));
    }
    let body: Vec<String> = results
        .iter()
        .map(|(w, r)| format!("  {}: {}", report::Json::quote(w), r.to_json()))
        .collect();
    let file = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{\n{}\n}}}}\n",
        cli.seed,
        cli.seconds,
        cli.trace,
        body.join(",\n")
    );
    std::fs::create_dir_all("bench-results").map_err(|e| e.to_string())?;
    let path = if cli.trace {
        "bench-results/benchmark-trace.json"
    } else {
        "bench-results/benchmark.json"
    };
    std::fs::write(path, file).map_err(|e| format!("{path}: {e}"))?;
    println!("results written to {path}");
    Ok(results)
}

/// Two sets of `n` full runs of the same code. Their medians must agree
/// within each metric's bound, or a later gain measured with this benchmark
/// would be indistinguishable from its noise.
fn run_repeat(cli: &Cli, n: usize) -> Result<bool, String> {
    let mut sets: Vec<Vec<SuiteResults>> = Vec::new();
    for set in 0..2 {
        let mut runs = Vec::new();
        for i in 0..n {
            println!("--- set {} run {} of {n} ---", set + 1, i + 1);
            runs.push(run_suite(cli)?);
        }
        sets.push(runs);
    }
    let values_of = |set: &[SuiteResults], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter_map(|run| run.iter().find(|(w, _)| *w == workload))
            .filter_map(|(_, r)| r.value(metric))
            .collect()
    };
    // `spread` is the interquartile range of all 2n runs over their median,
    // the figure the acceptance rule holds against the bound.
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}",
        "workload", "metric", "set 1 median", "set 2 median", "worse by", "spread", "bound"
    );
    let mut agree = true;
    for workload in report::WORKLOADS {
        for def in &report::END_TO_END {
            let first = values_of(&sets[0], workload, def.name);
            let second = values_of(&sets[1], workload, def.name);
            let (a, b) = (stats::median(&first), stats::median(&second));
            let worse_by = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let all: Vec<f64> = first.into_iter().chain(second).collect();
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let ok = worse_by.abs() <= bound;
            agree &= ok;
            println!(
                "{workload:<16} {:<16} {a:>14.4} {b:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%{}",
                def.name,
                worse_by * 100.0,
                stats::quartile_spread(&all) * 100.0,
                bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match (&cli.workload, cli.repeat) {
        (Some(name), _) => run_workload(
            name,
            &RunArgs {
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
            },
        ),
        (None, Some(n)) => run_repeat(&cli, n),
        (None, None) => run_suite(&cli).map(|_| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("deeplens-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let c = cli(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve_cold"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, true));
        assert!(!cli(&["--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn bare_trace_and_repeat_take_their_defaults() {
        let c = cli(&["--trace", "--repeat"]).unwrap();
        assert!(c.trace);
        assert_eq!(c.repeat, Some(DEFAULT_REPEAT));
        assert_eq!(cli(&["--repeat", "5"]).unwrap().repeat, Some(5));
    }

    #[test]
    fn malformed_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    /// Batches tile a segment exactly, and on `serve_mixed_rw` they stay
    /// aligned with the write period across the warm-up.
    #[test]
    fn segments_are_whole_batches() {
        use workload::{Workload, BATCH_OPS};
        for spec in [
            serve::ServeCold::spec(),
            serve::ServeMixedRw::spec(),
            ingest::IngestVideo::spec(),
            scan::ScanAnalytics::spec(),
        ] {
            assert_eq!(spec.segment_ops % BATCH_OPS, 0, "{}", spec.name);
        }
        assert_eq!(BATCH_OPS, gen::WRITE_EVERY);
        assert_eq!(serve::ServeMixedRw::spec().warm_ops % BATCH_OPS, 0);
    }

    #[test]
    fn default_seconds_match_benchmark_json() {
        let declared = report::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let run_seconds = declared.get("run_seconds").and_then(report::Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }
}
