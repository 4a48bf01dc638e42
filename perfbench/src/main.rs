//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--data-seed <n>]`
//!
//! Prints diagnostics (environment, sample counts, p99s) and then, as the
//! last line of standard output, the result object. Exits non-zero when an
//! oracle rejects a response.

use std::process::ExitCode;

use perfbench::{Config, Workload};

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <point_lookup|analytic_scan|ingest_mixed> \
         --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut data_seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => {
                seed = value.parse::<u64>().ok();
                seed.is_some()
            }
            "--data-seed" => {
                data_seed = value.parse::<u64>().ok();
                data_seed.is_some()
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite());
                seconds.is_some()
            }
            "--trace" => match value.as_str() {
                "0" => {
                    trace = false;
                    true
                }
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let mut cfg = Config::new(workload, seed, seconds, trace);
    cfg.data_seed = data_seed.unwrap_or(seed);
    cfg.trace_out = Some(format!("perfbench/out/trace-{}-{seed}.json", workload.name()).into());
    let report = perfbench::run(&cfg);
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", report.diagnostics);
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
