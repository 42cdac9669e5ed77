//! The repository's benchmark: end-to-end and per-layer metrics of the
//! CVS view synchronizer on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <federation_stream|whatif_fanout|history_readwrite> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed and handed to the program only as
//! MISD, E-SQL and change-script text. With `--trace 0` the run prints
//! the end-to-end metrics; with `--trace 1` it replays each change's
//! layer calls beside the real call and prints per-layer metrics. The
//! last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! non-zero when any output check failed. See `README.md` beside this
//! package's manifest for the workloads' parameters, the metric
//! definitions and the layer-to-metric map.

mod federation;
mod gen;
mod history;
mod meter;
mod pipeline;
mod report;
mod stats;
mod trace;
mod whatif;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "federation_stream" => federation::run,
        "whatif_fanout" => whatif::run,
        "history_readwrite" => history::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = stats::cpu_ticks();
    match run(args.seed, args.seconds, args.trace) {
        Ok(mut report) => {
            if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, stats::cpu_ticks()) {
                let steal =
                    100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
                report
                    .notes
                    .push(format!("host steal {steal:.2}% of CPU time during the run"));
            }
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
