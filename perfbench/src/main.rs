//! `perfbench` — the repository benchmark.
//!
//! One command runs one named workload, generated from a seed, against the
//! workspace's public APIs; prints every metric by name with its unit; checks
//! that the program's outputs are correct; and ends its standard output with
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact-dense --seed 3 --seconds 10 --trace 0
//! ```
//!
//! - `--trace 0` measures the end-to-end metrics with tracing off.
//! - `--trace 1` records a span around every public call the benchmark makes
//!   and prints the per-layer metrics ([`layers`]), the self time per span
//!   name, and the tracing overhead (traced over untraced end-to-end,
//!   measured in the same process). The spans are written to
//!   `.bench_work/trace-*.jsonl`.
//! - `--scale tiny` shrinks every input so the whole benchmark runs in
//!   seconds; the package's own test uses it.
//!
//! Workloads: `exact-dense` ([`exact_dense`]), `profile-sparse`
//! ([`profile_sparse`]) and `serve-mixed` ([`serve_mixed`]). Every workload
//! reports the same metrics. End to end: `setup_s`, `peak_rss_mb`,
//! `latency_p50_ms` (the median latency of the workload's operation: one
//! count, one profile, one request) and `throughput` (those operations per
//! second); traced, every per-layer metric. What else a workload measures
//! is printed above the result line. Each workload runs in its own process,
//! so `peak_rss_mb` is the workload's own peak. Set-up (input generation,
//! the `.mochy` write, server boot and warm-up) runs several times outside
//! the timed loop and is reported as the median `setup_s`. The program
//! under test receives only the generated inputs.

#![forbid(unsafe_code)]

mod exact_dense;
mod inputs;
mod layers;
mod profile_sparse;
mod serve_mixed;
mod stats;
mod trace;
mod walk;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <exact-dense|profile-sparse|serve-mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]";

/// How many times a workload sets up per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// Input size: `Full` is the benchmark; `Tiny` exercises every code path in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Everything a workload needs from the command line.
pub struct Run {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    pub scale: Scale,
    pub tracer: Tracer,
    /// Scratch directory for `.mochy` files and trace output.
    pub work: PathBuf,
}

impl Run {
    /// The key a workload's recorded fingerprint is stored under.
    pub fn fingerprint_key(&self, workload: &str) -> String {
        match self.scale {
            Scale::Full => workload.to_string(),
            Scale::Tiny => format!("{workload}@tiny"),
        }
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations (or requests) attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, or whose output was wrong.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The median of a set-up closure run [`SETUP_REPEATS`] times; returns the
/// last result together with every duration.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down first (untimed), so set-ups never
        // overlap and their memory does not add up.
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), seconds))
}

/// Resets this process's peak resident memory (VmHWM) to its current
/// resident memory, so a following [`peak_rss_mb`] reads the peak of the
/// work in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Whether two vectors of counts (or profile entries) are bit-for-bit equal.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: inputs::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--scale" => {
                    parsed.scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".to_string());
        }
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match inputs::work_dir() {
        Ok(work) => work,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        scale: args.scale,
        tracer: Tracer::new(args.trace, Instant::now()),
        work,
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} scale {:?}, available parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = match args.workload.as_str() {
        "exact-dense" => exact_dense::run(&run),
        "profile-sparse" => profile_sparse::run(&run),
        "serve-mixed" => serve_mixed::run(&run),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        println!("span                                          count    total_ms     self_ms");
        for (name, (count, total, own)) in run.tracer.self_times() {
            println!("{name:<44} {count:>6} {total:>11.3} {own:>11.3}");
        }
        let path = run
            .work
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(error) = run.tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {path:?}: {error}");
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
