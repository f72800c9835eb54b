//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload in-process for about `--seconds` seconds,
//! checks its outputs and prints one JSON result line as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. With `--emit-reference` it prints
//! the workload's reference rows instead (see `perfbench/reference.txt`).
//! Progress and diagnostics go to standard error.

mod check;
mod paper;
mod served;

use sring_perfbench::metrics::{self, Metrics};
use sring_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Print reference rows instead of a result.
    pub emit_reference: bool,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, rejections, failed checks).
    pub failed: u64,
    /// Reference rows describing this run's outputs.
    pub reference: Vec<String>,
}

impl RunResult {
    /// Counts one operation, failed or not; a failure's reason goes to
    /// standard error.
    pub fn count(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {e}");
        }
    }

    /// Records `ok_frac`, the share of operations that did not fail.
    pub fn set_ok_frac(&mut self) {
        let ok = self.attempted - self.failed;
        self.metrics
            .set("ok_frac", ok as f64 / self.attempted.max(1) as f64);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = sring_perfbench::workload::DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut emit_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--emit-reference" => emit_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        emit_reference,
    })
}

/// Where runs leave scratch state and trace evidence: beside the build
/// output, inside the checkout.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// Saves a traced run's `onoc-trace` reports (`json`) as supporting
/// evidence under [`out_dir`].
pub fn write_evidence(args: &Args, json: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: trace reports in {}", path.display());
    Ok(())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let result = match args.workload {
        Workload::PaperAssign | Workload::PaperCluster => paper::run(&args)?,
        Workload::ServedEdits => served::run(&args)?,
    };
    if args.emit_reference {
        return Ok(result.reference.join("\n"));
    }
    let defs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    result
        .metrics
        .finish(&defs, result.failed == 0, result.attempted, result.failed)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
