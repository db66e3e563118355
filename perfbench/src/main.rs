//! The repository benchmark: one command, three workloads, every metric
//! printed by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|stream|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A readable report
//! goes to standard error. A failed output check, or a run that cannot
//! measure, prints no result and exits with status 1; a bad command line
//! exits with status 2.
//!
//! The benchmark fixes every size itself, pins the library's rayon pool
//! to one worker, ignores `ECOST_SIMD`, and writes no file. Every timing
//! is normalised to machine speed by a gauge of fixed reference work
//! (`measure::Gauge`), so runs made while the host is busier compare.

mod measure;
mod metrics;
mod runner;
mod service;
mod stream;
mod trace;
mod train;

use ecost_apps::{App, TEST_APPS, TRAINING_APPS};
use metrics::Values;
use runner::{Passes, RunCfg};
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The whole application catalog: training apps first, then the apps
/// the models never saw.
pub fn catalog() -> Vec<App> {
    TRAINING_APPS.iter().chain(&TEST_APPS).copied().collect()
}

/// Every catalog app paired with the app `offset` places after it,
/// wrapping around: 11 distinct unordered pairs for any offset in 1..=5.
pub fn ring(offset: usize) -> Vec<(App, App)> {
    let apps = catalog();
    (0..apps.len())
        .map(|i| (apps[i], apps[(i + offset) % apps.len()]))
        .collect()
}

/// What a workload run produced.
pub struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
    note: String,
}

impl Outcome {
    /// Reduce a run's passes to the metrics its mode prints: end-to-end
    /// metrics untraced, per-layer metrics traced.
    pub fn new(
        passes: &Passes,
        cfg: &RunCfg,
        setup_s: f64,
        stp_ape_pct: f64,
        setup_stages: &[(&'static str, f64)],
    ) -> Result<Outcome, String> {
        let values = if cfg.trace {
            passes.per_layer(setup_stages)?
        } else {
            passes.end_to_end(setup_s, stp_ape_pct)?
        };
        Ok(Outcome {
            values,
            attempted: passes.attempted(),
            failed: passes.failed(),
            note: format!(
                "{} untraced + {} traced passes, {} decision-latency samples; \
                 normalised pass walls {:.3?} / {:.3?} s; slowdowns {:.3?}",
                passes.plain.len(),
                passes.traced.len(),
                passes.samples(),
                passes.plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
                passes.traced.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
                passes.plain.iter().map(|p| p.slowdown).collect::<Vec<_>>(),
            ),
        })
    }
}

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 120.0) {
                    return Err(bad("must lie in (0, 120]"));
                }
            }
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() -> ExitCode {
    // One rayon worker: the library's sweeps stay on the calling thread,
    // so load comes only from the workload's own threads. Set before any
    // thread starts.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    // The library's SIMD backend is the machine's, whatever the caller's
    // environment asks for.
    std::env::remove_var("ECOST_SIMD");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|stream|service> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[perfbench] {workload}: seed {}, {} s, {}, {} CPUs available",
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let run = match workload.as_str() {
        "train" => train::run(&cfg),
        "stream" => stream::run(&cfg),
        "service" => service::run(&cfg),
        other => Err(format!("unknown workload {other:?}")),
    };
    match run.and_then(|out| {
        eprintln!("[perfbench] {workload}: {}", out.note);
        eprint!("{}", out.values.table());
        out.values.json(true, out.attempted, out.failed)
    }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[perfbench] {workload}: FAILED: {e}");
            ExitCode::from(1)
        }
    }
}
