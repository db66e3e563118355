//! The measurement loop every workload shares: repeated set-ups, passes
//! repeated until the run's seconds are spent, the output checks that
//! compare passes, and the reduction of passes to metrics.

use crate::measure::{median, peak_rss_mb, tail_percentile, Gauge};
use crate::metrics::{normalised, Values, END_TO_END, PER_LAYER};
use std::fmt::Display;
use std::time::Instant;

/// Every pass kind runs at least this often, so medians have a middle.
const MIN_PASSES: usize = 3;

/// Decision latencies an untraced run collects at least, so that p99 has
/// [`crate::measure::MIN_BEYOND`] samples beyond it.
const MIN_SAMPLES: usize = 100 * crate::measure::MIN_BEYOND;

/// Measuring stops with an error past this many seconds, keeping a run
/// inside its time limit even on a much slower machine.
const MAX_MEASURE_S: f64 = 140.0;

/// Attach context to a library error.
pub trait Context<T> {
    /// Map the error to `"<what>: <error>"`.
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: Display> Context<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds to measure passes for.
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes, report layers.
    pub trace: bool,
}

/// What one pass measured. Times and rates are normalised to the
/// nominal machine: each is divided (a rate multiplied) by the slowdown
/// the [`Gauge`] read around the interval it was measured over.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the timed part of the pass.
    pub wall_s: f64,
    /// Process CPU seconds over the same part.
    pub cpu_s: f64,
    /// Decisions made.
    pub decisions: u64,
    /// Wall seconds of the phase that made them.
    pub decide_wall_s: f64,
    /// Seconds spent fitting the model this pass's decisions come from.
    pub fit_s: f64,
    /// Host latency of each decision, ms.
    pub latencies_ms: Vec<f64>,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that did not return `Ok`.
    pub failed: u64,
    /// Simulated EDP of the decisions made, J·s (deterministic).
    pub sim_edp: f64,
    /// Fold of every decision made (deterministic).
    pub fingerprint: u64,
    /// Mean EDP error of the pass's decisions against the COLAO oracle,
    /// % (workloads that judge decisions per pass).
    pub ape_pct: f64,
    /// Per-layer values (traced passes only), as measured.
    pub layers: Vec<(String, f64)>,
    /// The machine's slowdown over the whole pass.
    pub slowdown: f64,
}

/// All passes of a run.
#[derive(Debug, Default)]
pub struct Passes {
    /// Untraced passes.
    pub plain: Vec<Pass>,
    /// Traced passes (traced runs only), interleaved with the untraced.
    pub traced: Vec<Pass>,
}

/// Named set-up stage timings, seconds.
pub type Stages = Vec<(&'static str, f64)>;

/// Result of repeated set-ups: the last state and medians of the
/// normalised timings.
pub struct SetUp<T> {
    /// State of the last set-up.
    pub state: T,
    /// Median wall seconds of one whole set-up.
    pub setup_s: f64,
    /// Median of each named set-up stage, seconds.
    pub stages: Stages,
}

/// Run `build` `reps` times, each from scratch (the previous state is
/// dropped first), keeping the last state. `build` returns its state and
/// its stage values, timings already normalised: it takes the gauge and
/// reads it after each stage. The gauge is read before each set-up, and
/// a set-up's time leaves out the readings taken inside it.
pub fn set_up<T>(
    reps: usize,
    gauge: &mut Gauge,
    mut build: impl FnMut(&mut Gauge) -> Result<(T, Stages), String>,
) -> Result<SetUp<T>, String> {
    let mut state = None;
    let mut totals = Vec::with_capacity(reps);
    let mut raw = Vec::with_capacity(reps);
    let mut stages: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for _ in 0..reps.max(1) {
        drop(state.take());
        gauge.read();
        let (t0, spent0) = (Instant::now(), gauge.spent_s());
        let (s, st) = build(gauge)?;
        let t1 = Instant::now();
        raw.push((t1 - t0).as_secs_f64() - (gauge.spent_s() - spent0));
        totals.push(raw[raw.len() - 1] / gauge.slowdown(t0, t1)?);
        for (name, value) in st {
            match stages.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(value),
                None => stages.push((name, vec![value])),
            }
        }
        state = Some(s);
    }
    eprintln!("[perfbench] set-ups took {raw:.3?} s, normalised {totals:.3?} s");
    Ok(SetUp {
        state: state.ok_or("set-up never ran")?,
        setup_s: median(&totals).ok_or("no set-up timings")?,
        stages: stages
            .into_iter()
            .map(|(n, v)| (n, median(&v).unwrap_or(0.0)))
            .collect(),
    })
}

/// Run one warm-up pass that is not counted (first-touch allocation lands
/// there), then passes until `cfg.seconds` have elapsed, at least
/// [`MIN_PASSES`] of each kind ran, and (untraced runs) the passes hold
/// at least [`MIN_SAMPLES`] decision latencies. A traced run alternates
/// untraced and traced passes, so both see the same machine state. Every
/// pass must repeat the warm-up pass's decisions exactly.
pub fn run_passes(
    cfg: &RunCfg,
    mut pass: impl FnMut(bool) -> Result<Pass, String>,
) -> Result<Passes, String> {
    let warm_up = pass(false)?;
    let start = Instant::now();
    let mut out = Passes::default();
    loop {
        out.plain.push(pass(false)?);
        if cfg.trace {
            out.traced.push(pass(true)?);
        }
        let samples: usize = out.plain.iter().map(|p| p.latencies_ms.len()).sum();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= cfg.seconds
            && out.plain.len() >= MIN_PASSES
            && (cfg.trace || samples >= MIN_SAMPLES)
        {
            break;
        }
        if elapsed > MAX_MEASURE_S {
            return Err(format!(
                "measuring took over {MAX_MEASURE_S} s ({} passes, {samples} samples)",
                out.plain.len()
            ));
        }
    }
    out.check_identical(&warm_up)?;
    Ok(out)
}

impl Passes {
    fn all(&self) -> impl Iterator<Item = &Pass> {
        self.plain.iter().chain(&self.traced)
    }

    /// Output check: every pass of a run, traced or not, made the same
    /// decisions with the same simulated EDP as `first`.
    fn check_identical(&self, first: &Pass) -> Result<(), String> {
        for (i, p) in self.all().enumerate() {
            if p.sim_edp.to_bits() != first.sim_edp.to_bits() || p.fingerprint != first.fingerprint
            {
                let kind = if i >= self.plain.len() {
                    "traced"
                } else {
                    "untraced"
                };
                return Err(format!(
                    "{kind} pass {i} differs from the warm-up pass: sim_edp {} vs {}, \
                     fingerprint {:016x} vs {:016x}",
                    p.sim_edp, first.sim_edp, p.fingerprint, first.fingerprint
                ));
            }
        }
        Ok(())
    }

    /// Calls attempted over every pass.
    pub fn attempted(&self) -> u64 {
        self.all().map(|p| p.attempted).sum()
    }

    /// Calls failed over every pass.
    pub fn failed(&self) -> u64 {
        self.all().map(|p| p.failed).sum()
    }

    /// Decision latency samples of the untraced passes.
    pub fn samples(&self) -> usize {
        self.plain.iter().map(|p| p.latencies_ms.len()).sum()
    }

    /// The end-to-end metrics from the untraced passes. `setup_s` and
    /// `stp_ape_pct` come from the workload.
    pub fn end_to_end(&self, setup_s: f64, stp_ape_pct: f64) -> Result<Values, String> {
        let med = |f: &dyn Fn(&Pass) -> f64| {
            median(&self.plain.iter().map(f).collect::<Vec<_>>()).ok_or("no passes")
        };
        let lat: Vec<f64> = self
            .plain
            .iter()
            .flat_map(|p| p.latencies_ms.iter().copied())
            .collect();
        let (attempted, failed) = (self.attempted(), self.failed());
        if attempted == 0 {
            return Err("no calls attempted".into());
        }
        let mut v = Values::empty(END_TO_END);
        v.set_all(&[
            ("setup_s", setup_s),
            ("pass_cpu_s", med(&|p| p.cpu_s)?),
            (
                "decisions_per_s",
                med(&|p| p.decisions as f64 / p.decide_wall_s)?,
            ),
            ("fit_s", med(&|p| p.fit_s)?),
            ("decision_p50_ms", tail_percentile(&lat, 0.5)?),
            ("decision_p99_ms", tail_percentile(&lat, 0.99)?),
            ("ok_frac", (attempted - failed) as f64 / attempted as f64),
            ("sim_edp", self.plain[0].sim_edp),
            ("stp_ape_pct", stp_ape_pct),
            ("peak_rss_mb", peak_rss_mb()?),
        ])?;
        Ok(v)
    }

    /// The per-layer metrics: medians over the traced passes, each pass's
    /// values normalised by its slowdown; the set-up stages; the median
    /// slowdown over all passes; and the tracing overhead: the median,
    /// over the run's (untraced, traced) pass pairs, of traced wall over
    /// untraced wall, minus 1.
    pub fn per_layer(&self, setup_stages: &[(&'static str, f64)]) -> Result<Values, String> {
        let mut v = Values::zeroed(PER_LAYER);
        v.set_all(setup_stages)?;
        let first = self.traced.first().ok_or("no traced passes ran")?;
        for (name, _) in &first.layers {
            let vals: Vec<f64> = self
                .traced
                .iter()
                .map(|p| {
                    p.layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|&(_, x)| normalised(name, x, p.slowdown))
                        .ok_or_else(|| format!("traced pass lacks {name}"))
                })
                .collect::<Result<_, _>>()?;
            v.set(name, median(&vals).unwrap_or(0.0))?;
        }
        let ratios: Vec<f64> = self
            .plain
            .iter()
            .zip(&self.traced)
            .map(|(u, t)| t.wall_s / u.wall_s)
            .collect();
        v.set(
            "trace.overhead_frac",
            median(&ratios).ok_or("no pass pairs")? - 1.0,
        )?;
        let slowdowns: Vec<f64> = self.all().map(|p| p.slowdown).collect();
        v.set("gauge.slowdown", median(&slowdowns).ok_or("no passes")?)?;
        Ok(v)
    }
}
