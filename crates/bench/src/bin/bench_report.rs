//! Tracked perf-regression harness for the simulator hot path.
//!
//! Times the three kernels the repo's wall-clock cost is made of and
//! writes a machine-readable `BENCH_sim.json` (path override:
//! `ECOST_BENCH_OUT`):
//!
//! 1. **solo sweep** — the full 160-point standalone configuration space
//!    per application, the kernel under profiling and ILAO;
//! 2. **pair sweep** — the co-located pair configuration space, the kernel
//!    under COLAO, the §6.2 database and the training set;
//! 3. **scheduler** — a full cluster run (queueing, placement, per-node
//!    event loops) under the untuned SNM policy.
//!
//! Every kernel is timed in two arms of identical shape: the *baseline*
//! arm drives the frozen pre-refactor executor
//! (`ecost_mapreduce::reference`: fresh allocating simulator per point),
//! and the *production* arm drives the [`EvalEngine`] exactly as every
//! library caller gets it — sweeps in batch-resident `f64x4` AMVA windows
//! of `MAX_BATCH_LANES` points, scheduler runs on pooled simulators. Both
//! arms are bit-identical in results (enforced by the `refactor_equivalence`
//! proptests and the engine's reference-oracle tests), so "events" counted
//! on one arm apply to the other: an event is one per-job execution
//! segment — one span per active job per event-loop step (sweeps count
//! stage completions, the closest deterministic proxy the outcome record
//! keeps).
//!
//! Alongside, the default run times the production sweeps with the AMVA
//! kernel pinned scalar (`production_no_simd`), so the SIMD delta is
//! tracked (`*_production_simd_off` keys in the trend row). A separate
//! single-threaded instrumented pass ([`EvalEngine::set_phase_timing`])
//! reports the production path's measured phase breakdown (solve / outer /
//! submit+reset / memo / event-loop) in the `phases` section.
//!
//! Flags: `--baseline` runs the baseline arms only (for A/B against an
//! older build); `--no-simd` pins the scalar AMVA kernel on every
//! production arm (rows get `"simd":"off"`, and the simd-off shadow arms
//! are skipped); `--threads N` sets the worker count for the
//! rayon-sharded arms (the row's `threads` context field reports it);
//! `--quick` (or `ECOST_QUICK=1`) shrinks every dimension for CI smoke
//! runs.
//!
//! Besides `BENCH_sim.json`, every run appends one compact row to the
//! `BENCH_trend.jsonl` trend store (path override: `ECOST_TREND_OUT`;
//! commit hash from `ECOST_COMMIT`, falling back to `GITHUB_SHA`). The
//! `trend_check` binary flags throughput regressions between comparable
//! rows.
//!
//! Walls in the single-digit-millisecond range are at the mercy of
//! thermal throttling and noisy neighbours, so every arm is measured in
//! several rounds *interleaved with its counterparts* and the minimum wall
//! is reported: slow drift hits all arms alike and the min discards it.

use ecost_apps::{App, InputSize, WorkloadScenario};
use ecost_bench::BenchError;
use ecost_core::engine::{EvalEngine, PhaseBreakdown, RetryPolicy};
use ecost_core::features::Testbed;
use ecost_core::mapping::{run_untuned_faulted, FaultSetup};
use ecost_mapreduce::reference::{run_colocated_reference, run_standalone_reference};
use ecost_mapreduce::{JobSpec, PairConfig, TuningConfig, MAX_BATCH_LANES};
use ecost_sim::FaultPlan;
use ecost_telemetry::{Recorder, TraceEvent};
use rayon::prelude::*;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Report schema version. Bump when the `BENCH_sim.json` shape changes
/// (new sections or renamed keys), never for additive arm entries inside
/// an existing section; the pinned unit test makes bumps deliberate.
const SCHEMA: &str = "ecost-bench-sim/4";

/// One timed measurement arm.
#[derive(Debug, Clone, Copy)]
struct Arm {
    wall_s: f64,
    sims: u64,
    events: u64,
}

impl Arm {
    fn sims_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.sims as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn events_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\n      \"wall_s\": {:.4},\n      \"sims\": {},\n      \
             \"sims_per_s\": {:.1},\n      \"events\": {},\n      \
             \"events_per_s\": {:.1}\n    }}",
            self.wall_s,
            self.sims,
            self.sims_per_s(),
            self.events,
            self.events_per_s()
        )
    }
}

/// Which arms this invocation measures.
#[derive(Debug, Clone, Copy)]
struct Arms {
    /// `false` runs the baseline arms only.
    production: bool,
    /// `false` pins the scalar AMVA kernel on every production arm.
    simd: bool,
}

impl Arms {
    fn label(&self) -> &'static str {
        if self.production {
            "all"
        } else {
            "baseline-only"
        }
    }

    /// The trend row's `simd` context value: production arms either all
    /// ran the vector kernel or all had it pinned scalar.
    fn simd_label(&self) -> &'static str {
        if self.simd {
            "on"
        } else {
            "off"
        }
    }
}

/// Pool accounting accumulated across the production arms.
#[derive(Debug, Clone, Copy, Default)]
struct PoolTotals {
    created: u64,
    reused: u64,
}

impl PoolTotals {
    fn absorb(&mut self, eng: &EvalEngine) {
        let s = eng.stats();
        self.created += s.sims_created;
        self.reused += s.sims_reused;
    }
}

fn solo_apps(quick: bool) -> Vec<App> {
    if quick {
        vec![App::Wc]
    } else {
        vec![App::Wc, App::St, App::Gp]
    }
}

/// Keep whichever measurement of the same deterministic work was faster.
fn faster(best: Option<Arm>, cur: Arm) -> Option<Arm> {
    match best {
        Some(b) if b.wall_s <= cur.wall_s => Some(b),
        _ => Some(cur),
    }
}

/// Production solo sweep: the engine's `sweep_solo` on one fresh memo
/// (every point is a miss, so every point simulates — the kernel, not the
/// cache, is timed). Same 160-point space per app as the baseline; events
/// are not observable through sweep metrics, the caller patches them in
/// from the baseline arm (bit-identical timelines).
fn solo_production(
    apps: &[App],
    mb: f64,
    simd: bool,
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let eng = EvalEngine::atom().with_simd(simd);
    let t0 = Instant::now();
    for app in apps {
        eng.sweep_solo(app.profile(), mb)?;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// Baseline solo sweep: the frozen pre-refactor executor, one fresh
/// allocating simulator per point.
fn solo_baseline(apps: &[App], mb: f64, configs: &[TuningConfig]) -> Result<Arm, BenchError> {
    let tb = Testbed::atom();
    let t0 = Instant::now();
    let mut events = 0u64;
    let mut sims = 0u64;
    for app in apps {
        let outs: Vec<_> = configs
            .par_iter()
            .map(|&cfg| {
                run_standalone_reference(
                    &tb.node,
                    &tb.fw,
                    JobSpec::from_profile(app.profile().clone(), mb, cfg),
                )
            })
            .collect::<Result<_, _>>()?;
        sims += outs.len() as u64;
        events += outs.iter().map(|o| o.timeline.len() as u64).sum::<u64>();
    }
    Ok(Arm {
        wall_s: t0.elapsed().as_secs_f64(),
        sims,
        events,
    })
}

/// Production pair sweep: the engine's full-space `pair_sweep` (the
/// batched windows only exist under the sweep, so this arm always covers
/// the whole space — in quick mode that is more points than the
/// stride-sampled baseline arm, which is why arms compare on `sims_per_s`,
/// not wall).
fn pair_production(
    a: App,
    b: App,
    mb: f64,
    simd: bool,
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let eng = EvalEngine::atom().with_simd(simd);
    let t0 = Instant::now();
    eng.pair_sweep(a.profile(), mb, b.profile(), mb)?;
    let wall_s = t0.elapsed().as_secs_f64();
    pool.absorb(&eng);
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// Baseline pair sweep: fresh reference simulator per point.
fn pair_baseline(a: App, b: App, mb: f64, pcs: &[PairConfig]) -> Result<Arm, BenchError> {
    let tb = Testbed::atom();
    let t0 = Instant::now();
    let runs: Vec<(Vec<ecost_mapreduce::JobOutcome>, f64)> = pcs
        .par_iter()
        .map(|&pc| {
            run_colocated_reference(
                &tb.node,
                &tb.fw,
                vec![
                    JobSpec::from_profile(a.profile().clone(), mb, pc.a),
                    JobSpec::from_profile(b.profile().clone(), mb, pc.b),
                ],
            )
        })
        .collect::<Result<_, _>>()?;
    let wall_s = t0.elapsed().as_secs_f64();
    let events = runs
        .iter()
        .flat_map(|(outs, _)| outs.iter())
        .map(|o| o.timeline.len() as u64)
        .sum();
    Ok(Arm {
        wall_s,
        sims: pcs.len() as u64,
        events,
    })
}

/// Scheduler workload geometry: (node count, workload).
fn scheduler_load(quick: bool) -> (usize, ecost_apps::Workload) {
    let nodes = if quick { 2 } else { 4 };
    let size = if quick {
        InputSize::Small
    } else {
        InputSize::Medium
    };
    (nodes, WorkloadScenario::Ws1.workload(size))
}

fn scheduler_setup() -> FaultSetup {
    FaultSetup {
        plan: FaultPlan::none(),
        retry: RetryPolicy::none(),
    }
}

/// Event count of the scheduler run: one span per per-job execution
/// segment, counted on a recording pass. The run is deterministic and
/// bit-identical across arms, so the count transfers to the separately
/// timed no-op-recorder passes.
fn scheduler_events(quick: bool) -> Result<u64, BenchError> {
    let (nodes, wl) = scheduler_load(quick);
    let counting = EvalEngine::with_recorder(Testbed::atom(), Recorder::recording());
    run_untuned_faulted(&counting, nodes, &wl, None, &scheduler_setup())?;
    Ok(counting
        .recorder()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Span { .. }))
        .count() as u64)
}

/// One timed pass of the streaming scheduler (wait queue, paired
/// placement, per-node event loops) under the untuned policy, fault-free.
/// `reference` routes every run through the frozen executor (the
/// baseline arm); otherwise the engine runs as in production.
fn scheduler_timed(
    quick: bool,
    reference: bool,
    simd: bool,
    pool: &mut PoolTotals,
) -> Result<Arm, BenchError> {
    let (nodes, wl) = scheduler_load(quick);
    let mut eng = EvalEngine::atom().with_simd(simd);
    eng.set_reference_executor(reference);
    let t0 = Instant::now();
    run_untuned_faulted(&eng, nodes, &wl, None, &scheduler_setup())?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !reference {
        pool.absorb(&eng);
    }
    Ok(Arm {
        wall_s,
        sims: eng.stats().runs_simulated,
        events: 0,
    })
}

/// One instrumented pass of the production path over a fresh engine —
/// the full solo sweep plus the full pair sweep, every point a miss —
/// with phase timing on, pinned to one rayon worker (restoring the
/// caller's `RAYON_NUM_THREADS`) so the summed per-thread buckets are
/// directly comparable to the wall. Returns the pass's wall nanoseconds
/// and the drained breakdown.
fn phase_pass(simd: bool, mb: f64) -> Result<(u64, PhaseBreakdown), BenchError> {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut eng = EvalEngine::atom().with_simd(simd);
    eng.set_phase_timing(true);
    let t0 = Instant::now();
    let run = eng
        .sweep_solo(App::Gp.profile(), mb)
        .and_then(|_| eng.pair_sweep(App::Gp.profile(), mb, App::St.profile(), mb));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    run?;
    Ok((wall_ns, eng.take_phase_breakdown()))
}

/// Fraction of a pass's wall spent in simulator checkout/submit/reset and
/// memo traffic — the overhead the batch-resident path fuses into the
/// window.
fn submit_reset_memo_share(wall_ns: u64, p: &PhaseBreakdown) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    (p.submit_reset_ns + p.memo_ns) as f64 / wall_ns as f64
}

/// JSON object for one instrumented pass.
fn phase_json(wall_ns: u64, p: &PhaseBreakdown) -> String {
    format!(
        "{{\n      \"wall_s\": {:.4},\n      \"solve_ns\": {},\n      \
         \"outer_ns\": {},\n      \"submit_reset_ns\": {},\n      \
         \"memo_ns\": {},\n      \"event_loop_ns\": {},\n      \
         \"submit_reset_memo_share\": {:.4}\n    }}",
        wall_ns as f64 * 1e-9,
        p.solve_ns,
        p.outer_ns,
        p.submit_reset_ns,
        p.memo_ns,
        p.event_loop_ns,
        submit_reset_memo_share(wall_ns, p)
    )
}

/// Emit one kernel section: scalar extras, then every present arm, then
/// every present ratio — comma placement handled by joining.
fn section(
    out: &mut String,
    name: &str,
    extra: &[(&str, String)],
    arms: &[(&str, Option<Arm>)],
    ratios: &[(&str, Option<f64>)],
) {
    let mut items: Vec<String> = Vec::new();
    for (k, v) in extra {
        items.push(format!("    \"{k}\": {v}"));
    }
    for (k, arm) in arms {
        if let Some(a) = arm {
            items.push(format!("    \"{k}\": {}", a.json()));
        }
    }
    for (k, r) in ratios {
        if let Some(r) = r {
            items.push(format!("    \"{k}\": {r:.2}"));
        }
    }
    let _ = writeln!(out, "  \"{name}\": {{");
    let _ = writeln!(out, "{}", items.join(",\n"));
    let _ = writeln!(out, "  }},");
}

/// Throughput ratio of `num` over `den` — rate-based, so it stays
/// meaningful when the arms covered different point counts.
fn rate_ratio(num: Option<Arm>, den: Option<Arm>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d.sims_per_s() > 0.0 => Some(n.sims_per_s() / d.sims_per_s()),
        _ => None,
    }
}

/// The trend row's commit context: `(commit id, dirty worktree)`.
///
/// Precedence: `ECOST_COMMIT`, then `GITHUB_SHA` (both trusted as clean —
/// CI benches a pristine checkout), then `git rev-parse --short HEAD`
/// with the dirty flag from `git status --porcelain`, so a local run's
/// row names the real commit it measured instead of `"uncommitted"`.
/// Outside a git worktree (or with no git binary) the old
/// `("uncommitted", dirty)` fallback survives.
fn commit_context() -> (String, bool) {
    if let Ok(c) = std::env::var("ECOST_COMMIT").or_else(|_| std::env::var("GITHUB_SHA")) {
        return (c, false);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let head = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let Some(head) = head else {
        return ("uncommitted".into(), true);
    };
    // A failed status query reports dirty: over-claiming dirt is safer
    // than stamping a mutated tree as the commit's performance.
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    (head, dirty)
}

/// Append the run's headline throughputs as one compact row to the trend
/// store (`ECOST_TREND_OUT`, default `BENCH_trend.jsonl`). Schema-
/// versioned; the commit context comes from [`commit_context`].
/// `trend_check` consumes these rows.
fn append_trend_row(
    arms: Arms,
    quick: bool,
    metrics: &[(&str, Option<Arm>)],
) -> Result<String, BenchError> {
    let path = std::env::var("ECOST_TREND_OUT").unwrap_or_else(|_| "BENCH_trend.jsonl".into());
    let (commit, dirty) = commit_context();
    if commit.contains('"') || commit.contains('\\') {
        return Err(BenchError::Invalid(format!(
            "commit id {commit:?} is not JSON-string safe"
        )));
    }
    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"schema\":\"ecost-bench-trend/1\",\"commit\":\"{commit}\",\"dirty\":{dirty},\
         \"mode\":\"{}\",\"arms\":\"{}\",\"threads\":{},\"simd\":\"{}\"",
        if quick { "quick" } else { "full" },
        arms.label(),
        rayon::current_num_threads(),
        arms.simd_label()
    );
    for (key, arm) in metrics {
        if let Some(a) = arm {
            let _ = write!(row, ",\"{key}_sims_per_s\":{:.1}", a.sims_per_s());
        }
    }
    row.push('}');
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{row}")?;
    Ok(path)
}

#[allow(clippy::too_many_lines)]
fn run(arms: Arms) -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().collect();
    let quick =
        std::env::var("ECOST_QUICK").is_ok_and(|v| v == "1") || args.iter().any(|a| a == "--quick");
    // The vendored rayon shim sizes its scope per call from this
    // variable, so setting it up front covers every parallel arm.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let n = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| BenchError::Invalid("--threads needs a positive integer".into()))?;
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    }
    let tb = Testbed::atom();
    let mb = InputSize::Small.per_node_mb();
    let rounds = if quick { 3 } else { 7 };
    let mut pool = PoolTotals::default();

    let solo_cfgs: Vec<TuningConfig> = TuningConfig::space(tb.node.cores).collect();
    let apps = solo_apps(quick);
    eprintln!(
        "[bench_report] solo sweep: {} apps x {} configs, {} rounds ({}, {} arms)…",
        apps.len(),
        solo_cfgs.len(),
        rounds,
        if quick { "quick" } else { "full" },
        arms.label()
    );
    let mut solo_base: Option<Arm> = None;
    let mut solo_prod: Option<Arm> = None;
    let mut solo_off: Option<Arm> = None;
    for _ in 0..rounds {
        solo_base = faster(solo_base, solo_baseline(&apps, mb, &solo_cfgs)?);
        if arms.production {
            solo_prod = faster(solo_prod, solo_production(&apps, mb, arms.simd, &mut pool)?);
        }
        // Shadow arm: same production sweep with the kernel pinned scalar,
        // so the SIMD delta itself is tracked by trend_check.
        if arms.production && arms.simd {
            solo_off = faster(solo_off, solo_production(&apps, mb, false, &mut pool)?);
        }
    }
    let solo_base = solo_base.ok_or(BenchError::Invalid("no solo rounds ran".into()))?;
    // Bit-identical arms: the baseline's event count transfers (sweep
    // metrics keep no timelines to count on the production arms).
    let with_solo_events = |arm: Option<Arm>| {
        arm.map(|mut a| {
            a.events = solo_base.events;
            a
        })
    };
    let (solo_prod, solo_off) = (with_solo_events(solo_prod), with_solo_events(solo_off));

    let all_pcs = PairConfig::space(tb.node.cores);
    let full_space = all_pcs.len();
    let stride = if quick { 32 } else { 1 };
    let pcs: Vec<PairConfig> = all_pcs.into_iter().step_by(stride).collect();
    eprintln!(
        "[bench_report] pair sweep: {} baseline configs ({} production), {rounds} rounds…",
        pcs.len(),
        full_space
    );
    let mut pair_base: Option<Arm> = None;
    let mut pair_prod: Option<Arm> = None;
    let mut pair_off: Option<Arm> = None;
    for _ in 0..rounds {
        pair_base = faster(pair_base, pair_baseline(App::Gp, App::St, mb, &pcs)?);
        if arms.production {
            pair_prod = faster(
                pair_prod,
                pair_production(App::Gp, App::St, mb, arms.simd, &mut pool)?,
            );
        }
        if arms.production && arms.simd {
            pair_off = faster(
                pair_off,
                pair_production(App::Gp, App::St, mb, false, &mut pool)?,
            );
        }
    }
    let pair_base = pair_base.ok_or(BenchError::Invalid("no pair rounds ran".into()))?;
    // Bit-identical arms: the baseline's event count is the event count
    // (the engine's pair memo keeps metrics, not timelines), but it only
    // transfers when the production arm covered the same point set.
    let with_pair_events = |arm: Option<Arm>| {
        arm.map(|mut a| {
            if a.sims == pair_base.sims {
                a.events = pair_base.events;
            }
            a
        })
    };
    let (pair_prod, pair_off) = (with_pair_events(pair_prod), with_pair_events(pair_off));

    eprintln!("[bench_report] scheduler run, {rounds} rounds…");
    let (nodes, wl) = scheduler_load(quick);
    let jobs = wl.jobs.len();
    let sched_events = scheduler_events(quick)?;
    let mut sched_base: Option<Arm> = None;
    let mut sched_prod: Option<Arm> = None;
    for _ in 0..rounds {
        sched_base = faster(
            sched_base,
            scheduler_timed(quick, true, arms.simd, &mut pool)?,
        );
        if arms.production {
            sched_prod = faster(
                sched_prod,
                scheduler_timed(quick, false, arms.simd, &mut pool)?,
            );
        }
    }
    let with_sched_events = |mut a: Arm| {
        a.events = sched_events;
        a
    };
    let sched_base =
        with_sched_events(sched_base.ok_or(BenchError::Invalid("no scheduler rounds ran".into()))?);
    let sched_prod = sched_prod.map(with_sched_events);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"arms\": \"{}\",", arms.label());
    let _ = writeln!(out, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(out, "  \"batch_lanes\": {MAX_BATCH_LANES},");
    let _ = writeln!(out, "  \"simd\": \"{}\",", arms.simd_label());
    let _ = writeln!(
        out,
        "  \"simd_backend\": \"{}\",",
        if arms.simd {
            ecost_sim::SimdBackend::detect().name()
        } else {
            "scalar"
        }
    );
    section(
        &mut out,
        "solo_sweep",
        &[
            ("apps", apps.len().to_string()),
            ("configs", solo_cfgs.len().to_string()),
        ],
        &[
            ("production", solo_prod),
            ("production_no_simd", solo_off),
            ("baseline", Some(solo_base)),
        ],
        &[
            ("speedup", rate_ratio(solo_prod, Some(solo_base))),
            ("speedup_simd", rate_ratio(solo_prod, solo_off)),
        ],
    );
    section(
        &mut out,
        "pair_sweep",
        &[("configs", pcs.len().to_string())],
        &[
            ("production", pair_prod),
            ("production_no_simd", pair_off),
            ("baseline", Some(pair_base)),
        ],
        &[
            ("speedup", rate_ratio(pair_prod, Some(pair_base))),
            ("speedup_simd", rate_ratio(pair_prod, pair_off)),
        ],
    );
    section(
        &mut out,
        "scheduler",
        &[("nodes", nodes.to_string()), ("jobs", jobs.to_string())],
        &[("production", sched_prod), ("baseline", Some(sched_base))],
        &[("speedup", rate_ratio(sched_prod, Some(sched_base)))],
    );
    if arms.production {
        eprintln!("[bench_report] phase breakdown: production path, 1 thread…");
        let (wall_ns, p) = phase_pass(arms.simd, mb)?;
        let _ = writeln!(out, "  \"phases\": {{");
        let _ = writeln!(out, "    \"production\": {}", phase_json(wall_ns, &p));
        let _ = writeln!(out, "  }},");
    }
    let _ = writeln!(out, "  \"pool\": {{");
    let _ = writeln!(out, "    \"sims_created\": {},", pool.created);
    let _ = writeln!(out, "    \"sims_reused\": {},", pool.reused);
    let total = pool.created + pool.reused;
    let frac = if total > 0 {
        pool.reused as f64 / total as f64
    } else {
        0.0
    };
    let _ = writeln!(out, "    \"reuse_frac\": {frac:.4}");
    out.push_str("  }\n}\n");

    let path = std::env::var("ECOST_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    std::fs::write(&path, &out)?;
    println!("{out}");
    eprintln!("[bench_report] wrote {path}");

    let trend_path = append_trend_row(
        arms,
        quick,
        &[
            ("solo_baseline", Some(solo_base)),
            ("solo_production", solo_prod),
            ("solo_production_simd_off", solo_off),
            ("pair_baseline", Some(pair_base)),
            ("pair_production", pair_prod),
            ("pair_production_simd_off", pair_off),
            ("sched_baseline", Some(sched_base)),
            ("sched_production", sched_prod),
        ],
    )?;
    eprintln!("[bench_report] appended trend row to {trend_path}");
    Ok(())
}

fn main() -> ExitCode {
    let arms = Arms {
        production: !std::env::args().any(|a| a == "--baseline"),
        simd: !std::env::args().any(|a| a == "--no-simd"),
    };
    ecost_bench::run_main("bench_report", || run(arms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_sim_schema_is_pinned() {
        // Consumers (CI smoke, DESIGN.md §11, external dashboards) key on
        // this exact string; a shape change must bump it here on purpose,
        // in the same commit that documents the new shape.
        assert_eq!(SCHEMA, "ecost-bench-sim/4");
    }

    #[test]
    fn commit_context_is_json_safe() {
        // Whatever source wins (env override, git, fallback), the id must
        // embed into the hand-rolled JSON row without escaping.
        let (commit, _dirty) = commit_context();
        assert!(!commit.is_empty());
        assert!(!commit.contains('"') && !commit.contains('\\'), "{commit}");
    }

    #[test]
    fn submit_reset_memo_share_is_a_fraction_of_wall() {
        let p = PhaseBreakdown {
            solve_ns: 600,
            outer_ns: 100,
            submit_reset_ns: 200,
            memo_ns: 100,
            event_loop_ns: 0,
        };
        assert!((submit_reset_memo_share(1000, &p) - 0.3).abs() < 1e-12);
        assert_eq!(submit_reset_memo_share(0, &p), 0.0);
    }
}
