//! `stream`: an open arrival trace replayed in simulated time through the
//! calendar scheduler with LkT on a capacity-bounded engine — the
//! scheduler and the engine's miss path do the work, the memo mostly
//! takes writes (misses, inserts, evictions), ML does nothing. One thread.

use crate::measure::{self_time, Clock, Gauge, BOOKKEEPING_SENSITIVITY};
use crate::runner::{run_passes, set_up, Context, Pass, RunCfg, Stages};
use crate::trace::{engine_layers, Fingerprint, RecordingStp};
use crate::Outcome;
use ecost_apps::{App, InputSize};
use ecost_core::classify::RuleClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::{CacheBudget, EvalEngine};
use ecost_core::features::profile_app;
use ecost_core::mapping::{run_ecost_open_stream, FaultSetup, OpenArrival, OpenOptions};
use ecost_core::pairing::{PairingMode, PairingPolicy};
use ecost_core::stp::{LktStp, Stp};
use ecost_core::EcostContext;
use ecost_sim::arrivals::generate;
use ecost_sim::TraceSpec;
use std::time::Instant;

/// One application per broad resource class; the trace's Zipf ranks map
/// onto it (the `scale_out` bench's catalog).
const CATALOG: [App; 4] = [App::Wc, App::St, App::Gp, App::Fp];
/// Arrivals replayed per pass.
const ARRIVALS: usize = 40_000;
/// Cluster size.
const NODES: usize = 100;
/// Peak arrival rate of the trace's rate cycle, per simulated second.
const PEAK_RATE_PER_S: f64 = 4.0;
/// Entry budget of each of the engine's three memo tables.
const CACHE_BUDGET: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct State {
    stream: Vec<OpenArrival>,
    model: Lkt,
    pairing: PairingPolicy,
}

/// The fitted LkT technique with the database and classifier it uses.
struct Lkt {
    db: ConfigDatabase,
    classifier: RuleClassifier,
    lkt: LktStp,
}

/// Fit LkT: its training is the database build (Fig 8), on an unbounded
/// engine of its own — only the streaming engine carries the budget
/// under test.
fn fit_lkt(seed: u64) -> Result<Lkt, String> {
    let db = ConfigDatabase::build_subset(
        &EvalEngine::atom(),
        &CATALOG,
        &[InputSize::Small],
        0.0,
        seed,
    )
    .ctx("database build")?;
    Ok(Lkt {
        classifier: RuleClassifier::fit(&db.signatures),
        lkt: LktStp::from_database(&db),
        db,
    })
}

/// One set-up; its stage timings are normalised by the gauge, which is
/// read after each stage.
fn build(seed: u64, gauge: &mut Gauge) -> Result<(State, Stages), String> {
    let spec = TraceSpec::alibaba_like(seed, CATALOG.len(), PEAK_RATE_PER_S);
    let (arrivals, gen_s) = gauge.time(|| generate(&spec, ARRIVALS))?;
    let stream: Vec<OpenArrival> = arrivals
        .ctx("trace generation")?
        .iter()
        .map(|a| OpenArrival {
            app: CATALOG[a.app.min(CATALOG.len() - 1)],
            input_mb: a.size_mb,
            at_s: a.at_s,
        })
        .collect();
    let (model, db_s) = gauge.time(|| fit_lkt(seed))?;
    let model = model?;
    let state = State {
        stream,
        model,
        pairing: PairingPolicy::default(),
    };
    Ok((
        state,
        vec![("arrivals.generate_s", gen_s), ("database.build_s", db_s)],
    ))
}

/// One pass: fit LkT afresh (timed as `fit_s`, not part of the pass, so
/// its samples spread over the run), then replay the whole trace on a
/// fresh bounded engine.
fn pass(st: &State, gauge: &mut Gauge, seed: u64, traced: bool) -> Result<Pass, String> {
    gauge.read();
    let (model, fit_s) = gauge.time(|| fit_lkt(seed))?;
    let model = model?;
    let mut engine = EvalEngine::atom().with_cache_budget(CacheBudget::entries(CACHE_BUDGET));
    engine.set_phase_timing(traced);
    let rec = RecordingStp::new(&model.lkt);
    let cx = EcostContext {
        db: &model.db,
        stp: &rec,
        classifier: &model.classifier,
        pairing: &st.pairing,
        noise: 0.0,
        seed,
        pairing_mode: PairingMode::DecisionTree,
    };
    let before = engine.stats();
    let (clock, start) = (Clock::start()?, Instant::now());
    let run = run_ecost_open_stream(
        &engine,
        NODES,
        &st.stream,
        OpenOptions::default(),
        &cx,
        &FaultSetup::default(),
    )
    .ctx("open stream")?;
    let (raw_wall_s, raw_cpu_s, end) = (clock.wall_s(), clock.cpu_s()?, Instant::now());
    gauge.read();
    // The replay is mostly bookkeeping (its engine misses take about a
    // quarter of it); the database build above is sweeps.
    let slowdown = gauge.slowdown(start, end)?.powf(BOOKKEEPING_SENSITIVITY);
    let (wall_s, cpu_s) = (raw_wall_s / slowdown, raw_cpu_s / slowdown);

    // Output checks: the bounded engine stays inside its budget and the
    // replay is large enough to make it evict.
    let cap = 3 * CACHE_BUDGET;
    let stats = engine.stats();
    if engine.cached_entries() > cap {
        return Err(format!(
            "stream ended with {} memo entries, above its budget of {cap}",
            engine.cached_entries()
        ));
    }
    if stats.evictions == before.evictions {
        return Err("stream never evicted: too small to exercise the bounded memo".into());
    }

    let rec = rec.finish();
    let (calls, choose_s) = (rec.calls, rec.secs);
    let mut fp = Fingerprint::default();
    fp.add(&run.run.makespan_s.to_bits().to_le_bytes());
    fp.add(&run.run.energy_dyn_j.to_bits().to_le_bytes());
    fp.add(format!("{:?}", run.report).as_bytes());
    let mut p = Pass {
        wall_s,
        cpu_s,
        decisions: ARRIVALS as u64,
        decide_wall_s: wall_s,
        fit_s,
        // The scheduler makes its decisions inside one call: a decision's
        // host latency is the time since the previous decision returned.
        latencies_ms: rec.between_ms.iter().map(|ms| ms / slowdown).collect(),
        attempted: calls,
        failed: rec.failed,
        sim_edp: run.run.edp_wall(engine.idle_w()),
        fingerprint: fp.value(),
        slowdown,
        ..Pass::default()
    };
    if traced {
        let engine_l = engine_layers(&engine, before);
        let miss_s = engine_l
            .iter()
            .find(|(n, _)| n == "engine.miss_s")
            .map_or(0.0, |&(_, v)| v);
        p.layers = vec![
            ("stp.lkt.choose_calls".into(), calls as f64),
            ("stp.lkt.choose_s".into(), choose_s),
            ("stp.lkt.self_s".into(), choose_s),
            (
                "scheduler.self_s".into(),
                self_time(raw_wall_s, &[miss_s, choose_s]),
            ),
            (
                "scheduler.solo_fallbacks".into(),
                run.report.solo_fallbacks as f64,
            ),
            (
                "scheduler.config_fallbacks".into(),
                run.report.config_fallbacks as f64,
            ),
        ];
        p.layers.extend(engine_l);
    }
    Ok(p)
}

/// Mean EDP error (%) of LkT's choice against the COLAO oracle for every
/// pair of the stream's catalog at the two input sizes its database never
/// saw — the stream's Table 2 number. Fixed inputs, so every seed judges
/// the same pairs. Untimed.
fn lkt_ape_pct(st: &State, seed: u64) -> Result<f64, String> {
    let engine = EvalEngine::atom();
    let idle = engine.idle_w();
    let cores = engine.testbed().node.cores;
    let (mut sum, mut n) = (0.0, 0);
    for (i, &a) in CATALOG.iter().enumerate() {
        for &b in &CATALOG[i..] {
            for size in [InputSize::Medium, InputSize::Large] {
                let mb = size.per_node_mb();
                let sig_a = profile_app(&engine, a.profile(), mb, 0.0, seed).ctx("profiling")?;
                let sig_b = profile_app(&engine, b.profile(), mb, 0.0, seed).ctx("profiling")?;
                let cfg = st
                    .model
                    .lkt
                    .choose(&sig_a, &sig_b, cores)
                    .ctx("LkT choice")?;
                let edp = engine
                    .pair_metrics(a.profile(), mb, b.profile(), mb, cfg)
                    .ctx("realising a choice")?
                    .edp_wall(idle);
                let oracle = engine
                    .best_pair(a.profile(), mb, b.profile(), mb)
                    .ctx("COLAO oracle")?
                    .metrics
                    .edp_wall(idle);
                sum += (100.0 * (edp - oracle) / oracle).max(0.0);
                n += 1;
            }
        }
    }
    Ok(sum / f64::from(n))
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut gauge = Gauge::new();
    let setup = set_up(SETUP_REPS, &mut gauge, |g| build(cfg.seed, g))?;
    let st = &setup.state;
    let passes = run_passes(cfg, |traced| pass(st, &mut gauge, cfg.seed, traced))?;
    let ape = if cfg.trace {
        0.0
    } else {
        lkt_ape_pct(st, cfg.seed)?
    };
    Outcome::new(&passes, cfg, setup.setup_s, ape, &setup.stages)
}
