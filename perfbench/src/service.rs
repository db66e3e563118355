//! `service`: a closed loop of two client threads asking the tuning
//! service for decisions over the whole catalog at quantised input sizes,
//! under one admission-limit profile and one transient/slow fault profile
//! — the only workload that exercises admission, the degradation ladder
//! and the breaker. The memo mostly takes reads; a stated share of the
//! requests are cold pair sweeps.

use crate::measure::{median, Clock, Gauge, BOOKKEEPING_SENSITIVITY};
use crate::runner::{run_passes, Context, Pass, RunCfg};
use crate::trace::{engine_layers, Fingerprint};
use crate::Outcome;
use ecost_apps::{App, InputSize};
use ecost_core::engine::EvalEngine;
use ecost_core::{
    BreakerConfig, DecidedConfig, ServiceConfig, ServiceError, TuningDecision, TuningRequest,
    TuningService,
};
use ecost_sim::{RequestFaults, ServiceFaultSpec};
use rand::seq::SliceRandom as _;
use rand::Rng as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Client threads, each sending its next request after the last reply.
const CLIENTS: usize = 2;
/// Chunks a pass's requests go out in, with a gauge reading between.
const CHUNKS: usize = 4;
/// Requests per pass for each hot pair (11 pairs at the medium size,
/// swept when the service warms up): the memo's reads.
const HOT_REPEATS: usize = 90;
/// Requests per pass for each catalog entry alone (33 entries, swept at
/// warm-up): about 30% of requests tune a single application.
const SOLO_REPEATS: usize = 14;
/// Ring offsets of the cold pairs, each asked once per pass at the small
/// and the large size: 44 pair sweeps nobody asked for before, 2.9% of the
/// 1496 requests — enough that p99 lands among the real sweeps.
const COLD_OFFSETS: [usize; 2] = [1, 2];
/// Simulated service workers, and the limit on real evaluations in
/// flight. Below [`CLIENTS`], so that the in-flight check can fail: a
/// service that ignored its limit would run both clients' evaluations at
/// once.
const MAX_INFLIGHT: usize = 1;

/// An (application, quantised input size) catalog entry.
type Key = (App, InputSize);

/// The admission-limit profile: one worker, a 64-deep queue, a
/// 45-simulated-second deadline that a slowed full sweep cannot meet, and
/// a breaker that half-opens after 10 simulated seconds (short open
/// spells keep the share of short-circuited requests, which depends on
/// arrival order, small).
fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_inflight: Some(MAX_INFLIGHT),
        max_queue: Some(64),
        deadline_s: 45.0,
        breaker: BreakerConfig {
            threshold: 5,
            cooldown_s: 10.0,
        },
        ..ServiceConfig::default()
    }
}

/// The fault profile, scripted per request so that every seed injects
/// the same faults: of every ten asks for the same hot pair or solo
/// entry, two hit a burst of three transient failures (beyond the two
/// retries: tier failures feed the breaker) and one runs 12× slow (a full
/// sweep no longer fits the deadline). Cold pair sweeps run healthy.
fn scripted_faults(repeat: usize) -> RequestFaults {
    match repeat % 10 {
        0 | 1 => RequestFaults {
            transient_failures: 3,
            slow_factor: 1.0,
        },
        2 => RequestFaults {
            transient_failures: 0,
            slow_factor: 12.0,
        },
        _ => RequestFaults::none(),
    }
}

/// The request schedule and the hot set a fresh service warms.
struct Schedule {
    requests: Vec<TuningRequest>,
    /// Per request: whether it asks for a cold pair sweep.
    cold: Vec<bool>,
    keys: Vec<Key>,
    hot: Vec<(Key, Key)>,
}

/// A fixed multiset of requests — hot pairs, solo entries and cold pairs,
/// each with its scripted faults — in seeded order with seeded simulated
/// arrival gaps. The multiset is the same for every seed, so seeds change
/// order and timing (and through them queueing and the breaker) but not
/// the work asked for, and runs stay comparable.
fn schedule(seed: u64) -> Schedule {
    let keys: Vec<Key> = crate::catalog()
        .into_iter()
        .flat_map(|a| InputSize::ALL.map(|s| (a, s)))
        .collect();
    let sized = |pairs: Vec<(App, App)>, size: InputSize| {
        pairs
            .into_iter()
            .map(move |(a, b)| ((a, size), (b, size)))
            .collect::<Vec<_>>()
    };
    let hot = sized(crate::ring(1), InputSize::Medium);
    // (app, partner, scripted faults, cold)
    let mut asks: Vec<(Key, Option<Key>, RequestFaults, bool)> = Vec::new();
    for &(a, b) in &hot {
        asks.extend((0..HOT_REPEATS).map(|r| (a, Some(b), scripted_faults(r), false)));
    }
    for &k in &keys {
        asks.extend((0..SOLO_REPEATS).map(|r| (k, None, scripted_faults(r), false)));
    }
    for offset in COLD_OFFSETS {
        for size in [InputSize::Small, InputSize::Large] {
            let cold = sized(crate::ring(offset), size);
            asks.extend(
                cold.into_iter()
                    .map(|(a, b)| (a, Some(b), RequestFaults::none(), true)),
            );
        }
    }
    let mut rng = ecost_sim::rng::stream(seed, "perfbench.service");
    asks.shuffle(&mut rng);
    let deadline = service_config().deadline_s;
    let mb = |k: Key| k.1.per_node_mb();
    let mut t = 0.0_f64;
    let cold = asks.iter().map(|ask| ask.3).collect();
    let requests = asks
        .into_iter()
        .enumerate()
        .map(|(seq, (a, b, faults, _))| {
            // 10 simulated seconds apart on average, twice the cost of a
            // full sweep, so the one worker's queue forms only in bursts.
            t += rng.gen_range(4.0..16.0);
            let mut req = match b {
                Some(b) => TuningRequest::pair(seq as u64, t, deadline, (a.0, mb(a)), (b.0, mb(b))),
                None => TuningRequest::solo(seq as u64, t, deadline, a.0, mb(a)),
            };
            req.faults = Some(faults);
            req
        })
        .collect();
    Schedule {
        requests,
        cold,
        keys,
        hot,
    }
}

/// Stable encoding of one outcome for the fingerprint.
fn outcome_str(out: &Result<TuningDecision, ServiceError>) -> String {
    match out {
        Ok(d) => format!(
            "{}|{:?}|deg={}|q={}|s={}|r={}|sc={}",
            d.tier.name(),
            d.config,
            d.degraded,
            d.queued_s.to_bits(),
            d.service_s.to_bits(),
            d.retries,
            d.breaker_short_circuit
        ),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Simulated EDP of a decision, and with `judge` the EDP of the COLAO
/// oracle for its request.
fn realise(
    engine: &EvalEngine,
    req: &TuningRequest,
    cfg: DecidedConfig,
    judge: bool,
) -> Result<(f64, Option<f64>), String> {
    let idle = engine.idle_w();
    let (p, mb) = (req.app.profile(), req.input_mb);
    let (edp, oracle) = match (cfg, req.partner) {
        (DecidedConfig::Pair(pc), Some((b, b_mb))) => (
            engine
                .pair_metrics(p, mb, b.profile(), b_mb, pc)
                .map(|m| m.edp_wall(idle)),
            judge.then(|| {
                engine
                    .best_pair(p, mb, b.profile(), b_mb)
                    .map(|r| r.metrics.edp_wall(idle))
            }),
        ),
        (DecidedConfig::Solo(tc), None) => (
            engine.solo_metrics(p, mb, tc).map(|m| m.edp_wall(idle)),
            judge.then(|| engine.best_solo(p, mb).map(|r| r.metrics.edp_wall(idle))),
        ),
        _ => {
            return Err(format!(
                "decision {cfg:?} does not match request {}",
                req.seq
            ))
        }
    };
    Ok((
        edp.ctx("realising a decision")?,
        oracle.transpose().ctx("COLAO oracle")?,
    ))
}

/// One pass: warm a fresh service, then drive the whole schedule through
/// it from [`CLIENTS`] threads. Returns the pass and the warm-up seconds,
/// which are not part of the pass. With `judge`, every decision is also
/// compared with the COLAO oracle for `ape_pct` (untimed; every pass makes
/// the same decisions, so one pass is judged).
fn pass(
    sch: &Schedule,
    gauge: &mut Gauge,
    seed: u64,
    traced: bool,
    judge: bool,
) -> Result<(Pass, f64), String> {
    gauge.read();
    let t_setup = Instant::now();
    let spent0 = gauge.spent_s();
    let mut engine = EvalEngine::atom();
    engine.set_phase_timing(traced);
    for &(app, size) in &sch.keys {
        engine
            .best_solo(app.profile(), size.per_node_mb())
            .ctx("warming solo sweeps")?;
    }
    gauge.read();
    let (warmed, fit_s) = gauge.time(|| -> Result<(), String> {
        for &((a, sa), (b, sb)) in &sch.hot {
            engine
                .best_pair(a.profile(), sa.per_node_mb(), b.profile(), sb.per_node_mb())
                .ctx("warming hot pair sweeps")?;
        }
        Ok(())
    })?;
    warmed?;
    let svc = TuningService::new(&engine, service_config(), ServiceFaultSpec::healthy(seed))
        .ctx("service")?;
    let t_ready = Instant::now();
    let setup_s = ((t_ready - t_setup).as_secs_f64() - (gauge.spent_s() - spent0))
        / gauge.slowdown(t_setup, t_ready)?;
    let _ = engine.take_phase_breakdown();
    let before = engine.stats();

    let slots: Mutex<Vec<Option<Result<TuningDecision, ServiceError>>>> =
        Mutex::new((0..sch.requests.len()).map(|_| None).collect());
    // The requests go out in chunks; after each, with both clients idle,
    // the gauge reads the machine, not them, and the chunk is normalised
    // by the slowdown read around it.
    let (start, mut wall_s, mut cpu_s) = (Instant::now(), 0.0, 0.0);
    let mut latencies = Vec::with_capacity(sch.requests.len());
    for chunk in sch.requests.chunks(sch.requests.len().div_ceil(CHUNKS)) {
        let next = AtomicUsize::new(0);
        let (clock, t0) = (Clock::start()?, Instant::now());
        let per_client: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut lat = Vec::with_capacity(chunk.len());
                        while let Some(req) = chunk.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let t0 = Instant::now();
                            let out = svc.decide(req);
                            lat.push((req.seq as usize, t0.elapsed().as_secs_f64() * 1e3));
                            slots
                                .lock()
                                .expect("a client panicked holding the outcome table")
                                [req.seq as usize] = Some(out);
                        }
                        lat
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().map_err(|_| "a client thread panicked".to_string()))
                .collect::<Result<_, _>>()
        })?;
        let (chunk_wall_s, chunk_cpu_s, t1) = (clock.wall_s(), clock.cpu_s()?, Instant::now());
        gauge.read();
        let slowdown = gauge.slowdown(t0, t1)?;
        wall_s += chunk_wall_s / slowdown;
        cpu_s += chunk_cpu_s / slowdown;
        latencies.extend(
            per_client
                .into_iter()
                .flatten()
                .map(|(seq, ms)| (seq, ms, slowdown)),
        );
    }
    let slowdown = gauge.slowdown(start, Instant::now())?;
    let engine_l = engine_layers(&engine, before);

    // Output check: real evaluations in flight never exceed the limit.
    let peak = svc.inflight_peak();
    if peak > MAX_INFLIGHT {
        return Err(format!(
            "in-flight peak {peak} exceeds the service limit {MAX_INFLIGHT}"
        ));
    }
    let outcomes = slots
        .into_inner()
        .map_err(|_| "a client panicked holding the outcome table")?;
    let mut fp = Fingerprint::default();
    let (mut ok, mut sim_edp, mut ape_sum, mut queued_s) = (0u64, 0.0, 0.0, 0.0);
    for (req, out) in sch.requests.iter().zip(&outcomes) {
        let out = out.as_ref().ok_or("a request was never answered")?;
        fp.add(outcome_str(out).as_bytes());
        if let Ok(d) = out {
            ok += 1;
            queued_s += d.queued_s;
            let (edp, oracle) = realise(&engine, req, d.config, judge)?;
            sim_edp += edp;
            if let Some(oracle) = oracle {
                ape_sum += (100.0 * (edp - oracle) / oracle).max(0.0);
            }
        }
    }
    let mut p = Pass {
        wall_s,
        cpu_s,
        decisions: ok,
        decide_wall_s: wall_s,
        fit_s,
        attempted: sch.requests.len() as u64,
        failed: sch.requests.len() as u64 - ok,
        sim_edp,
        fingerprint: fp.value(),
        ape_pct: ape_sum / ok.max(1) as f64,
        slowdown,
        ..Pass::default()
    };
    if traced {
        let r = svc.report();
        let decide_s = latencies.iter().map(|&(_, ms, _)| ms).sum::<f64>() * 1e-3;
        p.layers = [
            ("service.decided", r.decided as f64),
            ("service.shed", r.shed as f64),
            ("service.deadline_exceeded", r.deadline_exceeded as f64),
            ("service.tier_full", r.tier_full as f64),
            ("service.tier_windowed", r.tier_windowed as f64),
            ("service.tier_fallback", r.tier_fallback as f64),
            ("service.retries", r.retries as f64),
            ("service.breaker_trips", r.breaker_trips as f64),
            ("service.queue_peak", r.queue_peak as f64),
            ("service.inflight_peak", peak as f64),
            ("service.sim_queued_s", queued_s),
            ("service.decide_s", decide_s),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .chain(engine_l)
        .collect();
    }
    // A cold request's time is a pair sweep; every other request is
    // bookkeeping around the memo.
    p.latencies_ms = latencies
        .iter()
        .map(|&(seq, ms, slowdown)| {
            if sch.cold[seq] {
                ms / slowdown
            } else {
                ms / slowdown.powf(BOOKKEEPING_SENSITIVITY)
            }
        })
        .collect();
    Ok((p, setup_s))
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let sch = schedule(cfg.seed);
    let mut gauge = Gauge::new();
    let mut setups = Vec::new();
    let mut ape = None;
    let passes = run_passes(cfg, |traced| {
        let (p, setup_s) = pass(&sch, &mut gauge, cfg.seed, traced, ape.is_none())?;
        setups.push(setup_s);
        ape.get_or_insert(p.ape_pct);
        Ok(p)
    })?;
    // Each pass starts a fresh, warmed service: its warm-up is the
    // workload's set-up, repeated once per pass.
    let setup_s = median(&setups).ok_or("no set-ups")?;
    let ape = ape.ok_or("no pass was judged")?;
    Outcome::new(&passes, cfg, setup_s, ape, &[])
}
