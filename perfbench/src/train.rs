//! `train`: fit the three MLM families and let all four STP techniques
//! decide a fixed set of pairs — the one workload where `ecost_ml` and
//! `stp` do most of the work. Closed loop on one thread.

use crate::measure::{self_time, thread_cpu_s, Clock, Gauge};
use crate::runner::{run_passes, set_up, Context, Pass, RunCfg, Stages};
use crate::trace::{engine_layers, FamilyAcc, Fingerprint, RecordingStp, Timed};
use crate::Outcome;
use ecost_apps::{App, InputSize};
use ecost_core::classify::KnnAppClassifier;
use ecost_core::database::ConfigDatabase;
use ecost_core::engine::EvalEngine;
use ecost_core::features::{profile_catalog_app, AppSignature};
use ecost_core::stp::training::{build_training_data, TrainingData};
use ecost_core::stp::{LktStp, MlmStp, Stp};
use ecost_ml::model::Regressor;
use ecost_ml::{LinearRegression, Mlp, MlpConfig, RepTree, RepTreeConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// Counter measurement noise of the learning period (the harness's).
const NOISE: f64 = 0.03;
/// Sampled configurations per (pair, size) sweep: LR/REPTree rows.
const DENSE_CONFIGS: usize = 400;
/// Sampled configurations per (pair, size) sweep: MLP rows.
const MLP_CONFIGS: usize = 200;
/// MLP epochs: the harness's full-mode network with fewer epochs.
const MLP_EPOCHS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One decision pair with its COLAO-oracle EDP.
struct DecisionPair {
    a: App,
    b: App,
    size: InputSize,
    sig_a: AppSignature,
    sig_b: AppSignature,
    oracle_edp: f64,
}

/// Everything the passes share, built by one set-up.
struct State {
    engine: EvalEngine,
    lkt: LktStp,
    knn: KnnAppClassifier,
    dense: TrainingData,
    mlp_rows: TrainingData,
    pairs: Vec<DecisionPair>,
}

/// The fixed decision set: every app paired with the apps 1, 2 and 4
/// places after it (33 distinct pairs, unknown apps in most), input sizes
/// rotating; eight passes give the 1000 decision samples p99 needs. Fixed
/// so that seeds differ only in the learning period's noise and the row
/// sampling, and runs with different seeds stay comparable.
fn decision_pairs() -> Vec<(App, App, InputSize)> {
    let mut out = Vec::new();
    for offset in [1, 2, 4] {
        for (i, (a, b)) in crate::ring(offset).into_iter().enumerate() {
            out.push((a, b, InputSize::ALL[(i + offset) % InputSize::ALL.len()]));
        }
    }
    out
}

/// One set-up; its stage timings are normalised by the gauge, which is
/// read after each stage.
fn build(seed: u64, gauge: &mut Gauge) -> Result<(State, Stages), String> {
    let engine = EvalEngine::atom();
    let (db, db_s) = gauge.time(|| ConfigDatabase::build(&engine, NOISE, seed))?;
    let db = db.ctx("database build")?;

    let sigs: HashMap<(App, InputSize), [f64; 9]> =
        db.solos.iter().map(|s| ((s.app, s.size), s.sig)).collect();
    let sig_of = |app: App, size: InputSize| sigs.get(&(app, size)).copied().unwrap_or([0.0; 9]);
    let (rows, training_s) = gauge.time(|| {
        Ok::<_, String>((
            build_training_data(&engine, &sig_of, DENSE_CONFIGS, seed).ctx("dense rows")?,
            build_training_data(&engine, &sig_of, MLP_CONFIGS, seed ^ 0x11).ctx("MLP rows")?,
        ))
    })?;
    let (dense, mlp_rows) = rows?;
    let rows: usize = dense
        .values()
        .chain(mlp_rows.values())
        .map(|d| d.len())
        .sum();

    // The oracle sweeps are the rest of the set-up; the gauge is read
    // after each, so the set-up's slowdown tracks the host through them.
    let idle = engine.idle_w();
    let mut profiled: HashMap<(App, InputSize), AppSignature> = HashMap::new();
    let mut pairs = Vec::new();
    for (a, b, size) in decision_pairs() {
        for app in [a, b] {
            if let Entry::Vacant(slot) = profiled.entry((app, size)) {
                slot.insert(profile_catalog_app(&engine, app, size, NOISE, seed).ctx("profiling")?);
            }
        }
        let mb = size.per_node_mb();
        let (oracle, _) = gauge.time(|| engine.best_pair(a.profile(), mb, b.profile(), mb))?;
        let oracle = oracle.ctx("COLAO oracle")?;
        pairs.push(DecisionPair {
            a,
            b,
            size,
            sig_a: profiled[&(a, size)].clone(),
            sig_b: profiled[&(b, size)].clone(),
            oracle_edp: oracle.metrics.edp_wall(idle),
        });
    }
    let state = State {
        lkt: LktStp::from_database(&db),
        knn: KnnAppClassifier::fit(&db.signatures),
        engine,
        dense,
        mlp_rows,
        pairs,
    };
    Ok((
        state,
        vec![
            ("database.build_s", db_s),
            ("training.build_s", training_s),
            ("training.rows", rows as f64),
        ],
    ))
}

/// The MLP: the harness's full-mode hyperparameters (its fixed weight
/// seed included), fewer epochs.
fn mlp_config() -> MlpConfig {
    MlpConfig {
        hidden: vec![64, 32],
        epochs: MLP_EPOCHS,
        learning_rate: 0.02,
        lr_decay: 0.994,
        batch: 48,
        ..MlpConfig::default()
    }
}

/// The harness's fine-grained REPTree.
fn tree_config() -> RepTreeConfig {
    RepTreeConfig {
        max_depth: 32,
        min_samples_split: 4,
        min_samples_leaf: 1,
        prune_fraction: 0.1,
        ..RepTreeConfig::default()
    }
}

/// Per-technique `Stp::choose` spans of a pass: (technique, calls,
/// summed wall seconds; 0 in an untraced pass).
type ChooseSpans = [(&'static str, u64, f64); 4];

/// Per-family spans of a traced pass.
#[derive(Default)]
struct Families {
    lr: FamilyAcc,
    reptree: FamilyAcc,
    mlp: FamilyAcc,
}

/// One pass: fit LR, REPTree and MLP on every class pair, then let each
/// technique choose every decision pair and realise each choice. An
/// untraced pass calls the techniques directly; a traced one times each
/// call through a [`RecordingStp`].
fn pass<L: Regressor, R: Regressor, M: Regressor>(
    st: &State,
    gauge: &mut Gauge,
    traced: bool,
    make_lr: impl Fn() -> L,
    make_tree: impl Fn() -> R,
    make_mlp: impl Fn() -> M,
) -> Result<(Pass, ChooseSpans), String> {
    gauge.read();
    let (clock, start, spent0) = (Clock::start()?, Instant::now(), gauge.spent_s());
    let (lr, lr_s) = gauge.time(|| MlmStp::train(&st.dense, st.knn.clone(), "LR", make_lr))?;
    let (tree, tree_s) =
        gauge.time(|| MlmStp::train(&st.dense, st.knn.clone(), "REPTree", make_tree))?;
    let (mlp, mlp_s) =
        gauge.time(|| MlmStp::train(&st.mlp_rows, st.knn.clone(), "MLP", make_mlp))?;

    let names = ["lkt", "lr", "reptree", "mlp"];
    let models: [&dyn Stp; 4] = [&st.lkt, &lr, &tree, &mlp];
    let recorders = traced.then(|| models.map(RecordingStp::new));
    let techniques: [&dyn Stp; 4] = match &recorders {
        Some([a, b, c, d]) => [a, b, c, d],
        None => models,
    };
    let cores = st.engine.testbed().node.cores;
    let idle = st.engine.idle_w();
    let mut fp = Fingerprint::default();
    let (mut sim_edp, mut ape_sum, mut realised) = (0.0, 0.0, 0u64);
    let (mut calls, mut failed) = ([0u64; 4], 0u64);
    // A decision's latency is the CPU time this thread spent in the call:
    // the caller never waits, so that is its wall time less any time the
    // host stole, which would otherwise set the tail. The gauge is read
    // after every pair, and the pair's decisions are normalised by the
    // slowdown it read around them.
    let mut latencies_ms = Vec::with_capacity(st.pairs.len() * techniques.len());
    let mut decide_s = 0.0;
    for p in &st.pairs {
        let mb = p.size.per_node_mb();
        let t0 = Instant::now();
        let first = latencies_ms.len();
        for (stp, n) in techniques.iter().zip(&mut calls) {
            let c0 = thread_cpu_s()?;
            let chosen = stp.choose(&p.sig_a, &p.sig_b, cores);
            latencies_ms.push((thread_cpu_s()? - c0) * 1e3);
            *n += 1;
            let Ok(cfg) = chosen else {
                failed += 1;
                continue;
            };
            if cfg.a.mappers == 0 || cfg.b.mappers == 0 || cfg.cores() > cores {
                return Err(format!(
                    "{} chose {cfg:?} for {}-{}: not a split of the node's {cores} cores",
                    stp.name(),
                    p.a.name(),
                    p.b.name()
                ));
            }
            let edp = st
                .engine
                .pair_metrics(p.a.profile(), mb, p.b.profile(), mb, cfg)
                .ctx("realising a choice")?
                .edp_wall(idle);
            sim_edp += edp;
            ape_sum += (100.0 * (edp - p.oracle_edp) / p.oracle_edp).max(0.0);
            realised += 1;
            fp.add(format!("{cfg:?}").as_bytes());
        }
        let t1 = Instant::now();
        gauge.read();
        let slowdown = gauge.slowdown(t0, t1)?;
        decide_s += (t1 - t0).as_secs_f64() / slowdown;
        for ms in &mut latencies_ms[first..] {
            *ms /= slowdown;
        }
    }
    // The pass without the gauge's own readings.
    let slowdown = gauge.slowdown(start, Instant::now())?;
    let spent = gauge.spent_s() - spent0;
    let decisions: u64 = calls.iter().sum();
    let out = Pass {
        wall_s: (clock.wall_s() - spent) / slowdown,
        cpu_s: (clock.cpu_s()? - spent) / slowdown,
        decisions,
        decide_wall_s: decide_s,
        fit_s: lr_s + tree_s + mlp_s,
        latencies_ms,
        attempted: decisions,
        failed,
        sim_edp,
        fingerprint: fp.value(),
        ape_pct: ape_sum / realised.max(1) as f64,
        slowdown,
        ..Pass::default()
    };
    let secs = recorders.map_or([0.0; 4], |r| r.map(|rec| rec.finish().secs));
    Ok((out, std::array::from_fn(|i| (names[i], calls[i], secs[i]))))
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut gauge = Gauge::new();
    let setup = set_up(SETUP_REPS, &mut gauge, |g| build(cfg.seed, g))?;
    let mut st = setup.state;
    let passes = run_passes(cfg, |traced| {
        st.engine.set_phase_timing(traced);
        let _ = st.engine.take_phase_breakdown();
        let before = st.engine.stats();
        if !traced {
            let (p, _) = pass(
                &st,
                &mut gauge,
                false,
                LinearRegression::new,
                || RepTree::new(tree_config()),
                || Mlp::new(mlp_config()),
            )?;
            return Ok(p);
        }
        let fam = Families::default();
        let (mut p, per_tech) = pass(
            &st,
            &mut gauge,
            true,
            || Timed::new(LinearRegression::new(), &fam.lr),
            || Timed::new(RepTree::new(tree_config()), &fam.reptree),
            || Timed::new(Mlp::new(mlp_config()), &fam.mlp),
        )?;
        let families = [
            ("lr", &fam.lr),
            ("reptree", &fam.reptree),
            ("mlp", &fam.mlp),
        ];
        for (name, acc) in families {
            p.layers.push((format!("ml.{name}.fit_s"), acc.fit.secs()));
            p.layers.push((
                format!("ml.{name}.predict_calls"),
                acc.predict.calls() as f64,
            ));
            p.layers
                .push((format!("ml.{name}.predict_s"), acc.predict.secs()));
        }
        for (name, calls, secs) in per_tech {
            // Model prediction is the MLM techniques' child span.
            let predict_s = families
                .iter()
                .find(|(f, _)| *f == name)
                .map_or(0.0, |(_, acc)| acc.predict.secs());
            p.layers
                .push((format!("stp.{name}.choose_calls"), calls as f64));
            p.layers.push((format!("stp.{name}.choose_s"), secs));
            p.layers
                .push((format!("stp.{name}.self_s"), self_time(secs, &[predict_s])));
        }
        p.layers.extend(engine_layers(&st.engine, before));
        Ok(p)
    })?;
    let ape = passes.plain[0].ape_pct;
    Outcome::new(&passes, cfg, setup.setup_s, ape, &setup.stages)
}
