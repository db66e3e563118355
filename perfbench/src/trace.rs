//! Timing adapters around the library's public extension points: a
//! [`Regressor`] wrapper handed to `MlmStp::train`, an [`Stp`] wrapper
//! handed to the decision callers, and counter deltas of the engine.
//! Nothing here reaches inside the library; every span starts and ends at
//! a public call.

use ecost_core::engine::{EngineStats, EvalEngine, EvalError};
use ecost_core::features::AppSignature;
use ecost_core::stp::Stp;
use ecost_mapreduce::PairConfig;
use ecost_ml::model::Regressor;
use ecost_ml::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Call count and summed duration of one span kind. The counters publish
/// no other data, so relaxed ordering suffices.
#[derive(Debug, Default)]
pub struct Acc {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Acc {
    fn add_since(&self, t0: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Spans recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Summed span time, seconds.
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Fit and predict spans of one model family.
#[derive(Debug, Default)]
pub struct FamilyAcc {
    /// `Regressor::fit` spans.
    pub fit: Acc,
    /// `Regressor::predict` spans (one per predicted row).
    pub predict: Acc,
}

/// A regressor whose fit and predict calls are timed into a
/// [`FamilyAcc`]; predictions are the wrapped model's, unchanged.
pub struct Timed<'a, M> {
    inner: M,
    acc: &'a FamilyAcc,
}

impl<'a, M: Regressor> Timed<'a, M> {
    /// Wrap `inner`, recording into `acc`.
    pub fn new(inner: M, acc: &'a FamilyAcc) -> Timed<'a, M> {
        Timed { inner, acc }
    }
}

impl<M: Regressor> Regressor for Timed<'_, M> {
    fn fit(&mut self, data: &Dataset) {
        let t0 = Instant::now();
        self.inner.fit(data);
        self.acc.fit.add_since(t0);
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let t0 = Instant::now();
        let y = self.inner.predict(row);
        self.acc.predict.add_since(t0);
        y
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An STP whose `choose` calls are timed and their outcomes counted. It
/// also keeps, per call, the time since the previous call returned: the
/// caller's work per decision, this call included.
pub struct RecordingStp<'a> {
    inner: &'a dyn Stp,
    gaps: Mutex<Gaps>,
    acc: Acc,
    failed: AtomicU64,
}

/// Return-to-return gaps between consecutive calls.
#[derive(Debug, Default)]
struct Gaps {
    ms: Vec<f64>,
    last_return: Option<Instant>,
}

/// What a [`RecordingStp`] saw.
#[derive(Debug)]
pub struct Recorded {
    /// Calls made.
    pub calls: u64,
    /// Summed call time, seconds.
    pub secs: f64,
    /// Calls that did not return `Ok`.
    pub failed: u64,
    /// Time from each call's return to the next call's return, ms.
    pub between_ms: Vec<f64>,
}

impl<'a> RecordingStp<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn Stp) -> RecordingStp<'a> {
        RecordingStp {
            inner,
            gaps: Mutex::new(Gaps::default()),
            acc: Acc::default(),
            failed: AtomicU64::new(0),
        }
    }

    /// Everything recorded.
    pub fn finish(self) -> Recorded {
        Recorded {
            calls: self.acc.calls(),
            secs: self.acc.secs(),
            failed: self.failed.into_inner(),
            between_ms: self
                .gaps
                .into_inner()
                .expect("a decision caller panicked while recording a gap")
                .ms,
        }
    }
}

impl Stp for RecordingStp<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn choose(
        &self,
        a: &AppSignature,
        b: &AppSignature,
        cores: u32,
    ) -> Result<PairConfig, EvalError> {
        let t0 = Instant::now();
        let out = self.inner.choose(a, b, cores);
        let done = Instant::now();
        self.acc.add_since(t0);
        if out.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let mut gaps = self
            .gaps
            .lock()
            .expect("a decision caller panicked while recording a gap");
        if let Some(prev) = gaps.last_return.replace(done) {
            gaps.ms.push((done - prev).as_secs_f64() * 1e3);
        }
        out
    }
}

/// The engine's per-layer metrics over one pass: counter deltas between
/// `before` and the engine's state now, plus the drained phase timers
/// (zero unless phase timing was on).
pub fn engine_layers(engine: &EvalEngine, before: EngineStats) -> Vec<(String, f64)> {
    let now = engine.stats();
    let hits = (now.hits - before.hits) as f64;
    let misses = (now.misses - before.misses) as f64;
    let runs = (now.runs_simulated - before.runs_simulated) as f64;
    let miss_s = now.wall_seconds - before.wall_seconds;
    let ph = engine.take_phase_breakdown();
    [
        ("engine.hits", hits),
        ("engine.misses", misses),
        (
            "engine.hit_rate",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "engine.evictions",
            (now.evictions - before.evictions) as f64,
        ),
        ("engine.resident_entries", engine.cached_entries() as f64),
        ("engine.runs_simulated", runs),
        (
            "engine.sims_reused",
            (now.sims_reused - before.sims_reused) as f64,
        ),
        ("engine.miss_s", miss_s),
        (
            "engine.sims_per_s",
            if miss_s > 0.0 { runs / miss_s } else { 0.0 },
        ),
        ("engine.phase.solve_s", ph.solve_ns as f64 * 1e-9),
        ("engine.phase.outer_s", ph.outer_ns as f64 * 1e-9),
        (
            "engine.phase.submit_reset_s",
            ph.submit_reset_ns as f64 * 1e-9,
        ),
        ("engine.phase.memo_s", ph.memo_ns as f64 * 1e-9),
        ("engine.phase.event_loop_s", ph.event_loop_ns as f64 * 1e-9),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// FNV-1a fold of a pass's decisions, in decision order.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Fold `bytes` in.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The fold so far.
    pub fn value(self) -> u64 {
        self.0
    }
}
