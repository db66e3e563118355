//! Approximate Mean Value Analysis (Bard–Schweitzer AMVA) for multiclass
//! closed queueing networks.
//!
//! ## Why a queueing model?
//!
//! A MapReduce job with `m` mapper slots is, at the node level, a *closed*
//! system: each slot repeatedly (1) reads a block from the shared disk, then
//! (2) computes on its private core. The slot count never changes during a
//! stage, so the right performance model is a closed network with `m`
//! customers per job:
//!
//! * the private cores form a **delay station** (no queueing — every slot owns
//!   a core), contributing the think time `Z`;
//! * the disk (and, cluster-wide, the NIC) is a **processor-sharing station**
//!   contested by *all* co-located jobs.
//!
//! This structure is what creates the paper's co-location headroom: a single
//! I/O-bound job with few slots leaves the disk idle while its slots compute
//! (`U_disk = X·D_disk < 1`), and a co-located job's requests soak up exactly
//! that idle time. AMVA gives us each job's steady-state task throughput under
//! contention in microseconds of compute, which is what lets the brute-force
//! oracle of the paper (84 480 runs) be swept in seconds.
//!
//! ## Algorithm
//!
//! Bard–Schweitzer fixed point: queue lengths seed residence times,
//! residence times give throughputs (Little's law on the full cycle),
//! throughputs refresh queue lengths; iterate with damping until the queue
//! estimate is stable. For a single class this is exact in the limit and
//! within a few percent of exact MVA for small populations — adequate here,
//! since model error is swamped by profile calibration error.

use crate::error::SimError;
use crate::simd::{self, LaneVec, SimdBackend};

/// Label for a shared processor-sharing station (used for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedStation {
    /// Human-readable name, e.g. `"disk"` or `"nic"`.
    pub name: &'static str,
}

/// Demand description of one customer class (= one co-located job).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDemand {
    /// Customer population `N_j` — the job's slot count. Fractional
    /// populations are allowed (used for tail-wave corrections).
    pub population: f64,
    /// Think time `Z_j` (seconds per cycle spent at the private cores).
    pub think_time_s: f64,
    /// Service demand at each shared station (seconds per cycle).
    pub demands_s: Vec<f64>,
}

impl ClassDemand {
    fn validate(&self, stations: usize) -> Result<(), SimError> {
        if !self.population.is_finite() || self.population < 0.0 {
            return Err(SimError::InvalidDemand(
                "population must be finite and >= 0",
            ));
        }
        if !self.think_time_s.is_finite() || self.think_time_s < 0.0 {
            return Err(SimError::InvalidDemand(
                "think time must be finite and >= 0",
            ));
        }
        if self.demands_s.len() != stations {
            return Err(SimError::InvalidDemand(
                "demand vector length != station count",
            ));
        }
        if self.demands_s.iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err(SimError::InvalidDemand(
                "station demand must be finite and >= 0",
            ));
        }
        if self.population > 0.0 {
            let total: f64 = self.think_time_s + self.demands_s.iter().sum::<f64>();
            if total <= 0.0 {
                return Err(SimError::InvalidDemand(
                    "class with customers needs positive total demand",
                ));
            }
        }
        Ok(())
    }
}

/// Converged AMVA solution.
#[derive(Debug, Clone)]
pub struct AmvaSolution {
    /// Per-class cycle throughput `X_j` (cycles/second).
    pub throughput: Vec<f64>,
    /// Per-class, per-station mean queue length `Q[j][s]`.
    pub queue: Vec<Vec<f64>>,
    /// Per-station utilisation `U_s = Σ_j X_j·D_{j,s}`, clamped to `[0, 1]`.
    pub station_util: Vec<f64>,
    /// Per-station *total* mean queue length (customers at or in service).
    pub station_queue: Vec<f64>,
    /// Fixed-point iterations used.
    pub iterations: usize,
}

impl AmvaSolution {
    /// Mean number of class-`j` customers currently *thinking* (at their
    /// private cores) — by Little's law, `X_j · Z_j`.
    pub fn thinking(&self, class: usize, classes: &[ClassDemand]) -> f64 {
        self.throughput[class] * classes[class].think_time_s
    }
}

/// Convergence tolerance on queue lengths.
const TOL: f64 = 1e-7;
/// Iteration budget; typical problems converge in < 60 iterations.
const MAX_ITER: usize = 4000;
/// Damping factor for the queue update (guards oscillation at heavy load).
const DAMPING: f64 = 0.5;

/// Reusable solver state for the Bard–Schweitzer fixed point.
///
/// The executor calls AMVA inside a ~200-iteration outer fixed point on
/// *every* rate re-solve, so the solver must not touch the heap once warm.
/// All working vectors live here and are grown monotonically (`clear` +
/// `resize` keeps capacity, so after the first solve at a given problem
/// size every subsequent solve is allocation-free). [`solve`] is a thin
/// wrapper over this type, so both entry points share one arithmetic path
/// and produce bit-identical results.
#[derive(Debug, Default)]
pub struct AmvaScratch {
    /// Queue lengths, row-major: `q[j * stations + s]`.
    q: Vec<f64>,
    /// Per-class throughput.
    x: Vec<f64>,
    /// Per-class residence times (reused across classes within an iteration).
    r: Vec<f64>,
    /// Total queue per station.
    qtot: Vec<f64>,
    station_util: Vec<f64>,
    station_queue: Vec<f64>,
    nc: usize,
    stations: usize,
    iterations: usize,
}

impl AmvaScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> AmvaScratch {
        AmvaScratch::default()
    }

    /// Solve the network in place. Identical semantics (and bit-identical
    /// results) to [`solve`]; the converged state is read back through the
    /// accessors below.
    ///
    /// The fixed point is decomposed into [`Self::begin`] (validate + seed),
    /// [`Self::iterate`] (one Bard–Schweitzer step) and [`Self::finish`]
    /// (derived per-station figures) so [`AmvaBatch`] can drive the *exact*
    /// same arithmetic lockstep across independent lanes.
    pub fn solve(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        self.begin(classes, stations)?;
        let mut residual = f64::INFINITY;
        for _ in 0..MAX_ITER {
            residual = self.iterate(classes);
            if residual < TOL {
                break;
            }
        }
        self.convergence_err(residual)?;
        self.finish(classes);
        Ok(())
    }

    /// Validate the problem, size the buffers and seed the fixed point.
    fn begin(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        self.begin_sized(classes, stations)?;
        // Seed: spread each population across stations + think.
        for (j, c) in classes.iter().enumerate() {
            if c.population <= 0.0 {
                continue;
            }
            let share = c.population / (stations as f64 + 1.0);
            for (qv, d) in self.q[j * stations..(j + 1) * stations]
                .iter_mut()
                .zip(&c.demands_s)
            {
                *qv = if *d > 0.0 { share } else { 0.0 };
            }
        }
        Ok(())
    }

    /// The validation/sizing half of [`AmvaScratch::begin`], without the
    /// queue seed. Resident windows start here: their seed is recomputed
    /// inside [`Soa::pack_window`] every round (same expression, same
    /// bits), so spreading it into the scalar scratch as well would be
    /// dead work — nothing reads `q` before [`Soa::retire`] writes the
    /// converged queues back.
    fn begin_sized(&mut self, classes: &[ClassDemand], stations: usize) -> Result<(), SimError> {
        for c in classes {
            c.validate(stations)?;
        }
        let nc = classes.len();
        self.nc = nc;
        self.stations = stations;
        self.q.clear();
        self.q.resize(nc * stations, 0.0);
        self.x.clear();
        self.x.resize(nc, 0.0);
        self.r.clear();
        self.r.resize(stations, 0.0);
        self.qtot.clear();
        self.qtot.resize(stations, 0.0);
        self.iterations = 0;
        Ok(())
    }

    /// One Bard–Schweitzer iteration; returns the residual (max queue
    /// delta). Hot loop: row slices are hoisted out of the station loops so
    /// the indexing below is bounds-checked once per class, not once per
    /// access. Every floating-point operation and its order is unchanged
    /// from the pre-split implementation (the executor's bit-identity
    /// property tests pin this).
    #[inline]
    fn iterate(&mut self, classes: &[ClassDemand]) -> f64 {
        self.iterations += 1;
        let stations = self.stations;
        let AmvaScratch { q, x, r, qtot, .. } = self;
        // Total queue per station.
        for v in qtot.iter_mut() {
            *v = 0.0;
        }
        for row in q.chunks_exact(stations.max(1)) {
            for (qt, v) in qtot.iter_mut().zip(row) {
                *qt += v;
            }
        }
        let mut residual = 0.0_f64;
        for (j, c) in classes.iter().enumerate() {
            if c.population <= 0.0 {
                x[j] = 0.0;
                continue;
            }
            let n = c.population;
            let qrow = &mut q[j * stations..(j + 1) * stations];
            let demands = &c.demands_s[..stations];
            let mut r_total = 0.0;
            for v in r.iter_mut() {
                *v = 0.0;
            }
            for s in 0..stations {
                let d = demands[s];
                if d <= 0.0 {
                    continue;
                }
                // Bard–Schweitzer: a class-j arrival sees the other
                // classes' full queues plus (N_j-1)/N_j of its own.
                let others = qtot[s] - qrow[s];
                let own = if n > 1.0 {
                    qrow[s] * (n - 1.0) / n
                } else {
                    0.0
                };
                r[s] = d * (1.0 + others + own);
                r_total += r[s];
            }
            let xj = n / (c.think_time_s + r_total);
            x[j] = xj;
            for s in 0..stations {
                let new_q = xj * r[s];
                let delta = new_q - qrow[s];
                residual = residual.max(delta.abs());
                qrow[s] += DAMPING * delta;
            }
        }
        residual
    }

    /// The scalar loop's post-exit convergence test, verbatim.
    fn convergence_err(&self, residual: f64) -> Result<(), SimError> {
        if residual >= TOL * 10.0 && residual.is_finite() && residual > 1e-3 {
            return Err(SimError::NoConvergence {
                iterations: self.iterations,
                residual,
            });
        }
        Ok(())
    }

    /// Derive the per-station utilisation/queue figures from the converged
    /// fixed point.
    fn finish(&mut self, classes: &[ClassDemand]) {
        let stations = self.stations;
        self.station_util.clear();
        self.station_util.resize(stations, 0.0);
        self.station_queue.clear();
        self.station_queue.resize(stations, 0.0);
        for (j, c) in classes.iter().enumerate() {
            for s in 0..stations {
                self.station_util[s] += self.x[j] * c.demands_s[s];
                self.station_queue[s] += self.q[j * stations + s];
            }
        }
        for u in &mut self.station_util {
            *u = u.clamp(0.0, 1.0);
        }
    }

    /// Per-class cycle throughput `X_j` from the last solve.
    pub fn throughput(&self) -> &[f64] {
        &self.x[..self.nc]
    }

    /// Mean queue length of class `j` at station `s` from the last solve.
    pub fn queue(&self, class: usize, station: usize) -> f64 {
        self.q[class * self.stations + station]
    }

    /// Per-station utilisation (clamped to `[0, 1]`) from the last solve.
    pub fn station_util(&self) -> &[f64] {
        &self.station_util[..self.stations]
    }

    /// Per-station total mean queue length from the last solve.
    pub fn station_queue(&self) -> &[f64] {
        &self.station_queue[..self.stations]
    }

    /// Fixed-point iterations used by the last solve.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Materialise the last solve as an owned [`AmvaSolution`].
    fn to_solution(&self) -> AmvaSolution {
        let queue = if self.stations == 0 {
            vec![Vec::new(); self.nc]
        } else {
            self.q[..self.nc * self.stations]
                .chunks(self.stations)
                .map(|c| c.to_vec())
                .collect()
        };
        AmvaSolution {
            throughput: self.x[..self.nc].to_vec(),
            queue,
            station_util: self.station_util[..self.stations].to_vec(),
            station_queue: self.station_queue[..self.stations].to_vec(),
            iterations: self.iterations,
        }
    }
}

/// Solve the network. `stations` is the number of shared PS stations; every
/// class must provide exactly that many demands.
///
/// Classes with zero population are carried through with zero throughput.
///
/// ```
/// use ecost_sim::amva::{solve, ClassDemand};
///
/// // One job with 2 slots: each cycle computes 3 s then reads 1 s of disk.
/// let job = ClassDemand {
///     population: 2.0,
///     think_time_s: 3.0,
///     demands_s: vec![1.0],
/// };
/// let sol = solve(&[job], 1).unwrap();
/// // Nearly two tasks per 4 s-cycle; the disk is mostly idle (≈ fill-in
/// // headroom for a co-located job).
/// assert!(sol.throughput[0] > 0.45 && sol.throughput[0] < 0.5);
/// assert!(sol.station_util[0] < 0.5);
/// ```
pub fn solve(classes: &[ClassDemand], stations: usize) -> Result<AmvaSolution, SimError> {
    let mut scratch = AmvaScratch::new();
    scratch.solve(classes, stations)?;
    Ok(scratch.to_solution())
}

/// Lane-interleaved batch of *independent* AMVA solves over one
/// shape-uniform *resident window*.
///
/// `K` unrelated fixed points advance in lockstep: each global round runs
/// one Bard–Schweitzer iteration in every still-unconverged lane. A lane's
/// loop-carried dependency — next iteration's queues feed on this one's —
/// is what caps the scalar solver (DESIGN.md §11: a dependent divide chain),
/// but *across* lanes the rounds are independent, so interleaving them lets
/// out-of-order execution overlap the chains.
///
/// [`AmvaBatch::begin_window`] validates a window of lanes that share one
/// class × station shape; each [`AmvaBatch::solve_window`] then runs the
/// exact scalar [`AmvaScratch::solve`] sequence in every live lane: same
/// seed, same per-iteration arithmetic order, same damping, same
/// convergence test and iteration count. Converged (or failed) lanes are
/// compacted out of later rounds and never re-touched. Every lane is
/// therefore bit-identical to a scalar solve of the same problem, at any
/// width from 1 to the caller's lane cap.
///
/// Lane buffers grow on first use and are reused afterwards; a warm batch
/// allocates nothing as long as problem sizes do not grow.
///
/// The lane loop runs on an explicit `f64x4` vector backend
/// ([`SimdBackend`], auto-detected; see `crate::simd`): four adjacent
/// columns advance per vector step, with the odd tail (live width ≢ 0
/// mod 4) taking the scalar lane loop. Backends are bit-identical by
/// construction, so the choice never shows up in results — only in
/// throughput.
#[derive(Debug)]
pub struct AmvaBatch {
    lanes: Vec<AmvaScratch>,
    residual: Vec<f64>,
    soa: Soa,
    backend: SimdBackend,
    /// `(classes, stations, width)` of the open window; `None` when no
    /// window is open.
    ///
    /// No queue seed is stored: `begin`'s population spread depends only
    /// on each class's population and the *signs* of its demands — both
    /// fixed across a window's solves — so [`Soa::pack_window`] recomputes
    /// it in place each solve with the same expression (and therefore the
    /// same bits), even after [`Soa::retire`] scrambles the working columns.
    shape: Option<(usize, usize, usize)>,
}

impl Default for AmvaBatch {
    fn default() -> AmvaBatch {
        AmvaBatch {
            lanes: Vec::new(),
            residual: Vec::new(),
            soa: Soa::default(),
            backend: SimdBackend::detect(),
            shape: None,
        }
    }
}

/// Structure-of-arrays state for shape-uniform windows: every per-lane
/// quantity is stored lane-contiguous (`[... logical index ...][lane]`
/// with a fixed column stride), so the lane loop — the innermost loop of
/// every round phase — walks unit-stride memory with no per-lane pointer
/// chasing. That contiguity is what actually buys the interleaving win:
/// each lane's loop-carried chain (queues → residence → throughput →
/// queues, through a divide) stalls a scalar solve, and K adjacent
/// independent lanes give out-of-order execution real work to overlap
/// into those stalls.
///
/// Converged lanes are *compacted out*: the last live column is swapped
/// into the retiring column's slot (a handful of moves), so live width
/// shrinks as lanes finish and dead lanes are never re-touched — which
/// both preserves bit-identity and keeps late rounds from paying for
/// drained lanes.
#[derive(Debug, Default)]
struct Soa {
    /// Column stride (the window's initial live width).
    stride: usize,
    /// Queue lengths, `[class × station][lane]`.
    q: Vec<f64>,
    /// Per-class throughput, `[class][lane]`.
    x: Vec<f64>,
    /// Station demands, `[class × station][lane]`.
    dem: Vec<f64>,
    /// Population, `[class][lane]`.
    pop: Vec<f64>,
    /// Precomputed `population - 1.0` (bit-identical hoist), `[class][lane]`.
    nm1: Vec<f64>,
    /// Think time, `[class][lane]`.
    think: Vec<f64>,
    /// Total queue per station, `[station][lane]` (per-round scratch).
    qtot: Vec<f64>,
    /// Residence times, `[station][lane]` (per-class scratch).
    r: Vec<f64>,
    /// Residence-time accumulator, `[lane]` (per-class scratch).
    rtot: Vec<f64>,
    /// This round's residual, `[lane]`.
    res: Vec<f64>,
    /// Iterations taken so far, `[lane]`.
    iters: Vec<usize>,
    /// Which batch lane each live column belongs to, `[lane]`.
    lane_of: Vec<usize>,
}

impl Soa {
    /// One lockstep Bard–Schweitzer round over the first `kw` columns.
    /// Each column executes exactly the floating-point sequence of
    /// [`AmvaScratch::iterate`] — same class order, same station order,
    /// same accumulation order, `(q·(n-1))/n` association included — so
    /// results stay bit-identical to scalar solves; only the interleaving
    /// across lanes differs.
    ///
    /// The vector backends peel the widest `f64x4`-aligned prefix of the
    /// live columns into [`round_chunks_impl`] and run the remaining tail
    /// columns (`kw mod 4`) through the scalar span. Columns are fully
    /// independent, so splitting them between kernels cannot change any
    /// column's bits.
    fn round(&mut self, kw: usize, nc: usize, stations: usize, backend: SimdBackend) {
        for it in self.iters[..kw].iter_mut() {
            *it += 1;
        }
        for v in self.res[..kw].iter_mut() {
            *v = 0.0;
        }
        let kw4 = match backend {
            SimdBackend::Scalar => 0,
            _ => kw & !3,
        };
        if kw4 > 0 {
            simd::round_chunks(backend, self.span(kw4, nc, stations));
        }
        if kw4 < kw {
            self.round_span(kw4, kw, nc, stations);
        }
    }

    /// Borrow the SoA state as a [`RoundSpan`] over the first `kw4` live
    /// columns for the vector kernel.
    fn span(&mut self, kw4: usize, nc: usize, stations: usize) -> RoundSpan<'_> {
        RoundSpan {
            q: &mut self.q,
            x: &mut self.x,
            dem: &self.dem,
            pop: &self.pop,
            nm1: &self.nm1,
            think: &self.think,
            qtot: &mut self.qtot,
            r: &mut self.r,
            res: &mut self.res,
            ks: self.stride,
            kw4,
            nc,
            stations,
        }
    }

    /// The scalar round body over columns `lo..hi` — the original
    /// lane-innermost loops, also serving as the vector backends' tail
    /// path (and, via `lo = 0, hi = kw`, as the whole `Scalar` arm).
    fn round_span(&mut self, lo: usize, hi: usize, nc: usize, stations: usize) {
        let ks = self.stride;
        let w = hi - lo;
        let Soa {
            q,
            x,
            dem,
            pop,
            nm1,
            think,
            qtot,
            r,
            rtot,
            res,
            ..
        } = self;
        let rtot = &mut rtot[lo..hi];
        let res = &mut res[lo..hi];
        // Total queue per station, accumulated in class order. The first
        // class assigns instead of zero-then-add: queues are never -0.0
        // (seeded non-negative; round-to-nearest sums only produce +0.0),
        // so `q` and `0.0 + q` are the same bits.
        for j in 0..nc {
            for s in 0..stations {
                let base = (j * stations + s) * ks + lo;
                let qrow = &q[base..base + w];
                let qb = s * ks + lo;
                let qt = &mut qtot[qb..qb + w];
                if j == 0 {
                    qt[..w].copy_from_slice(qrow);
                } else {
                    for l in 0..w {
                        qt[l] += qrow[l];
                    }
                }
            }
        }
        for j in 0..nc {
            let cb = j * ks + lo;
            // Class-row slices hoisted once: the station loops below then
            // index only length-`w` slices, so bounds checks vanish.
            let prow = &pop[cb..cb + w];
            let nrow = &nm1[cb..cb + w];
            let trow = &think[cb..cb + w];
            let xrow = &mut x[cb..cb + w];
            // Class prologue: zero-population lanes emit x = 0 and sit
            // the class out (their scratch writes below are never read).
            for l in 0..w {
                if prow[l] <= 0.0 {
                    xrow[l] = 0.0;
                } else {
                    rtot[l] = 0.0;
                }
            }
            // Residence times, lanes innermost. Zero-demand stations get
            // `r = 0.0` written in-pass — the value the scalar kernel's
            // up-front zeroing leaves there.
            for s in 0..stations {
                let base = (j * stations + s) * ks + lo;
                let qrow = &q[base..base + w];
                let drow = &dem[base..base + w];
                let qb = s * ks + lo;
                let qt = &qtot[qb..qb + w];
                let rrow = &mut r[qb..qb + w];
                for l in 0..w {
                    let n = prow[l];
                    if n <= 0.0 {
                        continue;
                    }
                    let d = drow[l];
                    if d <= 0.0 {
                        rrow[l] = 0.0;
                        continue;
                    }
                    let qjs = qrow[l];
                    let others = qt[l] - qjs;
                    let own = if n > 1.0 { qjs * nrow[l] / n } else { 0.0 };
                    let rv = d * (1.0 + others + own);
                    rrow[l] = rv;
                    rtot[l] += rv;
                }
            }
            // Little's law on the full cycle: one divide per lane.
            for l in 0..w {
                let n = prow[l];
                if n > 0.0 {
                    xrow[l] = n / (trow[l] + rtot[l]);
                }
            }
            // Damped queue update + residual, lanes innermost again.
            for s in 0..stations {
                let base = (j * stations + s) * ks + lo;
                let qrow = &mut q[base..base + w];
                let qb = s * ks + lo;
                let rrow = &r[qb..qb + w];
                for l in 0..w {
                    if prow[l] <= 0.0 {
                        continue;
                    }
                    let new_q = xrow[l] * rrow[l];
                    let delta = new_q - qrow[l];
                    res[l] = res[l].max(delta.abs());
                    qrow[l] += DAMPING * delta;
                }
            }
        }
    }

    /// Retire column `col`: copy its converged state out to its lane's
    /// scalar scratch, then compact by moving the last live column
    /// (`kw - 1`) into its slot. The caller shrinks the live width.
    fn retire(
        &mut self,
        col: usize,
        kw: usize,
        nc: usize,
        stations: usize,
        lanes: &mut [AmvaScratch],
        residual: &mut [f64],
    ) {
        let ks = self.stride;
        let lane = self.lane_of[col];
        let sc = &mut lanes[lane];
        for j in 0..nc {
            for s in 0..stations {
                sc.q[j * stations + s] = self.q[(j * stations + s) * ks + col];
            }
            sc.x[j] = self.x[j * ks + col];
        }
        sc.iterations = self.iters[col];
        residual[lane] = self.res[col];
        let last = kw - 1;
        if col != last {
            for j in 0..nc {
                for s in 0..stations {
                    let idx = (j * stations + s) * ks;
                    self.q[idx + col] = self.q[idx + last];
                    self.dem[idx + col] = self.dem[idx + last];
                }
                let cb = j * ks;
                self.x[cb + col] = self.x[cb + last];
                self.pop[cb + col] = self.pop[cb + last];
                self.nm1[cb + col] = self.nm1[cb + last];
                self.think[cb + col] = self.think[cb + last];
            }
            self.res[col] = self.res[last];
            self.iters[col] = self.iters[last];
            self.lane_of[col] = self.lane_of[last];
        }
    }

    /// Load the live columns of a resident window. The queue seed is
    /// recomputed in place (`begin`'s population spread: it depends only on
    /// class population and demand signs, both fixed across the window's
    /// solves, so re-evaluating the same expression reproduces the same
    /// bits), demands/think/populations are re-read from `problems` (they
    /// carry the caller's current values), and buffers are resized without
    /// zero-fill: every cell the round kernel reads is either written here
    /// or written inside the round before its first read (`qtot`/`r`
    /// assign-then-use, `x` stored for every live column each round, `res`
    /// zeroed by [`Soa::round`]).
    fn pack_window(
        &mut self,
        problems: &[(&[ClassDemand], usize)],
        live: &[usize],
        nc: usize,
        stations: usize,
    ) -> usize {
        self.lane_of.clear();
        self.lane_of.extend_from_slice(live);
        let kw = live.len();
        self.stride = kw;
        self.q.resize(nc * stations * kw, 0.0);
        self.dem.resize(nc * stations * kw, 0.0);
        self.x.resize(nc * kw, 0.0);
        self.pop.resize(nc * kw, 0.0);
        self.nm1.resize(nc * kw, 0.0);
        self.think.resize(nc * kw, 0.0);
        self.qtot.resize(stations * kw, 0.0);
        self.r.resize(stations * kw, 0.0);
        self.rtot.resize(kw, 0.0);
        self.res.resize(kw, 0.0);
        self.iters.resize(kw, 0);
        for it in self.iters[..kw].iter_mut() {
            *it = 0;
        }
        for (col, &lane) in live.iter().enumerate() {
            let classes = problems[lane].0;
            for (j, c) in classes.iter().enumerate() {
                let cb = j * kw;
                self.pop[cb + col] = c.population;
                self.nm1[cb + col] = c.population - 1.0;
                self.think[cb + col] = c.think_time_s;
                let seeded = c.population > 0.0;
                let share = c.population / (stations as f64 + 1.0);
                for s in 0..stations {
                    let idx = (j * stations + s) * kw;
                    let d = c.demands_s[s];
                    self.dem[idx + col] = d;
                    self.q[idx + col] = if seeded && d > 0.0 { share } else { 0.0 };
                }
            }
        }
        kw
    }
}

/// Borrowed view of the SoA state handed to the vector round kernel
/// ([`round_chunks_impl`]): the first `kw4` live columns (a multiple of
/// 4) of every lane-contiguous array, plus the window's shape. Exists so
/// the kernel can live behind a trait-generic function without a
/// ten-argument signature.
pub(crate) struct RoundSpan<'a> {
    /// Queue lengths, `[class × station][lane]`.
    pub(crate) q: &'a mut [f64],
    /// Per-class throughput, `[class][lane]`.
    pub(crate) x: &'a mut [f64],
    /// Station demands, `[class × station][lane]`.
    pub(crate) dem: &'a [f64],
    /// Population, `[class][lane]`.
    pub(crate) pop: &'a [f64],
    /// Precomputed `population - 1.0`, `[class][lane]`.
    pub(crate) nm1: &'a [f64],
    /// Think time, `[class][lane]`.
    pub(crate) think: &'a [f64],
    /// Total queue per station, `[station][lane]` (per-round scratch).
    pub(crate) qtot: &'a mut [f64],
    /// Residence times, `[station][lane]` (per-class scratch).
    pub(crate) r: &'a mut [f64],
    /// This round's residual, `[lane]`.
    pub(crate) res: &'a mut [f64],
    /// Column stride (the window's initial live width).
    pub(crate) ks: usize,
    /// Vector-covered live width (`live width & !3`).
    pub(crate) kw4: usize,
    /// Classes per lane.
    pub(crate) nc: usize,
    /// Shared stations per lane.
    pub(crate) stations: usize,
}

/// The vector round body over the first `kw4` columns (`kw4 % 4 == 0`),
/// four lanes per step, generic over the `f64x4` backend. Per lane this
/// is exactly the scalar [`Soa::round_span`] floating-point sequence; the
/// differences are purely structural and bit-neutral:
///
/// * The station-total and residence accumulators live in registers
///   instead of memory — same adds, same order, and f64 registers hold
///   exactly the stored value (no x87-style extended precision).
/// * Per-lane branches become masks + blends. Dead lanes (population ≤ 0)
///   and zero-demand stations blend `rv = 0.0` into residence state; the
///   running residence total starts at `+0.0` and rv ≥ demand > 0 on
///   every live add, so it is never `-0.0` and adding a masked lane's
///   `+0.0` is bit-exact. A masked lane's discarded alternative (e.g. the
///   `(q·(n-1))/n` divide when `n ≤ 1`) may produce inf/NaN; IEEE 754
///   arithmetic is non-trapping and the blend throws the value away.
/// * The residual `f64::max` becomes `select(|Δ| > res, |Δ|, res)` —
///   bit-identical for the non-NaN, non-negative values the reduction
///   sees (on ties either pick is the same bits).
#[inline(always)]
pub(crate) fn round_chunks_impl<V: LaneVec>(span: RoundSpan<'_>) {
    let RoundSpan {
        q,
        x,
        dem,
        pop,
        nm1,
        think,
        qtot,
        r,
        res,
        ks,
        kw4,
        nc,
        stations,
    } = span;
    let zero = V::splat(0.0);
    let one = V::splat(1.0);
    let damp = V::splat(DAMPING);
    for l in (0..kw4).step_by(4) {
        // Total queue per station for these four lanes, accumulated in
        // class order exactly like the scalar kernel (assign, then add).
        for s in 0..stations {
            let mut qt = V::load(q, s * ks + l);
            for j in 1..nc {
                qt = qt.add(V::load(q, (j * stations + s) * ks + l));
            }
            qt.store(qtot, s * ks + l);
        }
        for j in 0..nc {
            let cb = j * ks + l;
            let n = V::load(pop, cb);
            let live = n.gt(zero);
            let nm1v = V::load(nm1, cb);
            // Residence times; the per-lane total stays in a register
            // across the station walk. Dead lanes accumulate +0.0 per
            // station — bit-neutral (see the doc comment) — and their
            // r-row scratch writes are never read.
            let mut rtot = zero;
            for s in 0..stations {
                let base = (j * stations + s) * ks + l;
                let qjs = V::load(q, base);
                let d = V::load(dem, base);
                let qt = V::load(qtot, s * ks + l);
                let others = qt.sub(qjs);
                // `(q·(n-1))/n`, left-associative like the scalar kernel.
                let own = V::select(n.gt(one), qjs.mul(nm1v).div(n), zero);
                let rv = d.mul(one.add(others).add(own));
                let rv = V::select(live.and(d.gt(zero)), rv, zero);
                rv.store(r, s * ks + l);
                rtot = rtot.add(rv);
            }
            // Little's law; dead lanes emit x = 0.0 (the scalar
            // prologue's value).
            let xv = V::select(live, n.div(V::load(think, cb).add(rtot)), zero);
            xv.store(x, cb);
            // Damped queue update + residual max, dead lanes held.
            let mut resv = V::load(res, l);
            for s in 0..stations {
                let base = (j * stations + s) * ks + l;
                let qv = V::load(q, base);
                let delta = xv.mul(V::load(r, s * ks + l)).sub(qv);
                let absd = delta.abs();
                resv = V::select(live.and(absd.gt(resv)), absd, resv);
                V::select(live, qv.add(damp.mul(delta)), qv).store(q, base);
            }
            resv.store(res, l);
        }
    }
}

impl AmvaBatch {
    /// Empty batch; lanes are created on first [`AmvaBatch::begin_window`].
    pub fn new() -> AmvaBatch {
        AmvaBatch::default()
    }

    /// Select the vector backend for the lane-interleaved kernel. The
    /// request is validated against the running CPU (an unsupported
    /// backend falls back to the portable lanes); every backend is
    /// bit-identical, so this is a throughput knob, never a results knob.
    pub fn set_simd_backend(&mut self, backend: SimdBackend) {
        self.backend = backend.validated();
    }

    /// The vector backend the next [`AmvaBatch::solve_window`] will use.
    pub fn simd_backend(&self) -> SimdBackend {
        self.backend
    }

    /// Lane `i`'s solver state after [`AmvaBatch::solve_window`] — read it
    /// with the scalar accessors ([`AmvaScratch::throughput`],
    /// [`AmvaScratch::queue`], [`AmvaScratch::station_util`],
    /// [`AmvaScratch::iterations`], …).
    pub fn lane(&self, i: usize) -> &AmvaScratch {
        &self.lanes[i]
    }

    /// Open a *resident window* over `problems` (one lane each, width ≥ 1):
    /// validate every class once and size every lane, so repeated
    /// [`AmvaBatch::solve_window`] calls over the same window skip that
    /// per-solve bookkeeping.
    ///
    /// Every lane must share the first lane's class and station counts;
    /// an empty or mixed-shape window is a typed
    /// [`SimError::InvalidWindow`], and so is any class that fails
    /// validation (the lowest-indexed failing lane's error). On error no
    /// window is open.
    ///
    /// Contract for the solves that follow: the *shape*, each class's
    /// population, and the sign of every demand must stay fixed across
    /// `solve_window` calls — exactly what an outer contention fixed point
    /// does, varying nothing but demand magnitudes and think times. Under
    /// that contract each lane of every solve is bit-identical to a fresh
    /// scalar [`AmvaScratch::solve`] of the same problem.
    pub fn begin_window(&mut self, problems: &[(&[ClassDemand], usize)]) -> Result<(), SimError> {
        self.shape = None;
        let Some(&(first, stations)) = problems.first() else {
            return Err(SimError::InvalidWindow("empty window"));
        };
        let nc = first.len();
        if problems
            .iter()
            .any(|&(classes, st)| classes.len() != nc || st != stations)
        {
            return Err(SimError::InvalidWindow(
                "lanes differ in class or station count",
            ));
        }
        let k = problems.len();
        while self.lanes.len() < k {
            self.lanes.push(AmvaScratch::new());
        }
        self.residual.clear();
        self.residual.resize(k, f64::INFINITY);
        for (i, &(classes, st)) in problems.iter().enumerate() {
            self.lanes[i].begin_sized(classes, st)?;
        }
        self.shape = Some((nc, stations, k));
        Ok(())
    }

    /// One full lockstep solve of the open resident window's `live` lanes,
    /// minus the validation and buffer sizing that
    /// [`AmvaBatch::begin_window`] already paid. `problems` must be the
    /// window's full lane array (indexed by original lane id, carrying the
    /// caller's current demands/think values); `live` selects the lanes
    /// still iterating.
    ///
    /// Afterwards every live lane is readable through [`AmvaBatch::lane`]
    /// exactly as if [`AmvaScratch::solve`] had run it alone. On failure
    /// the lowest-indexed failing live lane's error is returned; the other
    /// live lanes still hold valid scalar-identical state.
    pub fn solve_window(
        &mut self,
        problems: &[(&[ClassDemand], usize)],
        live: &[usize],
    ) -> Result<(), SimError> {
        let (nc, stations, k) = self
            .shape
            .ok_or(SimError::Internal("solve_window without an open window"))?;
        if live.iter().any(|&l| l >= k) || problems.len() != k {
            return Err(SimError::Internal("solve_window lane out of window"));
        }
        if live.is_empty() {
            return Ok(());
        }
        let mut kw = self.soa.pack_window(problems, live, nc, stations);
        for _round in 0..MAX_ITER {
            if kw == 0 {
                break;
            }
            self.soa.round(kw, nc, stations, self.backend);
            let mut col = 0;
            while col < kw {
                if self.soa.res[col] < TOL {
                    self.soa
                        .retire(col, kw, nc, stations, &mut self.lanes, &mut self.residual);
                    kw -= 1;
                } else {
                    col += 1;
                }
            }
        }
        // Lanes still live after MAX_ITER rounds: copy their state out
        // with the last round's residual (convergence_err decides).
        while kw > 0 {
            self.soa
                .retire(0, kw, nc, stations, &mut self.lanes, &mut self.residual);
            kw -= 1;
        }
        let mut first_err: Option<(usize, SimError)> = None;
        for &i in live {
            match self.lanes[i].convergence_err(self.residual[i]) {
                Ok(()) => self.lanes[i].finish(problems[i].0),
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(f, _)| i < *f) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact single-class MVA for validation.
    fn exact_mva_single(n: usize, z: f64, d: f64) -> f64 {
        let mut q = 0.0;
        let mut x = 0.0;
        for k in 1..=n {
            let r = d * (1.0 + q);
            x = k as f64 / (z + r);
            q = x * r;
        }
        x
    }

    #[test]
    fn matches_exact_mva_single_class() {
        for &n in &[1usize, 2, 4, 8] {
            for &(z, d) in &[(1.0, 1.0), (3.0, 0.5), (0.5, 2.0)] {
                let sol = solve(
                    &[ClassDemand {
                        population: n as f64,
                        think_time_s: z,
                        demands_s: vec![d],
                    }],
                    1,
                )
                .unwrap();
                let exact = exact_mva_single(n, z, d);
                let rel = (sol.throughput[0] - exact).abs() / exact;
                assert!(
                    rel < 0.08,
                    "n={n} z={z} d={d}: amva={} exact={exact}",
                    sol.throughput[0]
                );
            }
        }
    }

    #[test]
    fn n1_is_exact() {
        let sol = solve(
            &[ClassDemand {
                population: 1.0,
                think_time_s: 2.0,
                demands_s: vec![3.0],
            }],
            1,
        )
        .unwrap();
        assert!((sol.throughput[0] - 1.0 / 5.0).abs() < 1e-6);
        // Disk utilisation = X·D = 0.6: the single customer leaves the disk
        // idle 40% of the time — the co-location headroom.
        assert!((sol.station_util[0] - 0.6).abs() < 1e-5);
    }

    #[test]
    fn symmetric_classes_share_equally() {
        let c = ClassDemand {
            population: 2.0,
            think_time_s: 1.0,
            demands_s: vec![1.0],
        };
        let sol = solve(&[c.clone(), c], 1).unwrap();
        assert!((sol.throughput[0] - sol.throughput[1]).abs() < 1e-6);
        assert!(sol.station_util[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn colocation_fills_idle_disk_time() {
        // One I/O-ish job: Z = 1, D_disk = 1, one slot → util 0.5.
        let one = ClassDemand {
            population: 1.0,
            think_time_s: 1.0,
            demands_s: vec![1.0],
        };
        let alone = solve(std::slice::from_ref(&one), 1).unwrap();
        let pair = solve(&[one.clone(), one], 1).unwrap();
        // Per-job throughput drops under sharing, but far less than 2×:
        // the pair's combined throughput exceeds the standalone throughput.
        let x_alone = alone.throughput[0];
        let x_pair = pair.throughput[0];
        assert!(x_pair < x_alone);
        assert!(
            2.0 * x_pair > 1.3 * x_alone,
            "x_pair={x_pair} x_alone={x_alone}"
        );
        assert!(pair.station_util[0] > alone.station_util[0]);
    }

    #[test]
    fn zero_population_class_is_inert() {
        let busy = ClassDemand {
            population: 4.0,
            think_time_s: 1.0,
            demands_s: vec![0.5],
        };
        let idle = ClassDemand {
            population: 0.0,
            think_time_s: 0.0,
            demands_s: vec![0.0],
        };
        let with_idle = solve(&[busy.clone(), idle], 1).unwrap();
        let alone = solve(&[busy], 1).unwrap();
        assert!((with_idle.throughput[0] - alone.throughput[0]).abs() < 1e-9);
        assert_eq!(with_idle.throughput[1], 0.0);
    }

    #[test]
    fn throughput_bounded_by_capacity_and_population() {
        let sol = solve(
            &[ClassDemand {
                population: 8.0,
                think_time_s: 0.1,
                demands_s: vec![1.0],
            }],
            1,
        )
        .unwrap();
        // Capacity bound: X ≤ 1/D.
        assert!(sol.throughput[0] <= 1.0 / 1.0 + 1e-6);
        // Heavy load should approach the capacity bound.
        assert!(sol.throughput[0] > 0.9);
    }

    #[test]
    fn pure_delay_class() {
        // No shared demand: X = N/Z exactly.
        let sol = solve(
            &[ClassDemand {
                population: 3.0,
                think_time_s: 2.0,
                demands_s: vec![0.0, 0.0],
            }],
            2,
        )
        .unwrap();
        assert!((sol.throughput[0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(solve(
            &[ClassDemand {
                population: -1.0,
                think_time_s: 1.0,
                demands_s: vec![1.0],
            }],
            1
        )
        .is_err());
        assert!(solve(
            &[ClassDemand {
                population: 1.0,
                think_time_s: 0.0,
                demands_s: vec![0.0],
            }],
            1
        )
        .is_err());
        assert!(solve(
            &[ClassDemand {
                population: 1.0,
                think_time_s: 1.0,
                demands_s: vec![1.0, 1.0],
            }],
            1
        )
        .is_err());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_problem_sizes() {
        // One scratch solving a 2-class problem, then a 1-class problem,
        // then the 2-class problem again must agree to the bit with fresh
        // solves: clear+resize reuse may never leak state between solves.
        let a = ClassDemand {
            population: 4.0,
            think_time_s: 0.5,
            demands_s: vec![0.8, 0.1],
        };
        let b = ClassDemand {
            population: 2.0,
            think_time_s: 2.0,
            demands_s: vec![0.1, 0.9],
        };
        let mut scratch = AmvaScratch::new();
        for classes in [vec![a.clone(), b.clone()], vec![b.clone()], vec![a, b]] {
            let stations = classes[0].demands_s.len();
            scratch.solve(&classes, stations).unwrap();
            let fresh = solve(&classes, stations).unwrap();
            assert_eq!(scratch.iterations(), fresh.iterations);
            for j in 0..classes.len() {
                assert_eq!(
                    scratch.throughput()[j].to_bits(),
                    fresh.throughput[j].to_bits()
                );
                for s in 0..stations {
                    assert_eq!(scratch.queue(j, s).to_bits(), fresh.queue[j][s].to_bits());
                }
            }
            for s in 0..stations {
                assert_eq!(
                    scratch.station_util()[s].to_bits(),
                    fresh.station_util[s].to_bits()
                );
                assert_eq!(
                    scratch.station_queue()[s].to_bits(),
                    fresh.station_queue[s].to_bits()
                );
            }
        }
    }

    /// A small family of unrelated problems exercising distinct code paths:
    /// different station counts, zero-population classes, zero-demand
    /// stations, and convergence speeds.
    fn batch_problem_set() -> Vec<Vec<ClassDemand>> {
        vec![
            vec![ClassDemand {
                population: 2.0,
                think_time_s: 3.0,
                demands_s: vec![1.0],
            }],
            vec![
                ClassDemand {
                    population: 4.0,
                    think_time_s: 0.5,
                    demands_s: vec![0.8, 0.1],
                },
                ClassDemand {
                    population: 2.0,
                    think_time_s: 2.0,
                    demands_s: vec![0.1, 0.9],
                },
            ],
            vec![ClassDemand {
                population: 8.0,
                think_time_s: 0.1,
                demands_s: vec![2.0, 0.0, 0.4],
            }],
            vec![
                ClassDemand {
                    population: 0.0,
                    think_time_s: 0.0,
                    demands_s: vec![0.0, 0.0],
                },
                ClassDemand {
                    population: 3.0,
                    think_time_s: 1.0,
                    demands_s: vec![0.5, 0.5],
                },
            ],
            vec![ClassDemand {
                population: 1.0,
                think_time_s: 0.0,
                demands_s: vec![1.5],
            }],
            vec![ClassDemand {
                population: 6.0,
                think_time_s: 4.0,
                demands_s: vec![0.2, 0.2, 0.2, 0.2],
            }],
            vec![ClassDemand {
                population: 3.0,
                think_time_s: 2.0,
                demands_s: vec![0.0, 0.0],
            }],
            vec![ClassDemand {
                population: 5.0,
                think_time_s: 0.25,
                demands_s: vec![1.1, 0.7],
            }],
        ]
    }

    /// Open a window over `probs` and solve every lane once — the
    /// single-solve use of the resident-window API.
    fn solve_all(batch: &mut AmvaBatch, probs: &[(&[ClassDemand], usize)]) -> Result<(), SimError> {
        batch.begin_window(probs)?;
        let live: Vec<usize> = (0..probs.len()).collect();
        batch.solve_window(probs, &live)
    }

    /// Bit-compare one batch lane against a scalar solve of its problem.
    fn assert_lane_is_scalar(lane: &AmvaScratch, classes: &[ClassDemand], stations: usize) {
        let mut scalar = AmvaScratch::new();
        scalar.solve(classes, stations).unwrap();
        assert_eq!(lane.iterations(), scalar.iterations());
        for j in 0..classes.len() {
            assert_eq!(
                lane.throughput()[j].to_bits(),
                scalar.throughput()[j].to_bits()
            );
            for s in 0..stations {
                assert_eq!(lane.queue(j, s).to_bits(), scalar.queue(j, s).to_bits());
            }
        }
        for s in 0..stations {
            assert_eq!(
                lane.station_util()[s].to_bits(),
                scalar.station_util()[s].to_bits()
            );
            assert_eq!(
                lane.station_queue()[s].to_bits(),
                scalar.station_queue()[s].to_bits()
            );
        }
    }

    #[test]
    fn width_one_windows_are_bit_identical_to_scalar_on_every_shape() {
        // One batch reused across shapes: buffer reuse may not leak state
        // between windows, mirroring the scratch-reuse contract.
        let problems = batch_problem_set();
        let mut batch = AmvaBatch::new();
        for classes in &problems {
            let stations = classes[0].demands_s.len();
            solve_all(&mut batch, &[(classes.as_slice(), stations)]).unwrap();
            assert_lane_is_scalar(batch.lane(0), classes, stations);
        }
    }

    #[test]
    fn mixed_shape_and_empty_windows_are_typed_errors() {
        let problems = batch_problem_set();
        let mixed: Vec<(&[ClassDemand], usize)> = problems[..2]
            .iter()
            .map(|c| (c.as_slice(), c[0].demands_s.len()))
            .collect();
        let mut batch = AmvaBatch::new();
        assert!(matches!(
            batch.begin_window(&mixed),
            Err(SimError::InvalidWindow(_))
        ));
        assert!(matches!(
            batch.begin_window(&[]),
            Err(SimError::InvalidWindow(_))
        ));
        // A rejected window leaves nothing open to solve.
        assert!(batch.solve_window(&mixed, &[0]).is_err());
    }

    /// Shape-uniform family (2 classes × 3 stations throughout) so the
    /// batch takes the lane-interleaved kernel: varied populations (zero,
    /// one, fractional, heavy), zero-demand stations, varied convergence
    /// speeds.
    fn uniform_problem_set() -> Vec<Vec<ClassDemand>> {
        let mk = |pop_a: f64, pop_b: f64, da: [f64; 3], db: [f64; 3], za: f64, zb: f64| {
            vec![
                ClassDemand {
                    population: pop_a,
                    think_time_s: za,
                    demands_s: da.to_vec(),
                },
                ClassDemand {
                    population: pop_b,
                    think_time_s: zb,
                    demands_s: db.to_vec(),
                },
            ]
        };
        vec![
            mk(2.0, 3.0, [1.0, 0.2, 0.0], [0.3, 0.9, 0.1], 3.0, 1.0),
            mk(8.0, 1.0, [2.0, 0.0, 0.4], [0.1, 0.1, 0.1], 0.1, 5.0),
            mk(0.0, 3.0, [0.0, 0.0, 0.0], [0.5, 0.5, 0.2], 0.0, 1.0),
            mk(1.0, 1.0, [1.5, 0.0, 0.0], [0.0, 1.5, 0.0], 0.0, 0.0),
            mk(6.0, 2.5, [0.2, 0.2, 0.2], [0.4, 0.0, 0.8], 4.0, 0.25),
            mk(5.0, 4.0, [1.1, 0.7, 0.3], [0.9, 1.3, 0.0], 0.25, 0.5),
            mk(3.0, 0.0, [0.0, 0.0, 0.9], [0.0, 0.0, 0.0], 2.0, 0.0),
            mk(4.0, 4.0, [0.8, 0.1, 0.5], [0.1, 0.9, 0.5], 0.5, 2.0),
            // Second half: 16 lanes total, so the width sweep exercises
            // full four-lane vector windows plus every tail residue
            // (live count ≡ 1, 2, 3 mod 4) and mid-round compaction.
            mk(7.0, 2.0, [0.6, 1.4, 0.2], [0.2, 0.3, 1.1], 1.5, 0.75),
            mk(1.5, 1.5, [0.4, 0.4, 0.4], [0.7, 0.0, 0.7], 0.0, 3.0),
            mk(9.0, 0.5, [1.8, 0.1, 0.0], [0.0, 0.2, 0.6], 0.2, 0.9),
            mk(0.5, 6.0, [0.3, 0.0, 0.2], [1.2, 0.8, 0.4], 6.0, 0.1),
            mk(2.5, 2.5, [0.0, 1.0, 1.0], [1.0, 0.0, 1.0], 1.0, 1.0),
            mk(12.0, 3.0, [0.9, 0.9, 0.9], [0.3, 0.6, 0.9], 0.4, 2.5),
            mk(4.5, 0.0, [0.5, 0.7, 0.0], [0.0, 0.0, 0.0], 0.8, 0.0),
            mk(3.5, 5.5, [1.3, 0.2, 0.8], [0.6, 1.1, 0.2], 2.2, 0.3),
        ]
    }

    #[test]
    fn interleaved_kernel_is_bit_identical_to_scalar_at_every_width() {
        let problems = uniform_problem_set();
        let mut batch = AmvaBatch::new();
        for width in 1..=problems.len() {
            for window in problems.chunks(width) {
                let probs: Vec<(&[ClassDemand], usize)> =
                    window.iter().map(|c| (c.as_slice(), 3)).collect();
                solve_all(&mut batch, &probs).unwrap();
                for (i, classes) in window.iter().enumerate() {
                    assert_lane_is_scalar(batch.lane(i), classes, 3);
                }
            }
        }
    }

    #[test]
    fn every_simd_backend_is_bit_identical_to_the_scalar_backend() {
        let problems = uniform_problem_set();
        let mut scalar_batch = AmvaBatch::new();
        scalar_batch.set_simd_backend(SimdBackend::Scalar);
        assert_eq!(scalar_batch.simd_backend(), SimdBackend::Scalar);
        // Portable always; Avx2 validates down to Portable off-x86, so
        // on every machine this covers each backend that can run here.
        for backend in [SimdBackend::Portable, SimdBackend::Avx2] {
            let mut batch = AmvaBatch::new();
            batch.set_simd_backend(backend);
            for width in 1..=problems.len() {
                for window in problems.chunks(width) {
                    let probs: Vec<(&[ClassDemand], usize)> =
                        window.iter().map(|c| (c.as_slice(), 3)).collect();
                    solve_all(&mut batch, &probs).unwrap();
                    solve_all(&mut scalar_batch, &probs).unwrap();
                    for (i, classes) in window.iter().enumerate() {
                        let (v, s) = (batch.lane(i), scalar_batch.lane(i));
                        assert_eq!(
                            v.iterations(),
                            s.iterations(),
                            "backend {:?} width {width} lane {i}",
                            batch.simd_backend()
                        );
                        for j in 0..classes.len() {
                            assert_eq!(v.throughput()[j].to_bits(), s.throughput()[j].to_bits());
                            for st in 0..3 {
                                assert_eq!(v.queue(j, st).to_bits(), s.queue(j, st).to_bits());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn failed_window_reports_the_scalar_error_and_batch_stays_usable() {
        let good = vec![ClassDemand {
            population: 2.0,
            think_time_s: 3.0,
            demands_s: vec![1.0],
        }];
        let bad = vec![ClassDemand {
            population: -1.0,
            think_time_s: 1.0,
            demands_s: vec![1.0],
        }];
        let mut batch = AmvaBatch::new();
        let err = batch
            .begin_window(&[
                (good.as_slice(), 1),
                (bad.as_slice(), 1),
                (bad.as_slice(), 1),
            ])
            .unwrap_err();
        let mut scalar = AmvaScratch::new();
        assert_eq!(err, scalar.solve(&bad, 1).unwrap_err());
        // The batch stays usable: a good window still solves scalar-exact.
        solve_all(&mut batch, &[(good.as_slice(), 1)]).unwrap();
        assert_lane_is_scalar(batch.lane(0), &good, 1);
    }

    #[test]
    #[ignore = "timing probe, run with --release -- --ignored --nocapture"]
    fn timing_probe_interleaved_vs_scalar() {
        // Equal-shape, similar-iteration-count lanes: isolates the
        // interleaved kernel's ILP from lane drain effects.
        let mk = |scale: f64| {
            vec![
                ClassDemand {
                    population: 6.0,
                    think_time_s: 0.3,
                    demands_s: vec![0.9 * scale, 0.4, 0.2],
                },
                ClassDemand {
                    population: 4.0,
                    think_time_s: 0.5,
                    demands_s: vec![0.2, 0.8 * scale, 0.3],
                },
            ]
        };
        let problems: Vec<Vec<ClassDemand>> = (0..16).map(|i| mk(1.0 + 0.01 * i as f64)).collect();
        let mut scratch = AmvaScratch::new();
        let reps = 10_000usize;
        let t0 = std::time::Instant::now();
        let mut iters = 0usize;
        for _ in 0..reps {
            for p in &problems {
                scratch.solve(p, 3).unwrap();
                iters += scratch.iterations();
            }
        }
        let scalar_s = t0.elapsed().as_secs_f64();
        println!(
            "scalar: {scalar_s:.3}s ({iters} iters), {:.1} ns/iter",
            1e9 * scalar_s / iters as f64
        );
        for backend in [SimdBackend::Scalar, SimdBackend::detect()] {
            let mut batch = AmvaBatch::new();
            batch.set_simd_backend(backend);
            for width in [1usize, 2, 4, 8, 12, 16] {
                let t0 = std::time::Instant::now();
                let mut biters = 0usize;
                for _ in 0..reps {
                    for window in problems.chunks(width) {
                        let probs: Vec<(&[ClassDemand], usize)> =
                            window.iter().map(|p| (p.as_slice(), 3)).collect();
                        solve_all(&mut batch, &probs).unwrap();
                        for i in 0..probs.len() {
                            biters += batch.lane(i).iterations();
                        }
                    }
                }
                let batch_s = t0.elapsed().as_secs_f64();
                println!(
                    "batch{width} [{}]: {batch_s:.3}s ({biters} iters), speedup {:.2}x, {:.1} ns/iter",
                    backend.name(),
                    scalar_s / batch_s,
                    1e9 * batch_s / biters as f64
                );
            }
        }
    }

    #[test]
    fn two_stations_multiclass_utilisation_valid() {
        let a = ClassDemand {
            population: 4.0,
            think_time_s: 0.5,
            demands_s: vec![0.8, 0.1],
        };
        let b = ClassDemand {
            population: 2.0,
            think_time_s: 2.0,
            demands_s: vec![0.1, 0.9],
        };
        let sol = solve(&[a, b], 2).unwrap();
        for u in &sol.station_util {
            assert!(*u >= 0.0 && *u <= 1.0 + 1e-9);
        }
        assert!(sol.throughput.iter().all(|x| *x > 0.0));
    }
}
