//! Measurement primitives: medians and tail percentiles with the sample
//! rule, process CPU time and peak RSS from `/proc`, and span self-time.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// A tail percentile is printed only when at least this many samples lie
/// beyond it; below that it is refused rather than reported.
pub const MIN_BEYOND: usize = 10;

/// `USER_HZ`: the fixed tick rate of the CPU-time fields in `/proc`.
const TICKS_PER_S: f64 = 100.0;

/// Median of `v` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, refused with a
/// reason when fewer than [`MIN_BEYOND`] samples lie strictly beyond its
/// rank. The rank is `ceil(q * n)`, so p99 needs at least 1000 samples.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} refused: {beyond} of {n} samples lie beyond it, {MIN_BEYOND} needed",
            100.0 * q
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

/// Self time of a span: its duration minus the parts its child spans
/// cover. Children are timed inside the parent, so a negative remainder
/// is timer jitter and reads as zero.
pub fn self_time(total_s: f64, children_s: &[f64]) -> f64 {
    (total_s - children_s.iter().sum::<f64>()).max(0.0)
}

/// User + system CPU ticks of a process from the text of its
/// `/proc/<pid>/stat`. The command name may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3 of the file; utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("unparsable /proc/self/stat")?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux's `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` of Linux on 64-bit targets.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// CPU seconds the calling thread has run so far, at nanosecond
/// resolution. On a virtual machine whose kernel accounts steal time, the
/// time the host ran something else on the thread's CPU is left out;
/// wall time includes it.
pub fn thread_cpu_s() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which refers to a live local with that C layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed".into());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Milliseconds one run of the gauge's reference work takes on an
/// otherwise idle 2-vCPU Xeon VM: the machine speed every timing is
/// normalised to.
pub const GAUGE_NOMINAL_MS: f64 = 2.5;

/// How per-decision bookkeeping follows the gauge: event loops, memo
/// lookups and locks slowed by about the square root of the gauge's
/// slowdown over runs on a 2-vCPU Xeon VM, so their times are divided by
/// the slowdown raised to this power. Engine sweeps and model fits and
/// predictions slowed as much as the reference work and take the whole
/// slowdown.
pub const BOOKKEEPING_SENSITIVITY: f64 = 0.5;

/// Gauge readings taken up to this many seconds before or after an
/// interval count towards its slowdown.
const GAUGE_WINDOW_S: f64 = 0.25;

/// The gauge's reference work, fixed code over data the benchmark owns,
/// in three parts of about equal time: a dense 64 x 64 matrix product
/// (floating-point throughput), a sum over 5 MB (memory bandwidth) and
/// a sort of 30 000 numbers (branches and cache). Their mix slows under
/// the host's load about as much as the library's own code does; any
/// one part alone does not.
struct Reference {
    matrix: Vec<f64>,
    stream: Vec<f64>,
    unsorted: Vec<f64>,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            matrix: (0..64 * 64).map(|i| (i % 7) as f64 * 0.1).collect(),
            stream: (0..640_000).map(f64::from).collect(),
            unsorted: (0..30_000u64)
                .map(|i| (i.wrapping_mul(2_654_435_761) % 100_003) as f64)
                .collect(),
        }
    }

    fn run(&self) -> f64 {
        const N: usize = 64;
        let a = &self.matrix;
        let mut c = vec![0.0; N * N];
        for _ in 0..4 {
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += aik * a[k * N + j];
                    }
                }
            }
            std::hint::black_box(&mut c);
        }
        let sum: f64 = std::hint::black_box(&self.stream).iter().sum();
        let mut sorted = self.unsorted.clone();
        sorted.sort_by(f64::total_cmp);
        c[0] + sum + std::hint::black_box(sorted)[0]
    }
}

/// Median of the readings `(seconds, ms)` taken within `window_s` of the
/// interval `[from_s, to_s]`; `None` when no reading lies there.
pub fn window_median(
    readings: &[(f64, f64)],
    from_s: f64,
    to_s: f64,
    window_s: f64,
) -> Option<f64> {
    let near: Vec<f64> = readings
        .iter()
        .filter(|&&(t, _)| t >= from_s - window_s && t <= to_s + window_s)
        .map(|&(_, ms)| ms)
        .collect();
    median(&near)
}

/// The machine-speed gauge. The host's other tenants slow this program
/// by a factor that drifts over seconds to minutes, which no number of
/// passes within one run averages away. Fixed reference work, timed
/// between the program's timed calls, slows with it. Every timing is
/// divided by the slowdown the gauge read around it, so runs made at
/// different times compare.
pub struct Gauge {
    reference: Reference,
    origin: Instant,
    readings: Vec<(f64, f64)>,
    spent_s: f64,
}

impl Gauge {
    /// A gauge with no readings yet.
    pub fn new() -> Gauge {
        Gauge {
            reference: Reference::new(),
            origin: Instant::now(),
            readings: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Take one reading: the median of three timed runs of the reference
    /// work.
    pub fn read(&mut self) {
        let start = Instant::now();
        let mut ms = [0.0; 3];
        for x in &mut ms {
            let t0 = Instant::now();
            std::hint::black_box(self.reference.run());
            *x = t0.elapsed().as_secs_f64() * 1e3;
        }
        let at = self.secs(Instant::now());
        self.readings.push((at, median(&ms).unwrap_or(f64::NAN)));
        self.spent_s += start.elapsed().as_secs_f64();
    }

    /// Run `f`, read the gauge, and return `f`'s result with its wall
    /// seconds normalised by the slowdown around it. The caller has read
    /// the gauge just before.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Result<(T, f64), String> {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.read();
        Ok((out, (t1 - t0).as_secs_f64() / self.slowdown(t0, t1)?))
    }

    /// Seconds spent taking readings so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// The machine's slowdown over `[from, to]` against the nominal
    /// machine: the median reading near the interval over
    /// [`GAUGE_NOMINAL_MS`]. Read the gauge just before and just after
    /// the interval so that it has readings.
    pub fn slowdown(&self, from: Instant, to: Instant) -> Result<f64, String> {
        window_median(
            &self.readings,
            self.secs(from),
            self.secs(to),
            GAUGE_WINDOW_S,
        )
        .map(|ms| ms / GAUGE_NOMINAL_MS)
        .ok_or_else(|| "no gauge reading near a timed interval".to_string())
    }
}

/// Wall and process-CPU clocks started together.
pub struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    /// Start both clocks now.
    pub fn start() -> Result<Clock, String> {
        Ok(Clock {
            cpu_s: process_cpu_s()?,
            wall: Instant::now(),
        })
    }

    /// Wall seconds since [`Clock::start`].
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since [`Clock::start`].
    pub fn cpu_s(&self) -> Result<f64, String> {
        Ok(process_cpu_s()? - self.cpu_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Ok(990.0));
        // 999 samples: rank 990, only 9 beyond — refused, not printed.
        let refused = tail_percentile(&ramp(999), 0.99);
        assert!(refused.is_err_and(|e| e.contains("9 of 999")));
        assert!(tail_percentile(&ramp(50), 0.99).is_err());
        assert!(tail_percentile(&[], 0.5).is_err());
        // The median of 20 samples has 10 beyond it.
        assert_eq!(tail_percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(tail_percentile(&ramp(10), 1.0).is_err());
    }

    #[test]
    fn p99_is_order_independent() {
        let mut v: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let a = tail_percentile(&v, 0.99);
        v.reverse();
        assert_eq!(a, tail_percentile(&v, 0.99));
        assert_eq!(a, Ok(1979.0));
    }

    #[test]
    fn self_time_subtracts_children_and_clamps_jitter() {
        assert!((self_time(1.0, &[0.25, 0.5]) - 0.25).abs() < 1e-12);
        assert_eq!(self_time(2.0, &[]), 2.0);
        assert_eq!(self_time(1.0, &[0.6, 0.5]), 0.0);
    }

    #[test]
    fn window_median_takes_readings_near_the_interval() {
        let r = [(0.0, 9.0), (1.0, 2.0), (1.2, 3.0), (1.5, 4.0), (3.0, 9.0)];
        // [1.1, 1.3] widened by 0.25 holds the readings at 1.0, 1.2, 1.5.
        assert_eq!(window_median(&r, 1.1, 1.3, 0.25), Some(3.0));
        assert_eq!(window_median(&r, 1.0, 1.0, 0.0), Some(2.0));
        assert_eq!(window_median(&r, 2.0, 2.5, 0.25), None);
        assert_eq!(window_median(&r, -1.0, 5.0, 0.0), Some(4.0));
    }

    #[test]
    fn gauge_reads_around_an_interval() {
        let mut g = Gauge::new();
        let t0 = Instant::now();
        assert!(g.slowdown(t0, t0).is_err(), "no readings yet");
        g.read();
        g.read();
        let s = g.slowdown(t0, Instant::now()).expect("two readings");
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
        assert!(g.spent_s() > 0.0);
    }

    #[test]
    fn stat_parser_counts_fields_after_the_last_paren() {
        let stat = "4242 (odd (name) x) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("4242 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn proc_readers_track_this_process() {
        let before = process_cpu_s().expect("cpu time");
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_secs_f64() < 0.15 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = process_cpu_s().expect("cpu time");
        assert!(
            after - before >= 0.05,
            "busy loop used {} s",
            after - before
        );

        let rss0 = peak_rss_mb().expect("peak rss");
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let rss1 = peak_rss_mb().expect("peak rss");
        assert!(rss1 >= rss0 && rss1 >= 64.0, "peak {rss0} -> {rss1} MB");
    }

    #[test]
    fn thread_cpu_clock_counts_work_not_sleep() {
        let c0 = thread_cpu_s().expect("thread cpu time");
        std::thread::sleep(std::time::Duration::from_millis(200));
        let slept = thread_cpu_s().expect("thread cpu time") - c0;
        assert!(slept < 0.05, "sleeping used {slept} s of CPU");

        let (c0, t0) = (thread_cpu_s().expect("thread cpu time"), Instant::now());
        let mut x = 0u64;
        while t0.elapsed().as_secs_f64() < 0.2 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = thread_cpu_s().expect("thread cpu time") - c0;
        let wall = t0.elapsed().as_secs_f64();
        assert!(
            busy > 0.0 && busy <= wall + 1e-3,
            "busy {busy} s over {wall} s wall"
        );
        // Another thread's work is not this thread's CPU time.
        let c0 = thread_cpu_s().expect("thread cpu time");
        std::thread::spawn(|| {
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < 0.1 {
                std::hint::black_box(0u64);
            }
        })
        .join()
        .expect("worker thread");
        assert!(thread_cpu_s().expect("thread cpu time") - c0 < 0.05);
    }
}
