//! Throughput-regression gate over the `BENCH_trend.jsonl` trend store.
//!
//! `bench_report` and `scale_out` append one compact row per run (schema
//! `ecost-bench-trend/1`); this binary compares the newest row against the
//! *median* of the last (up to) three comparable earlier rows — same
//! `mode`, `arms`, `threads` and `simd` context (a row without a `simd`
//! field only compares against rows that also lack one, so rows from
//! before the SIMD kernel never gate its arms), so quick CI rows never
//! gate against full workstation rows — and fails (non-zero exit) when
//! any kernel's
//! throughput dropped by more than the tolerance (`ECOST_TREND_TOL`,
//! default 0.10 = 10%). The median reference makes the gate robust to a
//! single anomalously fast prior row (a noisy-neighbour lull would
//! otherwise ratchet the baseline up and flag the next honest run).
//!
//! Usage: `trend_check [path]` (default `BENCH_trend.jsonl`).
//!
//! Exit codes: `0` when every compared metric is within tolerance, `2`
//! ("no data") when there is nothing to gate — the store is missing,
//! empty, has no comparable prior row for the newest row's (mode, arms,
//! threads, simd) context, or the comparable priors share no metric key
//! with the newest row — and `1` on a regression or a malformed
//! store. Callers that treat a seeding run as acceptable should accept
//! exit 2 explicitly (CI does: `trend_check || [ $? -eq 2 ]`).
//!
//! The rows are written by our own writer with stable key order, so the
//! "parser" here is a deliberately minimal key scanner, not a general
//! JSON reader — the repo hand-rolls its JSON in both directions.

use ecost_bench::BenchError;
use std::process::ExitCode;

/// Headline throughput keys a row may carry (absent arms are skipped).
/// Keys of retired bench arms are deliberately absent: old rows that
/// carry them never gate anything.
const METRICS: [&str; 11] = [
    "solo_baseline_sims_per_s",
    "solo_production_sims_per_s",
    "solo_production_simd_off_sims_per_s",
    "pair_baseline_sims_per_s",
    "pair_production_sims_per_s",
    "pair_production_simd_off_sims_per_s",
    "sched_baseline_sims_per_s",
    "sched_production_sims_per_s",
    "scale_decisions_per_s",
    "service_decisions_per_s",
    "fleet_decisions_per_s",
];

/// How many comparable prior rows feed the reference median.
const WINDOW: usize = 3;

/// Median of a non-empty sample; an even count averages the middle two.
/// Returns `None` on an empty slice (metric absent from every prior row).
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Extract a string field from a compact single-line JSON row.
fn field_str<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extract a numeric field from a compact single-line JSON row.
fn field_f64(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The comparability context of a row: rows only gate against rows that
/// measured the same thing on the same parallelism with the same kernel.
/// `simd` is optional — rows predating the SIMD kernel have no such
/// field, and `None` only matches `None`, so old seed rows never gate
/// (or get gated by) the SIMD-era arms.
fn context(row: &str) -> Option<(String, String, u64, Option<String>)> {
    Some((
        field_str(row, "mode")?.to_string(),
        field_str(row, "arms")?.to_string(),
        field_f64(row, "threads")? as u64,
        field_str(row, "simd").map(str::to_string),
    ))
}

fn run() -> Result<(), BenchError> {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trend.jsonl".into());
    let tol: f64 = match std::env::var("ECOST_TREND_TOL") {
        Ok(v) => v
            .parse()
            .map_err(|_| BenchError::Invalid(format!("ECOST_TREND_TOL={v:?} is not a number")))?,
        Err(_) => 0.10,
    };
    check(&path, tol)
}

/// The gate proper, separated from env/arg parsing for unit testing.
fn check(path: &str, tol: f64) -> Result<(), BenchError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(BenchError::NoData(format!(
                "{path}: trend store not found — run a bench first to seed it"
            )));
        }
        Err(e) => return Err(BenchError::Io(e)),
    };
    let rows: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let (last, prior) = rows
        .split_last()
        .ok_or_else(|| BenchError::NoData(format!("{path}: trend store has no rows")))?;
    if field_str(last, "schema") != Some("ecost-bench-trend/1") {
        return Err(BenchError::Invalid(format!(
            "{path}: newest row has unknown schema (want ecost-bench-trend/1)"
        )));
    }
    let ctx = context(last).ok_or_else(|| {
        BenchError::Invalid(format!("{path}: newest row lacks mode/arms/threads"))
    })?;
    let prevs: Vec<&&str> = prior
        .iter()
        .rev()
        .filter(|r| context(r).as_ref() == Some(&ctx))
        .take(WINDOW)
        .collect();
    if prevs.is_empty() {
        return Err(BenchError::NoData(format!(
            "{path}: no prior row with mode={} arms={} threads={} simd={} — this row seeds \
             the trend",
            ctx.0,
            ctx.1,
            ctx.2,
            ctx.3.as_deref().unwrap_or("<absent>")
        )));
    }
    let commits = prevs
        .iter()
        .map(|r| field_str(r, "commit").unwrap_or("?"))
        .collect::<Vec<_>>()
        .join(", ");
    let mut regressions: Vec<String> = Vec::new();
    let mut compared = 0u32;
    for key in METRICS {
        let Some(new) = field_f64(last, key) else {
            continue;
        };
        let mut sample: Vec<f64> = prevs.iter().filter_map(|r| field_f64(r, key)).collect();
        let Some(old) = median(&mut sample) else {
            continue;
        };
        compared += 1;
        if old > 0.0 && new < old * (1.0 - tol) {
            regressions.push(format!(
                "{key}: median {old:.1} -> {new:.1} ({:+.1}%)",
                100.0 * (new - old) / old
            ));
        }
    }
    if regressions.is_empty() {
        if compared == 0 {
            return Err(BenchError::NoData(format!(
                "{path}: comparable prior rows share no metric key with the newest row — \
                 nothing to gate"
            )));
        }
        println!(
            "trend_check: {compared} metrics within {:.0}% of the median of {} prior rows \
             in {} (commits {})",
            tol * 100.0,
            prevs.len(),
            path,
            commits
        );
        Ok(())
    } else {
        Err(BenchError::Invalid(format!(
            "throughput regression vs the median of {} prior rows (commits {}, tolerance \
             {:.0}%): {}",
            prevs.len(),
            commits,
            tol * 100.0,
            regressions.join("; ")
        )))
    }
}

fn main() -> ExitCode {
    ecost_bench::run_main("trend_check", run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_sample_is_the_middle_value() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [5.0]), Some(5.0));
    }

    #[test]
    fn median_of_even_sample_averages_the_middle_two() {
        assert_eq!(median(&mut [4.0, 1.0]), Some(2.5));
        assert_eq!(median(&mut [1.0, 9.0, 3.0, 5.0]), Some(4.0));
    }

    #[test]
    fn median_of_empty_sample_is_none() {
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn one_fast_outlier_does_not_ratchet_the_reference() {
        // Rows 100, 100, 140: a single lucky run. The median reference is
        // 100, so a new row at 95 sits within a 10% tolerance — the
        // newest-row-only policy would have gated 95 against 140.
        let m = median(&mut [100.0, 140.0, 100.0]).unwrap();
        assert_eq!(m, 100.0);
        assert!(95.0 >= m * (1.0 - 0.10));
    }

    fn write_store(name: &str, rows: &[&str]) -> String {
        let dir = std::env::temp_dir().join("ecost_trend_check_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(name);
        std::fs::write(&path, rows.join("\n")).expect("write store");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn missing_store_is_no_data() {
        match check("/nonexistent/ecost/trend.jsonl", 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("not found"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn empty_store_is_no_data() {
        let path = write_store("empty.jsonl", &[""]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("no rows"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn no_comparable_prior_row_is_no_data() {
        let row_full = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"full","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let row_quick = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let path = write_store("seeding.jsonl", &[row_full, row_quick]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("seeds the trend"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn comparable_rows_within_tolerance_pass_and_regressions_fail() {
        let prior = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let ok = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":95.0}"#;
        let bad = r#"{"schema":"ecost-bench-trend/1","commit":"c","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":50.0}"#;
        let path = write_store("gate_ok.jsonl", &[prior, ok]);
        assert!(check(&path, 0.10).is_ok());
        let path = write_store("gate_bad.jsonl", &[prior, bad]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => assert!(msg.contains("regression"), "{msg}"),
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn row_fields_parse() {
        let row = r#"{"schema":"ecost-bench-trend/1","commit":"abc","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":51455.3}"#;
        assert_eq!(field_str(row, "commit"), Some("abc"));
        assert_eq!(field_f64(row, "scale_decisions_per_s"), Some(51455.3));
        assert_eq!(
            context(row),
            Some(("quick".into(), "scale".into(), 1, None))
        );
        let row = r#"{"schema":"ecost-bench-trend/1","commit":"abc","mode":"full","arms":"all","threads":2,"simd":"on","pair_production_sims_per_s":9.0}"#;
        assert_eq!(
            context(row),
            Some(("full".into(), "all".into(), 2, Some("on".into())))
        );
    }

    #[test]
    fn simd_context_splits_comparability_from_pre_simd_rows() {
        // A seed row written before the simd field existed must not gate
        // the first simd-era row, even though mode/arms/threads match and
        // the metric key is shared (with a large apparent drop).
        let old = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"quick","arms":"all","threads":1,"pair_baseline_sims_per_s":100.0}"#;
        let new = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"all","threads":1,"simd":"on","pair_baseline_sims_per_s":50.0}"#;
        let path = write_store("simd_split.jsonl", &[old, new]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("seeds the trend"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
        // And the two simd settings never gate each other.
        let on = r#"{"schema":"ecost-bench-trend/1","commit":"c","mode":"quick","arms":"all","threads":1,"simd":"on","pair_production_sims_per_s":100.0}"#;
        let off = r#"{"schema":"ecost-bench-trend/1","commit":"d","mode":"quick","arms":"all","threads":1,"simd":"off","pair_production_sims_per_s":50.0}"#;
        let path = write_store("simd_on_off.jsonl", &[on, off]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("seeds the trend"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_drop_in_a_production_key_fails_the_gate() {
        let mk = |commit: &str, rate: f64| {
            format!(
                r#"{{"schema":"ecost-bench-trend/1","commit":"{commit}","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","pair_production_sims_per_s":{rate:.1},"pair_production_simd_off_sims_per_s":{:.1}}}"#,
                rate / 2.0
            )
        };
        let rows = [mk("a", 1000.0), mk("b", 1010.0), mk("c", 990.0)];
        let held = mk("d", 960.0);
        let path = write_store("prod_gate_ok.jsonl", &[&rows[0], &rows[1], &rows[2], &held]);
        assert!(check(&path, 0.10).is_ok());
        // >10% drop in the production arm (and its simd-off shadow) must
        // fail, naming both keys.
        let dropped = mk("e", 880.0);
        let path = write_store(
            "prod_gate_bad.jsonl",
            &[&rows[0], &rows[1], &rows[2], &dropped],
        );
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("pair_production_sims_per_s"), "{msg}");
                assert!(msg.contains("pair_production_simd_off_sims_per_s"), "{msg}");
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn solo_and_scheduler_production_keys_gate_too() {
        let prior = r#"{"schema":"ecost-bench-trend/1","commit":"a","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","solo_production_sims_per_s":400.0,"sched_production_sims_per_s":20.0}"#;
        let dropped = r#"{"schema":"ecost-bench-trend/1","commit":"b","dirty":true,"mode":"full","arms":"all","threads":1,"simd":"on","solo_production_sims_per_s":300.0,"sched_production_sims_per_s":15.0}"#;
        let path = write_store("prod_solo_sched_bad.jsonl", &[prior, dropped]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("solo_production_sims_per_s"), "{msg}");
                assert!(msg.contains("sched_production_sims_per_s"), "{msg}");
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn retired_keys_never_gate_and_production_keys_are_additive() {
        // A row from before the sweep engine collapsed carries retired arm
        // keys (batched, batch-resident) next to the baseline
        // key it still shares with the first production-era row. The shared
        // key gates; the new production key has no prior sample and is
        // skipped; a retired key is never compared, however far it falls.
        let old = r#"{"schema":"ecost-bench-trend/1","commit":"a","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","pair_baseline_sims_per_s":50.0,"pair_batched_sims_per_s":180.0,"pair_batch_resident_sims_per_s":240.0}"#;
        let new = r#"{"schema":"ecost-bench-trend/1","commit":"b","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","pair_baseline_sims_per_s":49.0,"pair_batched_sims_per_s":1.0,"pair_production_sims_per_s":240.0}"#;
        let path = write_store("retired_keys_ok.jsonl", &[old, new]);
        assert!(check(&path, 0.10).is_ok());
        // Same store, but the shared baseline key regressed: still caught,
        // and the complaint names only keys that are still gated.
        let bad = r#"{"schema":"ecost-bench-trend/1","commit":"c","dirty":false,"mode":"full","arms":"all","threads":1,"simd":"on","pair_baseline_sims_per_s":25.0,"pair_batched_sims_per_s":1.0,"pair_production_sims_per_s":1.0}"#;
        let path = write_store("retired_keys_bad.jsonl", &[old, bad]);
        match check(&path, 0.10) {
            Err(BenchError::Invalid(msg)) => {
                assert!(msg.contains("pair_baseline_sims_per_s"), "{msg}");
                assert!(!msg.contains("pair_batched_sims_per_s"), "{msg}");
                assert!(!msg.contains("pair_production_sims_per_s"), "{msg}");
            }
            other => panic!("expected Invalid regression, got {other:?}"),
        }
    }

    #[test]
    fn prior_keys_absent_from_the_newest_row_are_no_data() {
        // Same context, but the newest row carries none of the priors'
        // metric keys (and vice versa): nothing is comparable, which must
        // surface as exit-2 "no data", not a silent pass.
        let old = r#"{"schema":"ecost-bench-trend/1","commit":"a","mode":"quick","arms":"scale","threads":1,"scale_decisions_per_s":100.0}"#;
        let new = r#"{"schema":"ecost-bench-trend/1","commit":"b","mode":"quick","arms":"scale","threads":1,"fleet_decisions_per_s":100.0}"#;
        let path = write_store("key_mismatch.jsonl", &[old, new]);
        match check(&path, 0.10) {
            Err(BenchError::NoData(msg)) => assert!(msg.contains("no metric key"), "{msg}"),
            other => panic!("expected NoData, got {other:?}"),
        }
    }
}
