//! The metric catalog (names, units, directions) and the result line.
//!
//! Every workload prints every end-to-end metric, and in a traced run
//! every per-layer metric; a layer a workload leaves idle reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric of the catalog.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// `value` of the metric `name` on the nominal machine, measured while
/// the gauge read `slowdown`: times are divided by it, rates multiplied,
/// counts and fractions kept.
pub fn normalised(name: &str, value: f64, slowdown: f64) -> f64 {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit);
    match unit {
        "s" | "ms" => value / slowdown,
        "1/s" => value * slowdown,
        _ => value,
    }
}

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("pass_cpu_s", "s", "lower"),
    m("decisions_per_s", "1/s", "higher"),
    m("fit_s", "s", "lower"),
    m("decision_p50_ms", "ms", "lower"),
    m("decision_p99_ms", "ms", "lower"),
    m("ok_frac", "frac", "higher"),
    m("sim_edp", "J.s", "lower"),
    m("stp_ape_pct", "%", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Metrics of single layers, measured by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("ml.lr.fit_s", "s", "lower"),
    m("ml.lr.predict_calls", "count", "lower"),
    m("ml.lr.predict_s", "s", "lower"),
    m("ml.reptree.fit_s", "s", "lower"),
    m("ml.reptree.predict_calls", "count", "lower"),
    m("ml.reptree.predict_s", "s", "lower"),
    m("ml.mlp.fit_s", "s", "lower"),
    m("ml.mlp.predict_calls", "count", "lower"),
    m("ml.mlp.predict_s", "s", "lower"),
    m("stp.lkt.choose_calls", "count", "higher"),
    m("stp.lkt.choose_s", "s", "lower"),
    m("stp.lkt.self_s", "s", "lower"),
    m("stp.lr.choose_calls", "count", "higher"),
    m("stp.lr.choose_s", "s", "lower"),
    m("stp.lr.self_s", "s", "lower"),
    m("stp.reptree.choose_calls", "count", "higher"),
    m("stp.reptree.choose_s", "s", "lower"),
    m("stp.reptree.self_s", "s", "lower"),
    m("stp.mlp.choose_calls", "count", "higher"),
    m("stp.mlp.choose_s", "s", "lower"),
    m("stp.mlp.self_s", "s", "lower"),
    m("engine.hits", "count", "higher"),
    m("engine.misses", "count", "lower"),
    m("engine.hit_rate", "frac", "higher"),
    m("engine.evictions", "count", "lower"),
    m("engine.resident_entries", "count", "lower"),
    m("engine.runs_simulated", "count", "lower"),
    m("engine.sims_reused", "count", "higher"),
    m("engine.miss_s", "s", "lower"),
    m("engine.sims_per_s", "1/s", "higher"),
    m("engine.phase.solve_s", "s", "lower"),
    m("engine.phase.outer_s", "s", "lower"),
    m("engine.phase.submit_reset_s", "s", "lower"),
    m("engine.phase.memo_s", "s", "lower"),
    m("engine.phase.event_loop_s", "s", "lower"),
    m("scheduler.self_s", "s", "lower"),
    m("scheduler.solo_fallbacks", "count", "lower"),
    m("scheduler.config_fallbacks", "count", "lower"),
    m("service.decided", "count", "higher"),
    m("service.shed", "count", "lower"),
    m("service.deadline_exceeded", "count", "lower"),
    m("service.tier_full", "count", "higher"),
    m("service.tier_windowed", "count", "lower"),
    m("service.tier_fallback", "count", "lower"),
    m("service.retries", "count", "lower"),
    m("service.breaker_trips", "count", "lower"),
    m("service.queue_peak", "count", "lower"),
    m("service.inflight_peak", "count", "lower"),
    m("service.sim_queued_s", "sim_s", "lower"),
    m("service.decide_s", "s", "lower"),
    m("database.build_s", "s", "lower"),
    m("training.build_s", "s", "lower"),
    m("training.rows", "count", "lower"),
    m("arrivals.generate_s", "s", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
    m("gauge.slowdown", "ratio", "lower"),
];

/// Values for one catalog, printed in catalog order.
#[derive(Debug)]
pub struct Values {
    catalog: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Nothing set yet: [`Values::json`] fails until every metric is.
    pub fn empty(catalog: &'static [Metric]) -> Values {
        Values {
            catalog,
            values: BTreeMap::new(),
        }
    }

    /// Every metric at 0 (a per-layer catalog: unset layers were idle).
    pub fn zeroed(catalog: &'static [Metric]) -> Values {
        let mut v = Values::empty(catalog);
        for m in catalog {
            v.values.insert(m.name, 0.0);
        }
        v
    }

    /// Set one metric; it must be in the catalog and finite.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let m = self
            .catalog
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} is not in the catalog"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        self.values.insert(m.name, value);
        Ok(())
    }

    /// Set several metrics.
    pub fn set_all(&mut self, pairs: &[(&str, f64)]) -> Result<(), String> {
        pairs.iter().try_for_each(|&(n, v)| self.set(n, v))
    }

    /// `name  value unit` lines for the human-readable report.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in self.catalog {
            if let Some(v) = self.values.get(m.name) {
                let _ = writeln!(s, "  {:<30} {:>18.6} {}", m.name, v, m.unit);
            }
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the catalog with its unit.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.catalog.iter().enumerate() {
            let v = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was never measured", m.name))?;
            if i > 0 {
                s.push_str(", ");
            }
            // `{}` on f64 prints every digit, never an exponent.
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names are 1–64 characters of `[A-Za-z0-9_.-]`, starting with a
    /// letter or digit.
    fn valid_metric_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "ml.mlp.fit_s",
            "engine.phase.submit_reset_s",
            "p99",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/name",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(listed, workloads + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_needs_every_metric_and_rejects_unknown_or_nonfinite() {
        let mut v = Values::empty(END_TO_END);
        assert!(v.set("nope", 1.0).is_err());
        assert!(v.set("setup_s", f64::NAN).is_err());
        v.set("setup_s", 1.5).expect("known metric");
        assert!(v.json(true, 1, 0).is_err());
        let z = Values::zeroed(PER_LAYER);
        let line = z.json(true, 3, 0).expect("all set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"trace.overhead_frac\": {\"value\": 0, \"unit\": \"frac\"}"));
    }

    #[test]
    fn normalising_divides_times_multiplies_rates_keeps_counts() {
        assert_eq!(normalised("fit_s", 3.0, 1.5), 2.0);
        assert_eq!(normalised("decision_p50_ms", 3.0, 2.0), 1.5);
        assert_eq!(normalised("decisions_per_s", 10.0, 1.5), 15.0);
        assert_eq!(normalised("engine.hits", 7.0, 2.0), 7.0);
        assert_eq!(normalised("ok_frac", 0.5, 2.0), 0.5);
        // Simulated seconds are not host time.
        assert_eq!(normalised("service.sim_queued_s", 4.0, 2.0), 4.0);
    }
}
