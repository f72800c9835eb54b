//! The metric catalogue and the result line.
//!
//! Every workload emits every end-to-end metric with tracing off and
//! every per-layer metric with tracing on; [`Metrics::finish`] refuses a
//! result that misses one or adds one not in the catalogue.

use crate::stream::Kind;
use crate::workload::Workload;
use onoc_graph::benchmarks::Benchmark;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics, emitted with `--trace 0`.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("pass_s", "s", "lower"),
        def("laser_mw", "mW", "lower"),
        def("wavelengths", "count", "lower"),
        def("ok_frac", "fraction", "higher"),
        def("match_frac", "fraction", "higher"),
        def("optimal_frac", "fraction", "higher"),
    ]
}

/// The instances with per-instance layer metrics: those of the benchmarked
/// paper workload.
const PAPER_APPS: &[Benchmark] = Workload::PaperAssign.instances();

/// The per-layer metrics, emitted with `--trace 1`.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![def("cluster.s", "s", "lower")];
    defs.extend(
        PAPER_APPS
            .iter()
            .map(|b| def(format!("cluster.s.{}", b.name()), "s", "lower")),
    );
    defs.push(def("memo.gets", "count", "lower"));
    defs.push(def("memo.hit_rate", "fraction", "higher"));
    defs.push(def("memo.evictions", "count", "lower"));
    defs.push(def("assign.s", "s", "lower"));
    defs.extend(
        PAPER_APPS
            .iter()
            .map(|b| def(format!("assign.s.{}", b.name()), "s", "lower")),
    );
    for (name, unit) in [
        ("assign.milp.solve_s", "s"),
        ("assign.milp.lp_s", "s"),
        ("assign.outside_solver_s", "s"),
        ("milp.nodes", "count"),
        ("milp.lp_solves", "count"),
        ("milp.pivots", "count"),
        ("milp.refactorizations", "count"),
    ] {
        defs.push(def(name, unit, "lower"));
    }
    defs.push(def("milp.warm_hit_rate", "fraction", "higher"));
    for name in [
        "layout.s",
        "route.s",
        "pdn.s",
        "validate.s",
        "stage.unattributed_s",
    ] {
        defs.push(def(name, "s", "lower"));
    }
    for kind in Kind::ALL {
        let k = kind.name();
        defs.push(def(format!("served.client_p50_ms.{k}"), "ms", "lower"));
        defs.push(def(format!("served.client_tail_ms.{k}"), "ms", "lower"));
        defs.push(def(format!("served.queue_ms.{k}"), "ms", "lower"));
        defs.push(def(format!("served.run_ms.{k}"), "ms", "lower"));
        defs.push(def(format!("served.overhead_ms.{k}"), "ms", "lower"));
        defs.push(def(
            format!("served.cache_hit_frac.{k}"),
            "fraction",
            "higher",
        ));
    }
    defs.push(def("cache.evictions", "count", "lower"));
    defs.push(def("store.writes", "count", "lower"));
    defs.push(def("store.hits", "count", "higher"));
    defs.push(def("served.rejected", "count", "lower"));
    defs.push(def("served.protocol_errors", "count", "lower"));
    defs.push(def("op_p50_ms", "ms", "lower"));
    defs.push(def("trace.overhead_frac", "fraction", "lower"));
    defs.push(def("peak_rss_mb", "MB", "lower"));
    defs
}

/// Is `name` a valid metric name: a letter or digit, then at most 63
/// more letters, digits, `_`, `.` or `-`?
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`
/// or `-`?
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metric values collected by one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Checks the values against the catalogue `defs` and renders the
    /// result line.
    ///
    /// # Errors
    ///
    /// Names a metric that is missing, not in the catalogue or not a
    /// finite number.
    pub fn finish(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !defs.iter().any(|d| &d.name == *k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, d) in defs.iter().enumerate() {
            let value = self
                .get(&d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", d.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        line.push_str("}}");
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values of the objects in the `key` array.
    fn listed(key: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .expect("key present");
        let rest = &BENCHMARK_JSON[start..];
        let body = &rest[..rest.find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_owned())
            .collect()
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        for d in &all {
            assert!(valid_name(&d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}", d.unit);
            assert!(matches!(d.better, "lower" | "higher"));
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let names =
            |defs: Vec<MetricDef>| -> Vec<String> { defs.into_iter().map(|d| d.name).collect() };
        assert_eq!(listed("end_to_end"), names(end_to_end()));
        assert_eq!(listed("per_layer"), names(per_layer()));
        let workloads: Vec<String> = crate::workload::Workload::BENCHMARKED
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn name_validation() {
        assert!(valid_name("cluster.s.8PM-24"));
        assert!(!valid_name("_x"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_name("a b"));
    }

    #[test]
    fn finish_requires_every_metric() {
        let defs = vec![def("a", "s", "lower"), def("b", "ms", "lower")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.finish(&defs, true, 1, 0).is_err());
        m.set("b", 0.25);
        assert_eq!(
            m.finish(&defs, true, 3, 0).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        m.set("c", 1.0);
        assert!(m.finish(&defs, true, 1, 0).is_err());
        let mut m = Metrics::default();
        m.set("a", f64::NAN);
        m.set("b", 1.0);
        assert!(m.finish(&defs, true, 1, 0).is_err());
    }
}
