//! Metric tables, failure accounting and the one-line JSON result.

use hemelb_obs::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the served path sees. Reported
/// from the untraced run on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_mlups", "MLUPS"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced run on every workload; a
/// layer that does no work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geometry.read_s", "s"),
    ("geometry.read_bytes", "bytes"),
    ("geometry.self_s", "s"),
    ("partition.kway_s", "s"),
    ("partition.edge_cut", "count"),
    ("partition.imbalance", "ratio"),
    ("partition.fragments", "count"),
    ("partition.self_s", "s"),
    ("core.dist_new_s", "s"),
    ("core.step_s", "s"),
    ("core.collide_s", "s"),
    ("core.stream_s", "s"),
    ("core.site_updates", "count"),
    ("core.bytes_moved_computed", "bytes"),
    ("core.serial_mlups", "MLUPS"),
    ("core.self_s", "s"),
    ("parallel.halo_msgs", "count"),
    ("parallel.halo_bytes", "bytes"),
    ("parallel.halo_wait_s", "s"),
    ("parallel.overlap_efficiency", "ratio"),
    ("insitu.render_s", "s"),
    ("insitu.composite_s", "s"),
    ("insitu.samples_shaded", "count"),
    ("insitu.skip_ratio", "ratio"),
    ("insitu.composite_wire_bytes", "bytes"),
    ("steering.sim_step_s", "s"),
    ("steering.broadcast_s", "s"),
    ("steering.ship_s", "s"),
    ("steering.fanout_bytes", "bytes"),
    ("steering.cache_hit_ratio", "ratio"),
    ("steering.frames_degraded", "count"),
    ("steering.self_s", "s"),
    ("farm.prep_s", "s"),
    ("farm.prep_hit_ratio", "ratio"),
    ("farm.queue_wait_p90_s", "s"),
    ("farm.run_s", "s"),
    ("farm.retries", "count"),
    ("farm.failed", "count"),
    ("farm.self_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Named metric values of one run, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Set `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Every metric with its unit, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }
}

/// Operations attempted and failed, plus the correctness checks that
/// failed. A failed check is also a failed operation, so it shows in
/// the error ratio as well as in the exit code.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    /// Operations attempted (steps, frames, jobs, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Descriptions of the correctness checks that failed.
    pub check_failures: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.ops(1, u64::from(!ok));
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one correctness check; a failing check is recorded with
    /// its description and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The process exit code of a run with this tally.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `table`, each with its unit. A metric the workload did not set reads
/// 0 (a layer that does no work on this workload); a value that is not
/// finite is a bug in the workload and fails the run.
pub fn result_json(tally: &mut Tally, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let mut members = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = metrics.get(name).unwrap_or(0.0);
        tally.check(value.is_finite(), || format!("metric {name} is {value}"));
        members.push((
            name.to_string(),
            Json::Obj(vec![
                (
                    "value".into(),
                    Json::Num(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.correct())),
        ("attempted".into(), Json::Num(tally.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
        ("metrics".into(), Json::Obj(members)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_count_as_failed_operations_and_fail_the_run() {
        let mut t = Tally::default();
        t.ops(98, 0);
        t.check(true, || unreachable!("passing checks build no message"));
        assert!(t.correct());
        assert_eq!(t.exit_code(), 0);
        t.check(false, || "digest mismatch".into());
        assert_eq!((t.attempted, t.failed), (100, 1));
        assert!(!t.correct());
        assert_eq!(t.exit_code(), 1);
        assert_eq!(t.check_failures, vec!["digest mismatch".to_string()]);
        assert!((t.error_ratio() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn undelivered_operations_count_without_failing_the_run() {
        let mut t = Tally::default();
        t.ops(10, 2);
        t.op(false);
        assert_eq!((t.attempted, t.failed), (11, 3));
        assert!(t.correct(), "lost frames are errors, not wrong answers");
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }

    #[test]
    fn result_line_has_every_table_metric_and_rejects_non_finite_values() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, "s");
        m.set("ops_per_s", f64::NAN, "1/s");
        let mut t = Tally::default();
        t.ops(5, 0);
        let line = result_json(&mut t, &m, END_TO_END);
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(1));
        let metrics = j.get("metrics").unwrap();
        assert_eq!(metrics.as_obj().unwrap().len(), END_TO_END.len());
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            metrics.get("sim_mlups").unwrap().get("value"),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
