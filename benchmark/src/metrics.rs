//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` restates
//! these tables for the driver; a unit test keeps the two identical.

use crate::json::{obj, Value};

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, error).
    Lower,
    /// Larger is better (throughput, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of either table. `bound` is the share of the baseline
/// median by which an end-to-end metric may worsen before a change counts
/// as a regression; per-layer metrics carry no bound (0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// The metrics a user of the stack sees; every one is reported by every
/// workload on the untraced run. The failure share is not in this table —
/// it is 0 on a healthy run, and the driver takes it from the result
/// line's `failed`/`attempted` instead.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("campaign_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("rom_error_pct", "%", Lower, 0.02),
];

/// Single-layer metrics, reported by the traced run. A layer a workload
/// bypasses reads 0 there.
pub const PER_LAYER: [Metric; 64] = [
    layer("spec.parse_us", "us", Lower),
    layer("results.write_ms", "ms", Lower),
    layer("results.bytes", "B", Lower),
    layer("runner.wall_ms", "ms", Lower),
    layer("runner.model_ms", "ms", Lower),
    layer("runner.jobs_wall_sum_ms", "ms", Lower),
    layer("runner.parallel_gain", "ratio", Higher),
    layer("mesh.unit_block_ms", "ms", Lower),
    layer("mesh.nodes", "count", Lower),
    layer("fem.assemble_ms", "ms", Lower),
    layer("fem.nnz", "count", Lower),
    layer("local.build_ms", "ms", Lower),
    layer("local.factor_ms", "ms", Lower),
    layer("local.sweeps_ms", "ms", Lower),
    layer("local.rest_ms", "ms", Lower),
    layer("local.fine_dofs", "count", Lower),
    layer("local.num_basis", "count", Lower),
    layer("local.factor_nnz", "count", Lower),
    layer("local.peak_bytes_est", "B", Lower),
    layer("model.rom_save_ms", "ms", Lower),
    layer("model.rom_load_ms", "ms", Lower),
    layer("model.rom_bytes", "B", Lower),
    layer("global.stage_ms", "ms", Lower),
    layer("global.self_ms", "ms", Lower),
    layer("global.total_dofs", "count", Lower),
    layer("global.free_dofs", "count", Lower),
    layer("global.nnz", "count", Lower),
    layer("global.batch8_ms", "ms", Lower),
    layer("cache.fingerprint_ms", "ms", Lower),
    layer("cache.hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("ordering.perm_ms", "ms", Lower),
    layer("factor.prepare_ms", "ms", Lower),
    layer("factor.numeric_ms", "ms", Lower),
    layer("factor.nnz", "count", Lower),
    layer("factor.bytes_est", "B", Lower),
    layer("factor.supernodes", "count", Lower),
    layer("factor.critical_path_frac", "ratio", Lower),
    layer("factor.prepare_ms_1w", "ms", Lower),
    layer("factor.par_speedup", "ratio", Higher),
    layer("kernel.rank_update_gflops", "GFLOP/s", Higher),
    layer("sweep.ms_per_rhs", "ms", Lower),
    layer("sweep.panel8_ms", "ms", Lower),
    layer("shard.plan_ms", "ms", Lower),
    layer("shard.interface_dofs", "count", Lower),
    layer("shard.balance_ratio", "ratio", Lower),
    layer("shard.peak_shard_bytes_est", "B", Lower),
    layer("shard.prepare_cold_ms", "ms", Lower),
    layer("shard.prepare_incr_ms", "ms", Lower),
    layer("shard.refactored_per_op", "count", Lower),
    layer("shard.reused_ratio", "ratio", Higher),
    layer("iterative.gmres_ms", "ms", Lower),
    layer("iterative.gmres_iters", "count", Lower),
    layer("iterative.cg_ms", "ms", Lower),
    layer("iterative.cg_iters", "count", Lower),
    layer("reconstruct.sample_ms", "ms", Lower),
    layer("reconstruct.points", "count", Higher),
    layer("proc.user_s", "s", Lower),
    layer("proc.sys_s", "s", Lower),
    layer("proc.minflt", "count", Lower),
    layer("pool.cap", "count", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.op_cover_pct", "%", Higher),
];

/// The table a run reports: per-layer when traced, end-to-end otherwise.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Measured values keyed by metric name, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics when the name was already recorded: two writers for one
    /// metric is a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric `{name}` recorded twice");
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Appends every entry of `other`.
    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    /// Renders exactly the metrics of `table`, in table order, as the
    /// result line's `metrics` object. A table metric nothing recorded is a
    /// layer that did not run: it reads 0.
    ///
    /// # Panics
    ///
    /// Panics when a value was recorded under a name outside `table` — a
    /// misspelt metric must not vanish silently.
    pub fn to_json(&self, table: &[Metric]) -> Value {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric `{name}` is not in the table"
            );
        }
        Value::Obj(
            table
                .iter()
                .map(|m| {
                    let value = self.get(m.name).unwrap_or(0.0);
                    (
                        m.name.to_string(),
                        obj([("value", value.into()), ("unit", m.unit.into())]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(seen.insert(w.name()), "{} collides", w.name());
        }
    }

    #[test]
    fn tables_match_the_manifest_exactly() {
        let manifest = manifest();
        let ours = |table: &[Metric], bounded: bool| -> Vec<_> {
            table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&manifest, "end_to_end"), ours(&END_TO_END, true));
        assert_eq!(listed(&manifest, "per_layer"), ours(&PER_LAYER, false));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        // setup_s carries the largest bound, and no bound exceeds the cap.
        let setup = END_TO_END[0];
        assert_eq!(setup.name, "setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }

    #[test]
    fn emitted_object_carries_exactly_the_table() {
        let mut values = Values::default();
        values.set("op_ms_p50", 1.5);
        let json = values.to_json(&END_TO_END);
        let entries = json.as_object().unwrap();
        let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        let p50 = json.get("op_ms_p50").unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_refused() {
        let mut values = Values::default();
        values.set("op_ms_p5O", 1.0);
        let _ = values.to_json(&END_TO_END);
    }
}
