//! `--quick` end to end: every workload, untraced and traced, at the smoke
//! scale (coarse mesh, 6×6 blocks or fewer, three ops) against the
//! committed references — so every code path of the harness runs in
//! `cargo test`.

use std::path::PathBuf;

use morestress_benchmark::json::Value;
use morestress_benchmark::metrics::{END_TO_END, PER_LAYER};
use morestress_benchmark::run::{self, Config, Report};
use morestress_benchmark::workload::Workload;

fn quick(workload: Workload, trace: bool, tag: &str) -> (Config, Report) {
    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = std::env::temp_dir().join(format!(
        "morestress-bench-quick-{}-{}-{tag}",
        std::process::id(),
        workload.name()
    ));
    let cfg = Config {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        quick: true,
        reference_dir: bench_dir.join("reference"),
        out_dir,
    };
    let report = run::run(&cfg).expect("quick run completes");
    (cfg, report)
}

/// Layers a workload bypasses read 0 on its traced run; everything else
/// must have been measured.
fn bypassed(workload: Workload, metric: &str) -> bool {
    let prefix = |p: &str| metric.starts_with(p);
    match workload {
        Workload::ColdArray => {
            prefix("shard.") || metric == "cache.hits" || metric == "cache.hit_ratio"
        }
        Workload::LoadSweep => {
            prefix("shard.") || prefix("iterative.") || metric == "factor.prepare_ms"
        }
        Workload::PlacementLoop => {
            prefix("iterative.") || metric == "cache.hits" || metric == "cache.hit_ratio"
        }
        Workload::ModelBuild => {
            prefix("shard.")
                || prefix("iterative.")
                || metric == "cache.hits"
                || metric == "cache.hit_ratio"
        }
    }
}

#[test]
fn every_workload_runs_untraced_and_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let (cfg, report) = quick(workload, false, "plain");
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert!(report.attempted >= 3 + 4, "ops plus the gate's checks");
        for m in &END_TO_END {
            let v = report.metrics.get(m.name);
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {v:?}",
                workload.name(),
                m.name
            );
        }
        // The result line carries exactly the contract's keys.
        let line = report.result_line(false).to_line();
        let parsed = Value::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            parsed.get("metrics").unwrap().as_object().unwrap().len(),
            END_TO_END.len()
        );
        assert!(cfg
            .out_dir
            .join(format!("campaign-{}.json", workload.name()))
            .exists());
        std::fs::remove_dir_all(&cfg.out_dir).unwrap();
    }
}

#[test]
fn every_workload_runs_traced_and_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let (cfg, first) = quick(workload, true, "traced");
        assert!(first.correct(), "{}: {:?}", workload.name(), first.failures);
        for m in &PER_LAYER {
            let v = first.metrics.get(m.name).unwrap_or(0.0);
            assert!(v.is_finite(), "{}: {}", workload.name(), m.name);
            // Timings and rates must be positive wherever the layer ran.
            // Not so the by-subtraction and difference metrics (either
            // sign), the process counters (CPU seconds tick in hundredths
            // and a tiny window may fault no page in), and the reuse share
            // (a three-move run may reuse no shard).
            let may_be_zero = matches!(
                m.name,
                "local.rest_ms"
                    | "global.self_ms"
                    | "trace.overhead_pct"
                    | "proc.user_s"
                    | "proc.sys_s"
                    | "proc.minflt"
                    | "shard.reused_ratio"
            );
            if !bypassed(workload, m.name) && !may_be_zero {
                assert!(v > 0.0, "{}: {} = {v}", workload.name(), m.name);
            }
            if bypassed(workload, m.name) {
                assert_eq!(v, 0.0, "{}: {} should be bypassed", workload.name(), m.name);
            }
        }
        let trace_file = cfg.out_dir.join(format!("trace-{}.json", workload.name()));
        let spans = Value::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        assert!(spans.as_array().unwrap().iter().any(|s| {
            s.get("name").and_then(Value::as_str) == Some("factor.prepare")
                && s.get("parent").and_then(Value::as_f64).is_some()
        }));

        // Same seed again: every count-type metric repeats exactly.
        let (_, second) = quick(workload, true, "traced");
        // Children of every op span account for (nearly) all of it. At this
        // scale an op is a millisecond and the tests share two cores, so
        // the worst op of one run can lose a time slice between two spans;
        // the worst op of both runs losing one is not noise.
        let cover = |r: &Report| r.metrics.get("trace.op_cover_pct").unwrap();
        assert!(cover(&first).max(cover(&second)) >= 95.0);
        for m in PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "B")
        {
            if matches!(m.name, "proc.minflt" | "results.bytes") {
                continue; // OS- and timing-dependent, not a program count
            }
            assert_eq!(
                first.metrics.get(m.name),
                second.metrics.get(m.name),
                "{}: {}",
                workload.name(),
                m.name
            );
        }
        std::fs::remove_dir_all(&cfg.out_dir).unwrap();
    }
}

#[test]
fn accuracy_is_deterministic_and_a_wrong_reference_fails_the_gate() {
    let (cfg, a) = quick(Workload::LoadSweep, false, "accuracy");
    let (_, b) = quick(Workload::LoadSweep, false, "accuracy");
    assert_eq!(
        a.metrics.get("rom_error_pct"),
        b.metrics.get("rom_error_pct")
    );

    // Point the run at references whose fixed-input peak is off by 1e-4:
    // the gate must count it and the run must report itself incorrect.
    let fake = cfg.out_dir.join("reference");
    std::fs::create_dir_all(&fake).unwrap();
    for entry in std::fs::read_dir(&cfg.reference_dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), fake.join(entry.file_name())).unwrap();
    }
    let peaks = std::fs::read_to_string(fake.join("peaks.txt")).unwrap();
    let skewed: String = peaks
        .lines()
        .map(|l| match l.strip_prefix("quick.load_sweep ") {
            Some(v) => format!("quick.load_sweep {}\n", v.parse::<f64>().unwrap() * 1.0001),
            None => format!("{l}\n"),
        })
        .collect();
    std::fs::write(fake.join("peaks.txt"), skewed).unwrap();
    let wrong = Config {
        reference_dir: fake,
        ..cfg.clone()
    };
    let report = run::run(&wrong).unwrap();
    assert!(!report.correct());
    assert_eq!(report.failed, 1);
    assert!(report.failures[0].contains("fixed-input peak"));
    std::fs::remove_dir_all(&cfg.out_dir).unwrap();
}
