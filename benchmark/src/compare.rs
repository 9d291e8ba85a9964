//! `compare <a.jsonl> <b.jsonl>`: applies the per-metric bounds to two
//! sets of run records and prints one row per workload × end-to-end
//! metric — the tool the agreement criterion and later reviews use.
//!
//! A set is a file of record lines as `run.sh` appends them (one per run;
//! several runs of one workload, ideally under different seeds, give the
//! run-to-run spread). `a` is the baseline, `b` the candidate.

use crate::json::Value;
use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::{median, spread};
use crate::workload::Workload;

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the baseline's by more than
    /// the bound.
    Ok,
    /// The candidate's median is worse by more than the bound.
    Worse,
    /// The spread between repeats of either set exceeds the bound, so the
    /// medians cannot be told apart — unless every candidate run beats
    /// every baseline run, which still counts as [`Verdict::Ok`].
    Unresolved,
    /// One of the sets has no run of this workload.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges candidate samples `b` against baseline samples `a` of `metric`.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (ma, mb) = (median(a), median(b));
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init: f64| v.iter().copied().fold(init, f);
    let (worse_by, all_better) = match metric.better {
        Better::Lower => (
            (mb - ma) / ma.abs(),
            fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY),
        ),
        Better::Higher => (
            (ma - mb) / ma.abs(),
            fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY),
        ),
    };
    if spread(a) > metric.bound || spread(b) > metric.bound {
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The untraced samples of `metric` on `workload` in a parsed record set.
fn samples(records: &[Value], workload: Workload, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload.name())
                && r.get("trace").and_then(Value::as_bool) == Some(false)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Parses a record set: one JSON object per non-empty line.
///
/// # Errors
///
/// The file cannot be read, or a line is not a JSON object.
pub fn read_records(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| match Value::parse(line) {
            Ok(value @ Value::Obj(_)) => Ok(value),
            Ok(_) => Err(format!("{path}: line {}: not an object", i + 1)),
            Err(e) => Err(format!("{path}: line {}: {e}", i + 1)),
        })
        .collect()
}

/// Compares two record sets and renders the table. The flag is `true`
/// when every row is `ok`.
pub fn compare(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<14} {:>5} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "unit",
        "a.median",
        "a.iqr%",
        "b.median",
        "b.iqr%",
        "change%",
        "bound%"
    );
    let mut all_ok = true;
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let sa = samples(a, workload, metric.name);
            let sb = samples(b, workload, metric.name);
            let v = verdict(metric, &sa, &sb);
            all_ok &= v == Verdict::Ok;
            let med = |s: &[f64]| if s.is_empty() { f64::NAN } else { median(s) };
            let (ma, mb) = (med(&sa), med(&sb));
            out.push_str(&format!(
                "{:<15} {:<14} {:>5} {:>12.4} {:>8.2} {:>12.4} {:>8.2} {:>+8.2} {:>6.1}  {} (n={}/{})\n",
                workload.name(),
                metric.name,
                metric.unit,
                ma,
                100.0 * spread(&sa),
                mb,
                100.0 * spread(&sb),
                100.0 * (mb - ma) / ma.abs(),
                100.0 * metric.bound,
                v.as_str(),
                sa.len(),
                sb.len(),
            ));
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    const LOWER: Metric = END_TO_END[1]; // op_ms_p50, bound 25 %
    const HIGHER: Metric = END_TO_END[2]; // ops_per_s, bound 25 %

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        assert_eq!((LOWER.name, HIGHER.name), ("op_ms_p50", "ops_per_s"));
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.4).collect();
        let slightly: Vec<f64> = steady.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&LOWER, &steady, &slightly), Verdict::Ok);
        assert_eq!(verdict(&LOWER, &steady, &slower), Verdict::Worse);
        // Direction: +40 % is an improvement for a higher-is-better metric.
        assert_eq!(verdict(&HIGHER, &steady, &slower), Verdict::Ok);
        assert_eq!(verdict(&HIGHER, &slower, &steady), Verdict::Worse);
        // Spread beyond the bound: unresolved, unless b wins every pairing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&LOWER, &steady, &noisy), Verdict::Unresolved);
        let noisy_but_faster = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(verdict(&LOWER, &steady, &noisy_but_faster), Verdict::Ok);
        assert_eq!(verdict(&LOWER, &steady, &[]), Verdict::Missing);
    }

    #[test]
    fn compare_reads_only_untraced_records_of_the_workload() {
        let record = |workload: &str, trace: bool, ms: f64| {
            obj([
                ("workload", workload.into()),
                ("trace", trace.into()),
                ("metrics", obj([("op_ms_p50", obj([("value", ms.into())]))])),
            ])
        };
        let set = vec![
            record("load_sweep", false, 10.0),
            record("load_sweep", true, 99.0),
            record("cold_array", false, 20.0),
        ];
        assert_eq!(samples(&set, Workload::LoadSweep, "op_ms_p50"), vec![10.0]);
        let (table, all_ok) = compare(&set, &set);
        assert!(!all_ok, "metrics absent from the records read as missing");
        assert!(table.contains("load_sweep"));
        assert_eq!(
            table.lines().count(),
            1 + Workload::ALL.len() * END_TO_END.len()
        );
    }
}
