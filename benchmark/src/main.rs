//! The benchmark's command line. `run.sh` builds this binary and hands its
//! arguments through:
//!
//! ```text
//! morestress-benchmark --workload W [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//! morestress-benchmark compare <a.jsonl> <b.jsonl>
//! morestress-benchmark --regen-reference
//! ```
//!
//! A run prints every metric by name with its unit, appends one record
//! line to the results file, and ends standard output with the one-line
//! JSON result. Any correctness failure makes the exit code non-zero.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use morestress_benchmark::json::{obj, Value};
use morestress_benchmark::run::{self, Config, Report};
use morestress_benchmark::workload::Workload;
use morestress_benchmark::{compare, env, metrics};

const USAGE: &str =
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
       run.sh compare <a.jsonl> <b.jsonl>
       run.sh --regen-reference
workloads: cold_array load_sweep placement_loop model_build (default: each, one process apiece)";

/// `run_seconds` of `BENCHMARK.json`: the window when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 12.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// The benchmark directory: handed in by `run.sh`, else where this package
/// was built from.
fn bench_dir() -> PathBuf {
    std::env::var_os("MORESTRESS_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(format!("compare takes two record files\n{USAGE}"));
            };
            let (table, all_ok) =
                compare::compare(&compare::read_records(a)?, &compare::read_records(b)?);
            print!("{table}");
            Ok(if all_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("--regen-reference") => {
            run::regen_reference(&bench_dir())?;
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run_workload(args),
    }
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let dir = bench_dir();
    let mut cfg = Config {
        workload: Workload::ColdArray,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        reference_dir: dir.join("reference"),
        out_dir: dir.join("out"),
    };
    let mut workload = None;
    let mut out = dir.join("out").join("results.jsonl");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => {
                cfg.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer\n{USAGE}"))?;
            }
            "--seconds" => {
                cfg.seconds = match value("a number of seconds")?.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("--seconds needs a non-negative number\n{USAGE}")),
                };
            }
            "--out" => out = PathBuf::from(value("a file")?),
            "--quick" => cfg.quick = true,
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    cfg.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if cfg.quick {
        cfg.seconds = 0.0;
    }

    let report = run::run(&cfg)?;
    print_summary(&cfg, &report);
    append_record(&out, &cfg, &report)?;
    println!("{}", report.result_line(cfg.trace).to_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every metric by name, with its unit and the sample counts behind it.
fn print_summary(cfg: &Config, report: &Report) {
    let samples = &report.samples;
    println!(
        "== {} seed={} seconds={} trace={} quick={} pool_cap={} ==",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.quick,
        env::pinned_pool_cap(),
    );
    for m in metrics::table(cfg.trace) {
        let value = report.metrics.get(m.name).unwrap_or(0.0);
        let count = match m.name {
            "op_ms_p50" | "ops_per_s" => format!("  (n={} ops)", samples.ops),
            "setup_s" => format!("  (median of {} set-ups)", samples.setups),
            "campaign_s" => format!("  (median of {} campaigns)", samples.campaigns),
            _ => String::new(),
        };
        let wall = match report.wall.get(m.name) {
            Some(wall) if !cfg.trace => format!("  [wall clock {wall:.6}]"),
            _ => String::new(),
        };
        println!("{:<28} {:>16.6} {}{}{}", m.name, value, m.unit, count, wall);
    }
    println!(
        "host slowdown {:.4} (median probe time / reference; timings above are at reference speed)",
        report.host_slowdown
    );
    println!(
        "op_ms tail (11th-largest of {}): {}   max: {:.3} ms   [not gated]",
        samples.ops,
        samples
            .op_ms_tail
            .map_or("n/a (fewer than 11 ops)".to_string(), |t| format!(
                "{t:.3} ms"
            )),
        samples.op_ms_max,
    );
    println!(
        "failed_frac {:.6} ({} of {} ops and checks)",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
}

/// Appends the run's record — what `compare` reads — to `path`.
fn append_record(path: &std::path::Path, cfg: &Config, report: &Report) -> Result<(), String> {
    let samples = &report.samples;
    let record = obj([
        ("workload", cfg.workload.name().into()),
        ("seed", cfg.seed.to_string().into()),
        ("seconds", cfg.seconds.into()),
        ("trace", cfg.trace.into()),
        ("quick", cfg.quick.into()),
        ("env", env::stamp()),
        ("correct", report.correct().into()),
        ("attempted", (report.attempted as f64).into()),
        ("failed", (report.failed as f64).into()),
        ("failed_frac", report.failed_frac().into()),
        (
            "failures",
            Value::Arr(report.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("ops", (samples.ops as f64).into()),
        (
            "op_ms_tail",
            samples.op_ms_tail.map_or(Value::Null, Value::Num),
        ),
        ("op_ms_max", samples.op_ms_max.into()),
        ("setups", (samples.setups as f64).into()),
        ("campaigns", (samples.campaigns as f64).into()),
        ("metrics", report.metrics.to_json(metrics::table(cfg.trace))),
        (
            "wall",
            Value::Obj(
                metrics::END_TO_END
                    .iter()
                    .filter_map(|m| Some((m.name.to_string(), report.wall.get(m.name)?.into())))
                    .collect(),
            ),
        ),
        ("host_slowdown", report.host_slowdown.into()),
        (
            "probe_kernels_ms",
            Value::Arr(report.probe_kernels_ms.map(Value::Num).to_vec()),
        ),
    ]);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", record.to_line()).map_err(|e| format!("{}: {e}", path.display()))
}
