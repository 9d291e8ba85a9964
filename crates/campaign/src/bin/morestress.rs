//! The `morestress` command-line front door.
//!
//! ```text
//! morestress campaign run <spec.yml>... [--out results.json]
//! ```
//!
//! Parses each spec, admits all campaigns to one [`CampaignRunner`]
//! (same-model campaigns share a simulator and its factor cache), prints
//! a per-job table, and writes the numeric results record (the
//! `check_bench_json`-validated schema). Exits non-zero when a spec is
//! invalid, a model cannot be built, or any job fails.

use std::process::ExitCode;

use morestress_campaign::{results, CampaignRunner, CampaignSpec, JobOutcome};
use morestress_linalg::WorkPool;

const USAGE: &str = "usage: morestress campaign run <spec.yml>... [--out results.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["campaign", "run", ..] => run(&args[2..]),
        ["--help"] | ["-h"] | [] => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut spec_paths = Vec::new();
    let mut out = String::from("campaign_results.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            match iter.next() {
                Some(path) => out = path.clone(),
                None => {
                    eprintln!("--out needs a file argument\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        } else if arg.starts_with("--") {
            eprintln!("unknown option `{arg}`\n{USAGE}");
            return ExitCode::FAILURE;
        } else {
            spec_paths.push(arg.clone());
        }
    }
    if spec_paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }

    let mut specs = Vec::new();
    for path in &spec_paths {
        match CampaignSpec::from_file(path) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Run header: the effective runtime configuration, so logs record it.
    println!("morestress campaign run");
    println!(
        "  workers: {} (MORESTRESS_THREADS={})",
        WorkPool::current().cap(),
        std::env::var("MORESTRESS_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    for (path, spec) in spec_paths.iter().zip(&specs) {
        println!(
            "  campaign `{}` ({path}): {} arrays x {} loads",
            spec.name,
            spec.arrays.len(),
            spec.loads.len()
        );
    }

    let reports = match CampaignRunner::new().run(&specs) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("model build failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut any_failed = false;
    for report in &reports {
        println!("\ncampaign `{}`:", report.name);
        for job in &report.jobs {
            match &job.outcome {
                JobOutcome::Solved {
                    peak_von_mises,
                    peak_displacement,
                    sample_ms,
                    stats,
                    ..
                } => {
                    // Which factor served the job: a band where a
                    // dissection was expected shows here, not in a profile.
                    let factor = match (stats.ordering, stats.factor_nnz) {
                        (Some(ordering), Some(nnz)) => format!("  {ordering} factor, {nnz} nnz"),
                        (None, Some(nnz)) => format!("  sharded factor, {nnz} nnz"),
                        (_, None) => String::new(),
                    };
                    println!(
                        "  array {} dT={:>8.1}  peak vm {:>9.2} MPa  peak |u| {:>8.4} um  {:>7.1} ms + {:>6.1} ms sampling{factor}",
                        job.array_index,
                        job.load,
                        peak_von_mises,
                        peak_displacement,
                        stats.wall_time.as_secs_f64() * 1e3,
                        sample_ms,
                    )
                }
                JobOutcome::Failed { error } => {
                    any_failed = true;
                    println!(
                        "  array {} dT={:>8.1}  FAILED: {error}",
                        job.array_index, job.load
                    );
                }
            }
        }
        println!(
            "  {} solved, {} failed; factor cache {} hits / {} misses; {} operators reused",
            report.solved(),
            report.failed(),
            report.cache_hits,
            report.cache_misses,
            report.operators_reused(),
        );
        let local = &report.local_stage;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "  local stage {:.1} ms: factor {:.1} ms, sweeps {:.1} ms, projection {:.1} ms",
            ms(local.build),
            ms(local.factor),
            ms(local.sweeps),
            ms(local.projection),
        );
    }

    if let Err(e) = results::write_results_json(&out, &reports) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nresults: {out}");

    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
