//! `morestress`, the workspace's one command line.
//!
//! ```text
//! morestress campaign run <spec.yml>... [--out results.json]
//! morestress repro [table1|table2|table3|fig6|all] [--scale small|paper]
//! morestress check <record.json>...
//! ```
//!
//! * `campaign run` parses each spec, admits all campaigns to one
//!   [`CampaignRunner`] (same-model campaigns share a simulator and its
//!   factor cache), prints a per-job table, and writes the numeric results
//!   record.
//! * `repro` regenerates the paper's tables ([`morestress_bench::repro`]).
//! * `check` validates results records against their schema
//!   ([`results::check_files`]).
//!
//! Exit status: 2 for a bad command line (the usage on stderr, nothing on
//! stdout, nothing computed); 1 for a failed run — an invalid spec or
//! record, a model that cannot be built, a failed job or table; 0
//! otherwise.

use std::process::ExitCode;

use morestress_bench::{Experiment, Scale};
use morestress_campaign::{results, CampaignRunner, CampaignSpec, JobOutcome};
use morestress_linalg::WorkPool;

const USAGE: &str = "\
usage: morestress campaign run <spec.yml>... [--out results.json]
       morestress repro [table1|table2|table3|fig6|all] [--scale small|paper]
       morestress check <record.json>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The outer `Err` is a bad command line, the inner one a failed run.
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--help"] | ["-h"] => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        ["campaign", "run", ..] => parse_run(&args[2..]).map(|(specs, out)| run(&specs, &out)),
        ["repro", ..] => parse_repro(&args[1..]).map(|(which, scale)| {
            morestress_bench::repro(which, &scale).map_err(|e| format!("repro failed: {e}"))
        }),
        ["check", ..] => parse_check(&args[1..]).map(|paths| {
            if results::check_files(paths) {
                Ok(())
            } else {
                Err("check failed".to_string())
            }
        }),
        [] => Err("no command".to_string()),
        [command, ..] => Err(format!("unknown command `{command}`")),
    };
    match outcome {
        Err(usage) => {
            eprintln!("{usage}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Err(failure)) => {
            eprintln!("{failure}");
            ExitCode::FAILURE
        }
        Ok(Ok(())) => ExitCode::SUCCESS,
    }
}

/// `campaign run`'s spec paths and `--out` file.
fn parse_run(args: &[String]) -> Result<(Vec<String>, String), String> {
    let mut spec_paths = Vec::new();
    let mut out = String::from("campaign_results.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--out" {
            out = iter.next().ok_or("--out needs a file argument")?.clone();
        } else if arg.starts_with("--") {
            return Err(format!("unknown option `{arg}`"));
        } else {
            spec_paths.push(arg.clone());
        }
    }
    if spec_paths.is_empty() {
        return Err("campaign run needs a spec file".to_string());
    }
    Ok((spec_paths, out))
}

/// `repro`'s experiment and scale.
fn parse_repro(args: &[String]) -> Result<(Experiment, Scale), String> {
    let mut which = Experiment::All;
    let mut scale = Scale::small();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--scale" {
            let name = iter.next().ok_or("--scale needs a value")?;
            scale = Scale::from_name(name).ok_or(format!("unknown scale `{name}`"))?;
        } else {
            which = Experiment::from_name(arg).ok_or(format!("unknown argument `{arg}`"))?;
        }
    }
    Ok((which, scale))
}

/// `check`'s record files.
fn parse_check(args: &[String]) -> Result<&[String], String> {
    match args.iter().find(|arg| arg.starts_with("--")) {
        Some(arg) => Err(format!("unknown option `{arg}`")),
        None if args.is_empty() => Err("check needs a record file".to_string()),
        None => Ok(args),
    }
}

fn run(spec_paths: &[String], out: &str) -> Result<(), String> {
    let specs = spec_paths
        .iter()
        .map(|path| CampaignSpec::from_file(path).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;

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

    let reports = CampaignRunner::new()
        .run(&specs)
        .map_err(|e| format!("model build failed: {e}"))?;

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
                    // dissection was expected shows here, not in a profile,
                    // and so does the mirror group it was folded by.
                    let fold = stats.fold_order;
                    let factor = match (stats.supernode_stats, stats.factor_nnz) {
                        (Some(factor), Some(nnz)) => {
                            format!("  {} factor, {nnz} nnz, fold {fold}", factor.ordering)
                        }
                        (None, Some(nnz)) => format!("  sharded factor, {nnz} nnz, fold {fold}"),
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
                JobOutcome::Failed { error } => println!(
                    "  array {} dT={:>8.1}  FAILED: {error}",
                    job.array_index, job.load
                ),
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

    results::write_results_json(out, &reports).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nresults: {out}");
    match reports.iter().map(|report| report.failed()).sum::<usize>() {
        0 => Ok(()),
        failed => Err(format!("{failed} jobs failed")),
    }
}
