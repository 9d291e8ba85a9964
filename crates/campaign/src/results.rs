//! The stable results schema: campaign reports rendered as the same
//! two-level `{section: {key: number}}` JSON the bench record
//! (`BENCH_PR8.json`) uses, validated by `morestress check`.
//!
//! Layout: one summary section per campaign (job/solved/failed tallies,
//! the shared-cache counters and where the local stage spent its time)
//! plus one section per job. Sections are
//! prefixed with the campaign's input index so two campaigns with the
//! same name cannot collide, and every section carries the uniform
//! `hardware_threads`/`git_commit` stamps the gate requires.
//!
//! A job's solve is one column of its array's batched solve, so the
//! per-job `wall_ms` and `iterations` are the batch aggregate — the
//! array's shared wall time and summed iterations, repeated on each of
//! its jobs — while `sample_ms` is the job's own.
//!
//! Everything emitted is a number. Exact values that do not fit an `f64`
//! directly are split: the 64-bit job checksum is stored as
//! `checksum_hi`/`checksum_lo` (two 32-bit halves, both exact).

use std::io;
use std::path::Path;

use morestress_bench::{format_bench_sections, git_commit_number, hardware_threads, BenchSection};

use crate::runner::{CampaignReport, JobOutcome};

/// Renders reports into bench-record sections, in canonical order:
/// campaign-major, summary first, then jobs (array-major, load-minor).
/// The `hardware_threads`/`git_commit` stamps are appended to every
/// section here, so the output passes `check_bench_sections` as-is.
pub fn campaign_sections(reports: &[CampaignReport]) -> Vec<BenchSection> {
    let threads = hardware_threads();
    let commit = git_commit_number();
    let stamp = |mut entries: Vec<(String, f64)>| -> Vec<(String, f64)> {
        entries.push(("hardware_threads".to_string(), threads));
        entries.push(("git_commit".to_string(), commit));
        entries
    };

    // Section names are written unescaped, and the bench-JSON reader
    // takes no escapes: restrict the campaign-name portion to word
    // characters.
    let sanitize = |name: &str| -> String {
        name.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    };

    let mut sections = Vec::new();
    for (ci, report) in reports.iter().enumerate() {
        let name = sanitize(&report.name);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let local = &report.local_stage;
        let summary = vec![
            ("jobs".to_string(), report.jobs.len() as f64),
            ("solved".to_string(), report.solved() as f64),
            ("failed".to_string(), report.failed() as f64),
            ("cache_hits".to_string(), report.cache_hits as f64),
            ("cache_misses".to_string(), report.cache_misses as f64),
            ("local_build_ms".to_string(), ms(local.build)),
            ("local_factor_ms".to_string(), ms(local.factor)),
            ("local_sweeps_ms".to_string(), ms(local.sweeps)),
            ("local_projection_ms".to_string(), ms(local.projection)),
        ];
        sections.push((format!("campaign{ci}_{name}"), stamp(summary)));

        for job in &report.jobs {
            let mut entries = vec![
                ("load".to_string(), job.load),
                ("array_index".to_string(), job.array_index as f64),
                ("load_index".to_string(), job.load_index as f64),
            ];
            match &job.outcome {
                JobOutcome::Solved {
                    checksum,
                    peak_displacement,
                    peak_von_mises,
                    sample_ms,
                    stats,
                } => {
                    entries.push(("solved".to_string(), 1.0));
                    entries.push(("checksum_hi".to_string(), (checksum >> 32) as f64));
                    entries.push(("checksum_lo".to_string(), (checksum & 0xffff_ffff) as f64));
                    entries.push(("peak_displacement".to_string(), *peak_displacement));
                    entries.push(("peak_von_mises".to_string(), *peak_von_mises));
                    entries.push(("wall_ms".to_string(), stats.wall_time.as_secs_f64() * 1e3));
                    entries.push(("sample_ms".to_string(), *sample_ms));
                    entries.push(("total_dofs".to_string(), stats.total_dofs as f64));
                    entries.push(("free_dofs".to_string(), stats.free_dofs as f64));
                    entries.push((
                        "iterations".to_string(),
                        stats.iterations.unwrap_or(0) as f64,
                    ));
                    // 0 for the iterative backends, which hold no factor.
                    entries.push((
                        "factor_nnz".to_string(),
                        stats.factor_nnz.unwrap_or(0) as f64,
                    ));
                    entries.push(("shards".to_string(), stats.shards as f64));
                    entries.push((
                        "shards_refactored".to_string(),
                        stats.shards_refactored as f64,
                    ));
                    entries.push(("shards_reused".to_string(), stats.shards_reused as f64));
                    entries.push(("shards_degraded".to_string(), stats.shards_degraded as f64));
                    entries.push((
                        "operator_reused".to_string(),
                        f64::from(u8::from(stats.operator_reused)),
                    ));
                    // Only verified solves carry one: `verify` on the
                    // direct family, or `auto`'s own check.
                    if let Some(residual) = stats.verified_residual.filter(|r| r.is_finite()) {
                        entries.push(("verified_residual".to_string(), residual));
                    }
                }
                // The failure text lives in the human-readable CLI
                // output; the numeric record only tallies the outcome.
                JobOutcome::Failed { .. } => entries.push(("solved".to_string(), 0.0)),
            }
            sections.push((
                format!(
                    "campaign{ci}_{name}_array{}_load{}",
                    job.array_index, job.load_index
                ),
                stamp(entries),
            ));
        }
    }
    sections
}

/// Writes the reports as a schema-valid bench-record JSON file at `path`
/// (exactly where given, not at the workspace root).
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_results_json(path: impl AsRef<Path>, reports: &[CampaignReport]) -> io::Result<()> {
    std::fs::write(path, format_bench_sections(&campaign_sections(reports)))
}
