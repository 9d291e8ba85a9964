//! The stable results schema: campaign reports rendered as a two-level
//! `{section: {key: number}}` JSON record, and the reader and checker
//! behind `morestress check`. This module is the one place that knows
//! the format: [`render`] writes it, [`parse`] reads it back, [`check`]
//! validates what was read and [`check_files`] does all three for the
//! CLI.
//!
//! Layout: one summary section per campaign (job/solved/failed tallies,
//! the shared-cache counters and where the local stage spent its time)
//! plus one section per job. Sections are
//! prefixed with the campaign's input index so two campaigns with the
//! same name cannot collide, and every section carries the uniform
//! `hardware_threads`/`git_commit` stamps the check requires.
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

use crate::runner::{CampaignReport, JobOutcome};

/// One record section: a name plus its key → number entries.
pub type Section = (String, Vec<(String, f64)>);

/// `hardware_threads` of this machine, as stamped on every section.
fn hardware_threads() -> f64 {
    std::thread::available_parallelism().map_or(1, |p| p.get()) as f64
}

/// The current git commit as a number (the first 12 hex digits of `HEAD`,
/// parsed base-16 — 48 bits, exact in an `f64`), or 0 when git is
/// unavailable. The record is numbers-only JSON, so the hash is stored
/// numerically; `format!("{:012x}", v as u64)` recovers the short hash.
fn git_commit_number() -> f64 {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| u64::from_str_radix(String::from_utf8_lossy(&out.stdout).trim(), 16).ok())
        .map_or(0.0, |v| v as f64)
}

/// Renders reports into record sections, in canonical order:
/// campaign-major, summary first, then jobs (array-major, load-minor).
/// The `hardware_threads`/`git_commit` stamps are appended to every
/// section here, so the output passes [`check`] as-is.
pub fn campaign_sections(reports: &[CampaignReport]) -> Vec<Section> {
    let threads = hardware_threads();
    let commit = git_commit_number();
    let stamp = |mut entries: Vec<(String, f64)>| -> Vec<(String, f64)> {
        entries.push(("hardware_threads".to_string(), threads));
        entries.push(("git_commit".to_string(), commit));
        entries
    };

    // Section names are written unescaped, and `parse` takes no
    // escapes: restrict the campaign-name portion to word
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
                    // The order of the mirror group that factor was folded
                    // by: 1 when unfolded, and for the iterative backends.
                    entries.push(("fold_order".to_string(), stats.fold_order as f64));
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

/// Writes the reports as a schema-valid results record at `path`
/// (exactly where given, not at the workspace root).
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_results_json(path: impl AsRef<Path>, reports: &[CampaignReport]) -> io::Result<()> {
    std::fs::write(path, render(&campaign_sections(reports)))
}

/// Serializes sections into the two-level `{section: {key: number}}` text
/// that [`parse`] reads back. Section order is preserved as given.
pub fn render(sections: &[Section]) -> String {
    let mut out = String::from("{\n");
    for (si, (name, kvs)) in sections.iter().enumerate() {
        out.push_str(&format!("  \"{name}\": {{\n"));
        for (ki, (k, v)) in kvs.iter().enumerate() {
            let comma = if ki + 1 < kvs.len() { "," } else { "" };
            out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        let comma = if si + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  }}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the two-level `{section: {key: number}}` JSON object that
/// [`render`] writes, whatever its layout: tokens may be separated by any
/// whitespace, on one line or many. Returns `None` on anything else — a
/// third level, a value that is not a number, a string with escapes,
/// trailing text. Values parse as Rust `f64` literals, so a non-finite
/// one written as `NaN` or `inf` reads back for [`check`] to name.
pub fn parse(text: &str) -> Option<Vec<Section>> {
    let mut json = JsonCursor(text);
    json.eat('{')?;
    let sections = json.list('}', |json| {
        let name = json.string()?;
        json.eat(':')?;
        json.eat('{')?;
        let entries = json.list('}', |json| {
            let key = json.string()?;
            json.eat(':')?;
            Some((key, json.number()?))
        })?;
        Some((name, entries))
    })?;
    json.0.trim_start().is_empty().then_some(sections)
}

/// The unread rest of a record's text.
struct JsonCursor<'a>(&'a str);

impl JsonCursor<'_> {
    /// Skips whitespace, then consumes `c`; consumes nothing on a mismatch.
    fn eat(&mut self, c: char) -> Option<()> {
        self.0 = self.0.trim_start().strip_prefix(c)?;
        Some(())
    }

    /// Comma-separated items up to and including `close`.
    fn list<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::new();
        if self.eat(close).is_some() {
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close).is_some() {
                return Some(items);
            }
            self.eat(',')?;
        }
    }

    /// A string without escapes.
    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let (s, rest) = self.0.split_once('"')?;
        if s.contains('\\') {
            return None;
        }
        self.0 = rest;
        Some(s.to_string())
    }

    /// The text up to the next delimiter, as an `f64`.
    fn number(&mut self) -> Option<f64> {
        let rest = self.0.trim_start();
        let end = rest
            .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
            .unwrap_or(rest.len());
        self.0 = &rest[end..];
        rest[..end].parse().ok()
    }
}

/// Validates one parsed record against the schema `morestress check`
/// enforces: at least one section, every section non-empty, every value
/// finite, and the uniform stamps present (`hardware_threads >= 1` and
/// `git_commit`). Returns the violations found (empty means valid).
pub fn check(sections: &[Section]) -> Vec<String> {
    let mut problems = Vec::new();
    if sections.is_empty() {
        problems.push("record has no sections".to_string());
    }
    for (name, entries) in sections {
        if entries.is_empty() {
            problems.push(format!("section {name:?} is empty"));
        }
        for (key, value) in entries {
            if !value.is_finite() {
                problems.push(format!("section {name:?}: {key} = {value} is not finite"));
            }
        }
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        match get("hardware_threads") {
            None => problems.push(format!("section {name:?} is missing hardware_threads")),
            Some(v) if v < 1.0 => {
                problems.push(format!("section {name:?}: hardware_threads = {v} < 1"));
            }
            Some(_) => {}
        }
        if get("git_commit").is_none() {
            problems.push(format!("section {name:?} is missing git_commit"));
        }
    }
    problems
}

/// Validates each record file ([`parse`], then [`check`]): prints one `ok`
/// line per valid file to stdout and one `FAIL` line per problem, naming
/// the file, to stderr. Returns whether every file passed.
pub fn check_files(paths: &[impl AsRef<Path>]) -> bool {
    let mut all_ok = true;
    for path in paths {
        let name = path.as_ref().display();
        let problems = match std::fs::read_to_string(path) {
            Err(e) => vec![format!("unreadable: {e}")],
            Ok(text) => match parse(&text) {
                None => vec!["not in the {section: {key: number}} format".to_string()],
                Some(sections) => {
                    let problems = check(&sections);
                    if problems.is_empty() {
                        let keys: usize = sections.iter().map(|(_, kv)| kv.len()).sum();
                        println!("ok   {name}: {} sections, {keys} keys", sections.len());
                    }
                    problems
                }
            },
        };
        for problem in &problems {
            eprintln!("FAIL {name}: {problem}");
        }
        all_ok &= problems.is_empty();
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-section record with the stamps and the given extra entries.
    fn stamped(extra: &[(&str, f64)]) -> Vec<Section> {
        let mut entries: Vec<(String, f64)> =
            extra.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        entries.push(("hardware_threads".to_string(), 2.0));
        entries.push(("git_commit".to_string(), 5.0));
        vec![("s".to_string(), entries)]
    }

    #[test]
    fn parse_reads_what_render_writes_in_any_layout() {
        let sections = vec![
            ("a".to_string(), vec![("x".to_string(), -0.25)]),
            ("b".to_string(), vec![]),
        ];
        assert_eq!(parse(&render(&sections)), Some(sections.clone()));
        assert_eq!(
            parse(r#"{"a":{"x":-0.25},"b":{}}"#),
            Some(sections),
            "one line, no spaces"
        );
        assert_eq!(parse(" { } "), Some(vec![]));
    }

    #[test]
    fn parse_rejects_anything_but_two_levels_of_numbers() {
        for (what, text) in [
            ("a third level", r#"{"a": {"x": {"y": 1}}}"#),
            ("a string with an escape", r#"{"a\"b": {"x": 1}}"#),
            ("an escaped key", r#"{"a": {"x\\n": 1}}"#),
            ("trailing text", r#"{"a": {"x": 1}} x"#),
            ("a second record", r#"{"a": {"x": 1}} {}"#),
            ("a string value", r#"{"a": {"x": "1"}}"#),
            ("a word value", r#"{"a": {"x": one}}"#),
            ("a missing value", r#"{"a": {"x": }}"#),
            ("an unclosed record", r#"{"a": {"x": 1}"#),
            ("a bare number", "1"),
        ] {
            assert_eq!(parse(text), None, "{what}: {text}");
        }
    }

    #[test]
    fn a_non_finite_value_parses_for_check_to_name() {
        let sections = parse(r#"{"s": {"x": NaN, "y": inf}}"#).expect("f64 literals");
        assert!(sections[0].1[0].1.is_nan());
        assert_eq!(sections[0].1[1].1, f64::INFINITY);
    }

    #[test]
    fn check_names_every_violation() {
        assert_eq!(check(&stamped(&[("x", 1.5)])), Vec::<String>::new());
        assert_eq!(
            check(&stamped(&[("x", f64::NAN)])),
            ["section \"s\": x = NaN is not finite"]
        );
        assert_eq!(
            check(&stamped(&[("hardware_threads", 0.0)])),
            ["section \"s\": hardware_threads = 0 < 1"]
        );

        let mut unstamped = stamped(&[("x", 1.0)]);
        unstamped[0].1.retain(|(k, _)| k != "hardware_threads");
        assert_eq!(
            check(&unstamped),
            ["section \"s\" is missing hardware_threads"]
        );
        let mut uncommitted = stamped(&[("x", 1.0)]);
        uncommitted[0].1.retain(|(k, _)| k != "git_commit");
        assert_eq!(check(&uncommitted), ["section \"s\" is missing git_commit"]);

        assert_eq!(
            check(&[("e".to_string(), vec![])]),
            [
                "section \"e\" is empty",
                "section \"e\" is missing hardware_threads",
                "section \"e\" is missing git_commit",
            ]
        );
        assert_eq!(check(&[]), ["record has no sections"]);
    }
}
