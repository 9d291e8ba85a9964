//! The workspace's architecture rules, as tests over one Rust lexer.
//!
//! Each rule keeps a simplification simplified: one instruction-set
//! ladder, one foreign call, test oracles outside the product, one dense
//! kernel, one binary, flat per-solve bookkeeping, no content hash, one
//! solver selection, one report builder, stats that carry the report and
//! Krylov engines private to linalg. A rule checks `(path, text)` pairs —
//! the workspace as [`read_tree`] reads it, or a fixture written as
//! strings — and [`check`] returns every [`Violation`] of one step.
//!
//! Seven rules are rows of one table, `NAME_RULES`: "no name of a list
//! may appear in a scope outside some files". The manifest rule, the
//! front door, the solver selection, the report builder and the stats
//! rule are code of their own, and so is the Krylov step's re-export
//! check. Rules that read product code drop `#[cfg(test)]` items by brace
//! matching; rules that skip comments read the lexed code, with comments
//! and literals dropped.
//!
//! No crate depends on this one; `cargo test` runs it as a workspace
//! member.

mod lex;

use std::borrow::Cow;
use std::fmt;
use std::path::Path;

use lex::{Kind, Source, Token};

/// A file: its path relative to the workspace root, `/`-separated, and
/// its text.
pub type File<'a> = (&'a str, &'a str);

/// One breach of a rule: where, and the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The file.
    pub path: String,
    /// The 1-based line.
    pub line: usize,
    /// What is wrong there.
    pub what: String,
}

impl Violation {
    fn at(path: &str, line: usize, what: impl Into<String>) -> Self {
        Violation {
            path: path.to_string(),
            line,
            what: what.into(),
        }
    }

    /// A violation on `line` of `text`, described by that line.
    fn quoting(path: &str, text: &str, line: usize) -> Self {
        let quoted = text.lines().nth(line - 1).unwrap_or("").trim();
        Violation::at(path, line, quoted)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.path, self.line, self.what)
    }
}

/// The steps, one per rule, by the names CI gave them.
pub const STEPS: [&str; 11] = [
    "One instruction-set ladder",
    "One advice site",
    "Test oracles stay dev-only",
    "One dense kernel",
    "One front door",
    "Per-solve bookkeeping stays flat",
    "No content hash in product code",
    "One solver selection outside linalg",
    "One report builder",
    "Stats carry the report",
    "Krylov engines stay in linalg",
];

/// Which text of a file a `NameRule` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum View {
    /// The whole file, comments and literals included.
    Raw,
    /// The file without its `#[cfg(test)]` items, comments and literals
    /// included.
    Product,
}

/// "No name of `names` may appear in `scope` outside `allowed`": a line of
/// the chosen view of a file in scope that contains one of the names, as a
/// substring, breaks the rule, unless it contains one of `exempt_lines`.
///
/// `scope` and `allowed` are path patterns: `*` matches within one path
/// segment, `**` any number of segments.
#[derive(Debug)]
struct NameRule {
    /// The step the rule belongs to.
    step: &'static str,
    /// The forbidden names.
    names: &'static [&'static str],
    /// The files the rule reads.
    scope: &'static [&'static str],
    /// What it reads of each.
    view: View,
    /// The files where the names live.
    allowed: &'static [&'static str],
    /// Lines that may name them (a definition, not a use).
    exempt_lines: &'static [&'static str],
}

/// Every `src/` tree of a crate and the root package's: what CI called
/// `crates/*/src src`.
const PRODUCT_SOURCES: &[&str] = &["crates/*/src/**", "src/**"];

/// The same, Rust files only.
const PRODUCT_RUST: &[&str] = &["crates/*/src/**/*.rs", "src/**/*.rs"];

/// The seven rules that forbid a name.
const NAME_RULES: [NameRule; 7] = [
    // Every SIMD loop enters through the one instruction-set ladder in
    // kernel.rs.
    NameRule {
        step: "One instruction-set ladder",
        names: &["#[target_feature"],
        scope: &["crates/*/src/**"],
        view: View::Raw,
        allowed: &["crates/linalg/src/kernel.rs"],
        exempt_lines: &[],
    },
    // The one foreign call, the huge-page advice, lives in memory.rs.
    NameRule {
        step: "One advice site",
        names: &["madvise", "extern \"C\""],
        scope: PRODUCT_SOURCES,
        view: View::Raw,
        allowed: &["crates/linalg/src/memory.rs"],
        exempt_lines: &[],
    },
    // The scalar Cholesky oracle lives in the dev-only oracle crate.
    NameRule {
        step: "Test oracles stay dev-only",
        names: &["SparseCholesky"],
        scope: PRODUCT_SOURCES,
        view: View::Product,
        allowed: &[],
        exempt_lines: &[],
    },
    // `BlockedKernel` is the one dense kernel: neither the trait it
    // replaced nor the scalar per-loop reference is product code.
    NameRule {
        step: "One dense kernel",
        names: &["ScalarKernel", "DenseKernel"],
        scope: PRODUCT_SOURCES,
        view: View::Product,
        allowed: &[],
        exempt_lines: &[],
    },
    // A warm solve and its sampling walk flat, sorted arrays; tests
    // included.
    NameRule {
        step: "Per-solve bookkeeping stays flat",
        names: &["BTreeMap", "HashMap"],
        scope: &[
            "crates/fem/src/bc.rs",
            "crates/core/src/global.rs",
            "crates/core/src/reconstruct.rs",
        ],
        view: View::Raw,
        allowed: &[],
        exempt_lines: &[],
    },
    // Reuse is decided by exact comparison, never by a content hash; the
    // definition is exempt.
    NameRule {
        step: "No content hash in product code",
        names: &["matrix_fingerprint("],
        scope: PRODUCT_SOURCES,
        view: View::Product,
        allowed: &[],
        exempt_lines: &["pub fn matrix_fingerprint("],
    },
    // Nothing outside linalg's sources names the Krylov solver API that
    // was public. This crate states the rule, so it names them too.
    NameRule {
        step: "Krylov engines stay in linalg",
        names: &[
            "solve_cg",
            "solve_gmres",
            "Preconditioner",
            "CgOptions",
            "GmresOptions",
            "RefineOptions",
            "IterativeSolution",
        ],
        scope: &[
            "crates/**/*.rs",
            "src/**/*.rs",
            "tests/**/*.rs",
            "examples/**/*.rs",
        ],
        view: View::Raw,
        allowed: &["crates/linalg/src/**", "crates/devtools/archrules/**"],
        exempt_lines: &[],
    },
];

impl NameRule {
    /// Every line of `files` that breaks this rule.
    fn check(&self, files: &[File]) -> Vec<Violation> {
        let mut found = Vec::new();
        for &(path, text) in files {
            if !matches_any(self.scope, path) || matches_any(self.allowed, path) {
                continue;
            }
            let view = match self.view {
                View::Product if path.ends_with(".rs") => Cow::Owned(Source::new(text).product()),
                _ => Cow::Borrowed(text),
            };
            for (n, line) in view.lines().enumerate() {
                if self.names.iter().any(|name| line.contains(name))
                    && !self.exempt_lines.iter().any(|def| line.contains(def))
                {
                    found.push(Violation::quoting(path, text, n + 1));
                }
            }
        }
        found
    }
}

/// Every violation of `step` in `files`.
///
/// # Panics
///
/// If `step` is not one of [`STEPS`].
pub fn check(step: &str, files: &[File]) -> Vec<Violation> {
    assert!(STEPS.contains(&step), "no step is called {step:?}");
    let mut found: Vec<Violation> = NAME_RULES
        .iter()
        .filter(|rule| rule.step == step)
        .flat_map(|rule| rule.check(files))
        .collect();
    found.extend(match step {
        "Test oracles stay dev-only" => dev_only_manifests(files),
        "One front door" => one_front_door(files),
        "One solver selection outside linalg" => one_solver_selection(files),
        "One report builder" => one_report_builder(files),
        "Stats carry the report" => stats_carry_the_report(files),
        "Krylov engines stay in linalg" => no_krylov_reexport(files),
        _ => Vec::new(),
    });
    found
}

/// Reads the files the rules look at: the root `Cargo.toml` and every file
/// under `crates/`, `src/`, `tests/` and `examples/` of `root`, skipping
/// `target` and hidden directories, sorted by path.
pub fn read_tree(root: &Path) -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &str, files: &mut Vec<(String, String)>) {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let path = format!("{dir}/{name}");
            if entry.file_type().is_ok_and(|t| t.is_dir()) {
                walk(root, &path, files);
            } else if let Ok(bytes) = std::fs::read(entry.path()) {
                files.push((path, String::from_utf8_lossy(&bytes).into_owned()));
            }
        }
    }
    let mut files = Vec::new();
    if let Ok(manifest) = std::fs::read_to_string(root.join("Cargo.toml")) {
        files.push(("Cargo.toml".to_string(), manifest));
    }
    for dir in ["crates", "src", "tests", "examples"] {
        walk(root, dir, &mut files);
    }
    files.sort();
    files
}

/// Whether `path` matches `pattern`: `*` matches within one segment, `**`
/// any number of whole segments.
fn matches(pattern: &str, path: &str) -> bool {
    fn segment(pattern: &str, name: &str) -> bool {
        match pattern.split_once('*') {
            None => pattern == name,
            Some((head, tail)) => {
                name.len() >= head.len() + tail.len()
                    && name.starts_with(head)
                    && name.ends_with(tail)
            }
        }
    }
    fn walk(pattern: &[&str], path: &[&str]) -> bool {
        match pattern.split_first() {
            None => path.is_empty(),
            Some((&"**", rest)) => (0..=path.len()).any(|skip| walk(rest, &path[skip..])),
            Some((head, rest)) => path
                .split_first()
                .is_some_and(|(name, tail)| segment(head, name) && walk(rest, tail)),
        }
    }
    let pattern: Vec<&str> = pattern.split('/').collect();
    let path: Vec<&str> = path.split('/').collect();
    walk(&pattern, &path)
}

fn matches_any(patterns: &[&str], path: &str) -> bool {
    patterns.iter().any(|pattern| matches(pattern, path))
}

fn is_manifest(path: &str) -> bool {
    path == "Cargo.toml" || path.ends_with("/Cargo.toml")
}

/// The crates a manifest may list only under `[dev-dependencies]` (the
/// root may declare them under `[workspace.dependencies]` for the
/// members).
const DEV_ONLY: [&str; 2] = ["morestress-oracle", "morestress-archrules"];

/// "Test oracles stay dev-only", its manifest half: no manifest lists a
/// [`DEV_ONLY`] crate outside `[dev-dependencies]` or
/// `[workspace.dependencies]`, neither as a key nor as a table of its own.
fn dev_only_manifests(files: &[File]) -> Vec<Violation> {
    let mut found = Vec::new();
    for &(path, text) in files {
        if !is_manifest(path) {
            continue;
        }
        let mut section = "";
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('[') {
                section = line;
            }
            for name in DEV_ONLY {
                let table = line.starts_with('[')
                    && line.contains(name)
                    && line != format!("[dev-dependencies.{name}]");
                let key = line.trim_start().strip_prefix(name).is_some_and(|rest| {
                    rest.starts_with(|c: char| c.is_whitespace() || c == '.' || c == '=')
                }) && section != "[dev-dependencies]"
                    && section != "[workspace.dependencies]";
                if table || key {
                    found.push(Violation::at(
                        path,
                        n + 1,
                        format!("{line} (under {section})"),
                    ));
                }
            }
        }
    }
    found
}

/// "One front door": `morestress`, the campaign crate's, is the one
/// binary. No other package under `crates/` or the root may carry a
/// `src/bin/` file or a `src/main.rs`, and no other manifest a `[[bin]]`
/// table.
fn one_front_door(files: &[File]) -> Vec<Violation> {
    const FRONT_DOOR: &str = "crates/campaign";
    let mut found = Vec::new();
    for &(path, text) in files {
        if is_manifest(path) && path != format!("{FRONT_DOOR}/Cargo.toml") {
            for (n, line) in text.lines().enumerate() {
                if line.starts_with("[[bin]]") {
                    found.push(Violation::at(path, n + 1, "a [[bin]] table"));
                }
            }
        }
        let segments: Vec<&str> = path.split('/').collect();
        if !matches!(segments[0], "crates" | "src") {
            continue;
        }
        let binary = (0..segments.len()).find(|&k| {
            segments[k] == "src"
                && (segments[k + 1..] == ["main.rs"]
                    || (segments.get(k + 1) == Some(&"bin") && segments.len() > k + 2))
        });
        if let Some(k) = binary {
            let package = segments[..k].join("/");
            if package != FRONT_DOOR {
                let owner = if package.is_empty() {
                    "the root package".to_string()
                } else {
                    package
                };
                found.push(Violation::at(
                    path,
                    1,
                    format!("a second binary, in {owner}"),
                ));
            }
        }
    }
    found
}

/// Texts of `tokens`, for pattern matching.
fn texts<'a>(source: &Source<'a>, tokens: &[Token]) -> Vec<&'a str> {
    tokens.iter().map(|t| source.text_of(t)).collect()
}

/// "One solver selection outside linalg": no code of a Rust file under
/// `crates/*/src` (linalg excluded) or `src/` — tests included, comments
/// and literals not — names a backend struct, except as the variant after
/// `LinearSolver::`, `FillOrdering::` or `SolverChoice::`, or as a variant
/// an enum declares.
fn one_solver_selection(files: &[File]) -> Vec<Violation> {
    const BACKENDS: [&str; 6] = [
        "DirectCholesky",
        "Cg",
        "Gmres",
        "Resilient",
        "Auto",
        "Sharded",
    ];
    const SELECTORS: [&str; 3] = ["LinearSolver", "FillOrdering", "SolverChoice"];
    let mut found = Vec::new();
    for &(path, text) in files {
        if !matches_any(PRODUCT_RUST, path) || matches("crates/linalg/**", path) {
            continue;
        }
        let source = Source::new(text);
        let tokens = source.tokens();
        let words = texts(&source, tokens);
        let mut exempt = vec![false; tokens.len()];
        for k in 0..tokens.len() {
            if SELECTORS.contains(&words[k])
                && words.get(k + 1) == Some(&"::")
                && k + 2 < tokens.len()
            {
                exempt[k + 2] = true;
            }
            if words[k] == "enum" && tokens.get(k + 1).is_some_and(|t| t.kind == Kind::Word) {
                mark_variants(&words, tokens, k + 2, &mut exempt);
            }
        }
        for (k, token) in tokens.iter().enumerate() {
            if token.kind == Kind::Word && BACKENDS.contains(&words[k]) && !exempt[k] {
                found.push(Violation::quoting(path, text, source.line_of(token.start)));
            }
        }
    }
    found
}

/// Marks the variant names of the enum whose body is the first `{` at or
/// after token `from`: the first word of the body and each word after a
/// top-level `,`, attributes skipped.
fn mark_variants(words: &[&str], tokens: &[Token], from: usize, exempt: &mut [bool]) {
    let Some(open) = words[from..]
        .iter()
        .position(|w| matches!(*w, "{" | ";"))
        .map(|p| from + p)
    else {
        return;
    };
    if words[open] != "{" {
        return;
    }
    let mut depth = 0;
    let mut expect_variant = true;
    for k in open..words.len() {
        match words[k] {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
            "," if depth == 1 => expect_variant = true,
            "#" if depth == 1 => {}
            _ if depth == 1 => {
                if expect_variant && tokens[k].kind == Kind::Word {
                    exempt[k] = true;
                }
                expect_variant = false;
            }
            _ => {}
        }
    }
}

/// What the report-builder rule reads of a line: the whole line, or, on a
/// line that opens a `fn`, `struct` or `impl` or ends a signature
/// (`) -> T {`, `-> T {`), what follows its first ` {`.
fn after_signature(line: &str) -> &str {
    let trimmed = line.trim_start();
    let mut rest = trimmed;
    if let Some(after) = rest.strip_prefix("pub ") {
        rest = after;
    } else if let Some((scope, after)) = rest.strip_prefix("pub(").and_then(|r| r.split_once(") "))
    {
        if !scope.is_empty() && scope.bytes().all(|b| b.is_ascii_lowercase()) {
            rest = after;
        }
    }
    while let Some(after) = ["const ", "async ", "unsafe "]
        .iter()
        .find_map(|q| rest.strip_prefix(q))
    {
        rest = after;
    }
    let opens_item = ["fn", "struct", "impl"].iter().any(|keyword| {
        rest.strip_prefix(keyword)
            .and_then(|after| after.chars().next())
            .is_some_and(|c| !(c.is_ascii_alphanumeric() || c == '_'))
    });
    let ends_signature = trimmed
        .strip_prefix(')')
        .unwrap_or(trimmed)
        .trim_start()
        .starts_with("->");
    match line.find('{') {
        Some(brace) if (opens_item || ends_signature) && line[..brace].ends_with(' ') => {
            &line[brace + 1..]
        }
        _ => line,
    }
}

/// Whether `line` holds a `name {` struct literal: `name` as a whole word,
/// then optional spaces and a `{`.
fn has_literal(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let before = line[..at].chars().next_back();
        !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            && line[at + name.len()..].trim_start().starts_with('{')
    })
}

/// "One report builder": in product code (test items, comments and
/// literals dropped) of `crates/*/src` and `src/`, a `SolveReport {`
/// literal appears only under `crates/linalg/src`, and there is at most
/// one `GlobalStats {` literal. A signature is exempt ([`after_signature`]).
fn one_report_builder(files: &[File]) -> Vec<Violation> {
    let mut found = Vec::new();
    let mut global_stats = Vec::new();
    for &(path, text) in files {
        if !matches_any(PRODUCT_RUST, path) {
            continue;
        }
        let code = Source::new(text).product_code();
        for (n, line) in code.lines().enumerate() {
            let checked = after_signature(line);
            if has_literal(checked, "SolveReport") && !matches("crates/linalg/src/**", path) {
                found.push(Violation::quoting(path, text, n + 1));
            }
            if has_literal(checked, "GlobalStats") {
                global_stats.push(Violation::quoting(path, text, n + 1));
            }
        }
    }
    if global_stats.len() > 1 {
        found.extend(global_stats);
    }
    found
}

/// The fields of the first `struct name { .. }` in the product code of the
/// file at `path`, each with its line: every word at the body's own depth
/// that a single `:` follows. A violation if there is no such struct.
fn struct_fields(
    files: &[File],
    name: &str,
    path: &str,
) -> Result<Vec<(String, usize)>, Violation> {
    let missing = || Violation::at(path, 1, format!("no struct {name} {{ .. }}"));
    let (_, text) = files.iter().find(|(p, _)| *p == path).ok_or_else(missing)?;
    let source = Source::new(text);
    let tokens = source.product_tokens();
    let words = texts(&source, &tokens);
    let at = (0..words.len().saturating_sub(1))
        .find(|&k| words[k] == "struct" && words[k + 1] == name)
        .ok_or_else(missing)?;
    let open = words[at + 2..]
        .iter()
        .position(|w| matches!(*w, "{" | ";" | "("))
        .map(|p| at + 2 + p)
        .filter(|&open| words[open] == "{")
        .ok_or_else(missing)?;
    let mut fields = Vec::new();
    let mut depth = 0;
    for k in open..words.len() {
        match words[k] {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if depth == 1 && tokens[k].kind == Kind::Word && words.get(k + 1) == Some(&":") => {
                fields.push((words[k].to_string(), source.line_of(tokens[k].start)));
            }
            _ => {}
        }
    }
    Ok(fields)
}

/// "Stats carry the report": neither `GlobalStats` (core) nor `SolveStats`
/// (fem) declares a field named like one of `SolveReport`'s (linalg), nor
/// the `ordering` derived from its supernode statistics; each of the three
/// structs must be found.
fn stats_carry_the_report(files: &[File]) -> Vec<Violation> {
    const STATS: [(&str, &str); 2] = [
        ("GlobalStats", "crates/core/src/global.rs"),
        ("SolveStats", "crates/fem/src/driver.rs"),
    ];
    let mut found = Vec::new();
    let report = struct_fields(files, "SolveReport", "crates/linalg/src/backend.rs")
        .unwrap_or_else(|missing| {
            found.push(missing);
            Vec::new()
        });
    for (name, path) in STATS {
        match struct_fields(files, name, path) {
            Err(missing) => found.push(missing),
            Ok(fields) => {
                for (field, line) in fields {
                    if field == "ordering" || report.iter().any(|(r, _)| *r == field) {
                        let what = format!("{name} mirrors SolveReport's `{field}`");
                        found.push(Violation::at(path, line, what));
                    }
                }
            }
        }
    }
    found
}

/// "Krylov engines stay in linalg", its re-export half: linalg's `lib.rs`
/// declares no `pub mod iterative` and no `pub use` whose tree names
/// `iterative`, braced or not (`pub use iterative::{..}`,
/// `pub use crate::{iterative::..}`), test items included.
fn no_krylov_reexport(files: &[File]) -> Vec<Violation> {
    let mut found = Vec::new();
    for &(path, text) in files {
        if path != "crates/linalg/src/lib.rs" {
            continue;
        }
        let source = Source::new(text);
        let tokens = source.tokens();
        let words = texts(&source, tokens);
        for k in 0..words.len() {
            let exposed = match (words[k], words.get(k + 1)) {
                ("pub", Some(&"mod")) => {
                    words.get(k + 2).is_some_and(|w| w.starts_with("iterative"))
                }
                ("pub", Some(&"use")) => words[k + 2..]
                    .iter()
                    .take_while(|w| **w != ";")
                    .any(|w| w.starts_with("iterative")),
                _ => false,
            };
            if exposed {
                found.push(Violation::quoting(
                    path,
                    text,
                    source.line_of(tokens[k].start),
                ));
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_match_by_segment() {
        assert!(matches("crates/*/src/**", "crates/core/src/global.rs"));
        assert!(matches("crates/*/src/**", "crates/core/src/a/b.rs"));
        assert!(!matches(
            "crates/*/src/**",
            "crates/devtools/oracle/src/lib.rs"
        ));
        assert!(matches(
            "crates/**/*.rs",
            "crates/devtools/oracle/src/lib.rs"
        ));
        assert!(!matches("crates/**/*.rs", "crates/core/Cargo.toml"));
        assert!(matches("src/**/*.rs", "src/lib.rs"));
        assert!(!matches(
            "crates/linalg/src/kernel.rs",
            "crates/linalg/src/kernel.rs.orig"
        ));
    }

    #[test]
    fn a_signature_drops_up_to_its_first_brace() {
        assert_eq!(after_signature("    pub(crate) fn f(&self) -> &X {"), "");
        assert_eq!(
            after_signature("fn f() -> X { let r = &Y {"),
            " let r = &Y {"
        );
        assert_eq!(after_signature("    ) -> X {"), "");
        assert_eq!(after_signature("let r = X {"), "let r = X {");
        assert_eq!(after_signature("fnord { a }"), "fnord { a }");
    }
}
