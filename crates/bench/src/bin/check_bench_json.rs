//! CI gate for the machine-readable benchmark artifacts.
//!
//! Parses every `BENCH_*.json` at the workspace root (or the files named
//! on the command line) with the same reader the emitters use and
//! validates the artifact schema: parseable two-level `{section: {key:
//! number}}` shape, at least one non-empty section per file, every value
//! finite, and the uniform `record_bench_entries` stamps
//! (`hardware_threads`, `git_commit`) present in every section. Exits
//! non-zero — failing the CI job — on any violation.
//!
//! ```text
//! cargo run -p morestress-bench --bin check_bench_json            # BENCH_PR8.json
//! cargo run -p morestress-bench --bin check_bench_json campaign_results.json
//! ```

use morestress_bench::{bench_json_path_for, check_bench_sections, parse_bench_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<std::path::PathBuf> = if args.is_empty() {
        let root = bench_json_path_for("");
        let mut found: Vec<_> = std::fs::read_dir(&root)
            .unwrap_or_else(|e| panic!("cannot list workspace root {}: {e}", root.display()))
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        found.sort();
        found
    } else {
        args.iter().map(std::path::PathBuf::from).collect()
    };
    if files.is_empty() {
        eprintln!("check_bench_json: no BENCH_*.json artifacts found");
        std::process::exit(1);
    }

    let mut failed = false;
    for path in &files {
        let name = path.display();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("FAIL {name}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let Some(sections) = parse_bench_json(&text) else {
            eprintln!("FAIL {name}: not in the {{section: {{key: number}}}} format");
            failed = true;
            continue;
        };
        let problems = check_bench_sections(&sections);
        if problems.is_empty() {
            let keys: usize = sections.iter().map(|(_, kv)| kv.len()).sum();
            println!("ok   {name}: {} sections, {keys} keys", sections.len());
        } else {
            for problem in &problems {
                eprintln!("FAIL {name}: {problem}");
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
