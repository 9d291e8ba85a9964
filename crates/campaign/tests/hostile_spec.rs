//! Hostile spec text: random edit scripts applied to the checked-in
//! example, and random byte soup, must never panic the parser. Every
//! outcome is either a spec or a typed `SpecError` whose line is 0 (a
//! whole-document failure) or a line of the document that was parsed.

use morestress_campaign::{CampaignSpec, SpecError, SpecErrorKind, YamlErrorKind};
use proptest::prelude::*;

const EXAMPLE: &str = include_str!("../../../examples/campaign.yml");

/// Values an edit may put where a line's value was.
const TOKENS: [&str; 6] = ["-", ":", "#", "1e309", "18446744073709551616", "- a:"];

/// Nesting depth of the "nest it" edit — past the parser's bound.
const NEST: usize = 40;

/// One edit of the script: `(operation, line, token)`, each an index
/// reduced modulo its range when applied.
type Edit = (usize, usize, usize);

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

/// Applies one edit to the document's lines.
fn apply(lines: &mut Vec<String>, (op, at, token): Edit) {
    if lines.is_empty() {
        return;
    }
    let at = at % lines.len();
    let line = lines[at].clone();
    let indent = indent_of(&line);
    match op % 9 {
        0 => {
            lines.remove(at);
        }
        1 => lines.insert(at, line),
        2 => lines[at] = format!(" {line}"),
        3 => lines[at] = line[indent.min(1)..].to_string(),
        4 => lines[at] = format!("  {line}"),
        5 => lines[at] = line[indent.min(2)..].to_string(),
        6 => lines[at] = format!("\t{line}"),
        7 => {
            let token = TOKENS[token % TOKENS.len()];
            lines[at] = match line.find(':') {
                Some(colon) => format!("{}: {token}", &line[..colon]),
                None if line.trim_start().starts_with("- ") => {
                    format!("{}- {token}", " ".repeat(indent))
                }
                None => format!("{}{token}", " ".repeat(indent)),
            };
        }
        _ => {
            // The line, nested NEST blocks below where it stood.
            let chain =
                (0..NEST).map(|level| format!("{}n{level}:", " ".repeat(indent + 2 * level)));
            let deep = format!("{}{}", " ".repeat(2 * NEST), line);
            let replacement: Vec<String> = chain.chain(std::iter::once(deep)).collect();
            lines.splice(at..=at, replacement);
        }
    }
}

/// Parses `text` and checks the contract: no panic (the test would fail),
/// and an error's line is 0 or inside the document.
fn check(text: &str) -> Result<CampaignSpec, SpecError> {
    let parsed = CampaignSpec::parse(text);
    if let Err(err) = &parsed {
        let lines = text.lines().count();
        assert!(
            err.line <= lines,
            "error line {} outside a {lines}-line document: {err}\n{text}",
            err.line
        );
        // Every error renders without panicking too.
        let _ = err.to_string();
    }
    parsed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random edit scripts over the checked-in example.
    #[test]
    fn edited_example_parses_or_names_a_line(
        script in prop::collection::vec((0usize..9, 0usize..64, 0usize..6), 1..12)
    ) {
        let mut lines: Vec<String> = EXAMPLE.lines().map(str::to_string).collect();
        for edit in script {
            apply(&mut lines, edit);
        }
        let text = lines.join("\n");
        let _ = check(&text);
    }

    /// Byte soup, decoded lossily (the file reader rejects invalid UTF-8
    /// before the parser sees it).
    #[test]
    fn random_text_parses_or_names_a_line(
        bytes in prop::collection::vec(0u8..128, 0..512)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = check(&text);
    }
}

/// The nesting edit alone always trips the depth bound, at the first line
/// past it.
#[test]
fn nesting_edit_is_a_depth_error() {
    let mut lines: Vec<String> = EXAMPLE.lines().map(str::to_string).collect();
    let at = lines
        .iter()
        .position(|l| l.starts_with("name:"))
        .expect("example names its campaign");
    apply(&mut lines, (8, at, 0));
    let err = check(&lines.join("\n")).unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::Yaml(YamlErrorKind::TooDeep));
    assert_eq!(err.line, at + 1 + morestress_campaign::yaml::MAX_DEPTH + 1);
}
