//! A hand-rolled parser for the block-style YAML subset the campaign
//! specs use — the same offline idiom as the `crates/devtools` stubs: the
//! container cannot fetch serde/serde_yaml, and the spec format needs only
//! nested maps, sequences and scalars.
//!
//! Supported syntax (two-space indentation):
//!
//! ```yaml
//! key: scalar          # inline scalar
//! key:                 # nested block (map or sequence) on deeper lines
//!   child: 1
//! seq:
//!   - scalar           # sequence of scalars
//!   - key: value       # sequence of maps (compact first entry)
//!     other: 2
//! ```
//!
//! `#` starts a comment anywhere; tabs in indentation are rejected
//! ([`YamlErrorKind::Tab`]); inconsistent indentation is rejected with the
//! offending line ([`YamlErrorKind::BadIndent`]); so is nesting deeper than
//! [`MAX_DEPTH`] blocks ([`YamlErrorKind::TooDeep`]), which bounds the
//! parser's recursion whatever the input. Every node carries the 1-based
//! line it started on, so spec-level validation can point at the source.

use std::fmt;

/// Deepest block nesting a document may use. The campaign schema nests
/// three levels (`tsv_array:` → item → key), so this leaves ample room
/// while keeping the recursive descent a few dozen frames deep.
pub const MAX_DEPTH: usize = 32;

/// A parsed node: the 1-based source line it starts on plus its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// 1-based line of the node's first token.
    pub line: usize,
    /// The node's shape and content.
    pub value: Value,
}

/// The value of a [`Node`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar, stored verbatim (unquoted, trimmed).
    Scalar(String),
    /// A map in source order; duplicate keys are rejected at parse time.
    Map(Vec<(String, Node)>),
    /// A `- ` sequence.
    Seq(Vec<Node>),
}

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YamlError {
    /// 1-based line the failure was detected on.
    pub line: usize,
    /// What went wrong.
    pub kind: YamlErrorKind,
}

/// The failure modes of the YAML-subset parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YamlErrorKind {
    /// A tab character in leading whitespace (YAML forbids tabs there; so
    /// do we, with a clearer error).
    Tab,
    /// Indentation that matches no open block.
    BadIndent,
    /// A line that is neither `key: ...`, `key:`, nor a `- ` item in a
    /// position where one is required.
    Malformed(String),
    /// The same key twice within one map.
    DuplicateKey(String),
    /// A map entry and a sequence item mixed at one nesting level.
    MixedBlock,
    /// A block nested deeper than [`MAX_DEPTH`] levels; the line is the
    /// first one past the limit.
    TooDeep,
}

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            YamlErrorKind::Tab => write!(f, "line {}: tab in indentation", self.line),
            YamlErrorKind::BadIndent => {
                write!(f, "line {}: indentation matches no open block", self.line)
            }
            YamlErrorKind::Malformed(s) => {
                write!(
                    f,
                    "line {}: expected `key: value` or `- item`, got `{s}`",
                    self.line
                )
            }
            YamlErrorKind::DuplicateKey(k) => {
                write!(f, "line {}: duplicate key `{k}`", self.line)
            }
            YamlErrorKind::MixedBlock => write!(
                f,
                "line {}: map entries and sequence items mixed in one block",
                self.line
            ),
            YamlErrorKind::TooDeep => write!(
                f,
                "line {}: blocks nested deeper than {MAX_DEPTH} levels",
                self.line
            ),
        }
    }
}

impl std::error::Error for YamlError {}

/// One significant source line after comment stripping.
struct Line {
    number: usize,
    indent: usize,
    content: String,
}

fn scan_lines(text: &str) -> Result<Vec<Line>, YamlError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        let without_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        if without_comment.trim().is_empty() {
            continue;
        }
        let indent = without_comment.len() - without_comment.trim_start().len();
        if without_comment[..indent].contains('\t') {
            return Err(YamlError {
                line: number,
                kind: YamlErrorKind::Tab,
            });
        }
        out.push(Line {
            number,
            indent,
            content: without_comment.trim().to_string(),
        });
    }
    Ok(out)
}

/// Parses a document into its root node (a map for every campaign spec).
/// A document with no significant line is an empty map on line 0, the
/// whole-document line: it has no token to point at.
///
/// # Errors
///
/// Returns the first [`YamlError`], with the 1-based offending line.
pub fn parse(text: &str) -> Result<Node, YamlError> {
    let lines = scan_lines(text)?;
    if lines.is_empty() {
        return Ok(Node {
            line: 0,
            value: Value::Map(Vec::new()),
        });
    }
    let root_indent = lines[0].indent;
    let mut cursor = 0;
    let node = parse_block(&lines, &mut cursor, root_indent, 0)?;
    if cursor < lines.len() {
        // Only reachable via an indent shallower than the document root.
        return Err(YamlError {
            line: lines[cursor].number,
            kind: YamlErrorKind::BadIndent,
        });
    }
    Ok(node)
}

/// Parses the block starting at `lines[*cursor]`, whose items all sit at
/// exactly `indent` columns and which is nested `depth` blocks below the
/// root. Leaves `*cursor` on the first line outside the block.
fn parse_block(
    lines: &[Line],
    cursor: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Node, YamlError> {
    let start_line = lines[*cursor].number;
    if depth > MAX_DEPTH {
        return Err(YamlError {
            line: start_line,
            kind: YamlErrorKind::TooDeep,
        });
    }
    let is_seq = lines[*cursor].content == "-" || lines[*cursor].content.starts_with("- ");
    let mut map: Vec<(String, Node)> = Vec::new();
    let mut seq: Vec<Node> = Vec::new();

    while *cursor < lines.len() {
        let line = &lines[*cursor];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(YamlError {
                line: line.number,
                kind: YamlErrorKind::BadIndent,
            });
        }
        let item_is_seq = line.content == "-" || line.content.starts_with("- ");
        if item_is_seq != is_seq {
            return Err(YamlError {
                line: line.number,
                kind: YamlErrorKind::MixedBlock,
            });
        }
        if is_seq {
            seq.push(parse_seq_item(lines, cursor, indent, depth)?);
        } else {
            let (key, node) = parse_map_entry(lines, cursor, indent, depth)?;
            if map.iter().any(|(k, _)| *k == key) {
                return Err(YamlError {
                    line: node.line,
                    kind: YamlErrorKind::DuplicateKey(key),
                });
            }
            map.push((key, node));
        }
    }

    Ok(Node {
        line: start_line,
        value: if is_seq {
            Value::Seq(seq)
        } else {
            Value::Map(map)
        },
    })
}

/// Parses one `key: value` / `key:` entry of a map nested `depth` blocks
/// deep (consuming any nested block).
fn parse_map_entry(
    lines: &[Line],
    cursor: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<(String, Node), YamlError> {
    let line = &lines[*cursor];
    let Some((key, rest)) = split_key(&line.content) else {
        return Err(YamlError {
            line: line.number,
            kind: YamlErrorKind::Malformed(line.content.clone()),
        });
    };
    let number = line.number;
    *cursor += 1;
    if !rest.is_empty() {
        return Ok((
            key,
            Node {
                line: number,
                value: Value::Scalar(rest),
            },
        ));
    }
    // `key:` — the value is the following deeper block (or an empty map).
    if *cursor < lines.len() && lines[*cursor].indent > indent {
        let child_indent = lines[*cursor].indent;
        let node = parse_block(lines, cursor, child_indent, depth + 1)?;
        Ok((key, node))
    } else {
        Ok((
            key,
            Node {
                line: number,
                value: Value::Map(Vec::new()),
            },
        ))
    }
}

/// Parses one item of a sequence nested `depth` blocks deep: `- scalar`, a
/// bare `-` followed by a deeper block, or the compact `- key: value` map
/// form (one block deeper) whose further entries continue two columns in
/// (aligned under the inline key).
fn parse_seq_item(
    lines: &[Line],
    cursor: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Node, YamlError> {
    let line = &lines[*cursor];
    let number = line.number;
    let inline = line.content[1..].trim_start().to_string();
    if inline.is_empty() {
        // Bare `-`: the item is the following deeper block.
        *cursor += 1;
        if *cursor < lines.len() && lines[*cursor].indent > indent {
            let child_indent = lines[*cursor].indent;
            return parse_block(lines, cursor, child_indent, depth + 1);
        }
        return Err(YamlError {
            line: number,
            kind: YamlErrorKind::Malformed("-".to_string()),
        });
    }
    if let Some((key, rest)) = split_key(&inline) {
        // Compact map item: the inline entry plus continuation lines
        // indented to the inline key's column.
        let item_indent = indent + 2;
        let item_depth = depth + 1;
        let mut map: Vec<(String, Node)> = Vec::new();
        if rest.is_empty() {
            *cursor += 1;
            if *cursor < lines.len() && lines[*cursor].indent > item_indent {
                let child_indent = lines[*cursor].indent;
                map.push((
                    key,
                    parse_block(lines, cursor, child_indent, item_depth + 1)?,
                ));
            } else {
                map.push((
                    key,
                    Node {
                        line: number,
                        value: Value::Map(Vec::new()),
                    },
                ));
            }
        } else {
            map.push((
                key,
                Node {
                    line: number,
                    value: Value::Scalar(rest),
                },
            ));
            *cursor += 1;
        }
        while *cursor < lines.len() && lines[*cursor].indent == item_indent {
            let (key, node) = parse_map_entry(lines, cursor, item_indent, item_depth)?;
            if map.iter().any(|(k, _)| *k == key) {
                return Err(YamlError {
                    line: node.line,
                    kind: YamlErrorKind::DuplicateKey(key),
                });
            }
            map.push((key, node));
        }
        if *cursor < lines.len() && lines[*cursor].indent > item_indent {
            return Err(YamlError {
                line: lines[*cursor].number,
                kind: YamlErrorKind::BadIndent,
            });
        }
        return Ok(Node {
            line: number,
            value: Value::Map(map),
        });
    }
    // Plain scalar item.
    *cursor += 1;
    Ok(Node {
        line: number,
        value: Value::Scalar(inline),
    })
}

/// Splits `key: rest` / `key:` into `(key, rest)`; `None` when the line
/// has no `:` separator (a colon inside the value is fine — only the
/// first one splits).
fn split_key(content: &str) -> Option<(String, String)> {
    let pos = content.find(':')?;
    let key = content[..pos].trim();
    if key.is_empty() || key.contains(' ') {
        return None;
    }
    let rest = content[pos + 1..].trim();
    if !rest.is_empty() && !content[pos + 1..].starts_with(' ') {
        // `key:value` without a space is not our subset (and catches
        // scalars like `12:30` being misread as entries).
        return None;
    }
    Some((key.to_string(), rest.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_get<'n>(node: &'n Node, key: &str) -> &'n Node {
        match &node.value {
            Value::Map(entries) => {
                &entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("key {key} missing"))
                    .1
            }
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn parses_nested_maps_sequences_and_comments() {
        let doc = "\
name: demo  # trailing comment
geometry:
  height: 50.0
  pitch: 15.0
loads:
  - -250.0
  - 85.0
arrays:
  - nx: 3
    ny: 3
  - nx: 2
    ny: 1
";
        let root = parse(doc).expect("parses");
        assert_eq!(
            map_get(&root, "name").value,
            Value::Scalar("demo".to_string())
        );
        assert_eq!(map_get(&root, "geometry").line, 3);
        match &map_get(&root, "loads").value {
            Value::Seq(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].value, Value::Scalar("-250.0".to_string()));
            }
            other => panic!("loads should be a seq, got {other:?}"),
        }
        match &map_get(&root, "arrays").value {
            Value::Seq(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(
                    map_get(&items[0], "ny").value,
                    Value::Scalar("3".to_string())
                );
                assert_eq!(map_get(&items[1], "nx").line, 11);
            }
            other => panic!("arrays should be a seq, got {other:?}"),
        }
    }

    #[test]
    fn tabs_and_bad_indent_are_rejected_with_lines() {
        let tabbed = "a:\n\tb: 1\n";
        assert_eq!(
            parse(tabbed).unwrap_err(),
            YamlError {
                line: 2,
                kind: YamlErrorKind::Tab
            }
        );
        let ragged = "a:\n  b: 1\n   c: 2\n";
        assert_eq!(
            parse(ragged).unwrap_err(),
            YamlError {
                line: 3,
                kind: YamlErrorKind::BadIndent
            }
        );
    }

    #[test]
    fn duplicate_keys_and_mixed_blocks_are_rejected() {
        let dup = "a: 1\na: 2\n";
        assert!(matches!(
            parse(dup).unwrap_err().kind,
            YamlErrorKind::DuplicateKey(k) if k == "a"
        ));
        let mixed = "a: 1\n- b\n";
        assert_eq!(parse(mixed).unwrap_err().kind, YamlErrorKind::MixedBlock);
    }

    /// `levels` maps, each nested one block (two columns) below the last.
    fn nested_maps(levels: usize) -> String {
        (0..levels)
            .map(|level| format!("{:width$}k:\n", "", width = 2 * level))
            .collect()
    }

    #[test]
    fn nesting_is_bounded_and_the_first_line_past_it_is_named() {
        // The root block is depth 0, so `MAX_DEPTH + 1` keys open exactly
        // `MAX_DEPTH` nested blocks.
        assert!(parse(&nested_maps(MAX_DEPTH + 1)).is_ok());
        assert_eq!(
            parse(&nested_maps(MAX_DEPTH + 2)).unwrap_err(),
            YamlError {
                line: MAX_DEPTH + 2,
                kind: YamlErrorKind::TooDeep
            }
        );
        // Sequences count too: bare `-` items and compact map items.
        let dashes: String = (0..2 * MAX_DEPTH)
            .map(|level| format!("{:width$}-\n", "", width = 2 * level))
            .collect();
        assert_eq!(parse(&dashes).unwrap_err().kind, YamlErrorKind::TooDeep);
        let compact: String = (0..2 * MAX_DEPTH)
            .map(|level| format!("{:width$}- k:\n", "", width = 4 * level))
            .collect();
        assert_eq!(parse(&compact).unwrap_err().kind, YamlErrorKind::TooDeep);
    }

    #[test]
    fn a_2000_level_document_is_an_error_not_a_stack_overflow() {
        let err = parse(&nested_maps(2000)).unwrap_err();
        assert_eq!(err.kind, YamlErrorKind::TooDeep);
        assert_eq!(err.line, MAX_DEPTH + 2);
    }
}
