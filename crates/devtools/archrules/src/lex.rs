//! The one Rust lexer the rules read source through.
//!
//! It sorts every byte of a file into code, comment (line comments and
//! nested block comments, doc comments included) or literal (string, byte
//! string, raw string, C string, char and byte literals — a lifetime such
//! as the `'a` of `-> &'a T {` stays code), splits the code into tokens,
//! and finds every `#[cfg(test)]` item by brace matching: the attribute,
//! any attributes after it, and the item up to its `;` or the `}` that
//! closes its first top-level brace.
//!
//! The views blank what they drop with spaces and keep every newline, so a
//! line number in a view is the line number in the file.

/// What a byte of source text belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Code,
    Comment,
    Literal,
}

/// What a token is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// An identifier, keyword or number.
    Word,
    /// A punctuation mark; `::`, `->` and `=>` are one token each.
    Punct,
    /// A string, byte, raw-string, C-string, char or byte literal.
    Literal,
}

/// One token of code: its kind and its byte range in the file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    /// What the token is.
    pub kind: Kind,
    /// Offset of its first byte.
    pub start: usize,
    /// Offset one past its last byte.
    pub end: usize,
}

/// A lexed Rust file.
pub struct Source<'a> {
    text: &'a str,
    class: Vec<Class>,
    tokens: Vec<Token>,
    /// Byte ranges of the `#[cfg(test)]` items, in file order.
    tests: Vec<(usize, usize)>,
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// The offset one past the string literal whose body starts at `from`
/// (just after its opening `"`); the end of the text if it never closes.
fn string_end(b: &[u8], from: usize) -> usize {
    let mut k = from;
    while k < b.len() {
        match b[k] {
            b'\\' => k += 2,
            b'"' => return k + 1,
            _ => k += 1,
        }
    }
    b.len()
}

/// The offset one past the raw string whose `#` run or `"` starts at
/// `from`, if there is one there.
fn raw_string_end(b: &[u8], from: usize) -> Option<usize> {
    let hashes = b[from..].iter().take_while(|&&c| c == b'#').count();
    if b.get(from + hashes) != Some(&b'"') {
        return None;
    }
    let mut k = from + hashes + 1;
    while k < b.len() {
        if b[k] == b'"' && b[k + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes {
            return Some(k + 1 + hashes);
        }
        k += 1;
    }
    Some(b.len())
}

/// The offset one past the char literal that opens with the `'` at `at`,
/// or `None` if that quote starts a lifetime or a label.
fn char_end(b: &[u8], at: usize) -> Option<usize> {
    match b.get(at + 1)? {
        b'\\' => {
            // Skip the escaped character, then find the closing quote.
            let close = b.get(at + 3..)?.iter().position(|&c| c == b'\'')?;
            Some(at + 3 + close + 1)
        }
        &lead => {
            let width = match lead {
                0x00..=0x7f => 1,
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            };
            (b.get(at + 1 + width) == Some(&b'\'')).then_some(at + 2 + width)
        }
    }
}

impl<'a> Source<'a> {
    /// Lexes `text`.
    pub fn new(text: &'a str) -> Self {
        let b = text.as_bytes();
        let mut class = vec![Class::Code; b.len()];
        let mut tokens = Vec::new();
        let literal = |class: &mut Vec<Class>, tokens: &mut Vec<Token>, start, end| {
            class[start..end].fill(Class::Literal);
            tokens.push(Token {
                kind: Kind::Literal,
                start,
                end,
            });
        };
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            let next = b.get(i + 1).copied();
            if c == b'/' && next == Some(b'/') {
                let end = b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(b.len(), |p| i + p);
                class[i..end].fill(Class::Comment);
                i = end;
            } else if c == b'/' && next == Some(b'*') {
                let (mut depth, mut k) = (1, i + 2);
                while k < b.len() && depth > 0 {
                    match (b[k], b.get(k + 1)) {
                        (b'/', Some(b'*')) => (depth, k) = (depth + 1, k + 2),
                        (b'*', Some(b'/')) => (depth, k) = (depth - 1, k + 2),
                        _ => k += 1,
                    }
                }
                let end = k.min(b.len());
                class[i..end].fill(Class::Comment);
                i = end;
            } else if c == b'"' {
                let end = string_end(b, i + 1);
                literal(&mut class, &mut tokens, i, end);
                i = end;
            } else if c == b'\'' {
                if let Some(end) = char_end(b, i) {
                    literal(&mut class, &mut tokens, i, end);
                    i = end;
                } else {
                    // A lifetime or a label: the quote is punctuation and
                    // its name the next word.
                    tokens.push(Token {
                        kind: Kind::Punct,
                        start: i,
                        end: i + 1,
                    });
                    i += 1;
                }
            } else if is_word_byte(c) {
                let end = b[i..]
                    .iter()
                    .position(|&c| !is_word_byte(c))
                    .map_or(b.len(), |p| i + p);
                let word = &b[i..end];
                let after = b.get(end).copied();
                let prefixed = match (word, after) {
                    (b"b" | b"c", Some(b'"')) => Some(string_end(b, end + 1)),
                    (b"b", Some(b'\'')) => char_end(b, end),
                    (b"r" | b"br" | b"cr", Some(b'"' | b'#')) => raw_string_end(b, end),
                    _ => None,
                };
                if let Some(lit_end) = prefixed {
                    literal(&mut class, &mut tokens, i, lit_end);
                    i = lit_end;
                } else if word == b"r" && after == Some(b'#') {
                    // A raw identifier, `r#type`.
                    let name = b[end + 1..]
                        .iter()
                        .take_while(|&&c| is_word_byte(c))
                        .count();
                    tokens.push(Token {
                        kind: Kind::Word,
                        start: i,
                        end: end + 1 + name,
                    });
                    i = end + 1 + name;
                } else {
                    tokens.push(Token {
                        kind: Kind::Word,
                        start: i,
                        end,
                    });
                    i = end;
                }
            } else if c.is_ascii_whitespace() {
                i += 1;
            } else {
                let width = match (c, next) {
                    (b':', Some(b':')) | (b'-', Some(b'>')) | (b'=', Some(b'>')) => 2,
                    _ => 1,
                };
                tokens.push(Token {
                    kind: Kind::Punct,
                    start: i,
                    end: i + width,
                });
                i += width;
            }
        }
        let mut source = Source {
            text,
            class,
            tokens,
            tests: Vec::new(),
        };
        source.tests = source.find_test_items();
        source
    }

    /// The text of `token`.
    pub fn text_of(&self, token: &Token) -> &'a str {
        &self.text[token.start..token.end]
    }

    /// The 1-based line that holds byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        1 + self.text.as_bytes()[..offset]
            .iter()
            .filter(|&&c| c == b'\n')
            .count()
    }

    /// Every token of code, test items included.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The tokens outside `#[cfg(test)]` items.
    pub fn product_tokens(&self) -> Vec<Token> {
        self.tokens
            .iter()
            .filter(|t| !self.in_test(t.start))
            .copied()
            .collect()
    }

    fn in_test(&self, offset: usize) -> bool {
        self.tests
            .iter()
            .any(|&(start, end)| (start..end).contains(&offset))
    }

    /// The file with its `#[cfg(test)]` items blanked; comments and
    /// literals are kept.
    pub fn product(&self) -> String {
        self.blank(|offset, _| self.in_test(offset))
    }

    /// The file with its test items, comments and literals blanked.
    pub fn product_code(&self) -> String {
        self.blank(|offset, class| class != Class::Code || self.in_test(offset))
    }

    fn blank(&self, drop: impl Fn(usize, Class) -> bool) -> String {
        let bytes = self
            .text
            .bytes()
            .zip(&self.class)
            .enumerate()
            .map(|(offset, (b, &class))| {
                if b != b'\n' && drop(offset, class) {
                    b' '
                } else {
                    b
                }
            })
            .collect();
        String::from_utf8(bytes).expect("only whole code points are blanked")
    }

    /// The byte ranges of the `#[cfg(test)]` items.
    fn find_test_items(&self) -> Vec<(usize, usize)> {
        const ATTRIBUTE: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
        let texts: Vec<&str> = self.tokens.iter().map(|t| self.text_of(t)).collect();
        let mut items = Vec::new();
        let mut i = 0;
        while i + ATTRIBUTE.len() <= texts.len() {
            if texts[i..i + ATTRIBUTE.len()] != ATTRIBUTE {
                i += 1;
                continue;
            }
            let start = self.tokens[i].start;
            let mut k = i + ATTRIBUTE.len();
            let mut depth = 0usize;
            let mut end = self.text.len();
            while k < texts.len() {
                match texts[k] {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth == 0 => {
                        // The item's enclosing block closes first.
                        end = self.tokens[k].start;
                        break;
                    }
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 && texts[k] == "}" {
                            end = self.tokens[k].end;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end = self.tokens[k].end;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            items.push((start, end));
            i = k + 1;
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<&str> {
        let source = Source::new(text);
        source
            .tokens()
            .iter()
            .filter(|t| t.kind == Kind::Word)
            .map(|t| source.text_of(t))
            .collect()
    }

    #[test]
    fn comments_and_literals_are_blanked_line_for_line() {
        let text = "a /* x /* nested */ y */ b // c\n\"s { \\\" t\" br#\"r \" q\"# c'{' d b'}'\n";
        let code = Source::new(text).product_code();
        assert_eq!(code.len(), text.len());
        assert_eq!(code.lines().count(), 2);
        assert_eq!(
            code.split_whitespace().collect::<Vec<_>>(),
            ["a", "b", "c", "d"]
        );
        assert_eq!(words(text), ["a", "b", "c", "d"]);
    }

    #[test]
    fn lifetimes_stay_code() {
        let text = "fn f<'a>(x: &'a T) -> &'a T { x }\nlet c = 'x';\n";
        assert_eq!(
            words(text),
            ["fn", "f", "a", "x", "a", "T", "a", "T", "x", "let", "c"]
        );
        assert!(Source::new(text).product_code().contains("-> &'a T {"));
    }

    #[test]
    fn test_items_are_dropped_by_brace_matching() {
        let text = "fn a() {}\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() { \"}\"; }\n}\nfn b() {}\n\
                    #[cfg(test)]\nuse x::y;\nfn c() {}\nimpl S {\n    #[cfg(test)]\n    fn d() {}\n}\n";
        let product = Source::new(text).product();
        let kept: Vec<&str> = product.split_whitespace().collect();
        assert_eq!(
            kept,
            ["fn", "a()", "{}", "fn", "b()", "{}", "fn", "c()", "{}", "impl", "S", "{", "}"]
        );
        assert_eq!(product.lines().count(), text.lines().count());
    }

    #[test]
    fn a_test_attribute_on_the_last_member_stops_at_its_block() {
        let text = "enum E {\n    A,\n    #[cfg(test)]\n    B\n}\nfn after() {}\n";
        let product = Source::new(text).product();
        let kept: Vec<&str> = product.split_whitespace().collect();
        assert_eq!(kept, ["enum", "E", "{", "A,", "}", "fn", "after()", "{}"]);
    }
}
