//! A minimal, self-contained Rust lexer.
//!
//! The workspace is dependency-free by design (the container has no crates
//! registry), so the lint engine cannot lean on `syn`. The passes in
//! [`crate::lints`] are token-level pattern matchers, and this lexer gives
//! them exactly what they need: an identifier/punctuation/literal stream
//! with line numbers, comments kept separately (for suppression markers),
//! and correct skipping of string/char/raw-string literal *contents* so a
//! `"HashMap"` inside a string can never trigger a lint.
//!
//! It is intentionally not a full lexer — no token trees, no precise
//! numeric suffix validation — but it must never mis-bracket: brace/paren
//! matching is what the passes use to delimit functions and call
//! arguments.

/// What kind of token was lexed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`for`, `HashMap`, `cpu`, …).
    Ident,
    /// An integer or float literal (`1`, `1u64`, `0xFF`, `1.5`).
    Number,
    /// A string, byte-string, raw-string, or char literal (text is the
    /// *raw source* including quotes; passes never look inside).
    Literal,
    /// A lifetime (`'a`) or the label position of a loop label.
    Lifetime,
    /// Punctuation. Single characters, except `<<` which is emitted joined
    /// when the two `<` are adjacent (the shift-lint needs to distinguish
    /// `1 << cpu` from nested generics).
    Punct,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token's source text.
    pub text: String,
    /// Its classification.
    pub kind: TokenKind,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Token {
    /// Whether this token is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }

    /// Whether this token is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == id
    }
}

/// One comment (line or block), kept out of the token stream.
#[derive(Clone, Debug)]
pub struct Comment {
    /// The comment text *without* the `//` / `/* */` delimiters.
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// Whether the comment is the first non-whitespace on its line (a
    /// standalone marker applies to the next code line; a trailing one to
    /// its own line).
    pub standalone: bool,
}

/// The lexed form of one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src`, splitting code tokens from comments.
///
/// Unterminated literals or comments are tolerated (the rest of the file
/// is consumed as that literal); the passes run on whatever was produced.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_code = false;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            line_has_code = false;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < b.len() && b[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                text: b[start..j].iter().collect(),
                line,
                standalone: !line_has_code,
            });
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let start_line = line;
            let standalone = !line_has_code;
            let start = i + 2;
            let mut depth = 1;
            let mut j = start;
            while j < b.len() && depth > 0 {
                if b[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if b[j] == '/' && j + 1 < b.len() && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < b.len() && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = j.saturating_sub(2).max(start);
            out.comments.push(Comment {
                text: b[start..end].iter().collect(),
                line: start_line,
                standalone,
            });
            i = j;
            continue;
        }
        line_has_code = true;
        // Raw strings / raw byte strings: r"..", r#".."#, br#".."#.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let start_line = line;
            let mut j = i;
            while j < b.len() && (b[j] == 'r' || b[j] == 'b') {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < b.len() && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            j += 1; // opening quote
            loop {
                if j >= b.len() {
                    break;
                }
                if b[j] == '\n' {
                    line += 1;
                    j += 1;
                    continue;
                }
                if b[j] == '"' {
                    let mut k = j + 1;
                    let mut seen = 0usize;
                    while k < b.len() && b[k] == '#' && seen < hashes {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        j = k;
                        break;
                    }
                }
                j += 1;
            }
            out.tokens.push(Token {
                text: b[i..j.min(b.len())].iter().collect(),
                kind: TokenKind::Literal,
                line: start_line,
            });
            i = j;
            continue;
        }
        // Identifiers / keywords (possibly a string prefix like b"..").
        if c.is_alphabetic() || c == '_' {
            let start = i;
            let mut j = i;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            // b"..." byte string: the ident is the prefix.
            if j == start + 1 && b[start] == 'b' && j < b.len() && b[j] == '"' {
                let (end, nl) = skip_string(&b, j);
                out.tokens.push(Token {
                    text: b[start..end].iter().collect(),
                    kind: TokenKind::Literal,
                    line,
                });
                line += nl;
                i = end;
                continue;
            }
            out.tokens.push(Token {
                text: b[start..j].iter().collect(),
                kind: TokenKind::Ident,
                line,
            });
            i = j;
            continue;
        }
        // Numbers (incl. suffixed: 1u64, 0xFF, 1_000, 1.5).
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            // Fractional part — but not `1..x` range syntax or `1.method()`.
            if j + 1 < b.len() && b[j] == '.' && b[j + 1].is_ascii_digit() {
                j += 1;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
            }
            out.tokens.push(Token {
                text: b[start..j].iter().collect(),
                kind: TokenKind::Number,
                line,
            });
            i = j;
            continue;
        }
        // Strings.
        if c == '"' {
            let (end, nl) = skip_string(&b, i);
            out.tokens.push(Token {
                text: b[i..end].iter().collect(),
                kind: TokenKind::Literal,
                line,
            });
            line += nl;
            i = end;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            if is_char_literal(&b, i) {
                let end = skip_char_literal(&b, i);
                out.tokens.push(Token {
                    text: b[i..end].iter().collect(),
                    kind: TokenKind::Literal,
                    line,
                });
                i = end;
                continue;
            }
            // Lifetime: 'ident
            let start = i;
            let mut j = i + 1;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            out.tokens.push(Token {
                text: b[start..j].iter().collect(),
                kind: TokenKind::Lifetime,
                line,
            });
            i = j;
            continue;
        }
        // `<<` joined (both `<` adjacent); everything else single-char.
        if c == '<' && i + 1 < b.len() && b[i + 1] == '<' {
            out.tokens.push(Token {
                text: "<<".into(),
                kind: TokenKind::Punct,
                line,
            });
            i += 2;
            continue;
        }
        out.tokens.push(Token {
            text: c.to_string(),
            kind: TokenKind::Punct,
            line,
        });
        i += 1;
    }
    out
}

/// Whether position `i` starts a raw (byte) string: `r"`, `r#`, `br"`, `br#`.
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Skips a `"…"` literal starting at the opening quote; returns (index past
/// the closing quote, newlines crossed).
fn skip_string(b: &[char], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    let mut nl = 0u32;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                nl += 1;
                j += 1;
            }
            '"' => return (j + 1, nl),
            _ => j += 1,
        }
    }
    (b.len(), nl)
}

/// Whether `'` at `i` opens a char literal (vs a lifetime).
fn is_char_literal(b: &[char], i: usize) -> bool {
    // '\x' escapes are always chars; 'a' is a char only if a closing quote
    // follows the single (possibly alphanumeric) character.
    match b.get(i + 1) {
        Some('\\') => true,
        Some(c) if c.is_alphanumeric() || *c == '_' => {
            // Lifetime idents run on; a char closes immediately.
            b.get(i + 2) == Some(&'\'')
        }
        Some('\'') => false, // '' — malformed, treat as lifetime-ish
        Some(_) => true,     // punctuation char like '(' or '<'
        None => false,
    }
}

/// Skips a char literal starting at the opening `'`.
fn skip_char_literal(b: &[char], i: usize) -> usize {
    let mut j = i + 1;
    if j < b.len() && b[j] == '\\' {
        j += 2;
        // \x7f / \u{..} escapes
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        return (j + 1).min(b.len());
    }
    j += 1;
    while j < b.len() && b[j] != '\'' {
        j += 1;
    }
    (j + 1).min(b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn basic_stream() {
        assert_eq!(
            texts("let x = a.iter();"),
            vec!["let", "x", "=", "a", ".", "iter", "(", ")", ";"]
        );
    }

    #[test]
    fn shift_is_joined_but_generics_are_not() {
        let t = texts("1u64 << cpu");
        assert_eq!(t, vec!["1u64", "<<", "cpu"]);
        let t = texts("Vec<Vec<u64>>");
        assert!(t.contains(&"<".to_string()));
        assert!(!t.contains(&"<<".to_string()));
    }

    #[test]
    fn strings_and_chars_hide_contents() {
        let t = texts(r#"panic!("HashMap {x}"); let c = '<'; let l: &'a str = "";"#);
        assert!(!t.contains(&"HashMap".to_string()));
        assert!(t.iter().any(|s| s == "'a"));
    }

    #[test]
    fn raw_strings_skip_quotes_and_hashes() {
        let t = texts(r###"let s = r#"a "quoted" HashMap"#; s.len()"###);
        assert!(!t.contains(&"HashMap".to_string()));
        assert!(t.contains(&"len".to_string()));
    }

    #[test]
    fn comments_are_captured_with_position() {
        let l = lex("let a = 1; // trailing note\n// standalone\nlet b = 2;\n");
        assert_eq!(l.comments.len(), 2);
        assert!(!l.comments[0].standalone);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[1].standalone);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.comments[1].text.contains("standalone"));
    }

    #[test]
    fn block_comments_nest_and_track_lines() {
        let l = lex("/* outer /* inner */ still */ let x = 1;\nlet y = 2;");
        assert_eq!(l.comments.len(), 1);
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines.first(), Some(&1));
        assert_eq!(lines.last(), Some(&2));
    }

    #[test]
    fn line_numbers_cross_multiline_strings() {
        let l = lex("let s = \"a\nb\";\nlet t = 1;");
        let t = l.tokens.iter().find(|t| t.text == "t").unwrap();
        assert_eq!(t.line, 3);
    }
}
