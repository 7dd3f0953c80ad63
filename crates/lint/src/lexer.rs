//! A zero-dependency Rust lexer: real tokens with byte spans.
//!
//! This replaces the v1 masked-view text scanner. Every lint pass now
//! works on a token stream in which comments, string literals, char
//! literals and lifetimes are *distinct token kinds* rather than
//! blanked-out bytes, so a banned identifier inside a raw string can
//! never fire and a finding can never hide inside `r#"..."#` contents.
//!
//! The lexer handles the full literal surface the workspace uses:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * plain, byte, raw and raw-byte strings (`"…"`, `b"…"`, `r"…"`,
//!   `r#"…"#`, `br##"…"##` with any number of hashes);
//! * char and byte-char literals (`'x'`, `'\n'`, `b'\0'`) correctly
//!   disambiguated from lifetimes (`'static`) and loop labels;
//! * numeric literals with underscores, base prefixes and suffixes;
//! * maximal-munch compound operators (`+=`, `::`, `=>`, `<<=`, …).
//!
//! Whitespace is dropped; comments are kept (the unsafe-audit pass
//! reads `// SAFETY:` text, and the RNG-domain pass cross-checks tag
//! comments against decoded constants). Tokens never overlap and cover
//! the input in order, so `&text[tok.start..tok.end]` is always the
//! exact source spelling.

/// What a token is. String-like kinds carry their *unescaped* content
/// where a pass needs it (metric keys, domain tags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, `r#type`).
    Ident,
    /// Lifetime or loop label (`'static`, `'outer`).
    Lifetime,
    /// Integer literal (`42`, `0x50524C_433A4641`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e-3`).
    Float,
    /// String literal of any flavour; `value` is the unescaped content.
    Str {
        /// Unescaped contents (raw strings verbatim, plain strings with
        /// `\n`-style escapes resolved).
        value: String,
        /// `r"…"` / `r#"…"#` flavours.
        raw: bool,
        /// `b"…"` / `br"…"` flavours.
        byte: bool,
    },
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// `//`-to-end-of-line comment (doc comments included).
    LineComment,
    /// `/* … */` comment, nesting resolved.
    BlockComment,
    /// Punctuation / operator, maximal-munch (`+=`, `::`, `.`, `^`).
    Punct,
    /// `(` `[` `{`.
    Open(Delim),
    /// `)` `]` `}`.
    Close(Delim),
}

/// Bracket flavours for [`TokenKind::Open`]/[`TokenKind::Close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` … `)`
    Paren,
    /// `[` … `]`
    Bracket,
    /// `{` … `}`
    Brace,
}

/// One lexed token: kind plus byte span and 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
}

impl Token {
    /// The source spelling of the token.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

/// Compound operators, longest first so maximal munch falls out of the
/// scan order.
const COMPOUND_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens (whitespace dropped, comments kept).
///
/// The lexer is total: any byte sequence produces a token stream, with
/// unterminated literals running to end of input and genuinely
/// unexpected bytes emitted as single-byte [`TokenKind::Punct`] tokens.
/// Lints must never panic on weird-but-compiling source.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;

    // Bumps `line` for every newline in `[from, to)`.
    macro_rules! count_lines {
        ($from:expr, $to:expr) => {
            line += b[$from..$to].iter().filter(|&&c| c == b'\n').count()
        };
    }

    while i < n {
        let start = i;
        let start_line = line;
        let c = b[i];

        // Whitespace: skipped, lines counted.
        if c.is_ascii_whitespace() {
            while i < n && b[i].is_ascii_whitespace() {
                i += 1;
            }
            count_lines!(start, i);
            continue;
        }

        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::LineComment,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Block comment (nesting).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < n {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            count_lines!(start, i);
            out.push(Token {
                kind: TokenKind::BlockComment,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Raw / raw-byte strings: r"…", r#"…"#, br##"…"##.
        if c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r')) {
            let at = if c == b'b' { i + 1 } else { i };
            let mut h = at + 1;
            while b.get(h) == Some(&b'#') {
                h += 1;
            }
            if b.get(h) == Some(&b'"') {
                let hashes = h - (at + 1);
                let content_start = h + 1;
                let mut j = content_start;
                let content_end = loop {
                    if j >= n {
                        break n; // unterminated: runs to EOF
                    }
                    if b[j] == b'"'
                        && b[j + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&x| x == b'#')
                            .count()
                            == hashes
                    {
                        break j;
                    }
                    j += 1;
                };
                i = (content_end + 1 + hashes).min(n);
                count_lines!(start, i);
                out.push(Token {
                    kind: TokenKind::Str {
                        value: src[content_start..content_end].to_string(),
                        raw: true,
                        byte: c == b'b',
                    },
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
            // `r` / `br` not followed by a string: fall through (an
            // identifier such as `rng`, or the keyword escape `r#ident`
            // which the ident arm picks up below).
            if c == b'r'
                && b.get(i + 1) == Some(&b'#')
                && b.get(i + 2).copied().is_some_and(is_ident_start)
            {
                // Raw identifier r#type: consume prefix then the ident.
                i += 2;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
        }

        // Plain / byte strings with escapes.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) {
            let byte = c == b'b';
            let mut j = if byte { i + 2 } else { i + 1 };
            let mut value = String::new();
            while j < n && b[j] != b'"' {
                if b[j] == b'\\' && j + 1 < n {
                    // The escaped scalar may be wider than a byte.
                    let escaped = utf8_len(b[j + 1]);
                    match b[j + 1] {
                        b'n' => value.push('\n'),
                        b't' => value.push('\t'),
                        b'r' => value.push('\r'),
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        b'\'' => value.push('\''),
                        b'0' => value.push('\0'),
                        // \xNN, \u{…}: keep the raw spelling; no lint
                        // compares escaped keys byte-for-byte.
                        _ => value.push_str(&src[j..j + 1 + escaped]),
                    }
                    j += 1 + escaped;
                } else {
                    // Copy the full UTF-8 scalar starting at j.
                    let ch_len = utf8_len(b[j]);
                    value.push_str(&src[j..(j + ch_len).min(n)]);
                    j += ch_len;
                }
            }
            i = (j + 1).min(n);
            count_lines!(start, i);
            out.push(Token {
                kind: TokenKind::Str {
                    value,
                    raw: false,
                    byte,
                },
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Char / byte-char literal vs lifetime. A `'` opens a char
        // literal when it closes within a couple of scalars (`'x'`,
        // `'\n'`, `'\u{1F600}'`); otherwise it is a lifetime/label.
        if c == b'\'' || (c == b'b' && b.get(i + 1) == Some(&b'\'')) {
            let q = if c == b'b' { i + 1 } else { i };
            if let Some(end) = char_literal_end(b, q) {
                i = end + 1;
                out.push(Token {
                    kind: TokenKind::Char,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
            if c == b'\'' {
                // Lifetime or label: `'` + ident.
                i += 1;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Lifetime,
                    start,
                    end: i,
                    line: start_line,
                });
                continue;
            }
        }

        // Identifier / keyword (also catches the `b` that wasn't a
        // byte-string prefix).
        if is_ident_start(c) {
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::Ident,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Numeric literal.
        if c.is_ascii_digit() {
            let mut is_float = false;
            i += 1;
            if c == b'0' && i < n && matches!(b[i], b'x' | b'o' | b'b') {
                i += 1;
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
            } else {
                while i < n && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
                // Fractional part — but not `1..2` range syntax and not
                // `1.method()` calls.
                if i < n
                    && b[i] == b'.'
                    && b.get(i + 1).copied().is_some_and(|d| d.is_ascii_digit())
                {
                    is_float = true;
                    i += 1;
                    while i < n && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                }
                // Exponent.
                if i < n && matches!(b[i], b'e' | b'E') {
                    let mut j = i + 1;
                    if j < n && matches!(b[j], b'+' | b'-') {
                        j += 1;
                    }
                    if j < n && b[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < n && (b[i].is_ascii_digit() || b[i] == b'_') {
                            i += 1;
                        }
                    }
                }
                // Type suffix (`u64`, `f32`, `usize`).
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
            }
            out.push(Token {
                kind: if is_float {
                    TokenKind::Float
                } else {
                    TokenKind::Int
                },
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Delimiters.
        let delim = match c {
            b'(' => Some((TokenKind::Open(Delim::Paren), 1)),
            b')' => Some((TokenKind::Close(Delim::Paren), 1)),
            b'[' => Some((TokenKind::Open(Delim::Bracket), 1)),
            b']' => Some((TokenKind::Close(Delim::Bracket), 1)),
            b'{' => Some((TokenKind::Open(Delim::Brace), 1)),
            b'}' => Some((TokenKind::Close(Delim::Brace), 1)),
            _ => None,
        };
        if let Some((kind, len)) = delim {
            i += len;
            out.push(Token {
                kind,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Compound operators, longest first.
        let rest = &src[i..];
        if let Some(op) = COMPOUND_OPS.iter().find(|op| rest.starts_with(**op)) {
            i += op.len();
            out.push(Token {
                kind: TokenKind::Punct,
                start,
                end: i,
                line: start_line,
            });
            continue;
        }

        // Single-byte punctuation (or any unexpected byte).
        i += utf8_len(c).max(1);
        out.push(Token {
            kind: TokenKind::Punct,
            start,
            end: i.min(n),
            line: start_line,
        });
    }

    out
}

/// Length in bytes of the UTF-8 scalar starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// If the quote at `b[q]` opens a char literal, the index of its
/// closing quote; `None` when it is a lifetime.
fn char_literal_end(b: &[u8], q: usize) -> Option<usize> {
    let n = b.len();
    if q + 1 >= n {
        return None;
    }
    if b[q + 1] == b'\\' {
        // Escaped char: scan to the closing quote (handles \u{…}).
        let mut j = q + 2;
        while j < n && b[j] != b'\'' && b[j] != b'\n' {
            j += 1;
        }
        return (j < n && b[j] == b'\'').then_some(j);
    }
    if b[q + 1] == b'\'' {
        return None; // `''` is not a char literal
    }
    // Unescaped: exactly one scalar then a quote. `'a'` is a char;
    // `'a` followed by anything else is a lifetime.
    let ch_len = utf8_len(b[q + 1]);
    let close = q + 1 + ch_len;
    (b.get(close) == Some(&b'\'')).then_some(close)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src).iter().map(|t| t.text(src).to_string()).collect()
    }

    #[test]
    fn idents_ops_and_numbers() {
        let toks = texts("let x += 0x50524C_433A4641; a::b -> c");
        assert_eq!(
            toks,
            [
                "let",
                "x",
                "+=",
                "0x50524C_433A4641",
                ";",
                "a",
                "::",
                "b",
                "->",
                "c"
            ]
        );
        let k = kinds("0xFFu64 1_000 1.5 2e-3 1..2");
        assert_eq!(
            k,
            [
                TokenKind::Int,
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Punct, // ..
                TokenKind::Int,
            ]
        );
    }

    #[test]
    fn an_escaped_multibyte_scalar_stays_whole() {
        // The escape used to skip one byte into `é` and slice mid-scalar.
        let src = "\"a\\é\" x";
        assert_eq!(texts(src), ["\"a\\é\"", "x"]);
        assert_eq!(
            kinds(src)[0],
            TokenKind::Str {
                value: "a\\é".into(),
                raw: false,
                byte: false
            }
        );
    }

    #[test]
    fn strings_do_not_produce_ident_tokens() {
        let src = r#"let s = "HashMap inside"; use std::collections::BTreeMap;"#;
        let toks = lex(src);
        assert!(toks
            .iter()
            .all(|t| t.kind != TokenKind::Ident || t.text(src) != "HashMap"));
        let strs: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str { value, .. } => Some(value.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, ["HashMap inside"]);
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = r####"let a = r#"quote " inside"#; let b = br##"x"# still"##;"####;
        let toks = lex(src);
        let strs: Vec<(String, bool, bool)> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Str { value, raw, byte } => Some((value.clone(), *raw, *byte)),
                _ => None,
            })
            .collect();
        assert_eq!(
            strs,
            [
                ("quote \" inside".to_string(), true, false),
                ("x\"# still".to_string(), true, true),
            ]
        );
        // Code after the raw strings still lexes.
        assert!(texts(src).contains(&"b".to_string()));
    }

    #[test]
    fn raw_string_cannot_fake_code() {
        // v1 regression: contents of r#"…"# must never surface as
        // identifier tokens.
        let src = r###"let x = r#".unwrap() unsafe HashMap thread_rng"#;"###;
        let idents: Vec<String> = lex(src)
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(src).to_string())
            .collect();
        assert_eq!(idents, ["let", "x"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = r#"let c = '"'; let l: &'static str = "x"; let e = '\n'; 'outer: loop {}"#;
        let toks = lex(src);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(chars, ["'\"'", r"'\n'"]);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, ["'static", "'outer"]);
        // The `'"'` char literal's quote must not have opened a string.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "l"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = r#"let a = b"bytes"; let c = b'\0'; let r = br"raw";"#;
        let toks = lex(src);
        assert!(toks.iter().any(|t| matches!(
            &t.kind,
            TokenKind::Str { byte: true, raw: false, value } if value == "bytes"
        )));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text(src) == r"b'\0'"));
        assert!(toks.iter().any(|t| matches!(
            &t.kind,
            TokenKind::Str { byte: true, raw: true, value } if value == "raw"
        )));
    }

    #[test]
    fn nested_block_comments_and_line_numbers() {
        let src = "a\n/* outer /* inner */ still */\nb // trailing\nc";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].kind, TokenKind::BlockComment);
        assert_eq!(toks[1].line, 2);
        let b_tok = toks.iter().find(|t| t.text(src) == "b").unwrap();
        assert_eq!(b_tok.line, 3);
        let c_tok = toks.iter().find(|t| t.text(src) == "c").unwrap();
        assert_eq!(c_tok.line, 4);
        assert!(toks.iter().any(|t| t.kind == TokenKind::LineComment));
    }

    #[test]
    fn raw_identifiers() {
        let src = "let r#type = 1; rng.gen();";
        let toks = texts(src);
        assert!(toks.contains(&"r#type".to_string()));
        assert!(toks.contains(&"rng".to_string()));
    }

    #[test]
    fn escaped_string_values_unescape() {
        let src = r#"let s = "a\"b\n";"#;
        let toks = lex(src);
        let val = toks
            .iter()
            .find_map(|t| match &t.kind {
                TokenKind::Str { value, .. } => Some(value.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(val, "a\"b\n");
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["let s = \"open", "let r = r#\"open", "/* open", "let c = '"] {
            let toks = lex(src);
            assert!(!toks.is_empty());
        }
    }

    #[test]
    fn spans_cover_source_in_order() {
        let src = "fn f() -> u8 { 'a' }";
        let toks = lex(src);
        let mut last = 0;
        for t in &toks {
            assert!(t.start >= last, "overlap at {t:?}");
            assert!(t.end > t.start);
            last = t.end;
        }
    }
}
