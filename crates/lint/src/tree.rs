//! Token-tree source model: the lexed token stream plus the structural
//! indices every lint pass navigates by.
//!
//! A [`SourceModel`] holds the full token stream (comments included, for
//! the `// SAFETY:` and domain-tag truth-in-comment checks), a
//! *significant* sub-stream with comments dropped (what passes match
//! against), a matching-bracket map over the significant stream, and
//! the `#[cfg(test)]` / `#[test]` region spans resolved by syntax — an
//! attribute gates the brace-block of the item that follows it, not
//! whatever a line-based brace counter guesses.
//!
//! The model still stops short of full parsing (no `syn`, consistent
//! with the workspace's zero-dependency policy): passes pattern-match
//! token sequences, but on *real* tokens with byte spans, so raw-string
//! contents, char literals and comments can neither mask nor fake a
//! finding.

use crate::lexer::{lex, Delim, Token, TokenKind};

/// How a file participates in the lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: every lint applies.
    Lib,
    /// Binary / example code (CLI front-ends, bench drivers): exempt
    /// from the panic-hygiene lint, everything else applies.
    Bin,
    /// Test-only code (`tests/`, `proptests.rs`): exempt
    /// from determinism, metric-registry, RNG and panic lints.
    TestOnly,
}

/// Classifies a workspace-relative path into a [`FileKind`].
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    let name = parts.last().copied().unwrap_or("");
    if parts.contains(&"tests") || name == "proptests.rs" {
        return FileKind::TestOnly;
    }
    if parts.contains(&"examples") || parts.contains(&"bin") || name == "main.rs" {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// One source file, lexed and indexed.
#[derive(Debug)]
pub struct SourceModel {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// How this file participates in the lints.
    pub kind: FileKind,
    /// The file contents, verbatim.
    pub text: String,
    /// Every token, comments included, in source order.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Per significant position holding an `Open`: the significant
    /// position of its matching `Close`.
    close_of: Vec<Option<usize>>,
    /// Byte spans of `#[cfg(test)]`- / `#[test]`-gated item bodies
    /// (attribute start through closing brace).
    test_spans: Vec<(usize, usize)>,
}

impl SourceModel {
    /// Lexes and indexes `text`.
    pub fn parse(rel: &str, kind: FileKind, text: &str) -> SourceModel {
        let tokens = lex(text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();

        // Matching-bracket map via a stack over significant positions.
        let mut close_of = vec![None; sig.len()];
        let mut stack: Vec<(Delim, usize)> = Vec::new();
        for (si, &ti) in sig.iter().enumerate() {
            match tokens[ti].kind {
                TokenKind::Open(d) => stack.push((d, si)),
                TokenKind::Close(d) => {
                    if let Some(&(od, open_si)) = stack.last() {
                        if od == d {
                            stack.pop();
                            close_of[open_si] = Some(si);
                        }
                    }
                }
                _ => {}
            }
        }

        let mut model = SourceModel {
            rel: rel.to_string(),
            kind,
            text: text.to_string(),
            tokens,
            sig,
            close_of,
            test_spans: Vec::new(),
        };
        model.test_spans = model.compute_test_spans();
        model
    }

    /// Number of significant tokens.
    pub fn sig_len(&self) -> usize {
        self.sig.len()
    }

    /// The significant token at position `si`.
    pub fn tok(&self, si: usize) -> &Token {
        &self.tokens[self.sig[si]]
    }

    /// Source spelling of the significant token at `si`.
    pub fn text_of(&self, si: usize) -> &str {
        self.tok(si).text(&self.text)
    }

    /// The identifier text at `si`, if it is an identifier.
    pub fn ident_at(&self, si: usize) -> Option<&str> {
        (si < self.sig.len() && self.tok(si).kind == TokenKind::Ident).then(|| self.text_of(si))
    }

    /// Is the significant token at `si` the identifier `name`?
    pub fn is_ident(&self, si: usize, name: &str) -> bool {
        self.ident_at(si) == Some(name)
    }

    /// Is the significant token at `si` the punctuation `op`?
    pub fn is_punct(&self, si: usize, op: &str) -> bool {
        si < self.sig.len() && self.tok(si).kind == TokenKind::Punct && self.text_of(si) == op
    }

    /// Is the significant token at `si` an `Open(delim)`?
    pub fn is_open(&self, si: usize, delim: Delim) -> bool {
        si < self.sig.len() && self.tok(si).kind == TokenKind::Open(delim)
    }

    /// Matching `Close` position for the `Open` at `si`.
    pub fn close_of(&self, si: usize) -> Option<usize> {
        self.close_of.get(si).copied().flatten()
    }

    /// Whether byte offset `at` sits in test code (the whole file is
    /// test-only, or the offset is inside a `#[cfg(test)]`/`#[test]`
    /// gated region).
    pub fn in_test(&self, at: usize) -> bool {
        self.kind == FileKind::TestOnly || self.test_spans.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// Line comments as `(line, text)` pairs — the SAFETY and
    /// domain-tag passes read comment *contents*.
    pub fn line_comments(&self) -> impl Iterator<Item = (usize, &str)> {
        self.tokens.iter().filter_map(|t| match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => Some((t.line, t.text(&self.text))),
            _ => None,
        })
    }

    /// From significant position `from`, the position of the next
    /// top-level `Open(Brace)` — the body of the item starting there —
    /// skipping over `(…)` / `[…]` groups (fn args, generics' defaults,
    /// attributes). Stops at `;` (bodyless item) or a closing delimiter
    /// (ran out of the enclosing item).
    pub fn find_body_brace(&self, from: usize) -> Option<usize> {
        let mut k = from;
        while k < self.sig.len() {
            match self.tok(k).kind {
                TokenKind::Open(Delim::Brace) => return Some(k),
                TokenKind::Open(_) => k = self.close_of(k)? + 1,
                TokenKind::Close(_) => return None,
                TokenKind::Punct if self.text_of(k) == ";" => return None,
                _ => k += 1,
            }
        }
        None
    }

    /// Byte span `(start, end)` of the brace group opening at `si`
    /// (inclusive of both braces). Unclosed groups run to end of file.
    pub fn brace_span(&self, si: usize) -> (usize, usize) {
        let start = self.tok(si).start;
        let end = self
            .close_of(si)
            .map(|c| self.tok(c).end)
            .unwrap_or(self.text.len());
        (start, end)
    }

    /// Resolves `#[cfg(test…)]` / `#[test]` regions: each gating
    /// attribute covers from its `#` through the closing brace of the
    /// item body that follows (skipping further attributes); a `;`
    /// before any body brace cancels (out-of-line `mod proptests;`).
    fn compute_test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut si = 0;
        while si < self.sig.len() {
            if !(self.is_punct(si, "#") && self.is_open(si + 1, Delim::Bracket)) {
                si += 1;
                continue;
            }
            let Some(close) = self.close_of(si + 1) else {
                si += 1;
                continue;
            };
            if !self.attr_is_test_gate(si + 2, close) {
                si = close + 1;
                continue;
            }
            // Skip any further attributes between the gate and the item.
            let mut j = close + 1;
            while self.is_punct(j, "#") && self.is_open(j + 1, Delim::Bracket) {
                match self.close_of(j + 1) {
                    Some(c) => j = c + 1,
                    None => break,
                }
            }
            if let Some(body) = self.find_body_brace(j) {
                let (_, end) = self.brace_span(body);
                spans.push((self.tok(si).start, end));
            }
            si = close + 1;
        }
        spans
    }

    /// Does the attribute content in significant positions
    /// `[from, to)` gate test code? Recognizes `#[test]`,
    /// `#[cfg(test…)]` and `#[cfg(all(test…))]` — and *not*
    /// `#[cfg(not(test))]`.
    fn attr_is_test_gate(&self, from: usize, to: usize) -> bool {
        if to == from + 1 && self.is_ident(from, "test") {
            return true; // #[test]
        }
        if self.is_ident(from, "cfg") && self.is_open(from + 1, Delim::Paren) {
            if self.is_ident(from + 2, "test") {
                return true; // #[cfg(test)] / #[cfg(test, …)]
            }
            if self.is_ident(from + 2, "all")
                && self.is_open(from + 3, Delim::Paren)
                && self.is_ident(from + 4, "test")
            {
                return true; // #[cfg(all(test, …))]
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> SourceModel {
        SourceModel::parse("crates/x/src/a.rs", FileKind::Lib, src)
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(classify("crates/gf/src/kernel.rs"), FileKind::Lib);
        assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Bin);
        assert_eq!(
            classify("crates/bench/src/bin/experiments.rs"),
            FileKind::Bin
        );
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Bin);
        assert_eq!(classify("tests/end_to_end.rs"), FileKind::TestOnly);
        assert_eq!(classify("crates/net/src/proptests.rs"), FileKind::TestOnly);
    }

    #[test]
    fn bracket_map_matches_nested_groups() {
        let m = lib("fn f(a: u8) { g([1, 2]); }");
        // Find the fn's paren open and brace open.
        let opens: Vec<usize> = (0..m.sig_len())
            .filter(|&si| matches!(m.tok(si).kind, TokenKind::Open(_)))
            .collect();
        for &o in &opens {
            let c = m.close_of(o).expect("balanced source");
            assert!(c > o);
            match (&m.tok(o).kind, &m.tok(c).kind) {
                (TokenKind::Open(a), TokenKind::Close(b)) => assert_eq!(a, b),
                other => panic!("not a bracket pair: {other:?}"),
            }
        }
    }

    #[test]
    fn cfg_test_mod_spans_cover_body_only() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let m = lib(src);
        let unwrap_at = src.find("unwrap").unwrap();
        let live2_at = src.find("live2").unwrap();
        assert!(m.in_test(unwrap_at));
        assert!(!m.in_test(live2_at));
        assert!(!m.in_test(0));
    }

    #[test]
    fn test_attr_gates_single_fn() {
        let src = "#[test]\nfn t() { boom(); }\nfn live() { fine(); }\n";
        let m = lib(src);
        assert!(m.in_test(src.find("boom").unwrap()));
        assert!(!m.in_test(src.find("fine").unwrap()));
    }

    #[test]
    fn out_of_line_test_mod_does_not_open_a_region() {
        let src = "#[cfg(test)]\nmod proptests;\nfn live() { brace(); }\n";
        let m = lib(src);
        assert!(!m.in_test(src.find("brace").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { real(); }\n";
        let m = lib(src);
        assert!(!m.in_test(src.find("real").unwrap()));
    }

    #[test]
    fn cfg_all_test_and_stacked_attributes_gate() {
        let src = "#[cfg(all(test, feature = \"slow\"))]\n#[allow(dead_code)]\nmod extra {\n    fn t() { inner(); }\n}\n";
        let m = lib(src);
        assert!(m.in_test(src.find("inner").unwrap()));
    }

    #[test]
    fn attr_with_braces_in_string_does_not_confuse_spans() {
        // A brace inside an attribute string must not open the region
        // early (the v1 line-based counter got this wrong).
        let src = "#[cfg(test)]\n#[doc = \"odd { brace\"]\nmod tests {\n    fn t() { x(); }\n}\nfn live() { y(); }\n";
        let m = lib(src);
        assert!(m.in_test(src.find("x()").unwrap()));
        assert!(!m.in_test(src.find("y()").unwrap()));
    }

    #[test]
    fn find_body_brace_skips_header_groups() {
        let src = "fn f(a: [u8; 4], g: impl Fn(u8) -> u8) { body(); }";
        let m = lib(src);
        let fn_si = (0..m.sig_len()).find(|&si| m.is_ident(si, "f")).unwrap();
        let body = m.find_body_brace(fn_si).unwrap();
        let (s, e) = m.brace_span(body);
        let body_at = src.find("body").unwrap();
        assert!(s < body_at && body_at < e, "{s}..{e} vs {body_at}");
    }

    #[test]
    fn raw_string_brace_cannot_fake_a_region() {
        let src = "#[cfg(test)]\nmod t { fn a() { let s = r#\"}}}}\"#; } }\nfn live() { z(); }\n";
        let m = lib(src);
        assert!(!m.in_test(src.find("z()").unwrap()));
    }

    #[test]
    fn line_comments_expose_contents() {
        let src = "// SAFETY: fine\nunsafe { x() }\n";
        let m = lib(src);
        let comments: Vec<(usize, &str)> = m.line_comments().collect();
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].0, 1);
        assert!(comments[0].1.contains("SAFETY:"));
    }
}
