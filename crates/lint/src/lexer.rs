//! A small Rust lexer for rule checking: token stream + allow
//! annotations, with comments, string/char/raw-string literals, and
//! test-only regions (`#[cfg(test)]` items, `#[test]` functions,
//! `mod tests` blocks) stripped or marked so rules see only live code.
//!
//! This is not a full Rust lexer — it only needs to be *sound for the
//! rules*: identifiers, lifetimes, number literals, and single-character
//! punctuation survive; everything inside comments and literals
//! disappears; and every token carries the line it came from plus whether
//! it sits in test-only code. The lexer never panics on any input (see
//! the proptest in `tests/lexer_never_panics.rs`): malformed or truncated
//! input degrades to best-effort tokens, never to an abort.

/// What a token is, as far as the rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (also raw identifiers, without the `r#`).
    Ident,
    /// A numeric literal; `value` holds the integer value when it parses.
    Number,
    /// One punctuation character (`::` is two `:` tokens).
    Punct,
    /// A lifetime or loop label (`'a`, `'static`), without the quote.
    Lifetime,
}

/// One lexed token of live or test code.
#[derive(Clone, Debug)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// Classification.
    pub kind: TokenKind,
    /// The token text (one char for `Punct`).
    pub text: String,
    /// Integer value for `Number` tokens that parse as integers.
    pub value: Option<u64>,
    /// Whether the token sits inside a test-only region.
    pub test_code: bool,
}

/// One `lint: allow(<rule>) — <reason>` annotation found in a comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// 1-based line the annotation text appears on.
    pub line: u32,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Whether a non-empty reason followed the closing parenthesis.
    /// Reason-less annotations are inert (the violation still fires).
    pub has_reason: bool,
}

/// The lexer's output for one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Tokens in source order, with test regions marked.
    pub tokens: Vec<Token>,
    /// Allow annotations harvested from comments.
    pub allows: Vec<Allow>,
    /// Source lines in the file.
    pub lines: u32,
}

impl LexedFile {
    /// Whether `rule` is allowed at `line` (annotation on the same line
    /// or the line directly above, with a reason).
    pub fn allowed_at(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.has_reason && a.rule == rule && (a.line == line || a.line + 1 == line))
    }

    /// Production lines: every line outside the file's *top-level*
    /// test-only items (`#[cfg(test)] mod tests`, a `#[cfg(test)] impl`
    /// block, attributes included) — the figure the roadmap tracks. A
    /// top-level test item covers its lines from its first token to its
    /// last (adjacent items merge, with what lies between them); live code
    /// after it counts again, and so does a line that carries live code
    /// beside test code. A test-only item nested in live code (a
    /// `#[cfg(test)]` helper inside an `impl`) sits among production
    /// lines and counts with them.
    pub fn production_lines(&self) -> u32 {
        let slots = self.lines as usize + 1;
        let (mut test, mut live) = (vec![false; slots], vec![false; slots]);
        let mut cover = |first: u32, last: u32| {
            let lines = test.get_mut(first as usize..=last as usize).unwrap_or_default();
            lines.iter_mut().for_each(|line| *line = true);
        };
        let mut depth = 0u32;
        // The current run of top-level test tokens: its first and last line.
        let mut run: Option<(u32, u32)> = None;
        for t in &self.tokens {
            if t.test_code {
                if depth == 0 {
                    run = Some(run.map_or((t.line, t.line), |(first, _)| (first, t.line)));
                }
                continue;
            }
            if let Some((first, last)) = run.take() {
                cover(first, last);
            }
            if let Some(line) = live.get_mut(t.line as usize) {
                *line = true;
            }
            if t.kind == TokenKind::Punct && t.text == "{" {
                depth += 1;
            } else if t.kind == TokenKind::Punct && t.text == "}" {
                depth = depth.saturating_sub(1);
            }
        }
        if let Some((first, last)) = run {
            cover(first, last);
        }
        let covered = test.iter().zip(&live).filter(|&(&test, &live)| test && !live).count();
        self.lines.saturating_sub(covered as u32)
    }
}

/// Lexes `src`, marking test-only regions. Never panics.
pub fn lex(src: &str) -> LexedFile {
    let mut out = scan(src);
    mark_test_regions(&mut out.tokens);
    out.lines = src.lines().count() as u32;
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Character cursor over `src` with line tracking.
struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
}

impl Cursor<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c == Some('\n') {
            self.line += 1;
        }
        c
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    /// Peeks the character after the next one (clones the iterator; the
    /// lexer only needs two-character lookahead).
    fn peek2(&mut self) -> Option<char> {
        let mut ahead = self.chars.clone();
        ahead.next();
        ahead.next()
    }
}

/// Pass 1: raw scan into tokens + allow annotations.
fn scan(src: &str) -> LexedFile {
    let mut cur = Cursor { chars: src.chars().peekable(), line: 1 };
    let mut out = LexedFile::default();

    while let Some(c) = cur.peek() {
        let line = cur.line;
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek2() == Some('/') => {
                cur.bump();
                cur.bump();
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if c == '\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                harvest_allow(&text, line, &mut out.allows);
            }
            '/' if cur.peek2() == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                let mut text = String::new();
                let mut text_line = line;
                while depth > 0 {
                    match (cur.peek(), cur.peek2()) {
                        (Some('*'), Some('/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some('/'), Some('*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some('\n'), _) => {
                            harvest_allow(&text, text_line, &mut out.allows);
                            text.clear();
                            cur.bump();
                            text_line = cur.line;
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break, // unterminated comment
                    }
                }
                harvest_allow(&text, text_line, &mut out.allows);
            }
            '"' => {
                cur.bump();
                skip_string(&mut cur);
            }
            '\'' => {
                cur.bump();
                if skip_char_or_lifetime(&mut cur) {
                    out.tokens.push(Token {
                        line,
                        kind: TokenKind::Lifetime,
                        text: scan_ident(&mut cur),
                        value: None,
                        test_code: false,
                    });
                }
            }
            c if is_ident_start(c) => {
                let text = scan_ident(&mut cur);
                match after_ident_prefix(&text, &mut cur) {
                    PrefixAction::Consumed => {}
                    PrefixAction::Keep => {
                        out.tokens.push(Token {
                            line,
                            kind: TokenKind::Ident,
                            text,
                            value: None,
                            test_code: false,
                        });
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let (text, value) = scan_number(&mut cur);
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Number,
                    text,
                    value,
                    test_code: false,
                });
            }
            c => {
                cur.bump();
                out.tokens.push(Token {
                    line,
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    value: None,
                    test_code: false,
                });
            }
        }
    }
    out
}

/// Consumes the identifier characters at the cursor.
fn scan_ident(cur: &mut Cursor<'_>) -> String {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if !is_ident_continue(c) {
            break;
        }
        text.push(c);
        cur.bump();
    }
    text
}

/// What to do after lexing an identifier that may prefix a literal.
enum PrefixAction {
    /// The identifier introduced a literal (or raw identifier) that has
    /// been fully consumed; emit nothing (or the raw identifier was
    /// emitted by the caller via `Keep` — see below).
    Consumed,
    /// A plain identifier: the caller emits it.
    Keep,
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, and raw
/// identifiers `r#name` directly after an identifier was lexed.
fn after_ident_prefix(ident: &str, cur: &mut Cursor<'_>) -> PrefixAction {
    let raw_capable = matches!(ident, "r" | "br");
    let byte_capable = matches!(ident, "b");
    match cur.peek() {
        Some('"') if raw_capable || byte_capable => {
            cur.bump();
            if raw_capable {
                skip_raw_string(cur, 0);
            } else {
                skip_string(cur);
            }
            PrefixAction::Consumed
        }
        Some('\'') if byte_capable => {
            cur.bump();
            // `b'a` is no lifetime; whatever follows lexes on its own.
            let _ = skip_char_or_lifetime(cur);
            PrefixAction::Consumed
        }
        Some('#') if raw_capable => {
            // Count hashes; a quote makes it a raw string. `r#ident` is a
            // raw identifier: swallow the hash, keep lexing the name as a
            // plain identifier token (rules match it by name).
            let mut ahead = cur.chars.clone();
            let mut hashes = 0usize;
            while ahead.peek() == Some(&'#') {
                ahead.next();
                hashes += 1;
            }
            if ahead.peek() == Some(&'"') {
                for _ in 0..=hashes {
                    cur.bump(); // hashes + opening quote
                }
                skip_raw_string(cur, hashes);
                PrefixAction::Consumed
            } else if hashes == 1 && ident == "r" {
                cur.bump(); // the `#` of a raw identifier
                PrefixAction::Keep
            } else {
                PrefixAction::Keep
            }
        }
        _ => PrefixAction::Keep,
    }
}

/// Consumes a `"`-delimited string body (opening quote already consumed).
fn skip_string(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // the escaped character, whatever it is
            }
            '"' => return,
            _ => {}
        }
    }
}

/// Consumes a raw-string body opened with `hashes` hashes (opening quote
/// already consumed): ends at `"` followed by that many hashes.
fn skip_raw_string(cur: &mut Cursor<'_>, hashes: usize) {
    'scan: while let Some(c) = cur.bump() {
        if c != '"' {
            continue;
        }
        let mut ahead = cur.chars.clone();
        for _ in 0..hashes {
            if ahead.next() != Some('#') {
                continue 'scan;
            }
        }
        for _ in 0..hashes {
            cur.bump();
        }
        return;
    }
}

/// Consumes a char/byte literal (opening `'` already consumed) — or
/// recognizes a lifetime, consumes nothing, and returns `true`: its name
/// is at the cursor.
fn skip_char_or_lifetime(cur: &mut Cursor<'_>) -> bool {
    match cur.peek() {
        Some('\\') => {
            // Escaped char literal: consume until the closing quote, with
            // a cap so stray input cannot make this swallow the file.
            cur.bump();
            for _ in 0..12 {
                match cur.bump() {
                    Some('\'') | None => break,
                    _ => {}
                }
            }
            false
        }
        // A lifetime (`'a`, `'static`).
        Some(c) if is_ident_start(c) && cur.peek2() != Some('\'') => true,
        _ => {
            // Plain char literal `'x'` (possibly multi-byte): bounded scan
            // to the closing quote.
            for _ in 0..12 {
                match cur.bump() {
                    Some('\'') | None => break,
                    _ => {}
                }
            }
            false
        }
    }
}

/// Lexes a number literal, returning its text and integer value (hex or
/// decimal; underscores ignored, suffixes and float tails tolerated).
fn scan_number(cur: &mut Cursor<'_>) -> (String, Option<u64>) {
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else if c == '.' {
            // Consume a float point only when a digit follows (leaves
            // `..` ranges and method calls alone).
            match cur.peek2() {
                Some(d) if d.is_ascii_digit() => {
                    text.push(c);
                    cur.bump();
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    let digits: String = text.chars().filter(|&c| c != '_').collect();
    let value = if let Some(hex) = digits.strip_prefix("0x").or_else(|| digits.strip_prefix("0X")) {
        let hex: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        u64::from_str_radix(&hex, 16).ok()
    } else {
        let dec: String = digits.chars().take_while(char::is_ascii_digit).collect();
        dec.parse().ok()
    };
    (text, value)
}

/// Scans comment text for `lint: allow(<rule>) — <reason>`.
fn harvest_allow(comment: &str, line: u32, allows: &mut Vec<Allow>) {
    let Some(at) = comment.find("lint: allow(") else { return };
    let Some(rest) = comment.get(at + "lint: allow(".len()..) else { return };
    let Some(close) = rest.find(')') else { return };
    let Some(rule) = rest.get(..close) else { return };
    let tail = rest.get(close + 1..).unwrap_or("");
    // A reason is anything substantive after the closing parenthesis,
    // past separator dashes/em-dashes/colons.
    let reason = tail.trim_start_matches([' ', '\t', '-', '—', '–', ':']).trim();
    allows.push(Allow { line, rule: rule.trim().to_string(), has_reason: !reason.is_empty() });
}

/// Pass 2: flags tokens inside test-only regions.
///
/// A region starts at `#[cfg(test)]`, `#[test]`-style attributes (path
/// ending in `test`), or `mod tests`; it covers any further attributes
/// plus the item body — the next balanced `{…}` block, or through the
/// next `;` for bodyless items.
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = parse_test_attr(tokens, i) {
            let end = mark_item(tokens, i, after_attr);
            i = end;
            continue;
        }
        if is_mod_tests(tokens, i) {
            let end = mark_item(tokens, i, i + 2);
            i = end;
            continue;
        }
        i += 1;
    }
}

fn tok_is(tokens: &[Token], i: usize, kind: TokenKind, text: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == kind && t.text == text)
}

fn is_mod_tests(tokens: &[Token], i: usize) -> bool {
    tok_is(tokens, i, TokenKind::Ident, "mod") && tok_is(tokens, i + 1, TokenKind::Ident, "tests")
}

/// If `tokens[i..]` opens a test-marking attribute, returns the index
/// just past its closing `]`.
fn parse_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !tok_is(tokens, i, TokenKind::Punct, "#") || !tok_is(tokens, i + 1, TokenKind::Punct, "[") {
        return None;
    }
    // Find the matching `]`.
    let mut depth = 0usize;
    let mut end = None;
    for (j, t) in tokens.iter().enumerate().skip(i + 1) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    let end = end?;
    let content = tokens.get(i + 2..end)?;
    if attr_is_test(content) {
        Some(end + 1)
    } else {
        None
    }
}

/// Whether attribute content (tokens between `[` and `]`) marks test
/// code: `cfg(test)` exactly, or a path whose last segment is `test`
/// (`test`, `tokio::test`, optionally with arguments).
fn attr_is_test(content: &[Token]) -> bool {
    let first = match content.first() {
        Some(t) if t.kind == TokenKind::Ident => t,
        _ => return false,
    };
    if first.text == "cfg" {
        // Exactly `cfg(test)` — NOT `cfg(not(test))` or anything else.
        return content.len() == 4
            && tok_is(content, 1, TokenKind::Punct, "(")
            && tok_is(content, 2, TokenKind::Ident, "test")
            && tok_is(content, 3, TokenKind::Punct, ")");
    }
    // Path segments up to the first `(` or the end.
    let mut last_ident = "";
    for t in content {
        match t.kind {
            TokenKind::Ident => last_ident = &t.text,
            TokenKind::Punct if t.text == ":" => {}
            _ => break,
        }
    }
    last_ident == "test"
}

/// Marks tokens from `start` through the end of the item whose body (or
/// trailing attributes) begins at `from`; returns the index past the item.
fn mark_item(tokens: &mut [Token], start: usize, from: usize) -> usize {
    // Skip any further attributes between the marker and the item.
    let mut i = from;
    while tok_is(tokens, i, TokenKind::Punct, "#") && tok_is(tokens, i + 1, TokenKind::Punct, "[") {
        let mut depth = 0usize;
        let mut advanced = false;
        for (j, t) in tokens.iter().enumerate().skip(i + 1) {
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, "]") => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        i = j + 1;
                        advanced = true;
                        break;
                    }
                }
                _ => {}
            }
        }
        if !advanced {
            break;
        }
    }
    // The item ends at the close of its first balanced `{…}` block, or at
    // the first `;` met before any `{`.
    let mut depth = 0usize;
    let mut end = tokens.len();
    for (j, t) in tokens.iter().enumerate().skip(i) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "{") => depth += 1,
            (TokenKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
            (TokenKind::Punct, ";") if depth == 0 => {
                end = j + 1;
                break;
            }
            _ => {}
        }
    }
    for t in tokens.get_mut(start..end).unwrap_or_default() {
        t.test_code = true;
    }
    end.max(start + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && !t.test_code)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_and_strings_are_skipped() {
        let src = r##"
            // unwrap() in a line comment
            /* unwrap() in /* a nested */ block comment */
            let s = "call .unwrap() inside";
            let r = r#"raw "quoted" unwrap()"#;
            let c = 'u';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
        assert!(ids.contains(&"real_ident".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x.trim() }");
        assert!(ids.contains(&"trim".to_string()));
    }

    #[test]
    fn lifetimes_are_their_own_token_kind() {
        let lexed = lex("fn f<'a>(x: &'a [u8], c: char) -> &'static str { 'l: loop { break 'l } }");
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static", "l", "l"]);
        // Not identifiers: a rule matching `a` or `static` by name skips them.
        assert!(!idents("&'a [u8]").contains(&"a".to_string()));
        // A char literal is still no lifetime, whatever it quotes.
        assert!(lex("let c = 'a'; let d = b'a';")
            .tokens
            .iter()
            .all(|t| t.kind != TokenKind::Lifetime));
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "
            fn live() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { b.unwrap(); }
            }
        ";
        let lexed = lex(src);
        let live: Vec<_> =
            lexed.tokens.iter().filter(|t| !t.test_code && t.text == "unwrap").collect();
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))] fn live() { a.unwrap(); }";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().any(|t| t.text == "unwrap" && !t.test_code));
    }

    #[test]
    fn test_attribute_marks_function() {
        let src = "
            #[tokio::test(flavor = \"multi_thread\")]
            async fn t() { x.unwrap(); }
            fn live() { y.expect(\"msg\"); }
        ";
        let lexed = lex(src);
        assert!(lexed.tokens.iter().all(|t| t.text != "unwrap" || t.test_code));
        assert!(lexed.tokens.iter().any(|t| t.text == "expect" && !t.test_code));
    }

    #[test]
    fn allows_are_harvested_with_reasons() {
        let src = "
            // lint: allow(no-panic) — bounded by construction
            x.unwrap();
            // lint: allow(bounded-channel)
            y.unwrap();
        ";
        let lexed = lex(src);
        assert!(lexed.allowed_at("no-panic", 3));
        assert!(!lexed.allowed_at("bounded-channel", 5), "reason-less allow is inert");
    }

    #[test]
    fn numbers_parse_hex_and_decimal() {
        let lexed = lex("const A: u16 = 0xFFFF; const B: u32 = 65_534u32; let f = 1.5e3;");
        let values: Vec<Option<u64>> =
            lexed.tokens.iter().filter(|t| t.kind == TokenKind::Number).map(|t| t.value).collect();
        assert!(values.contains(&Some(0xFFFF)));
        assert!(values.contains(&Some(65534)));
    }

    #[test]
    fn raw_identifier_is_kept() {
        let ids = idents("let r#type = 1; r#type.frob();");
        assert!(ids.contains(&"type".to_string()));
        assert!(ids.contains(&"frob".to_string()));
    }
}
