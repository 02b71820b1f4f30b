//! The rule engine: each rule walks the lexed token streams (live code
//! only) and/or the manifest dependency graph and yields violations.
//!
//! A violation at line `L` is suppressed by a
//! `// lint: allow(<rule>) — <reason>` annotation on line `L` or `L - 1`;
//! annotations without a reason are inert. See the README's "Static
//! analysis" section for the rule catalogue.

use std::collections::BTreeMap;

use crate::lexer::{LexedFile, Token, TokenKind};
use crate::workspace::{SourceFile, Workspace};

/// Every rule the engine ships, in report order.
pub const RULES: [&str; 6] =
    ["layering", "forbid-unsafe", "no-panic", "bounded-channel", "wire-constants", "bench-json"];

/// Crates allowed to perform io (depend on or name `tokio` / `std::net`).
/// Everything else in the workspace is sans-io by contract: its sim bytes
/// must equal its TCP bytes by construction, so it may never touch a
/// socket API directly.
pub const IO_CRATES: [&str; 4] = ["delphi", "delphi-api", "delphi-net", "delphi-bench"];

/// The single home of the reserved wire marker `0xFFFE`.
pub const WIRE_CONSTANT_HOME: &str = "crates/net/src/frame.rs";

/// The `lint-baseline.toml` section holding per-crate production-line
/// ceilings (a ceiling, not a violation count: see
/// [`Baseline::over_ceiling`](crate::Baseline::over_ceiling)).
pub const LINE_BUDGET_RULE: &str = "production-lines";

/// The library crates whose production lines the roadmap tracks as a
/// metric: every one but this tool's. A crate's binaries (`src/bin/`) are
/// not library lines and do not count.
pub const LINE_BUDGET_CRATES: [&str; 11] = [
    "crates/api",
    "crates/baselines",
    "crates/bench",
    "crates/core",
    "crates/crypto",
    "crates/dora",
    "crates/net",
    "crates/primitives",
    "crates/sim",
    "crates/stats",
    "crates/workloads",
];

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Runs every rule over the workspace.
pub fn check(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();
    check_layering(ws, &mut out);
    for file in &ws.files {
        if file.is_crate_root {
            check_forbid_unsafe(file, &mut out);
        }
        check_no_panic(file, &mut out);
        check_bounded_channel(file, &mut out);
        check_wire_constants(file, &mut out);
    }
    check_bench_json(ws, &mut out);
    out.sort_by(|a, b| {
        let ra = RULES.iter().position(|r| *r == a.rule);
        let rb = RULES.iter().position(|r| *r == b.rule);
        ra.cmp(&rb).then_with(|| a.file.cmp(&b.file)).then_with(|| a.line.cmp(&b.line))
    });
    out
}

/// Production lines of each [`LINE_BUDGET_CRATES`] member: over every
/// file under its `src/` but outside `src/bin/`, the lines outside
/// top-level test-only items ([`LexedFile::production_lines`]).
pub fn production_lines(ws: &Workspace) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for dir in LINE_BUDGET_CRATES {
        let (src, bin) = (format!("{dir}/src/"), format!("{dir}/src/bin/"));
        let lines = ws.files.iter().filter(|f| f.rel.starts_with(&src) && !f.rel.starts_with(&bin));
        totals.insert(
            dir.to_string(),
            lines.map(|f| u64::from(f.lexed.production_lines())).sum::<u64>(),
        );
    }
    totals
}

/// Live (non-test) tokens of a file.
fn live(file: &SourceFile) -> impl Iterator<Item = (usize, &Token)> {
    file.lexed.tokens.iter().enumerate().filter(|(_, t)| !t.test_code)
}

fn tok_at(lexed: &LexedFile, i: usize) -> Option<&Token> {
    lexed.tokens.get(i)
}

fn is_punct(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(t: Option<&Token>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn push_unless_allowed(
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
    out: &mut Vec<Violation>,
) {
    if !file.lexed.allowed_at(rule, line) {
        out.push(Violation { rule, file: file.rel.clone(), line, message });
    }
}

/// `layering`: sans-io crates must not depend on tokio (manifest level)
/// nor name `tokio` / `std::net` in live code (source level).
fn check_layering(ws: &Workspace, out: &mut Vec<Violation>) {
    for krate in &ws.crates {
        if IO_CRATES.contains(&krate.name.as_str()) {
            continue;
        }
        for (dep, line) in &krate.manifest.deps {
            if dep == "tokio" {
                out.push(Violation {
                    rule: "layering",
                    file: krate.manifest_rel.clone(),
                    line: *line,
                    message: format!(
                        "sans-io crate `{}` depends on tokio; only {} may",
                        krate.name,
                        IO_CRATES.join("/"),
                    ),
                });
            }
        }
    }
    for file in &ws.files {
        if IO_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (i, t) in live(file) {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let next = tok_at(&file.lexed, i + 1);
            let next2 = tok_at(&file.lexed, i + 2);
            let prev = i.checked_sub(1).and_then(|p| tok_at(&file.lexed, p));
            let offending = match t.text.as_str() {
                // `tokio::…` anywhere, or `use tokio` even without a path.
                "tokio" if is_punct(next, ":") || is_ident(prev, "use") => Some("tokio"),
                "std" if is_punct(next, ":") && is_ident(next2, "net") => Some("std::net"),
                _ => None,
            };
            if let Some(what) = offending {
                push_unless_allowed(
                    file,
                    "layering",
                    t.line,
                    format!(
                        "sans-io crate `{}` names `{what}` — io stays in {}",
                        file.crate_name,
                        IO_CRATES.join("/"),
                    ),
                    out,
                );
            }
        }
    }
}

/// `forbid-unsafe`: every compilation root carries
/// `#![forbid(unsafe_code)]` (possibly among other forbidden lints).
fn check_forbid_unsafe(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokenKind::Punct && t.text == "#") {
            continue;
        }
        if !(is_punct(tok_at(&file.lexed, i + 1), "!")
            && is_punct(tok_at(&file.lexed, i + 2), "[")
            && is_ident(tok_at(&file.lexed, i + 3), "forbid")
            && is_punct(tok_at(&file.lexed, i + 4), "("))
        {
            continue;
        }
        // Scan the forbid(...) argument list for `unsafe_code`.
        for t in toks.iter().skip(i + 5) {
            match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, "unsafe_code") => return,
                (TokenKind::Punct, ")") => break,
                _ => {}
            }
        }
    }
    out.push(Violation {
        rule: "forbid-unsafe",
        file: file.rel.clone(),
        line: 1,
        message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
    });
}

/// Keywords that introduce array literals, patterns or slice types rather
/// than index expressions when an `[` follows them.
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "return", "break", "continue", "in", "else", "match", "loop", "while", "if", "let", "move",
    "as", "where", "mut",
];

/// `no-panic`: `.unwrap()` / `.expect()` (and `_err` variants), panicking
/// macros, and slice indexing in live code require an allow annotation.
fn check_no_panic(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, t) in live(file) {
        let prev = i.checked_sub(1).and_then(|p| tok_at(&file.lexed, p));
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, m @ ("unwrap" | "expect" | "unwrap_err" | "expect_err"))
                if is_punct(prev, ".") =>
            {
                push_unless_allowed(
                    file,
                    "no-panic",
                    t.line,
                    format!("`.{m}()` can panic an honest node"),
                    out,
                );
            }
            (TokenKind::Ident, m @ ("panic" | "todo" | "unimplemented" | "unreachable"))
                if is_punct(tok_at(&file.lexed, i + 1), "!") =>
            {
                push_unless_allowed(
                    file,
                    "no-panic",
                    t.line,
                    format!("`{m}!` aborts an honest node"),
                    out,
                );
            }
            (TokenKind::Punct, "[") => {
                let indexes_value = match prev {
                    Some(p) => match p.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                        TokenKind::Punct => p.text == ")" || p.text == "]",
                        // `&'a [T]`: a slice type behind a lifetime.
                        TokenKind::Number | TokenKind::Lifetime => false,
                    },
                    None => false,
                };
                // `[..]` (full range) never panics.
                let full_range = is_punct(tok_at(&file.lexed, i + 1), ".")
                    && is_punct(tok_at(&file.lexed, i + 2), ".")
                    && is_punct(tok_at(&file.lexed, i + 3), "]");
                if indexes_value && !full_range {
                    push_unless_allowed(
                        file,
                        "no-panic",
                        t.line,
                        "slice/array index can panic on out-of-bounds".to_string(),
                        out,
                    );
                }
            }
            _ => {}
        }
    }
}

/// `bounded-channel`: every queue must have a capacity. Flags
/// `unbounded_channel()` and zero-argument `channel()` constructors.
fn check_bounded_channel(file: &SourceFile, out: &mut Vec<Violation>) {
    for (i, t) in live(file) {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let message = match t.text.as_str() {
            "unbounded_channel" => {
                "unbounded channel: a slow or Byzantine peer can \
                                    inflate memory without limit"
            }
            "channel"
                if is_punct(tok_at(&file.lexed, i + 1), "(")
                    && is_punct(tok_at(&file.lexed, i + 2), ")") =>
            {
                "capacity-free channel(): use a bounded queue"
            }
            _ => continue,
        };
        push_unless_allowed(file, "bounded-channel", t.line, message.to_string(), out);
    }
}

/// `wire-constants`: the reserved frame marker `0xFFFE` is defined once,
/// in [`WIRE_CONSTANT_HOME`]; everywhere else must name the
/// `EPOCH_MARKER` constant.
fn check_wire_constants(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel == WIRE_CONSTANT_HOME {
        return;
    }
    for (_, t) in live(file) {
        // lint: allow(wire-constants) — this IS the checker for the marker
        if t.kind == TokenKind::Number && t.value == Some(0xFFFE) {
            push_unless_allowed(
                file,
                "wire-constants",
                t.line,
                format!(
                    "wire marker literal `{}`: name EPOCH_MARKER from {}",
                    t.text, WIRE_CONSTANT_HOME,
                ),
                out,
            );
        }
    }
}

/// `bench-json`: every benchmark binary that emits `BENCH_*.json` records
/// (calls `emit_bench_json`) must be exercised — and thereby gated by
/// `bench-gate` — in the CI workflow.
fn check_bench_json(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if !file.rel.starts_with("crates/bench/src/bin/") {
            continue;
        }
        let emits = live(file).any(|(_, t)| is_ident(Some(t), "emit_bench_json"));
        if !emits {
            continue;
        }
        let stem =
            file.rel.rsplit('/').next().and_then(|f| f.strip_suffix(".rs")).unwrap_or(&file.rel);
        let registered = ws.ci_text.as_deref().is_some_and(|ci| ci.contains(stem));
        if !registered {
            out.push(Violation {
                rule: "bench-json",
                file: file.rel.clone(),
                line: 1,
                message: format!(
                    "`{stem}` emits BENCH_*.json but is not run (and gated) in \
                     .github/workflows/ci.yml",
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn file_of(rel: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            is_crate_root: false,
            lexed: lexer::lex(src),
        }
    }

    #[test]
    fn no_panic_flags_and_allows() {
        let file = file_of(
            "crates/core/src/x.rs",
            "delphi-core",
            "
            fn f(v: Vec<u8>) {
                v.first().unwrap();
                // lint: allow(no-panic) — length checked on entry
                v.last().expect(\"checked\");
                let x = v[0];
                let all = &v[..];
                let arr = [0u8; 4];
            }
            ",
        );
        let mut out = Vec::new();
        check_no_panic(&file, &mut out);
        let lines: Vec<u32> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, [3, 6], "unwrap and index flagged; allowed expect, [..], [0u8;4] not");
    }

    #[test]
    fn no_panic_reads_a_bracket_after_a_lifetime_or_mut_as_a_type() {
        let file = file_of(
            "crates/core/src/x.rs",
            "delphi-core",
            "
            struct View<'a> { ids: &'a [i64], sets: &'a mut [u64] }
            fn f<'a>(v: &'a [u8], w: &mut [u8], a: &'static [u8; 4]) -> &'a [u8] {
                let first = a[0];
                'scan: loop { break 'scan [0u8; 2] };
                v
            }
            ",
        );
        let mut out = Vec::new();
        check_no_panic(&file, &mut out);
        let lines: Vec<u32> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, [4], "only the index expression: {out:#?}");
    }

    #[test]
    fn bounded_channel_flags_unbounded() {
        let file = file_of(
            "crates/net/src/y.rs",
            "delphi-net",
            "fn f() { let (a, b) = mpsc::unbounded_channel(); let c = mpsc::channel(16); }",
        );
        let mut out = Vec::new();
        check_bounded_channel(&file, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn wire_constants_flag_everywhere_but_home() {
        let away = file_of("crates/sim/src/z.rs", "delphi-sim", "const M: u16 = 0xFFFE;");
        let home = file_of(WIRE_CONSTANT_HOME, "delphi-net", "const M: u16 = 0xFFFE;");
        let mut out = Vec::new();
        check_wire_constants(&away, &mut out);
        check_wire_constants(&home, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out.first().map(|v| v.file.as_str()), Some("crates/sim/src/z.rs"));
    }

    #[test]
    fn production_lines_skip_only_top_level_test_items() {
        let src = "//! doc\nfn live() {}\nimpl X {\n    #[cfg(test)]\n    fn probe() {}\n}\n\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let with_tests = file_of("crates/net/src/a.rs", "delphi-net", src);
        assert_eq!(with_tests.lexed.production_lines(), 7, "the in-impl test helper counts");
        // Live code after a top-level test item counts again, and so does
        // a line that carries live code beside test code.
        let between = "fn a() {}\n#[cfg(test)]\nimpl A {\n    fn t() {}\n}\nfn b() {}\n\
                       #[cfg(test)] fn c() {} fn d() {}\n";
        let between = file_of("crates/net/src/d.rs", "delphi-net", between);
        assert_eq!(between.lexed.production_lines(), 7 - 4);
        let without = file_of("crates/net/src/b.rs", "delphi-net", "fn live() {}\n\n// tail\n");
        assert_eq!(without.lexed.production_lines(), 3);
        let elsewhere = file_of("crates/lint/src/c.rs", "delphi-lint", "fn live() {}\n");
        let lib = file_of("crates/bench/src/lib.rs", "delphi-bench", "fn live() {}\n");
        let bin = file_of("crates/bench/src/bin/e.rs", "delphi-bench", "fn main() {}\n");
        let ws = Workspace {
            crates: Vec::new(),
            files: vec![with_tests, without, elsewhere, lib, bin],
            ci_text: None,
        };
        let totals = production_lines(&ws);
        assert_eq!(totals.get("crates/net"), Some(&10));
        assert_eq!(totals.get("crates/bench"), Some(&1), "a crate's binaries are not its library");
        assert_eq!(totals.get("crates/core"), Some(&0), "tracked crates always report");
        assert_eq!(totals.len(), LINE_BUDGET_CRATES.len(), "untracked crates never do");
    }

    #[test]
    fn forbid_unsafe_accepts_multi_lint_forbid() {
        let mut root = file_of(
            "crates/core/src/lib.rs",
            "delphi-core",
            "#![forbid(unsafe_code, missing_docs)]\npub fn f() {}",
        );
        root.is_crate_root = true;
        let mut out = Vec::new();
        check_forbid_unsafe(&root, &mut out);
        assert!(out.is_empty());

        let mut bare = file_of("crates/core/src/lib.rs", "delphi-core", "pub fn f() {}");
        bare.is_crate_root = true;
        check_forbid_unsafe(&bare, &mut out);
        assert_eq!(out.len(), 1);
    }
}
