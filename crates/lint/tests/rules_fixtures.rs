//! Seeded-violation and false-positive fixtures for every rule.
//!
//! Each fixture builds an in-memory [`Workspace`] (the same structures
//! `workspace::load` produces from disk) so the full `rules::check`
//! pipeline runs — sorting, allow-annotations, and manifest rules
//! included — without touching the real repository.

use delphi_lint::lexer;
use delphi_lint::manifest;
use delphi_lint::rules::{check, Violation, RULES};
use delphi_lint::workspace::{CrateInfo, SourceFile, Workspace};

fn source(rel: &str, crate_name: &str, src: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        crate_name: crate_name.to_string(),
        is_crate_root: rel.ends_with("lib.rs")
            || rel.ends_with("main.rs")
            || rel.contains("/bin/")
            || rel.starts_with("examples/"),
        lexed: lexer::lex(src),
    }
}

fn member(name: &str, manifest_text: &str) -> CrateInfo {
    CrateInfo {
        name: name.to_string(),
        manifest_rel: format!("crates/{}/Cargo.toml", name.trim_start_matches("delphi-")),
        manifest: manifest::parse(manifest_text),
    }
}

fn workspace(crates: Vec<CrateInfo>, files: Vec<SourceFile>, ci: Option<&str>) -> Workspace {
    Workspace { crates, files, ci_text: ci.map(str::to_string) }
}

fn rules_hit(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn every_rule_catches_its_seeded_violation() {
    // One deliberate violation per rule, all in one workspace.
    let ws = workspace(
        vec![
            // layering (manifest level): a sans-io crate depending on tokio.
            member(
                "delphi-core",
                "[package]\nname = \"delphi-core\"\n[dependencies]\ntokio = { workspace = true }\n",
            ),
            member("delphi-bench", "[package]\nname = \"delphi-bench\"\n"),
        ],
        vec![
            // layering (source level): a sans-io crate naming tokio::spawn.
            source("crates/core/src/io.rs", "delphi-core", "fn f() { tokio::spawn(async {}); }\n"),
            // forbid-unsafe: a crate root without the attribute.
            source("crates/core/src/lib.rs", "delphi-core", "pub fn f() {}\n"),
            // no-panic: unwrap in live code.
            source(
                "crates/core/src/panicky.rs",
                "delphi-core",
                "fn f(v: Vec<u8>) { v.first().unwrap(); }\n",
            ),
            // bounded-channel: an unbounded queue.
            source(
                "crates/core/src/chan.rs",
                "delphi-core",
                "fn f() { let (tx, rx) = mpsc::unbounded_channel::<u8>(); }\n",
            ),
            // wire-constants: a reserved marker literal away from home.
            source("crates/core/src/wire.rs", "delphi-core", "const MARKER: u16 = 0xFFFE;\n"),
            // bench-json: an emitting bench bin absent from the CI text.
            source(
                "crates/bench/src/bin/fig_new.rs",
                "delphi-bench",
                "#![forbid(unsafe_code)]\nfn main() { emit_bench_json(\"BENCH_new.json\"); }\n",
            ),
        ],
        Some("jobs:\n  bench-gate:\n    run: cargo run --bin fig_other\n"),
    );
    let violations = check(&ws);
    assert_eq!(
        rules_hit(&violations),
        RULES.to_vec(),
        "each seeded violation must be caught, reported in rule order: {violations:#?}",
    );
    // The manifest-level and source-level layering findings are distinct.
    let layering: Vec<&str> =
        violations.iter().filter(|v| v.rule == "layering").map(|v| v.file.as_str()).collect();
    assert_eq!(layering, ["crates/core/Cargo.toml", "crates/core/src/io.rs"]);
}

#[test]
fn clean_workspace_produces_no_violations() {
    let ws = workspace(
        vec![
            member("delphi-core", "[package]\nname = \"delphi-core\"\n[dependencies]\nbytes = { workspace = true }\n"),
            member("delphi-net", "[package]\nname = \"delphi-net\"\n[dependencies]\ntokio = { workspace = true }\n"),
        ],
        vec![
            source(
                "crates/core/src/lib.rs",
                "delphi-core",
                "#![forbid(unsafe_code)]\npub fn f(v: &[u8]) -> Option<&u8> { v.first() }\n",
            ),
            source(
                "crates/net/src/lib.rs",
                "delphi-net",
                "#![forbid(unsafe_code)]\nfn f() { let (tx, rx) = tokio::sync::mpsc::channel::<u8>(64); }\n",
            ),
        ],
        Some("jobs: {}\n"),
    );
    assert_eq!(check(&ws), Vec::new());
}

#[test]
fn dev_dependency_on_tokio_is_not_a_layering_violation() {
    // Sans-io crates may use tokio in tests (dev-dependencies); only a
    // real [dependencies] edge breaks the layering.
    let ws = workspace(
        vec![member(
            "delphi-core",
            "[package]\nname = \"delphi-core\"\n[dev-dependencies]\ntokio = { workspace = true }\n",
        )],
        vec![source("crates/core/src/lib.rs", "delphi-core", "#![forbid(unsafe_code)]\n")],
        None,
    );
    assert_eq!(check(&ws), Vec::new());
}

#[test]
fn comments_strings_and_test_code_do_not_trip_rules() {
    // Every panicking / io / marker construct below sits in a comment, a
    // string literal, a raw string, or #[cfg(test)] code: none may fire.
    let src = r####"#![forbid(unsafe_code)]
// tokio::spawn in a comment; v.unwrap() too; 0xFFFF as well
/* block comment: unbounded_channel();
   nested /* panic!("no") */ still comment */
const DOC: &str = "tokio::net::TcpStream, .unwrap(), 0xFFFF";
const RAW: &str = r#"mpsc::unbounded_channel(); v[0]; panic!("quoted")"#;

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let v: Vec<u8> = vec![1];
        v.first().unwrap();
        let _ = v[0];
        let (tx, rx) = tokio::sync::mpsc::unbounded_channel::<u8>();
        assert_eq!(0xFFFFu16, 0xFFFF);
    }
}
"####;
    let ws = workspace(
        vec![member("delphi-core", "[package]\nname = \"delphi-core\"\n")],
        vec![source("crates/core/src/lib.rs", "delphi-core", src)],
        None,
    );
    assert_eq!(check(&ws), Vec::new());
}

#[test]
fn slice_types_behind_lifetimes_are_not_index_expressions() {
    // `&'a [T]` and `&mut [T]` open a type; `run[0]` indexes.
    let src = "#![forbid(unsafe_code)]
pub struct Runs<'a> {
    pub ids: &'a [i64],
    pub values: &'a mut [u64],
}
pub fn first<'a>(run: &'a [i64]) -> (&'a [i64], i64) {
    (run, run[0])
}
";
    let ws = workspace(
        vec![member("delphi-core", "[package]\nname = \"delphi-core\"\n")],
        vec![source("crates/core/src/lib.rs", "delphi-core", src)],
        None,
    );
    let violations = check(&ws);
    let lines: Vec<u32> = violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, [7], "only `run[0]` can panic: {violations:#?}");
}

#[test]
fn allow_annotation_needs_a_reason_and_adjacency() {
    let src = "#![forbid(unsafe_code)]
fn f(v: Vec<u8>) {
    // lint: allow(no-panic) — bounds checked by caller contract
    v.first().unwrap();
    // lint: allow(no-panic)
    v.last().unwrap();
    // lint: allow(no-panic) — too far away from its line

    v.first().unwrap();
}
";
    let ws = workspace(
        vec![member("delphi-core", "[package]\nname = \"delphi-core\"\n")],
        vec![source("crates/core/src/lib.rs", "delphi-core", src)],
        None,
    );
    let violations = check(&ws);
    let lines: Vec<u32> = violations.iter().map(|v| v.line).collect();
    assert_eq!(
        lines,
        [6, 9],
        "reason-less (line 5) and non-adjacent (line 7) annotations are inert: {violations:#?}",
    );
}

#[test]
fn wire_constants_allowed_at_home_and_via_annotation() {
    let ws = workspace(
        vec![member("delphi-net", "[package]\nname = \"delphi-net\"\n")],
        vec![
            // The canonical definition site is exempt wholesale.
            source(
                "crates/net/src/frame.rs",
                "delphi-net",
                "pub const EPOCH_MARKER: u16 = 0xFFFE;\n",
            ),
            // Elsewhere an annotated use passes, an unannotated one fails.
            source(
                "crates/net/src/elsewhere.rs",
                "delphi-net",
                "// lint: allow(wire-constants) — golden-bytes fixture\nconst A: u16 = 0xFFFE;\nconst B: u16 = 0xFFFE;\n",
            ),
        ],
        None,
    );
    let violations = check(&ws);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].line, 3);
}

#[test]
fn bench_json_rule_requires_ci_registration() {
    let emitting = "#![forbid(unsafe_code)]\nfn main() { emit_bench_json(\"BENCH_x.json\"); }\n";
    let silent = "#![forbid(unsafe_code)]\nfn main() { println!(\"no json here\"); }\n";
    let files = |ci: Option<&str>| {
        workspace(
            vec![member("delphi-bench", "[package]\nname = \"delphi-bench\"\n")],
            vec![
                source("crates/bench/src/bin/fig_x.rs", "delphi-bench", emitting),
                source("crates/bench/src/bin/helper.rs", "delphi-bench", silent),
            ],
            ci,
        )
    };
    // Registered in CI: clean. Unregistered (or no CI file): flagged —
    // but only the emitting bin, never the silent helper.
    assert_eq!(check(&files(Some("run: cargo run --bin fig_x\n"))), Vec::new());
    for ws in [files(Some("jobs: {}\n")), files(None)] {
        let violations = check(&ws);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].file, "crates/bench/src/bin/fig_x.rs");
        assert_eq!(violations[0].rule, "bench-json");
    }
}

#[test]
fn production_lines_count_live_code_after_a_test_only_impl() {
    // A test-only `impl` between two live items, the shape of a decoder
    // file whose test oracles sit beside the arena: the live code after
    // the impl is production, the impl (from its attribute to its closing
    // brace) and the trailing test module are not — a count that stopped
    // at the first test item would miss the `Collector` lines.
    let src = "pub struct Arena;

/// Test oracles' view of the arena.
#[cfg(test)]
impl Arena {
    fn probe(&self) {}
}

pub struct Collector;
impl Collector {
    pub fn flush(&self) {}
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
    let file = source("crates/core/src/bundle.rs", "delphi-core", src);
    assert_eq!(file.lexed.lines, 18);
    assert_eq!(file.lexed.production_lines(), 18 - 4 - 5);
    let ws = workspace(Vec::new(), vec![file], None);
    let totals = delphi_lint::rules::production_lines(&ws);
    assert_eq!(totals.get("crates/core"), Some(&9));
}
