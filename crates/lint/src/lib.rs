#![forbid(unsafe_code)]
//! `delphi-lint`: the workspace invariant checker.
//!
//! The compiler cannot check the invariants Delphi's correctness
//! arguments lean on, so this crate does:
//!
//! - **sans-io layering** — protocol crates never touch `tokio` /
//!   `std::net`, so "sim bytes == TCP bytes" holds by construction;
//! - **panic-freedom** — an honest node that panics is a crash fault
//!   that silently spends the `t < n/3` budget the liveness proof needs;
//! - **bounded queues** — a Byzantine peer must never be able to inflate
//!   memory through a capacity-free queue;
//! - **wire-constant hygiene** — the reserved frame marker lives in one
//!   place;
//! - **bench-gate discipline** — every `BENCH_*.json` emitter is gated in
//!   CI;
//! - **production-line ceilings** — the protocol, primitives and net
//!   crates may shrink but not grow past their recorded size.
//!
//! Violations are either fixed, annotated
//! (`// lint: allow(<rule>) — <reason>`), or frozen in
//! `lint-baseline.toml`; the baseline is a ratchet — counts may only go
//! down, and a shrink must be re-frozen so it becomes the new ceiling.
//!
//! The tool is dependency-free (no crates.io access in this environment):
//! the lexer, manifest reader, and baseline format are hand-rolled, like
//! the vendored stubs under `vendor/`.

pub mod baseline;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod workspace;

use std::collections::BTreeMap;
use std::path::Path;

pub use baseline::{Baseline, Ratchet};
pub use rules::Violation;

/// The result of linting a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Every violation found (baselined ones included).
    pub violations: Vec<Violation>,
    /// Production lines per tracked crate directory
    /// ([`rules::LINE_BUDGET_CRATES`]).
    pub production_lines: BTreeMap<String, u64>,
    /// The ratchet verdict against the provided baseline (a crate over
    /// its production-line ceiling counts as grown).
    pub ratchet: Ratchet,
}

/// Lints the workspace at `root` against `baseline`.
///
/// # Errors
///
/// Returns a description when the workspace cannot be read.
pub fn run(root: &Path, baseline: &Baseline) -> Result<LintReport, String> {
    let ws = workspace::load(root)?;
    let violations = rules::check(&ws);
    let production_lines = rules::production_lines(&ws);
    let mut ratchet = baseline.compare(&violations);
    ratchet.grown.extend(baseline.over_ceiling(&production_lines));
    Ok(LintReport { violations, production_lines, ratchet })
}
