//! The baseline ratchet: existing violations are frozen per
//! `(rule, file)` in `lint-baseline.toml`; the checker fails on any new
//! violation (count above baseline) and on any stale entry (count below
//! baseline, which must be re-frozen with `--write-baseline`), so debt
//! can only burn down — never regrow, not even back up to an old count.
//!
//! The `[production-lines]` section is the other ratchet: a per-crate
//! *ceiling* on production lines. A crate above its ceiling fails; one
//! below it passes without re-freezing, and a re-freeze only ever moves a
//! ceiling down.

use std::collections::BTreeMap;

use crate::rules::{Violation, LINE_BUDGET_RULE};

/// Frozen violation counts, keyed `(rule, file)` — and, under
/// [`LINE_BUDGET_RULE`], production-line ceilings keyed by crate directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String), u64>,
}

/// One ratchet discrepancy between the current run and the baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Drift {
    /// The rule involved.
    pub rule: String,
    /// The file involved.
    pub file: String,
    /// Frozen count.
    pub baseline: u64,
    /// Current count.
    pub current: u64,
}

/// The ratchet verdict for one run.
#[derive(Clone, Debug, Default)]
pub struct Ratchet {
    /// Entries whose count grew (or appeared): each is a hard failure.
    pub grown: Vec<Drift>,
    /// Entries whose count shrank or vanished: the baseline is stale and
    /// must be re-frozen so the lower count becomes the new ceiling.
    pub stale: Vec<Drift>,
}

impl Ratchet {
    /// Whether the run holds the ratchet (nothing grew, nothing stale).
    pub fn clean(&self) -> bool {
        self.grown.is_empty() && self.stale.is_empty()
    }
}

impl Baseline {
    /// Builds a baseline freezing the given violations.
    pub fn freeze(violations: &[Violation]) -> Baseline {
        let mut counts = BTreeMap::new();
        for v in violations {
            *counts.entry((v.rule.to_string(), v.file.clone())).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Frozen count for `(rule, file)`.
    pub fn count(&self, rule: &str, file: &str) -> u64 {
        self.counts.get(&(rule.to_string(), file.to_string())).copied().unwrap_or(0)
    }

    /// Total frozen violations.
    pub fn total(&self) -> u64 {
        self.counts.iter().filter(|((rule, _), _)| rule != LINE_BUDGET_RULE).map(|(_, c)| c).sum()
    }

    /// This baseline with a production-line ceiling per crate of `lines`:
    /// the crate's current figure, or `previous`'s ceiling where that is
    /// lower — ceilings only move down.
    pub fn with_ceilings(mut self, previous: &Baseline, lines: &BTreeMap<String, u64>) -> Baseline {
        for (dir, &current) in lines {
            let key = (LINE_BUDGET_RULE.to_string(), dir.clone());
            let ceiling = previous.counts.get(&key).map_or(current, |&old| old.min(current));
            self.counts.insert(key, ceiling);
        }
        self
    }

    /// The crates of `lines` above their production-line ceiling (a crate
    /// without one has nothing to exceed).
    pub fn over_ceiling(&self, lines: &BTreeMap<String, u64>) -> Vec<Drift> {
        let over = lines.iter().filter_map(|(dir, &current)| {
            let baseline = *self.counts.get(&(LINE_BUDGET_RULE.to_string(), dir.clone()))?;
            (current > baseline).then(|| Drift {
                rule: LINE_BUDGET_RULE.to_string(),
                file: dir.clone(),
                baseline,
                current,
            })
        });
        over.collect()
    }

    /// Compares the current violations against this baseline.
    pub fn compare(&self, violations: &[Violation]) -> Ratchet {
        let current = Baseline::freeze(violations);
        let mut ratchet = Ratchet::default();
        for ((rule, file), &cur) in &current.counts {
            let base = self.count(rule, file);
            if cur > base {
                ratchet.grown.push(Drift {
                    rule: rule.clone(),
                    file: file.clone(),
                    baseline: base,
                    current: cur,
                });
            }
        }
        for ((rule, file), &base) in &self.counts {
            let cur = current.count(rule, file);
            if cur < base && rule != LINE_BUDGET_RULE {
                ratchet.stale.push(Drift {
                    rule: rule.clone(),
                    file: file.clone(),
                    baseline: base,
                    current: cur,
                });
            }
        }
        ratchet
    }

    /// Renders the TOML document (`[rule]` sections, quoted file keys).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# delphi-lint baseline — frozen per-file violation counts.\n\
             # Regenerate with `cargo run -p delphi-lint -- --write-baseline`.\n\
             # The CI ratchet fails when any count grows OR shrinks without\n\
             # re-freezing: debt only burns down. [production-lines] holds\n\
             # per-crate ceilings instead: exceeding one fails, and a\n\
             # re-freeze only moves it down.\n",
        );
        let mut last_rule = "";
        for ((rule, file), count) in &self.counts {
            if rule != last_rule {
                out.push_str(&format!("\n[{rule}]\n"));
                last_rule = rule;
            }
            out.push_str(&format!("\"{file}\" = {count}\n"));
        }
        out
    }

    /// Parses a baseline document (the same TOML subset [`render`]
    /// emits: `[rule]` sections, `"file" = count` lines, `#` comments).
    ///
    /// # Errors
    ///
    /// Returns a line-tagged description for malformed entries.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        let mut rule = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                rule = header.trim_end_matches(']').trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("baseline line {}: expected `\"file\" = count`", i + 1));
            };
            if rule.is_empty() {
                return Err(format!("baseline line {}: entry before any [rule] section", i + 1));
            }
            let file = key.trim().trim_matches('"').to_string();
            let count: u64 = value
                .trim()
                .parse()
                .map_err(|e| format!("baseline line {}: bad count: {e}", i + 1))?;
            counts.insert((rule.clone(), file), count);
        }
        Ok(Baseline { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn viol(rule: &'static str, file: &str) -> Violation {
        Violation { rule, file: file.to_string(), line: 1, message: String::new() }
    }

    #[test]
    fn render_parse_round_trip() {
        let base = Baseline::freeze(&[
            viol("no-panic", "a.rs"),
            viol("no-panic", "a.rs"),
            viol("bounded-channel", "b.rs"),
        ]);
        let parsed = Baseline::parse(&base.render()).expect("round-trips");
        assert_eq!(parsed, base);
        assert_eq!(parsed.total(), 3);
    }

    #[test]
    fn ratchet_fails_growth_and_stale_but_not_steady() {
        let base = Baseline::freeze(&[viol("no-panic", "a.rs"), viol("no-panic", "a.rs")]);
        assert!(base.compare(&[viol("no-panic", "a.rs"), viol("no-panic", "a.rs")]).clean());

        let grown = base.compare(&[
            viol("no-panic", "a.rs"),
            viol("no-panic", "a.rs"),
            viol("no-panic", "a.rs"),
        ]);
        assert_eq!(grown.grown.len(), 1);
        assert!(grown.stale.is_empty());

        let stale = base.compare(&[viol("no-panic", "a.rs")]);
        assert!(stale.grown.is_empty());
        assert_eq!(stale.stale.len(), 1);

        // A brand-new (rule, file) pair is growth from zero.
        let fresh = base.compare(&[
            viol("no-panic", "a.rs"),
            viol("no-panic", "a.rs"),
            viol("layering", "c.rs"),
        ]);
        assert_eq!(fresh.grown.len(), 1);
        assert_eq!(fresh.grown.first().map(|d| d.baseline), Some(0));
    }

    #[test]
    fn line_ceilings_fail_above_pass_below_and_only_move_down() {
        let lines = |net: u64| BTreeMap::from([("crates/net".to_string(), net)]);
        let base = Baseline::freeze(&[viol("no-panic", "a.rs")])
            .with_ceilings(&Baseline::default(), &lines(2900));
        assert_eq!(Baseline::parse(&base.render()).expect("round-trips"), base);
        assert_eq!(base.total(), 1, "a ceiling is not a violation count");
        // Steady or below: nothing over, and nothing stale to re-freeze.
        assert!(base.over_ceiling(&lines(2900)).is_empty());
        assert!(base.over_ceiling(&lines(2500)).is_empty());
        assert!(base.compare(&[viol("no-panic", "a.rs")]).clean());
        // Above: a hard failure naming the crate.
        let over = base.over_ceiling(&lines(2901));
        assert_eq!(over.first().map(|d| (d.file.as_str(), d.baseline)), Some(("crates/net", 2900)));
        // Re-freezing ratchets down, never up; an untracked crate passes.
        assert_eq!(
            Baseline::default().with_ceilings(&base, &lines(2500)).over_ceiling(&lines(2501)).len(),
            1
        );
        assert!(Baseline::default()
            .with_ceilings(&base, &lines(3000))
            .over_ceiling(&lines(2900))
            .is_empty());
        assert_eq!(
            Baseline::default().with_ceilings(&base, &lines(3000)).over_ceiling(&lines(2901)).len(),
            1
        );
        assert!(Baseline::default().over_ceiling(&lines(9999)).is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Baseline::parse("\"orphan.rs\" = 3").is_err());
        assert!(Baseline::parse("[no-panic]\n\"a.rs\" = many").is_err());
    }
}
