//! Multi-process cluster harness: spawn one OS process per node, collect
//! per-node results over stdout JSON.
//!
//! The deployment contract is deliberately small (the workspace ships
//! `delphi-node` in `delphi-bench`, and the launcher runs the one of its
//! own build):
//!
//! - the launcher starts one process per `[[node]]` entry of a
//!   [`ClusterConfig`](crate::config::ClusterConfig), handing every
//!   process the same config file and its own `--id`;
//! - each process runs its protocol node over real sockets and, on
//!   success, prints exactly one [`NodeReport`] JSON line on stdout;
//! - the launcher parses the reports and sums transport stats; judging
//!   the agreements against the nodes' inputs is the protocol binding's
//!   job (`delphi-bench`'s `judge_cluster`), since only it knows the
//!   inputs.
//!
//! JSON here is the fixed flat schema below, hand-rolled because the
//! environment has no serde; `stats` lists every [`NetStats`] counter in
//! declaration order:
//!
//! ```json
//! {"id":0,"elapsed_ms":412.7,"agreements":[[0,0,40013.5],[0,1,2000.25]],"threads":9,
//!  "ctxt_switches_per_agreement":14.5,"stats":{"sent_frames":54,"sent_bytes":21862,
//!  "body_hashes":18,"sent_tags":54,"sent_entries":162,"sent_head_bytes":486,"recv_frames":162,
//!  "recv_entries":486,"dropped_frames":0,"dropped_egress":0,"late_entries":0,"mac_ops":216,
//!  "buffer_reuses":40}}
//! ```

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use delphi_primitives::{json_f64, CounterGroup};

use crate::transport::NetStats;

/// One node process's result, as printed on its stdout.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// The node's id within the cluster.
    pub id: u16,
    /// Wall-clock milliseconds from process start of the run to its last
    /// agreement.
    pub elapsed_ms: f64,
    /// The stream's agreements as `(epoch, asset, value)` triples.
    pub agreements: Vec<(u32, u16, f64)>,
    /// Threads of the node process when its run completed (0 from a
    /// node that could not read `/proc/self/task`).
    pub threads: u64,
    /// Context switches, voluntary and involuntary, of those threads per
    /// agreement — what the thread hand-offs on the decide path cost.
    pub ctxt_switches_per_agreement: f64,
    /// Transport counters observed by the node.
    pub stats: NetStats,
}

impl NodeReport {
    /// Renders the single-line JSON form the launcher parses: `stats`
    /// holds every [`NetStats`] counter.
    pub fn to_json(&self) -> String {
        let agreements = self
            .agreements
            .iter()
            .map(|(e, a, v)| format!("[{e},{a},{}]", json_f64(*v)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"id\":{},\"elapsed_ms\":{},\"agreements\":[{agreements}],\"threads\":{},\
             \"ctxt_switches_per_agreement\":{},\"stats\":{}}}",
            self.id,
            json_f64(self.elapsed_ms),
            self.threads,
            json_f64(self.ctxt_switches_per_agreement),
            self.stats.to_json(),
        )
    }

    /// Parses the JSON line printed by a node process.
    ///
    /// The parser is schema-bound (flat keys, one nested `stats` object,
    /// one `agreements` triple array) but order-insensitive and tolerant
    /// of whitespace. The text must be one whole `{...}` object, so a
    /// report cut short is refused. Every key
    /// [`to_json`](NodeReport::to_json) writes is required — the launcher
    /// runs the `delphi-node` of its own build — and keys it does not know
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`ClusterError::BadReport`] when the text is not one object or a
    /// key is missing or malformed.
    pub fn parse_json(text: &str) -> Result<NodeReport, ClusterError> {
        let text = text.trim();
        if !is_whole_object(text) {
            return Err(ClusterError::BadReport {
                key: "report".to_string(),
                why: "not one whole JSON object".to_string(),
            });
        }
        let stats = NetStats::names().map(|name| json_number(text, name).map(|v| v as u64));
        Ok(NodeReport {
            id: json_number(text, "id")? as u16,
            elapsed_ms: json_number(text, "elapsed_ms")?,
            agreements: json_triples(text, "agreements")?,
            threads: json_number(text, "threads")? as u64,
            ctxt_switches_per_agreement: json_number(text, "ctxt_switches_per_agreement")?,
            stats: NetStats::from_values(stats.collect::<Result<Vec<_>, _>>()?),
        })
    }
}

/// Whether `text` is one brace-balanced `{...}` object and nothing else.
fn is_whole_object(text: &str) -> bool {
    let mut depth = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '{' => depth += 1,
            _ if depth == 0 => return false,
            '}' if depth == 1 => return i + 1 == text.len(),
            '}' => depth -= 1,
            _ => {}
        }
    }
    false
}

/// The text after `"key":`, leading whitespace trimmed.
fn json_value<'a>(text: &'a str, key: &str) -> Result<&'a str, ClusterError> {
    let bad = |why: &str| ClusterError::BadReport { key: key.to_string(), why: why.to_string() };
    let (_, rest) = text.split_once(&format!("\"{key}\"")).ok_or_else(|| bad("missing"))?;
    rest.trim_start().strip_prefix(':').map(str::trim_start).ok_or_else(|| bad("no colon"))
}

/// Extracts the `[[u32,u16,f64], ...]` triple array following `"key":`
/// (numbers contain no brackets, so each triple ends at its first `]`).
fn json_triples(text: &str, key: &str) -> Result<Vec<(u32, u16, f64)>, ClusterError> {
    let bad = |why: &str| ClusterError::BadReport { key: key.to_string(), why: why.to_string() };
    let mut rest = json_value(text, key)?.strip_prefix('[').ok_or_else(|| bad("no array"))?;
    let mut triples = Vec::new();
    while !rest.trim_start().starts_with(']') {
        let (triple, tail) = rest
            .trim_start()
            .strip_prefix('[')
            .and_then(|r| r.split_once(']'))
            .ok_or_else(|| bad("unterminated array"))?;
        let mut fields = triple.split(',').map(str::trim);
        let mut next =
            |what: &str| fields.next().filter(|f| !f.is_empty()).ok_or_else(|| bad(what));
        let epoch: u32 = next("epoch")?.parse().map_err(|_| bad("epoch not a number"))?;
        let asset: u16 = next("asset")?.parse().map_err(|_| bad("asset not a number"))?;
        let value: f64 = next("value")?.parse().map_err(|_| bad("value not a number"))?;
        triples.push((epoch, asset, value));
        rest = tail.trim_start().strip_prefix(',').unwrap_or(tail);
    }
    Ok(triples)
}

/// Extracts the numeric value following `"key":` anywhere in `text`.
fn json_number(text: &str, key: &str) -> Result<f64, ClusterError> {
    let number = json_value(text, key)?
        .split(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .next()
        .unwrap_or_default();
    number.parse().map_err(|_| ClusterError::BadReport {
        key: key.to_string(),
        why: "not a number".to_string(),
    })
}

/// Everything the launcher observed about one finished cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Per-node reports, sorted by node id.
    pub reports: Vec<NodeReport>,
}

impl ClusterOutcome {
    /// Transport counters summed over all nodes.
    pub fn total_stats(&self) -> NetStats {
        self.reports.iter().map(|r| r.stats).sum()
    }

    /// The slowest node's elapsed time — the cluster-level runtime.
    pub fn max_elapsed_ms(&self) -> f64 {
        self.reports.iter().map(|r| r.elapsed_ms).fold(0.0, f64::max)
    }

    /// The largest node process, in threads.
    pub fn max_threads(&self) -> u64 {
        self.reports.iter().map(|r| r.threads).max().unwrap_or(0)
    }

    /// Context switches per agreement, averaged over the nodes.
    pub fn ctxt_switches_per_agreement(&self) -> f64 {
        let sum: f64 = self.reports.iter().map(|r| r.ctxt_switches_per_agreement).sum();
        sum / self.reports.len().max(1) as f64
    }

    /// Agreements every node reported (the stream length the whole
    /// cluster sustained): the minimum per-node agreement count.
    pub fn agreements(&self) -> u64 {
        self.reports.iter().map(|r| r.agreements.len() as u64).min().unwrap_or(0)
    }
}

/// Cluster-launcher failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClusterError {
    /// The cluster configuration could not be loaded or is invalid.
    Config {
        /// The underlying configuration error.
        why: String,
    },
    /// A node process could not be spawned.
    Spawn {
        /// The node that failed to start.
        id: u16,
        /// The OS error text.
        why: String,
    },
    /// A node process exited unsuccessfully.
    NodeFailed {
        /// The failing node.
        id: u16,
        /// Its exit status (its stderr went to the launcher's own).
        why: String,
    },
    /// A node's stdout did not contain a parsable report line.
    BadReport {
        /// The JSON key (or context) that failed.
        key: String,
        /// What went wrong.
        why: String,
    },
    /// The node binary could not be located.
    BinaryNotFound {
        /// Where the launcher looked.
        searched: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config { why } => write!(f, "cluster config: {why}"),
            ClusterError::Spawn { id, why } => write!(f, "spawning node {id} failed: {why}"),
            ClusterError::NodeFailed { id, why } => write!(f, "node {id} failed: {why}"),
            ClusterError::BadReport { key, why } => {
                write!(f, "malformed node report ({key}: {why})")
            }
            ClusterError::BinaryNotFound { searched } => {
                write!(f, "node binary not found (searched {searched})")
            }
        }
    }
}

impl Error for ClusterError {}

/// Builds the launch command for one node: `binary --config <path> --id
/// <id>` plus `extra_args`, stdout piped for the report, stderr inherited
/// so node diagnostics reach the operator.
pub fn node_command(binary: &Path, config: &Path, id: u16, extra_args: &[String]) -> Command {
    let mut cmd = Command::new(binary);
    cmd.arg("--config")
        .arg(config)
        .arg("--id")
        .arg(id.to_string())
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    cmd
}

/// Spawns one process per command (index = node id), waits for all of
/// them, and parses each stdout into a [`NodeReport`].
///
/// All processes are started before any is waited on, so the mesh can
/// form; a node that exits unsuccessfully fails the whole launch (after
/// every child has been reaped — no zombies).
///
/// # Errors
///
/// [`ClusterError::Spawn`] if a process cannot start (already-started
/// siblings are killed), [`ClusterError::NodeFailed`] on a non-zero exit,
/// [`ClusterError::BadReport`] on unparsable stdout.
pub fn launch(commands: Vec<Command>) -> Result<ClusterOutcome, ClusterError> {
    let mut children: Vec<(u16, Child)> = Vec::with_capacity(commands.len());
    for (i, mut cmd) in commands.into_iter().enumerate() {
        let id = i as u16;
        match cmd.spawn() {
            Ok(child) => children.push((id, child)),
            Err(e) => {
                for (_, mut c) in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(ClusterError::Spawn { id, why: e.to_string() });
            }
        }
    }

    let mut reports = Vec::with_capacity(children.len());
    let mut first_failure: Option<ClusterError> = None;
    for (id, child) in children {
        match child.wait_with_output() {
            Ok(out) if out.status.success() => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                // The report is the last non-empty stdout line, so nodes
                // may log progress lines above it.
                let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
                match NodeReport::parse_json(line) {
                    Ok(r) => reports.push(r),
                    Err(e) => {
                        first_failure.get_or_insert(e);
                    }
                }
            }
            Ok(out) => {
                first_failure
                    .get_or_insert(ClusterError::NodeFailed { id, why: out.status.to_string() });
            }
            Err(e) => {
                first_failure.get_or_insert(ClusterError::NodeFailed { id, why: e.to_string() });
            }
        }
    }
    if let Some(err) = first_failure {
        return Err(err);
    }
    reports.sort_by_key(|r| r.id);
    Ok(ClusterOutcome { reports })
}

/// Locates a sibling binary of the current executable — the standard
/// layout for cargo-built workspaces, where launcher, tests, and node
/// binaries all land under the same `target/<profile>` directory (tests
/// one level deeper, in `deps/`).
///
/// # Errors
///
/// [`ClusterError::BinaryNotFound`] listing the searched paths.
pub fn find_sibling_binary(name: &str) -> Result<PathBuf, ClusterError> {
    let exe = std::env::current_exe()
        .map_err(|e| ClusterError::BinaryNotFound { searched: e.to_string() })?;
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let mut searched = Vec::new();
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let candidate = d.join(&file);
        if candidate.is_file() {
            return Ok(candidate);
        }
        searched.push(candidate.display().to_string());
        dir = d.parent();
    }
    Err(ClusterError::BinaryNotFound { searched: searched.join(", ") })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report of one agreement, `value` on `(epoch 0, asset 0)`.
    fn report(id: u16, value: f64) -> NodeReport {
        NodeReport {
            id,
            elapsed_ms: 12.5,
            agreements: vec![(0, 0, value)],
            threads: 47,
            ctxt_switches_per_agreement: 312.25,
            stats: NetStats {
                sent_frames: 10,
                sent_bytes: 4200,
                sent_entries: 11,
                sent_head_bytes: 33,
                body_hashes: 8,
                sent_tags: 10,
                recv_frames: 30,
                recv_entries: 33,
                dropped_frames: 0,
                dropped_egress: 1,
                late_entries: 2,
                mac_ops: 40,
                buffer_reuses: 5,
            },
        }
    }

    fn epoch_report(id: u16, agreements: Vec<(u32, u16, f64)>) -> NodeReport {
        NodeReport { agreements, ..report(id, 0.0) }
    }

    #[test]
    fn report_json_roundtrip() {
        let r = report(3, 40_013.937_5);
        let parsed = NodeReport::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Every counter distinct and non-zero: one written under another's
        // name, or not at all, fails the round trip.
        let r = NodeReport { stats: NetStats::from_values((1..).map(|i| i * 1_001)), ..r };
        assert_eq!(NodeReport::parse_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn report_json_roundtrip_whole_output() {
        // A whole-number agreement must stay a float on the wire.
        let r = report(0, 40000.0);
        assert!(r.to_json().contains("[0,0,40000.0]"));
        assert_eq!(NodeReport::parse_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn report_parse_is_order_insensitive() {
        let text = r#" {"elapsed_ms": -2.5e1, "threads": 3, "stats": {"mac_ops": 7,
            "buffer_reuses": 12, "late_entries": 10,
            "dropped_egress": 9, "sent_frames": 1, "sent_bytes": 2, "body_hashes": 4,
            "sent_tags": 5, "sent_entries": 3, "recv_frames": 6, "recv_entries": 8,
            "dropped_frames": 11, "sent_head_bytes": 14}, "agreements": [], "ctxt_switches_per_agreement": 0.5,
            "id": 2} "#;
        let r = NodeReport::parse_json(text).unwrap();
        assert_eq!(r.id, 2);
        assert_eq!(r.elapsed_ms, -25.0);
        assert_eq!(r.stats.mac_ops, 7);
        assert_eq!(r.stats.dropped_frames, 11);
        assert_eq!(r.stats.buffer_reuses, 12);
        assert_eq!(r.threads, 3);
        assert!(r.agreements.is_empty());
        // Every key is required.
        let err = NodeReport::parse_json(&text.replace("\"late_entries\": 10,", "")).unwrap_err();
        assert!(matches!(&err, ClusterError::BadReport { key, .. } if key == "late_entries"));
    }

    #[test]
    fn unknown_report_keys_are_ignored() {
        let r = report(5, 123.0);
        let json = r.to_json();
        assert_eq!(NodeReport::parse_json(&json).unwrap(), r);
        // Keys the parser does not know are ignored, so a report that
        // still carries a retired counter parses.
        let unknown = json
            .replace("\"stats\":{", "\"stats\":{\"shard_entries\":[20,13],\"retired_counter\":3,");
        assert_ne!(unknown, json);
        assert_eq!(NodeReport::parse_json(&unknown).unwrap(), r);
    }

    #[test]
    fn epoch_report_json_roundtrip() {
        let r = epoch_report(1, vec![(0, 0, 40_013.5), (0, 1, 2_000.25), (1, 0, 40_020.0)]);
        let parsed = NodeReport::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // An empty stream round-trips too.
        let r = epoch_report(0, Vec::new());
        assert_eq!(NodeReport::parse_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn epoch_report_parse_tolerates_whitespace_between_triples() {
        // Third-party node binaries may pretty-print; the parser promises
        // whitespace tolerance.
        let text = r#"{"id": 1, "elapsed_ms": 3.0,
            "agreements": [ [0, 0, 1.5] , [1, 0, 2.5] ] ,
            "threads": 4, "ctxt_switches_per_agreement": 5.0,
            "stats": {"sent_frames":1,"sent_bytes":2,"body_hashes":1,"sent_tags":1,
            "sent_entries":3,"sent_head_bytes":9,"recv_frames":4,"recv_entries":5,"dropped_frames":6,
            "dropped_egress":0,"late_entries":7,"mac_ops":8,"buffer_reuses":0}}"#;
        let r = NodeReport::parse_json(text).unwrap();
        assert_eq!(r.agreements, vec![(0, 0, 1.5), (1, 0, 2.5)]);
        // An unterminated array is a loud parse error, not silence.
        let bad = r#"{"id":1,"elapsed_ms":3.0,"agreements":[[0,0,1.5"#;
        assert!(NodeReport::parse_json(bad).is_err());
    }

    #[test]
    fn report_parse_rejects_missing_and_malformed() {
        let err = NodeReport::parse_json("{}").unwrap_err();
        assert!(matches!(err, ClusterError::BadReport { .. }), "{err}");
        let err = NodeReport::parse_json("{\"id\":\"x\"}").unwrap_err();
        assert!(matches!(err, ClusterError::BadReport { .. }), "{err}");
    }

    #[test]
    fn truncated_reports_and_multibyte_junk_are_errors_not_panics() {
        let json = epoch_report(1, vec![(0, 0, 40_013.5), (0, 1, 2_000.25)]).to_json();
        let junk = ["é", "€]", "😀\"", ":ü", "\"id\":1,\"ß\":[[0,0,ж"];
        for cut in 0..json.len() {
            let prefix = &json[..cut];
            assert!(NodeReport::parse_json(prefix).is_err(), "prefix of {cut} bytes parsed");
            for tail in junk {
                let text = format!("{prefix}{tail}");
                assert!(NodeReport::parse_json(&text).is_err(), "{text:?} parsed");
            }
        }
        for text in ["{\"id\":é}", "{\"agreements\":[[0,0,€]]}", "{\"id\"😀:1}", "{é}}", "}{"]
        {
            assert!(NodeReport::parse_json(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn outcome_spread_and_totals() {
        let outcome =
            ClusterOutcome { reports: vec![report(0, 10.0), report(1, 11.5), report(2, 10.5)] };
        let total = outcome.total_stats();
        assert_eq!(total.sent_frames, 30);
        assert_eq!(total.mac_ops, 120);
        assert_eq!(total.sent_tags, 30);
        assert_eq!(total.buffer_reuses, 15);
        // Every counter sums.
        let one = report(0, 0.0).stats;
        assert_eq!(total, NetStats::from_values(one.values().map(|v| 3 * v)));
        assert_eq!(outcome.max_elapsed_ms(), 12.5);
        assert_eq!(outcome.max_threads(), 47);
        assert_eq!(outcome.ctxt_switches_per_agreement(), 312.25);
    }

    #[test]
    fn launch_collects_reports_from_real_processes() {
        // `echo` stands in for a node binary: each "node" prints a
        // report line, exercising spawn/wait/parse without delphi-node.
        let mut commands = Vec::new();
        for id in 0..3u16 {
            let mut cmd = Command::new("echo");
            cmd.arg(report(id, 40_000.0 + f64::from(id)).to_json());
            cmd.stdout(Stdio::piped());
            commands.push(cmd);
        }
        let outcome = launch(commands).unwrap();
        assert_eq!(outcome.reports.len(), 3);
        assert_eq!(outcome.reports[2].id, 2);
        assert_eq!(outcome.reports[2].agreements, vec![(0, 0, 40_002.0)]);
    }

    #[test]
    fn launch_surfaces_node_failure() {
        let mut bad = Command::new("false");
        bad.stdout(Stdio::piped());
        let err = launch(vec![bad]).unwrap_err();
        assert!(matches!(err, ClusterError::NodeFailed { id: 0, .. }), "{err}");
    }

    #[test]
    fn launch_surfaces_bad_report() {
        let mut cmd = Command::new("echo");
        cmd.arg("not json").stdout(Stdio::piped());
        let err = launch(vec![cmd]).unwrap_err();
        assert!(matches!(err, ClusterError::BadReport { .. }), "{err}");
    }

    #[test]
    fn launch_surfaces_spawn_failure() {
        let mut cmd = Command::new("/definitely/not/a/binary");
        cmd.stdout(Stdio::piped());
        let err = launch(vec![cmd]).unwrap_err();
        assert!(matches!(err, ClusterError::Spawn { id: 0, .. }), "{err}");
    }

    #[test]
    fn missing_sibling_binary_reports_searched_paths() {
        let err = find_sibling_binary("definitely-not-a-real-binary-name").unwrap_err();
        let ClusterError::BinaryNotFound { searched } = &err else {
            panic!("unexpected {err}");
        };
        assert!(searched.contains("definitely-not-a-real-binary-name"), "{searched}");
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            ClusterError::Config { why: "c".to_string() },
            ClusterError::Spawn { id: 0, why: "x".to_string() },
            ClusterError::NodeFailed { id: 1, why: "y".to_string() },
            ClusterError::BadReport { key: "id".to_string(), why: "missing".to_string() },
            ClusterError::BinaryNotFound { searched: "p".to_string() },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
