//! Multi-process cluster harness: spawn one OS process per node, collect
//! per-node results over stdout JSON, and check convergence.
//!
//! The deployment contract is deliberately small so any node binary can
//! participate (the workspace ships `delphi-node` in `delphi-bench`):
//!
//! - the launcher starts one process per `[[node]]` entry of a
//!   [`ClusterConfig`](crate::config::ClusterConfig), handing every
//!   process the same config file and its own `--id`;
//! - each process runs its protocol node over real sockets and, on
//!   success, prints exactly one [`NodeReport`] JSON line on stdout;
//! - the launcher parses the reports, sums transport stats, and exposes
//!   the output spread so callers can assert ε-agreement.
//!
//! JSON here is the fixed flat schema below, hand-rolled because the
//! environment has no serde:
//!
//! ```json
//! {"id":0,"output":40013.93,"elapsed_ms":412.7,"stats":{"sent_frames":54,
//!  "sent_bytes":21862,"sent_entries":54,"recv_frames":162,
//!  "recv_entries":162,"dropped_frames":0,"mac_ops":216}}
//! ```

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use crate::transport::NetStats;

/// One node process's result, as printed on its stdout.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// The node's id within the cluster.
    pub id: u16,
    /// The protocol output (an agreement value; the mean over the stream
    /// for epoch runs).
    pub output: f64,
    /// Wall-clock milliseconds from process start of the run to output.
    pub elapsed_ms: f64,
    /// Epoch-stream agreements as `(epoch, asset, value)` triples (empty
    /// for one-shot runs).
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
    /// Renders the single-line JSON form the launcher parses.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let agreements = self
            .agreements
            .iter()
            .map(|(e, a, v)| format!("[{e},{a},{}]", fmt_f64(*v)))
            .collect::<Vec<_>>()
            .join(",");
        let u64_array = |a: &[u64]| a.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",");
        let shard_entries = u64_array(&s.shard_entries);
        let egress_shard_entries = u64_array(&s.egress_shard_entries);
        let egress_shard_macs = u64_array(&s.egress_shard_macs);
        let dropped_egress_shard = u64_array(&s.dropped_egress_shard);
        format!(
            "{{\"id\":{},\"output\":{},\"elapsed_ms\":{},\"agreements\":[{agreements}],\
             \"threads\":{},\"ctxt_switches_per_agreement\":{},\
             \"stats\":{{\
             \"sent_frames\":{},\"sent_bytes\":{},\"sent_entries\":{},\
             \"body_hashes\":{},\
             \"recv_frames\":{},\"recv_entries\":{},\"dropped_frames\":{},\
             \"dropped_egress\":{},\"late_entries\":{},\"mac_ops\":{},\
             \"buffer_reuses\":{},\
             \"vector_instances\":{},\"vector_dims\":{},\
             \"shard_entries\":[{shard_entries}],\
             \"egress_shard_entries\":[{egress_shard_entries}],\
             \"egress_shard_macs\":[{egress_shard_macs}],\
             \"dropped_egress_shard\":[{dropped_egress_shard}]}}}}",
            self.id,
            fmt_f64(self.output),
            fmt_f64(self.elapsed_ms),
            self.threads,
            fmt_f64(self.ctxt_switches_per_agreement),
            s.sent_frames,
            s.sent_bytes,
            s.sent_entries,
            s.body_hashes,
            s.recv_frames,
            s.recv_entries,
            s.dropped_frames,
            s.dropped_egress,
            s.late_entries,
            s.mac_ops,
            s.buffer_reuses,
            s.vector_instances,
            s.vector_dims,
        )
    }

    /// Parses the JSON line printed by a node process.
    ///
    /// The parser is schema-bound (flat keys, one nested `stats` object,
    /// one `agreements` triple array, per-shard number arrays) but
    /// order-insensitive and tolerant of whitespace. The `agreements`,
    /// `threads`, `ctxt_switches_per_agreement`, `dropped_egress`, `late_entries`, `buffer_reuses`,
    /// `body_hashes`, `vector_instances`, `vector_dims`, `shard_entries`,
    /// `egress_shard_entries`, `egress_shard_macs`, and
    /// `dropped_egress_shard` keys are optional so reports from older
    /// node binaries still parse.
    ///
    /// # Errors
    ///
    /// [`ClusterError::BadReport`] when a key is missing or malformed.
    pub fn parse_json(text: &str) -> Result<NodeReport, ClusterError> {
        let text = text.trim();
        let id = json_number(text, "id")?;
        let shard_array =
            |key: &str| -> Result<[u64; crate::transport::MAX_RECV_SHARDS], ClusterError> {
                let mut out = [0u64; crate::transport::MAX_RECV_SHARDS];
                for (slot, v) in out.iter_mut().zip(json_u64_array(text, key)?) {
                    *slot = v;
                }
                Ok(out)
            };
        let shard_entries = shard_array("shard_entries")?;
        let egress_shard_entries = shard_array("egress_shard_entries")?;
        let egress_shard_macs = shard_array("egress_shard_macs")?;
        let dropped_egress_shard = shard_array("dropped_egress_shard")?;
        let stats = NetStats {
            sent_frames: json_number(text, "sent_frames")? as u64,
            sent_bytes: json_number(text, "sent_bytes")? as u64,
            sent_entries: json_number(text, "sent_entries")? as u64,
            body_hashes: json_number(text, "body_hashes").unwrap_or(0.0) as u64,
            recv_frames: json_number(text, "recv_frames")? as u64,
            recv_entries: json_number(text, "recv_entries")? as u64,
            dropped_frames: json_number(text, "dropped_frames")? as u64,
            dropped_egress: json_number(text, "dropped_egress").unwrap_or(0.0) as u64,
            late_entries: json_number(text, "late_entries").unwrap_or(0.0) as u64,
            mac_ops: json_number(text, "mac_ops")? as u64,
            buffer_reuses: json_number(text, "buffer_reuses").unwrap_or(0.0) as u64,
            vector_instances: json_number(text, "vector_instances").unwrap_or(0.0) as u64,
            vector_dims: json_number(text, "vector_dims").unwrap_or(0.0) as u64,
            shard_entries,
            egress_shard_entries,
            egress_shard_macs,
            dropped_egress_shard,
        };
        Ok(NodeReport {
            id: id as u16,
            output: json_number(text, "output")?,
            elapsed_ms: json_number(text, "elapsed_ms")?,
            agreements: json_triples(text, "agreements")?,
            threads: json_number(text, "threads").unwrap_or(0.0) as u64,
            ctxt_switches_per_agreement: json_number(text, "ctxt_switches_per_agreement")
                .unwrap_or(0.0),
            stats,
        })
    }
}

/// Formats an f64 so it parses back exactly (always with a decimal point
/// or exponent, so the value stays a JSON number).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        // JSON has no infinities; clamp to a sentinel the parser rejects
        // loudly rather than emitting invalid JSON.
        "null".to_string()
    }
}

/// Extracts the `[[u32,u16,f64], ...]` triple array following `"key":`,
/// returning empty when the key is absent (one-shot reports).
fn json_triples(text: &str, key: &str) -> Result<Vec<(u32, u16, f64)>, ClusterError> {
    let pat = format!("\"{key}\"");
    let bad = |why: &str| ClusterError::BadReport { key: key.to_string(), why: why.to_string() };
    let Some(at) = text.find(&pat) else { return Ok(Vec::new()) };
    let rest = text[at + pat.len()..].trim_start();
    let rest = rest.strip_prefix(':').ok_or_else(|| bad("no colon"))?.trim_start();
    let rest = rest.strip_prefix('[').ok_or_else(|| bad("no array"))?;
    // Find the outer array's close by bracket depth (numbers contain no
    // brackets, so no string-escaping cases exist in this schema).
    let mut depth = 1usize;
    let mut end = None;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &rest[..end.ok_or_else(|| bad("unterminated array"))?];
    let mut triples = Vec::new();
    for triple in body.split('[').skip(1) {
        let triple = triple.trim_end_matches(|c: char| c.is_whitespace() || matches!(c, ']' | ','));
        let mut fields = triple.split(',');
        let mut next = |what: &str| {
            fields.next().map(str::trim).filter(|f| !f.is_empty()).ok_or_else(|| bad(what))
        };
        let epoch: u32 = next("epoch")?.parse().map_err(|_| bad("epoch not a number"))?;
        let asset: u16 = next("asset")?.parse().map_err(|_| bad("asset not a number"))?;
        let value: f64 = next("value")?.parse().map_err(|_| bad("value not a number"))?;
        triples.push((epoch, asset, value));
    }
    Ok(triples)
}

/// Extracts the `[u64, ...]` array following `"key":`, returning empty
/// when the key is absent (reports from older node binaries).
fn json_u64_array(text: &str, key: &str) -> Result<Vec<u64>, ClusterError> {
    let pat = format!("\"{key}\"");
    let bad = |why: &str| ClusterError::BadReport { key: key.to_string(), why: why.to_string() };
    let Some(at) = text.find(&pat) else { return Ok(Vec::new()) };
    let rest = text[at + pat.len()..].trim_start();
    let rest = rest.strip_prefix(':').ok_or_else(|| bad("no colon"))?.trim_start();
    let rest = rest.strip_prefix('[').ok_or_else(|| bad("no array"))?;
    let end = rest.find(']').ok_or_else(|| bad("unterminated array"))?;
    let body = rest[..end].trim();
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',').map(|f| f.trim().parse().map_err(|_| bad("not a number"))).collect()
}

/// Extracts the numeric value following `"key":` anywhere in `text`.
fn json_number(text: &str, key: &str) -> Result<f64, ClusterError> {
    let pat = format!("\"{key}\"");
    let bad = |why: &str| ClusterError::BadReport { key: key.to_string(), why: why.to_string() };
    let at = text.find(&pat).ok_or_else(|| bad("missing"))?;
    let rest = text[at + pat.len()..].trim_start();
    let rest = rest.strip_prefix(':').ok_or_else(|| bad("no colon"))?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| bad("not a number"))
}

/// Everything the launcher observed about one finished cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Per-node reports, sorted by node id.
    pub reports: Vec<NodeReport>,
}

impl ClusterOutcome {
    /// Spread (max − min) of the nodes' outputs: the quantity ε-agreement
    /// bounds.
    pub fn spread(&self) -> f64 {
        let outs = self.reports.iter().map(|r| r.output);
        outs.clone().fold(f64::NEG_INFINITY, f64::max) - outs.fold(f64::INFINITY, f64::min)
    }

    /// Whether every pair of outputs is within `epsilon`.
    pub fn converged(&self, epsilon: f64) -> bool {
        !self.reports.is_empty() && self.spread() <= epsilon
    }

    /// Transport counters summed over all nodes.
    pub fn total_stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for r in &self.reports {
            total.sent_frames += r.stats.sent_frames;
            total.sent_bytes += r.stats.sent_bytes;
            total.sent_entries += r.stats.sent_entries;
            total.body_hashes += r.stats.body_hashes;
            total.recv_frames += r.stats.recv_frames;
            total.recv_entries += r.stats.recv_entries;
            total.dropped_frames += r.stats.dropped_frames;
            total.dropped_egress += r.stats.dropped_egress;
            total.late_entries += r.stats.late_entries;
            total.mac_ops += r.stats.mac_ops;
            total.buffer_reuses += r.stats.buffer_reuses;
            total.vector_instances += r.stats.vector_instances;
            // Dims are a mode marker, not additive: take the max so a
            // uniform vector cluster reports its basket size.
            total.vector_dims = total.vector_dims.max(r.stats.vector_dims);
            for lane in 0..r.stats.shard_entries.len() {
                total.shard_entries[lane] += r.stats.shard_entries[lane];
                total.egress_shard_entries[lane] += r.stats.egress_shard_entries[lane];
                total.egress_shard_macs[lane] += r.stats.egress_shard_macs[lane];
                total.dropped_egress_shard[lane] += r.stats.dropped_egress_shard[lane];
            }
        }
        total
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

    /// Epoch-stream agreements every node reported (the stream length the
    /// whole cluster sustained): the minimum per-node agreement count.
    pub fn epoch_agreements(&self) -> u64 {
        self.reports.iter().map(|r| r.agreements.len() as u64).min().unwrap_or(0)
    }

    /// Worst cross-node output spread over all `(epoch, asset)` pairs of
    /// an epoch-stream run — the quantity per-epoch ε-agreement bounds.
    /// `NaN` when a pair is missing on some node (a skipped epoch), which
    /// fails any ε check.
    pub fn epoch_spread(&self) -> f64 {
        let mut worst = 0.0f64;
        let Some(first) = self.reports.first() else { return f64::NAN };
        for &(epoch, asset, _) in &first.agreements {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for r in &self.reports {
                match r.agreements.iter().find(|(e, a, _)| (*e, *a) == (epoch, asset)) {
                    Some((_, _, v)) => {
                        lo = lo.min(*v);
                        hi = hi.max(*v);
                    }
                    None => return f64::NAN,
                }
            }
            worst = worst.max(hi - lo);
        }
        worst
    }

    /// Whether the cluster sustained `expected` agreements per node with
    /// every `(epoch, asset)` pair within `epsilon` across nodes.
    pub fn epoch_converged(&self, epsilon: f64, expected: u64) -> bool {
        !self.reports.is_empty()
            && self.reports.iter().all(|r| r.agreements.len() as u64 == expected)
            && self.epoch_spread() <= epsilon
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
        /// Its exit status and captured stderr tail.
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
                first_failure.get_or_insert(ClusterError::NodeFailed {
                    id,
                    why: format!("exit status {}", out.status),
                });
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

    fn report(id: u16, output: f64) -> NodeReport {
        NodeReport {
            id,
            output,
            elapsed_ms: 12.5,
            agreements: Vec::new(),
            threads: 47,
            ctxt_switches_per_agreement: 312.25,
            stats: NetStats {
                sent_frames: 10,
                sent_bytes: 4200,
                sent_entries: 11,
                body_hashes: 8,
                recv_frames: 30,
                recv_entries: 33,
                dropped_frames: 0,
                dropped_egress: 1,
                late_entries: 2,
                mac_ops: 40,
                buffer_reuses: 5,
                vector_instances: 3,
                vector_dims: 4,
                shard_entries: [20, 13, 0, 0, 0, 0, 0, 0],
                egress_shard_entries: [7, 4, 0, 0, 0, 0, 0, 0],
                egress_shard_macs: [6, 4, 0, 0, 0, 0, 0, 0],
                dropped_egress_shard: [1, 0, 0, 0, 0, 0, 0, 0],
            },
        }
    }

    fn epoch_report(id: u16, agreements: Vec<(u32, u16, f64)>) -> NodeReport {
        let output =
            agreements.iter().map(|(_, _, v)| *v).sum::<f64>() / (agreements.len().max(1) as f64);
        NodeReport { agreements, ..report(id, output) }
    }

    #[test]
    fn report_json_roundtrip() {
        let r = report(3, 40_013.937_5);
        let parsed = NodeReport::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn report_json_roundtrip_whole_output() {
        // A whole-number output must stay a float on the wire.
        let r = report(0, 40000.0);
        assert!(r.to_json().contains("\"output\":40000.0"));
        assert_eq!(NodeReport::parse_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn report_parse_is_order_insensitive_and_tolerates_missing_epoch_keys() {
        // No `agreements` / `late_entries` keys: a pre-epoch report.
        let text = r#" {"output": -2.5e1, "stats": {"mac_ops": 7, "sent_frames": 1,
            "sent_bytes": 2, "sent_entries": 3, "recv_frames": 4,
            "recv_entries": 5, "dropped_frames": 6}, "elapsed_ms": 1.5, "id": 2} "#;
        let r = NodeReport::parse_json(text).unwrap();
        assert_eq!(r.id, 2);
        assert_eq!(r.output, -25.0);
        assert_eq!(r.stats.mac_ops, 7);
        assert_eq!(r.stats.dropped_frames, 6);
        assert_eq!(r.stats.late_entries, 0);
        // Per-shard arrays are optional too: absent keys parse to zeros.
        assert_eq!(r.stats.egress_shard_entries, [0; 8]);
        assert_eq!(r.stats.egress_shard_macs, [0; 8]);
        assert_eq!(r.stats.dropped_egress_shard, [0; 8]);
        // Vector counters are optional the same way: a report from a
        // per-asset (or older) binary parses as scalar mode.
        assert_eq!(r.stats.vector_instances, 0);
        assert_eq!(r.stats.vector_dims, 0);
        assert!(r.agreements.is_empty());
        // And the body-hash counter.
        assert_eq!(r.stats.body_hashes, 0);
        // So are the process gauges of newer node binaries.
        assert_eq!(r.threads, 0);
        assert_eq!(r.ctxt_switches_per_agreement, 0.0);
    }

    #[test]
    fn vector_counters_roundtrip_and_stay_optional() {
        // Emitted: both counters survive the JSON round-trip.
        let r = report(5, 123.0);
        let json = r.to_json();
        assert!(json.contains("\"vector_instances\":3"));
        assert!(json.contains("\"vector_dims\":4"));
        assert_eq!(NodeReport::parse_json(&json).unwrap(), r);
        // Absent (a scalar-mode or pre-vector report, like the egress
        // shard keys before it): parses to zeros, nothing else changes.
        let stripped =
            json.replace("\"vector_instances\":3,", "").replace("\"vector_dims\":4,", "");
        let parsed = NodeReport::parse_json(&stripped).unwrap();
        assert_eq!(parsed.stats.vector_instances, 0);
        assert_eq!(parsed.stats.vector_dims, 0);
        assert_eq!(parsed.stats.mac_ops, r.stats.mac_ops);
        assert_eq!(parsed.stats.egress_shard_entries, r.stats.egress_shard_entries);
    }

    #[test]
    fn epoch_report_json_roundtrip() {
        let r = epoch_report(1, vec![(0, 0, 40_013.5), (0, 1, 2_000.25), (1, 0, 40_020.0)]);
        let parsed = NodeReport::parse_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Empty stream round-trips too (one-shot reports).
        let r = report(0, 1.0);
        assert_eq!(NodeReport::parse_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn epoch_report_parse_tolerates_whitespace_between_triples() {
        // Third-party node binaries may pretty-print; the parser promises
        // whitespace tolerance.
        let text = r#"{"id": 1, "output": 2.0, "elapsed_ms": 3.0,
            "agreements": [ [0, 0, 1.5] , [1, 0, 2.5] ] ,
            "stats": {"sent_frames":1,"sent_bytes":2,"sent_entries":3,
            "recv_frames":4,"recv_entries":5,"dropped_frames":6,
            "late_entries":7,"mac_ops":8}}"#;
        let r = NodeReport::parse_json(text).unwrap();
        assert_eq!(r.agreements, vec![(0, 0, 1.5), (1, 0, 2.5)]);
        // An unterminated array is a loud parse error, not silence.
        let bad = r#"{"id":1,"output":2.0,"elapsed_ms":3.0,"agreements":[[0,0,1.5"#;
        assert!(NodeReport::parse_json(bad).is_err());
    }

    #[test]
    fn epoch_convergence_checks_per_pair_spread_and_completeness() {
        let outcome = ClusterOutcome {
            reports: vec![
                epoch_report(0, vec![(0, 0, 100.0), (1, 0, 200.0)]),
                epoch_report(1, vec![(0, 0, 100.5), (1, 0, 199.0)]),
            ],
        };
        assert_eq!(outcome.epoch_agreements(), 2);
        assert!((outcome.epoch_spread() - 1.0).abs() < 1e-12);
        assert!(outcome.epoch_converged(1.0, 2));
        assert!(!outcome.epoch_converged(0.5, 2), "spread beyond eps");
        assert!(!outcome.epoch_converged(1.0, 3), "missing agreements");

        // A node that skipped an epoch can never pass the check.
        let skewed = ClusterOutcome {
            reports: vec![
                epoch_report(0, vec![(0, 0, 100.0), (1, 0, 200.0)]),
                epoch_report(1, vec![(0, 0, 100.0), (2, 0, 300.0)]),
            ],
        };
        assert!(skewed.epoch_spread().is_nan());
        assert!(!skewed.epoch_converged(f64::INFINITY, 2));
    }

    #[test]
    fn report_parse_rejects_missing_and_malformed() {
        let err = NodeReport::parse_json("{}").unwrap_err();
        assert!(matches!(err, ClusterError::BadReport { .. }), "{err}");
        let err = NodeReport::parse_json("{\"id\":\"x\"}").unwrap_err();
        assert!(matches!(err, ClusterError::BadReport { .. }), "{err}");
    }

    #[test]
    fn outcome_spread_and_totals() {
        let outcome =
            ClusterOutcome { reports: vec![report(0, 10.0), report(1, 11.5), report(2, 10.5)] };
        assert_eq!(outcome.spread(), 1.5);
        assert!(outcome.converged(1.5));
        assert!(!outcome.converged(1.0));
        let total = outcome.total_stats();
        assert_eq!(total.sent_frames, 30);
        assert_eq!(total.mac_ops, 120);
        // Per-shard arrays sum element-wise across nodes.
        assert_eq!(total.shard_entries[..2], [60, 39]);
        assert_eq!(total.egress_shard_entries[..2], [21, 12]);
        assert_eq!(total.egress_shard_macs[..2], [18, 12]);
        assert_eq!(total.dropped_egress_shard[..2], [3, 0]);
        // Vector instances sum; dims are a mode marker (max, not sum).
        assert_eq!(total.vector_instances, 9);
        assert_eq!(total.vector_dims, 4);
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
        assert_eq!(outcome.spread(), 2.0);
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
