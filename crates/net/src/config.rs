//! TOML cluster-configuration format for multi-process deployments.
//!
//! A cluster file describes one full-mesh deployment: a `[cluster]`
//! section with shared settings and one `[[node]]` entry per node with its
//! id, listen address, and key material. The same file is handed to every
//! `delphi-node` process (each picks its own entry by `--id`) and to the
//! `delphi-cluster` launcher:
//!
//! ```toml
//! [cluster]
//! name = "local-4"
//! seed = "64656c7068692d636c7573746572"   # hex; shared HMAC key material
//!
//! [[node]]
//! id = 0
//! address = "127.0.0.1:7100"
//!
//! [[node]]
//! id = 1
//! address = "127.0.0.1:7101"
//! # key = "..." would override the cluster seed for this node
//! ```
//!
//! Key material: the workspace's [`Keychain`] derives all pairwise channel
//! keys from one deployment seed, so the natural layout is a cluster-level
//! `seed`. A `[[node]]` entry may carry its own `key` (hex) instead — a
//! node only ever reads *its own* key material — but mismatched seeds
//! simply mean every frame between the mismatched pair fails
//! authentication and is dropped, exactly as a mis-provisioned real
//! deployment would behave. A node with neither a `key` nor a cluster
//! `seed` is a configuration error.
//!
//! The parser is a dependency-free subset of TOML (sections, array
//! sections, string/integer values, `#` comments) — enough for cluster
//! files while the environment has no crates.io access; unknown keys are
//! rejected so typos fail loudly instead of silently misconfiguring a
//! deployment.

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;
use std::path::Path;

use delphi_crypto::Keychain;
use delphi_primitives::NodeId;

/// One `[[node]]` entry: a node's identity, listen address, and key
/// material.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeEntry {
    /// Node id; entries must cover `0..n` exactly.
    pub id: u16,
    /// The node's listen address; peers dial it.
    pub address: SocketAddr,
    /// Per-node key material (raw bytes decoded from hex), overriding the
    /// cluster seed when present.
    pub key: Option<Vec<u8>>,
}

/// A parsed cluster configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Optional human-readable deployment name.
    pub name: Option<String>,
    /// Cluster-wide key material (raw bytes decoded from hex) used by
    /// every node without its own `key`.
    pub seed: Option<Vec<u8>>,
    /// Node entries, sorted by id after validation.
    pub nodes: Vec<NodeEntry>,
}

/// Cluster-configuration failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The TOML subset parser rejected a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// Two `[[node]]` entries claim the same id.
    DuplicateId(u16),
    /// Node ids do not cover `0..n` exactly.
    NonContiguousIds {
        /// Number of node entries.
        n: usize,
        /// The first id outside `0..n` (or the missing id).
        offender: u16,
    },
    /// A node's `address` did not parse as `host:port`.
    BadAddress {
        /// The node the address belongs to.
        id: u16,
        /// The rejected value.
        value: String,
    },
    /// A node has neither its own `key` nor a cluster `seed` to fall back
    /// on.
    MissingKey(u16),
    /// A `seed`/`key` value is not valid hex.
    BadHex {
        /// The offending value.
        value: String,
    },
    /// The file declares no `[[node]]` entries.
    Empty,
    /// The requested node id does not exist in this config.
    UnknownNode(u16),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ConfigError::DuplicateId(id) => write!(f, "duplicate node id {id}"),
            ConfigError::NonContiguousIds { n, offender } => {
                write!(f, "node ids must cover 0..{n} exactly (offending id {offender})")
            }
            ConfigError::BadAddress { id, value } => {
                write!(f, "node {id}: invalid address {value:?}")
            }
            ConfigError::MissingKey(id) => {
                write!(f, "node {id} has no key and the cluster declares no seed")
            }
            ConfigError::BadHex { value } => write!(f, "invalid hex key material {value:?}"),
            ConfigError::Empty => write!(f, "cluster config declares no nodes"),
            ConfigError::UnknownNode(id) => write!(f, "no node with id {id} in cluster config"),
        }
    }
}

impl Error for ConfigError {}

impl ClusterConfig {
    /// Parses and validates a cluster config from TOML text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on syntax errors, duplicate or
    /// non-contiguous ids, unparsable addresses, bad hex, missing key
    /// material, or an empty node list.
    pub fn parse(text: &str) -> Result<ClusterConfig, ConfigError> {
        let raw = parse_toml_subset(text)?;
        let mut name = None;
        let mut seed = None;
        for (line, key, value) in &raw.cluster {
            match key.as_str() {
                "name" => name = Some(value.expect_string(*line)?),
                "seed" => seed = Some(decode_hex(&value.expect_string(*line)?)?),
                other => {
                    return Err(ConfigError::Syntax {
                        line: *line,
                        msg: format!("unknown [cluster] key {other:?}"),
                    })
                }
            }
        }
        let mut nodes = Vec::with_capacity(raw.nodes.len());
        for entry in &raw.nodes {
            let mut id: Option<u16> = None;
            let mut address: Option<(usize, String)> = None;
            let mut key: Option<Vec<u8>> = None;
            for (line, k, v) in entry {
                match k.as_str() {
                    "id" => id = Some(v.expect_u16(*line)?),
                    "address" => address = Some((*line, v.expect_string(*line)?)),
                    "key" => key = Some(decode_hex(&v.expect_string(*line)?)?),
                    other => {
                        return Err(ConfigError::Syntax {
                            line: *line,
                            msg: format!("unknown [[node]] key {other:?}"),
                        })
                    }
                }
            }
            let first_line = entry.first().map_or(0, |(l, _, _)| *l);
            let id = id.ok_or_else(|| ConfigError::Syntax {
                line: first_line,
                msg: "[[node]] entry missing `id`".to_string(),
            })?;
            let (_, addr_text) = address.ok_or_else(|| ConfigError::Syntax {
                line: first_line,
                msg: format!("node {id} missing `address`"),
            })?;
            let address = addr_text
                .parse()
                .map_err(|_| ConfigError::BadAddress { id, value: addr_text.clone() })?;
            nodes.push(NodeEntry { id, address, key });
        }
        let mut config = ClusterConfig { name, seed, nodes };
        config.validate()?;
        // Consumers index `nodes` positionally (`addresses()[i]` must be
        // node i's listen address), so entry order in the file must not
        // matter.
        config.nodes.sort_by_key(|n| n.id);
        Ok(config)
    }

    /// Reads and parses a cluster config file.
    ///
    /// # Errors
    ///
    /// I/O failures surface as a [`ConfigError::Syntax`] at line 0; parse
    /// failures as in [`ClusterConfig::parse`].
    pub fn load(path: &Path) -> Result<ClusterConfig, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError::Syntax {
            line: 0,
            msg: format!("cannot read {}: {e}", path.display()),
        })?;
        ClusterConfig::parse(&text)
    }

    /// Renders the config back to TOML (the format [`ClusterConfig::parse`]
    /// accepts; `parse(to_toml(c)) == c` after validation).
    pub fn to_toml(&self) -> String {
        let mut out = String::from("[cluster]\n");
        if let Some(name) = &self.name {
            out.push_str(&format!("name = \"{name}\"\n"));
        }
        if let Some(seed) = &self.seed {
            out.push_str(&format!("seed = \"{}\"\n", encode_hex(seed)));
        }
        for node in &self.nodes {
            out.push_str(&format!(
                "\n[[node]]\nid = {}\naddress = \"{}\"\n",
                node.id, node.address
            ));
            if let Some(key) = &node.key {
                out.push_str(&format!("key = \"{}\"\n", encode_hex(key)));
            }
        }
        out
    }

    /// Number of nodes in the deployment.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Listen addresses indexed by node id (the shape
    /// [`crate::run_node`] expects).
    pub fn addresses(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.address).collect()
    }

    /// The key material effective for node `id` (its own `key`, else the
    /// cluster `seed`).
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownNode`] for an id outside the deployment;
    /// [`ConfigError::MissingKey`] if neither source exists (unreachable
    /// for configs that came out of [`ClusterConfig::parse`]).
    pub fn key_material(&self, id: u16) -> Result<&[u8], ConfigError> {
        let node = self.nodes.iter().find(|n| n.id == id).ok_or(ConfigError::UnknownNode(id))?;
        node.key.as_deref().or(self.seed.as_deref()).ok_or(ConfigError::MissingKey(id))
    }

    /// Derives the pairwise channel keychain for node `id`.
    ///
    /// # Errors
    ///
    /// See [`ClusterConfig::key_material`].
    pub fn keychain(&self, id: u16) -> Result<Keychain, ConfigError> {
        let seed = self.key_material(id)?;
        Ok(Keychain::derive(seed, NodeId(id), self.n()))
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes.is_empty() {
            return Err(ConfigError::Empty);
        }
        let n = self.nodes.len();
        let mut seen = vec![false; n];
        for node in &self.nodes {
            match seen.get_mut(usize::from(node.id)) {
                None => return Err(ConfigError::NonContiguousIds { n, offender: node.id }),
                Some(true) => return Err(ConfigError::DuplicateId(node.id)),
                Some(seen) => *seen = true,
            }
            if node.key.is_none() && self.seed.is_none() {
                return Err(ConfigError::MissingKey(node.id));
            }
        }
        Ok(())
    }
}

/// A parsed raw value: string or integer.
#[derive(Clone, Debug)]
enum RawValue {
    Str(String),
    Int(i64),
}

impl RawValue {
    fn expect_string(&self, line: usize) -> Result<String, ConfigError> {
        match self {
            RawValue::Str(s) => Ok(s.clone()),
            RawValue::Int(_) => {
                Err(ConfigError::Syntax { line, msg: "expected a quoted string".to_string() })
            }
        }
    }

    fn expect_u16(&self, line: usize) -> Result<u16, ConfigError> {
        match self {
            RawValue::Int(i) => u16::try_from(*i).map_err(|_| ConfigError::Syntax {
                line,
                msg: format!("integer {i} out of range for a node id"),
            }),
            RawValue::Str(_) => {
                Err(ConfigError::Syntax { line, msg: "expected an integer".to_string() })
            }
        }
    }
}

type RawEntry = (usize, String, RawValue);

struct RawConfig {
    cluster: Vec<RawEntry>,
    nodes: Vec<Vec<RawEntry>>,
}

/// Which section the parser is currently filling: the last `[[node]]`
/// entry, once one is open.
enum Cursor {
    Top,
    Cluster,
    Node,
}

fn parse_toml_subset(text: &str) -> Result<RawConfig, ConfigError> {
    let mut raw = RawConfig { cluster: Vec::new(), nodes: Vec::new() };
    let mut cursor = Cursor::Top;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[cluster]" {
            cursor = Cursor::Cluster;
            continue;
        }
        if line == "[[node]]" {
            raw.nodes.push(Vec::new());
            cursor = Cursor::Node;
            continue;
        }
        if line.starts_with('[') {
            return Err(ConfigError::Syntax {
                line: line_no,
                msg: format!("unknown section {line:?} (expected [cluster] or [[node]])"),
            });
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError::Syntax {
                line: line_no,
                msg: format!("expected `key = value`, got {line:?}"),
            });
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(ConfigError::Syntax { line: line_no, msg: format!("invalid key {key:?}") });
        }
        let value = parse_value(value.trim(), line_no)?;
        let entry = (line_no, key.to_string(), value);
        let section = match cursor {
            Cursor::Top => None,
            Cursor::Cluster => Some(&mut raw.cluster),
            Cursor::Node => raw.nodes.last_mut(),
        };
        let Some(section) = section else {
            return Err(ConfigError::Syntax {
                line: line_no,
                msg: "key outside any section (expected [cluster] or [[node]] first)".to_string(),
            });
        };
        section.push(entry);
    }
    Ok(raw)
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, line: usize) -> Result<RawValue, ConfigError> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(inner) = rest.strip_suffix('"') else {
            return Err(ConfigError::Syntax { line, msg: "unterminated string".to_string() });
        };
        if inner.contains('"') || inner.contains('\\') {
            return Err(ConfigError::Syntax {
                line,
                msg: "escapes and embedded quotes are not supported".to_string(),
            });
        }
        return Ok(RawValue::Str(inner.to_string()));
    }
    text.parse::<i64>()
        .map(RawValue::Int)
        .map_err(|_| ConfigError::Syntax { line, msg: format!("invalid value {text:?}") })
}

fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn decode_hex(text: &str) -> Result<Vec<u8>, ConfigError> {
    let bad = || ConfigError::BadHex { value: text.to_string() };
    if text.is_empty() || text.len() % 2 != 0 {
        return Err(bad());
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let &[hi, lo] = pair else { return Err(bad()) };
        let digit = |d: u8| (d as char).to_digit(16).ok_or_else(bad);
        out.push((digit(hi)? * 16 + digit(lo)?) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# A 3-node localhost deployment.
[cluster]
name = "sample"
seed = "00aaff"

[[node]]
id = 0
address = "127.0.0.1:7100"

[[node]]
id = 1
address = "127.0.0.1:7101"
key = "beef"   # per-node override

[[node]]
id = 2
address = "127.0.0.1:7102"
"#;

    #[test]
    fn parses_sample_and_roundtrips() {
        let cfg = ClusterConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.name.as_deref(), Some("sample"));
        assert_eq!(cfg.seed.as_deref(), Some(&[0x00, 0xaa, 0xff][..]));
        assert_eq!(cfg.n(), 3);
        assert_eq!(cfg.nodes[1].key.as_deref(), Some(&[0xbe, 0xef][..]));
        assert_eq!(cfg.addresses()[2], "127.0.0.1:7102".parse().unwrap());

        // Emit-and-reparse must be the identity.
        let reparsed = ClusterConfig::parse(&cfg.to_toml()).unwrap();
        assert_eq!(reparsed, cfg);
    }

    /// An `n`-node localhost cluster on consecutive ports from `base_port`,
    /// sharing `seed` as key material.
    fn localhost(n: u16, base_port: u16, seed: &[u8]) -> ClusterConfig {
        let nodes = (0..n).map(|id| NodeEntry {
            id,
            address: SocketAddr::from(([127, 0, 0, 1], base_port + id)),
            key: None,
        });
        let name = Some("localhost".to_string());
        ClusterConfig { name, seed: Some(seed.to_vec()), nodes: nodes.collect() }
    }

    #[test]
    fn localhost_constructor_roundtrips() {
        let cfg = localhost(4, 7200, b"seed-material");
        assert_eq!(cfg.n(), 4);
        assert_eq!(cfg.addresses()[3], "127.0.0.1:7203".parse().unwrap());
        let reparsed = ClusterConfig::parse(&cfg.to_toml()).unwrap();
        assert_eq!(reparsed, cfg);
    }

    #[test]
    fn key_material_prefers_node_override() {
        let cfg = ClusterConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.key_material(0).unwrap(), &[0x00, 0xaa, 0xff]);
        assert_eq!(cfg.key_material(1).unwrap(), &[0xbe, 0xef]);
        assert_eq!(cfg.key_material(9), Err(ConfigError::UnknownNode(9)));
    }

    #[test]
    fn keychains_from_shared_seed_authenticate_each_other() {
        let cfg = localhost(3, 7300, b"pairwise");
        let a = cfg.keychain(0).unwrap();
        let b = cfg.keychain(1).unwrap();
        let tag = a.channel(NodeId(1)).tag(b"hello");
        assert!(b.channel(NodeId(0)).verify(b"hello", &tag).is_ok());
    }

    #[test]
    fn out_of_order_entries_are_sorted_by_id() {
        // Consumers index nodes positionally, so a file listing entries
        // out of id order must still yield addresses()[i] == node i.
        let text = r#"
[cluster]
seed = "aa"
[[node]]
id = 1
address = "127.0.0.1:2"
[[node]]
id = 0
address = "127.0.0.1:1"
"#;
        let cfg = ClusterConfig::parse(text).unwrap();
        assert_eq!(cfg.nodes[0].id, 0);
        assert_eq!(cfg.addresses()[0], "127.0.0.1:1".parse().unwrap());
        assert_eq!(cfg.addresses()[1], "127.0.0.1:2".parse().unwrap());
    }

    #[test]
    fn duplicate_id_rejected() {
        let text = r#"
[cluster]
seed = "aa"
[[node]]
id = 0
address = "127.0.0.1:1"
[[node]]
id = 0
address = "127.0.0.1:2"
"#;
        assert_eq!(ClusterConfig::parse(text), Err(ConfigError::DuplicateId(0)));
    }

    #[test]
    fn non_contiguous_ids_rejected() {
        let text = r#"
[cluster]
seed = "aa"
[[node]]
id = 0
address = "127.0.0.1:1"
[[node]]
id = 5
address = "127.0.0.1:2"
"#;
        assert_eq!(
            ClusterConfig::parse(text),
            Err(ConfigError::NonContiguousIds { n: 2, offender: 5 })
        );
    }

    #[test]
    fn bad_address_rejected() {
        let text = r#"
[cluster]
seed = "aa"
[[node]]
id = 0
address = "not-an-address"
"#;
        assert_eq!(
            ClusterConfig::parse(text),
            Err(ConfigError::BadAddress { id: 0, value: "not-an-address".to_string() })
        );
    }

    #[test]
    fn missing_key_material_rejected() {
        let text = r#"
[cluster]
name = "keyless"
[[node]]
id = 0
address = "127.0.0.1:1"
"#;
        assert_eq!(ClusterConfig::parse(text), Err(ConfigError::MissingKey(0)));
    }

    #[test]
    fn node_key_satisfies_missing_cluster_seed() {
        let text = r#"
[cluster]
name = "keyless"
[[node]]
id = 0
address = "127.0.0.1:1"
key = "0102"
"#;
        let cfg = ClusterConfig::parse(text).unwrap();
        assert_eq!(cfg.key_material(0).unwrap(), &[1, 2]);
    }

    #[test]
    fn empty_config_rejected() {
        assert_eq!(ClusterConfig::parse("[cluster]\nseed = \"aa\"\n"), Err(ConfigError::Empty));
    }

    #[test]
    fn bad_hex_rejected() {
        for bad in ["zz", "abc", ""] {
            let text =
                format!("[cluster]\nseed = \"{bad}\"\n[[node]]\nid = 0\naddress = \"1.2.3.4:5\"\n");
            assert_eq!(
                ClusterConfig::parse(&text),
                Err(ConfigError::BadHex { value: bad.to_string() }),
                "hex {bad:?}"
            );
        }
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = ClusterConfig::parse("[cluster]\nseed = \n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 2, .. }), "{err}");
        let err = ClusterConfig::parse("id = 3\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 1, .. }), "{err}");
        let err = ClusterConfig::parse("[wat]\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 1, .. }), "{err}");
        let err = ClusterConfig::parse("[cluster]\nname = \"a\" trailing\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 2, .. }), "{err}");
    }

    #[test]
    fn unknown_keys_rejected() {
        let err = ClusterConfig::parse("[cluster]\nsede = \"aa\"\n").unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 2, .. }), "{err}");
        let text =
            "[cluster]\nseed = \"aa\"\n[[node]]\nid = 0\naddress = \"1.2.3.4:5\"\nport = 9\n";
        let err = ClusterConfig::parse(text).unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { line: 6, .. }), "{err}");
    }

    #[test]
    fn comments_respect_strings() {
        let text = "[cluster]\nseed = \"aa\"  # trailing comment\nname = \"has#hash\"\n[[node]]\nid = 0\naddress = \"127.0.0.1:9\"\n";
        let cfg = ClusterConfig::parse(text).unwrap();
        assert_eq!(cfg.name.as_deref(), Some("has#hash"));
    }

    #[test]
    fn missing_required_node_fields_rejected() {
        let text = "[cluster]\nseed = \"aa\"\n[[node]]\naddress = \"1.2.3.4:5\"\n";
        let err = ClusterConfig::parse(text).unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { .. }), "{err}");
        let text = "[cluster]\nseed = \"aa\"\n[[node]]\nid = 0\n";
        let err = ClusterConfig::parse(text).unwrap_err();
        assert!(matches!(err, ConfigError::Syntax { .. }), "{err}");
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            ConfigError::Syntax { line: 3, msg: "boom".to_string() },
            ConfigError::DuplicateId(1),
            ConfigError::NonContiguousIds { n: 2, offender: 7 },
            ConfigError::BadAddress { id: 0, value: "x".to_string() },
            ConfigError::MissingKey(2),
            ConfigError::BadHex { value: "zz".to_string() },
            ConfigError::Empty,
            ConfigError::UnknownNode(4),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
