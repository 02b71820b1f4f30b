//! A cluster file is text from outside the program: `ClusterConfig::parse`
//! never panics on any of it, and what it accepts is a deployment every
//! consumer can index — ids `0..n` in order, key material for each node —
//! that renders back to a file parsing to itself.

use delphi_net::config::ClusterConfig;
use proptest::prelude::*;

/// Fragments a cluster file is made of, and some it must refuse, split
/// at `|`: arbitrary text alone almost never forms a `key = value` line,
/// so the inputs are mostly spliced from these, with raw bytes between.
const PIECES: &str = "[cluster]|[[node]]|[node]|\n|\r\n| |=|\"|#|\\|name = |seed = |id = |\
                      address = |key = |port = |0|1|-1|65535|65536|99999999999999999999|\
                      \"127.0.0.1:7100\"|\"[::1]:9\"|\"not-an-address\"|\"00aaff\"|\"abc\"|\
                      \"zz\"|é|\u{1F600}";

/// Text spliced from [`PIECES`] (an index past them is one raw byte, read
/// lossily as UTF-8).
fn spliced(choices: &[(u8, u8)]) -> String {
    let mut out = Vec::new();
    for &(piece, raw) in choices {
        match PIECES.split('|').nth(usize::from(piece)) {
            Some(text) => out.extend_from_slice(text.as_bytes()),
            None => out.push(raw),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A whole cluster file: the `[cluster]` table, then one `[[node]]`
/// entry per choice, ids in order, every other one with its own key.
fn whole_file(choices: &[(u8, u8)]) -> String {
    let mut text = String::from("[cluster]\nseed = \"aa\"  # shared\n");
    for (id, &(piece, raw)) in choices.iter().enumerate() {
        text += &format!("\n[[node]]\nid = {id}\naddress = \"127.0.0.1:{raw}\"\n");
        if piece % 2 == 0 {
            text += &format!("key = \"{raw:02x}\"\n");
        }
    }
    text
}

/// What every answer of `ClusterConfig::parse(text)` must satisfy.
fn check(text: &str) {
    match ClusterConfig::parse(text) {
        Ok(cfg) => {
            assert!(cfg.n() > 0, "an empty deployment accepted from {text:?}");
            for (i, node) in cfg.nodes.iter().enumerate() {
                assert_eq!(usize::from(node.id), i, "{text:?}");
                assert!(cfg.key_material(node.id).is_ok(), "{text:?}");
            }
            assert_eq!(ClusterConfig::parse(&cfg.to_toml()).as_ref(), Ok(&cfg), "{text:?}");
        }
        Err(err) => assert!(!err.to_string().is_empty()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_arbitrary_text_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..400)) {
        check(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn prop_spliced_files_never_panic_at_any_cut(
        choices in proptest::collection::vec((0u8..36, any::<u8>()), 0..60),
    ) {
        // Every prefix too, at each character boundary: a file cut short.
        let text = spliced(&choices);
        for (cut, _) in text.char_indices() {
            check(&text[..cut]);
        }
        check(&text);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_whole_files_parse_and_survive_any_cut_or_splice(
        choices in proptest::collection::vec((0u8..36, any::<u8>()), 1..8),
    ) {
        // Every prefix of a file that parses, and the file with one of
        // the pieces spliced in anywhere.
        let text = whole_file(&choices);
        prop_assert!(ClusterConfig::parse(&text).is_ok(), "{text:?}");
        for (i, (cut, _)) in text.char_indices().enumerate() {
            check(&text[..cut]);
            let piece = spliced(&choices[i % choices.len()..][..1]);
            check(&[&text[..cut], &piece, &text[cut..]].concat());
        }
    }
}
