//! The wire, pinned: every payload of two recorded n = 4 FIFO meshes —
//! one scalar agreement, and a basket of four assets as one vector
//! instance — hashed in send order with FNV-1a and compared against
//! digests recorded when the layouts were last changed on purpose. A
//! refactor that alters a single byte an honest node sends, or the order
//! it sends them in, fails here.

use std::collections::VecDeque;

use delphi_core::{DelphiConfig, DelphiNode, VectorDelphiNode};
use delphi_primitives::{NodeId, Protocol};

fn cfg() -> DelphiConfig {
    DelphiConfig::builder(4)
        .space(0.0, 1000.0)
        .rho0(1.0)
        .delta_max(32.0)
        .epsilon(1.0)
        .build()
        .expect("valid parameters")
}

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Runs `n` honest nodes over a FIFO mesh (every broadcast delivered to
/// every peer before the next one) and digests what they send: message
/// count, payload bytes, and the FNV-1a hash of every `(sender, length,
/// payload)` in send order.
fn mesh_digest<N: Protocol>(n: usize, make: impl Fn(NodeId) -> N) -> (usize, usize, u64) {
    let mut nodes: Vec<N> = NodeId::all(n).map(make).collect();
    let mut queue = VecDeque::new();
    for node in &mut nodes {
        let me = node.node_id();
        queue.extend(node.start().into_iter().map(|env| (me, env.payload)));
    }
    let (mut count, mut bytes, mut hash) = (0usize, 0usize, 0xcbf2_9ce4_8422_2325u64);
    while let Some((from, payload)) = queue.pop_front() {
        count += 1;
        bytes += payload.len();
        hash = fnv1a(hash, &from.0.to_le_bytes());
        hash = fnv1a(hash, &(payload.len() as u64).to_le_bytes());
        hash = fnv1a(hash, &payload);
        for to in NodeId::all(n).filter(|&to| to != from) {
            let replies = nodes[to.index()].on_message(from, &payload);
            queue.extend(replies.into_iter().map(|reply| (to, reply.payload)));
        }
    }
    assert!(nodes.iter().all(|node| node.output().is_some()), "mesh terminated");
    (count, bytes, hash)
}

#[test]
fn scalar_mesh_payloads_are_pinned() {
    let inputs = [500.2, 499.8, 500.5, 493.0];
    let digest = mesh_digest(4, |id| DelphiNode::new(cfg(), id, inputs[id.index()]));
    assert_eq!(digest, (231, 5_598, 0x8cd0_b142_0616_6686));
}

#[test]
fn basket_mesh_payloads_are_pinned() {
    let inputs = |id: NodeId| -> Vec<f64> {
        (0..4).map(|d| 150.0 + 180.0 * f64::from(d) + 0.3 * id.index() as f64).collect()
    };
    let digest = mesh_digest(4, |id| VectorDelphiNode::new(cfg(), id, &inputs(id)));
    assert_eq!(digest, (96, 12_576, 0x5622_ddfe_7545_c8e5));
}
