//! Micro-benchmarks for the per-component costs behind Table I's
//! computation column: hashing, MAC, wire codec, the BinAA quorum
//! machine's hot path, and the frame→protocol receive dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bytes::Bytes;
use delphi_bench::{oracle_config, spread_inputs};
use delphi_core::{DelphiBundle, DelphiBundleRef, DelphiConfig, DelphiNode, EchoKind, Section};
use delphi_crypto::{hmac_sha256, sha256, Keychain};
use delphi_net::{decode_inbound_frame_ref, encode_epoch_frame};
use delphi_primitives::wire::{Decode, Encode};
use delphi_primitives::{
    AgreementId, Dyadic, EpochConfig, EpochId, EpochMux, InstanceId, NodeId, Protocol, Round,
};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data_1k = vec![0xa5u8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1k", |b| b.iter(|| sha256(black_box(&data_1k))));
    group.bench_function("hmac_sha256_1k", |b| {
        b.iter(|| hmac_sha256(black_box(b"channel-key"), black_box(&data_1k)))
    });
    group.finish();

    c.bench_function("keychain_derive_n160", |b| {
        b.iter(|| Keychain::derive(black_box(b"seed"), NodeId(0), 160))
    });

    // The per-frame transport hot path: tagging a small frame under a
    // long-lived channel key. The precomputed pad states halve this.
    let kc = Keychain::derive(b"seed", NodeId(0), 160);
    let header = 42u16.to_be_bytes();
    let body = vec![0x3cu8; 40];
    c.bench_function("channel_tag_40B", |b| {
        b.iter(|| kc.channel(NodeId(1)).tag_segments(&[black_box(&header), black_box(&body)]))
    });
}

fn realistic_bundle() -> DelphiBundle {
    let mut bundle = DelphiBundle::new();
    for level in 0..11u8 {
        let mut s = Section::new(level, Round(12), EchoKind::Echo1);
        s.background = Some(Dyadic::ZERO);
        s.exclude = vec![20_000, 20_001, 20_002];
        s.entries = (0..6).map(|i| (19_998 + i, Dyadic::new(1 + 2 * i as u64, 12))).collect();
        bundle.sections.push(s);
    }
    bundle
}

fn bench_wire(c: &mut Criterion) {
    let bundle = realistic_bundle();
    let bytes = bundle.to_bytes();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_delphi_bundle", |b| b.iter(|| black_box(&bundle).to_bytes()));
    group.bench_function("decode_delphi_bundle", |b| {
        b.iter(|| DelphiBundle::from_bytes(black_box(&bytes)).expect("valid"))
    });
    // The zero-copy decoder on the frame path: one validating pass, no
    // owned bundle — what `DelphiNode::on_message` actually runs.
    group.bench_function("decode_delphi_bundle_borrowed", |b| {
        b.iter(|| DelphiBundleRef::parse(black_box(&bytes)).expect("valid"))
    });
    // Parse *and* walk every section, id, and value — the full
    // information extraction the owned decoder materializes, still with
    // zero allocations.
    group.bench_function("decode_delphi_bundle_borrowed_walk", |b| {
        b.iter(|| {
            let view = DelphiBundleRef::parse(black_box(&bytes)).expect("valid");
            let mut checksum = 0i64;
            for section in view.sections() {
                checksum = checksum.wrapping_add(i64::from(section.level));
                if let Some(bg) = section.background {
                    checksum = checksum.wrapping_add(bg.num() as i64);
                }
                for k in section.exclude() {
                    checksum = checksum.wrapping_add(k);
                }
                for (k, v) in section.entries() {
                    checksum = checksum.wrapping_add(k).wrapping_add(v.num() as i64);
                }
            }
            checksum
        })
    });
    group.finish();
}

/// The receive-dispatch hot path: verify + borrowed split + shard routing
/// of authenticated epoch frames through the same `SessionSet`-facing
/// machinery the TCP read loop runs, at shard counts 1/2/4. Reported as
/// entries/second (`Throughput::Elements`); the shard sweep shows the
/// sharded routing walk adds ~nothing over the unsharded path.
fn bench_dispatch(c: &mut Criterion) {
    let n = 4;
    let assets = 8u16;
    let alice = Keychain::derive(b"dispatch-bench", NodeId(0), n);
    let bob = Keychain::derive(b"dispatch-bench", NodeId(1), n);
    // A realistic inbound burst: one epoch frame per peer step, each
    // carrying one 40-byte entry per asset (the fig_throughput shape).
    let frames: Vec<Bytes> = (0..16u32)
        .map(|step| {
            let entries: Vec<(AgreementId, Bytes)> = (0..assets)
                .map(|a| {
                    (AgreementId::new(EpochId(step), InstanceId(a)), Bytes::from(vec![a as u8; 40]))
                })
                .collect();
            encode_epoch_frame(&alice, NodeId(1), &entries)
        })
        .collect();
    let total_entries = frames.len() as u64 * u64::from(assets);

    let mut group = c.benchmark_group("dispatch");
    group.throughput(Throughput::Elements(total_entries));
    for shards in [1usize, 2, 4] {
        let name = format!("recv_entries_shard{shards}");
        group.bench_function(&name, |b| {
            b.iter(|| {
                let mut per_shard = [0u64; 8];
                for frame in &frames {
                    let (_, entries) =
                        decode_inbound_frame_ref(&bob, black_box(&frame[4..])).expect("authentic");
                    for (id, payload) in entries.iter() {
                        per_shard[id.shard(shards)] += payload.len() as u64;
                    }
                }
                per_shard
            })
        });
    }

    // The egress mirror: partition one step's entries into shard-class
    // groups and encode + MAC one epoch frame per group — what a single
    // `EgressLane` does per flush, so `send_entries_shard{k}` rows track
    // the per-lane cost of the sharded send pipeline exactly as
    // `recv_entries_shard{k}` tracks sharded dispatch.
    let step_entries: Vec<(AgreementId, Bytes)> = (0..16u32)
        .flat_map(|step| {
            (0..assets).map(move |a| {
                (AgreementId::new(EpochId(step), InstanceId(a)), Bytes::from(vec![a as u8; 40]))
            })
        })
        .collect();
    for shards in [1usize, 2, 4] {
        let name = format!("send_entries_shard{shards}");
        group.bench_function(&name, |b| {
            b.iter(|| {
                let mut groups: Vec<Vec<(AgreementId, Bytes)>> = vec![Vec::new(); shards];
                for (id, payload) in &step_entries {
                    groups[id.shard(shards)].push((*id, payload.clone()));
                }
                let mut bytes = 0usize;
                for group in &groups {
                    if !group.is_empty() {
                        bytes += encode_epoch_frame(&alice, NodeId(1), group).len();
                    }
                }
                bytes
            })
        });
    }
    group.finish();
}

fn bench_bv_round(c: &mut Criterion) {
    use delphi_core::bv::BvRound;
    let n = 160;
    let t = 53;
    c.bench_function("bv_round_full_quorum_n160", |b| {
        b.iter_batched(
            || {
                let mut bv = BvRound::new(NodeId(0), n, t);
                let _ = bv.set_input(Dyadic::ONE);
                bv
            },
            |mut bv| {
                // A full wave of echoes from every peer.
                for i in 1..n as u16 {
                    let _ = bv.on_echo1(NodeId(i), Dyadic::ONE);
                }
                for i in 1..n as u16 {
                    let _ = bv.on_echo2(NodeId(i), Dyadic::ONE);
                }
                assert!(bv.is_terminated());
                bv
            },
            BatchSize::SmallInput,
        )
    });

    // The frontier workload: echoes spread over many distinct values, so
    // quorum detection rides the cached per-value counts and crossing
    // queues instead of (pre-frontier) rescanning every value list on
    // every progress step.
    let mut group = c.benchmark_group("core");
    group.bench_function("bv_round", |b| {
        b.iter_batched(
            || {
                let mut bv = BvRound::new(NodeId(0), n, t);
                let _ = bv.set_input(Dyadic::ONE);
                bv
            },
            |mut bv| {
                for i in 1..n as u16 {
                    let _ = bv.on_echo1(NodeId(i), Dyadic::new(u64::from(i % 8), 3));
                }
                for i in 1..n as u16 {
                    let _ = bv.on_echo1(NodeId(i), Dyadic::ONE);
                }
                for i in 1..n as u16 {
                    let _ = bv.on_echo2(NodeId(i), Dyadic::ONE);
                }
                assert!(bv.is_terminated());
                bv
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Runs `n` honest Delphi nodes over a FIFO mesh and returns every
/// message node 0 was handed, in delivery order.
fn record_node0_inbox(cfg: &DelphiConfig, inputs: &[f64]) -> Vec<(NodeId, Bytes)> {
    let n = cfg.n();
    let mut nodes: Vec<DelphiNode> =
        NodeId::all(n).map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()])).collect();
    let mut queue: std::collections::VecDeque<(NodeId, Bytes)> = Default::default();
    for node in &mut nodes {
        let me = node.node_id();
        queue.extend(node.start().into_iter().map(|env| (me, env.payload)));
    }
    let mut inbox = Vec::new();
    while let Some((from, payload)) = queue.pop_front() {
        for to in NodeId::all(n).filter(|&to| to != from) {
            if to == NodeId(0) {
                inbox.push((from, payload.clone()));
            }
            let replies = nodes[to.index()].on_message(from, &payload);
            queue.extend(replies.into_iter().map(|reply| (to, reply.payload)));
        }
    }
    inbox
}

/// The protocol core as the streaming oracle drives it at n = 16: what
/// one received message costs a node in the middle of an agreement, and
/// what it costs to open and retire an epoch.
fn bench_delphi_node(c: &mut Criterion) {
    // The paper's oracle parameters (11 levels of 23 rounds, the shape
    // `fig_e2e` runs) with inputs 0.7 apart.
    let n = 16;
    let cfg = oracle_config(n, 2.0);
    let inputs = spread_inputs(n, 40_005.25, 10.5);
    let inbox = record_node0_inbox(&cfg, &inputs);

    // A node halfway through the recorded run, advanced to the next
    // message that spans most levels (nine sections or more; in this
    // lock-step mesh bundles carry 1, 2, 9 or 18) and triggers no answer
    // — the common case: over nine in ten messages are quiet. The timed
    // call re-delivers it. Its echoes find their sender bit already set;
    // everything before that (parse, scratch refill, checkpoint and round
    // lookups, value scans, the advance check) is the work every such
    // message does, and the node's state does not drift between
    // iterations.
    let mut node = DelphiNode::new(cfg.clone(), NodeId(0), inputs[0]);
    let _ = node.start();
    let mut replay = inbox.iter();
    for (from, payload) in replay.by_ref().take(inbox.len() / 2) {
        let _ = node.on_message(*from, payload);
    }
    let (from, payload) = replay
        .find(|(from, payload)| {
            let sections = DelphiBundleRef::parse(payload).map_or(0, |bundle| bundle.len());
            node.on_message(*from, payload).is_empty() && sections >= 9
        })
        .expect("a quiet multi-level bundle in the second half of the run");

    let mut group = c.benchmark_group("core");
    group.bench_function("delphi_on_message_n16", |b| {
        b.iter(|| node.on_message(black_box(*from), black_box(payload)))
    });

    // One epoch of a 2-asset stream: build both Delphi nodes, run their
    // start bursts, drop everything — the per-epoch fixed cost of the
    // pipeline (`fill_pipeline` + eviction), dominated by how much state
    // a fresh node reserves up front.
    group.bench_function("epoch_spawn_evict", |b| {
        b.iter(|| {
            let cfg = cfg.clone();
            let mut mux = EpochMux::new(
                EpochConfig::new(1, 2, 1, 1, cfg.t()),
                NodeId(0),
                n,
                Box::new(move |_, asset| {
                    DelphiNode::new(cfg.clone(), NodeId(0), 40_000.0 + f64::from(asset.0))
                }),
            );
            mux.start()
        })
    });
    group.finish();
}

fn bench_dyadic(c: &mut Criterion) {
    let a = Dyadic::new(123_456_789, 30);
    let b_val = Dyadic::new(987_654_321, 31);
    c.bench_function("dyadic_midpoint", |b| b.iter(|| black_box(a).midpoint(black_box(b_val))));
    c.bench_function("dyadic_cmp", |b| b.iter(|| black_box(a).cmp(&black_box(b_val))));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_crypto, bench_wire, bench_dispatch, bench_bv_round, bench_delphi_node,
        bench_dyadic
}
criterion_main!(benches);
