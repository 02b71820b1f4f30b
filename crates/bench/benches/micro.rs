//! Micro-benchmarks for the per-component costs behind Table I's
//! computation column: hashing, MAC, wire codec, the BinAA quorum
//! machine's hot path, and the frame→protocol receive dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bytes::Bytes;
use delphi_bench::{oracle_config, spread_inputs};
use delphi_core::{
    BasketBundle, BasketBundleRef, BasketSection, BundleArena, DelphiBundleRef, DelphiNode,
    EchoKind, VectorDelphiNode,
};
use delphi_crypto::{hmac_sha256, sha256, Keychain};
use delphi_net::{decode_inbound_frame_ref, encode_epoch_frame};
use delphi_primitives::epoch::encode_epoch_batch;
use delphi_primitives::wire::VectorValue;
use delphi_primitives::{
    AgreementId, Dyadic, Envelope, EpochConfig, EpochId, EpochProtocol, FlushPolicy, InstanceId,
    NodeId, Protocol, Recipient, Round,
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

/// A scalar node's bundle: one dimension, every echo in dimension 0.
fn realistic_bundle() -> BasketBundle {
    let mut bundle = BasketBundle::default();
    for level in 0..11u8 {
        let mut s = BasketSection::new(level, Round(12), EchoKind::Echo1);
        s.backgrounds.set(0, Dyadic::ZERO);
        s.exclude = vec![(20_000, 1), (20_001, 1), (20_002, 1)];
        s.entries = (0..6)
            .map(|i| (19_998 + i, VectorValue::single(0, Dyadic::new(1 + 2 * i as u64, 12))))
            .collect();
        bundle.sections.push(s);
    }
    bundle
}

fn realistic_basket_bundle() -> BasketBundle {
    let mut bundle = BasketBundle::default();
    for level in 0..11u8 {
        let mut s = BasketSection::new(level, Round(12), EchoKind::Echo2);
        for dim in 0..8u16 {
            s.backgrounds.set(dim, Dyadic::ZERO);
            // Each asset's checkpoints sit at its own price.
            let base = 20_000 + 3_000 * i64::from(dim);
            s.exclude.push((base, 1 << dim));
            for i in 0..2 {
                let value = Dyadic::new(1 + 2 * (u64::from(dim) + i as u64), 12);
                s.entries.push((base + 1 + i, VectorValue::single(dim, value)));
            }
        }
        bundle.sections.push(s);
    }
    bundle
}

fn bench_wire(c: &mut Criterion) {
    let bundle = realistic_bundle();
    let bytes = bundle.to_bytes(1);
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("encode_delphi_bundle", |b| b.iter(|| black_box(&bundle).to_bytes(1)));
    // The validating shim: the decode pass with nowhere to store — what a
    // caller pays to learn a bundle is well-formed and how many sections
    // it has.
    group.bench_function("decode_delphi_bundle_borrowed", |b| {
        b.iter(|| DelphiBundleRef::parse(black_box(&bytes)).expect("valid"))
    });
    // What `DelphiNode::on_message` actually runs: one pass into the
    // node's flat arena, then a walk of every section, id and value out
    // of it — the full information extraction an owned decoder would
    // materialize, with zero allocations. The arena answers a repeat of
    // its last bundle without decoding, so the timed calls alternate
    // between two bundles of one shape that differ in their round.
    let mut twin = bundle.clone();
    twin.sections.iter_mut().for_each(|s| s.round = Round(13));
    let inputs = [bytes.clone(), twin.to_bytes(1)];
    let mut arena = BundleArena::new(1);
    let mut turn = 0;
    group.bench_function("decode_delphi_bundle_flat", |b| {
        b.iter(|| {
            turn ^= 1;
            arena.decode(black_box(&inputs[turn])).expect("valid");
            let mut checksum = 0i64;
            for section in arena.sections() {
                checksum = checksum.wrapping_add(i64::from(section.level));
                for &bg in section.backgrounds {
                    checksum = checksum.wrapping_add(bg.num() as i64);
                }
                for &k in section.exclude {
                    checksum = checksum.wrapping_add(k);
                }
                for (&k, v) in section.entries.iter().zip(section.entry_values) {
                    checksum = checksum.wrapping_add(k).wrapping_add(v.num() as i64);
                }
            }
            checksum
        })
    });
    // The same for the basket codec: eight dimensions behind one id run
    // per section (backgrounds, a masked exclude run, one-dimension
    // entries — the shape a basket-8 vector node exchanges).
    let basket = realistic_basket_bundle();
    let mut twin = basket.clone();
    twin.sections.iter_mut().for_each(|s| s.round = Round(13));
    let inputs = [basket.to_bytes(8), twin.to_bytes(8)];
    let mut arena = BundleArena::new(8);
    group.throughput(Throughput::Bytes(inputs[0].len() as u64));
    group.bench_function("decode_basket_bundle_flat", |b| {
        b.iter(|| {
            turn ^= 1;
            arena.decode(black_box(&inputs[turn])).expect("valid");
            let mut checksum = 0i64;
            for section in arena.sections() {
                checksum = checksum.wrapping_add(i64::from(section.level));
                for (dim, bg) in section.background_dims() {
                    checksum = checksum.wrapping_add(i64::from(dim) + bg.num() as i64);
                }
                for (k, mask) in section.basket_exclude() {
                    checksum = checksum.wrapping_add(k).wrapping_add(mask as i64);
                }
                for (k, mask, values) in section.basket_entries() {
                    checksum = checksum.wrapping_add(k).wrapping_add(mask as i64);
                    for v in values {
                        checksum = checksum.wrapping_add(v.num() as i64);
                    }
                }
            }
            checksum
        })
    });
    group.finish();
}

/// The dispatch worker's two codec halves, as entries/second
/// (`Throughput::Elements`). `recv_entries`: verify + borrowed split +
/// entry walk of authenticated epoch frames, what the TCP read loop
/// and the worker's re-split do per frame. `send_entries`: the worker's
/// `EpochProtocol` from entry to flushed batch — one protocol step per
/// inbound entry, its broadcasts accumulated under the flush policy and
/// encoded as one batch per flush — plus one hash of each batch and a
/// frame tag over it for each peer. Both are per-frame MAC work plus a
/// per-entry walk.
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
    group.bench_function("recv_entries", |b| {
        b.iter(|| {
            let mut bytes = 0u64;
            for frame in &frames {
                let (_, entries) =
                    decode_inbound_frame_ref(&bob, black_box(&frame[4..])).expect("authentic");
                for (_, payload) in entries.iter() {
                    bytes += payload.len() as u64;
                }
            }
            bytes
        })
    });

    // The egress mirror, with the same entry count: 16 inbound batches of
    // one entry per asset, each entry answered with one 40-byte broadcast
    // to the two peers of a 3-node mesh. An adaptive policy cut at 8
    // entries flushes one batch of 8 entries per inbound batch, hashed
    // once and tagged for each peer: 16 batches, 32 tags.
    struct Answer(Bytes);
    impl Protocol for Answer {
        type Output = ();
        fn node_id(&self) -> NodeId {
            NodeId(0)
        }
        fn n(&self) -> usize {
            3
        }
        fn start(&mut self) -> Vec<Envelope> {
            Vec::new()
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            vec![Envelope::to_all(self.0.clone())]
        }
        fn output(&self) -> Option<()> {
            None
        }
    }
    let inbound: Vec<Bytes> = (0..16u32)
        .map(|step| {
            let entries: Vec<(AgreementId, Bytes)> = (0..assets)
                .map(|a| (AgreementId::new(EpochId(step), InstanceId(a)), Bytes::from_static(b"q")))
                .collect();
            encode_epoch_batch(&entries)
        })
        .collect();
    let flush = FlushPolicy::Adaptive {
        max_entries: usize::from(assets),
        max_bytes: usize::MAX,
        max_delay: std::time::Duration::from_millis(1),
    };
    group.throughput(Throughput::Elements(2 * total_entries));
    group.bench_function("send_entries", |b| {
        b.iter_batched(
            || {
                let cfg = EpochConfig::new(16, assets, 16, 16);
                let factory = |_, a: InstanceId| Answer(Bytes::from(vec![a.0 as u8; 40]));
                let mut node = EpochProtocol::new(cfg, NodeId(0), 3, Box::new(factory), flush);
                assert!(node.start().is_empty());
                node
            },
            |mut node| {
                let mut tags = 0u8;
                for batch in &inbound {
                    for env in node.on_message(NodeId(2), batch) {
                        assert_eq!(env.to, Recipient::All);
                        let digest = sha256(&env.payload);
                        for peer in [1u16, 2] {
                            tags ^= alice.channel(NodeId(peer)).tag(&digest)[0];
                        }
                    }
                }
                tags
            },
            BatchSize::SmallInput,
        )
    });
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
fn record_node0_inbox<N: Protocol>(n: usize, make: impl Fn(NodeId) -> N) -> Vec<(NodeId, Bytes)> {
    let mut nodes: Vec<N> = NodeId::all(n).map(make).collect();
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

/// A node halfway through its recorded run, advanced to the next message
/// that spans most levels (`sections` says how many a payload carries;
/// nine or more of the eleven levels) and triggers no answer — the common
/// case: over nine in ten messages are quiet. Timed calls re-deliver that
/// message. Its echoes find their sender bit already set; everything
/// before that (decode into the arena, checkpoint and round lookups,
/// value scans, the advance check) is the work every such message does,
/// and the node's state does not drift between iterations.
fn mid_run_quiet_message<N: Protocol>(
    mut node: N,
    inbox: &[(NodeId, Bytes)],
    sections: impl Fn(&[u8]) -> usize,
) -> (N, NodeId, Bytes) {
    let _ = node.start();
    let mut replay = inbox.iter();
    for (from, payload) in replay.by_ref().take(inbox.len() / 2) {
        let _ = node.on_message(*from, payload);
    }
    let (from, payload) = replay
        .find(|(from, payload)| {
            node.on_message(*from, payload).is_empty() && sections(payload) >= 9
        })
        .expect("a quiet multi-level bundle in the second half of the run");
    (node, *from, payload.clone())
}

/// The protocol core as the streaming oracle drives it at n = 16: what
/// one received message costs a node in the middle of an agreement —
/// scalar, and a basket of 8 as one vector instance — and what it costs
/// to open and retire an epoch.
fn bench_delphi_node(c: &mut Criterion) {
    // The paper's oracle parameters (11 levels of 23 rounds, the shape
    // `fig_e2e` runs) with inputs 0.7 apart.
    let n = 16;
    let cfg = oracle_config(n, 2.0);
    let inputs = spread_inputs(n, 40_005.25, 10.5);
    let scalar = |id: NodeId| DelphiNode::new(cfg.clone(), id, inputs[id.index()]);
    let inbox = record_node0_inbox(n, scalar);
    let (mut node, from, payload) = mid_run_quiet_message(scalar(NodeId(0)), &inbox, |payload| {
        DelphiBundleRef::parse(payload).map_or(0, |bundle| bundle.len())
    });

    let mut group = c.benchmark_group("core");
    group.bench_function("delphi_on_message_n16", |b| {
        b.iter(|| node.on_message(black_box(from), black_box(&payload)))
    });

    // The same call as a node meets it in situ: the whole recorded inbox,
    // replayed round-robin over 64 independent copies of node 0, so each
    // call finds its agreement state where 63 other agreements' worth of
    // traffic left it — out of cache. The row above re-delivers one
    // message to hot state and cannot see where the state lives; this one
    // sees little else. The copies start staggered evenly over the inbox,
    // so every stretch of calls meets each phase of a run (early
    // fork-heavy bundles, late byte-equal repeats) in the same share. A
    // copy past the end of the inbox is swapped for a fresh one built
    // before the sample, outside the timed region.
    const COPIES: usize = 64;
    let fresh = || {
        let mut node = scalar(NodeId(0));
        let _ = node.start();
        node
    };
    let mut copies: Vec<(DelphiNode, usize)> = (0..COPIES)
        .map(|k| {
            let (mut node, at) = (fresh(), k * inbox.len() / COPIES);
            for (from, payload) in &inbox[..at] {
                let _ = node.on_message(*from, payload);
            }
            (node, at)
        })
        .collect();
    let (mut spares, mut retired) = (Vec::new(), Vec::new());
    let mut turn = 0usize;
    group.bench_function("delphi_on_message_n16_cold", |b| {
        retired.clear();
        spares.resize_with(COPIES, fresh);
        b.iter(|| {
            turn = (turn + 1) % COPIES;
            let (node, at) = &mut copies[turn];
            if *at == inbox.len() {
                retired.push(std::mem::replace(node, spares.pop().unwrap_or_else(fresh)));
                *at = 0;
            }
            let (from, payload) = &inbox[*at];
            *at += 1;
            node.on_message(black_box(*from), black_box(payload))
        })
    });

    // Eight assets 3 000 apart, each with the scalar run's spread.
    let basket = |id: NodeId| {
        let prices: Vec<f64> =
            (0..8).map(|d| inputs[id.index()] + 3_000.0 * f64::from(d)).collect();
        VectorDelphiNode::new(cfg.clone(), id, &prices)
    };
    let (mut vector_node, from, payload) =
        mid_run_quiet_message(basket(NodeId(0)), &record_node0_inbox(n, basket), |payload| {
            BasketBundleRef::parse(payload).map_or(0, |bundle| bundle.len())
        });
    group.bench_function("vector_on_message_n16", |b| {
        b.iter(|| vector_node.on_message(black_box(from), black_box(&payload)))
    });

    // One epoch of a 2-asset stream: build both Delphi nodes, run their
    // start bursts into one batch for every peer, drop everything — the
    // per-epoch fixed cost of the pipeline (`fill_pipeline` + eviction +
    // the start step's flush), dominated by how much state a fresh node
    // reserves up front.
    group.bench_function("epoch_spawn_evict", |b| {
        b.iter(|| {
            let cfg = cfg.clone();
            let mut node = EpochProtocol::new(
                EpochConfig::new(1, 2, 1, 1),
                NodeId(0),
                n,
                Box::new(move |_, asset| {
                    DelphiNode::new(cfg.clone(), NodeId(0), 40_000.0 + f64::from(asset.0))
                }),
                FlushPolicy::PerStep,
            );
            node.start()
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
