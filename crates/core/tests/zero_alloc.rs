//! The flat agreement-state invariant, measured: an honest BinAA round
//! and a steady-state Delphi message allocate nothing.
//!
//! A counting global allocator (per-thread counters, so tests running in
//! parallel do not disturb each other) brackets exactly the calls under
//! test. `unsafe` is confined to forwarding to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;
use delphi_core::bv::BvRound;
use delphi_core::{DelphiConfig, DelphiNode};
use delphi_primitives::{Dyadic, NodeId, Protocol};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<u64>` with no destructor and never allocates. `realloc` keeps its
// default (alloc + copy + dealloc), so growth is counted too.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations `work` performs on this thread.
fn allocations_in<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn honest_round_allocates_nothing() {
    // n = 16, t = 5: our input, fifteen peers' ECHO1 and ECHO2, split over
    // the adjacent pair {0, 1/2} as honest round values are. Creating the
    // round is part of the measurement: its state is one flat value.
    let (n, t) = (16, 5);
    let (low, high) = (Dyadic::ZERO, Dyadic::new(1, 1));
    let (allocations, round) = allocations_in(|| {
        let mut round = BvRound::new(NodeId(0), n, t);
        let mut echoed = 0;
        echoed += round.set_input(low).into_iter().count();
        for peer in 1..n as u16 {
            let value = if peer % 3 == 0 { high } else { low };
            echoed += round.on_echo1(NodeId(peer), value).into_iter().count();
        }
        for peer in 1..n as u16 {
            echoed += round.on_echo2(NodeId(peer), low).into_iter().count();
        }
        assert_eq!(echoed, 2, "our ECHO1 and our ECHO2");
        round
    });
    assert!(round.is_terminated());
    assert_eq!(allocations, 0, "an honest n = 16 round must stay off the heap");
}

#[test]
fn byzantine_values_are_what_spills_to_the_heap() {
    // The counter does see BvRound allocations when there are any: a
    // third and fourth value cannot fit the inline slots.
    let mut round = BvRound::new(NodeId(0), 16, 5);
    let _ = round.set_input(Dyadic::ZERO);
    let _ = round.on_echo1(NodeId(1), Dyadic::ONE);
    let (allocations, ()) = allocations_in(|| {
        let _ = round.on_echo1(NodeId(15), Dyadic::new(1, 2));
        let _ = round.on_echo1(NodeId(15), Dyadic::new(3, 2));
    });
    assert!(allocations > 0);
}

fn paper_config(n: usize) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(2.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()
        .expect("the paper's oracle parameters")
}

/// Runs `n` honest nodes over a FIFO mesh and returns every message node
/// 0 was handed, in delivery order.
fn record_node0_inbox(cfg: &DelphiConfig, inputs: &[f64]) -> Vec<(NodeId, Bytes)> {
    let n = cfg.n();
    let mut nodes: Vec<DelphiNode> =
        NodeId::all(n).map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()])).collect();
    let mut queue: VecDeque<(NodeId, Bytes)> = VecDeque::new();
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
    assert!(nodes.iter().all(|node| node.output().is_some()), "mesh terminated");
    inbox
}

#[test]
fn steady_state_messages_allocate_nothing() {
    // Replay a recorded n = 16 run into node 0. A message that makes node
    // 0 answer allocates for the answer, and the first echo of a round
    // allocates that round's state; everything else — the bulk of the
    // traffic — must run allocation-free: parse, scratch refill, every
    // map walk, every quorum update, the advance check.
    let n = 16;
    let cfg = paper_config(n);
    let inputs: Vec<f64> = (0..n).map(|i| 40_000.0 + 0.7 * i as f64).collect();
    let inbox = record_node0_inbox(&cfg, &inputs);

    let mut node = DelphiNode::new(cfg, NodeId(0), inputs[0]);
    let _ = node.start();
    let (mut quiet, mut quiet_and_free) = (0usize, 0usize);
    for (from, payload) in &inbox {
        let (allocations, replies) = allocations_in(|| node.on_message(*from, payload));
        if replies.is_empty() {
            quiet += 1;
            quiet_and_free += usize::from(allocations == 0);
        }
    }
    assert!(node.output().is_some(), "replay reaches the decision");
    // The few quiet messages that do allocate open a round ahead of our
    // own entry into it (one box per instance touched) or fork a
    // checkpoint; in this run that is 10 of 1718.
    assert!(quiet * 2 > inbox.len(), "most messages trigger nothing: {quiet}/{}", inbox.len());
    assert!(
        quiet_and_free * 100 >= quiet * 95,
        "steady-state receive path allocates: only {quiet_and_free} of {quiet} quiet messages were free"
    );
}
