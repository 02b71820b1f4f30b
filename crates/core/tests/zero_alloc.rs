//! The flat agreement-state invariant, measured: an honest BinAA round
//! and a steady-state Delphi message — scalar or basket — allocate
//! nothing, an answering call allocates only what leaves the node, a
//! checkpoint fork at most one block, and a new node no round state.
//!
//! A counting global allocator (per-thread counters, so tests running in
//! parallel do not disturb each other) brackets exactly the calls under
//! test. `unsafe` is confined to forwarding to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;
use delphi_core::bv::BvRound;
use delphi_core::{DelphiConfig, DelphiNode, VectorDelphiNode};
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
    // the adjacent pair {0, 1/2} as honest round values are. A standalone
    // round owns one block, its sender sets; running it adds none.
    let (n, t) = (16, 5);
    let (low, high) = (Dyadic::ZERO, Dyadic::new(1, 1));
    let (created, mut round) = allocations_in(|| BvRound::new(NodeId(0), n, t));
    assert_eq!(created, 1, "the sender sets");
    let (allocations, ()) = allocations_in(|| {
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
fn record_node0_inbox<N: Protocol>(n: usize, make: impl Fn(NodeId) -> N) -> Vec<(NodeId, Bytes)> {
    let mut nodes: Vec<N> = NodeId::all(n).map(make).collect();
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

/// What a node answers with: the payload's bytes, the payload's shared
/// box, and the one-envelope vector. Nothing else of an answer is new
/// memory — sections, exclude runs and the encode buffer are the node's
/// own scratch.
const ANSWER_BLOCKS: u64 = 3;

/// What a forked checkpoint costs at most: a fork is a column inserted
/// into its level's round table, in place — unless the level has outgrown
/// the cell block, the sender-set block or the inline checkpoint run,
/// which then regrows. The three grow at different widths, so never two
/// in one fork.
const FORK_BLOCKS: u64 = 1;

/// Replays a recorded inbox into `node` and holds every call to its
/// allocation budget:
///
/// - a **quiet** message (no answer) allocates *nothing* — decode into
///   the arena, every map walk, every quorum update, the advance check,
///   finishing a level — unless it grows the node: at most
///   [`FORK_BLOCKS`] per checkpoint it forks, and `output_blocks` when it
///   is the one that stores the output;
/// - an **answering** call adds exactly [`ANSWER_BLOCKS`], once the
///   collector's section pool has grown to its working set (asserted
///   over the second half of the run, and for nine answers in ten
///   overall).
///
/// `actives` counts the node's distinguished checkpoints.
fn replay_within_budget<N: Protocol>(
    mut node: N,
    inbox: &[(NodeId, Bytes)],
    actives: impl Fn(&N) -> usize,
    output_blocks: u64,
) {
    let _ = node.start();
    let (mut steady, mut answering, mut answering_exact) = (0usize, 0usize, 0usize);
    for (i, (from, payload)) in inbox.iter().enumerate() {
        let before = (actives(&node), node.output().is_some());
        let (allocations, replies) = allocations_in(|| node.on_message(*from, payload));
        let forks = (actives(&node) - before.0) as u64;
        let decided = node.output().is_some() && !before.1;
        let growth = FORK_BLOCKS * forks + if decided { output_blocks } else { 0 };
        if replies.is_empty() {
            steady += usize::from(growth == 0);
            assert!(
                allocations <= growth,
                "quiet message {i} from {from:?}: {allocations} blocks, {growth} for growth"
            );
        } else {
            answering += 1;
            answering_exact += usize::from(allocations == ANSWER_BLOCKS);
            if i >= inbox.len() / 2 {
                assert!(
                    (ANSWER_BLOCKS..=ANSWER_BLOCKS + growth).contains(&allocations),
                    "answer {i}: {allocations} blocks, {growth} for growth"
                );
            }
        }
    }
    assert!(node.output().is_some(), "replay reaches the decision");
    assert!(steady * 2 > inbox.len(), "most messages are steady: {steady}/{}", inbox.len());
    assert!(
        answering_exact * 10 >= answering * 9,
        "only {answering_exact} of {answering} answers cost exactly {ANSWER_BLOCKS} blocks"
    );
}

#[test]
fn new_nodes_allocate_no_round_state() {
    // Round tables are lazy: a node is born with its inputs, one run of
    // level tables, each table's introduction budgets, and its decode
    // arena (four runs, three without per-id masks) — nothing per round,
    // so set-up and epoch spawn do not pay for the layout. The start burst
    // is what opens round 1: two blocks per table.
    let cfg = paper_config(16);
    let levels = u64::from(cfg.l_max()) + 1;
    let arena = 4;

    let config = cfg.clone();
    let (blocks, mut node) = allocations_in(|| DelphiNode::new(config, NodeId(0), 40_000.0));
    assert!(blocks <= 1 + levels + arena, "scalar node: {blocks} blocks");
    let (blocks, _) = allocations_in(|| node.start());
    assert!(blocks >= 2 * levels, "the start burst opens every table: {blocks} blocks");

    let (config, prices) = (cfg.clone(), [40_000.0; 8]);
    let (blocks, mut node) = allocations_in(|| VectorDelphiNode::new(config, NodeId(0), &prices));
    let tables = levels * prices.len() as u64;
    assert!(blocks <= 2 + levels + tables + arena, "vector node: {blocks} blocks");
    let (blocks, _) = allocations_in(|| node.start());
    assert!(blocks >= 2 * tables, "the start burst opens every table: {blocks} blocks");
}

#[test]
fn steady_state_messages_allocate_nothing() {
    // A recorded n = 16 scalar agreement, replayed into node 0.
    let n = 16;
    let cfg = paper_config(n);
    let inputs: Vec<f64> = (0..n).map(|i| 40_000.0 + 0.7 * i as f64).collect();
    let inbox = record_node0_inbox(n, |id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]));

    let node = DelphiNode::new(cfg.clone(), NodeId(0), inputs[0]);
    let actives =
        |node: &DelphiNode| (0..=cfg.l_max()).map(|level| node.active_checkpoints(level)).sum();
    // The decision stores a vector of one output: a scalar node is the
    // one machine over a basket of one.
    replay_within_budget(node, &inbox, actives, 1);
}

#[test]
fn steady_state_basket_messages_allocate_nothing() {
    // The same recording for a basket of 8 as one vector instance: no
    // per-entry value set, no scratch refill.
    let n = 16;
    let cfg = paper_config(n);
    let inputs = |id: NodeId| -> Vec<f64> {
        (0..8).map(|d| 20_000.0 + 7_000.0 * f64::from(d) + 0.7 * id.index() as f64).collect()
    };
    let inbox = record_node0_inbox(n, |id| VectorDelphiNode::new(cfg.clone(), id, &inputs(id)));

    let node = VectorDelphiNode::new(cfg.clone(), NodeId(0), &inputs(NodeId(0)));
    let actives = |node: &VectorDelphiNode| {
        (0..=cfg.l_max()).map(|level| node.active_checkpoints(level)).sum()
    };
    // The decision stores one vector of outputs.
    replay_within_budget(node, &inbox, actives, 1);
}
