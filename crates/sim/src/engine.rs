//! The discrete-event simulation engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use delphi_primitives::{NodeId, Protocol, Recipient};

use crate::metrics::Metrics;
use crate::topology::{Topology, WIRE_OVERHEAD_BYTES};

/// Why a simulation run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every honest node produced an output.
    AllHonestFinished,
    /// No events remained (some honest node never finished — usually a bug
    /// or an adversary exceeding the fault threshold).
    Drained,
    /// The event-count safety cap was hit.
    MaxEvents,
    /// The simulated-time safety cap was hit.
    MaxTime,
}

/// Result of a simulation run.
#[derive(Debug)]
pub struct RunReport<O> {
    /// Final outputs, indexed by node id.
    pub outputs: Vec<Option<O>>,
    /// Simulated time (ns) at which each node produced its output.
    pub finish_ns: Vec<Option<u64>>,
    /// Simulated time at which the run stopped.
    pub end_ns: u64,
    /// Number of message-delivery events processed.
    pub events: u64,
    /// Traffic counters.
    pub metrics: Metrics,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Seed the run used (echoed for failure reproduction).
    pub seed: u64,
    honest: Vec<bool>,
}

impl<O> RunReport<O> {
    /// Whether every honest node produced an output.
    pub fn all_honest_finished(&self) -> bool {
        self.stop == StopReason::AllHonestFinished
            || self.honest.iter().zip(&self.outputs).all(|(&h, o)| !h || o.is_some())
    }

    /// Outputs of honest nodes only.
    pub fn honest_outputs(&self) -> impl Iterator<Item = &O> {
        self.honest
            .iter()
            .zip(&self.outputs)
            .filter_map(|(&h, o)| if h { o.as_ref() } else { None })
    }

    /// Latest honest finish time in nanoseconds (the run's latency, the
    /// quantity Fig. 6a/6c report), if all honest nodes finished.
    pub fn completion_ns(&self) -> Option<u64> {
        let mut worst = 0u64;
        for (i, &h) in self.honest.iter().enumerate() {
            if h {
                worst = worst.max(self.finish_ns[i]?);
            }
        }
        Some(worst)
    }

    /// Completion time in milliseconds.
    pub fn completion_ms(&self) -> Option<f64> {
        self.completion_ns().map(|ns| ns as f64 / 1e6)
    }
}

#[derive(Debug)]
enum EventKind {
    /// A message delivery. `shard` is the sender's receive-shard tag
    /// (see [`delphi_primitives::Envelope::shard`]).
    Msg { from: NodeId, to: NodeId, payload: Bytes, shard: u16 },
    /// A global time trigger: every node's `on_tick` runs (adaptive batch
    /// flushing lives there). Scheduled only when
    /// [`Simulation::tick_interval_ns`] is set.
    Tick,
}

#[derive(Debug)]
struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A configured simulation, ready to run protocol nodes.
///
/// See the [crate docs](crate) for a complete example.
#[derive(Debug)]
pub struct Simulation {
    topology: Topology,
    seed: u64,
    faulty: Vec<bool>,
    max_events: u64,
    max_time_ns: u64,
    tick_interval_ns: Option<u64>,
    recv_shards: usize,
    send_shards: Option<usize>,
}

impl Simulation {
    /// Creates a simulation over `topology` with default settings
    /// (seed 0, no declared faults, 100M-event / 1-simulated-hour caps,
    /// one receive shard).
    pub fn new(topology: Topology) -> Simulation {
        let n = topology.n();
        Simulation {
            topology,
            seed: 0,
            faulty: vec![false; n],
            max_events: 100_000_000,
            max_time_ns: 3_600_000_000_000,
            tick_interval_ns: None,
            recv_shards: 1,
            send_shards: None,
        }
    }

    /// Sets the RNG seed (latency jitter, adversary randomness).
    pub fn seed(mut self, seed: u64) -> Simulation {
        self.seed = seed;
        self
    }

    /// Declares `ids` as faulty: they are excluded from the stop condition
    /// and from honest-output aggregation. The node objects at those
    /// indices implement whatever Byzantine behaviour the experiment wants.
    pub fn faulty(mut self, ids: &[NodeId]) -> Simulation {
        for id in ids {
            self.faulty[id.index()] = true;
        }
        self
    }

    /// Overrides the event-count safety cap.
    pub fn max_events(mut self, cap: u64) -> Simulation {
        self.max_events = cap;
        self
    }

    /// Overrides the simulated-time safety cap (nanoseconds).
    pub fn max_time_ns(mut self, cap: u64) -> Simulation {
        self.max_time_ns = cap;
        self
    }

    /// Models a `shards`-way sharded receive path: each node's message
    /// processing CPU becomes `shards` independent lanes, and a delivery
    /// occupies the lane named by its envelope's
    /// [`shard`](delphi_primitives::Envelope::shard) tag (mod `shards`).
    ///
    /// This is the simulator half of `delphi-net`'s sharded dispatch:
    /// with a sender that flushes per receive shard (e.g.
    /// `EpochProtocol::new_sharded` with the same count), batches bound
    /// for different dispatch workers overlap in simulated time exactly
    /// as they overlap on real worker tasks, while batches on one shard
    /// still serialize. With the default of one shard (or untagged
    /// senders) the model is unchanged: one CPU per node.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn recv_shards(mut self, shards: usize) -> Simulation {
        assert!(shards > 0, "need at least one receive shard");
        self.recv_shards = shards;
        self
    }

    /// Models a `shards`-way sharded send path: each node's outbound
    /// frame preparation (encode + MAC) becomes `shards` independent CPU
    /// lanes, and every per-destination copy of an envelope occupies the
    /// lane named by its [`shard`](delphi_primitives::Envelope::shard)
    /// tag (mod `shards`) — per the [`Topology::cost`](crate::Topology)
    /// model on payload bytes — before the link serializes it.
    ///
    /// This is the simulator half of `delphi-net`'s worker-owned egress
    /// lanes: at `shards == recv_shards` the lane an envelope is costed
    /// on here is by construction the dispatch worker that encodes and
    /// MACs it on the TCP path, because both sides key on the same shard
    /// tag. (The TCP runtime offers no other placement: a worker flushes
    /// its own shard class.) Unset (the default), outbound CPU is not
    /// modeled at all — the legacy model, where the link is the only
    /// egress resource — so existing calibrated sweeps are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn send_shards(mut self, shards: usize) -> Simulation {
        assert!(shards > 0, "need at least one send shard");
        self.send_shards = Some(shards);
        self
    }

    /// Enables periodic time triggers: every `interval` simulated
    /// nanoseconds, each node's [`Protocol::on_tick`] runs (the hook
    /// adaptive batch flushing hangs off). Ticks stop rescheduling once
    /// the mesh goes quiet — an idle stalled run still drains.
    ///
    /// This models a *paced* flush: an adaptive node's pending entries
    /// leave only on the next tick. The TCP runner no longer works that
    /// way — a dispatch worker flushes the moment its inbox is empty and
    /// treats `max_delay` only as a ceiling under backlog — so a simulated
    /// adaptive run charges every dependent step up to one tick that the
    /// TCP runner does not pay, and predicts the paced runner, not the
    /// current one. The model is kept as is so the simulated figure rows
    /// stay comparable; the gap is recorded as open work.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn tick_interval_ns(mut self, interval: u64) -> Simulation {
        assert!(interval > 0, "tick interval must be positive");
        self.tick_interval_ns = Some(interval);
        self
    }

    /// Runs `nodes` to completion.
    ///
    /// `nodes[i]` must have `node_id() == NodeId(i)`; the run is fully
    /// deterministic given the topology, the node set, and the seed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the topology size or a node
    /// reports a mismatched id.
    pub fn run<O: Clone + std::fmt::Debug>(
        self,
        mut nodes: Vec<Box<dyn Protocol<Output = O>>>,
    ) -> RunReport<O> {
        let n = self.topology.n();
        assert_eq!(nodes.len(), n, "node count != topology size");
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.node_id().index(), i, "node at index {i} has wrong id");
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        // One CPU lane per (node, receive shard): deliveries on different
        // shards of one node overlap, deliveries on one shard serialize.
        let shards = self.recv_shards;
        let mut cpu_free = vec![0u64; n * shards];
        // One egress CPU lane per (node, send shard) when the sharded
        // send path is modeled; zero lanes = legacy (no outbound CPU).
        let send_lanes = self.send_shards.unwrap_or(0);
        let mut send_free = vec![0u64; n * send_lanes];
        let mut link_free = vec![0u64; n];
        let mut last_arrival = if self.topology.fifo() { vec![0u64; n * n] } else { Vec::new() };
        let mut metrics = Metrics::new(n);
        let mut finish_ns: Vec<Option<u64>> = vec![None; n];
        let mut pending_honest = self.faulty.iter().filter(|&&f| !f).count();
        let mut events = 0u64;
        let mut now = 0u64;

        macro_rules! dispatch {
            ($from:expr, $envs:expr, $t:expr) => {{
                let from: usize = $from;
                for env in $envs {
                    let wire_len = env.payload.len() + WIRE_OVERHEAD_BYTES;
                    let dests: Vec<usize> = match env.to {
                        Recipient::All => (0..n).filter(|&d| d != from).collect(),
                        Recipient::One(d) => {
                            if d.index() < n {
                                vec![d.index()]
                            } else {
                                Vec::new() // out-of-range: drop silently
                            }
                        }
                    };
                    for dest in dests {
                        // Egress lane CPU: encoding + MACing this frame
                        // occupies the sender's lane for the envelope's
                        // shard class before the link takes it — the
                        // same (frame, lane) granularity the TCP egress
                        // workers parallelize on.
                        let mut ready = $t;
                        if send_lanes > 0 {
                            let lane = from * send_lanes + usize::from(env.shard) % send_lanes;
                            send_free[lane] = send_free[lane].max($t)
                                + self.topology.cost().cost_ns(env.payload.len());
                            ready = send_free[lane];
                        }
                        let ser = self.topology.serialize_ns(from, wire_len);
                        link_free[from] = link_free[from].max(ready) + ser;
                        let depart = link_free[from];
                        let base = self.topology.latency().base_ns(from, dest);
                        let factor = self.topology.jitter().sample(&mut rng);
                        let mut arrive = depart + (base as f64 * factor) as u64;
                        if self.topology.fifo() {
                            let slot = &mut last_arrival[from * n + dest];
                            arrive = arrive.max(*slot + 1);
                            *slot = arrive;
                        }
                        let m = &mut metrics.per_node[from];
                        m.sent_msgs += 1;
                        m.sent_payload_bytes += env.payload.len() as u64;
                        m.sent_wire_bytes += wire_len as u64;
                        seq += 1;
                        queue.push(Reverse(Event {
                            at: arrive,
                            seq,
                            kind: EventKind::Msg {
                                from: NodeId(from as u16),
                                to: NodeId(dest as u16),
                                payload: env.payload.clone(),
                                shard: env.shard,
                            },
                        }));
                    }
                }
            }};
        }

        macro_rules! check_finished {
            ($i:expr, $node:expr, $t:expr) => {
                if finish_ns[$i].is_none() && $node.output().is_some() {
                    finish_ns[$i] = Some($t);
                    if !self.faulty[$i] {
                        pending_honest -= 1;
                    }
                }
            };
        }

        // Start every node at t = 0.
        for i in 0..n {
            let outs = nodes[i].start();
            dispatch!(i, outs, 0u64);
            check_finished!(i, nodes[i], 0u64);
        }
        if let Some(interval) = self.tick_interval_ns {
            seq += 1;
            queue.push(Reverse(Event { at: interval, seq, kind: EventKind::Tick }));
        }

        let mut stop = StopReason::Drained;
        if pending_honest == 0 {
            stop = StopReason::AllHonestFinished;
        } else {
            while let Some(Reverse(ev)) = queue.pop() {
                events += 1;
                now = ev.at;
                if events > self.max_events {
                    stop = StopReason::MaxEvents;
                    break;
                }
                if now > self.max_time_ns {
                    stop = StopReason::MaxTime;
                    break;
                }
                match ev.kind {
                    EventKind::Msg { from, to, payload, shard } => {
                        let to = to.index();
                        let lane = to * shards + usize::from(shard) % shards;
                        let done =
                            cpu_free[lane].max(now) + self.topology.cost().cost_ns(payload.len());
                        cpu_free[lane] = done;
                        {
                            let m = &mut metrics.per_node[to];
                            m.recv_msgs += 1;
                            m.recv_payload_bytes += payload.len() as u64;
                        }
                        let outs = nodes[to].on_message(from, &payload);
                        dispatch!(to, outs, done);
                        check_finished!(to, nodes[to], done);
                    }
                    EventKind::Tick => {
                        let mut emitted = false;
                        for i in 0..n {
                            let outs = nodes[i].on_tick();
                            emitted |= !outs.is_empty();
                            dispatch!(i, outs, now);
                            check_finished!(i, nodes[i], now);
                        }
                        // Reschedule only while the mesh is active: once
                        // nothing is in flight and a tick released
                        // nothing, further ticks cannot change anything.
                        if emitted || !queue.is_empty() {
                            let interval =
                                self.tick_interval_ns.expect("tick events imply an interval");
                            seq += 1;
                            queue.push(Reverse(Event {
                                at: now + interval,
                                seq,
                                kind: EventKind::Tick,
                            }));
                        }
                    }
                }
                if pending_honest == 0 {
                    stop = StopReason::AllHonestFinished;
                    break;
                }
            }
        }

        let outputs = nodes.iter().map(|nd| nd.output()).collect();
        let honest = self.faulty.iter().map(|&f| !f).collect();
        RunReport {
            outputs,
            finish_ns,
            end_ns: now,
            events,
            metrics,
            stop,
            seed: self.seed,
            honest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::Envelope;

    /// Broadcasts once; outputs how many distinct peers it heard from.
    struct Gossip {
        id: NodeId,
        n: usize,
        heard: Vec<bool>,
    }

    impl Gossip {
        fn boxed(id: NodeId, n: usize) -> Box<dyn Protocol<Output = usize>> {
            Box::new(Gossip { id, n, heard: vec![false; n] })
        }
    }

    impl Protocol for Gossip {
        type Output = usize;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            vec![Envelope::to_all(Bytes::from_static(b"hi"))]
        }
        fn on_message(&mut self, from: NodeId, m: &[u8]) -> Vec<Envelope> {
            if m == b"hi" {
                self.heard[from.index()] = true;
            }
            Vec::new()
        }
        fn output(&self) -> Option<usize> {
            let count = self.heard.iter().filter(|&&h| h).count();
            (count == self.n - 1).then_some(count)
        }
    }

    fn gossip_nodes(n: usize) -> Vec<Box<dyn Protocol<Output = usize>>> {
        NodeId::all(n).map(|id| Gossip::boxed(id, n)).collect()
    }

    #[test]
    fn gossip_completes_on_lan() {
        let report = Simulation::new(Topology::lan(5)).seed(1).run(gossip_nodes(5));
        assert_eq!(report.stop, StopReason::AllHonestFinished);
        assert!(report.all_honest_finished());
        for o in report.honest_outputs() {
            assert_eq!(*o, 4);
        }
        // 5 nodes broadcast to 4 peers each.
        assert_eq!(report.metrics.total_msgs(), 20);
        assert_eq!(report.metrics.total_payload_bytes(), 40);
        assert_eq!(report.metrics.total_wire_bytes(), 20 * (2 + WIRE_OVERHEAD_BYTES as u64));
        assert!(report.completion_ns().unwrap() > 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let r1 = Simulation::new(Topology::aws_geo(8)).seed(42).run(gossip_nodes(8));
        let r2 = Simulation::new(Topology::aws_geo(8)).seed(42).run(gossip_nodes(8));
        assert_eq!(r1.completion_ns(), r2.completion_ns());
        assert_eq!(r1.events, r2.events);
        let r3 = Simulation::new(Topology::aws_geo(8)).seed(43).run(gossip_nodes(8));
        assert_ne!(r1.completion_ns(), r3.completion_ns());
    }

    #[test]
    fn crashed_node_stalls_completion_but_not_others() {
        let n = 4;
        let mut nodes = gossip_nodes(n);
        nodes[3] = Box::new(crate::adversary::Crash::new(NodeId(3), n));
        // Node 3 never speaks: honest nodes wait for n-1 greetings forever.
        let report = Simulation::new(Topology::lan(n)).seed(5).faulty(&[NodeId(3)]).run(nodes);
        assert_eq!(report.stop, StopReason::Drained);
        assert!(!report.all_honest_finished());
        assert_eq!(report.outputs[0], None);
    }

    #[test]
    fn completion_excludes_faulty_nodes() {
        // Gossip that needs n-2 greetings tolerates one crash.
        struct Tolerant(Gossip);
        impl Protocol for Tolerant {
            type Output = usize;
            fn node_id(&self) -> NodeId {
                self.0.id
            }
            fn n(&self) -> usize {
                self.0.n
            }
            fn start(&mut self) -> Vec<Envelope> {
                self.0.start()
            }
            fn on_message(&mut self, from: NodeId, m: &[u8]) -> Vec<Envelope> {
                self.0.on_message(from, m)
            }
            fn output(&self) -> Option<usize> {
                let count = self.0.heard.iter().filter(|&&h| h).count();
                (count >= self.0.n - 2).then_some(count)
            }
        }
        let n = 4;
        let mut nodes: Vec<Box<dyn Protocol<Output = usize>>> = NodeId::all(n)
            .map(|id| {
                Box::new(Tolerant(Gossip { id, n, heard: vec![false; n] }))
                    as Box<dyn Protocol<Output = usize>>
            })
            .collect();
        nodes[0] = Box::new(crate::adversary::Crash::new(NodeId(0), n));
        let report = Simulation::new(Topology::lan(n)).seed(5).faulty(&[NodeId(0)]).run(nodes);
        assert_eq!(report.stop, StopReason::AllHonestFinished);
        assert_eq!(report.honest_outputs().count(), 3);
    }

    #[test]
    fn max_events_cap_halts_runaway() {
        /// Ping-pong forever.
        struct Chatter {
            id: NodeId,
            n: usize,
        }
        impl Protocol for Chatter {
            type Output = ();
            fn node_id(&self) -> NodeId {
                self.id
            }
            fn n(&self) -> usize {
                self.n
            }
            fn start(&mut self) -> Vec<Envelope> {
                vec![Envelope::to_all(Bytes::from_static(b"x"))]
            }
            fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
                vec![Envelope::to_all(Bytes::from_static(b"x"))]
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        let nodes: Vec<Box<dyn Protocol<Output = ()>>> = NodeId::all(3)
            .map(|id| Box::new(Chatter { id, n: 3 }) as Box<dyn Protocol<Output = ()>>)
            .collect();
        let report = Simulation::new(Topology::lan(3)).max_events(1000).run(nodes);
        assert_eq!(report.stop, StopReason::MaxEvents);
        assert!(report.events >= 1000);
    }

    #[test]
    fn fifo_preserves_pairwise_order() {
        /// Sends two numbered messages; receiver records arrival order.
        struct Seq {
            id: NodeId,
            n: usize,
            got: Vec<u8>,
        }
        impl Protocol for Seq {
            type Output = Vec<u8>;
            fn node_id(&self) -> NodeId {
                self.id
            }
            fn n(&self) -> usize {
                self.n
            }
            fn start(&mut self) -> Vec<Envelope> {
                if self.id == NodeId(0) {
                    (0u8..20)
                        .map(|i| Envelope::to_one(NodeId(1), Bytes::copy_from_slice(&[i])))
                        .collect()
                } else {
                    Vec::new()
                }
            }
            fn on_message(&mut self, _: NodeId, m: &[u8]) -> Vec<Envelope> {
                self.got.push(m[0]);
                Vec::new()
            }
            fn output(&self) -> Option<Vec<u8>> {
                (self.got.len() == 20).then(|| self.got.clone())
            }
        }
        // High jitter would reorder without FIFO clamping.
        let topo = Topology::lan(2).with_fifo(true);
        let nodes: Vec<Box<dyn Protocol<Output = Vec<u8>>>> = NodeId::all(2)
            .map(|id| {
                Box::new(Seq { id, n: 2, got: Vec::new() }) as Box<dyn Protocol<Output = Vec<u8>>>
            })
            .collect();
        let report = Simulation::new(topo).seed(11).faulty(&[NodeId(0)]).run(nodes);
        let got = report.outputs[1].clone().unwrap();
        let expect: Vec<u8> = (0..20).collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "wrong id")]
    fn mismatched_ids_rejected() {
        let nodes: Vec<Box<dyn Protocol<Output = usize>>> =
            vec![Gossip::boxed(NodeId(1), 2), Gossip::boxed(NodeId(0), 2)];
        let _ = Simulation::new(Topology::lan(2)).run(nodes);
    }

    /// Withholds its greeting until the first tick — only a tick-enabled
    /// run can complete.
    struct TickGossip {
        inner: Gossip,
        pending: Option<Envelope>,
    }

    impl Protocol for TickGossip {
        type Output = usize;
        fn node_id(&self) -> NodeId {
            self.inner.id
        }
        fn n(&self) -> usize {
            self.inner.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            self.pending = self.inner.start().pop();
            Vec::new()
        }
        fn on_message(&mut self, from: NodeId, m: &[u8]) -> Vec<Envelope> {
            self.inner.on_message(from, m)
        }
        fn on_tick(&mut self) -> Vec<Envelope> {
            self.pending.take().into_iter().collect()
        }
        fn output(&self) -> Option<usize> {
            self.inner.output()
        }
    }

    fn tick_gossip_nodes(n: usize) -> Vec<Box<dyn Protocol<Output = usize>>> {
        NodeId::all(n)
            .map(|id| {
                Box::new(TickGossip {
                    inner: Gossip { id, n, heard: vec![false; n] },
                    pending: None,
                }) as Box<dyn Protocol<Output = usize>>
            })
            .collect()
    }

    #[test]
    fn ticks_release_deferred_sends_and_stop_when_quiet() {
        // Without ticks the deferred greetings never leave: the run drains.
        let stalled = Simulation::new(Topology::lan(3)).seed(2).run(tick_gossip_nodes(3));
        assert_eq!(stalled.stop, StopReason::Drained);
        // With ticks the greetings flush at the first tick and the run
        // completes; tick events stop rescheduling once the mesh is quiet,
        // so a small event count suffices.
        let report = Simulation::new(Topology::lan(3))
            .seed(2)
            .tick_interval_ns(1_000_000)
            .run(tick_gossip_nodes(3));
        assert_eq!(report.stop, StopReason::AllHonestFinished);
        assert!(report.completion_ns().unwrap() >= 1_000_000, "nothing moved before a tick");
        assert!(report.events < 100, "ticks must not spin an idle mesh");
    }

    #[test]
    fn tick_runs_are_deterministic_per_seed() {
        let run = || {
            Simulation::new(Topology::aws_geo(4))
                .seed(9)
                .tick_interval_ns(500_000)
                .run(tick_gossip_nodes(4))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completion_ns(), b.completion_ns());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn bandwidth_limits_increase_latency() {
        let fast = Simulation::new(Topology::lan(4)).seed(3).run(gossip_nodes(4));
        let slow_topo = Topology::lan(4).with_uniform_egress_bps(8_000); // 1 KB/s
        let slow = Simulation::new(slow_topo).seed(3).run(gossip_nodes(4));
        assert!(slow.completion_ns().unwrap() > 10 * fast.completion_ns().unwrap());
    }

    #[test]
    fn cpu_cost_increases_latency() {
        let free = Simulation::new(Topology::lan(4)).seed(3).run(gossip_nodes(4));
        let costly_topo = Topology::lan(4)
            .with_cost(crate::CostModel { per_message_ns: 10_000_000, per_byte_ns: 0 });
        let costly = Simulation::new(costly_topo).seed(3).run(gossip_nodes(4));
        assert!(costly.completion_ns().unwrap() > free.completion_ns().unwrap());
    }

    /// Sends `k` shard-tagged messages to node 1 and outputs immediately;
    /// the receiver outputs after hearing all of them.
    struct ShardBurst {
        id: NodeId,
        k: u16,
        shards: u16,
        heard: usize,
    }

    impl Protocol for ShardBurst {
        type Output = usize;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            2
        }
        fn start(&mut self) -> Vec<Envelope> {
            if self.id != NodeId(0) {
                return Vec::new();
            }
            (0..self.k)
                .map(|i| {
                    Envelope::to_one(NodeId(1), Bytes::copy_from_slice(&[i as u8]))
                        .with_shard(i % self.shards)
                })
                .collect()
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.heard += 1;
            Vec::new()
        }
        fn output(&self) -> Option<usize> {
            if self.id == NodeId(0) {
                Some(0)
            } else {
                (self.heard >= usize::from(self.k)).then_some(self.heard)
            }
        }
    }

    #[test]
    fn sharded_receive_overlaps_cpu_cost_across_lanes() {
        // 8 messages at 10 ms receive CPU each: one lane serializes them
        // (~80 ms), 4 lanes overlap them (~20 ms). Latency and bandwidth
        // are negligible next to the CPU cost, so the ratio is clean.
        let run = |sim_shards: usize, tag_shards: u16| {
            let topo = Topology::lan(2)
                .with_cost(crate::CostModel { per_message_ns: 10_000_000, per_byte_ns: 0 });
            let nodes: Vec<Box<dyn Protocol<Output = usize>>> = NodeId::all(2)
                .map(|id| {
                    Box::new(ShardBurst { id, k: 8, shards: tag_shards, heard: 0 })
                        as Box<dyn Protocol<Output = usize>>
                })
                .collect();
            Simulation::new(topo).seed(4).recv_shards(sim_shards).run(nodes)
        };
        let single = run(1, 4);
        let sharded = run(4, 4);
        assert_eq!(single.outputs[1], Some(8));
        assert_eq!(sharded.outputs[1], Some(8));
        let (t1, t4) = (single.completion_ns().unwrap(), sharded.completion_ns().unwrap());
        assert!(
            t4 * 3 < t1,
            "4 lanes must overlap the receive CPU: {t1} ns single vs {t4} ns sharded"
        );
        // Tagging without lanes (or lanes without tags) changes nothing:
        // every message lands on lane 0 either way.
        let untagged = run(4, 1);
        assert_eq!(untagged.completion_ns(), single.completion_ns());
    }

    #[test]
    fn sharded_send_overlaps_encode_cost_across_lanes() {
        // 8 frames at 10 ms encode CPU each, with the receive side spread
        // over 4 lanes so it keeps up: one egress lane serializes the
        // encodes (the last frame cannot even depart before ~80 ms), 4
        // lanes overlap them. The completion ratio isolates egress CPU —
        // the single-sender funnel the sharded send path removes.
        let run = |send_lanes: usize, tag_shards: u16| {
            let topo = Topology::lan(2)
                .with_cost(crate::CostModel { per_message_ns: 10_000_000, per_byte_ns: 0 });
            let nodes: Vec<Box<dyn Protocol<Output = usize>>> = NodeId::all(2)
                .map(|id| {
                    Box::new(ShardBurst { id, k: 8, shards: tag_shards, heard: 0 })
                        as Box<dyn Protocol<Output = usize>>
                })
                .collect();
            Simulation::new(topo).seed(4).recv_shards(4).send_shards(send_lanes).run(nodes)
        };
        let single = run(1, 4);
        let sharded = run(4, 4);
        assert_eq!(single.outputs[1], Some(8));
        assert_eq!(sharded.outputs[1], Some(8));
        let (t1, t4) = (single.completion_ns().unwrap(), sharded.completion_ns().unwrap());
        assert!(
            t4 * 2 < t1,
            "4 egress lanes must overlap the encode CPU: {t1} ns single vs {t4} ns sharded"
        );
        // Lanes without tags change nothing: every frame encodes on lane
        // 0 no matter how many lanes exist — send parallelism requires a
        // sharded (tagging) sender, exactly as on the TCP path.
        assert_eq!(run(4, 1).completion_ns(), run(1, 1).completion_ns());
    }
}
