//! Protocol-agnostic Byzantine node behaviours.
//!
//! The paper assumes an adaptive adversary corrupting up to `t < n/3` nodes
//! that fully controls their behaviour and the network schedule (but cannot
//! drop messages between honest nodes). These adapters implement the
//! *byte-level* part of that power — staying silent, spewing garbage,
//! corrupting, and replaying — without knowing anything about the protocol
//! being attacked, so every protocol in the workspace can be exercised
//! against them. Value-level (semantic) equivocation attacks live next to
//! each protocol's own tests, where the message schema is known.
//!
//! All behaviours are deterministic given their construction seed.

use std::marker::PhantomData;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use delphi_primitives::{Envelope, NodeId, Protocol};

/// A crashed node: never sends, never outputs.
#[derive(Debug)]
pub struct Crash<O> {
    id: NodeId,
    n: usize,
    _output: PhantomData<O>,
}

impl<O> Crash<O> {
    /// Creates a crashed node with identity `id` in an `n`-node system.
    pub fn new(id: NodeId, n: usize) -> Crash<O> {
        Crash { id, n, _output: PhantomData }
    }
}

impl<O: Clone + std::fmt::Debug> Protocol for Crash<O> {
    type Output = O;
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        self.n
    }
    fn start(&mut self) -> Vec<Envelope> {
        Vec::new()
    }
    fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
        Vec::new()
    }
    fn output(&self) -> Option<O> {
        None
    }
    fn is_finished(&self) -> bool {
        true
    }
}

/// Wraps an honest node and crashes it after it has processed
/// `messages_before_crash` messages — the classic mid-protocol failure.
#[derive(Debug)]
pub struct SilentAfter<P> {
    inner: P,
    remaining: usize,
}

impl<P> SilentAfter<P> {
    /// Wraps `inner`, letting it process `messages_before_crash` messages
    /// (plus its `start`) before going silent.
    pub fn new(inner: P, messages_before_crash: usize) -> SilentAfter<P> {
        SilentAfter { inner, remaining: messages_before_crash }
    }
}

impl<P: Protocol> Protocol for SilentAfter<P> {
    type Output = P::Output;
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn start(&mut self) -> Vec<Envelope> {
        self.inner.start()
    }
    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        self.inner.on_message(from, payload)
    }
    fn output(&self) -> Option<P::Output> {
        None // a crashed node's output is irrelevant
    }
    fn is_finished(&self) -> bool {
        self.remaining == 0
    }
}

/// Sends bursts of random bytes to everyone, forever.
///
/// Exercises every decoder's malformed-input paths and the protocols'
/// bounded-state discipline (a correct protocol must neither crash nor
/// allocate unboundedly when flooded).
#[derive(Debug)]
pub struct GarbageSpammer<O> {
    id: NodeId,
    n: usize,
    rng: StdRng,
    burst: usize,
    max_len: usize,
    budget: usize,
    _output: PhantomData<O>,
}

impl<O> GarbageSpammer<O> {
    /// Creates a spammer that sends `burst` random messages (each up to
    /// `max_len` bytes) at start and per received message, up to `budget`
    /// messages total.
    pub fn new(
        id: NodeId,
        n: usize,
        seed: u64,
        burst: usize,
        max_len: usize,
        budget: usize,
    ) -> Self {
        GarbageSpammer {
            id,
            n,
            rng: StdRng::seed_from_u64(seed),
            burst,
            max_len: max_len.max(1),
            budget,
            _output: PhantomData,
        }
    }

    fn burst_now(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        for _ in 0..self.burst.min(self.budget) {
            let len = self.rng.random_range(0..self.max_len);
            let bytes: Vec<u8> = (0..len).map(|_| self.rng.random()).collect();
            out.push(Envelope::to_all(Bytes::from(bytes)));
            self.budget -= 1;
        }
        out
    }
}

impl<O: Clone + std::fmt::Debug> Protocol for GarbageSpammer<O> {
    type Output = O;
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        self.n
    }
    fn start(&mut self) -> Vec<Envelope> {
        self.burst_now()
    }
    fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
        self.burst_now()
    }
    fn output(&self) -> Option<O> {
        None
    }
    fn is_finished(&self) -> bool {
        self.budget == 0
    }
}

/// Wraps an honest node and corrupts each outgoing payload with probability
/// `corrupt_prob` (one random byte flipped). The messages remain
/// authenticated (the node *is* the corrupted sender) but become
/// semantically malformed, probing decoder robustness end to end.
#[derive(Debug)]
pub struct ByteMutator<P> {
    inner: P,
    rng: StdRng,
    corrupt_prob: f64,
}

impl<P> ByteMutator<P> {
    /// Wraps `inner`; each outgoing envelope is corrupted with probability
    /// `corrupt_prob`.
    pub fn new(inner: P, seed: u64, corrupt_prob: f64) -> ByteMutator<P> {
        ByteMutator { inner, rng: StdRng::seed_from_u64(seed), corrupt_prob }
    }

    fn mangle(&mut self, envs: Vec<Envelope>) -> Vec<Envelope> {
        envs.into_iter()
            .map(|env| {
                if !env.payload.is_empty() && self.rng.random::<f64>() < self.corrupt_prob {
                    let mut bytes = env.payload.to_vec();
                    let idx = self.rng.random_range(0..bytes.len());
                    bytes[idx] ^= 1u8 << self.rng.random_range(0..8);
                    Envelope { to: env.to, payload: Bytes::from(bytes) }
                } else {
                    env
                }
            })
            .collect()
    }
}

impl<P: Protocol> Protocol for ByteMutator<P> {
    type Output = P::Output;
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn start(&mut self) -> Vec<Envelope> {
        let envs = self.inner.start();
        self.mangle(envs)
    }
    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        let envs = self.inner.on_message(from, payload);
        self.mangle(envs)
    }
    fn output(&self) -> Option<P::Output> {
        None
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Replays every message it receives back at the whole network, possibly
/// redirecting point-to-point traffic (a cheap equivocation/replay attack).
#[derive(Debug)]
pub struct Replayer<O> {
    id: NodeId,
    n: usize,
    budget: usize,
    _output: PhantomData<O>,
}

impl<O> Replayer<O> {
    /// Creates a replayer that re-broadcasts up to `budget` received
    /// messages.
    pub fn new(id: NodeId, n: usize, budget: usize) -> Replayer<O> {
        Replayer { id, n, budget, _output: PhantomData }
    }
}

impl<O: Clone + std::fmt::Debug> Protocol for Replayer<O> {
    type Output = O;
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        self.n
    }
    fn start(&mut self) -> Vec<Envelope> {
        Vec::new()
    }
    fn on_message(&mut self, _: NodeId, payload: &[u8]) -> Vec<Envelope> {
        if self.budget == 0 {
            return Vec::new();
        }
        self.budget -= 1;
        vec![Envelope::to_all(Bytes::copy_from_slice(payload))]
    }
    fn output(&self) -> Option<O> {
        None
    }
    fn is_finished(&self) -> bool {
        self.budget == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        id: NodeId,
    }
    impl Protocol for Echo {
        type Output = u8;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            3
        }
        fn start(&mut self) -> Vec<Envelope> {
            vec![Envelope::to_all(Bytes::from_static(b"start"))]
        }
        fn on_message(&mut self, _: NodeId, p: &[u8]) -> Vec<Envelope> {
            vec![Envelope::to_all(Bytes::copy_from_slice(p))]
        }
        fn output(&self) -> Option<u8> {
            Some(1)
        }
    }

    #[test]
    fn crash_is_silent() {
        let mut c: Crash<u8> = Crash::new(NodeId(1), 3);
        assert!(c.start().is_empty());
        assert!(c.on_message(NodeId(0), b"x").is_empty());
        assert_eq!(c.output(), None);
        assert!(c.is_finished());
        assert_eq!(c.node_id(), NodeId(1));
        assert_eq!(c.n(), 3);
    }

    #[test]
    fn silent_after_budget() {
        let mut s = SilentAfter::new(Echo { id: NodeId(0) }, 2);
        assert_eq!(s.start().len(), 1);
        assert_eq!(s.on_message(NodeId(1), b"a").len(), 1);
        assert_eq!(s.on_message(NodeId(1), b"b").len(), 1);
        assert!(s.is_finished() && s.on_message(NodeId(1), b"c").is_empty());
        assert_eq!(s.output(), None);
    }

    #[test]
    fn garbage_spammer_respects_budget_and_determinism() {
        let mut g1: GarbageSpammer<u8> = GarbageSpammer::new(NodeId(0), 3, 7, 2, 64, 3);
        let mut g2: GarbageSpammer<u8> = GarbageSpammer::new(NodeId(0), 3, 7, 2, 64, 3);
        let b1 = g1.start();
        let b2 = g2.start();
        assert_eq!(b1.len(), 2);
        assert_eq!(b1[0].payload, b2[0].payload, "deterministic per seed");
        assert_eq!(g1.on_message(NodeId(1), b"x").len(), 1, "budget exhausts");
        assert!(g1.is_finished());
        assert!(g1.on_message(NodeId(1), b"x").is_empty());
    }

    #[test]
    fn byte_mutator_flips_exactly_one_bit_when_corrupting() {
        let mut m = ByteMutator::new(Echo { id: NodeId(0) }, 1, 1.0);
        let out = m.on_message(NodeId(1), b"hello-world");
        assert_eq!(out.len(), 1);
        let corrupted = &out[0].payload;
        assert_eq!(corrupted.len(), 11);
        let diff: u32 =
            corrupted.iter().zip(b"hello-world").map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
        // With probability 0 nothing changes.
        let mut m = ByteMutator::new(Echo { id: NodeId(0) }, 1, 0.0);
        let out = m.on_message(NodeId(1), b"hello-world");
        assert_eq!(&out[0].payload[..], b"hello-world");
    }

    #[test]
    fn replayer_rebroadcasts_until_budget() {
        let mut r: Replayer<u8> = Replayer::new(NodeId(2), 3, 1);
        assert!(r.start().is_empty());
        let out = r.on_message(NodeId(0), b"msg");
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].payload[..], b"msg");
        assert!(r.on_message(NodeId(0), b"msg").is_empty());
    }
}
