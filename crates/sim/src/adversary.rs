//! Byzantine nodes: one faulty node driven by a forge, and two wrappers
//! that corrupt an honest one.
//!
//! The paper assumes an adaptive adversary corrupting up to `t < n/3` nodes
//! that fully controls their behaviour and the network schedule (but cannot
//! drop messages between honest nodes). A corrupted node holds valid keys,
//! so what it sends is authenticated as its own; what it says is up to the
//! adversary. [`Faulty`] is such a node: it holds an identity, the system
//! size and a forge — a closure handed every message the node hears (`None`
//! at start) that answers `(recipient, bytes)` pairs to send, `None`
//! naming everyone. A forge knows only bytes, so one interface
//! serves every protocol: the byte-level forges here ([`Faulty::crash`],
//! [`Faulty::garbage`], [`Faulty::replay`]) know nothing of the protocol
//! they attack, and a protocol's tests write their own forges where its
//! message schema is known.
//!
//! [`SilentAfter`] and [`ByteMutator`] instead wrap an honest node: it
//! crashes mid-protocol, or its authenticated messages arrive corrupted.
//!
//! All behaviours are deterministic given their construction seed.

use std::marker::PhantomData;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use delphi_primitives::{Envelope, NodeId, Protocol};

/// What a faulty node sends: handed the bytes it heard (`None` at start),
/// a forge answers `(recipient, bytes)` pairs, `None` naming everyone.
type Forge = dyn FnMut(Option<&[u8]>) -> Vec<(Option<NodeId>, Bytes)>;

/// A faulty node: whatever its forge sends, and never an output.
pub struct Faulty<O> {
    id: NodeId,
    n: usize,
    forge: Box<Forge>,
    /// Messages it may still send.
    left: usize,
    _output: PhantomData<O>,
}

impl<O> Faulty<O> {
    /// The faulty node `id` of an `n`-node system, sending what `forge`
    /// answers. It never sends to itself.
    pub fn new(
        id: NodeId,
        n: usize,
        forge: impl FnMut(Option<&[u8]>) -> Vec<(Option<NodeId>, Bytes)> + 'static,
    ) -> Faulty<O> {
        Faulty { id, n, forge: Box::new(forge), left: usize::MAX, _output: PhantomData }
    }

    /// At most `left` of the messages `forge` makes.
    fn budget(
        id: NodeId,
        n: usize,
        left: usize,
        forge: impl FnMut(Option<&[u8]>) -> Vec<(Option<NodeId>, Bytes)> + 'static,
    ) -> Faulty<O> {
        Faulty { left, ..Faulty::new(id, n, forge) }
    }

    /// A crashed node: never sends.
    pub fn crash(id: NodeId, n: usize) -> Faulty<O> {
        Faulty::budget(id, n, 0, |_| Vec::new())
    }

    /// Sends `burst` messages of random bytes (each shorter than
    /// `max_len`) to everyone at start and per message heard, `budget`
    /// messages in all. Exercises every decoder's malformed-input paths
    /// and the protocols' bounded-state discipline: a correct protocol
    /// neither crashes nor allocates without bound when flooded.
    pub fn garbage(
        id: NodeId,
        n: usize,
        seed: u64,
        burst: usize,
        max_len: usize,
        budget: usize,
    ) -> Faulty<O> {
        let mut rng = StdRng::seed_from_u64(seed);
        Faulty::budget(id, n, budget, move |_| {
            let mut message = || {
                let len = rng.random_range(0..max_len.max(1));
                (None, (0..len).map(|_| rng.random::<u8>()).collect())
            };
            (0..burst).map(|_| message()).collect()
        })
    }

    /// Replays each of the first `budget` messages it hears to everyone,
    /// point-to-point traffic included: a cheap replay and equivocation.
    pub fn replay(id: NodeId, n: usize, budget: usize) -> Faulty<O> {
        Faulty::budget(id, n, budget, |heard| {
            heard.map(|bytes| (None, Bytes::copy_from_slice(bytes))).into_iter().collect()
        })
    }

    fn forge(&mut self, heard: Option<&[u8]>) -> Vec<Envelope> {
        if self.left == 0 {
            return Vec::new();
        }
        let mut sends = (self.forge)(heard);
        sends.truncate(self.left);
        self.left -= sends.len();
        sends
            .into_iter()
            .filter(|&(to, _)| to != Some(self.id))
            .map(|(to, bytes)| match to {
                Some(to) => Envelope::to_one(to, bytes),
                None => Envelope::to_all(bytes),
            })
            .collect()
    }
}

impl<O: Clone + std::fmt::Debug> Protocol for Faulty<O> {
    type Output = O;
    fn node_id(&self) -> NodeId {
        self.id
    }
    fn n(&self) -> usize {
        self.n
    }
    fn start(&mut self) -> Vec<Envelope> {
        self.forge(None)
    }
    fn on_message(&mut self, _: NodeId, payload: &[u8]) -> Vec<Envelope> {
        self.forge(Some(payload))
    }
    fn output(&self) -> Option<O> {
        None
    }
    fn is_finished(&self) -> bool {
        self.left == 0
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

/// Wraps an honest node and corrupts each outgoing payload with probability
/// `corrupt_prob` (one random bit flipped). The messages remain
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
                    let bit = 1u8 << self.rng.random_range(0..8);
                    if let Some(byte) = bytes.get_mut(idx) {
                        *byte ^= bit;
                    }
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
        let mut c: Faulty<u8> = Faulty::crash(NodeId(1), 3);
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
        let mut g1: Faulty<u8> = Faulty::garbage(NodeId(0), 3, 7, 2, 64, 3);
        let mut g2: Faulty<u8> = Faulty::garbage(NodeId(0), 3, 7, 2, 64, 3);
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
        let mut r: Faulty<u8> = Faulty::replay(NodeId(2), 3, 1);
        assert!(r.start().is_empty());
        let out = r.on_message(NodeId(0), b"msg");
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0].payload[..], b"msg");
        assert!(r.on_message(NodeId(0), b"msg").is_empty());
    }

    #[test]
    fn a_forge_sends_what_it_answers_but_never_to_itself() {
        let mut heard = Vec::new();
        let forge = move |bytes: Option<&[u8]>| {
            heard.push(bytes.map(<[u8]>::to_vec));
            let copy = Bytes::from(format!("{}", heard.len()));
            vec![(None, copy.clone()), (Some(NodeId(0)), copy.clone()), (Some(NodeId(1)), copy)]
        };
        let mut f: Faulty<u8> = Faulty::new(NodeId(1), 3, forge);
        let start = f.start();
        assert_eq!(start.len(), 2, "the copy to itself is dropped");
        assert_eq!(start[0], Envelope::to_all(Bytes::from_static(b"1")));
        assert_eq!(start[1], Envelope::to_one(NodeId(0), Bytes::from_static(b"1")));
        assert_eq!(f.on_message(NodeId(2), b"x")[0].payload, Bytes::from_static(b"2"));
        assert!(!f.is_finished() && f.output().is_none());
    }
}
