//! The sans-io protocol abstraction.
//!
//! Every protocol in this workspace — Delphi itself, the BinAA building
//! block, the RBC/ABA/ACS baselines, and the DORA attestation layer — is a
//! *state machine* implementing [`Protocol`]: it consumes `(sender, bytes)`
//! events and emits [`Envelope`]s to send. It never touches a socket or a
//! clock. The discrete-event simulator (`delphi-sim`) and the tokio TCP
//! runtime (`delphi-net`) both drive the same state machines, which is what
//! makes simulated byte counts equal to real wire bytes.

use std::fmt;

use bytes::Bytes;

use crate::NodeId;

/// Where an outgoing message should be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Recipient {
    /// Every node except the sender (the paper's `SendAll`).
    ///
    /// Protocols process their own broadcasts locally at send time, so the
    /// transport never loops a message back to its sender.
    All,
    /// A single node.
    One(NodeId),
}

/// An outgoing message: opaque payload plus its destination.
///
/// The payload is already encoded: transports treat it as opaque bytes, and
/// its length is exactly what bandwidth metering charges.
#[derive(Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Destination of the message.
    pub to: Recipient,
    /// Encoded message body.
    pub payload: Bytes,
}

impl Envelope {
    /// Creates a broadcast envelope (the paper's `SendAll`).
    pub fn to_all(payload: Bytes) -> Envelope {
        Envelope { to: Recipient::All, payload }
    }

    /// Creates a point-to-point envelope.
    pub fn to_one(to: NodeId, payload: Bytes) -> Envelope {
        Envelope { to: Recipient::One(to), payload }
    }

    /// Payload length in bytes (what bandwidth accounting charges).
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Envelope").field("to", &self.to).field("len", &self.payload.len()).finish()
    }
}

/// A deterministic, sans-io protocol state machine.
///
/// Implementations must be deterministic functions of their construction
/// parameters and the sequence of [`Protocol::on_message`] calls: given the
/// same inputs in the same order they produce the same outputs. All
/// randomness (there is none in Delphi — it is a deterministic protocol)
/// and all timing live in the driver.
///
/// Malformed input (Byzantine senders control their bytes) must be handled
/// by *ignoring* the message, never by panicking; [`Protocol::on_message`]
/// is deliberately infallible.
///
/// # Example
///
/// A trivial echo-once protocol:
///
/// ```
/// use bytes::Bytes;
/// use delphi_primitives::{Envelope, NodeId, Protocol};
///
/// struct Ping { id: NodeId, n: usize, got: usize }
///
/// impl Protocol for Ping {
///     type Output = usize;
///     fn node_id(&self) -> NodeId { self.id }
///     fn n(&self) -> usize { self.n }
///     fn start(&mut self) -> Vec<Envelope> {
///         vec![Envelope::to_all(Bytes::from_static(b"ping"))]
///     }
///     fn on_message(&mut self, _from: NodeId, payload: &[u8]) -> Vec<Envelope> {
///         if payload == b"ping" { self.got += 1; }
///         Vec::new()
///     }
///     fn output(&self) -> Option<usize> {
///         (self.got + 1 >= self.n).then_some(self.got)
///     }
/// }
///
/// let mut p = Ping { id: NodeId(0), n: 2, got: 0 };
/// assert_eq!(p.start().len(), 1);
/// p.on_message(NodeId(1), b"ping");
/// assert_eq!(p.output(), Some(1));
/// ```
pub trait Protocol {
    /// The value this protocol decides / outputs.
    type Output: Clone + fmt::Debug;

    /// This node's identity.
    fn node_id(&self) -> NodeId;

    /// System size `n`.
    fn n(&self) -> usize;

    /// Starts the protocol, returning the initial messages to send.
    ///
    /// Drivers call this exactly once, before any `on_message`.
    fn start(&mut self) -> Vec<Envelope>;

    /// Handles a message from `from`, returning messages to send.
    ///
    /// `from` is authenticated by the transport (pairwise authenticated
    /// channels are part of the system model); `payload` is untrusted.
    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope>;

    /// Handles a time trigger from the driver, returning messages to send.
    ///
    /// Transports with a clock (the simulator's tick events; not the TCP
    /// runtime, whose dispatch worker flushes once its inbox is empty)
    /// call this periodically; protocols that defer work against a time bound —
    /// adaptive batch flushing, most prominently — release it here. The
    /// default does nothing, so message-driven protocols are unaffected.
    fn on_tick(&mut self) -> Vec<Envelope> {
        Vec::new()
    }

    /// The decided output, once available.
    ///
    /// A protocol may keep emitting messages after producing an output
    /// (e.g. to help peers terminate); see [`Protocol::is_finished`].
    fn output(&self) -> Option<Self::Output>;

    /// Whether the node is fully done (will never emit another message).
    ///
    /// Defaults to "has an output".
    fn is_finished(&self) -> bool {
        self.output().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_constructors() {
        let e = Envelope::to_all(Bytes::from_static(b"abc"));
        assert_eq!(e.to, Recipient::All);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());

        let e = Envelope::to_one(NodeId(2), Bytes::new());
        assert_eq!(e.to, Recipient::One(NodeId(2)));
        assert!(e.is_empty());
    }

    #[test]
    fn envelope_debug_shows_len_not_bytes() {
        let e = Envelope::to_all(Bytes::from_static(b"secret"));
        let dbg = format!("{e:?}");
        assert!(dbg.contains("len: 6"), "{dbg}");
        assert!(!dbg.contains("secret"));
    }
}
