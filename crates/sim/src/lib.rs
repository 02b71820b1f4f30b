//! Deterministic discrete-event network simulator.
//!
//! This crate is the reproduction's stand-in for the paper's two testbeds
//! (§VI-C): the geo-distributed AWS deployment and the Raspberry-Pi CPS
//! cluster. It drives any set of [`Protocol`](delphi_primitives::Protocol)
//! state machines over a simulated asynchronous network and reports
//!
//! - **latency** in simulated time, under a configurable latency model
//!   (per-pair geo matrices with jitter for "AWS", bandwidth-limited shared
//!   links for "CPS"), and
//! - **bandwidth** as the exact number of bytes the protocols put on the
//!   wire (payload plus the same framing overhead `delphi-net` adds).
//!
//! Runs are fully deterministic given a seed, so every experiment and every
//! failing test can be replayed. A multi-asset scenario is an epoch
//! stream: [`EpochProtocol`](delphi_primitives::EpochProtocol) nodes
//! multiplex all assets over one simulated mesh with batched envelopes,
//! the same state machine the TCP runner runs as it was built, and
//! [`EpochThroughput`] summarizes such a run.
//!
//! Every run is judged by one oracle: [`judge`] checks ε-agreement and
//! δ-relaxed validity of one agreement against the honest inputs, and
//! [`judge_streams`] checks whole ordered epoch streams with it.
//!
//! # Model
//!
//! - Message delivery time = sender egress serialization (bytes / egress
//!   bandwidth, queued per sender) + sampled one-way latency (+ optional
//!   per-pair FIFO clamping).
//! - Receiver CPU is a single server queue: each message costs
//!   `per_message + per_byte·len` processing time before the protocol sees
//!   it (the t2.micro vs Raspberry-Pi contrast in Fig. 6 comes from this
//!   knob together with bandwidth).
//! - The adversary owns scheduling within these bounds: latency models with
//!   jitter reorder arbitrarily. It also owns the faulty nodes: an
//!   [`adversary::Faulty`] node sends whatever its *forge* answers to the
//!   bytes it hears — silence, garbage, replays, or a protocol's own
//!   forgeries, written beside that protocol's tests where its message
//!   schema is known — and [`adversary`]'s wrappers crash or corrupt an
//!   honest node. Messages are never dropped, matching the paper's
//!   network assumption.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use delphi_primitives::{Envelope, NodeId, Protocol};
//! use delphi_sim::{Simulation, Topology};
//!
//! // A one-shot gossip: every node broadcasts "hi" and outputs the count
//! // of greetings received once it has heard from everyone else.
//! struct Gossip { id: NodeId, n: usize, heard: usize }
//! impl Protocol for Gossip {
//!     type Output = usize;
//!     fn node_id(&self) -> NodeId { self.id }
//!     fn n(&self) -> usize { self.n }
//!     fn start(&mut self) -> Vec<Envelope> {
//!         vec![Envelope::to_all(Bytes::from_static(b"hi"))]
//!     }
//!     fn on_message(&mut self, _: NodeId, m: &[u8]) -> Vec<Envelope> {
//!         if m == b"hi" { self.heard += 1; }
//!         Vec::new()
//!     }
//!     fn output(&self) -> Option<usize> {
//!         (self.heard == self.n - 1).then_some(self.heard)
//!     }
//! }
//!
//! let n = 4;
//! let nodes = NodeId::all(n)
//!     .map(|id| Box::new(Gossip { id, n, heard: 0 }) as Box<dyn Protocol<Output = usize>>)
//!     .collect();
//! let report = Simulation::new(Topology::lan(n)).seed(7).run(nodes);
//! assert!(report.all_honest_finished());
//! assert_eq!(report.outputs[0], Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod engine;
mod judge;
mod latency;
mod metrics;
mod topology;

pub use engine::{RunReport, Simulation, StopReason};
pub use judge::{judge, judge_streams, spread};
pub use latency::{Jitter, LatencyMatrix};
pub use metrics::{EpochThroughput, Metrics, NodeMetrics};
pub use topology::{CostModel, Topology, WIRE_OVERHEAD_BYTES};
