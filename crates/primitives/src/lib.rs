//! Core types shared by every crate in the Delphi reproduction.
//!
//! This crate is the foundation of the workspace. It provides:
//!
//! - [`NodeId`] and [`Round`]: newtypes identifying protocol participants and
//!   protocol rounds.
//! - [`Dyadic`]: exact binary rationals `j / 2^k`. Every state value that the
//!   BinAA sub-protocol of Delphi manipulates has this form, so representing
//!   them exactly lets the test-suite assert agreement and validity
//!   *exactly*, with no floating-point tolerance fudging.
//! - [`NodeBitSet`]: compact sender sets used for quorum counting
//!   (`t + 1` amplification and `n − t` quorums appear in every protocol in
//!   the workspace).
//! - [`wire`]: a small, dependency-free binary codec (varints, zig-zag,
//!   length-prefixed bytes). Protocols encode their own messages with it, so
//!   the simulator and the TCP transport both move plain bytes and the
//!   bandwidth numbers reported by the benchmark harness are byte-accurate.
//! - [`Protocol`]: the sans-io state-machine abstraction implemented by
//!   Delphi, the baselines, and the DORA layer, and driven by both the
//!   discrete-event simulator (`delphi-sim`) and the tokio TCP runtime
//!   (`delphi-net`).
//! - [`InstanceId`], [`EpochId`] / [`AgreementId`] and [`epoch`]:
//!   multiplexing many protocol instances (one per oracle asset, epoch
//!   after epoch) over a single mesh — the streaming-oracle lifecycle with
//!   a bounded live window, ordered output streams, and one batch-entry
//!   codec so transports amortize framing + MAC cost over every
//!   instance's traffic. One [`EpochProtocol`] per node is the whole
//!   pipeline, flush policy included, and both transports run it as
//!   built. A one-shot basket is a stream of one epoch.
//!
//! # Example
//!
//! ```
//! use delphi_primitives::{Dyadic, NodeId};
//!
//! let half = Dyadic::new(1, 1);
//! let quarter = Dyadic::new(1, 2);
//! assert_eq!(half.midpoint(quarter), Dyadic::new(3, 3)); // 3/8
//! assert_eq!(NodeId(3).to_string(), "node-3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod dyadic;
pub mod epoch;
mod id;
mod protocol;
mod stats;
pub mod wire;

pub use bitset::NodeBitSet;
pub use dyadic::{Dyadic, DyadicRangeError};
pub use epoch::{
    AgreementId, EpochConfig, EpochEvent, EpochId, EpochOutcome, EpochProtocol, EpochStats,
    FlushPolicy,
};
pub use id::{InstanceId, NodeId, Round};
pub use protocol::{Envelope, Protocol, Recipient};
pub use stats::{json_f64, CounterGroup, StatsCell};
