//! Read-side serving layer for the Delphi oracle.
//!
//! The protocol crates produce an ordered stream of `(epoch, asset)`
//! agreements; this crate is where readers meet that stream without ever
//! touching the protocol hot path. A publisher task tails the epoch
//! service's live event stream (the tail `delphi_net::run_epoch_service`
//! hands out beside its handle) and everything downstream reads from
//! caches it fills:
//!
//! - [`FeedState`]: a per-asset snapshot cache — hot scalars in a
//!   seqlocked `StatsCell` for lock-free latest-value reads, `Arc`-swapped
//!   full updates, and a bounded history ring;
//! - [`SubscriberHub`]: per-asset fan-out over bounded queues with
//!   lag-kick — a slow reader is kicked and re-syncs from the snapshot,
//!   never back-pressuring the publisher;
//! - [`QuorumSigner`] / [`FeedAttestation`](delphi_dora::FeedAttestation):
//!   every served slot carries a certificate a light client verifies
//!   offline with only the deployment seed;
//! - [`ApiServer`]: a hand-rolled HTTP/1.1 endpoint (`/v0/health`,
//!   `/v0/latest`, `/v0/history`, `/v0/attestation`, `/v0/stats`,
//!   `/v0/subscribe`) over the vendored tokio TCP stack;
//! - [`ServiceBuilder`]: the redesigned public surface — one chained
//!   builder replacing the removed `OracleService::new`/`new_sharded`
//!   constructor pair and positional `RunOptions` plumbing, finishing in
//!   either a sans-io [`OracleService`](delphi_core::OracleService) or a
//!   full served deployment ([`ServiceBuilder::serve`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attest;
mod builder;
mod feed;
pub mod http;
mod hub;
mod server;

pub use attest::{attestation_from_hex, attestation_to_hex, QuorumSigner};
pub use builder::{OracleHandle, ServiceBuilder};
pub use feed::{FeedState, FeedUpdate};
pub use hub::{RecvError, SubscriberHub, Subscription};
pub use server::{ApiContext, ApiServer};
