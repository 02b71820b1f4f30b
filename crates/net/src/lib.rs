//! Tokio TCP runtime for Delphi protocol state machines.
//!
//! The paper's artifact runs on tokio over HMAC-authenticated channels
//! (§VI-C); this crate is that deployment path. The same sans-io
//! [`Protocol`](delphi_primitives::Protocol) state machines that run under
//! the simulator run here over real sockets, through a layered stack:
//!
//! - [`frame`]: the one wire format — a length-prefixed batch of
//!   epoch-addressed `(agreement, payload)` entries under an HMAC-SHA256
//!   (of the body's SHA-256) tag keyed by the pairwise channel key: the
//!   authenticated-channel assumption made concrete, one body hash per
//!   broadcast. Tampered or misdirected frames are dropped, never
//!   surfaced to the protocol.
//! - [`transport`] (internal): sockets — the accept loop and read loops,
//!   per-peer links the workers write to, each with a lazy-dialing writer
//!   task as its slow path, plus the [`NetStats`] counters.
//! - [`session`] (internal): per-peer authenticated channels — batching
//!   under the run's [`FlushPolicy`], worker-owned egress lanes, and
//!   bounded drain-on-shutdown.
//! - [`service`]: the runner. [`run_epoch_service`] binds a listener,
//!   dials every peer, drives a long-lived epoch stream — an
//!   [`EpochMux`](delphi_primitives::EpochMux) pipeline — to completion,
//!   lingers so slower peers still receive our help messages, and drains
//!   writer queues before returning. [`run_node`] / [`run_instances`] are
//!   its one-shot adapters: one or many pre-built protocol instances as a
//!   stream of one epoch.
//! - [`config`] / [`cluster`]: real deployments — a TOML cluster-file
//!   format (node ids, addresses, key material) and a multi-process
//!   launcher that runs one node per OS process and collects per-node
//!   results over stdout JSON.
//!
//! # Example
//!
//! See `examples/tcp_cluster.rs` at the workspace root, which runs a
//! Delphi cluster over localhost TCP from a [`config::ClusterConfig`].
//! The loopback integration test in [`service`] does the same with 4
//! BinAA nodes; `tests/cluster_process.rs` at the workspace root runs the
//! full multi-process harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod frame;
pub mod service;
mod session;
mod transport;

pub use delphi_primitives::FlushPolicy;
pub use frame::{
    decode_inbound_frame_ref, encode_epoch_frame, split_verified_body, FrameError, EPOCH_MARKER,
    MAX_FRAME_BODY, MAX_FRAME_PAYLOAD, MIN_FRAME_BODY,
};
pub use service::{
    run_epoch_service, run_instances, run_node, EpochServiceHandle, NetError, RunOptions,
    ServiceStats,
};
pub use transport::{NetStats, MAX_RECV_SHARDS};
