//! The Delphi protocol: efficient asynchronous approximate agreement for
//! distributed oracles.
//!
//! This crate implements the paper's primary contribution, bottom-up:
//!
//! - [`bv`]: one round of *weak Binary-Value broadcast* (Definition II.2) —
//!   the Bracha-style `ECHO1`/`ECHO2` quorum machine every round of BinAA
//!   is built from.
//! - [`binaa`]: the multi-round **BinAA** protocol (Algorithm 1):
//!   approximate agreement for binary inputs, halving the honest range
//!   every round. Usable standalone via [`BinAaNode`].
//! - [`delphi`]: the **Delphi** protocol itself (Algorithm 2): one BinAA
//!   instance per checkpoint per level, sparse zero-run message bundling
//!   (§III-C), and the multi-level weighted aggregation with the
//!   `w′_l = w_l·|w_l − w_{l−1}|` differentiation trick — one machine,
//!   [`VectorDelphiNode`], for a basket of any size; [`DelphiNode`] is
//!   the basket of one.
//! - [`params`]: the parameter engine deriving `l_M`, `ε′` and `r_M` from
//!   `(ρ_0, Δ, ε, n)` exactly as Algorithm 2's setup does.
//! - [`aggregate`]: the pure weighted-average math of Algorithm 2 lines
//!   14–24, separated for direct unit-testing of the paper's lemmas.
//!
//! All protocol types are sans-io state machines implementing
//! [`Protocol`](delphi_primitives::Protocol); drive them with `delphi-sim`
//! (deterministic simulation) or `delphi-net` (real TCP).
//!
//! # Quickstart
//!
//! ```
//! use delphi_core::{DelphiConfig, DelphiNode};
//! use delphi_primitives::{NodeId, Protocol};
//! use delphi_sim::{Simulation, Topology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 4 oracle nodes agree on a temperature reading near 20 °C.
//! let cfg = DelphiConfig::builder(4)
//!     .space(-50.0, 50.0)
//!     .rho0(0.5)
//!     .delta_max(8.0)
//!     .epsilon(0.5)
//!     .build()?;
//! let inputs = [19.8, 20.1, 20.3, 19.9];
//! let nodes = NodeId::all(4)
//!     .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
//!     .collect();
//! let report = delphi_sim::Simulation::new(Topology::lan(4)).seed(1).run(nodes);
//!
//! let outputs: Vec<f64> = report.honest_outputs().copied().collect();
//! assert_eq!(outputs.len(), 4);
//! for pair in outputs.windows(2) {
//!     assert!((pair[0] - pair[1]).abs() <= 0.5); // ε-agreement
//! }
//! assert!(outputs.iter().all(|&o| (19.3..=20.8).contains(&o))); // relaxed validity
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod binaa;
mod bundle;
pub mod bv;
pub mod delphi;
mod messages;
pub mod oracle;
pub mod params;

pub use binaa::BinAaNode;
pub use bundle::{BasketBundleRef, BundleArena, BundleRef, DelphiBundleRef, FlatSection};
pub use delphi::{DelphiNode, VectorDelphiNode};
pub use messages::{BasketBundle, BasketSection, BinAaMsg, EchoKind};
pub use oracle::{flatten_vector_events, OracleService, PriceSource};
pub use params::{ConfigError, DelphiConfig, DelphiConfigBuilder, InputRule};
