//! From-scratch cryptographic substrate for the Delphi reproduction.
//!
//! The paper's implementation "uses Hash-based Message Authentication Codes
//! (HMAC) with the SHA256 Hash function and shared symmetric keys to
//! implement authenticated channels" (§VI-C). This crate provides exactly
//! that substrate, implemented from first principles so the workspace has
//! no external cryptography dependencies:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256 (validated against NIST test vectors);
//! - [`hmac_sha256`]: RFC 2104 HMAC-SHA256 (validated against RFC 4231
//!   vectors);
//! - [`Keychain`]: pairwise symmetric keys derived from a deployment seed,
//!   giving every ordered pair of nodes a shared MAC key — the paper's
//!   "pairwise authenticated channels". The transport's frame tag is
//!   HMAC-SHA256 under that key over the SHA-256 of the frame body
//!   (`delphi_net::frame`), so a broadcast hashes its body once and pays
//!   only a 32-byte HMAC per peer; that rests on SHA-256 collision
//!   resistance as well as on HMAC;
//! - [`signing`]: HMAC-based attestation "signatures" used by the DORA
//!   layer (§V). These simulate the transferable signatures a production
//!   deployment would implement with Ed25519/BLS; the substitution is
//!   documented in `DESIGN.md` §5 and only the operation *counts and sizes*
//!   matter for the evaluation.
//!
//! # Security note
//!
//! This code is a faithful, tested implementation of the algorithms, but it
//! has not been hardened against side channels and the attestation scheme
//! is deliberately a simulation. Do not reuse outside this reproduction.
//!
//! # Example
//!
//! ```
//! use delphi_crypto::{sha256, hmac_sha256};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(hex(&digest[..4]), "ba7816bf");
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//!
//! fn hex(bytes: &[u8]) -> String {
//!     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hmac;
mod keychain;
pub mod sha256;
pub mod signing;

pub use hmac::{hmac_sha256, HmacKey, HmacSha256};
pub use keychain::{ChannelKey, Keychain, MacError, TAG_LEN};
pub use sha256::{sha256, Sha256, DIGEST_LEN};
