//! Self-contained cryptographic substrate for the `asym-dag-rider`
//! reproduction: SHA-256, content digests, and the simulated common coin.
//!
//! The offline build policy disallows external crypto crates, so [`Sha256`]
//! is implemented from scratch (validated against NIST vectors). [`Digest`]
//! is the 32-byte digest type; [`CommonCoin`] provides the shared-randomness
//! leader election that DAG-Rider-style protocols require (see `DESIGN.md`
//! §4 for the substitution argument relative to the paper's
//! threshold-cryptography coin).
//!
//! ```
//! use asym_crypto::{sha256, CommonCoin};
//!
//! let digest = sha256(b"block payload");
//! let coin = CommonCoin::new(digest.to_u64(), 7);
//! assert!(coin.leader(1).index() < 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coin;
mod digest;
mod sha256;

pub use coin::CommonCoin;
pub use digest::Digest;
pub use sha256::{sha256, Sha256};
