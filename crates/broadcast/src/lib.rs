//! Reliable broadcast over (asymmetric) Byzantine quorum systems — the
//! `arb-broadcast` / `arb-deliver` primitive of the paper.
//!
//! The paper's DAG protocols disseminate every vertex through **asymmetric
//! reliable broadcast** (Alpos et al.), obtained from Bracha's protocol by
//! replacing the two thresholds with quorum/kernel conditions — one of the
//! cases where the quorum-replacement heuristic *does* work (unlike for
//! gather, which is the paper's central negative result).
//!
//! * [`BroadcastHub`] — multi-instance asymmetric reliable broadcast
//!   (SEND → ECHO → READY with kernel amplification); with a uniform
//!   threshold system this is exactly Bracha's protocol, which doubles as the
//!   symmetric baseline.
//! * [`ArbProcess`] — a standalone simulation wrapper with honest and
//!   equivocating roles for adversarial tests.
//!
//! ```
//! use asym_broadcast::{BcastMsg, BroadcastHub};
//! use asym_quorum::{topology, ProcessId};
//!
//! let t = topology::uniform_threshold(4, 1);
//! let mut hub = BroadcastHub::<&'static str>::new(ProcessId::new(1), t.quorums);
//! let to_all = hub.broadcast(0, "block");
//! assert_eq!(to_all.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod process;
mod reliable;

pub use process::{ArbProcess, ArbRole};
pub use reliable::{BcastMsg, BroadcastHub, Delivery, Tag};
