//! DAG-Rider and **asymmetric DAG-Rider**: randomized asynchronous Byzantine
//! atomic broadcast over symmetric and asymmetric quorum systems — the core
//! contribution of *"DAG-based Consensus with Asymmetric Trust"*
//! (Amores-Sesar, Cachin, Villacis, Zanolini; PODC 2025).
//!
//! * [`DagRider`] — the symmetric baseline (Keidar et al.): `n − f` round
//!   advancement, `n − f` commit rule — the asymmetric rules on the uniform
//!   threshold system, without the control ladder;
//! * [`AsymDagRider`] — Algorithms 4–6: quorum-based round advancement, the
//!   per-wave ACK/READY/CONFIRM control ladder that turns every wave into an
//!   execution of the constant-round asymmetric gather, and the
//!   any-process-quorum commit rule. Commits are expected every
//!   `|P| / c(Q)` waves (Lemma 4.4);
//! * shared substrate: [`DagCore`] (vertex lifecycle and validity),
//!   [`WaveCommitter`] (leader-stack ordering), [`Block`] /
//!   [`OrderedVertex`] / [`RiderConfig`] / [`RiderMetrics`];
//! * crash recovery: [`AsymDagRider::with_storage`] attaches a [`DagLog`]
//!   (an `asym-storage` write-ahead log). After a
//!   [`FaultMode::RestartAfter`](asym_sim::FaultMode::RestartAfter) window
//!   the process replays it and catches up without ever delivering a block
//!   twice: it fetches missed vertices from peers or, below every peer's
//!   pruning floor, installs the delivered prefix as certified outputs
//!   ([`transfer`]). Both paths accept evidence only when a kernel of the
//!   receiver's own quorum system vouches for it, through one crate-private
//!   `KernelVotes` tally; the catch-up logic lives apart from Algorithms
//!   4–6 in the private `catchup` module. `docs/ARCHITECTURE.md` at the
//!   repository root documents the full lifecycle.
//!
//! Both protocols implement [`asym_sim::Protocol`]: inputs are blocks
//! (`aa-broadcast`), outputs are [`OrderedVertex`] events (`aa-deliver`) in
//! an identical total order at every (guild) process.
//!
//! ```
//! use asym_core::{AsymDagRider, Block, RiderConfig};
//! use asym_quorum::{topology, ProcessId};
//! use asym_sim::{scheduler, Simulation};
//!
//! let t = topology::uniform_threshold(4, 1);
//! let config = RiderConfig { max_waves: 4, ..Default::default() };
//! let procs: Vec<AsymDagRider> = (0..4)
//!     .map(|i| AsymDagRider::new(ProcessId::new(i), t.quorums.clone(), 7, config))
//!     .collect();
//! let mut sim = Simulation::new(procs, scheduler::Random::new(1));
//! sim.input(ProcessId::new(0), Block::new(vec![1, 2, 3]));
//! assert!(sim.run(50_000_000).quiescent);
//! assert!(!sim.outputs(ProcessId::new(0)).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asym_rider;
mod catchup;
mod dagcore;
mod kernel_votes;
mod ordering;
mod rider;
pub mod transfer;
mod types;

pub use asym_rider::{AsymDagRider, AsymRiderMsg};
pub use dagcore::{DagCore, DagLog};
pub use ordering::{CommitOutcome, WaveCommitter};
pub use rider::DagRider;
pub use transfer::{TransferState, TransferStats, WaveSegment};
pub use types::{Block, OrderedVertex, RiderConfig, RiderMetrics, Tx};
