//! A deterministic discrete-event simulator for asynchronous message-passing
//! protocols — the execution substrate of the `asym-dag-rider` reproduction.
//!
//! The paper (*"DAG-based Consensus with Asymmetric Trust"*, PODC 2025)
//! assumes the standard asynchronous model: reliable authenticated
//! point-to-point links, delivery order controlled by an adversary. This
//! crate realizes that model exactly:
//!
//! * [`Protocol`] — event-driven state machines (`on_start`, `on_input`,
//!   `on_message`) emitting sends and outputs through a [`Context`];
//! * [`Simulation`] — the event loop: one protocol instance per process, a
//!   bag of in-flight messages, deterministic replayable executions;
//! * [`scheduler`] — adversary strategies: FIFO, seeded-random, random
//!   latency (for simulated-time measurements), targeted delay, partitions,
//!   and arbitrary predicate-filtered starvation (used to realize the paper's
//!   Appendix-A schedule);
//! * [`FaultMode`] — crash/omission fault injection at the network layer
//!   (Byzantine *behaviour* is modelled inside protocol types themselves);
//! * [`Adversary`] — declarative scheduler descriptions that sweep harnesses
//!   enumerate, print in failure reports, and rebuild deterministically.
//!
//! Executions are deterministic given seeds, so every test — including the
//! adversarial ones — replays bit-for-bit.
//!
//! # Example: three processes gossiping
//!
//! ```
//! use asym_quorum::ProcessId;
//! use asym_sim::{scheduler, Context, Protocol, Simulation};
//!
//! struct Hello;
//! impl Protocol for Hello {
//!     type Msg = &'static str;
//!     type Input = ();
//!     type Output = (ProcessId, &'static str);
//!     fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
//!         ctx.broadcast("hello");
//!     }
//!     fn on_message(
//!         &mut self,
//!         from: ProcessId,
//!         msg: Self::Msg,
//!         ctx: &mut Context<'_, Self::Msg, Self::Output>,
//!     ) {
//!         ctx.output((from, msg));
//!     }
//! }
//!
//! let mut sim = Simulation::new(vec![Hello, Hello, Hello], scheduler::Random::new(42));
//! assert!(sim.run(1_000).quiescent);
//! assert_eq!(sim.outputs(ProcessId::new(2)).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod network;
mod process;
pub mod scheduler;
mod seq_index;
pub mod threaded;

pub use adversary::Adversary;
pub use network::{FaultMode, NetStats, RunReport, Simulation};
pub use process::{Context, Dest, Harness, Protocol, Step};
pub use scheduler::{InFlight, Scheduler};
