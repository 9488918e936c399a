//! The certified-DAG substrate of the DAG-Rider family: vertices with
//! strong/weak edges, a round-indexed store with reachability queries, the
//! dense `(round, source)` maps and sets vertex-keyed state lives in, and
//! wave arithmetic.
//!
//! Both consensus protocols in this repository — symmetric DAG-Rider and the
//! paper's asymmetric variant — build their local DAGs out of these types.
//! Because vertices travel over reliable broadcast, `(source, round)` is a
//! sound identity ([`VertexId`]), and the store can enforce the
//! "causal history present before insertion" invariant that the ordering
//! logic relies on.
//!
//! ```
//! use asym_dag::{round_of_wave, wave_of_round, DagStore, Vertex};
//! use asym_quorum::{ProcessId, ProcessSet};
//!
//! let mut dag: DagStore<&'static str> = DagStore::with_genesis(4, "genesis");
//! let v = Vertex::new(
//!     ProcessId::new(1),
//!     1,
//!     "block",
//!     ProcessSet::from_indices([0, 1, 2]),
//!     vec![],
//! );
//! dag.insert(v)?;
//! assert_eq!(wave_of_round(1), 1);
//! assert_eq!(round_of_wave(1, 4), 4);
//! # Ok::<(), asym_dag::DagError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod store;
mod vertex;
mod wave;

pub use index::{VertexMap, VertexSet};
pub use store::{DagError, DagStore};
pub use vertex::{Round, Vertex, VertexId};
pub use wave::{
    is_wave_boundary, position_in_wave, round_of_wave, wave_of_round, WaveId, ROUNDS_PER_WAVE,
};
