//! Hypergraph substrate for the MoCHy reproduction.
//!
//! A hypergraph `G = (V, E)` consists of a node set `V` and a set of
//! hyperedges `E`, each of which is a non-empty subset of `V` (Section 2.1 of
//! the paper). This crate provides:
//!
//! - [`Hypergraph`]: an immutable, cache-friendly CSR representation of a
//!   hypergraph together with the node → hyperedge incidence index `E_v`.
//! - [`HypergraphBuilder`]: a mutable builder that validates, sorts, and
//!   deduplicates hyperedges.
//! - [`io`]: plain-text readers/writers compatible with the format used by the
//!   reference MoCHy implementation (one hyperedge per line), with
//!   content-based format auto-detection ([`io::read_file_auto`]).
//! - [`snapshot`]: the versioned, checksummed `.mochy` binary snapshot
//!   format — cold-start loading proportional to I/O, not parsing.
//! - [`stats`]: summary statistics used in Table 2 of the paper.
//! - [`bipartite`]: the star expansion (bipartite incidence graph) `G'` used
//!   by the null model and the network-motif baseline.
//! - [`csr`]: the flat compressed-sparse-row container backing both the
//!   hypergraph and the projected graph.
//! - [`parallel`]: a scoped thread pool over an atomic chunked work queue,
//!   shared by every parallel MoCHy variant (Section 3.4).
//! - [`dynamic`]: a mutable hypergraph (insert/remove with monotone,
//!   never-reused edge ids) backing the streaming motif counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod builder;
pub mod components;
pub mod csr;
pub mod distributions;
pub mod dynamic;
pub mod error;
pub mod graph;
pub mod io;
pub mod parallel;
pub mod snapshot;
pub mod stats;
pub mod transform;

pub use bipartite::BipartiteGraph;
pub use builder::HypergraphBuilder;
pub use components::{edge_components, node_components, Components, DistanceStats};
pub use csr::Csr;
pub use distributions::EmpiricalDistribution;
pub use dynamic::DynamicHypergraph;
pub use error::HypergraphError;
pub use graph::{EdgeId, Hypergraph, NodeId};
pub use parallel::{default_chunk_size, map_reduce_chunks, ChunkQueue, PoolSaturated, WorkerPool};
pub use snapshot::{
    read_snapshot, read_snapshot_bytes, read_snapshot_file, read_snapshot_file_with_checksum,
    write_snapshot, write_snapshot_file, SnapshotError,
};
pub use stats::HypergraphStats;
pub use transform::{clique_expansion, dual, WeightedGraph};
