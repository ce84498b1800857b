//! Hypergraph projection (Algorithm 1 of the paper).
//!
//! The *projected graph* `G¯ = (E, ∧, ω)` of a hypergraph `G = (V, E)` has the
//! hyperedges of `G` as its vertices; two hyperedges are adjacent iff they
//! share at least one node (such an unordered pair is a *hyperwedge*), and the
//! weight `ω(∧_ij) = |e_i ∩ e_j|` records the overlap size. MoCHy-E and
//! MoCHy-A+ walk this structure; MoCHy-A and the streaming counter count
//! around one hyperedge from its incidence lists instead.
//!
//! Three construction strategies are provided:
//!
//! - [`project`]: the sequential Algorithm 1. Hyperedges are visited in
//!   increasing id and each appends itself to the rows of the hyperedges it
//!   overlaps, so rows come out sorted, with no hashing and no sorting,
//!   straight into CSR storage.
//! - [`project_parallel`]: the multi-threaded variant of Section 3.4. Each
//!   worker fills the rows for one block of hyperedges, the blocks balanced
//!   by work, and each row is stitched from the workers' sorted runs; output
//!   is identical to [`project`].
//! - [`lazy::LazyProjection`]: the on-the-fly variant of Section 3.4, which
//!   computes hyperedge neighbourhoods on demand and memoizes them within a
//!   configurable budget, prioritized by degree / LRU / random (Figure 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lazy;
pub mod projected;

pub use lazy::{LazyProjection, MemoPolicy, MemoStats};
pub use projected::{
    compute_neighborhood, project, project_parallel, ProjectedGraph, WeightedNeighbor,
};
