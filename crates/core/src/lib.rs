//! MoCHy — Motif Counting in Hypergraphs.
//!
//! The primary entry point is the [`engine`] module: build a
//! [`CountConfig`] choosing a [`Method`] (exact, edge-sampled,
//! wedge-sampled, adaptive, or on-the-fly), and run
//! [`MotifEngine::count`] to obtain a [`CountReport`] — counts plus
//! estimator metadata (samples drawn, standard errors, elapsed time,
//! projection mode). Switching algorithms changes only the configuration,
//! never the call site:
//!
//! | Paper algorithm | [`engine::Method`] variant |
//! |---|---|
//! | Algorithm 2 (MoCHy-E, exact; parallel per Section 3.4) | `Method::Exact` |
//! | Algorithm 4 (MoCHy-A, hyperedge sampling) | `Method::EdgeSample` |
//! | Algorithm 5 (MoCHy-A+, hyperwedge sampling) | `Method::WedgeSample` |
//! | Algorithm 5 + batched stopping rule | `Method::Adaptive` |
//! | Section 3.4 on-the-fly projection | `Method::OnTheFly` |
//!
//! The paper-numbered algorithms remain available as free functions so
//! they stay individually citable:
//!
//! - [`exact::mochy_e`] — Algorithm 2, exact counting of every h-motif's
//!   instances. Its counting kernel tallies open h-motifs in closed form
//!   per centre, tallies the triangles of the projected graph by a 10-bit
//!   key of their Venn regions, and classifies each key once.
//!   [`exact::mochy_e_enumerate`] — Algorithm 3, instance enumeration, by
//!   the pair walk; [`exact::mochy_e_per_edge`] — per-hyperedge
//!   participation counts (used as prediction features in Section 4.4).
//! - [`sample::mochy_a_parallel`] — Algorithm 4, unbiased approximate
//!   counting by hyperedge sampling. Each sample counts the instances that
//!   contain it (its *star*) with the kernel the streaming engine also
//!   runs.
//! - [`sample::mochy_a_plus_parallel`] — Algorithm 5, unbiased approximate
//!   counting by hyperwedge sampling.
//! - [`exact::mochy_e_parallel`] and both samplers run on scoped threads
//!   with per-thread accumulators (Section 3.4): exact integer tallies for
//!   MoCHy-E. The samplers take a seed and derive one RNG stream per
//!   sample, so every thread count gives the same estimate.
//! - [`onthefly`] — MoCHy-A+ over a lazily projected, budget-memoized graph
//!   (Section 3.4, Figure 11), run through `Method::OnTheFly`.
//! - [`profile`] — significance (Eq. 1) and characteristic profiles (Eq. 2).
//! - [`variance`] — the exact variance formulas of Theorems 2 and 4, computed
//!   from instance-overlap statistics; used to validate the estimators.
//! - [`adaptive`] — MoCHy-A+ with an adaptive stopping rule and per-motif
//!   confidence intervals, built on batched independent estimates.
//! - [`general`] — exact counting of the generalized h-motifs over `k = 3`
//!   or `k = 4` hyperedges (Section 2.2's generalization).
//! - [`streaming`] — [`streaming::StreamingEngine`]: exact counts maintained
//!   incrementally under hyperedge insertions and deletions, each one adding
//!   or subtracting the star of the touched hyperedge (evolving-hypergraph
//!   workloads).
//! - [`shard`] — scatter-gather MoCHy-E over contiguous hyperedge shards:
//!   each shard counts the instances centred in its edge span on the one
//!   full projection, and an order-fixed merge is bit-identical to the
//!   unsharded run (`CountConfig::shards`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod classify;
pub mod count;
pub mod engine;
pub mod exact;
pub mod general;
pub mod onthefly;
pub mod pairwise;
pub mod pernode;
pub mod profile;
pub mod sample;
pub mod shard;
mod star;
pub mod streaming;
pub mod variance;

pub use adaptive::{AdaptiveConfig, AdaptiveOutcome};
pub use classify::classify_triple;
pub use count::MotifCounts;
pub use engine::{CountConfig, CountReport, Method, MotifEngine, ProjectionMode};
pub use exact::{mochy_e, mochy_e_enumerate, mochy_e_parallel, mochy_e_per_edge};
pub use general::{enumerate_connected_sets, mochy_e_general, GeneralCounts};
pub use pairwise::{PairRelation, PairwiseCensus, PairwiseCollapse, PairwisePattern};
pub use pernode::{mochy_e_per_node, node_participation_totals};
pub use profile::{characteristic_profile, significance, SignificanceOptions};
pub use sample::{mochy_a_parallel, mochy_a_plus_parallel};
pub use shard::{count_sharded, merge_partials, ShardPartial};
pub use streaming::{StreamConfig, StreamStats, StreamingEngine};
