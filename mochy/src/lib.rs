//! # mochy — Hypergraph Motifs in Rust
//!
//! A Rust reproduction of *"Hypergraph Motifs: Concepts, Algorithms, and
//! Discoveries"* (Lee, Ko, Shin — VLDB 2020).
//!
//! This facade crate re-exports the public API of every crate in the
//! workspace so downstream users can depend on a single crate:
//!
//! - [`hypergraph`] — hypergraph data structures (CSR), builders, IO,
//!   statistics, and the shared work-stealing thread pool.
//! - [`motif`] — the 26 h-motifs: patterns, canonicalization, catalog.
//! - [`projection`] — the projected graph (hyperwedges) and lazy projection.
//! - [`core`] — the MoCHy counting algorithms (exact, sampling, parallel),
//!   significance and characteristic profiles, and the streaming engine for
//!   evolving hypergraphs ([`core::streaming::StreamingEngine`]).
//! - [`nullmodel`] — Chung-Lu randomization of hypergraphs.
//! - [`datagen`] — synthetic domain-flavoured hypergraph generators.
//! - [`netmotif`] — network-motif (graphlet) baseline counting.
//! - [`ml`] — small from-scratch classifiers and metrics (Table 4).
//! - [`analysis`] — end-to-end pipelines: CPs, similarity, evolution,
//!   hyperedge prediction.
//! - [`serve`] — the `mochy-serve` HTTP service layer: dataset registry
//!   with immutable snapshots, JSON API, result cache, backpressure. Boots
//!   from text datasets or binary `.mochy` snapshots
//!   ([`hypergraph::snapshot`]) and ingests uploaded snapshots at runtime
//!   via `POST /v1/datasets`.
//!
//! ## Quickstart
//!
//! Counting goes through the [`core::engine::MotifEngine`]: pick a
//! [`core::engine::Method`], build a [`core::engine::CountConfig`], and
//! every algorithm of the paper is one configuration change away.
//!
//! ```
//! use mochy::prelude::*;
//!
//! // Build a small hypergraph: 4 hyperedges over 8 nodes (Figure 2 of the paper).
//! let h = HypergraphBuilder::new()
//!     .with_edge([0u32, 1, 2])   // e1 = {L, K, F}
//!     .with_edge([0, 3, 1])      // e2 = {L, H, K}
//!     .with_edge([4, 5, 0])      // e3 = {B, G, L}
//!     .with_edge([6, 7, 2])      // e4 = {S, R, F}
//!     .build()
//!     .unwrap();
//!
//! // MoCHy-E (Algorithm 2), exact counts.
//! let report = CountConfig::exact().build().count(&h);
//! assert_eq!(report.counts.total(), 3.0); // {e1,e2,e3}, {e1,e2,e4}, {e1,e3,e4}
//!
//! // MoCHy-A+ (Algorithm 5): same call, different config.
//! let estimate = CountConfig::wedge_sample(100).seed(7).build().count(&h);
//! assert_eq!(estimate.samples_drawn, Some(100));
//! assert!(estimate.counts.total() > 0.0);
//! ```
//!
//! | Paper algorithm | `Method` variant |
//! |---|---|
//! | Algorithm 2 (MoCHy-E; parallel per Section 3.4) | [`Method::Exact`](core::engine::Method::Exact) |
//! | Algorithm 4 (MoCHy-A) | [`Method::EdgeSample`](core::engine::Method::EdgeSample) |
//! | Algorithm 5 (MoCHy-A+) | [`Method::WedgeSample`](core::engine::Method::WedgeSample) |
//! | Algorithm 5 + stopping rule | [`Method::Adaptive`](core::engine::Method::Adaptive) |
//! | Section 3.4 on-the-fly projection | [`Method::OnTheFly`](core::engine::Method::OnTheFly) |
//!
//! ## Evolving hypergraphs
//!
//! For a hypergraph under hyperedge churn, skip the batch engine entirely:
//! a [`core::streaming::StreamingEngine`] maintains the exact counts under
//! `insert` / `remove`, adding or subtracting only the instances that
//! contain the touched hyperedge — the same per-hyperedge count MoCHy-A
//! makes for each sample.
//!
//! ```
//! use mochy::prelude::*;
//!
//! let mut stream = StreamingEngine::new(StreamConfig);
//! let e1 = stream.insert([0u32, 1, 2]);
//! let _ = stream.insert([0u32, 3, 1]);
//! let _ = stream.insert([4u32, 5, 0]);
//! let _ = stream.insert([6u32, 7, 2]);
//! assert_eq!(stream.counts().total(), 3.0); // same three instances as above
//! stream.remove(e1);
//! assert_eq!(stream.counts().total(), 0.0);
//! ```

#![forbid(unsafe_code)]

pub use mochy_analysis as analysis;
pub use mochy_core as core;
pub use mochy_datagen as datagen;
pub use mochy_hypergraph as hypergraph;
pub use mochy_ml as ml;
pub use mochy_motif as motif;
pub use mochy_netmotif as netmotif;
pub use mochy_nullmodel as nullmodel;
pub use mochy_projection as projection;
pub use mochy_serve as serve;

/// Commonly used items, importable with `use mochy::prelude::*`.
pub mod prelude {
    pub use mochy_analysis::{
        domain::{DomainClassifier, DomainRule, LabelledProfile},
        evolution::EvolutionAnalysis,
        prediction::{FeatureSet, PredictionConfig},
        profile::{CharacteristicProfile, ProfileEstimator},
        similarity::SimilarityMatrix,
    };
    pub use mochy_core::{
        adaptive::AdaptiveConfig,
        count::MotifCounts,
        engine::{CountConfig, CountReport, Method, MotifEngine, ProjectionMode},
        exact::{mochy_e, mochy_e_parallel},
        general::mochy_e_general,
        pairwise::{PairwiseCensus, PairwiseCollapse},
        profile::{characteristic_profile, significance},
        sample::{mochy_a_parallel, mochy_a_plus_parallel},
        streaming::{StreamConfig, StreamStats, StreamingEngine},
    };
    pub use mochy_datagen::{
        temporal_event_stream, DomainKind, EdgeEvent, EventStreamConfig, GeneratorConfig,
    };
    pub use mochy_hypergraph::{
        read_snapshot_file, write_snapshot_file, DynamicHypergraph, EmpiricalDistribution,
        Hypergraph, HypergraphBuilder, NodeId, SnapshotError,
    };
    pub use mochy_motif::{
        GeneralizedCatalog, HMotif, MotifCatalog, MotifClass, RegionCardinalities,
    };
    pub use mochy_nullmodel::{chung_lu_randomize, swap_randomize, PreservationReport};
    pub use mochy_projection::{project, project_parallel, NeighborhoodScratch, ProjectedGraph};
}
