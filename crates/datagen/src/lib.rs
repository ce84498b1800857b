//! Synthetic hypergraph generators.
//!
//! The paper analyses 11 real-world hypergraphs from 5 domains
//! (co-authorship, contact, e-mail, tags, threads). Those datasets cannot be
//! redistributed with this reproduction, so this crate provides seeded,
//! parameterized generators whose overlap structure is tuned per domain so
//! that the qualitative phenomena the paper reports (which motifs are over-
//! or under-represented, how similar profiles are within a domain) re-appear
//! on synthetic data. See DESIGN.md §3.2 for the mapping.
//!
//! - [`domains`] — one generator per domain with a shared configuration type.
//! - [`temporal`] — yearly co-authorship snapshots (Figure 7).
//! - [`suite`] — the "11 datasets / 5 domains" standard suite used by the
//!   experiment binaries, and the five [`bench_datasets`] the CI gates run.
//! - [`corrupt`] — fake-hyperedge generation for the hyperedge-prediction
//!   task (Table 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod domains;
pub mod suite;
pub mod temporal;
pub mod util;

pub use corrupt::corrupt_hyperedge;
pub use domains::{generate, DomainKind, GeneratorConfig};
pub use suite::{bench_datasets, standard_suite, DatasetSpec, SuiteScale};
pub use temporal::{
    temporal_coauthorship, temporal_event_stream, EdgeEvent, EventStreamConfig, TemporalConfig,
    YearlySnapshot,
};
