//! Hypergraph motifs (h-motifs).
//!
//! An h-motif describes the connectivity pattern of three connected
//! hyperedges `{e_i, e_j, e_k}` by the emptiness of the seven Venn regions
//! (Section 2.2 of the paper):
//!
//! 1. `e_i \ e_j \ e_k`
//! 2. `e_j \ e_k \ e_i`
//! 3. `e_k \ e_i \ e_j`
//! 4. `e_i ∩ e_j \ e_k`
//! 5. `e_j ∩ e_k \ e_i`
//! 6. `e_k ∩ e_i \ e_j`
//! 7. `e_i ∩ e_j ∩ e_k`
//!
//! Out of the 2⁷ = 128 emptiness patterns, exactly **26** remain after
//! removing patterns that are symmetric to each other, contain duplicate
//! hyperedges, or cannot arise from three *connected* hyperedges. This crate
//! provides:
//!
//! - [`Pattern`]: the 7-bit emptiness pattern and its permutation group
//!   action, canonicalization and validity predicates.
//! - [`RegionCardinalities`]: exact region sizes computed from hyperedge sizes
//!   and pairwise/triple intersections (Lemma 2 of the paper).
//! - [`MotifCatalog`] and [`HMotif`]: the canonical numbering 1..=26 used by
//!   this reproduction, with open/closed classification and metadata.
//! - [`generalized`]: enumeration of h-motifs over `k ≥ 3` hyperedges
//!   (26 for k = 3, 1 853 for k = 4), following Section 2.2's generalization.
//!
//! ### Numbering
//!
//! The paper fixes its numbering pictorially (Figure 3); the figure cannot be
//! recovered from text alone, so this crate uses a deterministic rule with the
//! same group structure (see DESIGN.md §3.1): motifs 1–16 are closed with a
//! non-empty triple intersection, motifs 17–22 are the open motifs (17 and 18
//! being the "a hyperedge and its two disjoint subsets" patterns), and motifs
//! 23–26 are the closed motifs whose triple intersection is empty.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cardinalities;
pub mod catalog;
pub mod generalized;
pub mod pattern;

pub use cardinalities::RegionCardinalities;
pub use catalog::{HMotif, MotifCatalog, MotifClass, MotifId, NUM_MOTIFS};
pub use generalized::{GeneralPattern, GeneralizedCatalog};
pub use pattern::Pattern;
