//! Sharded MoCHy-E: scatter-gather exact counting, bit-identical to the
//! unsharded run.
//!
//! The hyperwedge formula is per-edge-pair local and the MoCHy-E attribution
//! rule ([`crate::exact`]) assigns every h-motif instance to exactly one
//! centre hyperedge, so exact counting decomposes across any partition of
//! the hyperedges. This module counts in two phases over the contiguous
//! shard layout of [`mochy_hypergraph::shard`]:
//!
//! 1. **Scatter (internal instances).** Each shard's edge slice keeps global
//!    node ids and order-isomorphic local edge ids, so projecting the slice
//!    and running plain MoCHy-E on it visits exactly the instances whose
//!    three hyperedges all live in the shard — with the same per-instance
//!    classification and the same open/closed attribution decisions as the
//!    global run (classification depends only on node sets and intersection
//!    weights; attribution compares edge ids, and local order equals global
//!    order within a shard).
//! 2. **Boundary exchange (cross-shard instances).** One pass over the full
//!    projected graph enumerates every instance through the pair walk every
//!    exact path shares (`exact::CentreWalk`) and keeps only those spanning
//!    at least two shards, attributing each to its centre's shard. Together
//!    the two phases visit every instance exactly once.
//!
//! The hyperwedge count decomposes the same way: a shard's internal
//! hyperwedges are the local projection's pair count, and each cross-shard
//! hyperwedge `{e_i, e_j}` (with `i < j`) is attributed to `shard(i)`.
//!
//! **Why the merge is bit-identical.** Every contribution on both paths is
//! a `+1.0` increment into an `f64` accumulator. The totals stay far below
//! `2^53`, where floating-point addition of integers is exact — so any
//! grouping of the same instance multiset sums to identical bits. The merge
//! is nevertheless defined order-fixed (shard 0, 1, …, K−1; internal before
//! boundary) so the gather step is deterministic by construction, not by
//! arithmetic accident. `shard-check` (CI) and `shard_invariance.rs` pin
//! the resulting reports bit-equal to unsharded MoCHy-E.

use std::ops::Range;

use mochy_hypergraph::{
    default_chunk_size, edge_slice, map_reduce_chunks, shard_boundaries, EdgeId, Hypergraph,
};
use mochy_json::JsonValue;
use mochy_motif::NUM_MOTIFS;
use mochy_projection::{project, project_parallel, ProjectedGraph};

use crate::count::MotifCounts;
use crate::exact::{mochy_e, mochy_e_parallel, CentreWalk};

/// One shard's contribution to a sharded count: everything needed for the
/// order-fixed gather, kept split by phase so diagnostics (and the
/// `shard-check` report) can show where each count came from.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// Zero-based shard index.
    pub shard: usize,
    /// The global edge span `[start, end)` this shard covers.
    pub edges: Range<usize>,
    /// Instances whose three hyperedges all lie in this shard, counted from
    /// the shard-local projection.
    pub internal_counts: MotifCounts,
    /// Instances spanning at least two shards whose centre lies in this
    /// shard, counted in the boundary exchange over the full projection.
    pub boundary_counts: MotifCounts,
    /// Hyperwedges with both hyperedges in this shard.
    pub internal_hyperwedges: usize,
    /// Cross-shard hyperwedges `{e_i, e_j}` (`i < j`, different shards) with
    /// `e_i` in this shard.
    pub cross_hyperwedges: usize,
}

impl ShardPartial {
    /// The shard's merged counts (internal then boundary — both are exact
    /// integer-valued sums, so this is itself exact).
    pub fn counts(&self) -> MotifCounts {
        let mut counts = self.internal_counts.clone();
        counts.merge(&self.boundary_counts);
        counts
    }

    /// The shard's attributed hyperwedge count.
    pub fn num_hyperwedges(&self) -> usize {
        self.internal_hyperwedges + self.cross_hyperwedges
    }

    /// Serializes the partial as a JSON object — the wire format of the
    /// distributed scatter-gather (`POST /v1/internal/count-shard`).
    ///
    /// All counts are integer-valued `f64`s far below 2^53, and
    /// [`mochy_json`] renders finite numbers with Rust's shortest-round-trip
    /// formatting, so `from_json(render(to_json))` reproduces every field
    /// bit-for-bit — the property that lets a gathered partial merge exactly
    /// like an in-process one.
    pub fn to_json(&self) -> JsonValue {
        let counts_array = |counts: &MotifCounts| {
            JsonValue::Array(
                counts
                    .as_slice()
                    .iter()
                    .map(|&c| JsonValue::Number(c))
                    .collect(),
            )
        };
        JsonValue::Object(vec![
            ("shard".to_string(), JsonValue::Number(self.shard as f64)),
            (
                "edge_start".to_string(),
                JsonValue::Number(self.edges.start as f64),
            ),
            (
                "edge_end".to_string(),
                JsonValue::Number(self.edges.end as f64),
            ),
            (
                "internal_counts".to_string(),
                counts_array(&self.internal_counts),
            ),
            (
                "boundary_counts".to_string(),
                counts_array(&self.boundary_counts),
            ),
            (
                "internal_hyperwedges".to_string(),
                JsonValue::Number(self.internal_hyperwedges as f64),
            ),
            (
                "cross_hyperwedges".to_string(),
                JsonValue::Number(self.cross_hyperwedges as f64),
            ),
        ])
    }

    /// Decodes a partial from the [`ShardPartial::to_json`] wire format,
    /// validating shape and ranges (the coordinator treats worker responses
    /// as untrusted input). Counts must be finite, non-negative, and exactly
    /// [`NUM_MOTIFS`] per phase; the edge span must be a valid range.
    pub fn from_json(value: &JsonValue) -> Result<ShardPartial, String> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`"))
        };
        let usize_field = |key: &str| -> Result<usize, String> {
            field(key)?
                .as_usize()
                .ok_or_else(|| format!("field `{key}` is not a non-negative integer"))
        };
        let counts_field = |key: &str| -> Result<MotifCounts, String> {
            let array = field(key)?
                .as_array()
                .ok_or_else(|| format!("field `{key}` is not an array"))?;
            if array.len() != NUM_MOTIFS {
                return Err(format!(
                    "field `{key}` has {} entries, expected {NUM_MOTIFS}",
                    array.len()
                ));
            }
            let mut counts = [0f64; NUM_MOTIFS];
            for (slot, entry) in counts.iter_mut().zip(array) {
                let number = entry
                    .as_f64()
                    .ok_or_else(|| format!("field `{key}` holds a non-number entry"))?;
                if !number.is_finite() || number < 0.0 {
                    return Err(format!("field `{key}` holds a non-count value {number}"));
                }
                *slot = number;
            }
            Ok(MotifCounts::from_slice(&counts))
        };
        let edge_start = usize_field("edge_start")?;
        let edge_end = usize_field("edge_end")?;
        if edge_start > edge_end {
            return Err(format!("edge span {edge_start}..{edge_end} is inverted"));
        }
        Ok(ShardPartial {
            shard: usize_field("shard")?,
            edges: edge_start..edge_end,
            internal_counts: counts_field("internal_counts")?,
            boundary_counts: counts_field("boundary_counts")?,
            internal_hyperwedges: usize_field("internal_hyperwedges")?,
            cross_hyperwedges: usize_field("cross_hyperwedges")?,
        })
    }
}

/// Runs both phases of sharded MoCHy-E over `num_shards` contiguous shards,
/// returning one [`ShardPartial`] per shard. `projected` must be the full
/// eager projection of `hypergraph` (the boundary pass and the hyperwedge
/// decomposition read it); the per-shard internal passes build their own
/// shard-local projections.
///
/// `threads` parallelizes each phase on the shared worker pool exactly like
/// unsharded counting; the partials are thread-count invariant.
pub fn count_sharded(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_shards: usize,
    threads: usize,
) -> Vec<ShardPartial> {
    let num_edges = hypergraph.num_edges();
    let boundaries = shard_boundaries(num_edges, num_shards);
    let shards = boundaries.len();

    // Dense edge → shard map for the boundary pass's inner loop.
    let mut shard_of = vec![0u32; num_edges];
    for (shard, range) in boundaries.iter().enumerate() {
        for e in range.clone() {
            shard_of[e] = shard as u32;
        }
    }

    // Phase 1 — scatter: each shard's internal instances from its local
    // projection. Local edge ids are order-isomorphic to global ids and
    // node ids are global, so plain MoCHy-E on the slice classifies and
    // attributes every all-internal instance exactly as the global run.
    let mut partials: Vec<ShardPartial> = boundaries
        .iter()
        .enumerate()
        .map(|(shard, range)| internal_partial(hypergraph, shard, range.clone(), threads))
        .collect();

    // Phase 2 — boundary exchange: every instance spanning at least two
    // shards, attributed to its centre's shard, plus the cross-shard
    // hyperwedge pairs. Workers accumulate per-shard vectors; worker
    // partials merge in pool order, then into the shard partials in shard
    // order — every sum is an exact integer sum, so chunking cannot change
    // a single bit.
    let worker_partials = map_reduce_chunks(
        num_edges,
        threads,
        default_chunk_size(num_edges, threads),
        || {
            (
                CentreWalk::new(hypergraph, projected),
                vec![(MotifCounts::zero(), 0usize); shards],
            )
        },
        |(walk, locals), range| {
            for i in range {
                let centre = i as EdgeId;
                let home = shard_of[i] as usize;
                walk.visit(centre, |motif, j, k| {
                    if shard_of[j as usize] == shard_of[i] && shard_of[k as usize] == shard_of[i] {
                        return; // all-internal: phase 1 counted it
                    }
                    locals[home].0.increment(motif);
                });
                for &(j, _) in projected.neighbors(centre) {
                    if j > centre && shard_of[j as usize] != shard_of[i] {
                        locals[home].1 += 1;
                    }
                }
            }
        },
    );
    for (_, locals) in &worker_partials {
        for (shard, (boundary, cross)) in locals.iter().enumerate() {
            partials[shard].boundary_counts.merge(boundary);
            partials[shard].cross_hyperwedges += cross;
        }
    }
    partials
}

/// Phase 1 for one shard: the internal instances and hyperwedges of the
/// shard's edge slice, with boundary fields zeroed. Shared by the in-process
/// scatter ([`count_sharded`]) and the distributed single-shard path
/// ([`count_shard_partial`]) so both classify and attribute through exactly
/// the same code.
fn internal_partial(
    hypergraph: &Hypergraph,
    shard: usize,
    range: Range<usize>,
    threads: usize,
) -> ShardPartial {
    if range.is_empty() {
        return ShardPartial {
            shard,
            edges: range,
            internal_counts: MotifCounts::zero(),
            boundary_counts: MotifCounts::zero(),
            internal_hyperwedges: 0,
            cross_hyperwedges: 0,
        };
    }
    let local =
        edge_slice(hypergraph, range.clone()).expect("shard boundaries are in range and non-empty");
    let local_projected = if threads > 1 {
        project_parallel(&local, threads)
    } else {
        project(&local)
    };
    let internal_counts = if threads > 1 {
        mochy_e_parallel(&local, &local_projected, threads)
    } else {
        mochy_e(&local, &local_projected)
    };
    ShardPartial {
        shard,
        edges: range,
        internal_counts,
        boundary_counts: MotifCounts::zero(),
        internal_hyperwedges: local_projected.num_hyperwedges(),
        cross_hyperwedges: 0,
    }
}

/// Computes a single shard's [`ShardPartial`] in isolation — the unit of
/// work a distributed worker answers `count-shard` with. Returns `None` when
/// `shard` is outside the `shard_boundaries(num_edges, num_shards)` layout.
///
/// Produces exactly the element `count_sharded(...)[shard]` would: phase 1
/// runs the same shard-local code ([`internal_partial`]); phase 2 visits
/// only centres inside this shard's span, which is precisely the subset of
/// the global boundary pass that accumulates into this shard (cross-shard
/// instances and hyperwedges are attributed to their centre's shard). Every
/// contribution is a `+1.0` exact-integer `f64` increment, so restricting
/// the iteration cannot change a bit. `projected` must be the FULL
/// projection of the FULL `hypergraph` — cross-shard instances centred here
/// reference arbitrary other shards' hyperedges.
pub fn count_shard_partial(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_shards: usize,
    shard: usize,
    threads: usize,
) -> Option<ShardPartial> {
    let num_edges = hypergraph.num_edges();
    let boundaries = shard_boundaries(num_edges, num_shards);
    let range = boundaries.get(shard)?.clone();

    let mut shard_of = vec![0u32; num_edges];
    for (home, span) in boundaries.iter().enumerate() {
        for e in span.clone() {
            shard_of[e] = home as u32;
        }
    }

    let mut partial = internal_partial(hypergraph, shard, range.clone(), threads);

    // Phase 2, restricted to this shard's centres. Chunk over the span and
    // offset indices back into global edge ids.
    let span_len = range.len();
    let worker_partials = map_reduce_chunks(
        span_len,
        threads,
        default_chunk_size(span_len, threads),
        || {
            (
                CentreWalk::new(hypergraph, projected),
                MotifCounts::zero(),
                0usize,
            )
        },
        |(walk, boundary, cross), chunk| {
            for offset in chunk {
                let i = range.start + offset;
                let centre = i as EdgeId;
                walk.visit(centre, |motif, j, k| {
                    if shard_of[j as usize] == shard_of[i] && shard_of[k as usize] == shard_of[i] {
                        return; // all-internal: phase 1 counted it
                    }
                    boundary.increment(motif);
                });
                for &(j, _) in projected.neighbors(centre) {
                    if j > centre && shard_of[j as usize] != shard_of[i] {
                        *cross += 1;
                    }
                }
            }
        },
    );
    for (_, boundary, cross) in &worker_partials {
        partial.boundary_counts.merge(boundary);
        partial.cross_hyperwedges += cross;
    }
    Some(partial)
}

/// The order-fixed gather: folds the partials in shard order (internal
/// counts before boundary counts within each shard) into the merged motif
/// counts and the merged hyperwedge count. Associative by exact integer
/// `f64` arithmetic; the fixed order makes the merge deterministic by
/// construction as well.
pub fn merge_partials(partials: &[ShardPartial]) -> (MotifCounts, usize) {
    let mut counts = MotifCounts::zero();
    let mut num_hyperwedges = 0usize;
    for partial in partials {
        counts.merge(&partial.internal_counts);
        counts.merge(&partial.boundary_counts);
        num_hyperwedges += partial.num_hyperwedges();
    }
    (counts, num_hyperwedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::HypergraphBuilder;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    fn random_hypergraph(seed: u64, nodes: u32, edges: usize, max_size: usize) -> Hypergraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..edges {
            let size = rng.gen_range(1..=max_size);
            let members: Vec<u32> = (0..size).map(|_| rng.gen_range(0..nodes)).collect();
            builder.add_edge(members);
        }
        builder.build().unwrap()
    }

    fn unsharded(h: &Hypergraph) -> (MotifCounts, usize) {
        let projected = project(h);
        (mochy_e(h, &projected), projected.num_hyperwedges())
    }

    #[test]
    fn figure2_sharded_matches_unsharded() {
        let h = figure2();
        let (expected_counts, expected_wedges) = unsharded(&h);
        let projected = project(&h);
        for shards in [1usize, 2, 3, 4] {
            let partials = count_sharded(&h, &projected, shards, 1);
            let (counts, wedges) = merge_partials(&partials);
            assert_eq!(counts, expected_counts, "shards={shards}");
            assert_eq!(wedges, expected_wedges, "shards={shards}");
        }
    }

    #[test]
    fn random_hypergraphs_sharded_match_for_every_shard_and_thread_count() {
        for seed in 0..4u64 {
            let h = random_hypergraph(seed, 25, 40, 6);
            let (expected_counts, expected_wedges) = unsharded(&h);
            let projected = project(&h);
            for shards in [1usize, 2, 4, 8] {
                for threads in [1usize, 2, 4] {
                    let partials = count_sharded(&h, &projected, shards, threads);
                    let (counts, wedges) = merge_partials(&partials);
                    assert_eq!(
                        counts, expected_counts,
                        "seed={seed} K={shards} t={threads}"
                    );
                    assert_eq!(
                        wedges, expected_wedges,
                        "seed={seed} K={shards} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shards_than_edges_still_merges_correctly() {
        let h = figure2();
        let (expected_counts, expected_wedges) = unsharded(&h);
        let projected = project(&h);
        let partials = count_sharded(&h, &projected, 9, 1);
        assert_eq!(partials.len(), 9);
        let (counts, wedges) = merge_partials(&partials);
        assert_eq!(counts, expected_counts);
        assert_eq!(wedges, expected_wedges);
    }

    #[test]
    fn partials_decompose_by_phase() {
        let h = random_hypergraph(7, 20, 30, 5);
        let projected = project(&h);
        let partials = count_sharded(&h, &projected, 3, 1);
        // Internal hyperwedges of each shard equal the local projections'
        // pair counts; cross pairs make up the difference.
        let total: usize = partials.iter().map(ShardPartial::num_hyperwedges).sum();
        assert_eq!(total, projected.num_hyperwedges());
        // With K=1 everything is internal.
        let single = count_sharded(&h, &projected, 1, 1);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].boundary_counts, MotifCounts::zero());
        assert_eq!(single[0].cross_hyperwedges, 0);
        assert_eq!(single[0].internal_hyperwedges, projected.num_hyperwedges());
    }

    #[test]
    fn single_shard_partials_match_the_batch_scatter_bitwise() {
        // The distributed unit of work: counting one shard in isolation must
        // reproduce the corresponding element of the in-process scatter
        // bit-for-bit, for every shard, shard count, and thread count.
        for seed in [2u64, 9] {
            let h = random_hypergraph(seed, 22, 36, 5);
            let projected = project(&h);
            for shards in [1usize, 2, 3, 8] {
                let batch = count_sharded(&h, &projected, shards, 1);
                for (shard, expected) in batch.iter().enumerate() {
                    for threads in [1usize, 3] {
                        let solo = count_shard_partial(&h, &projected, shards, shard, threads)
                            .expect("shard index is in range");
                        assert_eq!(
                            &solo, expected,
                            "seed={seed} K={shards} shard={shard} t={threads}"
                        );
                        for (motif, (a, b)) in expected
                            .counts()
                            .as_slice()
                            .iter()
                            .zip(solo.counts().as_slice())
                            .enumerate()
                        {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "motif {} differs at seed={seed} K={shards} shard={shard}",
                                motif + 1
                            );
                        }
                    }
                }
                assert!(
                    count_shard_partial(&h, &projected, shards, batch.len(), 1).is_none(),
                    "out-of-range shard index must be rejected"
                );
            }
        }
    }

    #[test]
    fn shard_partial_json_round_trips_bit_exactly() {
        let h = random_hypergraph(5, 20, 32, 5);
        let projected = project(&h);
        for partial in count_sharded(&h, &projected, 3, 1) {
            let wire = partial.to_json().render();
            let parsed = mochy_json::parse(&wire).expect("wire format is valid JSON");
            let decoded = ShardPartial::from_json(&parsed).expect("round-trip decodes");
            assert_eq!(decoded, partial);
            for (a, b) in partial
                .internal_counts
                .as_slice()
                .iter()
                .chain(partial.boundary_counts.as_slice())
                .zip(
                    decoded
                        .internal_counts
                        .as_slice()
                        .iter()
                        .chain(decoded.boundary_counts.as_slice()),
                )
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn shard_partial_decoding_rejects_malformed_documents() {
        let h = figure2();
        let projected = project(&h);
        let good = count_sharded(&h, &projected, 2, 1).swap_remove(0).to_json();

        // Each mutation must produce a decode error, not a bogus partial.
        let drop_field = |key: &str| {
            let JsonValue::Object(fields) = good.clone() else {
                unreachable!("to_json renders an object")
            };
            JsonValue::Object(fields.into_iter().filter(|(k, _)| k != key).collect())
        };
        let set_field = |key: &str, value: JsonValue| {
            let JsonValue::Object(fields) = good.clone() else {
                unreachable!("to_json renders an object")
            };
            JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| if k == key { (k, value.clone()) } else { (k, v) })
                    .collect(),
            )
        };
        for bad in [
            drop_field("shard"),
            drop_field("internal_counts"),
            set_field("internal_counts", JsonValue::Array(vec![])),
            set_field(
                "boundary_counts",
                JsonValue::Array(vec![JsonValue::Number(f64::NAN); NUM_MOTIFS]),
            ),
            set_field("internal_hyperwedges", JsonValue::Number(-1.0)),
            set_field("edge_start", JsonValue::Number(10.0)),
            JsonValue::Null,
        ] {
            assert!(
                ShardPartial::from_json(&bad).is_err(),
                "malformed document decoded: {}",
                bad.render()
            );
        }
    }

    #[test]
    fn shard_partial_counts_helper_merges_phases() {
        let h = random_hypergraph(3, 18, 24, 5);
        let projected = project(&h);
        let partials = count_sharded(&h, &projected, 2, 1);
        let (merged, _) = merge_partials(&partials);
        let mut via_helper = MotifCounts::zero();
        for partial in &partials {
            via_helper.merge(&partial.counts());
        }
        assert_eq!(merged, via_helper);
    }
}
