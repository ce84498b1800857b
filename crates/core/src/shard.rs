//! Sharded MoCHy-E: scatter-gather exact counting, bit-identical to the
//! unsharded run.
//!
//! The MoCHy-E attribution rule ([`crate::exact`]) assigns every h-motif
//! instance to exactly one centre hyperedge: the unique centre of an open
//! instance, the smallest member of a closed one. Splitting the *centres*
//! into the contiguous edge spans of [`shard_boundaries`] therefore splits
//! the instances into disjoint sets that together hold every instance. A
//! shard's [`ShardPartial`] is MoCHy-E over the centres in its span, counted
//! on the one full projection with the same parallel code as
//! [`mochy_e_parallel`](crate::exact::mochy_e_parallel). With one shard it
//! is exactly [`mochy_e`](crate::exact::mochy_e).
//!
//! The hyperwedge count decomposes the same way: each pair `{e_i, e_j}`
//! with `i < j` is attributed to the shard whose span holds `i`.
//!
//! **Why a partial holds exactly its span's instances.** The counting
//! kernel tallies every neighbour pair of a centre as open, and a triangle
//! then takes each closed pair back out. A span lists the triangles whose
//! smallest member it holds and takes the pair back out only at members
//! inside the span. A triangle whose smallest member lies before the span
//! is found per centre by a boundary scan, which takes the pair back out
//! at that centre only: for each neighbour `e_j` before the span, the
//! triangle listing's scan of `N(j)` from its first entry past `j`, which
//! writes every common neighbour into a buffer without a branch per
//! entry. So each closed pair of a span centre leaves its
//! tally exactly once, inside the span. Taking pairs out at every member
//! instead would move counts between partials and could make an entry
//! negative, which [`ShardPartial::from_json`] rejects.
//!
//! **Why the merge is bit-identical.** A span's counts are exact signed
//! integer tallies, summed over its workers and converted to `f64` once.
//! The totals stay below `2^53`, where floating-point addition of integers
//! is exact, so any grouping of the same instance multiset sums to
//! identical bits. The merge is nevertheless defined order-fixed (shard 0,
//! 1, …, K−1), so the gather step is deterministic by construction, not by
//! arithmetic accident. Partials that cross a process boundary keep the
//! premise: [`ShardPartial::from_json`] accepts only exact integer counts
//! below `2^53`. The `shard_invariance.rs` suite pins the merged reports
//! bit-equal to unsharded MoCHy-E.

use std::ops::Range;

use mochy_hypergraph::{EdgeId, Hypergraph};
use mochy_json::JsonValue;
use mochy_motif::NUM_MOTIFS;
use mochy_projection::ProjectedGraph;

use crate::count::MotifCounts;
use crate::exact::mochy_e_centres;

/// `2^53`: every integer-valued `f64` below it is exact, and so is every sum
/// of such values that stays below it.
const EXACT_INTEGER_LIMIT: f64 = 9_007_199_254_740_992.0;

/// One shard's contribution to a sharded count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// Zero-based shard index.
    pub shard: usize,
    /// The global edge span `[start, end)` of the shard's centres.
    pub edges: Range<usize>,
    /// The instances whose centre lies in `edges`.
    pub counts: MotifCounts,
    /// The hyperwedges `{e_i, e_j}` with `i` in `edges` and `j > i`.
    pub hyperwedges: usize,
}

impl ShardPartial {
    /// Serializes the partial as a JSON object — the wire format of the
    /// distributed scatter-gather (`POST /v1/internal/count-shard`):
    /// `{shard, edge_start, edge_end, counts, hyperwedges}`.
    ///
    /// All counts are integer-valued `f64`s below 2^53, and [`mochy_json`]
    /// renders finite numbers with Rust's shortest-round-trip formatting, so
    /// `from_json(render(to_json))` reproduces every field bit-for-bit — the
    /// property that lets a gathered partial merge exactly like an
    /// in-process one.
    pub fn to_json(&self) -> JsonValue {
        let counts = self
            .counts
            .as_slice()
            .iter()
            .map(|&c| JsonValue::Number(c))
            .collect();
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
            ("counts".to_string(), JsonValue::Array(counts)),
            (
                "hyperwedges".to_string(),
                JsonValue::Number(self.hyperwedges as f64),
            ),
        ])
    }

    /// Decodes a partial from the [`ShardPartial::to_json`] wire format,
    /// validating shape and ranges (the coordinator treats worker responses
    /// as untrusted input). `counts` must hold exactly [`NUM_MOTIFS`] exact
    /// non-negative integers below 2^53, the premise of the bit-identical
    /// merge; the edge span must be a valid range.
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
        let array = field("counts")?
            .as_array()
            .ok_or_else(|| "field `counts` is not an array".to_string())?;
        if array.len() != NUM_MOTIFS {
            return Err(format!(
                "field `counts` has {} entries, expected {NUM_MOTIFS}",
                array.len()
            ));
        }
        let mut counts = [0f64; NUM_MOTIFS];
        for (slot, entry) in counts.iter_mut().zip(array) {
            let number = entry
                .as_f64()
                .ok_or_else(|| "field `counts` holds a non-number entry".to_string())?;
            if !(0.0..EXACT_INTEGER_LIMIT).contains(&number) || number.fract() != 0.0 {
                return Err(format!(
                    "field `counts` holds {number}, not an exact integer below 2^53"
                ));
            }
            *slot = number;
        }
        let edge_start = usize_field("edge_start")?;
        let edge_end = usize_field("edge_end")?;
        if edge_start > edge_end {
            return Err(format!("edge span {edge_start}..{edge_end} is inverted"));
        }
        Ok(ShardPartial {
            shard: usize_field("shard")?,
            edges: edge_start..edge_end,
            counts: MotifCounts::from_slice(&counts),
            hyperwedges: usize_field("hyperwedges")?,
        })
    }
}

/// The contiguous edge spans that split `num_edges` hyperedges into
/// `num_shards` balanced shards: shard `s` covers
/// `[s·n/k, (s+1)·n/k)`. Spans are contiguous and cover `0..num_edges`;
/// when `num_shards > num_edges` the trailing spans are empty. This is the
/// one span layout: in-process sharding, a worker's `count-shard` answer and
/// the coordinator's check of that answer all read it.
pub fn shard_boundaries(num_edges: usize, num_shards: usize) -> Vec<Range<usize>> {
    let shards = num_shards.max(1);
    let n = num_edges as u128;
    let k = shards as u128;
    let mut boundaries = Vec::with_capacity(shards);
    for s in 0..shards {
        let a = s as u128;
        let lo = a * n / k;
        let b = a.saturating_add(1);
        let hi = b * n / k;
        // Lossless: both quotients are at most n, which came from a usize —
        // the fallback (exact upper bound) keeps this total without a panic.
        let lo = usize::try_from(lo).unwrap_or(num_edges);
        let hi = usize::try_from(hi).unwrap_or(num_edges);
        boundaries.push(lo..hi);
    }
    boundaries
}

/// Counts every shard of the `num_shards` contiguous spans of
/// [`shard_boundaries`], in shard order. `projected` must be the full eager
/// projection of `hypergraph`.
///
/// `threads` parallelizes each shard's count on the shared worker pool
/// exactly like unsharded counting; the partials are thread-count invariant.
pub fn count_sharded(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_shards: usize,
    threads: usize,
) -> Vec<ShardPartial> {
    shard_boundaries(hypergraph.num_edges(), num_shards)
        .into_iter()
        .enumerate()
        .map(|(shard, edges)| centre_span_partial(hypergraph, projected, shard, edges, threads))
        .collect()
}

/// Computes a single shard's [`ShardPartial`] in isolation — the unit of
/// work a distributed worker answers `count-shard` with. Returns `None` when
/// `shard` is outside the `shard_boundaries(num_edges, num_shards)` layout.
///
/// Produces exactly the element `count_sharded(...)[shard]` would: both run
/// the same code over the same span. `projected` must be the FULL
/// projection of the FULL `hypergraph`, since instances centred in the span
/// reach hyperedges outside it.
pub fn count_shard_partial(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    num_shards: usize,
    shard: usize,
    threads: usize,
) -> Option<ShardPartial> {
    let edges = shard_boundaries(hypergraph.num_edges(), num_shards)
        .into_iter()
        .nth(shard)?;
    Some(centre_span_partial(
        hypergraph, projected, shard, edges, threads,
    ))
}

/// MoCHy-E over the centres in `edges` plus their hyperwedge tally.
fn centre_span_partial(
    hypergraph: &Hypergraph,
    projected: &ProjectedGraph,
    shard: usize,
    edges: Range<usize>,
    threads: usize,
) -> ShardPartial {
    let counts = mochy_e_centres(hypergraph, projected, edges.clone(), threads);
    let hyperwedges = edges
        .clone()
        .map(|i| {
            let neighbors = projected.neighbors(i as EdgeId);
            neighbors.len() - neighbors.partition_point(|&(j, _)| j as usize <= i)
        })
        .sum();
    ShardPartial {
        shard,
        edges,
        counts,
        hyperwedges,
    }
}

/// The order-fixed gather: folds the partials in shard order into the
/// merged motif counts and the merged hyperwedge count. Associative by exact
/// integer `f64` arithmetic; the fixed order makes the merge deterministic
/// by construction as well.
pub fn merge_partials(partials: &[ShardPartial]) -> (MotifCounts, usize) {
    let mut counts = MotifCounts::zero();
    let mut hyperwedges = 0usize;
    for partial in partials {
        counts.merge(&partial.counts);
        hyperwedges += partial.hyperwedges;
    }
    (counts, hyperwedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{mochy_e, mochy_e_enumerate};
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
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
    fn boundaries_are_contiguous_and_cover() {
        for (n, k) in [(4usize, 2usize), (10, 3), (7, 7), (5, 1), (3, 8), (0, 2)] {
            let boundaries = shard_boundaries(n, k);
            assert_eq!(boundaries.len(), k.max(1));
            assert_eq!(boundaries.first().unwrap().start, 0);
            assert_eq!(boundaries.last().unwrap().end, n);
            for pair in boundaries.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "n={n} k={k}");
            }
            if k <= n {
                assert!(boundaries.iter().all(|r| !r.is_empty()), "n={n} k={k}");
            }
        }
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
    fn partials_decompose_by_centre_span() {
        // Per-partial oracle: a partial holds exactly the enumerated
        // instances centred in its span and the hyperwedges {e_i, e_j} with
        // i in its span and j > i.
        for seed in [7u64, 13, 21] {
            let h = random_hypergraph(seed, 20, 30, 5);
            let projected = project(&h);
            let mut instances = Vec::new();
            mochy_e_enumerate(&h, &projected, |i, _, _, motif| instances.push((i, motif)));
            for shards in [1usize, 2, 3, 8] {
                for threads in [1usize, 2] {
                    let partials = count_sharded(&h, &projected, shards, threads);
                    assert_eq!(partials.len(), shards, "seed={seed} K={shards}");
                    let mut next_start = 0;
                    for (shard, partial) in partials.iter().enumerate() {
                        let label = format!("seed={seed} K={shards} t={threads} shard={shard}");
                        assert_eq!(partial.shard, shard, "{label}");
                        assert_eq!(partial.edges.start, next_start, "{label}");
                        next_start = partial.edges.end;
                        let mut expected = MotifCounts::zero();
                        for &(centre, motif) in &instances {
                            if partial.edges.contains(&(centre as usize)) {
                                expected.increment(motif);
                            }
                        }
                        assert_eq!(partial.counts, expected, "{label}");
                        let wedges: usize = partial
                            .edges
                            .clone()
                            .map(|i| {
                                projected
                                    .neighbors(i as EdgeId)
                                    .iter()
                                    .filter(|&&(j, _)| j as usize > i)
                                    .count()
                            })
                            .sum();
                        assert_eq!(partial.hyperwedges, wedges, "{label}");
                    }
                    assert_eq!(next_start, h.num_edges(), "seed={seed} K={shards}");
                }
            }
            // With K=1 the single partial is plain MoCHy-E and |∧|.
            let single = count_sharded(&h, &projected, 1, 1);
            assert_eq!(single[0].counts, mochy_e(&h, &projected), "seed={seed}");
            assert_eq!(
                single[0].hyperwedges,
                projected.num_hyperwedges(),
                "seed={seed}"
            );
        }
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
                            .counts
                            .as_slice()
                            .iter()
                            .zip(solo.counts.as_slice())
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
                .counts
                .as_slice()
                .iter()
                .zip(decoded.counts.as_slice())
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
        // A valid count vector with its first entry replaced by `value`.
        let counts_with = |value: f64| {
            let mut counts = vec![JsonValue::Number(0.0); NUM_MOTIFS];
            counts[0] = JsonValue::Number(value);
            set_field("counts", JsonValue::Array(counts))
        };
        // A partial in the retired per-phase wire format: a worker that still
        // speaks it must fail the fan-out, not merge as an empty partial.
        let zeros = JsonValue::Array(vec![JsonValue::Number(0.0); NUM_MOTIFS]);
        let per_phase = JsonValue::Object(vec![
            ("shard".to_string(), JsonValue::Number(0.0)),
            ("edge_start".to_string(), JsonValue::Number(0.0)),
            ("edge_end".to_string(), JsonValue::Number(2.0)),
            ("internal_counts".to_string(), zeros.clone()),
            ("boundary_counts".to_string(), zeros),
            ("internal_hyperwedges".to_string(), JsonValue::Number(1.0)),
            ("cross_hyperwedges".to_string(), JsonValue::Number(1.0)),
        ]);
        assert!(ShardPartial::from_json(&counts_with(3.0)).is_ok());
        for bad in [
            drop_field("shard"),
            drop_field("counts"),
            set_field("counts", JsonValue::Array(vec![])),
            counts_with(f64::NAN),
            counts_with(1.5),
            counts_with(9007199254740992.0),
            set_field("hyperwedges", JsonValue::Number(-1.0)),
            set_field("edge_start", JsonValue::Number(10.0)),
            per_phase,
            JsonValue::Null,
        ] {
            assert!(
                ShardPartial::from_json(&bad).is_err(),
                "malformed document decoded: {}",
                bad.render()
            );
        }
    }
}
