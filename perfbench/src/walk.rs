//! Per-call costs of the two lookups inside the MoCHy-E pair walk, timed on
//! a seeded sample of the neighbour pairs the walk visits.

use std::hint::black_box;
use std::time::Instant;

use mochy_core::classify::classify_triple_with_weights;
use mochy_hypergraph::{EdgeId, Hypergraph};
use mochy_motif::MotifCatalog;
use mochy_projection::ProjectedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Run, Scale};

/// Batches timed per lookup; the reported cost is the median batch.
const BATCHES: usize = 5;

/// A visited pair: centre `i`, neighbours `j < k`, and all three overlaps.
struct Triple {
    i: EdgeId,
    j: EdgeId,
    k: EdgeId,
    w_ij: usize,
    w_ik: usize,
    w_jk: usize,
}

/// Nanoseconds per call of `ProjectedGraph::weight(j, k)` and of
/// `classify_triple_with_weights`, over a seeded sample of pairs drawn
/// uniformly from the walk's pair visits. Each batch of calls is one span.
pub fn lookup_costs(run: &Run, hypergraph: &Hypergraph, projected: &ProjectedGraph) -> (f64, f64) {
    let samples = match run.scale {
        Scale::Full => 200_000,
        Scale::Tiny => 2_000,
    };
    let tracer = &run.tracer;
    let triples = sample_pairs(projected, samples, run.seed);
    let catalog = MotifCatalog::new();
    let mut weight_ns = Vec::with_capacity(BATCHES);
    let mut classify_ns = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES as u64 {
        let start = Instant::now();
        tracer.span("projection::ProjectedGraph::weight", batch, || {
            for t in &triples {
                black_box(projected.weight(black_box(t.j), black_box(t.k)));
            }
        });
        weight_ns.push(start.elapsed().as_nanos() as f64 / triples.len() as f64);

        let start = Instant::now();
        tracer.span(
            "core::classify::classify_triple_with_weights",
            batch,
            || {
                for t in &triples {
                    black_box(classify_triple_with_weights(
                        hypergraph,
                        &catalog,
                        black_box(t.i),
                        t.j,
                        t.k,
                        t.w_ij,
                        t.w_jk,
                        t.w_ik,
                    ));
                }
            },
        );
        classify_ns.push(start.elapsed().as_nanos() as f64 / triples.len() as f64);
    }
    (
        crate::stats::median(&weight_ns),
        crate::stats::median(&classify_ns),
    )
}

/// Draws pairs uniformly over all pair visits: the centre with probability
/// proportional to C(deg, 2), then two distinct neighbours.
fn sample_pairs(projected: &ProjectedGraph, samples: usize, seed: u64) -> Vec<Triple> {
    let mut prefix = Vec::with_capacity(projected.num_edges() + 1);
    prefix.push(0u64);
    for e in 0..projected.num_edges() as EdgeId {
        let degree = projected.degree(e) as u64;
        prefix.push(prefix.last().copied().unwrap_or(0) + degree * degree.saturating_sub(1) / 2);
    }
    let total = prefix.last().copied().unwrap_or(0);
    assert!(total > 0, "the input has no neighbour pairs to sample");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| {
            let target = rng.gen_range(0..total);
            let i = prefix.partition_point(|&p| p <= target) - 1;
            let neighbors = projected.neighbors(i as EdgeId);
            let a = rng.gen_range(0..neighbors.len());
            let mut b = rng.gen_range(0..neighbors.len() - 1);
            if b >= a {
                b += 1;
            }
            let ((j, w_ij), (k, w_ik)) = (neighbors[a.min(b)], neighbors[a.max(b)]);
            Triple {
                i: i as EdgeId,
                j,
                k,
                w_ij: w_ij as usize,
                w_ik: w_ik as usize,
                w_jk: projected.weight(j, k).unwrap_or(0) as usize,
            }
        })
        .collect()
}
