//! Shard-count invariance of exact counting.
//!
//! Sharded MoCHy-E scatters over K contiguous hyperedge shards (each counts
//! the instances centred in its edge span, on the one full projection) and
//! gathers with an order-fixed merge. Each partial's counts are exact
//! integer tallies converted to `f64` once, below `2^53`, where adding
//! integers in any order is exact, so the merged report must be
//! **bit-identical** — not merely close — to the unsharded run for every
//! shard count, the same guarantee thread invariance already pins for
//! thread counts. This suite asserts K ∈ {1, 2, 4, 8} == unsharded on the
//! paper's Figure 2 example and on every bench dataset, at `threads = 1`
//! and at the pooled thread count (`MOCHY_POOL_THREADS`: CI's `test` stage
//! runs the suite at the default of 8 and its `invariance-1v2` stage at 2),
//! so shard and thread variation are exercised jointly. This suite is the
//! workspace's one shard-equivalence check.

use mochy_core::engine::{CountConfig, CountReport, Method};
use mochy_hypergraph::{Hypergraph, HypergraphBuilder};

/// Figure 2 of the paper: e1={L,K,F}, e2={L,H,K}, e3={B,G,L}, e4={S,R,F}.
fn figure2() -> Hypergraph {
    HypergraphBuilder::new()
        .with_edge([0u32, 1, 2])
        .with_edge([0, 3, 1])
        .with_edge([4, 5, 0])
        .with_edge([6, 7, 2])
        .build()
        .unwrap()
}

/// The pooled thread count under test: `MOCHY_POOL_THREADS` when set (CI
/// sets 2 in `invariance-1v2`), 8 otherwise; values below 2 are ignored.
fn pooled_threads() -> usize {
    std::env::var("MOCHY_POOL_THREADS")
        .ok()
        .and_then(|value| value.parse().ok())
        .filter(|&threads| threads >= 2)
        .unwrap_or(8)
}

/// Shard counts pinned against the unsharded baseline. 1 must hit the
/// unsharded fast path; 8 exceeds Figure 2's edge count, exercising empty
/// trailing shards.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn exact(threads: usize, shards: usize, hypergraph: &Hypergraph) -> CountReport {
    CountConfig::new(Method::Exact)
        .threads(threads)
        .shards(shards)
        .expect("shards on Method::Exact is always accepted")
        .build()
        .count(hypergraph)
}

fn assert_shard_invariant(hypergraph: &Hypergraph, label: &str, thread_counts: &[usize]) {
    for &threads in thread_counts {
        let baseline = exact(threads, 1, hypergraph);
        for shards in SHARD_COUNTS {
            let sharded = exact(threads, shards, hypergraph);
            assert_eq!(
                baseline, sharded,
                "{label}: merged report diverges at shards={shards}, threads={threads}"
            );
            // Bit-identity of the raw count array, spelled out: report
            // equality could in principle hide an f64 representation
            // difference behind a tolerant comparison, so compare bits too.
            for (motif, (a, b)) in baseline
                .counts
                .as_slice()
                .iter()
                .zip(sharded.counts.as_slice())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{label}: motif {} not bit-identical at shards={shards}, threads={threads}",
                    motif + 1
                );
            }
        }
    }
}

#[test]
fn exact_counting_is_shard_count_invariant_on_figure2() {
    assert_shard_invariant(&figure2(), "figure2", &[1, pooled_threads()]);
}

#[test]
fn exact_counting_is_shard_count_invariant_on_every_bench_dataset() {
    // Bench datasets run at the pooled thread count only: thread_invariance
    // already pins threads=1 against the pool for unsharded counting, and
    // sharded_runs_cross_thread_counts_bit_identically covers the combined
    // shard×thread matrix on one dataset — repeating the full matrix on all
    // five here would only add debug-lane minutes, not coverage.
    for (name, hypergraph) in mochy_datagen::bench_datasets() {
        assert_shard_invariant(&hypergraph, name, &[pooled_threads()]);
    }
}

#[test]
fn sharded_runs_cross_thread_counts_bit_identically() {
    // The full matrix property: for any (K, t), the merged counts equal the
    // (1, 1) baseline — shard and thread variation compose. Reports record the projection mode, which differs
    // across thread counts, so this test compares the counted quantities
    // rather than whole reports (assert_shard_invariant covers those at
    // fixed thread counts).
    let (_, hypergraph) = mochy_datagen::bench_datasets().swap_remove(0);
    let baseline = exact(1, 1, &hypergraph);
    for shards in SHARD_COUNTS {
        for threads in [1usize, 2, pooled_threads()] {
            let run = exact(threads, shards, &hypergraph);
            assert_eq!(
                baseline.counts, run.counts,
                "shards={shards} threads={threads}"
            );
            assert_eq!(
                baseline.num_hyperwedges, run.num_hyperwedges,
                "shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn repeated_sharded_runs_are_deterministic() {
    let (_, hypergraph) = mochy_datagen::bench_datasets().swap_remove(1);
    let config = CountConfig::new(Method::Exact)
        .threads(pooled_threads())
        .shards(4)
        .expect("shards on Method::Exact is always accepted");
    let first = config.build().count(&hypergraph);
    let second = config.build().count(&hypergraph);
    assert_eq!(first, second);
}

#[test]
fn sharding_a_sampling_method_is_rejected() {
    // The builder reports the bad combination as a typed error instead of
    // panicking, so API-facing callers can map it to a 400.
    let rejected = CountConfig::new(Method::WedgeSample { samples: 10 }).shards(2);
    assert_eq!(
        rejected,
        Err(mochy_core::engine::ConfigError::ShardsRequireExact)
    );
    // K <= 1 is a no-op on any method and stays accepted.
    assert!(CountConfig::new(Method::WedgeSample { samples: 10 })
        .shards(1)
        .is_ok());
}
