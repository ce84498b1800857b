//! Thread-count invariance of every counting method.
//!
//! The engine's parallelism is work-stealing over an atomic chunked queue,
//! so scheduling is non-deterministic — but results must not be. Exact
//! counting sums integer-valued per-block partials, and sampling derives one
//! RNG stream per sample index, so for every [`Method`] the counts with
//! `threads = 1` and `threads = N` must be **identical** (not merely close),
//! both on the paper's Figure 2 example and on a skewed-degree synthetic
//! dataset that actually exercises load imbalance across blocks.
//!
//! `N` defaults to 8, the standard pool CI's `test` stage runs; CI's
//! `invariance-1v2` stage overrides it through the `MOCHY_POOL_THREADS`
//! environment variable to pin `threads=1` against a minimal pool
//! (`N = 2`) as well. `threads=1` is
//! always one side of the comparison, so setting `N = 1` would be vacuous —
//! vary only the pooled side.

use mochy_core::engine::{CountConfig, Method};
use mochy_core::AdaptiveConfig;
use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::{Hypergraph, HypergraphBuilder};
use mochy_projection::MemoPolicy;

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

/// A tags-domain dataset: Zipf-distributed node popularity gives a heavily
/// skewed degree distribution, so static sharding would leave the heaviest
/// shard dominating — exactly the case the work-stealing pool exists for.
fn skewed() -> Hypergraph {
    generate(&GeneratorConfig::new(DomainKind::Tags, 300, 300, 77))
}

/// The pooled thread count under test: `MOCHY_POOL_THREADS` when set (CI
/// runs the suite at 2 and at 8), 8 otherwise. Values below 2 are ignored —
/// the single-threaded run is always the other side of the comparison, so a
/// pool of 1 would make the whole suite vacuous.
fn pooled_threads() -> usize {
    std::env::var("MOCHY_POOL_THREADS")
        .ok()
        .and_then(|value| value.parse().ok())
        .filter(|&threads| threads >= 2)
        .unwrap_or(8)
}

/// One representative configuration per `Method` variant.
fn all_methods() -> Vec<Method> {
    vec![
        Method::Exact,
        Method::EdgeSample { samples: 600 },
        Method::WedgeSample { samples: 600 },
        Method::WedgeSampleRatio { ratio: 0.05 },
        Method::Adaptive(AdaptiveConfig {
            batch_size: 150,
            min_batches: 2,
            max_batches: 4,
            target_relative_error: 0.05,
        }),
        Method::OnTheFly {
            samples: 300,
            budget_entries: 128,
            policy: MemoPolicy::HighestDegree,
        },
    ]
}

fn assert_invariant(hypergraph: &Hypergraph, label: &str) {
    let threads = pooled_threads();
    for method in all_methods() {
        let single = CountConfig::new(method)
            .seed(11)
            .threads(1)
            .build()
            .count(hypergraph);
        let pooled = CountConfig::new(method)
            .seed(11)
            .threads(threads)
            .build()
            .count(hypergraph);
        assert_eq!(
            single.counts,
            pooled.counts,
            "{label}: {} counts differ between threads=1 and threads={threads}",
            method.name()
        );
        assert_eq!(
            single.samples_drawn,
            pooled.samples_drawn,
            "{label}: {} samples_drawn differ across thread counts",
            method.name()
        );
        assert_eq!(
            single.num_hyperwedges,
            pooled.num_hyperwedges,
            "{label}: {} hyperwedge counts differ across thread counts",
            method.name()
        );
    }
}

#[test]
fn every_method_is_thread_count_invariant_on_figure2() {
    assert_invariant(&figure2(), "figure2");
}

#[test]
fn every_method_is_thread_count_invariant_on_a_skewed_dataset() {
    let h = skewed();
    // Sanity-check the skew claim: the busiest node participates in far more
    // hyperedges than the median node.
    let mut degrees = h.node_degrees();
    degrees.sort_unstable();
    let median = degrees[degrees.len() / 2];
    let max = *degrees.last().unwrap();
    assert!(
        max >= median.max(1) * 8,
        "dataset is not skewed enough to exercise work stealing (median {median}, max {max})"
    );
    assert_invariant(&h, "skewed-tags");
}

#[test]
fn repeated_pooled_runs_are_deterministic() {
    // Work stealing makes the schedule racy; the report must not be.
    let h = skewed();
    for method in all_methods() {
        let config = CountConfig::new(method).seed(3).threads(pooled_threads());
        let first = config.build().count(&h);
        let second = config.build().count(&h);
        assert_eq!(first, second, "{}", method.name());
    }
}
