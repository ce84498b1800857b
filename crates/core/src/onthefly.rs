//! MoCHy-A+ over a lazily projected, budget-memoized graph (Section 3.4).
//!
//! When the full projected graph does not fit in memory, its neighbourhoods
//! can be computed on demand and memoized within a budget. Memoization never
//! changes results — only speed — because the exact neighbourhood is always
//! used, whether freshly computed or read from the cache. Figure 11 of the
//! paper (and the `fig11_memo` bench here) studies the speed effect of the
//! budget and of the prioritization policy.

use mochy_hypergraph::{EdgeId, Hypergraph};
use mochy_motif::MotifCatalog;
use mochy_projection::{LazyProjection, MemoPolicy, MemoStats};
use rand::Rng;

use crate::count::MotifCounts;
use crate::sample::{rescale_wedge_estimates, WedgeWalk};

/// Configuration of the on-the-fly MoCHy-A+ run.
#[derive(Debug, Clone, Copy)]
pub struct OnTheFlyConfig {
    /// Number of hyperwedge samples `r`.
    pub num_samples: usize,
    /// Memoization budget, in adjacency entries (see
    /// [`mochy_projection::LazyProjection`]).
    pub budget_entries: usize,
    /// Cache admission/eviction policy.
    pub policy: MemoPolicy,
}

/// Result of an on-the-fly MoCHy-A+ run: the estimated counts plus cache
/// statistics (useful to understand the speed/memory trade-off).
#[derive(Debug, Clone)]
pub struct OnTheFlyOutcome {
    /// Unbiased estimates of the per-motif instance counts.
    pub counts: MotifCounts,
    /// Memoization cache behaviour during the run.
    pub memo_stats: MemoStats,
    /// Number of hyperwedges `|∧|` discovered during the degree pass.
    pub num_hyperwedges: usize,
}

/// Runs MoCHy-A+ without a precomputed projected graph.
///
/// A first pass computes only the projected-graph degree of every hyperedge
/// (O(|E|) memory), which is required to sample hyperwedges uniformly; the
/// per-sample neighbourhood look-ups then go through a [`LazyProjection`]
/// with the configured budget and policy. Estimates are identical in
/// distribution to MoCHy-A+ on the eager projection. The public entry point
/// is [`crate::engine::Method::OnTheFly`], which derives the RNG from a
/// seed.
pub(crate) fn mochy_a_plus_onthefly_impl<R: Rng + ?Sized>(
    hypergraph: &Hypergraph,
    config: OnTheFlyConfig,
    rng: &mut R,
) -> OnTheFlyOutcome {
    let mut lazy = LazyProjection::new(hypergraph, config.budget_entries, config.policy);

    // Degree pass: O(|E|) extra memory, warms the cache as a side effect.
    let mut prefix: Vec<u64> = Vec::with_capacity(hypergraph.num_edges() + 1);
    prefix.push(0);
    for e in hypergraph.edge_ids() {
        let degree = lazy.neighborhood(e).len() as u64;
        prefix.push(prefix.last().unwrap() + degree);
    }
    let total_entries = *prefix.last().unwrap();
    let num_hyperwedges = (total_entries / 2) as usize;

    let mut raw = MotifCounts::zero();
    if num_hyperwedges == 0 || config.num_samples == 0 {
        return OnTheFlyOutcome {
            counts: raw,
            memo_stats: lazy.stats(),
            num_hyperwedges,
        };
    }

    let mut walk = WedgeWalk::new(hypergraph);
    for _ in 0..config.num_samples {
        let target = rng.gen_range(0..total_entries);
        let i = (prefix.partition_point(|&p| p <= target) - 1) as EdgeId;
        let offset = (target - prefix[i as usize]) as usize;
        let neighbors_i = lazy.neighborhood(i);
        let (j, w_ij) = neighbors_i[offset];
        let neighbors_j = lazy.neighborhood(j);
        walk.count_pair(i, (j, w_ij), &neighbors_i, &neighbors_j, &mut raw);
    }

    rescale_wedge_estimates(
        MotifCatalog::shared(),
        &mut raw,
        num_hyperwedges,
        config.num_samples,
    );

    OnTheFlyOutcome {
        counts: raw,
        memo_stats: lazy.stats(),
        num_hyperwedges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::mochy_e;
    use crate::exact::tests::random_hypergraph;
    use mochy_hypergraph::HypergraphBuilder;
    use mochy_projection::project;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn hyperwedge_count_matches_eager_projection() {
        let h = random_hypergraph(1, 20, 30, 5);
        let proj = project(&h);
        let outcome = mochy_a_plus_onthefly_impl(
            &h,
            OnTheFlyConfig {
                num_samples: 10,
                budget_entries: 100,
                policy: MemoPolicy::HighestDegree,
            },
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(outcome.num_hyperwedges, proj.num_hyperwedges());
    }

    #[test]
    fn estimates_converge_regardless_of_budget() {
        let h = random_hypergraph(5, 20, 35, 5);
        let proj = project(&h);
        let exact = mochy_e(&h, &proj);
        for (budget, policy) in [
            (0usize, MemoPolicy::HighestDegree),
            (16, MemoPolicy::Lru),
            (usize::MAX, MemoPolicy::Random),
        ] {
            let outcome = mochy_a_plus_onthefly_impl(
                &h,
                OnTheFlyConfig {
                    num_samples: 5000,
                    budget_entries: budget,
                    policy,
                },
                &mut StdRng::seed_from_u64(42),
            );
            let error = exact.relative_error(&outcome.counts);
            assert!(
                error < 0.15,
                "budget {budget}, policy {policy:?}: error {error}"
            );
        }
    }

    #[test]
    fn generous_budget_produces_cache_hits() {
        let h = random_hypergraph(6, 15, 25, 4);
        let outcome = mochy_a_plus_onthefly_impl(
            &h,
            OnTheFlyConfig {
                num_samples: 200,
                budget_entries: usize::MAX,
                policy: MemoPolicy::HighestDegree,
            },
            &mut StdRng::seed_from_u64(3),
        );
        assert!(outcome.memo_stats.hits > 0);
        // With an unlimited budget every neighbourhood is computed at most once.
        assert!(outcome.memo_stats.misses <= h.num_edges() as u64);
    }

    #[test]
    fn empty_input_yields_zero_counts() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32])
            .with_edge([1u32])
            .build()
            .unwrap();
        let outcome = mochy_a_plus_onthefly_impl(
            &h,
            OnTheFlyConfig {
                num_samples: 50,
                budget_entries: 10,
                policy: MemoPolicy::Lru,
            },
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(outcome.counts.total(), 0.0);
        assert_eq!(outcome.num_hyperwedges, 0);
    }
}
