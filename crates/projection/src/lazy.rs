//! On-the-fly projection with budgeted memoization (Section 3.4, Figure 11).
//!
//! For large hypergraphs, materializing the whole projected graph can exceed
//! memory. The paper instead computes hyperedge neighbourhoods on demand and
//! memoizes partial results within a memory budget, prioritizing hyperedges
//! with high degree in the projected graph. [`LazyProjection`] implements that
//! scheme with three replacement policies so the prioritization claim can be
//! evaluated (by-degree vs. LRU vs. random).

use mochy_hypergraph::{EdgeId, Hypergraph};
use rustc_hash::FxHashMap;

use crate::projected::{compute_neighborhood, WeightedNeighbor};

/// Replacement / admission policy of the memoization cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoPolicy {
    /// Keep the neighbourhoods of the highest-degree hyperedges (the paper's
    /// recommended prioritization).
    HighestDegree,
    /// Evict the least recently used neighbourhood.
    Lru,
    /// Evict a pseudo-random resident entry (uses an internal xorshift state,
    /// so behaviour is deterministic for a given sequence of calls).
    Random,
}

/// Counters describing cache behaviour; useful for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Number of neighbourhood requests served from the cache.
    pub hits: u64,
    /// Number of neighbourhood requests that had to be computed.
    pub misses: u64,
    /// Number of neighbourhoods evicted from the cache.
    pub evictions: u64,
    /// Number of computed neighbourhoods that were not admitted to the cache.
    pub rejected: u64,
}

impl MemoStats {
    /// Fraction of requests served from the cache (0 if no requests yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A lazily-computed, budget-memoized view of the projected graph.
///
/// The budget is expressed in *adjacency entries* (a neighbourhood of length
/// `L` costs `L` units), mirroring the paper's budgets of "x % of the edges of
/// the projected graph".
pub struct LazyProjection<'a> {
    hypergraph: &'a Hypergraph,
    budget_entries: usize,
    policy: MemoPolicy,
    // mochy-lint: allow(no-hashmap-iter-order) reason="memo cache only; eviction may walk it, but FxHash iteration is seed-free and a miss recomputes bit-identical neighborhoods, so order never reaches results"
    cache: FxHashMap<EdgeId, CachedNeighborhood>,
    resident_entries: usize,
    clock: u64,
    rng_state: u64,
    stats: MemoStats,
}

#[derive(Debug, Clone)]
struct CachedNeighborhood {
    neighbors: Vec<WeightedNeighbor>,
    last_used: u64,
}

impl<'a> LazyProjection<'a> {
    /// Creates a lazy projection over `hypergraph` with the given entry
    /// budget and policy.
    pub fn new(hypergraph: &'a Hypergraph, budget_entries: usize, policy: MemoPolicy) -> Self {
        Self {
            hypergraph,
            budget_entries,
            policy,
            // mochy-lint: allow(no-hashmap-iter-order) reason="memo cache only; eviction may walk it, but FxHash iteration is seed-free and a miss recomputes bit-identical neighborhoods, so order never reaches results"
            cache: FxHashMap::default(),
            resident_entries: 0,
            clock: 0,
            rng_state: 0x9E3779B97F4A7C15,
            stats: MemoStats::default(),
        }
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Current number of adjacency entries held by the cache.
    pub fn resident_entries(&self) -> usize {
        self.resident_entries
    }

    /// Returns the neighbourhood of hyperedge `e` in the projected graph,
    /// computing (and possibly memoizing) it on demand. The returned vector
    /// is always exact — memoization never changes results, only speed
    /// (Section 3.4).
    pub fn neighborhood(&mut self, e: EdgeId) -> Vec<WeightedNeighbor> {
        self.clock += 1;
        if let Some(cached) = self.cache.get_mut(&e) {
            cached.last_used = self.clock;
            self.stats.hits += 1;
            return cached.neighbors.clone();
        }
        self.stats.misses += 1;
        let neighbors = compute_neighborhood(self.hypergraph, e);
        self.try_admit(e, &neighbors);
        neighbors
    }

    fn try_admit(&mut self, e: EdgeId, neighbors: &[WeightedNeighbor]) {
        let cost = neighbors.len();
        if cost == 0 || cost > self.budget_entries {
            self.stats.rejected += 1;
            return;
        }
        // Evict until the new entry fits, as long as the policy allows it.
        while self.resident_entries + cost > self.budget_entries {
            let victim = match self.policy {
                MemoPolicy::HighestDegree => self.smallest_resident_below(cost),
                MemoPolicy::Lru => self.least_recently_used(),
                MemoPolicy::Random => self.random_resident(),
            };
            match victim {
                Some(victim) => {
                    if let Some(entry) = self.cache.remove(&victim) {
                        self.resident_entries -= entry.neighbors.len();
                        self.stats.evictions += 1;
                    }
                }
                None => {
                    self.stats.rejected += 1;
                    return;
                }
            }
        }
        self.resident_entries += cost;
        self.cache.insert(
            e,
            CachedNeighborhood {
                neighbors: neighbors.to_vec(),
                last_used: self.clock,
            },
        );
    }

    /// Under the by-degree policy, we only evict entries that are *smaller*
    /// than the candidate (so the cache converges to holding the
    /// highest-degree neighbourhoods). Returns `None` when no such victim
    /// exists, in which case the candidate is rejected.
    fn smallest_resident_below(&self, candidate_cost: usize) -> Option<EdgeId> {
        self.cache
            .iter()
            .filter(|(_, v)| v.neighbors.len() < candidate_cost)
            .min_by_key(|(_, v)| v.neighbors.len())
            .map(|(&k, _)| k)
    }

    fn least_recently_used(&self) -> Option<EdgeId> {
        self.cache
            .iter()
            .min_by_key(|(_, v)| v.last_used)
            .map(|(&k, _)| k)
    }

    fn random_resident(&mut self) -> Option<EdgeId> {
        if self.cache.is_empty() {
            return None;
        }
        // xorshift64*
        self.rng_state ^= self.rng_state >> 12;
        self.rng_state ^= self.rng_state << 25;
        self.rng_state ^= self.rng_state >> 27;
        let index = (self.rng_state.wrapping_mul(0x2545F4914F6CDD1D) as usize) % self.cache.len();
        self.cache.keys().nth(index).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projected::project;
    use mochy_hypergraph::HypergraphBuilder;

    fn sample() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .with_edge([0, 2, 6])
            .with_edge([1, 4, 7])
            .build()
            .unwrap()
    }

    #[test]
    fn lazy_matches_eager_for_every_policy_and_budget() {
        let h = sample();
        let eager = project(&h);
        for policy in [
            MemoPolicy::HighestDegree,
            MemoPolicy::Lru,
            MemoPolicy::Random,
        ] {
            for budget in [0usize, 1, 3, 10, 1000] {
                let mut lazy = LazyProjection::new(&h, budget, policy);
                for round in 0..3 {
                    for e in h.edge_ids() {
                        assert_eq!(
                            lazy.neighborhood(e),
                            eager.neighbors(e).to_vec(),
                            "policy {policy:?}, budget {budget}, round {round}, edge {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_never_caches() {
        let h = sample();
        let mut lazy = LazyProjection::new(&h, 0, MemoPolicy::HighestDegree);
        for _ in 0..2 {
            for e in h.edge_ids() {
                lazy.neighborhood(e);
            }
        }
        assert_eq!(lazy.stats().hits, 0);
        assert_eq!(lazy.resident_entries(), 0);
        assert_eq!(lazy.stats().misses, 2 * h.num_edges() as u64);
    }

    #[test]
    fn unlimited_budget_caches_everything() {
        let h = sample();
        let mut lazy = LazyProjection::new(&h, usize::MAX, MemoPolicy::Lru);
        for e in h.edge_ids() {
            lazy.neighborhood(e);
        }
        let misses_after_first_pass = lazy.stats().misses;
        for e in h.edge_ids() {
            lazy.neighborhood(e);
        }
        assert_eq!(lazy.stats().misses, misses_after_first_pass);
        assert_eq!(lazy.stats().hits, h.num_edges() as u64);
        assert!(lazy.stats().hit_rate() > 0.0);
    }

    #[test]
    fn by_degree_policy_retains_large_neighborhoods() {
        let h = sample();
        let eager = project(&h);
        let max_degree_edge = h.edge_ids().max_by_key(|&e| eager.degree(e)).unwrap();
        let budget = eager.degree(max_degree_edge);
        let mut lazy = LazyProjection::new(&h, budget, MemoPolicy::HighestDegree);
        // Touch everything twice: the big neighbourhood should win the cache.
        for _ in 0..2 {
            for e in h.edge_ids() {
                lazy.neighborhood(e);
            }
        }
        // Requesting the max-degree edge again should now be a hit.
        let hits_before = lazy.stats().hits;
        lazy.neighborhood(max_degree_edge);
        assert_eq!(lazy.stats().hits, hits_before + 1);
    }

    #[test]
    fn lru_policy_evicts_oldest() {
        let h = sample();
        // Budget fits roughly one neighbourhood at a time.
        let mut lazy = LazyProjection::new(&h, 5, MemoPolicy::Lru);
        lazy.neighborhood(0);
        lazy.neighborhood(1);
        // Edge 0 was evicted (LRU), so asking again is a miss.
        let misses_before = lazy.stats().misses;
        lazy.neighborhood(0);
        assert_eq!(lazy.stats().misses, misses_before + 1);
        assert!(lazy.stats().evictions > 0);
    }

    #[test]
    fn stats_default_and_hit_rate() {
        let stats = MemoStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = MemoStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            rejected: 0,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }
}
