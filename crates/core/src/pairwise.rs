//! The pairwise-only baseline the paper argues against (Section 2.2, "Why
//! Non-pairwise Relations?", and the remarks opening Section 3).
//!
//! If the relation between two hyperedges is reduced to what a (directed)
//! projected graph can encode — disjoint, proper overlap, or containment —
//! then three distinct connected hyperedges can only realize **eight**
//! distinct patterns, and many h-motifs become indistinguishable (twelve of
//! the twenty-six collapse onto a single pairwise pattern). This module makes
//! that argument executable:
//!
//! - [`PairRelation`] / [`PairwisePattern`]: the pairwise abstraction.
//! - [`pairwise_pattern_of`]: the pairwise pattern of an h-motif's canonical
//!   region pattern.
//! - [`PairwiseCensus`]: counts of pairwise patterns in a hypergraph,
//!   obtained by collapsing h-motif counts, plus the collapse map showing
//!   which h-motifs become indistinguishable.

use mochy_motif::{MotifCatalog, MotifId, Pattern};
use rustc_hash::FxHashMap;

use crate::count::MotifCounts;

/// The relation between two distinct hyperedges as visible to a (directed)
/// projected graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PairRelation {
    /// The hyperedges share no node.
    Disjoint,
    /// The hyperedges overlap and neither contains the other.
    Overlap,
    /// One hyperedge is a proper subset of the other.
    Containment,
}

/// The pairwise pattern of three connected hyperedges: the three pair
/// relations together with how containments chain, canonicalized over the six
/// permutations of the hyperedges.
///
/// The canonical code is chosen so that two triples receive the same
/// [`PairwisePattern`] exactly when no directed projected graph can tell them
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairwisePattern(u16);

impl PairwisePattern {
    /// The canonical code of the pattern (useful for stable ordering only).
    pub fn code(self) -> u16 {
        self.0
    }
}

/// Computes the pair relation between hyperedges `x` and `y` of a 3-edge
/// region pattern (`x`, `y` ∈ {0, 1, 2}).
fn pair_relation_of_pattern(pattern: Pattern, x: usize, y: usize) -> PairRelation {
    if !pattern.pair_intersects(x, y) {
        return PairRelation::Disjoint;
    }
    // `x ⊂ y` iff every non-empty region that contains x also contains y;
    // equivalently x has no region outside y.
    let x_outside_y = (0..3usize).any(|z| {
        // Regions containing x but not y: x-only and x∩z\y for the third edge z.
        if z == x || z == y {
            return false;
        }
        pattern.region(mochy_motif::pattern::only_bit(x))
            || pattern.region(mochy_motif::pattern::pair_bit(x, z))
    });
    let y_outside_x = (0..3usize).any(|z| {
        if z == x || z == y {
            return false;
        }
        pattern.region(mochy_motif::pattern::only_bit(y))
            || pattern.region(mochy_motif::pattern::pair_bit(y, z))
    });
    if x_outside_y && y_outside_x {
        PairRelation::Overlap
    } else {
        PairRelation::Containment
    }
}

/// The directed-pair state used for canonical encoding: 0 disjoint,
/// 1 overlap, 2 means "the first edge contains the second", 3 the reverse.
fn directed_state(pattern: Pattern, x: usize, y: usize) -> u16 {
    match pair_relation_of_pattern(pattern, x, y) {
        PairRelation::Disjoint => 0,
        PairRelation::Overlap => 1,
        PairRelation::Containment => {
            // Does x contain y (y ⊂ x)?
            let y_outside_x = (0..3usize).any(|z| {
                if z == x || z == y {
                    return false;
                }
                pattern.region(mochy_motif::pattern::only_bit(y))
                    || pattern.region(mochy_motif::pattern::pair_bit(y, z))
            });
            if y_outside_x {
                // x has no private part (otherwise this would be Overlap),
                // so x ⊂ y.
                3
            } else {
                // y ⊂ x.
                2
            }
        }
    }
}

/// The pairwise pattern of a valid 3-edge region pattern, canonicalized over
/// hyperedge permutations.
pub fn pairwise_pattern_of(pattern: Pattern) -> PairwisePattern {
    let mut best = u16::MAX;
    for permutation in mochy_motif::pattern::PERMUTATIONS {
        let permuted = pattern.permute(permutation);
        let code = directed_state(permuted, 0, 1)
            | (directed_state(permuted, 1, 2) << 2)
            | (directed_state(permuted, 0, 2) << 4);
        best = best.min(code);
    }
    PairwisePattern(best)
}

/// The pairwise pattern of h-motif `id` under the given catalog.
pub fn pairwise_pattern_of_motif(catalog: &MotifCatalog, id: MotifId) -> PairwisePattern {
    pairwise_pattern_of(catalog.motif(id).pattern)
}

/// How the 26 h-motifs collapse under the pairwise abstraction.
#[derive(Debug, Clone)]
pub struct PairwiseCollapse {
    /// For each pairwise pattern, the h-motifs that map onto it (1-based ids,
    /// ascending), keyed in ascending canonical-code order.
    pub classes: Vec<(PairwisePattern, Vec<MotifId>)>,
}

impl PairwiseCollapse {
    /// Computes the collapse map of the full catalog.
    pub fn new(catalog: &MotifCatalog) -> Self {
        // mochy-lint: allow(no-hashmap-iter-order) reason="grouping scratch only; the collapse map below is rebuilt per sorted motif id, never iterated into output"
        let mut classes: FxHashMap<PairwisePattern, Vec<MotifId>> = FxHashMap::default();
        for motif in catalog.motifs() {
            classes
                .entry(pairwise_pattern_of(motif.pattern))
                .or_default()
                .push(motif.id);
        }
        let mut classes: Vec<(PairwisePattern, Vec<MotifId>)> = classes.into_iter().collect();
        for (_, ids) in &mut classes {
            ids.sort_unstable();
        }
        classes.sort_by_key(|&(p, _)| p);
        Self { classes }
    }

    /// Number of distinct pairwise patterns (the paper: eight).
    pub fn num_patterns(&self) -> usize {
        self.classes.len()
    }

    /// The size of the largest class (the paper: twelve h-motifs share one
    /// pairwise pattern).
    pub fn largest_class(&self) -> usize {
        self.classes
            .iter()
            .map(|(_, ids)| ids.len())
            .max()
            .unwrap_or(0)
    }

    /// The number of h-motifs that share their pairwise pattern with at least
    /// one other h-motif (i.e. that the pairwise view cannot identify).
    pub fn num_ambiguous_motifs(&self) -> usize {
        self.classes
            .iter()
            .filter(|(_, ids)| ids.len() > 1)
            .map(|(_, ids)| ids.len())
            .sum()
    }
}

/// Counts of pairwise patterns over the h-motif instances of a hypergraph.
#[derive(Debug, Clone)]
pub struct PairwiseCensus {
    /// `(pattern, instance count)`, in ascending canonical-code order.
    pub counts: Vec<(PairwisePattern, u64)>,
}

impl PairwiseCensus {
    /// Derives the census by collapsing already-computed h-motif counts
    /// (exact or estimated).
    pub fn from_motif_counts(counts: &MotifCounts) -> Self {
        let catalog = MotifCatalog::shared();
        // mochy-lint: allow(no-hashmap-iter-order) reason="accumulator drained into a Vec that is sorted by pattern before it becomes the census"
        let mut collapsed: FxHashMap<PairwisePattern, f64> = FxHashMap::default();
        for (id, value) in counts.iter() {
            if value == 0.0 {
                continue;
            }
            *collapsed
                .entry(pairwise_pattern_of_motif(catalog, id))
                .or_insert(0.0) += value;
        }
        let mut counts: Vec<(PairwisePattern, u64)> = collapsed
            .into_iter()
            .map(|(p, v)| (p, v.round() as u64))
            .collect();
        counts.sort_by_key(|&(p, _)| p);
        Self { counts }
    }

    /// Total number of counted instances.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, c)| c).sum()
    }

    /// Number of distinct pairwise patterns observed.
    pub fn support(&self) -> usize {
        self.counts.iter().filter(|&&(_, c)| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::mochy_e;
    use mochy_hypergraph::{HypergraphBuilder, NodeId};
    use mochy_motif::NUM_MOTIFS;
    use mochy_projection::project;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn the_pairwise_view_has_exactly_eight_patterns() {
        let catalog = MotifCatalog::new();
        let collapse = PairwiseCollapse::new(&catalog);
        assert_eq!(
            collapse.num_patterns(),
            8,
            "Section 3 of the paper: the directed projected graph distinguishes 8 patterns"
        );
    }

    #[test]
    fn twelve_motifs_share_one_pairwise_pattern() {
        let catalog = MotifCatalog::new();
        let collapse = PairwiseCollapse::new(&catalog);
        assert_eq!(
            collapse.largest_class(),
            12,
            "Section 2.2 of the paper: 12 of the 26 h-motifs have identical pairwise relations"
        );
        // All but a handful of motifs are ambiguous under the pairwise view.
        assert!(collapse.num_ambiguous_motifs() >= 20);
        // Every motif appears in exactly one class.
        let total: usize = collapse.classes.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(total, NUM_MOTIFS);
    }

    #[test]
    fn relations_on_figure2_pairs() {
        let catalog = MotifCatalog::new();
        // h-motif instances of Figure 2: {e1,e2,e3} has three mutual proper
        // overlaps; {e1,e2,e4} and {e1,e3,e4} each contain one disjoint pair.
        for motif in catalog.motifs() {
            let pattern = motif.pattern;
            let relations = [
                pair_relation_of_pattern(pattern, 0, 1),
                pair_relation_of_pattern(pattern, 1, 2),
                pair_relation_of_pattern(pattern, 0, 2),
            ];
            let disjoint = relations
                .iter()
                .filter(|&&r| r == PairRelation::Disjoint)
                .count();
            if motif.is_open() {
                assert_eq!(disjoint, 1, "open motifs have exactly one disjoint pair");
            } else {
                assert_eq!(disjoint, 0, "closed motifs have no disjoint pair");
            }
        }
    }

    #[test]
    fn census_total_matches_exact_counting() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut builder = HypergraphBuilder::new();
        for _ in 0..120 {
            let size = rng.gen_range(2..=5usize);
            let mut members: Vec<NodeId> = Vec::new();
            while members.len() < size {
                let v = rng.gen_range(0..40u32);
                if !members.contains(&v) {
                    members.push(v);
                }
            }
            builder.add_edge(members);
        }
        let h = builder.dedup_hyperedges(true).build().unwrap();
        let projected = project(&h);
        let exact = mochy_e(&h, &projected);
        let census = PairwiseCensus::from_motif_counts(&exact);
        assert_eq!(census.total() as f64, exact.total());
        assert!(census.support() <= 8);
    }

    #[test]
    fn containment_is_detected() {
        // e0 ⊂ e1, e1 overlaps e2 properly.
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([0u32, 1, 2, 3])
            .with_edge([3u32, 4])
            .build()
            .unwrap();
        let projected = project(&h);
        let catalog = MotifCatalog::new();
        let motif = crate::classify::classify_triple(&h, &projected, &catalog, 0, 1, 2).unwrap();
        let pattern = catalog.motif(motif).pattern;
        let relations = [
            pair_relation_of_pattern(pattern, 0, 1),
            pair_relation_of_pattern(pattern, 1, 2),
            pair_relation_of_pattern(pattern, 0, 2),
        ];
        assert!(relations.contains(&PairRelation::Containment));
    }
}
