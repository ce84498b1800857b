//! Exact sizes of the seven Venn regions of three hyperedges.
//!
//! Lemma 2 of the paper shows that, given the three hyperedge sizes, the
//! three pairwise intersection sizes (available from the projected graph) and
//! the triple intersection size, all seven region cardinalities follow by
//! inclusion–exclusion in O(1). [`RegionCardinalities::from_intersections`]
//! implements exactly those formulas.

use serde::{Deserialize, Serialize};

use crate::pattern::Pattern;

/// The cardinalities of the seven Venn regions of an ordered triple of
/// hyperedges `(e_a, e_b, e_c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionCardinalities {
    /// `|e_a \ e_b \ e_c|`
    pub a_only: usize,
    /// `|e_b \ e_c \ e_a|`
    pub b_only: usize,
    /// `|e_c \ e_a \ e_b|`
    pub c_only: usize,
    /// `|e_a ∩ e_b \ e_c|`
    pub ab: usize,
    /// `|e_b ∩ e_c \ e_a|`
    pub bc: usize,
    /// `|e_c ∩ e_a \ e_b|`
    pub ca: usize,
    /// `|e_a ∩ e_b ∩ e_c|`
    pub abc: usize,
}

impl RegionCardinalities {
    /// Computes the region cardinalities from the hyperedge sizes, the three
    /// pairwise intersection sizes, and the triple intersection size
    /// (Lemma 2):
    ///
    /// ```text
    /// |a\b\c| = |a| − |a∩b| − |c∩a| + |a∩b∩c|
    /// |a∩b\c| = |a∩b| − |a∩b∩c|
    /// ```
    ///
    /// Returns `None` if the inputs are inconsistent (any derived region
    /// would be negative), which signals a logic error upstream.
    pub fn from_intersections(
        size_a: usize,
        size_b: usize,
        size_c: usize,
        int_ab: usize,
        int_bc: usize,
        int_ca: usize,
        int_abc: usize,
    ) -> Option<Self> {
        let checked = |value: i64| -> Option<usize> {
            if value < 0 {
                None
            } else {
                Some(value as usize)
            }
        };
        let (sa, sb, sc) = (size_a as i64, size_b as i64, size_c as i64);
        let (iab, ibc, ica, iabc) = (int_ab as i64, int_bc as i64, int_ca as i64, int_abc as i64);
        Some(Self {
            a_only: checked(sa - iab - ica + iabc)?,
            b_only: checked(sb - iab - ibc + iabc)?,
            c_only: checked(sc - ica - ibc + iabc)?,
            ab: checked(iab - iabc)?,
            bc: checked(ibc - iabc)?,
            ca: checked(ica - iabc)?,
            abc: int_abc,
        })
    }

    /// Computes the region cardinalities directly from three sorted node
    /// lists. Primarily used by tests and the brute-force reference counter.
    pub fn from_sorted_sets(a: &[u32], b: &[u32], c: &[u32]) -> Self {
        let in_set = |set: &[u32], v: u32| set.binary_search(&v).is_ok();
        let mut counts = [0usize; 7];
        let mut all: Vec<u32> = a.iter().chain(b).chain(c).copied().collect();
        all.sort_unstable();
        all.dedup();
        for v in all {
            let ia = in_set(a, v);
            let ib = in_set(b, v);
            let ic = in_set(c, v);
            let index = match (ia, ib, ic) {
                (true, false, false) => 0,
                (false, true, false) => 1,
                (false, false, true) => 2,
                (true, true, false) => 3,
                (false, true, true) => 4,
                (true, false, true) => 5,
                (true, true, true) => 6,
                (false, false, false) => continue,
            };
            counts[index] += 1;
        }
        Self {
            a_only: counts[0],
            b_only: counts[1],
            c_only: counts[2],
            ab: counts[3],
            bc: counts[4],
            ca: counts[5],
            abc: counts[6],
        }
    }

    /// The emptiness [`Pattern`] of these cardinalities.
    pub fn pattern(&self) -> Pattern {
        Pattern::from_regions(
            self.a_only > 0,
            self.b_only > 0,
            self.c_only > 0,
            self.ab > 0,
            self.bc > 0,
            self.ca > 0,
            self.abc > 0,
        )
    }

    /// Size of hyperedge `e_a` implied by the regions.
    pub fn size_a(&self) -> usize {
        self.a_only + self.ab + self.ca + self.abc
    }

    /// Size of hyperedge `e_b` implied by the regions.
    pub fn size_b(&self) -> usize {
        self.b_only + self.ab + self.bc + self.abc
    }

    /// Size of hyperedge `e_c` implied by the regions.
    pub fn size_c(&self) -> usize {
        self.c_only + self.ca + self.bc + self.abc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma2_formulas_match_direct_computation() {
        // a = {0,1,2,3}, b = {2,3,4}, c = {3,4,5,6}
        let a = [0u32, 1, 2, 3];
        let b = [2u32, 3, 4];
        let c = [3u32, 4, 5, 6];
        let direct = RegionCardinalities::from_sorted_sets(&a, &b, &c);
        let derived = RegionCardinalities::from_intersections(4, 3, 4, 2, 2, 1, 1).unwrap();
        assert_eq!(direct, derived);
        assert_eq!(direct.size_a(), 4);
        assert_eq!(direct.size_b(), 3);
        assert_eq!(direct.size_c(), 4);
    }

    #[test]
    fn inconsistent_inputs_rejected() {
        // Pairwise intersection larger than an edge.
        assert!(RegionCardinalities::from_intersections(2, 2, 2, 3, 0, 0, 0).is_none());
        // Triple intersection larger than a pairwise one.
        assert!(RegionCardinalities::from_intersections(5, 5, 5, 1, 1, 1, 2).is_none());
    }

    #[test]
    fn pattern_reflects_emptiness() {
        let regions = RegionCardinalities {
            a_only: 2,
            b_only: 0,
            c_only: 1,
            ab: 0,
            bc: 3,
            ca: 0,
            abc: 1,
        };
        let p = regions.pattern();
        assert!(p.region(crate::pattern::BIT_A_ONLY));
        assert!(!p.region(crate::pattern::BIT_B_ONLY));
        assert!(p.region(crate::pattern::BIT_C_ONLY));
        assert!(!p.region(crate::pattern::BIT_AB));
        assert!(p.region(crate::pattern::BIT_BC));
        assert!(!p.region(crate::pattern::BIT_CA));
        assert!(p.region(crate::pattern::BIT_ABC));
    }

    #[test]
    fn disjoint_sets() {
        let regions = RegionCardinalities::from_sorted_sets(&[0, 1], &[2, 3], &[4]);
        assert_eq!(regions.ab + regions.bc + regions.ca + regions.abc, 0);
    }

    #[test]
    fn identical_sets() {
        let regions = RegionCardinalities::from_sorted_sets(&[1, 2], &[1, 2], &[1, 2]);
        assert_eq!(regions.abc, 2);
        assert!(regions.pattern().has_duplicate_edges());
    }
}
