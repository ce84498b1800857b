//! The catalog of the 26 h-motifs and the pattern → motif lookup table.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::cardinalities::RegionCardinalities;
use crate::pattern::{Pattern, BIT_AB, BIT_ABC, BIT_A_ONLY, BIT_CA};

/// Number of h-motifs over three hyperedges.
pub const NUM_MOTIFS: usize = 26;

/// A 1-based h-motif identifier in `1..=26`.
pub type MotifId = u8;

/// Whether all three hyperedges of a motif's instances pairwise overlap
/// (*closed*) or one pair is disjoint (*open*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MotifClass {
    /// All three pairs of hyperedges overlap.
    Closed,
    /// Exactly one pair of hyperedges is disjoint.
    Open,
}

/// Metadata for one of the 26 h-motifs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HMotif {
    /// 1-based identifier (`1..=26`).
    pub id: MotifId,
    /// Canonical emptiness pattern.
    pub pattern: Pattern,
    /// Open/closed classification.
    pub class: MotifClass,
    /// Whether the triple intersection region is non-empty.
    pub has_triple_core: bool,
    /// Number of non-empty regions (1–7).
    pub num_nonempty_regions: u32,
    /// Human-readable description of the canonical pattern.
    pub description: String,
}

impl HMotif {
    /// Whether this motif is open.
    pub fn is_open(&self) -> bool {
        self.class == MotifClass::Open
    }

    /// Whether this motif is closed.
    pub fn is_closed(&self) -> bool {
        self.class == MotifClass::Closed
    }
}

/// The catalog of all 26 h-motifs together with an O(1) lookup table from any
/// of the 128 raw patterns to its motif identifier (if the pattern is valid).
///
/// Construction follows the deterministic numbering documented in DESIGN.md
/// §3.1:
///
/// - **1–16**: closed motifs with a non-empty triple intersection, ordered by
///   (number of non-empty regions, canonical code) ascending; motif 16 is the
///   all-seven-regions pattern.
/// - **17–22**: open motifs. 17 and 18 are the "hyperedge with two disjoint
///   subsets" patterns (17: the subsets cover the host, 18: the host keeps
///   private nodes); 19–22 follow by (regions, code) ascending, making 22 the
///   fully generic open pattern.
/// - **23–26**: closed motifs with an empty triple intersection, ordered by
///   the number of non-empty private regions (0–3).
#[derive(Debug, Clone)]
pub struct MotifCatalog {
    motifs: Vec<HMotif>,
    /// Raw pattern bits → motif id (0 = invalid pattern).
    lookup: [MotifId; Pattern::NUM_RAW],
}

impl Default for MotifCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl MotifCatalog {
    /// The process-wide catalog, built on first use. Counters and analyses
    /// classify with it rather than building their own.
    pub fn shared() -> &'static MotifCatalog {
        static CATALOG: OnceLock<MotifCatalog> = OnceLock::new();
        CATALOG.get_or_init(MotifCatalog::new)
    }

    /// Builds the catalog. The result is deterministic, but a build costs
    /// tens of microseconds (far more in unoptimized builds); code that runs
    /// per query or per worker reads [`MotifCatalog::shared`] instead.
    pub fn new() -> Self {
        // Collect canonical representatives of all valid patterns.
        let mut canonicals: Vec<Pattern> = Pattern::all_raw()
            .filter(|p| p.is_valid())
            .map(|p| p.canonical())
            .collect();
        canonicals.sort_unstable();
        canonicals.dedup();
        debug_assert_eq!(canonicals.len(), NUM_MOTIFS);

        let group_of = |p: &Pattern| -> u8 {
            if p.is_closed() {
                if p.region(BIT_ABC) {
                    0 // closed with triple core → motifs 1-16
                } else {
                    2 // closed without triple core → motifs 23-26
                }
            } else {
                1 // open → motifs 17-22
            }
        };

        let mut group_closed_core: Vec<Pattern> = Vec::new();
        let mut group_open: Vec<Pattern> = Vec::new();
        let mut group_closed_no_core: Vec<Pattern> = Vec::new();
        for p in canonicals {
            match group_of(&p) {
                0 => group_closed_core.push(p),
                1 => group_open.push(p),
                _ => group_closed_no_core.push(p),
            }
        }
        let order_key = |p: &Pattern| (p.num_nonempty_regions(), p.bits());
        group_closed_core.sort_by_key(order_key);
        group_closed_no_core.sort_by_key(order_key);

        // Open group: the two "host + two disjoint subsets" patterns come
        // first (17, 18), then the rest by (regions, code).
        let subset_pattern_exact =
            Pattern::from_regions(false, false, false, true, false, true, false).canonical();
        let subset_pattern_private =
            Pattern::from_regions(true, false, false, true, false, true, false).canonical();
        let mut open_rest: Vec<Pattern> = group_open
            .iter()
            .copied()
            .filter(|p| *p != subset_pattern_exact && *p != subset_pattern_private)
            .collect();
        open_rest.sort_by_key(order_key);
        let mut group_open_ordered = vec![subset_pattern_exact, subset_pattern_private];
        group_open_ordered.extend(open_rest);

        let mut motifs = Vec::with_capacity(NUM_MOTIFS);
        let push = |pattern: Pattern, motifs: &mut Vec<HMotif>| {
            let id = (motifs.len() + 1) as MotifId;
            motifs.push(HMotif {
                id,
                pattern,
                class: if pattern.is_closed() {
                    MotifClass::Closed
                } else {
                    MotifClass::Open
                },
                has_triple_core: pattern.region(BIT_ABC),
                num_nonempty_regions: pattern.num_nonempty_regions(),
                description: pattern.describe(),
            });
        };
        for p in group_closed_core {
            push(p, &mut motifs);
        }
        for p in group_open_ordered {
            push(p, &mut motifs);
        }
        for p in group_closed_no_core {
            push(p, &mut motifs);
        }
        debug_assert_eq!(motifs.len(), NUM_MOTIFS);

        // Build the 128-entry lookup table: every valid raw pattern maps to
        // the id of its canonical representative.
        let mut lookup = [0 as MotifId; Pattern::NUM_RAW];
        for raw in Pattern::all_raw() {
            if raw.is_valid() {
                let canonical = raw.canonical();
                let id = motifs
                    .iter()
                    .find(|m| m.pattern == canonical)
                    .expect("every valid canonical pattern is in the catalog")
                    .id;
                lookup[raw.bits() as usize] = id;
            }
        }

        Self { motifs, lookup }
    }

    /// All motifs in id order.
    pub fn motifs(&self) -> &[HMotif] {
        &self.motifs
    }

    /// The motif with identifier `id` (`1..=26`).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn motif(&self, id: MotifId) -> &HMotif {
        &self.motifs[(id - 1) as usize]
    }

    /// Maps a raw emptiness pattern to its motif id, or `None` if the pattern
    /// is not a valid h-motif (disconnected, empty edge, or duplicate edges).
    #[inline]
    pub fn classify_pattern(&self, pattern: Pattern) -> Option<MotifId> {
        match self.lookup[pattern.bits() as usize] {
            0 => None,
            id => Some(id),
        }
    }

    /// Maps region cardinalities to a motif id.
    #[inline]
    pub fn classify(&self, regions: &RegionCardinalities) -> Option<MotifId> {
        self.classify_pattern(regions.pattern())
    }

    /// Convenience: classify from the quantities available to the counting
    /// algorithms (sizes, pairwise intersections and the triple
    /// intersection), per Lemma 2.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn classify_from_intersections(
        &self,
        size_a: usize,
        size_b: usize,
        size_c: usize,
        int_ab: usize,
        int_bc: usize,
        int_ca: usize,
        int_abc: usize,
    ) -> Option<MotifId> {
        RegionCardinalities::from_intersections(
            size_a, size_b, size_c, int_ab, int_bc, int_ca, int_abc,
        )
        .and_then(|r| self.classify(&r))
    }

    /// Identifiers of the open motifs (17..=22 under this catalog's
    /// numbering).
    pub fn open_motif_ids(&self) -> Vec<MotifId> {
        self.motifs
            .iter()
            .filter(|m| m.is_open())
            .map(|m| m.id)
            .collect()
    }

    /// Identifiers of the closed motifs.
    pub fn closed_motif_ids(&self) -> Vec<MotifId> {
        self.motifs
            .iter()
            .filter(|m| m.is_closed())
            .map(|m| m.id)
            .collect()
    }

    /// Whether motif `id` is open.
    #[inline]
    pub fn is_open(&self, id: MotifId) -> bool {
        self.motif(id).is_open()
    }
}

/// Returns `true` if the canonical pattern is one of the two "a hyperedge and
/// its two disjoint subsets" motifs highlighted in Section 4.2 of the paper.
pub fn is_subset_star_pattern(pattern: Pattern) -> bool {
    let canonical = pattern.canonical();
    let exact = Pattern::from_regions(false, false, false, true, false, true, false).canonical();
    let private = Pattern::from_regions(true, false, false, true, false, true, false).canonical();
    canonical == exact || canonical == private
}

/// Convenience used by documentation and experiments: the canonical pattern
/// with every region non-empty (motif 16 in this catalog).
pub fn all_regions_pattern() -> Pattern {
    Pattern::from_bits(
        (1 << BIT_A_ONLY)
            | (1 << crate::pattern::BIT_B_ONLY)
            | (1 << crate::pattern::BIT_C_ONLY)
            | (1 << BIT_AB)
            | (1 << crate::pattern::BIT_BC)
            | (1 << BIT_CA)
            | (1 << BIT_ABC),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PERMUTATIONS;

    #[test]
    fn catalog_has_26_motifs() {
        let catalog = MotifCatalog::new();
        assert_eq!(catalog.motifs().len(), 26);
        let ids: Vec<MotifId> = catalog.motifs().iter().map(|m| m.id).collect();
        assert_eq!(ids, (1..=26).collect::<Vec<_>>());
    }

    #[test]
    fn shared_catalog_is_one_instance_equal_to_a_fresh_build() {
        let shared = MotifCatalog::shared();
        assert!(std::ptr::eq(shared, MotifCatalog::shared()));
        let fresh = MotifCatalog::new();
        assert_eq!(shared.motifs(), fresh.motifs());
        for raw in Pattern::all_raw() {
            assert_eq!(shared.classify_pattern(raw), fresh.classify_pattern(raw));
        }
    }

    #[test]
    fn group_structure_matches_paper() {
        let catalog = MotifCatalog::new();
        // 17-22 are open, everything else closed.
        for motif in catalog.motifs() {
            if (17..=22).contains(&motif.id) {
                assert!(motif.is_open(), "motif {} should be open", motif.id);
            } else {
                assert!(motif.is_closed(), "motif {} should be closed", motif.id);
            }
        }
        // 1-16 have a triple core; 23-26 are closed without one.
        for motif in catalog.motifs() {
            if motif.id <= 16 {
                assert!(motif.has_triple_core);
            }
            if motif.id >= 23 {
                assert!(!motif.has_triple_core);
                assert!(motif.is_closed());
            }
        }
        assert_eq!(catalog.open_motif_ids(), vec![17, 18, 19, 20, 21, 22]);
        assert_eq!(catalog.closed_motif_ids().len(), 20);
    }

    #[test]
    fn motif_16_has_all_regions() {
        let catalog = MotifCatalog::new();
        assert_eq!(catalog.motif(16).num_nonempty_regions, 7);
        assert_eq!(catalog.motif(16).pattern, all_regions_pattern().canonical());
    }

    #[test]
    fn motifs_17_18_are_subset_stars() {
        let catalog = MotifCatalog::new();
        assert!(is_subset_star_pattern(catalog.motif(17).pattern));
        assert!(is_subset_star_pattern(catalog.motif(18).pattern));
        assert!(!is_subset_star_pattern(catalog.motif(19).pattern));
        assert_eq!(catalog.motif(17).num_nonempty_regions, 2);
        assert_eq!(catalog.motif(18).num_nonempty_regions, 3);
    }

    #[test]
    fn motif_22_is_generic_open() {
        let catalog = MotifCatalog::new();
        assert_eq!(catalog.motif(22).num_nonempty_regions, 5);
        assert!(catalog.motif(22).is_open());
    }

    #[test]
    fn motifs_23_to_26_ordered_by_private_regions() {
        let catalog = MotifCatalog::new();
        for (offset, expected_regions) in (23u8..=26).zip(3u32..=6) {
            assert_eq!(
                catalog.motif(offset).num_nonempty_regions,
                expected_regions,
                "motif {offset}"
            );
        }
    }

    #[test]
    fn classification_covers_exactly_valid_patterns() {
        let catalog = MotifCatalog::new();
        let mut classified = 0usize;
        for p in Pattern::all_raw() {
            match catalog.classify_pattern(p) {
                Some(id) => {
                    assert!(p.is_valid());
                    assert!((1..=26).contains(&id));
                    classified += 1;
                }
                None => assert!(!p.is_valid()),
            }
        }
        // Orbits have different sizes, so just check that a substantial number
        // of raw patterns are valid and that classification is consistent
        // with canonicalization.
        assert!(classified > 26);
        for p in Pattern::all_raw().filter(|p| p.is_valid()) {
            assert_eq!(
                catalog.classify_pattern(p),
                catalog.classify_pattern(p.canonical())
            );
        }
    }

    #[test]
    fn classification_is_permutation_invariant() {
        let catalog = MotifCatalog::new();
        for p in Pattern::all_raw().filter(|p| p.is_valid()) {
            let id = catalog.classify_pattern(p);
            for &perm in &PERMUTATIONS {
                assert_eq!(catalog.classify_pattern(p.permute(perm)), id);
            }
        }
    }

    #[test]
    fn classify_from_intersections_example() {
        let catalog = MotifCatalog::new();
        // Figure 2(b): e1={L,K,F}, e2={L,H,K}, e3={B,G,L}.
        // |e1|=3, |e2|=3, |e3|=3, |e1∩e2|=2, |e2∩e3|=1, |e3∩e1|=1, |e1∩e2∩e3|=1.
        let id = catalog
            .classify_from_intersections(3, 3, 3, 2, 1, 1, 1)
            .unwrap();
        let motif = catalog.motif(id);
        assert!(motif.is_closed());
        assert!(motif.has_triple_core);
        // {e1,e2,e4}: e4={S,R,F}; |e1∩e4|=1, |e2∩e4|=0, |e1∩e2|=2, triple=0 → open.
        let id = catalog
            .classify_from_intersections(3, 3, 3, 2, 0, 1, 0)
            .unwrap();
        assert!(catalog.motif(id).is_open());
        // Inconsistent quantities yield None.
        assert!(catalog
            .classify_from_intersections(1, 1, 1, 5, 0, 0, 0)
            .is_none());
    }

    #[test]
    fn duplicate_pattern_not_classified() {
        let catalog = MotifCatalog::new();
        let duplicate = Pattern::from_regions(false, false, true, true, false, false, true);
        assert!(catalog.classify_pattern(duplicate).is_none());
    }

    #[test]
    fn catalog_lookup_matches_linear_search() {
        let catalog = MotifCatalog::new();
        for p in Pattern::all_raw().filter(|p| p.is_valid()) {
            let canonical = p.canonical();
            let expected = catalog
                .motifs()
                .iter()
                .find(|m| m.pattern == canonical)
                .map(|m| m.id);
            assert_eq!(catalog.classify_pattern(p), expected);
        }
    }

    #[test]
    fn descriptions_are_nonempty_and_unique() {
        let catalog = MotifCatalog::new();
        let mut seen = std::collections::BTreeSet::new();
        for motif in catalog.motifs() {
            assert!(!motif.description.is_empty());
            assert!(
                seen.insert(motif.description.clone()),
                "duplicate description"
            );
        }
    }
}
