//! Generalization of h-motifs to `k ≥ 3` hyperedges (Section 2.2 of the
//! paper).
//!
//! For `k` hyperedges there are `2^k − 1` Venn regions; a generalized h-motif
//! is an equivalence class (under permutations of the hyperedges) of
//! emptiness patterns of those regions such that every hyperedge is
//! non-empty, the hyperedges are connected, and no two hyperedges are forced
//! to be identical. The paper reports 26 such motifs for `k = 3` and 1 853
//! for `k = 4`; this module recomputes those numbers by explicit enumeration,
//! which doubles as a strong consistency check of the `k = 3` catalog.

/// A generalized pattern over `k` hyperedges: bit `r` (for `r` in
/// `1..2^k`) is set iff the Venn region of the hyperedge subset with
/// characteristic mask `r` is non-empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GeneralPattern {
    bits: u64,
    k: u32,
}

impl GeneralPattern {
    /// Creates a pattern for `k` hyperedges from its raw bitset. Bit `r`
    /// corresponds to the region of subset-mask `r`; bit 0 is unused.
    pub fn new(k: u32, bits: u64) -> Self {
        assert!((2..=5).contains(&k), "supported k is 2..=5");
        let mask = (1u64 << (1u64 << k)) - 2; // bits 1 .. 2^k-1
        Self {
            bits: bits & mask,
            k,
        }
    }

    /// Raw bitset.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Whether the region of subset-mask `region` is non-empty.
    #[inline]
    pub fn region_nonempty(&self, region: u32) -> bool {
        (self.bits >> region) & 1 == 1
    }

    /// Whether hyperedge `i` is non-empty (some region containing `i` is
    /// non-empty).
    pub fn edge_nonempty(&self, i: u32) -> bool {
        let total = 1u32 << self.k;
        (1..total).any(|r| r & (1 << i) != 0 && self.region_nonempty(r))
    }

    /// Whether hyperedges `i` and `j` intersect.
    pub fn pair_intersects(&self, i: u32, j: u32) -> bool {
        let total = 1u32 << self.k;
        let need = (1u32 << i) | (1 << j);
        (1..total).any(|r| r & need == need && self.region_nonempty(r))
    }

    /// Whether hyperedges `i` and `j` are forced to be identical node sets.
    pub fn pair_equal(&self, i: u32, j: u32) -> bool {
        let total = 1u32 << self.k;
        for r in 1..total {
            if !self.region_nonempty(r) {
                continue;
            }
            let has_i = r & (1 << i) != 0;
            let has_j = r & (1 << j) != 0;
            if has_i != has_j {
                return false;
            }
        }
        true
    }

    /// Whether the hyperedges form a connected adjacency graph.
    pub fn is_connected(&self) -> bool {
        let k = self.k as usize;
        let mut visited = vec![false; k];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut seen = 1usize;
        while let Some(u) = stack.pop() {
            for (v, vis) in visited.iter_mut().enumerate().take(k) {
                if !*vis && self.pair_intersects(u as u32, v as u32) {
                    *vis = true;
                    seen += 1;
                    stack.push(v);
                }
            }
        }
        seen == k
    }

    /// Validity as a generalized h-motif representative.
    pub fn is_valid(&self) -> bool {
        let k = self.k;
        (0..k).all(|i| self.edge_nonempty(i))
            && self.is_connected()
            && !(0..k).any(|i| ((i + 1)..k).any(|j| self.pair_equal(i, j)))
    }

    /// Applies a permutation of hyperedges: the new hyperedge `x` is the old
    /// hyperedge `perm[x]`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        debug_assert_eq!(perm.len(), self.k as usize);
        let total = 1u32 << self.k;
        let mut bits = 0u64;
        for new_region in 1..total {
            // The old region corresponding to this new one: replace each new
            // index x by perm[x].
            let mut old_region = 0u32;
            for x in 0..self.k {
                if new_region & (1 << x) != 0 {
                    old_region |= 1 << perm[x as usize];
                }
            }
            if self.region_nonempty(old_region) {
                bits |= 1 << new_region;
            }
        }
        Self { bits, k: self.k }
    }

    /// Canonical representative: minimum bitset over all permutations.
    pub fn canonical(&self) -> Self {
        let mut best = *self;
        let mut indices: Vec<usize> = (0..self.k as usize).collect();
        permute_all(&mut indices, 0, &mut |perm| {
            let candidate = self.permute(perm);
            if candidate.bits < best.bits {
                best = candidate;
            }
        });
        best
    }
}

fn permute_all<F: FnMut(&[usize])>(items: &mut [usize], start: usize, visit: &mut F) {
    if start == items.len() {
        visit(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute_all(items, start + 1, visit);
        items.swap(start, i);
    }
}

/// The catalog of generalized h-motifs over `k` hyperedges: every valid
/// canonical emptiness pattern, assigned a dense identifier `0..len()` in
/// increasing order of its canonical bitset.
///
/// For `k = 2` this contains 2 motifs ("proper overlap" and
/// "containment"), for `k = 3` 26 (the classic catalog), and for `k = 4`
/// 1 853, matching Section 2.2 of the paper. Construction
/// enumerates all `2^(2^k − 1)` raw patterns, so it is supported for
/// `k ∈ {2, 3, 4}` only (the same limit the paper's appendix works within
/// when it reports exact motif counts).
#[derive(Debug, Clone)]
pub struct GeneralizedCatalog {
    k: u32,
    /// Canonical bitsets in increasing order; the index is the motif id.
    canonical_bits: Vec<u64>,
    /// Map canonical bitset -> dense id.
    index: std::collections::HashMap<u64, usize>,
}

impl GeneralizedCatalog {
    /// Enumerates the catalog for `k` hyperedges (`2 ≤ k ≤ 4`).
    pub fn new(k: u32) -> Self {
        assert!(
            (2..=4).contains(&k),
            "enumeration supported for k = 2, 3, 4"
        );
        let num_regions = (1u64 << k) - 1;
        let num_patterns = 1u64 << num_regions;
        let mut canonicals = std::collections::BTreeSet::new();
        for raw in 0..num_patterns {
            let pattern = GeneralPattern::new(k, raw << 1);
            if pattern.is_valid() {
                canonicals.insert(pattern.canonical().bits());
            }
        }
        let canonical_bits: Vec<u64> = canonicals.into_iter().collect();
        let index = canonical_bits
            .iter()
            .enumerate()
            .map(|(i, &bits)| (bits, i))
            .collect();
        Self {
            k,
            canonical_bits,
            index,
        }
    }

    /// Number of hyperedges per motif.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of motifs in the catalog.
    pub fn len(&self) -> usize {
        self.canonical_bits.len()
    }

    /// Whether the catalog is empty (never true for supported `k`).
    pub fn is_empty(&self) -> bool {
        self.canonical_bits.is_empty()
    }

    /// The dense identifier of a (not necessarily canonical) valid pattern,
    /// or `None` for invalid patterns or patterns of the wrong arity.
    pub fn id_of(&self, pattern: GeneralPattern) -> Option<usize> {
        if pattern.k != self.k || !pattern.is_valid() {
            return None;
        }
        self.index.get(&pattern.canonical().bits()).copied()
    }

    /// The canonical pattern of motif `id`.
    ///
    /// # Panics
    /// Panics if `id ≥ len()`.
    pub fn pattern(&self, id: usize) -> GeneralPattern {
        GeneralPattern::new(self.k, self.canonical_bits[id])
    }

    /// Iterates over `(id, canonical pattern)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, GeneralPattern)> + '_ {
        self.canonical_bits
            .iter()
            .enumerate()
            .map(move |(i, &bits)| (i, GeneralPattern::new(self.k, bits)))
    }

    /// Whether motif `id` is *open*: at least one pair of its hyperedges is
    /// disjoint. (For `k = 3` this matches the paper's open/closed split.)
    pub fn is_open(&self, id: usize) -> bool {
        let pattern = self.pattern(id);
        let k = self.k;
        (0..k).any(|i| ((i + 1)..k).any(|j| !pattern.pair_intersects(i, j)))
    }

    /// The number of adjacent (overlapping) hyperedge pairs in motif `id`,
    /// i.e. the number of hyperwedges each of its instances contains.
    pub fn num_hyperwedges(&self, id: usize) -> usize {
        let pattern = self.pattern(id);
        let k = self.k;
        (0..k)
            .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
            .filter(|&(i, j)| pattern.pair_intersects(i, j))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k3_matches_the_dedicated_catalog() {
        assert_eq!(GeneralizedCatalog::new(3).len(), 26);
    }

    #[test]
    fn k4_matches_the_paper() {
        assert_eq!(GeneralizedCatalog::new(4).len(), 1853);
    }

    #[test]
    fn k2_has_two_motifs() {
        // Two adjacent, distinct hyperedges can only relate in two ways:
        // strict containment (one edge has no private nodes) or proper
        // overlap (both have private nodes).
        assert_eq!(GeneralizedCatalog::new(2).len(), 2);
    }

    #[test]
    fn general_pattern_connectivity() {
        // k = 3, only region {0,1} non-empty → edge 2 empty and disconnected.
        let p = GeneralPattern::new(3, 1 << 0b011);
        assert!(p.pair_intersects(0, 1));
        assert!(!p.pair_intersects(1, 2));
        assert!(!p.edge_nonempty(2));
        assert!(!p.is_valid());
    }

    #[test]
    fn general_pattern_duplicates() {
        // Only region {0,1,2} non-empty: all three edges identical.
        let p = GeneralPattern::new(3, 1 << 0b111);
        assert!(p.pair_equal(0, 1));
        assert!(!p.is_valid());
    }

    #[test]
    fn permutation_preserves_validity() {
        for raw in 0..(1u64 << 7) {
            let p = GeneralPattern::new(3, raw << 1);
            let perm = [2usize, 0, 1];
            assert_eq!(p.is_valid(), p.permute(&perm).is_valid());
        }
    }

    #[test]
    fn canonical_is_idempotent() {
        for raw in (0..(1u64 << 7)).step_by(3) {
            let p = GeneralPattern::new(3, raw << 1);
            assert_eq!(p.canonical().canonical(), p.canonical());
        }
    }

    #[test]
    fn catalog_k3_has_26_motifs_with_6_open() {
        let catalog = GeneralizedCatalog::new(3);
        assert_eq!(catalog.len(), 26);
        assert!(!catalog.is_empty());
        assert_eq!(catalog.k(), 3);
        let open = (0..catalog.len()).filter(|&id| catalog.is_open(id)).count();
        assert_eq!(open, 6, "the paper's h-motifs 17-22 are the open ones");
        // Open motifs have exactly 2 hyperwedges, closed ones 3.
        for id in 0..catalog.len() {
            let wedges = catalog.num_hyperwedges(id);
            if catalog.is_open(id) {
                assert_eq!(wedges, 2);
            } else {
                assert_eq!(wedges, 3);
            }
        }
    }

    #[test]
    fn catalog_k4_has_1853_motifs() {
        let catalog = GeneralizedCatalog::new(4);
        assert_eq!(catalog.len(), 1853);
        // Every catalog pattern is valid, canonical, and maps back to itself.
        for (id, pattern) in catalog.iter() {
            assert!(pattern.is_valid());
            assert_eq!(pattern.canonical(), pattern);
            assert_eq!(catalog.id_of(pattern), Some(id));
            assert!(catalog.num_hyperwedges(id) >= 3);
        }
    }

    #[test]
    fn catalog_id_of_rejects_invalid_and_mismatched_patterns() {
        let catalog = GeneralizedCatalog::new(3);
        // Disconnected pattern.
        assert_eq!(catalog.id_of(GeneralPattern::new(3, 1 << 0b011)), None);
        // Wrong arity.
        let k4_catalog = GeneralizedCatalog::new(4);
        let some_k4 = k4_catalog.pattern(0);
        assert_eq!(catalog.id_of(some_k4), None);
    }

    #[test]
    fn catalog_ids_follow_non_canonical_representatives() {
        let catalog = GeneralizedCatalog::new(3);
        // A valid but possibly non-canonical pattern must resolve to the same
        // id as its canonical form.
        for raw in 0..(1u64 << 7) {
            let pattern = GeneralPattern::new(3, raw << 1);
            if pattern.is_valid() {
                assert_eq!(catalog.id_of(pattern), catalog.id_of(pattern.canonical()));
            }
        }
    }

    #[test]
    fn k3_canonical_classes_agree_with_pattern_module() {
        use crate::pattern::Pattern;
        // The generalized machinery and the specialized 3-edge machinery must
        // agree on the number of valid equivalence classes.
        let mut from_pattern = std::collections::HashSet::new();
        for p in Pattern::all_raw().filter(|p| p.is_valid()) {
            from_pattern.insert(p.canonical().bits());
        }
        assert_eq!(from_pattern.len(), GeneralizedCatalog::new(3).len());
    }
}
