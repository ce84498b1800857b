//! Fake-hyperedge generation for the hyperedge-prediction task (Section 4.4).
//!
//! Following the paper (and the protocol of Yoon et al. it adopts), negative
//! examples are produced by taking a real hyperedge and replacing a fraction
//! of its members with uniformly random nodes that are not already in it.

use mochy_hypergraph::{Hypergraph, NodeId};
use rand::Rng;

/// Produces a corrupted ("fake") copy of hyperedge `e`: `fraction` of its
/// members (at least one) are replaced with uniformly random other nodes.
/// The result has the same size as the original hyperedge.
pub fn corrupt_hyperedge<R: Rng + ?Sized>(
    hypergraph: &Hypergraph,
    e: u32,
    fraction: f64,
    rng: &mut R,
) -> Vec<NodeId> {
    let original = hypergraph.edge(e);
    let mut members = original.to_vec();
    let num_nodes = hypergraph.num_nodes() as u32;
    if num_nodes <= members.len() as u32 {
        return members; // nothing to swap in
    }
    let num_replace = ((members.len() as f64 * fraction).round() as usize).clamp(1, members.len());
    // Choose which positions to replace.
    let mut positions: Vec<usize> = (0..members.len()).collect();
    for i in (1..positions.len()).rev() {
        positions.swap(i, rng.gen_range(0..=i));
    }
    for &position in positions.iter().take(num_replace) {
        let mut attempts = 0usize;
        loop {
            let candidate = rng.gen_range(0..num_nodes);
            if !members.contains(&candidate) {
                members[position] = candidate;
                break;
            }
            attempts += 1;
            if attempts > 1000 {
                break;
            }
        }
    }
    members.sort_unstable();
    members.dedup();
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_hypergraph::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Hypergraph {
        let mut builder = HypergraphBuilder::new();
        for i in 0..30u32 {
            builder.add_edge([i, (i + 1) % 30, (i + 7) % 30, (i + 13) % 30]);
        }
        builder.build().unwrap()
    }

    #[test]
    fn corruption_preserves_size_and_changes_content() {
        let h = sample();
        let mut rng = StdRng::seed_from_u64(0);
        let mut changed = 0usize;
        for e in h.edge_ids() {
            let fake = corrupt_hyperedge(&h, e, 0.5, &mut rng);
            assert_eq!(fake.len(), h.edge_size(e));
            assert!(fake.windows(2).all(|w| w[0] < w[1]), "{fake:?}");
            if fake != h.edge(e) {
                changed += 1;
            }
        }
        assert!(changed as f64 > 0.9 * h.num_edges() as f64);
    }

    #[test]
    fn corruption_fraction_controls_replacements() {
        let h = sample();
        let mut rng = StdRng::seed_from_u64(1);
        let small = corrupt_hyperedge(&h, 0, 0.25, &mut rng);
        let shared_small = small.iter().filter(|v| h.edge(0).contains(v)).count();
        assert!(
            shared_small >= 2,
            "0.25 corruption should keep most members"
        );
        let large = corrupt_hyperedge(&h, 0, 1.0, &mut rng);
        let shared_large = large.iter().filter(|v| h.edge(0).contains(v)).count();
        assert!(
            shared_large <= 1,
            "full corruption should drop most members"
        );
    }

    #[test]
    fn tiny_hypergraph_is_handled() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Only two nodes exist, so no replacement is possible.
        let fake = corrupt_hyperedge(&h, 0, 0.5, &mut rng);
        assert_eq!(fake, vec![0, 1]);
    }
}
