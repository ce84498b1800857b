//! Empirical distributions of node degrees and hyperedge sizes.
//!
//! The null model of the paper (Section 2.3, Appendix D) is designed to
//! preserve exactly these two distributions; this module provides the
//! machinery for checking how well they are preserved: summary moments,
//! quantiles, the Gini coefficient, and the Kolmogorov–Smirnov distance
//! between two empirical distributions.

use crate::graph::Hypergraph;

/// An empirical distribution over non-negative integer values (degrees or
/// sizes), stored as a sorted sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmpiricalDistribution {
    values: Vec<usize>,
}

impl EmpiricalDistribution {
    /// Builds a distribution from raw observations. Zero values are kept.
    pub fn new(mut values: Vec<usize>) -> Self {
        values.sort_unstable();
        Self { values }
    }

    /// The node-degree distribution of a hypergraph.
    pub fn node_degrees(hypergraph: &Hypergraph) -> Self {
        Self::new(hypergraph.node_degrees())
    }

    /// The hyperedge-size distribution of a hypergraph.
    pub fn edge_sizes(hypergraph: &Hypergraph) -> Self {
        Self::new(hypergraph.edge_sizes())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the distribution has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted observations.
    pub fn values(&self) -> &[usize] {
        &self.values
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> usize {
        self.values.first().copied().unwrap_or(0)
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> usize {
        self.values.last().copied().unwrap_or(0)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<usize>() as f64 / self.values.len() as f64
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.values
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.values.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method.
    pub fn quantile(&self, q: f64) -> usize {
        if self.values.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.values.len() as f64) * q).ceil() as usize;
        self.values[rank.saturating_sub(1).min(self.values.len() - 1)]
    }

    /// Gini coefficient of the observations — 0 for perfectly equal values,
    /// approaching 1 for extreme concentration. Heavy-tailed degree
    /// distributions (power laws, Section 1 of the paper) have high Gini.
    pub fn gini(&self) -> f64 {
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let total: f64 = self.values.iter().map(|&v| v as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        // For sorted values: G = (2 Σ_i i·x_i) / (n Σ x_i) − (n+1)/n, with i starting at 1.
        let weighted: f64 = self
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 + 1.0) * v as f64)
            .sum();
        (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
    }

    /// Kolmogorov–Smirnov distance between two empirical distributions:
    /// the maximum absolute difference of their CDFs.
    pub fn ks_distance(&self, other: &EmpiricalDistribution) -> f64 {
        if self.values.is_empty() || other.values.is_empty() {
            return if self.values.is_empty() && other.values.is_empty() {
                0.0
            } else {
                1.0
            };
        }
        let max_value = self.max().max(other.max());
        let mut worst: f64 = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        let (n_a, n_b) = (self.values.len() as f64, other.values.len() as f64);
        for value in 0..=max_value {
            while i < self.values.len() && self.values[i] <= value {
                i += 1;
            }
            while j < other.values.len() && other.values[j] <= value {
                j += 1;
            }
            let diff = (i as f64 / n_a - j as f64 / n_b).abs();
            worst = worst.max(diff);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    fn sample() -> EmpiricalDistribution {
        EmpiricalDistribution::new(vec![1, 2, 2, 3, 3, 3, 10])
    }

    #[test]
    fn summary_statistics() {
        let d = sample();
        assert_eq!(d.len(), 7);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 10);
        assert!((d.mean() - 24.0 / 7.0).abs() < 1e-12);
        assert!(d.variance() > 0.0);
        assert_eq!(d.quantile(0.0), 1);
        assert_eq!(d.quantile(0.5), 3);
        assert_eq!(d.quantile(1.0), 10);
    }

    #[test]
    fn gini_of_equal_values_is_zero() {
        let equal = EmpiricalDistribution::new(vec![5; 100]);
        assert!(equal.gini().abs() < 1e-9);
        // A highly skewed distribution has a much larger Gini.
        let mut skewed = vec![1usize; 99];
        skewed.push(1000);
        let skewed = EmpiricalDistribution::new(skewed);
        assert!(skewed.gini() > 0.8);
    }

    #[test]
    fn ks_distance_properties() {
        let a = sample();
        let b = sample();
        assert!(a.ks_distance(&b).abs() < 1e-12);
        let c = EmpiricalDistribution::new(vec![100, 100, 100]);
        assert!(a.ks_distance(&c) > 0.9);
        let empty = EmpiricalDistribution::new(vec![]);
        assert_eq!(empty.ks_distance(&empty), 0.0);
        assert_eq!(a.ks_distance(&empty), 1.0);
    }

    #[test]
    fn from_hypergraph_matches_accessors() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0u32, 1])
            .with_edge([3u32])
            .build()
            .unwrap();
        let degrees = EmpiricalDistribution::node_degrees(&h);
        let sizes = EmpiricalDistribution::edge_sizes(&h);
        assert_eq!(degrees.values(), &[1, 1, 2, 2]);
        assert_eq!(sizes.values(), &[1, 2, 3]);
    }
}
