//! Random forest: bootstrap-aggregated decision trees with feature
//! sub-sampling.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::tree::DecisionTree;
use crate::Classifier;

/// Random-forest classifier.
#[derive(Debug, Clone)]
pub struct RandomForest {
    num_trees: usize,
    max_depth: usize,
    min_samples_split: usize,
    seed: u64,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Creates an untrained forest.
    pub fn new(num_trees: usize, max_depth: usize, min_samples_split: usize, seed: u64) -> Self {
        Self {
            num_trees: num_trees.max(1),
            max_depth,
            min_samples_split,
            seed,
            trees: Vec::new(),
        }
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        assert_eq!(x.len(), y.len(), "rows and labels must align");
        self.trees.clear();
        if x.is_empty() {
            return;
        }
        let n = x.len();
        let width = x[0].len();
        let subset = (width as f64).sqrt().ceil() as usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for t in 0..self.num_trees {
            // Bootstrap sample of the training set.
            let mut sample_x = Vec::with_capacity(n);
            let mut sample_y = Vec::with_capacity(n);
            for _ in 0..n {
                let index = rng.gen_range(0..n);
                sample_x.push(x[index].clone());
                sample_y.push(y[index]);
            }
            let mut tree = DecisionTree::new(self.max_depth, self.min_samples_split)
                .with_feature_subset(subset, self.seed.wrapping_add(t as u64 + 1));
            tree.fit(&sample_x, &sample_y);
            self.trees.push(tree);
        }
    }

    fn predict_proba(&self, features: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        self.trees
            .iter()
            .map(|tree| tree.predict_proba(features))
            .sum::<f64>()
            / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, area_under_roc};

    fn noisy_blobs(seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..150 {
            let label = rng.gen_bool(0.5);
            let centre = if label { 1.0 } else { -1.0 };
            x.push(vec![
                centre + rng.gen_range(-0.8..0.8),
                -centre + rng.gen_range(-0.8..0.8),
            ]);
            y.push(u8::from(label));
        }
        (x, y)
    }

    #[test]
    fn forest_learns_blobs_and_beats_chance_auc() {
        let (x, y) = noisy_blobs(0);
        let mut forest = RandomForest::new(25, 6, 2, 3);
        forest.fit(&x, &y);
        let predictions: Vec<u8> = x.iter().map(|row| forest.predict(row)).collect();
        let scores: Vec<f64> = x.iter().map(|row| forest.predict_proba(row)).collect();
        assert!(accuracy(&y, &predictions) > 0.9);
        assert!(area_under_roc(&y, &scores) > 0.95);
    }

    #[test]
    fn forest_is_deterministic_given_a_seed() {
        let (x, y) = noisy_blobs(1);
        let mut a = RandomForest::new(10, 5, 2, 42);
        a.fit(&x, &y);
        let mut b = RandomForest::new(10, 5, 2, 42);
        b.fit(&x, &y);
        for row in x.iter().take(20) {
            assert_eq!(a.predict_proba(row), b.predict_proba(row));
        }
    }

    #[test]
    fn untrained_forest_returns_half() {
        let forest = RandomForest::new(5, 3, 2, 0);
        assert_eq!(forest.predict_proba(&[0.0, 0.0]), 0.5);
    }

    #[test]
    fn probabilities_are_smoother_than_a_single_tree() {
        let (x, y) = noisy_blobs(2);
        let mut tree = DecisionTree::new(6, 2);
        tree.fit(&x, &y);
        let mut forest = RandomForest::new(30, 6, 2, 5);
        forest.fit(&x, &y);
        // The forest produces more distinct probability levels than one tree.
        let distinct = |scores: Vec<f64>| {
            let mut sorted: Vec<i64> = scores.iter().map(|s| (s * 1e6) as i64).collect();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len()
        };
        let tree_levels = distinct(x.iter().map(|r| tree.predict_proba(r)).collect());
        let forest_levels = distinct(x.iter().map(|r| forest.predict_proba(r)).collect());
        assert!(forest_levels >= tree_levels);
    }
}
