//! Significance of h-motifs (Eq. 1) and characteristic profiles (Eq. 2).

use mochy_motif::NUM_MOTIFS;

use crate::count::MotifCounts;

/// Options of the significance computation.
#[derive(Debug, Clone, Copy)]
pub struct SignificanceOptions {
    /// The ε constant of Eq. (1); the paper fixes it to 1.
    pub epsilon: f64,
}

impl Default for SignificanceOptions {
    fn default() -> Self {
        Self { epsilon: 1.0 }
    }
}

/// The significance of every h-motif (Eq. 1):
///
/// ```text
/// Δ_t = (M[t] − M_rand[t]) / (M[t] + M_rand[t] + ε)
/// ```
///
/// `real` holds the counts in the analysed hypergraph, `randomized_mean` the
/// average counts over the randomized reference hypergraphs.
pub fn significance(
    real: &MotifCounts,
    randomized_mean: &MotifCounts,
    options: SignificanceOptions,
) -> [f64; NUM_MOTIFS] {
    let mut delta = [0.0; NUM_MOTIFS];
    for (t, slot) in delta.iter_mut().enumerate() {
        let id = (t + 1) as u8;
        let m = real.get(id);
        let m_rand = randomized_mean.get(id);
        *slot = (m - m_rand) / (m + m_rand + options.epsilon);
    }
    delta
}

/// The characteristic profile (Eq. 2): the significance vector normalized to
/// unit Euclidean length. If every significance is 0 the all-zero vector is
/// returned.
pub fn characteristic_profile(significances: &[f64; NUM_MOTIFS]) -> [f64; NUM_MOTIFS] {
    let norm = significances.iter().map(|d| d * d).sum::<f64>().sqrt();
    let mut cp = [0.0; NUM_MOTIFS];
    if norm > 0.0 {
        for (slot, d) in cp.iter_mut().zip(significances.iter()) {
            *slot = d / norm;
        }
    }
    cp
}

/// The *relative count* used in Table 3 of the paper:
/// `(M[t] − M_rand[t]) / (M[t] + M_rand[t])`, with 0 when both counts are 0.
pub fn relative_counts(real: &MotifCounts, randomized_mean: &MotifCounts) -> [f64; NUM_MOTIFS] {
    let mut rc = [0.0; NUM_MOTIFS];
    for (t, slot) in rc.iter_mut().enumerate() {
        let id = (t + 1) as u8;
        let m = real.get(id);
        let m_rand = randomized_mean.get(id);
        let denominator = m + m_rand;
        *slot = if denominator > 0.0 {
            (m - m_rand) / denominator
        } else {
            0.0
        };
    }
    rc
}

/// Pearson correlation coefficient between two equal-length vectors, used to
/// compare characteristic profiles across hypergraphs (Figure 6). Returns 0
/// for degenerate (constant) inputs.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have equal length");
    let n = a.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let dx = x - mean_a;
        let dy = y - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a == 0.0 || var_b == 0.0 {
        return 0.0;
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(values: &[(u8, f64)]) -> MotifCounts {
        let mut c = MotifCounts::zero();
        for &(id, v) in values {
            c.set(id, v);
        }
        c
    }

    #[test]
    fn significance_matches_equation_one() {
        let real = counts(&[(1, 30.0), (2, 10.0)]);
        let random = counts(&[(1, 10.0), (2, 30.0)]);
        let delta = significance(&real, &random, SignificanceOptions::default());
        assert!((delta[0] - 20.0 / 41.0).abs() < 1e-12);
        assert!((delta[1] + 20.0 / 41.0).abs() < 1e-12);
        // Motifs absent everywhere have significance 0 thanks to ε.
        assert_eq!(delta[5], 0.0);
    }

    #[test]
    fn significance_is_bounded() {
        let real = counts(&[(3, 1e12)]);
        let random = counts(&[(3, 0.0)]);
        let delta = significance(&real, &random, SignificanceOptions::default());
        assert!(delta[2] > 0.999 && delta[2] < 1.0);
        let delta = significance(&random, &real, SignificanceOptions::default());
        assert!(delta[2] < -0.999 && delta[2] > -1.0);
    }

    #[test]
    fn characteristic_profile_has_unit_norm() {
        let real = counts(&[(1, 100.0), (2, 50.0), (22, 1000.0)]);
        let random = counts(&[(1, 10.0), (2, 500.0), (22, 900.0)]);
        let cp = characteristic_profile(&significance(
            &real,
            &random,
            SignificanceOptions::default(),
        ));
        let norm: f64 = cp.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!(cp.iter().all(|x| (-1.0..=1.0).contains(x)));
    }

    #[test]
    fn zero_significance_gives_zero_profile() {
        let cp = characteristic_profile(&[0.0; NUM_MOTIFS]);
        assert_eq!(cp, [0.0; NUM_MOTIFS]);
    }

    #[test]
    fn relative_count_definition() {
        let real = counts(&[(4, 90.0)]);
        let random = counts(&[(4, 10.0)]);
        let rc = relative_counts(&real, &random);
        assert!((rc[3] - 0.8).abs() < 1e-12);
        assert_eq!(rc[0], 0.0);
    }

    #[test]
    fn pearson_correlation_basics() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson_correlation(&a, &c) + 1.0).abs() < 1e-12);
        let constant = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson_correlation(&a, &constant), 0.0);
        assert_eq!(pearson_correlation(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_requires_equal_lengths() {
        let _ = pearson_correlation(&[1.0], &[1.0, 2.0]);
    }
}
