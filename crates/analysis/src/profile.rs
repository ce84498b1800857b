//! Characteristic-profile estimation against randomized references.

use std::convert::Infallible;

use mochy_core::count::MotifCounts;
use mochy_core::engine::{CountConfig, CountReport, Method, MotifEngine};
use mochy_core::mochy_a_parallel;
use mochy_core::profile::{
    characteristic_profile, pearson_correlation, relative_counts, significance, SignificanceOptions,
};
use mochy_hypergraph::Hypergraph;
use mochy_motif::NUM_MOTIFS;
use mochy_nullmodel::chung_lu_randomize;
use mochy_projection::{project_parallel, ProjectedGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which MoCHy variant is used to count h-motif instances.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CountingMethod {
    /// MoCHy-E (exact).
    Exact,
    /// MoCHy-A with the given number of hyperedge samples.
    SampleEdges(usize),
    /// MoCHy-A+ with the given number of hyperwedge samples.
    SampleWedges(usize),
    /// MoCHy-A+ with the number of samples set to the given fraction of the
    /// number of hyperwedges (the parameterization used in Figures 8 and 9).
    SampleWedgeRatio(f64),
}

/// The characteristic profile of one hypergraph, together with the
/// intermediate quantities needed by Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharacteristicProfile {
    /// Counts in the analysed hypergraph.
    pub real_counts: MotifCounts,
    /// Mean counts over the randomized references.
    pub randomized_mean: MotifCounts,
    /// Significances Δ_t (Eq. 1).
    pub significances: [f64; NUM_MOTIFS],
    /// The normalized characteristic profile (Eq. 2).
    pub cp: [f64; NUM_MOTIFS],
    /// Relative counts `(M − M_rand) / (M + M_rand)` (Table 3).
    pub relative_counts: [f64; NUM_MOTIFS],
}

impl CharacteristicProfile {
    /// Pearson correlation between two profiles, the similarity measure of
    /// Figure 6.
    pub fn correlation(&self, other: &CharacteristicProfile) -> f64 {
        pearson_correlation(&self.cp, &other.cp)
    }
}

/// Estimates characteristic profiles: counts the real hypergraph, generates
/// randomized references, counts those, and assembles Δ and CP.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProfileEstimator {
    /// Counting algorithm for both the real and the randomized hypergraphs.
    pub method: CountingMethod,
    /// Number of randomized reference hypergraphs (the paper uses 5).
    pub num_randomizations: usize,
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// Base RNG seed (randomization and sampling are derived from it).
    pub seed: u64,
}

impl Default for ProfileEstimator {
    fn default() -> Self {
        Self {
            method: CountingMethod::Exact,
            num_randomizations: 5,
            threads: 1,
            seed: 0,
        }
    }
}

impl ProfileEstimator {
    /// Counts h-motif instances in one hypergraph with the configured method.
    pub fn count(&self, hypergraph: &Hypergraph) -> MotifCounts {
        self.count_report(hypergraph).counts
    }

    /// Counts through the [`mochy_core::engine::MotifEngine`], returning the
    /// full report (samples drawn, projection mode, elapsed time).
    pub fn count_report(&self, hypergraph: &Hypergraph) -> CountReport {
        self.engine().count(hypergraph)
    }

    fn engine(&self) -> MotifEngine {
        let method = match self.method {
            CountingMethod::Exact => Method::Exact,
            CountingMethod::SampleEdges(samples) => Method::EdgeSample { samples },
            CountingMethod::SampleWedges(samples) => Method::WedgeSample { samples },
            // The engine sizes the sample from the projection it counts on,
            // so the ratio parameterization costs no extra pass.
            CountingMethod::SampleWedgeRatio(ratio) => Method::WedgeSampleRatio { ratio },
        };
        CountConfig::new(method)
            .threads(self.threads)
            .seed(self.seed.wrapping_add(0x9E37))
            .build()
    }

    /// Estimates the characteristic profile of `hypergraph`.
    pub fn estimate(&self, hypergraph: &Hypergraph) -> CharacteristicProfile {
        let Ok(profile) = self.estimate_admitting(hypergraph, |_, _| Ok::<(), Infallible>(()));
        profile
    }

    /// [`ProfileEstimator::estimate`], with a check between projecting each
    /// hypergraph and counting on it: `admit(reference, projected)` sees the
    /// analysed hypergraph's projection (`reference` is `None`), then that of
    /// each Chung–Lu reference in turn (`Some(r)`, from 0). Its first error
    /// ends the estimate, so that hypergraph is never counted and no later
    /// reference is generated. Each hypergraph is projected once, and the
    /// profile equals [`ProfileEstimator::estimate`]'s when every check
    /// passes.
    ///
    /// [`CountingMethod::SampleEdges`] (MoCHy-A) counts around sampled
    /// hyperedges from their incidence lists and reads no projection, so it
    /// projects nothing and never calls `admit`.
    pub fn estimate_admitting<E>(
        &self,
        hypergraph: &Hypergraph,
        mut admit: impl FnMut(Option<usize>, &ProjectedGraph) -> Result<(), E>,
    ) -> Result<CharacteristicProfile, E> {
        let engine = self.engine();
        let mut count = |graph: &Hypergraph, reference: Option<usize>| {
            if let CountingMethod::SampleEdges(samples) = self.method {
                // The engine's MoCHy-A branch, minus the projection it
                // builds only to report |∧|.
                let threads = engine.config().threads.max(1);
                return Ok(mochy_a_parallel(
                    graph,
                    samples,
                    threads,
                    engine.config().seed,
                ));
            }
            let projected = project_parallel(graph, self.threads);
            admit(reference, &projected)?;
            Ok(engine.count_projected(graph, &projected).counts)
        };
        let real_counts = count(hypergraph, None)?;
        let mut randomized_counts = Vec::with_capacity(self.num_randomizations);
        for i in 0..self.num_randomizations {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1 + i as u64));
            let randomized = chung_lu_randomize(hypergraph, &mut rng);
            randomized_counts.push(count(&randomized, Some(i))?);
        }
        let randomized_mean = MotifCounts::mean(&randomized_counts);
        let significances = significance(
            &real_counts,
            &randomized_mean,
            SignificanceOptions::default(),
        );
        let cp = characteristic_profile(&significances);
        let relative = relative_counts(&real_counts, &randomized_mean);
        Ok(CharacteristicProfile {
            real_counts,
            randomized_mean,
            significances,
            cp,
            relative_counts: relative,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_datagen::{generate, DomainKind, GeneratorConfig};

    fn dataset(kind: DomainKind, seed: u64) -> Hypergraph {
        generate(&GeneratorConfig::new(kind, 150, 350, seed))
    }

    #[test]
    fn exact_profile_has_unit_norm_and_bounded_entries() {
        let h = dataset(DomainKind::Contact, 1);
        let estimator = ProfileEstimator::default();
        let profile = estimator.estimate(&h);
        let norm: f64 = profile.cp.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert!(profile.cp.iter().all(|x| (-1.0..=1.0).contains(x)));
        assert!(profile
            .significances
            .iter()
            .all(|x| (-1.0..=1.0).contains(x)));
        assert!(profile.real_counts.total() > 0.0);
        assert!(profile.randomized_mean.total() > 0.0);
    }

    #[test]
    fn approximate_profile_is_close_to_exact() {
        let h = dataset(DomainKind::Coauthorship, 2);
        let exact = ProfileEstimator::default().estimate(&h);
        let approx = ProfileEstimator {
            method: CountingMethod::SampleWedgeRatio(0.5),
            ..Default::default()
        }
        .estimate(&h);
        let correlation = exact.correlation(&approx);
        assert!(correlation > 0.9, "correlation {correlation}");
    }

    #[test]
    fn same_domain_profiles_are_more_similar_than_cross_domain() {
        let estimator = ProfileEstimator {
            num_randomizations: 3,
            ..Default::default()
        };
        let contact_a = estimator.estimate(&dataset(DomainKind::Contact, 3));
        let contact_b = estimator.estimate(&dataset(DomainKind::Contact, 4));
        let coauth = estimator.estimate(&dataset(DomainKind::Coauthorship, 5));
        let within = contact_a.correlation(&contact_b);
        let across = contact_a
            .correlation(&coauth)
            .max(contact_b.correlation(&coauth));
        assert!(
            within > across,
            "within-domain correlation {within} not larger than across-domain {across}"
        );
    }

    #[test]
    fn parallel_and_sequential_exact_profiles_match() {
        let h = dataset(DomainKind::Tags, 6);
        let sequential = ProfileEstimator {
            threads: 1,
            num_randomizations: 2,
            ..Default::default()
        }
        .estimate(&h);
        let parallel = ProfileEstimator {
            threads: 4,
            num_randomizations: 2,
            ..Default::default()
        }
        .estimate(&h);
        for t in 0..NUM_MOTIFS {
            assert!((sequential.cp[t] - parallel.cp[t]).abs() < 1e-12);
        }
    }

    /// `admit` sees each hypergraph's projection before it is counted, and
    /// its first error ends the estimate at once: the refused reference is
    /// never counted and no later one is generated. `estimate`, which admits
    /// everything, still counts exactly what the engine counts on the real
    /// hypergraph and on each seeded reference.
    #[test]
    fn admit_checks_each_projection_before_its_count() {
        let h = dataset(DomainKind::Contact, 8);
        let estimator = ProfileEstimator {
            method: CountingMethod::SampleWedgeRatio(0.05),
            num_randomizations: 3,
            ..Default::default()
        };
        let mut seen = Vec::new();
        let refused = estimator.estimate_admitting(&h, |reference, projected| {
            seen.push((reference, projected.num_hyperwedges()));
            match reference {
                Some(1) => Err(projected.num_hyperwedges()),
                _ => Ok(()),
            }
        });
        let references: Vec<Option<usize>> = seen.iter().map(|&(reference, _)| reference).collect();
        assert_eq!(references, [None, Some(0), Some(1)]);
        assert_eq!(refused.err(), Some(seen[2].1));
        assert_eq!(seen[0].1, mochy_projection::project(&h).num_hyperwedges());

        let estimated = estimator.estimate(&h);
        assert_eq!(estimated.real_counts, estimator.count(&h));
        let references: Vec<MotifCounts> = (0..3u64)
            .map(|i| estimator.count(&chung_lu_randomize(&h, &mut StdRng::seed_from_u64(1 + i))))
            .collect();
        assert_eq!(estimated.randomized_mean, MotifCounts::mean(&references));
    }

    /// A MoCHy-A profile projects nothing, so `admit` is never called, and
    /// it counts exactly what the engine counts on the real hypergraph and
    /// on each seeded reference.
    #[test]
    fn edge_sample_profiles_count_without_projecting() {
        let h = dataset(DomainKind::Email, 9);
        let estimator = ProfileEstimator {
            method: CountingMethod::SampleEdges(300),
            num_randomizations: 3,
            threads: 2,
            seed: 4,
        };
        let profile = estimator
            .estimate_admitting(&h, |reference, _| Err(reference))
            .expect("MoCHy-A admits nothing");
        assert_eq!(profile.real_counts, estimator.count(&h));
        let references: Vec<MotifCounts> = (0..3u64)
            .map(|i| estimator.count(&chung_lu_randomize(&h, &mut StdRng::seed_from_u64(5 + i))))
            .collect();
        assert_eq!(profile.randomized_mean, MotifCounts::mean(&references));
    }

    #[test]
    fn counting_method_edges_also_works() {
        let h = dataset(DomainKind::Email, 7);
        let estimator = ProfileEstimator {
            method: CountingMethod::SampleEdges(400),
            num_randomizations: 2,
            ..Default::default()
        };
        let profile = estimator.estimate(&h);
        assert!(profile.real_counts.total() > 0.0);
    }
}
