//! The standard "11 datasets from 5 domains" suite used by the experiments.
//!
//! The paper's Table 2 lists eleven datasets. This module instantiates eleven
//! synthetic counterparts (same domain split: 3 co-authorship, 2 contact,
//! 2 e-mail, 2 tags, 2 threads) at a configurable scale so that experiments
//! run in seconds (`Small`), minutes (`Medium`) or longer (`Large`) while the
//! relative structure between domains is unchanged.

use mochy_hypergraph::Hypergraph;
use serde::{Deserialize, Serialize};

use crate::domains::{generate, DomainKind, GeneratorConfig};

/// Scale of the standard suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuiteScale {
    /// Unit-test scale: hundreds of hyperedges per dataset.
    Tiny,
    /// Example/CI scale: a few thousand hyperedges per dataset.
    Small,
    /// Experiment scale: tens of thousands of hyperedges per dataset.
    Medium,
    /// Stress scale: hundreds of thousands of hyperedges per dataset.
    Large,
}

impl SuiteScale {
    fn multiplier(&self) -> usize {
        match self {
            SuiteScale::Tiny => 1,
            SuiteScale::Small => 8,
            SuiteScale::Medium => 40,
            SuiteScale::Large => 400,
        }
    }

    /// Scale factor applied to the hyperedge counts. `Tiny` keeps the node
    /// universes of the base suite but halves the hyperedge counts so that
    /// exact counting on every dataset stays in unit-test territory.
    fn edge_factor(&self) -> f64 {
        match self {
            SuiteScale::Tiny => 0.5,
            _ => self.multiplier() as f64,
        }
    }
}

/// Description of one dataset of the suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset label, mirroring the paper's naming (e.g. `"coauth-alpha"`).
    pub name: String,
    /// Domain the dataset belongs to.
    pub domain: DomainKind,
    /// Generator configuration used to materialize the dataset.
    pub config: GeneratorConfig,
}

impl DatasetSpec {
    /// Materializes the dataset.
    pub fn build(&self) -> Hypergraph {
        generate(&self.config)
    }
}

/// The eleven dataset specifications of the standard suite at `scale`.
///
/// Per-domain parameters follow the qualitative shape of Table 2: contact and
/// tags hypergraphs have few nodes and many hyperedges, co-authorship
/// hypergraphs have many nodes relative to hyperedges, and so on.
pub fn standard_suite(scale: SuiteScale) -> Vec<DatasetSpec> {
    let m = scale.multiplier();
    let f = scale.edge_factor();
    let spec =
        |name: &str, domain: DomainKind, nodes: usize, edges: usize, seed: u64| DatasetSpec {
            name: name.to_string(),
            domain,
            config: GeneratorConfig::new(
                domain,
                nodes,
                ((edges as f64 * f) as usize).max(40),
                seed,
            ),
        };
    vec![
        spec("coauth-alpha", DomainKind::Coauthorship, 420 * m, 500, 101),
        spec("coauth-beta", DomainKind::Coauthorship, 360 * m, 420, 102),
        spec("coauth-gamma", DomainKind::Coauthorship, 300 * m, 350, 103),
        spec("contact-primary", DomainKind::Contact, 240, 700, 201),
        spec("contact-high", DomainKind::Contact, 320, 550, 202),
        spec("email-enron", DomainKind::Email, 150, 400, 301),
        spec("email-eu", DomainKind::Email, 900, 800, 302),
        spec("tags-ubuntu", DomainKind::Tags, 2_900, 900, 401),
        spec("tags-math", DomainKind::Tags, 1_600, 1_000, 402),
        spec(
            "threads-ubuntu",
            DomainKind::Threads,
            1_200 * m / 2 + 600,
            600,
            501,
        ),
        spec(
            "threads-math",
            DomainKind::Threads,
            1_700 * m / 2 + 600,
            800,
            502,
        ),
    ]
}

/// The gated workload: one moderately sized dataset per domain.
///
/// `mochy-exp perf` and `snapshot-check` run on it, and so does the
/// shard-invariance suite (`shard_invariance.rs`). Sizes keep a single MoCHy-E run in the
/// hundreds of milliseconds even on the densest domains.
pub fn bench_datasets() -> Vec<(&'static str, Hypergraph)> {
    vec![
        (
            "coauth",
            generate(&GeneratorConfig::new(
                DomainKind::Coauthorship,
                600,
                1200,
                11,
            )),
        ),
        (
            "contact",
            generate(&GeneratorConfig::new(DomainKind::Contact, 240, 1000, 12)),
        ),
        (
            "email",
            generate(&GeneratorConfig::new(DomainKind::Email, 300, 900, 13)),
        ),
        (
            "tags",
            generate(&GeneratorConfig::new(DomainKind::Tags, 800, 800, 14)),
        ),
        (
            "threads",
            generate(&GeneratorConfig::new(DomainKind::Threads, 2400, 450, 15)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_datasets_build_one_per_domain() {
        let datasets = bench_datasets();
        let names: Vec<_> = datasets.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["coauth", "contact", "email", "tags", "threads"]);
        assert!(datasets.iter().all(|(_, h)| h.num_edges() > 0));
    }

    #[test]
    fn suite_has_eleven_datasets_from_five_domains() {
        let suite = standard_suite(SuiteScale::Tiny);
        assert_eq!(suite.len(), 11);
        let domains: std::collections::BTreeSet<_> =
            suite.iter().map(|s| s.domain.short_name()).collect();
        assert_eq!(domains.len(), 5);
        // Names are unique.
        let names: std::collections::BTreeSet<_> = suite.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn tiny_suite_builds_quickly_and_consistently() {
        for spec in standard_suite(SuiteScale::Tiny) {
            let h = spec.build();
            assert_eq!(h.num_edges(), spec.config.num_edges, "{}", spec.name);
            assert!(h.num_nodes() > 0);
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(SuiteScale::Tiny.multiplier() < SuiteScale::Small.multiplier());
        assert!(SuiteScale::Small.multiplier() < SuiteScale::Medium.multiplier());
        assert!(SuiteScale::Medium.multiplier() < SuiteScale::Large.multiplier());
    }

    #[test]
    fn datasets_within_a_domain_share_the_domain_but_not_the_seed() {
        let suite = standard_suite(SuiteScale::Tiny);
        let coauth: Vec<_> = suite
            .iter()
            .filter(|s| s.domain == DomainKind::Coauthorship)
            .collect();
        assert_eq!(coauth.len(), 3);
        assert_ne!(coauth[0].config.seed, coauth[1].config.seed);
    }
}
