//! The pairwise-baseline study behind Section 2.2 ("Why Non-pairwise
//! Relations?") and the remarks opening Section 3: how much information is
//! lost when three connected hyperedges are summarized only by their pairwise
//! relations (the directed projected graph)?

use mochy_core::mochy_e;
use mochy_core::pairwise::{PairwiseCensus, PairwiseCollapse};
use mochy_datagen::DomainKind;
use mochy_motif::MotifCatalog;
use mochy_projection::project;

use crate::common::{scientific, suite, ExperimentScale};

/// Reports (a) the collapse map — how the 26 h-motifs fall onto the eight
/// pairwise patterns — and (b), per domain, how many distinct patterns each
/// view observes in one representative dataset.
pub fn run(scale: ExperimentScale) -> String {
    let collapse = PairwiseCollapse::new(MotifCatalog::shared());

    let mut out = String::from("# Pairwise baseline: h-motifs vs directed-projection patterns\n\n");
    out.push_str("## (a) collapse of the 26 h-motifs onto pairwise patterns\n");
    out.push_str("pairwise pattern\t#h-motifs\th-motif ids\n");
    for (pattern, ids) in &collapse.classes {
        let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
        out.push_str(&format!(
            "{:#06x}\t{}\t{}\n",
            pattern.code(),
            ids.len(),
            ids.join(",")
        ));
    }
    out.push_str(&format!(
        "\ndistinct pairwise patterns: {}\nlargest class: {} h-motifs\nambiguous h-motifs: {}\n",
        collapse.num_patterns(),
        collapse.largest_class(),
        collapse.num_ambiguous_motifs()
    ));

    out.push_str("\n## (b) per-domain counts under both views\n");
    out.push_str("dataset\t#instances\th-motifs observed\tpairwise patterns observed\n");
    for domain in DomainKind::ALL {
        let Some(spec) = suite(scale).into_iter().find(|s| s.domain == domain) else {
            continue;
        };
        let hypergraph = spec.build();
        let projected = project(&hypergraph);
        let counts = mochy_e(&hypergraph, &projected);
        let census = PairwiseCensus::from_motif_counts(&counts);
        let motif_support = counts.as_slice().iter().filter(|&&c| c > 0.0).count();
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            spec.name,
            scientific(counts.total()),
            motif_support,
            census.support()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_collapse_and_per_domain_rows() {
        let report = run(ExperimentScale::Tiny);
        assert!(report.contains("distinct pairwise patterns: 8"));
        assert!(report.contains("largest class: 12 h-motifs"));
        // One row per domain.
        assert_eq!(report.matches("coauth-").count(), 1);
        assert_eq!(report.matches("threads-").count(), 1);
    }
}
