//! Stand-alone tooling sub-commands of `mochy-exp`, mirroring the workflow of
//! the original MoCHy release: generate a dataset file, then count the
//! h-motif instances of any dataset file.

use std::path::Path;

use mochy_core::engine::{CountConfig, Method};
use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::{io, Hypergraph, HypergraphError};
use mochy_motif::MotifCatalog;

/// Parses the `count` sub-command's algorithm: `e` (MoCHy-E),
/// `a:<samples>` (MoCHy-A over hyperedge samples) or `a+:<samples>`
/// (MoCHy-A+ over hyperwedge samples), case-insensitively.
pub fn parse_method(text: &str) -> Option<Method> {
    if text.eq_ignore_ascii_case("e") {
        return Some(Method::Exact);
    }
    if let Some(rest) = text
        .strip_prefix("a+:")
        .or_else(|| text.strip_prefix("A+:"))
    {
        return rest
            .parse()
            .ok()
            .map(|samples| Method::WedgeSample { samples });
    }
    if let Some(rest) = text.strip_prefix("a:").or_else(|| text.strip_prefix("A:")) {
        return rest
            .parse()
            .ok()
            .map(|samples| Method::EdgeSample { samples });
    }
    None
}

/// Generates a synthetic dataset and writes it in edge-list format.
/// Returns the number of hyperedges written.
pub fn generate_to_file(
    domain: DomainKind,
    num_nodes: usize,
    num_edges: usize,
    seed: u64,
    path: &Path,
) -> std::io::Result<usize> {
    let hypergraph = generate(&GeneratorConfig::new(domain, num_nodes, num_edges, seed));
    io::write_edge_list_file(&hypergraph, path)?;
    Ok(hypergraph.num_edges())
}

/// Parses a domain name (`coauth`, `contact`, `email`, `tags`, `threads`).
pub fn parse_domain(text: &str) -> Option<DomainKind> {
    DomainKind::ALL
        .into_iter()
        .find(|d| d.short_name().eq_ignore_ascii_case(text))
}

/// Counts the h-motif instances of a dataset file — text edge-list or
/// `.mochy` snapshot, auto-detected — and renders a report: one line per
/// motif (id, open/closed, count) plus a total.
pub fn count_file(
    path: &Path,
    method: Method,
    threads: usize,
    seed: u64,
) -> Result<String, HypergraphError> {
    let hypergraph = io::read_file_auto(path)?;
    Ok(count_report(&hypergraph, method, threads, seed))
}

/// Counts the instances of an in-memory hypergraph and renders the report.
pub fn count_report(hypergraph: &Hypergraph, method: Method, threads: usize, seed: u64) -> String {
    let report = CountConfig::new(method)
        .threads(threads)
        .seed(seed)
        .build()
        .count(hypergraph);
    let counts = &report.counts;
    let catalog = MotifCatalog::new();
    let mut out = format!(
        "# |V| = {}, |E| = {}, |wedges| = {}\nmotif\tclass\tcount\n",
        hypergraph.num_nodes(),
        hypergraph.num_edges(),
        report
            .num_hyperwedges
            .expect("eager projection reports hyperwedge count")
    );
    for (id, count) in counts.iter() {
        out.push_str(&format!(
            "{id}\t{}\t{count:.2}\n",
            if catalog.is_open(id) {
                "open"
            } else {
                "closed"
            }
        ));
    }
    out.push_str(&format!("total\t-\t{:.2}\n", counts.total()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_parsing() {
        assert_eq!(parse_method("e"), Some(Method::Exact));
        assert_eq!(parse_method("E"), Some(Method::Exact));
        assert_eq!(
            parse_method("a:100"),
            Some(Method::EdgeSample { samples: 100 })
        );
        assert_eq!(
            parse_method("a+:2000"),
            Some(Method::WedgeSample { samples: 2000 })
        );
        assert_eq!(parse_method("x"), None);
        assert_eq!(parse_method("a:notanumber"), None);
    }

    #[test]
    fn domain_parsing() {
        assert_eq!(parse_domain("coauth"), Some(DomainKind::Coauthorship));
        assert_eq!(parse_domain("TAGS"), Some(DomainKind::Tags));
        assert_eq!(parse_domain("unknown"), None);
    }

    #[test]
    fn generate_then_count_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("mochy_exp_tool_roundtrip.txt");
        let written =
            generate_to_file(DomainKind::Contact, 100, 150, 3, &path).expect("write dataset");
        assert_eq!(written, 150);
        let report = count_file(&path, Method::Exact, 2, 0).expect("count dataset");
        std::fs::remove_file(&path).ok();
        assert!(report.contains("motif\tclass\tcount"));
        assert!(report.lines().count() >= 29); // header(2) + 26 motifs + total
        assert!(report.contains("total"));
    }

    #[test]
    fn sampling_algorithms_produce_reports_too() {
        let hypergraph = generate(&GeneratorConfig::new(DomainKind::Email, 80, 120, 1));
        for method in [
            Method::EdgeSample { samples: 50 },
            Method::WedgeSample { samples: 200 },
        ] {
            let report = count_report(&hypergraph, method, 1, 7);
            assert!(report.contains("total"), "{method:?}");
        }
    }

    #[test]
    fn counting_missing_file_fails_cleanly() {
        let missing = Path::new("/nonexistent/mochy/dataset.txt");
        assert!(count_file(missing, Method::Exact, 1, 0).is_err());
    }
}
