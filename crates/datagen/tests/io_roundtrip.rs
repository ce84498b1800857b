//! Save/load round-trips of `mochy_hypergraph::io` over the standard bench
//! workloads: writing any `bench_datasets()` hypergraph to edge-list text
//! and reading it back (also through a real file) must reproduce the
//! hypergraph exactly.

use std::io::Cursor;

use mochy_datagen::bench_datasets;
use mochy_hypergraph::io::{
    read_edge_list_file, read_edge_list_with, write_edge_list, write_edge_list_file, ReadOptions,
};

/// Readback options that preserve the written structure exactly: the bench
/// generators may emit duplicate member sets, which the default reader would
/// collapse.
fn exact_options() -> ReadOptions {
    ReadOptions {
        dedup_hyperedges: false,
        relabel_nodes: false,
    }
}

#[test]
fn every_bench_dataset_round_trips_through_edge_list_text() {
    for (name, hypergraph) in bench_datasets() {
        let mut buffer = Vec::new();
        write_edge_list(&hypergraph, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let restored = read_edge_list_with(Cursor::new(&text), exact_options()).unwrap();
        assert_eq!(restored, hypergraph, "dataset `{name}`");
        // One line per hyperedge, no header/footer noise.
        assert_eq!(
            text.lines().count(),
            hypergraph.num_edges(),
            "dataset `{name}`"
        );
    }
}

#[test]
fn one_bench_dataset_round_trips_through_a_file() {
    // File IO goes through the same reader; exercising every dataset would
    // only re-test the filesystem. `coauth` has the largest edges.
    let (name, hypergraph) = bench_datasets().swap_remove(0);
    let path = std::env::temp_dir().join(format!("mochy_io_roundtrip_{name}.txt"));
    write_edge_list_file(&hypergraph, &path).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    let restored = read_edge_list_with(std::io::BufReader::new(file), exact_options());
    let default_read = read_edge_list_file(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.unwrap(), hypergraph, "dataset `{name}`");
    // The default reader applies the paper's preprocessing (duplicate
    // hyperedges removed): still a valid hypergraph over the same nodes,
    // with at most as many edges.
    let deduped = default_read.unwrap();
    assert_eq!(deduped.num_nodes(), hypergraph.num_nodes());
    assert!(deduped.num_edges() <= hypergraph.num_edges());
}
