//! Plain-text readers and writers for hypergraphs.
//!
//! Two formats are supported:
//!
//! 1. **Edge-list format** (the format used by the reference MoCHy code):
//!    one hyperedge per line, members separated by whitespace or commas.
//!    Lines starting with `#` or `%` are comments; blank lines are ignored.
//!
//!    ```text
//!    # three hyperedges
//!    0 1 2
//!    0 1 3
//!    2,4,5
//!    ```
//!
//! 2. **Benson format**: a pair of files, `*-nverts.txt` (one hyperedge size
//!    per line) and `*-simplices.txt` (the concatenated member lists, one
//!    node id per line), as distributed with the datasets used by the paper.
//!
//! In addition, [`read_file_auto`] detects binary `.mochy` snapshots (see
//! [`crate::snapshot`]) by their magic bytes and dispatches accordingly, so
//! every file-loading entry point in the workspace accepts either a text
//! dataset or a snapshot transparently.

use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::HypergraphBuilder;
use crate::error::HypergraphError;
use crate::graph::{Hypergraph, NodeId};
use crate::snapshot;

/// Reads a hypergraph in edge-list format from a reader.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Hypergraph, HypergraphError> {
    read_edge_list_with(reader, ReadOptions::default())
}

/// Options controlling [`read_edge_list_with`].
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Remove duplicated hyperedges (paper, Section 4.1). Default `true`.
    pub dedup_hyperedges: bool,
    /// Compact node identifiers to `0..|V|`. Default `false`.
    pub relabel_nodes: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        Self {
            dedup_hyperedges: true,
            relabel_nodes: false,
        }
    }
}

/// Reads a hypergraph in edge-list format with explicit [`ReadOptions`].
pub fn read_edge_list_with<R: BufRead>(
    reader: R,
    options: ReadOptions,
) -> Result<Hypergraph, HypergraphError> {
    let mut builder = HypergraphBuilder::new()
        .dedup_hyperedges(options.dedup_hyperedges)
        .relabel_nodes(options.relabel_nodes);
    for (line_index, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut members = Vec::new();
        for token in trimmed.split(|c: char| c.is_whitespace() || c == ',') {
            if token.is_empty() {
                continue;
            }
            let value: u64 = token.parse().map_err(|_| HypergraphError::Parse {
                line: line_index + 1,
                message: format!("invalid node identifier `{token}`"),
            })?;
            if value >= u64::from(u32::MAX) {
                return Err(HypergraphError::NodeIdOverflow { node: value });
            }
            members.push(value as NodeId);
        }
        if members.is_empty() {
            return Err(HypergraphError::Parse {
                line: line_index + 1,
                message: "hyperedge with no members".into(),
            });
        }
        builder.add_edge(members);
    }
    builder.build()
}

/// Reads a hypergraph in edge-list format from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Hypergraph, HypergraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

/// Reads a hypergraph from `path`, auto-detecting the format: files that
/// start with the `.mochy` magic bytes are decoded as binary snapshots
/// (bounds-checked `Vec` fill, no per-element parsing); everything else is
/// parsed as text edge-list.
///
/// Detection is by content, not extension, so a renamed snapshot still
/// loads and a text file named `foo.mochy` is still parsed as text.
pub fn read_file_auto<P: AsRef<Path>>(path: P) -> Result<Hypergraph, HypergraphError> {
    let mut file = std::fs::File::open(path)?;
    let mut prefix = [0u8; snapshot::MAGIC.len()];
    let mut read = 0usize;
    while read < prefix.len() {
        let n = file.read(&mut prefix[read..])?;
        if n == 0 {
            break; // shorter than the magic: cannot be a snapshot
        }
        read += n;
    }
    if read == prefix.len() && prefix == snapshot::MAGIC {
        let mut bytes = prefix.to_vec();
        file.read_to_end(&mut bytes)?;
        return Ok(snapshot::read_snapshot_bytes(&bytes)?);
    }
    // Text: chain the already-consumed prefix back in front of the rest.
    let reader = std::io::BufReader::new((&prefix[..read]).chain(file));
    read_edge_list(reader)
}

/// Writes a hypergraph in edge-list format (one line per hyperedge, members
/// separated by single spaces).
pub fn write_edge_list<W: Write>(hypergraph: &Hypergraph, writer: W) -> std::io::Result<()> {
    let mut writer = BufWriter::new(writer);
    for (_, members) in hypergraph.edges() {
        let mut first = true;
        for v in members {
            if first {
                first = false;
            } else {
                write!(writer, " ")?;
            }
            write!(writer, "{v}")?;
        }
        writeln!(writer)?;
    }
    writer.flush()
}

/// Writes a hypergraph in edge-list format to a file path.
pub fn write_edge_list_file<P: AsRef<Path>>(
    hypergraph: &Hypergraph,
    path: P,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(hypergraph, file)
}

/// Reads a hypergraph in Benson's two-file format: `nverts` holds one
/// hyperedge size per line, `simplices` the concatenated member lists.
pub fn read_benson<R1: BufRead, R2: BufRead>(
    nverts: R1,
    simplices: R2,
    options: ReadOptions,
) -> Result<Hypergraph, HypergraphError> {
    let mut sizes = Vec::new();
    for (line_index, line) in nverts.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let size: usize = trimmed.parse().map_err(|_| HypergraphError::Parse {
            line: line_index + 1,
            message: format!("invalid hyperedge size `{trimmed}`"),
        })?;
        sizes.push(size);
    }
    let mut members = Vec::new();
    for (line_index, line) in simplices.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value: u64 = trimmed.parse().map_err(|_| HypergraphError::Parse {
            line: line_index + 1,
            message: format!("invalid node identifier `{trimmed}`"),
        })?;
        if value >= u64::from(u32::MAX) {
            return Err(HypergraphError::NodeIdOverflow { node: value });
        }
        members.push(value as NodeId);
    }
    let expected: usize = sizes.iter().sum();
    if expected != members.len() {
        return Err(HypergraphError::Parse {
            line: 0,
            message: format!(
                "size file expects {expected} members but simplices file has {}",
                members.len()
            ),
        });
    }
    let mut builder = HypergraphBuilder::new()
        .dedup_hyperedges(options.dedup_hyperedges)
        .relabel_nodes(options.relabel_nodes);
    let mut offset = 0usize;
    for size in sizes {
        builder.add_edge(members[offset..offset + size].iter().copied());
        offset += size;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_simple_edge_list() {
        let input = "# comment\n0 1 2\n\n0 1 3\n2,4,5\n% another comment\n";
        let h = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edge(2), &[2, 4, 5]);
        assert_eq!(h.num_nodes(), 6);
    }

    #[test]
    fn duplicate_edges_removed_by_default() {
        let input = "0 1\n1 0\n2 3\n";
        let h = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn duplicate_edges_kept_when_disabled() {
        let input = "0 1\n1 0\n";
        let options = ReadOptions {
            dedup_hyperedges: false,
            relabel_nodes: false,
        };
        let h = read_edge_list_with(Cursor::new(input), options).unwrap();
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn parse_error_reports_line() {
        let input = "0 1\nfoo bar\n";
        let err = read_edge_list(Cursor::new(input)).unwrap_err();
        match err {
            HypergraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn node_id_overflow_detected() {
        let input = format!("0 {}\n", u64::from(u32::MAX));
        let err = read_edge_list(Cursor::new(input)).unwrap_err();
        assert!(matches!(err, HypergraphError::NodeIdOverflow { .. }));
    }

    #[test]
    fn write_then_read_round_trips() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([2u32, 3])
            .with_edge([0u32, 4, 5, 6])
            .build()
            .unwrap();
        let mut buffer = Vec::new();
        write_edge_list(&h, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let restored = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(h, restored);
    }

    #[test]
    fn file_round_trip() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1])
            .with_edge([1u32, 2, 3])
            .build()
            .unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("mochy_io_roundtrip_test.txt");
        write_edge_list_file(&h, &path).unwrap();
        let restored = read_edge_list_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(h, restored);
    }

    #[test]
    fn auto_detection_loads_text_and_snapshot_identically() {
        let h = HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([2u32, 3])
            .build()
            .unwrap();
        let dir = std::env::temp_dir();
        let text_path = dir.join("mochy_io_auto_text_test.txt");
        let snap_path = dir.join("mochy_io_auto_snap_test.mochy");
        write_edge_list_file(&h, &text_path).unwrap();
        crate::snapshot::write_snapshot_file(&h, &snap_path).unwrap();
        let from_text = read_file_auto(&text_path).unwrap();
        let from_snapshot = read_file_auto(&snap_path).unwrap();
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&snap_path).ok();
        assert_eq!(from_text, h);
        assert_eq!(from_snapshot, h);
    }

    #[test]
    fn auto_detection_surfaces_snapshot_errors_and_short_text() {
        let dir = std::env::temp_dir();
        // A file that starts with the magic but is otherwise garbage must be
        // reported as a snapshot error, not fed to the text parser.
        let path = dir.join("mochy_io_auto_truncated_test.mochy");
        std::fs::write(&path, b"MOCHYSNP").unwrap();
        let err = read_file_auto(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, HypergraphError::Snapshot(_)), "{err:?}");
        // Files shorter than the magic still parse as text.
        let path = dir.join("mochy_io_auto_short_test.txt");
        std::fs::write(&path, b"0 1\n").unwrap();
        let h = read_file_auto(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn benson_format() {
        let nverts = "3\n2\n";
        let simplices = "0\n1\n2\n1\n3\n";
        let h = read_benson(
            Cursor::new(nverts),
            Cursor::new(simplices),
            ReadOptions::default(),
        )
        .unwrap();
        assert_eq!(h.num_edges(), 2);
        assert_eq!(h.edge(0), &[0, 1, 2]);
        assert_eq!(h.edge(1), &[1, 3]);
    }

    #[test]
    fn benson_format_size_mismatch() {
        let nverts = "3\n";
        let simplices = "0\n1\n";
        let err = read_benson(
            Cursor::new(nverts),
            Cursor::new(simplices),
            ReadOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HypergraphError::Parse { .. }));
    }
}
