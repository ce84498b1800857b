//! Error types for hypergraph construction and IO.

use std::fmt;

/// Errors produced while building, validating, or reading a hypergraph.
#[derive(Debug)]
pub enum HypergraphError {
    /// A hyperedge with no members was supplied.
    EmptyEdge {
        /// Zero-based position of the offending hyperedge in insertion order.
        index: usize,
    },
    /// The hypergraph has no hyperedges at all.
    NoEdges,
    /// A hyperedge's members were not strictly ascending (out of order or
    /// repeated).
    UnsortedEdge {
        /// Zero-based position of the offending hyperedge.
        index: usize,
    },
    /// A node identifier exceeded the supported maximum (`u32::MAX - 1`).
    NodeIdOverflow {
        /// The offending node identifier.
        node: u64,
    },
    /// A line of an input file could not be parsed.
    Parse {
        /// One-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An underlying IO failure.
    Io(std::io::Error),
    /// A binary `.mochy` snapshot could not be decoded.
    Snapshot(crate::snapshot::SnapshotError),
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypergraphError::EmptyEdge { index } => {
                write!(f, "hyperedge at position {index} is empty")
            }
            HypergraphError::NoEdges => write!(f, "hypergraph contains no hyperedges"),
            HypergraphError::UnsortedEdge { index } => {
                write!(
                    f,
                    "members of the hyperedge at position {index} are not strictly ascending"
                )
            }
            HypergraphError::NodeIdOverflow { node } => {
                write!(f, "node identifier {node} exceeds the supported range")
            }
            HypergraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            HypergraphError::Io(err) => write!(f, "io error: {err}"),
            HypergraphError::Snapshot(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for HypergraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HypergraphError::Io(err) => Some(err),
            HypergraphError::Snapshot(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HypergraphError {
    fn from(err: std::io::Error) -> Self {
        HypergraphError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_empty_edge() {
        let err = HypergraphError::EmptyEdge { index: 3 };
        assert_eq!(err.to_string(), "hyperedge at position 3 is empty");
    }

    #[test]
    fn display_no_edges() {
        assert_eq!(
            HypergraphError::NoEdges.to_string(),
            "hypergraph contains no hyperedges"
        );
    }

    #[test]
    fn display_overflow() {
        let err = HypergraphError::NodeIdOverflow { node: u64::MAX };
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn display_parse() {
        let err = HypergraphError::Parse {
            line: 7,
            message: "not a number".into(),
        };
        assert!(err.to_string().contains("line 7"));
        assert!(err.to_string().contains("not a number"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err = HypergraphError::from(io);
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("missing"));
    }
}
