//! The `.mochy` binary snapshot format: cold-start loading proportional to
//! I/O, not parsing.
//!
//! Text formats (edge-list, Benson) pay a per-token parse on every load, and
//! then rebuild the CSR arrays and the transposed incidence index from
//! scratch. A `.mochy` snapshot instead serializes the [`Hypergraph`]'s
//! already-hash-free CSR representation directly, so loading is a
//! bounds-checked `Vec` fill plus one linear validation pass — no
//! per-element parsing at all.
//!
//! # On-disk layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size                    field
//! ------  ----------------------  ---------------------------------------
//!      0  8                       magic  b"MOCHYSNP"
//!      8  4                       format version (u32, currently 1)
//!     12  4                       flags (u32, must be 0 in version 1)
//!     16  8                       num_nodes       (u64)
//!     24  8                       num_edges       (u64)
//!     32  8                       num_incidences  (u64)
//!     40  (num_edges + 1) * 8     edge_offsets      (u64 each)
//!      .  num_incidences * 4      edge_values       (node ids, u32 each)
//!      .  (num_nodes + 1) * 8     incidence_offsets (u64 each)
//!      .  num_incidences * 4      incidence_values  (edge ids, u32 each)
//!      .  8                       FNV-1a 64 checksum of everything above
//! ```
//!
//! # Validation and trust
//!
//! A snapshot is untrusted input (the serve layer ingests client uploads),
//! so [`read_snapshot_bytes`] validates **everything** before constructing a
//! hypergraph, and every failure is a typed [`SnapshotError`] — never a
//! panic, never an out-of-bounds index:
//!
//! - magic, version, flags, and the trailing checksum;
//! - the declared counts must reproduce the exact file length (checked
//!   arithmetic, so absurd counts fail with [`SnapshotError::CountOverflow`]
//!   instead of wrapping);
//! - both offset arrays must start at 0, be non-decreasing, and end at
//!   `num_incidences`;
//! - every hyperedge row must be non-empty, strictly sorted, and name only
//!   nodes below `num_nodes`;
//! - the incidence section must be the *exact transpose* of the hyperedge
//!   section (verified with a single cursor pass), so an internally
//!   inconsistent file cannot silently produce wrong motif counts.
//!
//! # Versioning policy
//!
//! The version field is bumped on any layout change; readers reject
//! versions they do not know ([`SnapshotError::UnsupportedVersion`]) rather
//! than guessing. Version-1 readers require the flags word to be zero, so
//! flags cannot be used to smuggle in incompatible layout variations.

use std::io::{Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::error::HypergraphError;
use crate::graph::{EdgeId, Hypergraph, NodeId};

/// The 8-byte magic prefix of every `.mochy` snapshot.
pub const MAGIC: [u8; 8] = *b"MOCHYSNP";

/// The current (and only) snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed header (magic, version, flags, three counts).
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;

/// Byte length of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// The smallest byte length any snapshot can have: a full header plus the
/// trailing checksum, with every payload section empty.
// mochy-lint: allow(checked-untrusted-arith) reason="const arithmetic over two small literals is evaluated at compile time; overflow is a compile error, not a runtime wrap"
const MIN_SNAPSHOT_LEN: usize = HEADER_LEN + CHECKSUM_LEN;

/// Why a snapshot could not be decoded. Every variant is a loud, typed
/// error; decoding never panics on malformed bytes.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file is shorter than the fixed header plus checksum.
    Truncated {
        /// Minimum byte length a snapshot can have.
        needed: usize,
        /// Actual byte length of the input.
        actual: usize,
    },
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The version field names a format this reader does not know.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The declared counts do not reproduce the actual file length (covers
    /// both truncated and over-long files).
    LengthMismatch {
        /// Byte length the header's counts imply.
        expected: u64,
        /// Actual byte length of the input.
        actual: u64,
    },
    /// The declared counts overflow the addressable size (`u64`/`usize`
    /// arithmetic would wrap) — no allocation is attempted.
    CountOverflow,
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// A structural invariant of the payload is violated.
    Corrupt {
        /// Which section the violation was found in.
        section: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// An underlying IO failure while reading or writing.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, actual } => write!(
                f,
                "snapshot truncated: need at least {needed} bytes, got {actual}"
            ),
            SnapshotError::BadMagic => {
                write!(f, "not a .mochy snapshot (bad magic bytes)")
            }
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this reader knows up to \
                 {FORMAT_VERSION})"
            ),
            SnapshotError::LengthMismatch { expected, actual } => write!(
                f,
                "snapshot length mismatch: header implies {expected} bytes, got {actual}"
            ),
            SnapshotError::CountOverflow => {
                write!(f, "snapshot header counts overflow the addressable size")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer says {stored:#018x}, contents hash to \
                 {computed:#018x}"
            ),
            SnapshotError::Corrupt { section, message } => {
                write!(f, "snapshot corrupt in {section}: {message}")
            }
            SnapshotError::Io(error) => write!(f, "snapshot io error: {error}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(error: std::io::Error) -> Self {
        SnapshotError::Io(error)
    }
}

impl From<SnapshotError> for HypergraphError {
    fn from(error: SnapshotError) -> Self {
        HypergraphError::Snapshot(error)
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 state — dependency-free, fast
/// enough to be I/O-bound, and sensitive to every byte (this is an
/// integrity check against corruption and truncation, not a cryptographic
/// signature).
fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit of `bytes` in one shot (the read path has the whole file
/// in memory anyway).
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, bytes)
}

/// Streams sections to the writer in bounded chunks while folding them into
/// the running checksum, so serialization never holds a second full copy of
/// the CSR data in memory.
struct ChecksumWriter<W: Write> {
    writer: W,
    hash: u64,
    buffer: Vec<u8>,
}

/// Flush threshold of [`ChecksumWriter`] — large enough to amortize the
/// underlying write calls, small enough to keep peak extra memory trivial.
const WRITE_CHUNK: usize = 64 * 1024;

impl<W: Write> ChecksumWriter<W> {
    fn new(writer: W) -> Self {
        Self {
            writer,
            hash: FNV_OFFSET,
            buffer: Vec::with_capacity(WRITE_CHUNK),
        }
    }

    fn push(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.buffer.extend_from_slice(bytes);
        if self.buffer.len() >= WRITE_CHUNK {
            self.drain()?;
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<(), SnapshotError> {
        self.hash = fnv1a64_update(self.hash, &self.buffer);
        self.writer.write_all(&self.buffer)?;
        self.buffer.clear();
        Ok(())
    }

    /// Flushes pending bytes, appends the checksum trailer (which is not
    /// itself checksummed), and flushes the writer.
    fn finish(mut self) -> Result<(), SnapshotError> {
        self.drain()?;
        self.writer.write_all(&self.hash.to_le_bytes())?;
        self.writer.flush()?;
        Ok(())
    }
}

/// Serializes `hypergraph` as a version-[`FORMAT_VERSION`] snapshot.
///
/// The writer receives the complete byte stream including the trailing
/// checksum; the caller decides about buffering (the file-path helper wraps
/// a [`std::io::BufWriter`]).
pub fn write_snapshot<W: Write>(hypergraph: &Hypergraph, writer: W) -> Result<(), SnapshotError> {
    let (edges, incidence) = hypergraph.csr_parts();
    let mut out = ChecksumWriter::new(writer);
    out.push(&MAGIC)?;
    out.push(&FORMAT_VERSION.to_le_bytes())?;
    out.push(&0u32.to_le_bytes())?; // flags
    out.push(&(hypergraph.num_nodes() as u64).to_le_bytes())?;
    out.push(&(hypergraph.num_edges() as u64).to_le_bytes())?;
    out.push(&(hypergraph.num_incidences() as u64).to_le_bytes())?;
    for &offset in edges.offsets() {
        out.push(&(offset as u64).to_le_bytes())?;
    }
    for &node in edges.values() {
        out.push(&node.to_le_bytes())?;
    }
    for &offset in incidence.offsets() {
        out.push(&(offset as u64).to_le_bytes())?;
    }
    for &edge in incidence.values() {
        out.push(&edge.to_le_bytes())?;
    }
    out.finish()
}

/// Writes a snapshot to `path` (buffered).
pub fn write_snapshot_file<P: AsRef<Path>>(
    hypergraph: &Hypergraph,
    path: P,
) -> Result<(), SnapshotError> {
    let file = std::fs::File::create(path)?;
    write_snapshot(hypergraph, std::io::BufWriter::new(file))
}

/// Little-endian field cursor over the raw snapshot bytes. All bounds are
/// pre-validated against the header counts, so the takes cannot fail after
/// [`validate_length`] — but they still return typed errors, never slice
/// out of bounds.
struct Fields<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> Fields<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .position
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotError::Truncated {
                needed: self.position.saturating_add(len),
                actual: self.bytes.len(),
            })?;
        let slice = self
            .bytes
            .get(self.position..end)
            .ok_or(SnapshotError::Truncated {
                needed: end,
                actual: self.bytes.len(),
            })?;
        self.position = end;
        Ok(slice)
    }

    fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(le_u32(self.take(4)?))
    }

    fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(le_u64(self.take(8)?))
    }

    /// Bulk-decodes `count` little-endian u64s (the offset arrays).
    fn take_u64s(&mut self, count: usize) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.take(count.checked_mul(8).ok_or(SnapshotError::CountOverflow)?)?;
        Ok(raw.chunks_exact(8).map(le_u64).collect())
    }

    /// Bulk-decodes `count` little-endian u32s (the value arrays).
    fn take_u32s(&mut self, count: usize) -> Result<Vec<u32>, SnapshotError> {
        let raw = self.take(count.checked_mul(4).ok_or(SnapshotError::CountOverflow)?)?;
        Ok(raw.chunks_exact(4).map(le_u32).collect())
    }
}

/// Folds up to eight little-endian bytes into a `u64`. A total function —
/// no indexing, no fixed-size conversion to panic — so callers that have
/// already length-checked their slice need no `expect`. Short slices
/// zero-extend, which never arises on the validated paths here.
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0u64, |acc, &byte| (acc << 8) | u64::from(byte))
}

/// Four-byte sibling of [`le_u64`].
pub(crate) fn le_u32(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .rev()
        .fold(0u32, |acc, &byte| (acc << 8) | u32::from(byte))
}

/// The exact byte length a snapshot with these counts must have, or `None`
/// on arithmetic overflow.
fn expected_len(num_nodes: u64, num_edges: u64, num_incidences: u64) -> Option<u64> {
    let offsets = num_edges
        .checked_add(1)?
        .checked_add(num_nodes.checked_add(1)?)?
        .checked_mul(8)?;
    let values = num_incidences.checked_mul(8)?; // two u32 arrays
    (MIN_SNAPSHOT_LEN as u64)
        .checked_add(offsets)?
        .checked_add(values)
}

/// Converts a little-endian u64 offset array into the `usize` offsets of a
/// [`Csr`], validating monotonicity and the terminal entry.
fn decode_offsets(
    raw: Vec<u64>,
    num_incidences: u64,
    section: &'static str,
) -> Result<Vec<usize>, SnapshotError> {
    let corrupt = |message: String| SnapshotError::Corrupt { section, message };
    if raw.first() != Some(&0) {
        return Err(corrupt(format!(
            "offset array must start at 0, starts at {:?}",
            raw.first()
        )));
    }
    if raw.last() != Some(&num_incidences) {
        return Err(corrupt(format!(
            "offset array must end at num_incidences ({num_incidences}), ends at {:?}",
            raw.last()
        )));
    }
    let mut offsets = Vec::with_capacity(raw.len());
    let mut previous = 0u64;
    for (index, &offset) in raw.iter().enumerate() {
        if offset < previous {
            return Err(corrupt(format!(
                "offsets must be non-decreasing, offset[{index}] = {offset} after {previous}"
            )));
        }
        previous = offset;
        offsets.push(usize::try_from(offset).map_err(|_| SnapshotError::CountOverflow)?);
    }
    Ok(offsets)
}

/// Decodes and fully validates a snapshot held in memory.
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<Hypergraph, SnapshotError> {
    decode(bytes).map(|(hypergraph, _)| hypergraph)
}

/// Reads and fully validates the snapshot at `path`, returning it together
/// with its verified trailing FNV-1a 64 checksum. The checksum covers every
/// byte before it, so two processes that report the same value hold the
/// same bytes, barring an accidental 64-bit collision: the distributed
/// roles compare it on every shard request.
pub fn read_snapshot_file_with_checksum<P: AsRef<Path>>(
    path: P,
) -> Result<(Hypergraph, u64), SnapshotError> {
    decode(&std::fs::read(path)?)
}

/// [`read_snapshot_bytes`], also returning the verified trailer checksum.
fn decode(bytes: &[u8]) -> Result<(Hypergraph, u64), SnapshotError> {
    if bytes.len() < MIN_SNAPSHOT_LEN {
        return Err(SnapshotError::Truncated {
            needed: MIN_SNAPSHOT_LEN,
            actual: bytes.len(),
        });
    }
    if !bytes.starts_with(&MAGIC) {
        return Err(SnapshotError::BadMagic);
    }
    let mut fields = Fields { bytes, position: 8 };
    let version = fields.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let flags = fields.take_u32()?;
    if flags != 0 {
        return Err(SnapshotError::Corrupt {
            section: "header",
            message: format!("version-1 flags must be 0, got {flags:#010x}"),
        });
    }
    let num_nodes = fields.take_u64()?;
    let num_edges = fields.take_u64()?;
    let num_incidences = fields.take_u64()?;

    // The counts must reproduce the byte length exactly — this is what turns
    // truncation anywhere after the header, and any trailing garbage, into a
    // loud error before a single payload byte is trusted.
    let expected =
        expected_len(num_nodes, num_edges, num_incidences).ok_or(SnapshotError::CountOverflow)?;
    if expected != bytes.len() as u64 {
        return Err(SnapshotError::LengthMismatch {
            expected,
            actual: bytes.len() as u64,
        });
    }

    // Checksum before structure: a flipped bit should be reported as
    // corruption of the file, not as whichever invariant it happens to break.
    // Cannot underflow: the minimum-length check above already admitted only
    // buffers of at least MIN_SNAPSHOT_LEN (> CHECKSUM_LEN) bytes.
    let payload_end = bytes.len().saturating_sub(CHECKSUM_LEN);
    let stored = le_u64(bytes.get(payload_end..).unwrap_or_default());
    let computed = fnv1a64(bytes.get(..payload_end).unwrap_or_default());
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    // Node and edge ids are 32-bit both on the wire and in the CSR, so a
    // snapshot declaring more than u32::MAX of either could never name its
    // own elements — and the transpose check below compares `edge as EdgeId`,
    // which must not truncate. Reject oversized counts as corruption before
    // any id is materialised.
    if num_nodes > u64::from(u32::MAX) || num_edges > u64::from(u32::MAX) {
        return Err(SnapshotError::Corrupt {
            section: "header",
            message: format!(
                "counts exceed the 32-bit id space (num_nodes = {num_nodes}, \
                 num_edges = {num_edges})"
            ),
        });
    }

    let num_nodes = usize::try_from(num_nodes).map_err(|_| SnapshotError::CountOverflow)?;
    let edge_rows = usize::try_from(num_edges).map_err(|_| SnapshotError::CountOverflow)?;
    let entries = usize::try_from(num_incidences).map_err(|_| SnapshotError::CountOverflow)?;
    if edge_rows == 0 {
        return Err(SnapshotError::Corrupt {
            section: "header",
            message: "snapshot declares zero hyperedges; hypergraphs are non-empty".to_string(),
        });
    }

    let edge_offsets = decode_offsets(
        fields.take_u64s(
            edge_rows
                .checked_add(1)
                .ok_or(SnapshotError::CountOverflow)?,
        )?,
        num_incidences,
        "edge offsets",
    )?;
    let edge_values: Vec<NodeId> = fields.take_u32s(entries)?;
    let incidence_offsets = decode_offsets(
        fields.take_u64s(
            num_nodes
                .checked_add(1)
                .ok_or(SnapshotError::CountOverflow)?,
        )?,
        num_incidences,
        "incidence offsets",
    )?;
    let incidence_values: Vec<EdgeId> = fields.take_u32s(entries)?;

    // Per-edge rows: non-empty, strictly sorted, in node range. Offsets were
    // proved non-decreasing and bounded by num_incidences in decode_offsets,
    // so the row lookups cannot fail — but they stay fallible (`.get`) rather
    // than indexing, with a typed error on the impossible branch.
    let row_bounds = |edge: usize| SnapshotError::Corrupt {
        section: "edge values",
        message: format!("hyperedge {edge} has out-of-range row bounds"),
    };
    let edge_rows_iter = edge_offsets.iter().zip(edge_offsets.iter().skip(1));
    for (edge, (&row_start, &row_end)) in edge_rows_iter.clone().enumerate() {
        let row = edge_values
            .get(row_start..row_end)
            .ok_or_else(|| row_bounds(edge))?;
        if row.is_empty() {
            return Err(SnapshotError::Corrupt {
                section: "edge values",
                message: format!("hyperedge {edge} is empty"),
            });
        }
        for (first, second) in row.iter().zip(row.iter().skip(1)) {
            if first >= second {
                return Err(SnapshotError::Corrupt {
                    section: "edge values",
                    message: format!(
                        "hyperedge {edge} is not strictly sorted ({first} then {second})"
                    ),
                });
            }
        }
        if let Some(&node) = row.last() {
            // mochy-lint: allow(checked-untrusted-arith) reason="NodeId is u32 and usize is at least 32 bits on every supported platform, so the widening cast is lossless"
            if node as usize >= num_nodes {
                return Err(SnapshotError::Corrupt {
                    section: "edge values",
                    message: format!(
                        "hyperedge {edge} names node {node}, but num_nodes is {num_nodes}"
                    ),
                });
            }
        }
    }

    // The incidence section must be the exact transpose of the edge section.
    // One cursor pass verifies it completely: walking the edges in ascending
    // id order must reproduce each node's incidence row left to right.
    let mut cursors: Vec<usize> = incidence_offsets
        .get(..num_nodes)
        .unwrap_or_default()
        .to_vec();
    let transpose_mismatch = |node: usize, edge: usize| SnapshotError::Corrupt {
        section: "incidence values",
        message: format!(
            "incidence index is not the transpose of the hyperedge list \
             (node {node}, hyperedge {edge})"
        ),
    };
    for (edge, (&row_start, &row_end)) in edge_rows_iter.enumerate() {
        let row = edge_values
            .get(row_start..row_end)
            .ok_or_else(|| row_bounds(edge))?;
        for &node in row {
            // mochy-lint: allow(checked-untrusted-arith) reason="NodeId is u32 and usize is at least 32 bits on every supported platform, so the widening cast is lossless"
            let node = node as usize;
            // Every `.get` below is proved in range by the per-edge row check
            // above (node < num_nodes, and cursors/incidence_offsets carry
            // num_nodes / num_nodes + 1 entries); a miss still reports the
            // transpose mismatch rather than indexing.
            let cursor = cursors
                .get(node)
                .copied()
                .ok_or_else(|| transpose_mismatch(node, edge))?;
            let incidence_row_end = incidence_offsets
                .get(node.saturating_add(1))
                .copied()
                .ok_or_else(|| transpose_mismatch(node, edge))?;
            if cursor >= incidence_row_end
                || incidence_values.get(cursor) != Some(&(edge as EdgeId))
            {
                return Err(transpose_mismatch(node, edge));
            }
            if let Some(slot) = cursors.get_mut(node) {
                // Bounded by `cursor < incidence_row_end` above, so no wrap.
                *slot = cursor.saturating_add(1);
            }
        }
    }
    let node_rows_iter = incidence_offsets.iter().skip(1).zip(cursors.iter());
    for (node, (&incidence_row_end, &cursor)) in node_rows_iter.enumerate() {
        if cursor != incidence_row_end {
            return Err(SnapshotError::Corrupt {
                section: "incidence values",
                message: format!(
                    "node {node} has {} extra incidence entries not backed by any hyperedge",
                    incidence_row_end.saturating_sub(cursor)
                ),
            });
        }
    }

    let hypergraph = Hypergraph::from_validated_csr(
        num_nodes,
        Csr::from_parts(edge_offsets, edge_values),
        Csr::from_parts(incidence_offsets, incidence_values),
    );
    Ok((hypergraph, stored))
}

/// Reads a snapshot from an arbitrary reader (drains it to the end).
pub fn read_snapshot<R: Read>(mut reader: R) -> Result<Hypergraph, SnapshotError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    read_snapshot_bytes(&bytes)
}

/// Reads a snapshot from `path`.
pub fn read_snapshot_file<P: AsRef<Path>>(path: P) -> Result<Hypergraph, SnapshotError> {
    read_snapshot_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    fn figure2() -> Hypergraph {
        HypergraphBuilder::new()
            .with_edge([0u32, 1, 2])
            .with_edge([0, 3, 1])
            .with_edge([4, 5, 0])
            .with_edge([6, 7, 2])
            .build()
            .unwrap()
    }

    fn snapshot_bytes(hypergraph: &Hypergraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_snapshot(hypergraph, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn round_trip_is_identity() {
        let original = figure2();
        let restored = read_snapshot_bytes(&snapshot_bytes(&original)).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn round_trip_with_isolated_nodes_and_singletons() {
        // Node 9 exists (via the edge naming it) and node 5 is isolated only
        // in the sense of low degree; singleton hyperedges are legal.
        let original = HypergraphBuilder::new()
            .with_edge([7u32])
            .with_edge([0u32, 9])
            .with_edge([0u32, 5, 9])
            .build()
            .unwrap();
        let restored = read_snapshot_bytes(&snapshot_bytes(&original)).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn file_round_trip() {
        let original = figure2();
        let path = std::env::temp_dir().join("mochy_snapshot_roundtrip_test.mochy");
        write_snapshot_file(&original, &path).unwrap();
        let restored = read_snapshot_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(original, restored);
    }

    #[test]
    fn checksummed_file_read_returns_the_trailer() {
        let original = figure2();
        let path = std::env::temp_dir().join(format!(
            "mochy_snapshot_checksum_test_{}.mochy",
            std::process::id()
        ));
        write_snapshot_file(&original, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (restored, checksum) = read_snapshot_file_with_checksum(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored, original);
        assert_eq!(checksum.to_le_bytes(), bytes[bytes.len() - CHECKSUM_LEN..]);
    }

    #[test]
    fn header_layout_is_stable() {
        let bytes = snapshot_bytes(&figure2());
        assert_eq!(&bytes[..8], b"MOCHYSNP");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 0);
        assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 8);
        assert_eq!(u64::from_le_bytes(bytes[24..32].try_into().unwrap()), 4);
        assert_eq!(u64::from_le_bytes(bytes[32..40].try_into().unwrap()), 12);
        let expected = expected_len(8, 4, 12).unwrap();
        assert_eq!(bytes.len() as u64, expected);
    }

    #[test]
    fn checksum_covers_every_byte() {
        let pristine = snapshot_bytes(&figure2());
        for position in 0..pristine.len() - CHECKSUM_LEN {
            let mut corrupted = pristine.clone();
            corrupted[position] ^= 0x01;
            let result = read_snapshot_bytes(&corrupted);
            assert!(
                result.is_err(),
                "flipping byte {position} must not decode cleanly"
            );
        }
    }

    #[test]
    fn count_overflow_is_rejected_without_allocating() {
        let mut bytes = snapshot_bytes(&figure2());
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_snapshot_bytes(&bytes),
            Err(SnapshotError::CountOverflow)
        ));
    }
}
