//! Sharded hypergraph storage: contiguous hyperedge slices persisted as
//! per-shard `.mochy` snapshots plus a small checksummed manifest.
//!
//! A shard is a contiguous slice `[edge_start, edge_end)` of the canonical
//! hyperedge order — the same spans ([`shard_boundaries`]) whose centre
//! hyperedges the counting layer's sharded MoCHy-E walks. Slicing by edge
//! id (rather than re-partitioning nodes) keeps shard-local edge
//! identifiers order-isomorphic to the global ones, so a family reassembles
//! to exactly the original edge order.
//!
//! On disk, a sharded dataset with stem `data` is the file family
//!
//! ```text
//! data.shards          the manifest (layout below)
//! data.shard0.mochy    shard 0, a complete .mochy snapshot
//! data.shard1.mochy    shard 1, ...
//! ```
//!
//! Each shard file is a full, independently valid [`crate::snapshot`]
//! snapshot of the sub-hypergraph induced by its edge slice. Node ids are
//! **global** (every shard declares the full `num_nodes`), so node sets and
//! pairwise intersection weights — the only inputs to motif classification —
//! are shard-local facts.
//!
//! # Manifest layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size             field
//! ------  ---------------  ------------------------------------------
//!      0  8                magic  b"MOCHYSHD"
//!      8  4                format version (u32, currently 1)
//!     12  4                flags (u32, must be 0 in version 1)
//!     16  8                num_shards      (u64)
//!     24  8                num_nodes       (u64)
//!     32  8                num_edges       (u64)
//!     40  8                num_incidences  (u64)
//!     48  num_shards * 32  shard records, each:
//!                            edge_start        (u64)
//!                            edge_end          (u64)
//!                            num_incidences    (u64)
//!                            snapshot_checksum (u64, the shard file's own
//!                                               trailing FNV-1a 64)
//!      .  8                FNV-1a 64 checksum of everything above
//! ```
//!
//! # Validation and trust
//!
//! A manifest is untrusted input exactly like a snapshot, so
//! [`read_manifest_bytes`] follows the same discipline as
//! [`crate::snapshot::read_snapshot_bytes`]: the declared counts must
//! reproduce the byte length through checked arithmetic, the checksum is
//! verified before any structure is interpreted, and every structural
//! invariant (shards contiguous, non-empty, covering `0..num_edges`,
//! incidence counts summing to the total, ids within the 32-bit ceiling)
//! fails as a typed [`ShardError`] — never a panic, never a wrap.
//! [`load_sharded`] additionally cross-checks every shard file against its
//! manifest record (edge span, incidence count, node universe, and the
//! snapshot's own trailing checksum), so a swapped or regenerated shard
//! file cannot silently change counts.
//!
//! # Versioning policy
//!
//! Same as snapshots: the version field is bumped on any layout change and
//! unknown versions are rejected ([`ShardError::UnsupportedVersion`]);
//! version-1 readers require the flags word to be zero.

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::error::HypergraphError;
use crate::graph::{Hypergraph, NodeId};
use crate::snapshot::{self, SnapshotError};

/// The 8-byte magic prefix of every shard manifest.
pub const SHARD_MAGIC: [u8; 8] = *b"MOCHYSHD";

/// The current (and only) manifest format version.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed manifest header (magic, version, flags, four
/// counts).
const MANIFEST_HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// Byte length of one shard record (four u64 fields).
const SHARD_RECORD_LEN: usize = 8 + 8 + 8 + 8;

/// Byte length of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// The smallest byte length any manifest can have: header plus checksum
/// with zero records (which the structural pass then rejects — a manifest
/// must describe at least one shard).
// mochy-lint: allow(checked-untrusted-arith) reason="const arithmetic over two small literals is evaluated at compile time; overflow is a compile error, not a runtime wrap"
const MIN_MANIFEST_LEN: usize = MANIFEST_HEADER_LEN + CHECKSUM_LEN;

/// Why a shard manifest (or the shard family it names) could not be used.
/// Every variant is a loud, typed error; decoding never panics on malformed
/// bytes.
#[derive(Debug)]
pub enum ShardError {
    /// The manifest is shorter than the fixed header plus checksum.
    Truncated {
        /// Minimum byte length a manifest can have.
        needed: usize,
        /// Actual byte length of the input.
        actual: usize,
    },
    /// The first eight bytes are not [`SHARD_MAGIC`].
    BadMagic,
    /// The version field names a format this reader does not know.
    UnsupportedVersion {
        /// The version the manifest declares.
        found: u32,
    },
    /// The declared counts do not reproduce the actual byte length.
    LengthMismatch {
        /// Byte length the header's counts imply.
        expected: u64,
        /// Actual byte length of the input.
        actual: u64,
    },
    /// The declared counts overflow the addressable size.
    CountOverflow,
    /// The trailing checksum does not match the manifest contents.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// A structural invariant of the manifest is violated.
    Corrupt {
        /// Which section the violation was found in.
        section: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// A shard's `.mochy` file failed to decode or disagrees with its
    /// manifest record.
    Shard {
        /// Zero-based shard index.
        shard: usize,
        /// What went wrong with the shard file.
        error: SnapshotError,
    },
    /// The requested shard count cannot produce non-empty shards.
    InvalidShardCount {
        /// Shards requested.
        requested: usize,
        /// Hyperedges available to slice.
        num_edges: usize,
    },
    /// An underlying IO failure while reading or writing.
    Io(std::io::Error),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Truncated { needed, actual } => write!(
                f,
                "shard manifest truncated: need at least {needed} bytes, got {actual}"
            ),
            ShardError::BadMagic => {
                write!(f, "not a shard manifest (bad magic bytes)")
            }
            ShardError::UnsupportedVersion { found } => write!(
                f,
                "unsupported shard manifest version {found} (this reader knows up to \
                 {SHARD_FORMAT_VERSION})"
            ),
            ShardError::LengthMismatch { expected, actual } => write!(
                f,
                "shard manifest length mismatch: header implies {expected} bytes, got {actual}"
            ),
            ShardError::CountOverflow => {
                write!(f, "shard manifest counts overflow the addressable size")
            }
            ShardError::ChecksumMismatch { stored, computed } => write!(
                f,
                "shard manifest checksum mismatch: trailer says {stored:#018x}, contents hash \
                 to {computed:#018x}"
            ),
            ShardError::Corrupt { section, message } => {
                write!(f, "shard manifest corrupt in {section}: {message}")
            }
            ShardError::Shard { shard, error } => {
                write!(f, "shard {shard}: {error}")
            }
            ShardError::InvalidShardCount {
                requested,
                num_edges,
            } => write!(
                f,
                "cannot split {num_edges} hyperedges into {requested} non-empty shards"
            ),
            ShardError::Io(error) => write!(f, "shard io error: {error}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Shard { error, .. } => Some(error),
            ShardError::Io(error) => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ShardError {
    fn from(error: std::io::Error) -> Self {
        ShardError::Io(error)
    }
}

impl From<ShardError> for HypergraphError {
    fn from(error: ShardError) -> Self {
        HypergraphError::Sharded(error)
    }
}

/// One shard's manifest record: its edge span, its incidence count, and the
/// trailing FNV-1a 64 checksum of its `.mochy` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// First global edge id of the shard (inclusive).
    pub edge_start: u64,
    /// One past the last global edge id of the shard (exclusive).
    pub edge_end: u64,
    /// Total incidences `Σ_e |e|` within the shard.
    pub num_incidences: u64,
    /// The shard file's own trailing FNV-1a 64 checksum, pinned here so a
    /// regenerated or swapped shard file is detected at load time.
    pub snapshot_checksum: u64,
}

/// The validated contents of a shard manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Number of nodes of the full hypergraph (shared by every shard).
    pub num_nodes: u64,
    /// Number of hyperedges of the full hypergraph.
    pub num_edges: u64,
    /// Total incidences of the full hypergraph.
    pub num_incidences: u64,
    /// Per-shard records, in shard order; spans are contiguous, non-empty,
    /// and cover exactly `0..num_edges`.
    pub shards: Vec<ShardRecord>,
}

impl ShardManifest {
    /// Number of shards the manifest describes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The edge spans of all shards, in shard order.
    pub fn boundaries(&self) -> Vec<Range<usize>> {
        self.shards
            .iter()
            .map(|record| {
                // Lossless: the structural pass admitted only spans within
                // num_edges, which is capped at the 32-bit id ceiling. The
                // saturating fallback keeps this total without a panic path.
                let lo = usize::try_from(record.edge_start).unwrap_or(usize::MAX);
                let hi = usize::try_from(record.edge_end).unwrap_or(usize::MAX);
                lo..hi
            })
            .collect()
    }
}

/// The contiguous edge spans that split `num_edges` hyperedges into
/// `num_shards` balanced shards: shard `s` covers
/// `[s·n/k, (s+1)·n/k)`. Spans are contiguous and cover `0..num_edges`;
/// when `num_shards > num_edges` the trailing spans are empty.
pub fn shard_boundaries(num_edges: usize, num_shards: usize) -> Vec<Range<usize>> {
    let shards = num_shards.max(1);
    let n = num_edges as u128;
    let k = shards as u128;
    let mut boundaries = Vec::with_capacity(shards);
    for s in 0..shards {
        let a = s as u128;
        let lo = a * n / k;
        let b = a.saturating_add(1);
        let hi = b * n / k;
        // Lossless: both quotients are at most n, which came from a usize —
        // the fallback (exact upper bound) keeps this total without a panic.
        let lo = usize::try_from(lo).unwrap_or(num_edges);
        let hi = usize::try_from(hi).unwrap_or(num_edges);
        boundaries.push(lo..hi);
    }
    boundaries
}

/// The sub-hypergraph induced by the contiguous edge slice `range`, keeping
/// the full node universe (node ids are global). Local edge id `e` of the
/// slice corresponds to global edge id `range.start + e`, preserving order.
pub fn edge_slice(
    hypergraph: &Hypergraph,
    range: Range<usize>,
) -> Result<Hypergraph, HypergraphError> {
    if range.end > hypergraph.num_edges() || range.start > range.end {
        return Err(HypergraphError::Sharded(ShardError::Corrupt {
            section: "edge slice",
            message: format!(
                "slice {}..{} out of range for {} hyperedges",
                range.start,
                range.end,
                hypergraph.num_edges()
            ),
        }));
    }
    let mut rows: Vec<Vec<NodeId>> = Vec::with_capacity(range.len());
    for e in range {
        // e < num_edges, which the snapshot/builder layers cap at the 32-bit
        // id ceiling — but propagate a typed error rather than panicking.
        let e =
            u32::try_from(e).map_err(|_| HypergraphError::Sharded(ShardError::CountOverflow))?;
        rows.push(hypergraph.edge(e).to_vec());
    }
    Hypergraph::from_sorted_edges(hypergraph.num_nodes(), rows)
}

/// The path of shard `shard`'s snapshot for a dataset with stem `stem`:
/// `{stem}.shard{shard}.mochy`.
pub fn shard_file_path(stem: &Path, shard: usize) -> PathBuf {
    let name = stem
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    stem.with_file_name(format!("{name}.shard{shard}.mochy"))
}

/// The path of the manifest for a dataset with stem `stem`:
/// `{stem}.shards`.
pub fn manifest_file_path(stem: &Path) -> PathBuf {
    let name = stem
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    stem.with_file_name(format!("{name}.shards"))
}

/// Splits `hypergraph` into `num_shards` contiguous shards, writing
/// `{stem}.shard{k}.mochy` snapshot files plus the `{stem}.shards`
/// manifest, and returns the manifest. Every shard must be non-empty
/// (snapshots reject edge-less hypergraphs), so `num_shards` is capped by
/// the hyperedge count.
pub fn write_shards(
    hypergraph: &Hypergraph,
    stem: &Path,
    num_shards: usize,
) -> Result<ShardManifest, ShardError> {
    let num_edges = hypergraph.num_edges();
    if num_shards == 0 || num_shards > num_edges {
        return Err(ShardError::InvalidShardCount {
            requested: num_shards,
            num_edges,
        });
    }
    let boundaries = shard_boundaries(num_edges, num_shards);
    let mut records = Vec::with_capacity(num_shards);
    for (shard, range) in boundaries.iter().enumerate() {
        let slice = match edge_slice(hypergraph, range.clone()) {
            Ok(slice) => slice,
            Err(error) => {
                return Err(ShardError::Corrupt {
                    section: "edge slice",
                    message: format!("shard {shard}: {error}"),
                })
            }
        };
        let mut bytes = Vec::new();
        snapshot::write_snapshot(&slice, &mut bytes)
            .map_err(|error| ShardError::Shard { shard, error })?;
        let snapshot_checksum = snapshot_trailing_checksum(&bytes);
        std::fs::write(shard_file_path(stem, shard), &bytes)?;
        records.push(ShardRecord {
            edge_start: range.start as u64,
            edge_end: range.end as u64,
            num_incidences: slice.num_incidences() as u64,
            snapshot_checksum,
        });
    }
    let manifest = ShardManifest {
        num_nodes: hypergraph.num_nodes() as u64,
        num_edges: num_edges as u64,
        num_incidences: hypergraph.num_incidences() as u64,
        shards: records,
    };
    write_manifest_file(&manifest, &manifest_file_path(stem))?;
    Ok(manifest)
}

/// The trailing FNV-1a 64 checksum of an encoded snapshot (its last eight
/// bytes). Callers pass bytes the snapshot layer produced or validated, so
/// the trailer is always present.
fn snapshot_trailing_checksum(bytes: &[u8]) -> u64 {
    let tail = bytes.len().saturating_sub(CHECKSUM_LEN);
    snapshot::le_u64(bytes.get(tail..).unwrap_or_default())
}

/// Serializes `manifest` in the version-[`SHARD_FORMAT_VERSION`] layout,
/// including the trailing checksum.
pub fn encode_manifest(manifest: &ShardManifest) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SHARD_MAGIC);
    bytes.extend_from_slice(&SHARD_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // flags
    bytes.extend_from_slice(&(manifest.shards.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&manifest.num_nodes.to_le_bytes());
    bytes.extend_from_slice(&manifest.num_edges.to_le_bytes());
    bytes.extend_from_slice(&manifest.num_incidences.to_le_bytes());
    for record in &manifest.shards {
        bytes.extend_from_slice(&record.edge_start.to_le_bytes());
        bytes.extend_from_slice(&record.edge_end.to_le_bytes());
        bytes.extend_from_slice(&record.num_incidences.to_le_bytes());
        bytes.extend_from_slice(&record.snapshot_checksum.to_le_bytes());
    }
    let checksum = snapshot::fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Writes `manifest` to `path`.
pub fn write_manifest_file(manifest: &ShardManifest, path: &Path) -> Result<(), ShardError> {
    std::fs::write(path, encode_manifest(manifest))?;
    Ok(())
}

/// Little-endian field cursor over the raw manifest bytes; the exact-length
/// check runs before any take, so these cannot fail afterwards — but they
/// still return typed errors, never slice out of bounds.
struct ManifestFields<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> ManifestFields<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ShardError> {
        let end = self
            .position
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(ShardError::Truncated {
                needed: self.position.saturating_add(len),
                actual: self.bytes.len(),
            })?;
        let slice = self
            .bytes
            .get(self.position..end)
            .ok_or(ShardError::Truncated {
                needed: end,
                actual: self.bytes.len(),
            })?;
        self.position = end;
        Ok(slice)
    }

    fn take_u32(&mut self) -> Result<u32, ShardError> {
        Ok(snapshot::le_u32(self.take(4)?))
    }

    fn take_u64(&mut self) -> Result<u64, ShardError> {
        Ok(snapshot::le_u64(self.take(8)?))
    }
}

/// The exact byte length a manifest with `num_shards` records must have, or
/// `None` on arithmetic overflow.
fn expected_manifest_len(num_shards: u64) -> Option<u64> {
    let records = num_shards.checked_mul(SHARD_RECORD_LEN as u64)?;
    (MANIFEST_HEADER_LEN as u64)
        .checked_add(records)?
        .checked_add(CHECKSUM_LEN as u64)
}

/// Decodes and fully validates a shard manifest held in memory.
pub fn read_manifest_bytes(bytes: &[u8]) -> Result<ShardManifest, ShardError> {
    if bytes.len() < MIN_MANIFEST_LEN {
        return Err(ShardError::Truncated {
            needed: MIN_MANIFEST_LEN,
            actual: bytes.len(),
        });
    }
    if !bytes.starts_with(&SHARD_MAGIC) {
        return Err(ShardError::BadMagic);
    }
    let mut fields = ManifestFields { bytes, position: 8 };
    let version = fields.take_u32()?;
    if version != SHARD_FORMAT_VERSION {
        return Err(ShardError::UnsupportedVersion { found: version });
    }
    let flags = fields.take_u32()?;
    if flags != 0 {
        return Err(ShardError::Corrupt {
            section: "header",
            message: format!("version-1 flags must be 0, got {flags:#010x}"),
        });
    }
    let num_shards = fields.take_u64()?;
    let num_nodes = fields.take_u64()?;
    let num_edges = fields.take_u64()?;
    let num_incidences = fields.take_u64()?;

    // The declared record count must reproduce the byte length exactly —
    // truncation after the header and trailing garbage both fail loudly
    // before a single record byte is trusted.
    let expected = expected_manifest_len(num_shards).ok_or(ShardError::CountOverflow)?;
    if expected != bytes.len() as u64 {
        return Err(ShardError::LengthMismatch {
            expected,
            actual: bytes.len() as u64,
        });
    }

    // Checksum before structure: a flipped bit is reported as corruption of
    // the manifest, not as whichever invariant it happens to break.
    let payload_end = bytes.len().saturating_sub(CHECKSUM_LEN);
    let stored = snapshot::le_u64(bytes.get(payload_end..).unwrap_or_default());
    let computed = snapshot::fnv1a64(bytes.get(..payload_end).unwrap_or_default());
    if stored != computed {
        return Err(ShardError::ChecksumMismatch { stored, computed });
    }

    if num_shards == 0 {
        return Err(ShardError::Corrupt {
            section: "header",
            message: "manifest declares zero shards".to_string(),
        });
    }
    // Ids are 32-bit on the wire and in the CSR, so counts past the ceiling
    // could never name their own elements; and every shard must be
    // non-empty, so there cannot be more shards than hyperedges.
    if num_nodes > u64::from(u32::MAX) || num_edges > u64::from(u32::MAX) {
        return Err(ShardError::Corrupt {
            section: "header",
            message: format!(
                "counts exceed the 32-bit id space (num_nodes = {num_nodes}, \
                 num_edges = {num_edges})"
            ),
        });
    }
    if num_shards > num_edges {
        return Err(ShardError::Corrupt {
            section: "header",
            message: format!(
                "manifest declares {num_shards} shards over {num_edges} hyperedges; \
                 shards must be non-empty"
            ),
        });
    }

    let shard_rows = usize::try_from(num_shards).map_err(|_| ShardError::CountOverflow)?;
    let mut shards = Vec::with_capacity(shard_rows);
    let mut expected_start = 0u64;
    let mut incidence_total = 0u64;
    for shard in 0..shard_rows {
        let edge_start = fields.take_u64()?;
        let edge_end = fields.take_u64()?;
        let shard_incidences = fields.take_u64()?;
        let snapshot_checksum = fields.take_u64()?;
        if edge_start != expected_start {
            return Err(ShardError::Corrupt {
                section: "records",
                message: format!(
                    "shard {shard} starts at edge {edge_start}, expected {expected_start} \
                     (shards must be contiguous)"
                ),
            });
        }
        if edge_end <= edge_start {
            return Err(ShardError::Corrupt {
                section: "records",
                message: format!(
                    "shard {shard} spans {edge_start}..{edge_end}; shards must be non-empty"
                ),
            });
        }
        if edge_end > num_edges {
            return Err(ShardError::Corrupt {
                section: "records",
                message: format!(
                    "shard {shard} ends at edge {edge_end}, past num_edges {num_edges}"
                ),
            });
        }
        expected_start = edge_end;
        incidence_total = incidence_total
            .checked_add(shard_incidences)
            .ok_or(ShardError::CountOverflow)?;
        shards.push(ShardRecord {
            edge_start,
            edge_end,
            num_incidences: shard_incidences,
            snapshot_checksum,
        });
    }
    if expected_start != num_edges {
        return Err(ShardError::Corrupt {
            section: "records",
            message: format!(
                "shards cover edges 0..{expected_start} but the manifest declares \
                 {num_edges} hyperedges"
            ),
        });
    }
    if incidence_total != num_incidences {
        return Err(ShardError::Corrupt {
            section: "records",
            message: format!(
                "per-shard incidences sum to {incidence_total}, manifest declares \
                 {num_incidences}"
            ),
        });
    }

    Ok(ShardManifest {
        num_nodes,
        num_edges,
        num_incidences,
        shards,
    })
}

/// Reads and validates a shard manifest from `path`.
pub fn read_manifest_file(path: &Path) -> Result<ShardManifest, ShardError> {
    read_manifest_bytes(&std::fs::read(path)?)
}

/// A sharded dataset loaded back from disk: the validated manifest plus one
/// fully validated [`Hypergraph`] per shard, in shard order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedHypergraph {
    manifest: ShardManifest,
    shards: Vec<Hypergraph>,
}

impl ShardedHypergraph {
    /// The validated manifest.
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard sub-hypergraphs, in shard order.
    pub fn shards(&self) -> &[Hypergraph] {
        &self.shards
    }

    /// Reassembles the full hypergraph by concatenating the shard edge
    /// slices in shard order — the exact inverse of [`write_shards`].
    pub fn assemble(&self) -> Result<Hypergraph, ShardError> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            rows.extend(shard.to_edge_lists());
        }
        let num_nodes =
            usize::try_from(self.manifest.num_nodes).map_err(|_| ShardError::CountOverflow)?;
        Hypergraph::from_sorted_edges(num_nodes, rows).map_err(|error| ShardError::Corrupt {
            section: "shard files",
            message: format!("reassembly failed: {error}"),
        })
    }
}

/// Loads and validates ONE shard's snapshot of the family with stem `stem`
/// against its record in an already-validated `manifest`: the snapshot's own
/// trailing checksum must match the pinned one, and its edge span, incidence
/// count, and node universe must agree with the record. This is the unit a
/// distributed worker boots from — only the shard's own edge slice is read
/// off disk, never the rest of the family.
pub fn load_shard_slice(
    stem: &Path,
    manifest: &ShardManifest,
    shard: usize,
) -> Result<Hypergraph, ShardError> {
    let record = manifest.shards.get(shard).ok_or(ShardError::Corrupt {
        section: "records",
        message: format!(
            "shard {shard} requested but the manifest describes {}",
            manifest.num_shards()
        ),
    })?;
    let bytes = std::fs::read(shard_file_path(stem, shard))?;
    let slice = snapshot::read_snapshot_bytes(&bytes)
        .map_err(|error| ShardError::Shard { shard, error })?;
    let stored = snapshot_trailing_checksum(&bytes);
    if stored != record.snapshot_checksum {
        return Err(ShardError::Corrupt {
            section: "shard files",
            message: format!(
                "shard {shard} checksum {stored:#018x} does not match the manifest's \
                 {:#018x} (file replaced or regenerated?)",
                record.snapshot_checksum
            ),
        });
    }
    // The record's span was validated as non-empty and within the 32-bit
    // ceiling, so the width fits usize without wrapping.
    let span = record.edge_end.saturating_sub(record.edge_start);
    if slice.num_edges() as u64 != span {
        return Err(ShardError::Corrupt {
            section: "shard files",
            message: format!(
                "shard {shard} holds {} hyperedges but its record spans {span}",
                slice.num_edges()
            ),
        });
    }
    if slice.num_incidences() as u64 != record.num_incidences {
        return Err(ShardError::Corrupt {
            section: "shard files",
            message: format!(
                "shard {shard} holds {} incidences but its record declares {}",
                slice.num_incidences(),
                record.num_incidences
            ),
        });
    }
    if slice.num_nodes() as u64 != manifest.num_nodes {
        return Err(ShardError::Corrupt {
            section: "shard files",
            message: format!(
                "shard {shard} declares {} nodes but the manifest declares {} \
                 (shards must keep the global node universe)",
                slice.num_nodes(),
                manifest.num_nodes
            ),
        });
    }
    Ok(slice)
}

/// Loads the shard family with stem `stem`: reads and validates the
/// manifest, then every shard snapshot through [`load_shard_slice`]
/// (cross-checking each against its record — edge span, incidence count,
/// node universe, and the snapshot's own trailing checksum).
pub fn load_sharded(stem: &Path) -> Result<ShardedHypergraph, ShardError> {
    let manifest = read_manifest_file(&manifest_file_path(stem))?;
    let mut shards = Vec::with_capacity(manifest.num_shards());
    for shard in 0..manifest.num_shards() {
        shards.push(load_shard_slice(stem, &manifest, shard)?);
    }
    Ok(ShardedHypergraph { manifest, shards })
}

/// Strips the `.shards` suffix of a manifest path to recover the family's
/// stem (`data.shards` → `data`); the stem is what [`shard_file_path`] and
/// [`load_shard_slice`] key off.
pub fn manifest_stem(manifest_path: &Path) -> Result<PathBuf, ShardError> {
    let name = manifest_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let stem_name = name
        .strip_suffix(".shards")
        .ok_or_else(|| ShardError::Corrupt {
            section: "manifest path",
            message: format!("manifest path `{name}` does not end in .shards"),
        })?;
    Ok(manifest_path.with_file_name(stem_name))
}

/// Loads a shard family given the path of its **manifest** file (the
/// `{stem}.shards` file): strips the `.shards` suffix to recover the stem
/// ([`manifest_stem`]), then delegates to [`load_sharded`].
pub fn load_sharded_manifest(manifest_path: &Path) -> Result<ShardedHypergraph, ShardError> {
    load_sharded(&manifest_stem(manifest_path)?)
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

    fn temp_stem(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mochy_shard_test_{tag}"))
    }

    fn cleanup(stem: &Path, num_shards: usize) {
        std::fs::remove_file(manifest_file_path(stem)).ok();
        for shard in 0..num_shards {
            std::fs::remove_file(shard_file_path(stem, shard)).ok();
        }
    }

    #[test]
    fn boundaries_are_contiguous_and_cover() {
        for (n, k) in [(4usize, 2usize), (10, 3), (7, 7), (5, 1), (3, 8), (0, 2)] {
            let boundaries = shard_boundaries(n, k);
            assert_eq!(boundaries.len(), k.max(1));
            assert_eq!(boundaries.first().unwrap().start, 0);
            assert_eq!(boundaries.last().unwrap().end, n);
            for pair in boundaries.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "n={n} k={k}");
            }
            if k <= n {
                assert!(boundaries.iter().all(|r| !r.is_empty()), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn edge_slice_preserves_rows_and_node_universe() {
        let h = figure2();
        let slice = edge_slice(&h, 1..3).unwrap();
        assert_eq!(slice.num_edges(), 2);
        assert_eq!(slice.num_nodes(), h.num_nodes());
        assert_eq!(slice.edge(0), h.edge(1));
        assert_eq!(slice.edge(1), h.edge(2));
        assert!(edge_slice(&h, 2..9).is_err());
    }

    #[test]
    fn write_load_assemble_round_trips() {
        let h = figure2();
        for k in [1usize, 2, 3, 4] {
            let stem = temp_stem(&format!("roundtrip_{k}"));
            let manifest = write_shards(&h, &stem, k).unwrap();
            assert_eq!(manifest.num_shards(), k);
            assert_eq!(manifest.num_edges, 4);
            let loaded = load_sharded(&stem).unwrap();
            assert_eq!(loaded.manifest(), &manifest);
            assert_eq!(loaded.num_shards(), k);
            assert_eq!(loaded.assemble().unwrap(), h);
            cleanup(&stem, k);
        }
    }

    #[test]
    fn load_via_manifest_path_works() {
        let h = figure2();
        let stem = temp_stem("via_manifest");
        write_shards(&h, &stem, 2).unwrap();
        let loaded = load_sharded_manifest(&manifest_file_path(&stem)).unwrap();
        assert_eq!(loaded.assemble().unwrap(), h);
        cleanup(&stem, 2);
        assert!(load_sharded_manifest(Path::new("nope.mochy")).is_err());
    }

    #[test]
    fn invalid_shard_counts_are_rejected() {
        let h = figure2();
        let stem = temp_stem("invalid_count");
        assert!(matches!(
            write_shards(&h, &stem, 0),
            Err(ShardError::InvalidShardCount { .. })
        ));
        assert!(matches!(
            write_shards(&h, &stem, 5),
            Err(ShardError::InvalidShardCount { .. })
        ));
    }

    #[test]
    fn manifest_checksum_covers_every_byte() {
        let h = figure2();
        let stem = temp_stem("checksum");
        let manifest = write_shards(&h, &stem, 2).unwrap();
        cleanup(&stem, 2);
        let pristine = encode_manifest(&manifest);
        for position in 0..pristine.len() - CHECKSUM_LEN {
            let mut corrupted = pristine.clone();
            corrupted[position] ^= 0x01;
            assert!(
                read_manifest_bytes(&corrupted).is_err(),
                "flipping byte {position} must not decode cleanly"
            );
        }
    }

    /// Re-encodes a manifest after `patch`, fixing up the checksum so the
    /// structural validation pass (not the checksum) is what rejects it.
    fn encode_patched(manifest: &ShardManifest, patch: impl FnOnce(&mut ShardManifest)) -> Vec<u8> {
        let mut patched = manifest.clone();
        patch(&mut patched);
        encode_manifest(&patched)
    }

    #[test]
    fn structural_violations_are_typed_corruption() {
        let h = figure2();
        let stem = temp_stem("structural");
        let manifest = write_shards(&h, &stem, 2).unwrap();
        cleanup(&stem, 2);

        // Overlapping / non-contiguous spans.
        let bytes = encode_patched(&manifest, |m| m.shards[1].edge_start = 1);
        assert!(matches!(
            read_manifest_bytes(&bytes),
            Err(ShardError::Corrupt {
                section: "records",
                ..
            })
        ));
        // Empty shard.
        let bytes = encode_patched(&manifest, |m| m.shards[0].edge_end = 0);
        assert!(matches!(
            read_manifest_bytes(&bytes),
            Err(ShardError::Corrupt {
                section: "records",
                ..
            })
        ));
        // Spans not covering num_edges.
        let bytes = encode_patched(&manifest, |m| {
            m.shards[1].edge_end = 3;
        });
        assert!(matches!(
            read_manifest_bytes(&bytes),
            Err(ShardError::Corrupt {
                section: "records",
                ..
            })
        ));
        // Incidence sum mismatch.
        let bytes = encode_patched(&manifest, |m| m.shards[0].num_incidences = 99);
        assert!(matches!(
            read_manifest_bytes(&bytes),
            Err(ShardError::Corrupt {
                section: "records",
                ..
            })
        ));
        // More shards than edges.
        let bytes = encode_patched(&manifest, |m| m.num_edges = 1);
        assert!(read_manifest_bytes(&bytes).is_err());
    }

    #[test]
    fn header_violations_are_rejected() {
        let h = figure2();
        let stem = temp_stem("header");
        let manifest = write_shards(&h, &stem, 2).unwrap();
        cleanup(&stem, 2);
        let pristine = encode_manifest(&manifest);

        assert!(matches!(
            read_manifest_bytes(&pristine[..10]),
            Err(ShardError::Truncated { .. })
        ));
        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_manifest_bytes(&bad_magic),
            Err(ShardError::BadMagic)
        ));
        // Unsupported version (checksum untouched on purpose: version is
        // checked before the checksum so readers can bail fast).
        let mut bad_version = pristine.clone();
        bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_manifest_bytes(&bad_version),
            Err(ShardError::UnsupportedVersion { found: 9 })
        ));
        // Absurd record count: overflow, no allocation attempted.
        let mut overflow = pristine.clone();
        overflow[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_manifest_bytes(&overflow),
            Err(ShardError::CountOverflow) | Err(ShardError::LengthMismatch { .. })
        ));
        // Trailing garbage.
        let mut long = pristine.clone();
        long.push(0);
        assert!(matches!(
            read_manifest_bytes(&long),
            Err(ShardError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn swapped_shard_file_is_detected() {
        let h = figure2();
        let stem = temp_stem("swapped");
        write_shards(&h, &stem, 2).unwrap();
        // Replace shard 1 with a regenerated snapshot of different content
        // but plausible shape: shard 0's file.
        std::fs::copy(shard_file_path(&stem, 0), shard_file_path(&stem, 1)).unwrap();
        let error = load_sharded(&stem).unwrap_err();
        assert!(
            matches!(
                error,
                ShardError::Corrupt {
                    section: "shard files",
                    ..
                }
            ),
            "{error:?}"
        );
        cleanup(&stem, 2);
    }

    #[test]
    fn missing_shard_file_is_io_error() {
        let h = figure2();
        let stem = temp_stem("missing");
        write_shards(&h, &stem, 2).unwrap();
        std::fs::remove_file(shard_file_path(&stem, 1)).unwrap();
        assert!(matches!(load_sharded(&stem), Err(ShardError::Io(_))));
        cleanup(&stem, 2);
    }
}
