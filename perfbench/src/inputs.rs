//! Seeded workload inputs: generation, the `.mochy` round trip the program
//! under test reads them through, and the input fingerprint that pins what
//! a workload means.

use std::path::{Path, PathBuf};

use mochy_datagen::{generate, DomainKind, GeneratorConfig};
use mochy_hypergraph::snapshot::{read_snapshot_bytes, write_snapshot_file};
use mochy_hypergraph::{EdgeId, Hypergraph, HypergraphBuilder, NodeId};
use mochy_json::JsonValue;
use mochy_projection::{project, ProjectedGraph};

/// The seed a workload's recorded fingerprint belongs to.
pub const DEFAULT_SEED: u64 = 0;

/// Fingerprints of every workload's default-seed input, one entry per
/// `workload` (full scale) and `workload@tiny`.
const RECORDED: &str = include_str!("../fingerprints.json");

/// How a workload's input is generated: disjoint `mochy_datagen` blocks of
/// one domain (duplicate hyperedges removed in each), added until the input
/// reaches `target`. The last block is cut to the shortest prefix of its
/// hyperedges that reaches the target, so every seed yields an input of
/// the same size in the measure that drives the workload's cost.
#[derive(Debug, Clone, Copy)]
pub struct Recipe {
    pub kind: DomainKind,
    /// Nodes per block.
    pub nodes: usize,
    /// Hyperedges generated per block, before duplicates are removed.
    pub edges: usize,
    pub target: Target,
}

/// The size an input is generated up to.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// MoCHy-E neighbour-pair visits ([`pair_visits`]).
    PairVisits(u64),
    /// Hyperwedges of the projected graph.
    Hyperwedges(u64),
}

impl Target {
    fn goal(self) -> u64 {
        match self {
            Target::PairVisits(goal) | Target::Hyperwedges(goal) => goal,
        }
    }

    fn size(self, hypergraph: &Hypergraph) -> u64 {
        let projected = project(hypergraph);
        match self {
            Target::PairVisits(_) => pair_visits(&projected),
            Target::Hyperwedges(_) => projected.num_hyperwedges() as u64,
        }
    }
}

/// Size of an input as read back from the decoded `.mochy` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub nodes: usize,
    pub edges: usize,
    pub hyperwedges: usize,
    pub pair_visits: u64,
}

impl Fingerprint {
    pub fn of(hypergraph: &Hypergraph, projected: &ProjectedGraph) -> Self {
        Self {
            nodes: hypergraph.num_nodes(),
            edges: hypergraph.num_edges(),
            hyperwedges: projected.num_hyperwedges(),
            pair_visits: pair_visits(projected),
        }
    }

    pub fn to_json(self) -> String {
        format!(
            "{{\"nodes\": {}, \"edges\": {}, \"hyperwedges\": {}, \"pair_visits\": {}}}",
            self.nodes, self.edges, self.hyperwedges, self.pair_visits
        )
    }

    fn from_json(value: &JsonValue) -> Option<Self> {
        Some(Self {
            nodes: value.get("nodes")?.as_usize()?,
            edges: value.get("edges")?.as_usize()?,
            hyperwedges: value.get("hyperwedges")?.as_usize()?,
            pair_visits: value.get("pair_visits")?.as_u64()?,
        })
    }
}

/// Neighbour pairs `{e_j, e_k}` MoCHy-E visits: Σ over hyperedges of
/// C(deg, 2) in the projected graph. Computed, not counted by the program.
pub fn pair_visits(projected: &ProjectedGraph) -> u64 {
    (0..projected.num_edges() as EdgeId)
        .map(|e| {
            let degree = projected.degree(e) as u64;
            degree * degree.saturating_sub(1) / 2
        })
        .sum()
}

/// A generated input after its `.mochy` round trip.
pub struct Input {
    /// The `.mochy` file's bytes, as the program reads them.
    pub bytes: Vec<u8>,
    /// The decoded hypergraph.
    pub hypergraph: Hypergraph,
    pub fingerprint: Fingerprint,
}

/// Generates the input for `seed`, writes it as a `.mochy` file in `work`,
/// reads the bytes back, removes the file, and decodes and fingerprints
/// the bytes.
pub fn materialize(recipe: Recipe, seed: u64, work: &Path, tag: &str) -> Result<Input, String> {
    let generated = generate_input(recipe, seed);
    let path = work.join(format!("{tag}-{seed}-{}.mochy", std::process::id()));
    write_snapshot_file(&generated, &path).map_err(|e| format!("writing {path:?}: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path:?}: {e}"))?;
    std::fs::remove_file(&path).map_err(|e| format!("removing {path:?}: {e}"))?;
    let hypergraph = read_snapshot_bytes(&bytes).map_err(|e| format!("decoding input: {e}"))?;
    if hypergraph != generated {
        return Err("the .mochy round trip changed the input".to_string());
    }
    let fingerprint = Fingerprint::of(&hypergraph, &project(&hypergraph));
    Ok(Input {
        bytes,
        hypergraph,
        fingerprint,
    })
}

/// Checks the default-seed input of `key` against its recorded fingerprint,
/// so a change to the generators shows up as a changed workload instead of
/// a speed-up.
pub fn check_recorded(key: &str, recipe: Recipe, work: &Path) -> Result<(), String> {
    let observed = materialize(recipe, DEFAULT_SEED, work, key)?.fingerprint;
    let recorded = mochy_json::parse(RECORDED)
        .ok()
        .and_then(|all| all.get(key).and_then(Fingerprint::from_json));
    match recorded {
        Some(recorded) if recorded == observed => Ok(()),
        Some(recorded) => Err(format!(
            "input drift for `{key}` at seed {DEFAULT_SEED}: recorded {}, generated {}",
            recorded.to_json(),
            observed.to_json()
        )),
        None => Err(format!(
            "no recorded fingerprint for `{key}` in fingerprints.json; generated {}",
            observed.to_json()
        )),
    }
}

/// The scratch directory for `.mochy` files and trace output, inside the
/// directory the benchmark runs from.
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    Ok(dir)
}

fn generate_input(recipe: Recipe, seed: u64) -> Hypergraph {
    let goal = recipe.target.goal();
    let mut union = HypergraphBuilder::new();
    let mut reached = 0u64;
    let mut block = 0u64;
    while reached < goal {
        let config =
            GeneratorConfig::new(recipe.kind, recipe.nodes, recipe.edges, mix(seed, block));
        let mut part = dedup(&generate(&config));
        let mut size = recipe.target.size(&part);
        if reached + size > goal {
            // The shortest prefix that reaches the goal; both measures only
            // grow as hyperedges are added.
            let (mut low, mut high) = (1, part.num_edges());
            while low < high {
                let mid = (low + high) / 2;
                if reached + recipe.target.size(&prefix(&part, mid)) >= goal {
                    high = mid;
                } else {
                    low = mid + 1;
                }
            }
            part = prefix(&part, low);
            size = recipe.target.size(&part);
        }
        reached += size;
        // Blocks are disjoint, so the union's size is the sum of theirs.
        let offset = (block as usize * recipe.nodes) as NodeId;
        union.extend_edges(
            part.edges()
                .map(|(_, members)| members.iter().map(move |&v| v + offset)),
        );
        block += 1;
    }
    union.build().expect("every block has hyperedges")
}

/// The first `len` hyperedges of `hypergraph`.
fn prefix(hypergraph: &Hypergraph, len: usize) -> Hypergraph {
    let mut builder = HypergraphBuilder::new();
    builder.extend_edges(
        hypergraph
            .edges()
            .take(len)
            .map(|(_, members)| members.iter().copied()),
    );
    builder
        .build()
        .expect("a prefix keeps at least one hyperedge")
}

fn dedup(hypergraph: &Hypergraph) -> Hypergraph {
    let mut builder = HypergraphBuilder::new().dedup_hyperedges(true);
    builder.extend_edges(
        hypergraph
            .edges()
            .map(|(_, members)| members.iter().copied()),
    );
    builder
        .build()
        .expect("deduplication keeps at least one hyperedge")
}

/// SplitMix64 of `seed` and `index`: independent generator seeds per block.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
