//! `mochy-exp convert` and `mochy-exp snapshot-check` — dataset conversion
//! to the binary `.mochy` format and the CI round-trip gate over it.
//!
//! `convert` turns any supported text dataset (edge-list, or the Benson
//! nverts/simplices pair) into a `.mochy` snapshot. `snapshot-check` is the
//! CI stage: every [`mochy_datagen::bench_datasets`] workload is written as
//! text, converted to `.mochy`, and reloaded through both paths; the
//! [`MotifEngine`] reports of the two loads must be **bit-identical** for
//! both `Method::Exact` and `Method::Incremental`, and the per-dataset load
//! times of both formats are measured and reported. The `.mochy` files are
//! left behind in the chosen directory so CI can upload them as artifacts.
//!
//! [`MotifEngine`]: mochy_core::engine::MotifEngine

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use mochy_core::engine::{CountConfig, CountReport, Method};
use mochy_hypergraph::io::{self as hio, ReadOptions};
use mochy_hypergraph::{snapshot, Hypergraph};

/// Converts a text dataset to a `.mochy` snapshot.
///
/// `inputs` is either one path (edge-list text, or an existing snapshot —
/// the loader auto-detects, so `convert` can also re-seal a snapshot) or two
/// paths (Benson `nverts` then `simplices`). Returns a human-readable
/// summary line.
pub fn convert(inputs: &[String], output: &str) -> Result<String, String> {
    let hypergraph = match inputs {
        [input] => hio::read_file_auto(input)
            .map_err(|error| format!("failed to load `{input}`: {error}"))?,
        [nverts, simplices] => {
            let open = |path: &str| {
                std::fs::File::open(path)
                    .map(std::io::BufReader::new)
                    .map_err(|error| format!("failed to open `{path}`: {error}"))
            };
            hio::read_benson(open(nverts)?, open(simplices)?, ReadOptions::default())
                .map_err(|error| format!("failed to parse Benson pair: {error}"))?
        }
        _ => return Err("convert expects one input file (edge-list) or two (Benson)".to_string()),
    };
    snapshot::write_snapshot_file(&hypergraph, output)
        .map_err(|error| format!("failed to write `{output}`: {error}"))?;
    let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "wrote {output}: {} nodes, {} hyperedges, {} incidences ({bytes} bytes)",
        hypergraph.num_nodes(),
        hypergraph.num_edges(),
        hypergraph.num_incidences()
    ))
}

/// Cold-load timings of one dataset through both on-disk formats.
#[derive(Debug, Clone, Copy)]
pub struct LoadTiming {
    /// Best-of-N wall-clock to parse the text edge-list, in ms.
    pub text_ms: f64,
    /// Best-of-N wall-clock to decode the `.mochy` snapshot, in ms.
    pub snapshot_ms: f64,
    /// Nodes read back (must equal the source hypergraph's).
    pub loaded_nodes: usize,
    /// Hyperedges read back (must equal the source hypergraph's).
    pub loaded_edges: usize,
}

/// The two hypergraphs a [`measure_load`] run produced, plus its timings.
#[derive(Debug)]
pub struct MeasuredLoad {
    /// Best-of-N timings and read-back counts.
    pub timing: LoadTiming,
    /// The hypergraph the canonical *text* path loaded.
    pub from_text: Hypergraph,
    /// The hypergraph the *snapshot* path loaded (equal to
    /// [`MeasuredLoad::from_text`], enforced).
    pub from_snapshot: Hypergraph,
}

/// Writes `hypergraph` to `dir` as a text edge-list, converts the text file
/// to a `.mochy` snapshot exactly as the `convert` pipeline would, and times
/// [`hio::read_file_auto`] on each (minimum over `reps` runs — load cost is
/// what matters, and the minimum is the least noisy location estimate on a
/// shared CI machine). The two loaded hypergraphs must be identical or this
/// errors.
///
/// The snapshot is deliberately derived from the **text file**, not from the
/// in-memory hypergraph: the canonical text path deduplicates repeated
/// hyperedges (paper, Section 4.1), so a source with duplicates would
/// otherwise make the comparison apples-to-oranges. The text file is
/// removed afterwards; the `.mochy` file is **kept** (CI uploads it as an
/// artifact).
pub fn measure_load(
    hypergraph: &Hypergraph,
    dir: &Path,
    name: &str,
    reps: usize,
) -> Result<MeasuredLoad, String> {
    let text_path = dir.join(format!("{name}.txt"));
    let snapshot_path = dir.join(format!("{name}.mochy"));
    hio::write_edge_list_file(hypergraph, &text_path)
        .map_err(|error| format!("{name}: failed to write text: {error}"))?;

    let time_load = |path: &Path| -> Result<(f64, Hypergraph), String> {
        let mut best = f64::INFINITY;
        let mut loaded = None;
        for _ in 0..reps.max(1) {
            let started = Instant::now();
            let hypergraph = hio::read_file_auto(path)
                .map_err(|error| format!("{name}: failed to load {}: {error}", path.display()))?;
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
            loaded = Some(hypergraph);
        }
        Ok((best, loaded.expect("reps >= 1")))
    };
    let (text_ms, from_text) = time_load(&text_path)?;
    snapshot::write_snapshot_file(&from_text, &snapshot_path)
        .map_err(|error| format!("{name}: failed to write snapshot: {error}"))?;
    let (snapshot_ms, from_snapshot) = time_load(&snapshot_path)?;
    std::fs::remove_file(&text_path).ok();

    if from_text != from_snapshot {
        return Err(format!(
            "{name}: snapshot-loaded hypergraph differs from the text-loaded one"
        ));
    }
    Ok(MeasuredLoad {
        timing: LoadTiming {
            text_ms,
            snapshot_ms,
            loaded_nodes: from_snapshot.num_nodes(),
            loaded_edges: from_snapshot.num_edges(),
        },
        from_text,
        from_snapshot,
    })
}

/// The engine methods the round-trip gate compares. Both are exact, so any
/// report difference between the two load paths is a loader bug, not noise.
fn gate_methods() -> [Method; 2] {
    [Method::Exact, Method::Incremental]
}

fn count(hypergraph: &Hypergraph, method: Method, threads: usize) -> CountReport {
    CountConfig::new(method)
        .threads(threads)
        .seed(0)
        .build()
        .count(hypergraph)
}

/// Options of the `snapshot-check` stage.
#[derive(Debug, Clone)]
pub struct SnapshotCheckOptions {
    /// Directory the `.mochy` artifacts are written to.
    pub dir: String,
    /// Worker threads for the verification counts.
    pub threads: usize,
    /// Load-timing repetitions per format (best-of-N).
    pub reps: usize,
}

impl Default for SnapshotCheckOptions {
    fn default() -> Self {
        Self {
            dir: "snapshots".to_string(),
            threads: 2,
            reps: 3,
        }
    }
}

/// Runs the snapshot round-trip gate over every bench dataset.
///
/// For each dataset: write text + `.mochy`, reload both, and require the
/// reloaded hypergraphs — and the [`CountReport`]s of every
/// [`gate_methods`] run on them — to be bit-identical. Returns a table of
/// per-dataset load timings on success, or one line per violation.
pub fn snapshot_check(options: &SnapshotCheckOptions) -> Result<String, String> {
    let dir = Path::new(&options.dir);
    std::fs::create_dir_all(dir)
        .map_err(|error| format!("failed to create `{}`: {error}", dir.display()))?;
    let mut violations: Vec<String> = Vec::new();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<10} {:>8} {:>8} {:>12} {:>12} {:>9}",
        "dataset", "nodes", "edges", "text_ms", "snapshot_ms", "speedup"
    );
    for (name, original) in mochy_datagen::bench_datasets() {
        let measured = match measure_load(&original, dir, name, options.reps) {
            Ok(measured) => measured,
            Err(error) => {
                violations.push(error);
                continue;
            }
        };
        let timing = measured.timing;
        // The hypergraphs compared equal inside measure_load; now require
        // the engine reports to agree too, per method, across load paths —
        // this is the property the serve layer's correctness rests on.
        for method in gate_methods() {
            let expected = count(&measured.from_text, method, options.threads);
            let actual = count(&measured.from_snapshot, method, options.threads);
            if expected != actual {
                violations.push(format!(
                    "{name}/{}: snapshot-loaded counts diverge from text-loaded \
                     (total {} vs {})",
                    method.name(),
                    expected.counts.total(),
                    actual.counts.total()
                ));
            }
        }
        let _ = writeln!(
            table,
            "{:<10} {:>8} {:>8} {:>12.3} {:>12.3} {:>8.1}x",
            name,
            timing.loaded_nodes,
            timing.loaded_edges,
            timing.text_ms,
            timing.snapshot_ms,
            timing.text_ms / timing.snapshot_ms.max(1e-9)
        );
    }
    if violations.is_empty() {
        table.push_str("snapshot round-trip gate passed: all datasets bit-identical\n");
        Ok(table)
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mochy_exp_snapshot_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn convert_edge_list_then_load_matches() {
        let dir = temp_dir("convert");
        let text = dir.join("tiny.txt");
        let out = dir.join("tiny.mochy");
        std::fs::write(&text, "0 1 2\n0 1 3\n2 4 5\n").unwrap();
        let summary = convert(
            &[text.to_string_lossy().into_owned()],
            &out.to_string_lossy(),
        )
        .unwrap();
        assert!(summary.contains("3 hyperedges"), "{summary}");
        let loaded = hio::read_file_auto(&out).unwrap();
        assert_eq!(loaded.num_edges(), 3);
        assert_eq!(loaded.num_nodes(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_benson_pair() {
        let dir = temp_dir("benson");
        let nverts = dir.join("nverts.txt");
        let simplices = dir.join("simplices.txt");
        let out = dir.join("benson.mochy");
        std::fs::write(&nverts, "3\n2\n").unwrap();
        std::fs::write(&simplices, "0\n1\n2\n1\n3\n").unwrap();
        convert(
            &[
                nverts.to_string_lossy().into_owned(),
                simplices.to_string_lossy().into_owned(),
            ],
            &out.to_string_lossy(),
        )
        .unwrap();
        let loaded = hio::read_file_auto(&out).unwrap();
        assert_eq!(loaded.num_edges(), 2);
        assert_eq!(loaded.edge(0), &[0, 1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_rejects_missing_and_malformed_inputs() {
        let error = convert(&["/nonexistent/x.txt".to_string()], "/tmp/x.mochy").unwrap_err();
        assert!(error.contains("failed to load"), "{error}");
        assert!(convert(&[], "/tmp/x.mochy").is_err());
    }

    #[test]
    fn measure_load_round_trips_and_keeps_the_snapshot() {
        let dir = temp_dir("measure");
        let hypergraph = mochy_datagen::generate(&mochy_datagen::GeneratorConfig::new(
            mochy_datagen::DomainKind::Email,
            60,
            90,
            5,
        ));
        let measured = measure_load(&hypergraph, &dir, "tiny-email", 2).unwrap();
        let timing = measured.timing;
        // The canonical text path deduplicates repeated hyperedges, so the
        // read-back edge count may be at most the generated one.
        assert_eq!(timing.loaded_nodes, hypergraph.num_nodes());
        assert!(timing.loaded_edges > 0 && timing.loaded_edges <= hypergraph.num_edges());
        assert_eq!(measured.from_text, measured.from_snapshot);
        assert!(timing.text_ms > 0.0 && timing.snapshot_ms > 0.0);
        assert!(dir.join("tiny-email.mochy").exists(), "artifact removed");
        assert!(!dir.join("tiny-email.txt").exists(), "text not cleaned up");
        std::fs::remove_dir_all(&dir).ok();
    }
}
