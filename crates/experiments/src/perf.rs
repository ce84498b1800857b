//! `mochy-exp perf` — the deterministic perf-smoke harness behind
//! `BENCH.json`, and the table of the perf-regression gate behind `--check`.
//!
//! Times projection and counting separately (via the engine's per-stage
//! [`CountReport`](mochy_core::CountReport) timings) for all six counting
//! methods — MoCHy-E, streamed-incremental, MoCHy-A, MoCHy-A+, adaptive
//! MoCHy-A+, and on-the-fly MoCHy-A+ — plus a sharded-exact row
//! (`mochy-e-sharded`, MoCHy-E over K = 4 centre spans, merged) on every
//! [`mochy_datagen::bench_datasets`] workload, and renders the result as
//! machine-readable JSON. Seeds are fixed, so the *counts* in the output are
//! bit-reproducible; the timings are what CI tracks over time as the
//! `BENCH_*.json` trajectory. Each dataset block also carries a `load`
//! section timing the cold-start path — parsing the text edge-list vs
//! decoding the `.mochy` binary snapshot — so the snapshot speedup is
//! measured on every run, not asserted once.
//!
//! [`GATE`] describes the document to [`crate::gate`], which compares the
//! current run against the committed `BENCH_BASELINE.json`: any count or
//! shape mismatch fails (those are deterministic — a mismatch is a
//! correctness bug or an unacknowledged behaviour change), and so does a
//! timing regression beyond the tolerance (those are noisy — the tolerance is
//! generous and timings under the noise floor are skipped).

use mochy_core::engine::{CountConfig, Method};
use mochy_core::{AdaptiveConfig, MotifCounts};
use mochy_hypergraph::Hypergraph;
use mochy_projection::MemoPolicy;

use crate::gate::{Block, Class, Document, Nested, Rows};
use crate::json;
use crate::snapshot::{measure_load, LoadTiming};

/// Configuration of a perf run. Everything is fixed/deterministic except
/// wall-clock timings.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Worker threads for projection and counting (0 and 1 mean sequential).
    pub threads: usize,
    /// Samples per sampling method.
    pub samples: usize,
    /// RNG seed shared by every sampling run.
    pub seed: u64,
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self {
            threads: 4,
            samples: 2_000,
            seed: 0,
        }
    }
}

/// The methods of the perf matrix, keyed by their stable report names.
fn perf_methods(options: &PerfOptions) -> Vec<Method> {
    vec![
        Method::Exact,
        Method::Incremental,
        Method::EdgeSample {
            samples: options.samples,
        },
        Method::WedgeSample {
            samples: options.samples,
        },
        Method::Adaptive(AdaptiveConfig {
            batch_size: (options.samples / 8).max(1),
            min_batches: 2,
            max_batches: 8,
            target_relative_error: 0.05,
        }),
        Method::OnTheFly {
            samples: options.samples,
            budget_entries: 4_096,
            policy: MemoPolicy::Lru,
        },
    ]
}

/// One timed engine run in the output matrix.
struct MethodRow {
    method_name: &'static str,
    projection_ms: f64,
    counting_ms: f64,
    total_ms: f64,
    samples_drawn: Option<usize>,
    counts: MotifCounts,
}

/// One dataset block in the output.
struct DatasetBlock {
    name: String,
    num_nodes: usize,
    num_edges: usize,
    num_hyperwedges: Option<usize>,
    /// Cold-load timings, text vs `.mochy` snapshot (see
    /// [`crate::snapshot::measure_load`]). `None` only if the scratch
    /// directory could not be used.
    load: Option<LoadTiming>,
    rows: Vec<MethodRow>,
}

/// Best-of-N repetitions for the load-timing rows (loads are fast, so the
/// minimum over a few runs is the stable location estimate).
const LOAD_REPS: usize = 3;

/// Shard count of the `mochy-e-sharded` perf row.
const SHARDED_K: usize = 4;

fn run_dataset(name: &str, hypergraph: &Hypergraph, options: &PerfOptions) -> DatasetBlock {
    // Load timings go through real files in a scratch directory (cleaned
    // afterwards): the point is to time the actual cold-start path the
    // serve layer takes, I/O included. The directory is unique per call —
    // process id alone would let concurrently running tests in one process
    // race each other's cleanup.
    static SCRATCH_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let scratch = std::env::temp_dir().join(format!(
        "mochy-perf-load-{}-{}",
        std::process::id(),
        SCRATCH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let load = std::fs::create_dir_all(&scratch)
        .ok()
        .and_then(|()| measure_load(hypergraph, &scratch, name, LOAD_REPS).ok())
        .map(|measured| measured.timing);
    std::fs::remove_dir_all(&scratch).ok();
    let mut block = DatasetBlock {
        name: name.to_string(),
        num_nodes: hypergraph.num_nodes(),
        num_edges: hypergraph.num_edges(),
        num_hyperwedges: None,
        load,
        rows: Vec::new(),
    };
    for method in perf_methods(options) {
        let report = CountConfig::new(method)
            .threads(options.threads)
            .seed(options.seed)
            .build()
            .count(hypergraph);
        if block.num_hyperwedges.is_none() {
            block.num_hyperwedges = report.num_hyperwedges;
        }
        block.rows.push(MethodRow {
            method_name: method.name(),
            projection_ms: report.projection_time.as_secs_f64() * 1e3,
            counting_ms: report.counting_time.as_secs_f64() * 1e3,
            total_ms: report.elapsed.as_secs_f64() * 1e3,
            samples_drawn: report.samples_drawn,
            counts: report.counts,
        });
    }
    // Sharded-exact row: the same Method::Exact split into K centre spans
    // and merged. Its `total_count` must equal the `mochy-e` row's
    // bit-for-bit, so the baseline comparison doubles as a standing
    // shard-equivalence check inside the perf gate.
    let report = CountConfig::new(Method::Exact)
        .threads(options.threads)
        .seed(options.seed)
        .shards(SHARDED_K)
        .expect("shards on Method::Exact is always accepted")
        .build()
        .count(hypergraph);
    block.rows.push(MethodRow {
        method_name: "mochy-e-sharded",
        projection_ms: report.projection_time.as_secs_f64() * 1e3,
        counting_ms: report.counting_time.as_secs_f64() * 1e3,
        total_ms: report.elapsed.as_secs_f64() * 1e3,
        samples_drawn: report.samples_drawn,
        counts: report.counts,
    });
    block
}

/// Runs the perf matrix on explicit `(name, hypergraph)` workloads and
/// renders the JSON document. [`run`] feeds it the standard bench datasets.
pub fn run_on(datasets: &[(&str, Hypergraph)], options: &PerfOptions) -> String {
    let blocks: Vec<DatasetBlock> = datasets
        .iter()
        .map(|(name, hypergraph)| run_dataset(name, hypergraph, options))
        .collect();
    render_json(&blocks, options)
}

/// Runs the perf matrix on the [`mochy_datagen::bench_datasets`] workloads and
/// returns the `BENCH.json` document.
pub fn run(options: &PerfOptions) -> String {
    let datasets = mochy_datagen::bench_datasets();
    run_on(&datasets, options)
}

fn render_json(blocks: &[DatasetBlock], options: &PerfOptions) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mochy-perf/2\",\n");
    out.push_str(&format!("  \"threads\": {},\n", options.threads.max(1)));
    out.push_str(&format!("  \"samples\": {},\n", options.samples));
    out.push_str(&format!("  \"seed\": {},\n", options.seed));
    out.push_str("  \"datasets\": [\n");
    for (d, block) in blocks.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            escape_json(&block.name)
        ));
        out.push_str(&format!("      \"num_nodes\": {},\n", block.num_nodes));
        out.push_str(&format!("      \"num_edges\": {},\n", block.num_edges));
        out.push_str(&format!(
            "      \"num_hyperwedges\": {},\n",
            block
                .num_hyperwedges
                .map_or_else(|| "null".to_string(), |w| w.to_string())
        ));
        match &block.load {
            Some(load) => {
                out.push_str("      \"load\": {\n");
                out.push_str(&format!(
                    "        \"text_ms\": {},\n",
                    json_number(load.text_ms)
                ));
                out.push_str(&format!(
                    "        \"snapshot_ms\": {},\n",
                    json_number(load.snapshot_ms)
                ));
                out.push_str(&format!(
                    "        \"loaded_nodes\": {},\n",
                    load.loaded_nodes
                ));
                out.push_str(&format!(
                    "        \"loaded_edges\": {}\n",
                    load.loaded_edges
                ));
                out.push_str("      },\n");
            }
            None => out.push_str("      \"load\": null,\n"),
        }
        out.push_str("      \"methods\": [\n");
        for (m, row) in block.rows.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!(
                "          \"method\": \"{}\",\n",
                escape_json(row.method_name)
            ));
            out.push_str(&format!(
                "          \"projection_ms\": {},\n",
                json_number(row.projection_ms)
            ));
            out.push_str(&format!(
                "          \"counting_ms\": {},\n",
                json_number(row.counting_ms)
            ));
            out.push_str(&format!(
                "          \"total_ms\": {},\n",
                json_number(row.total_ms)
            ));
            out.push_str(&format!(
                "          \"samples_drawn\": {},\n",
                row.samples_drawn
                    .map_or_else(|| "null".to_string(), |s| s.to_string())
            ));
            out.push_str(&format!(
                "          \"counts_fnv\": \"{}\",\n",
                counts_fnv(&row.counts)
            ));
            out.push_str(&format!(
                "          \"total_count\": {}\n",
                json_number(row.counts.total())
            ));
            out.push_str(if m + 1 < block.rows.len() {
                "        },\n"
            } else {
                "        }\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if d + 1 < blocks.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The perf gate's table for `BENCH.json`: counts, shapes and read-backs are
/// exact, `counts_fnv` pins all 26 counts of a method row bit for bit, and
/// the cold-load and end-to-end timings are gated with a 500% tolerance.
/// `projection_ms` and `counting_ms` are reported but not gated.
pub const GATE: Document = Document {
    name: "perf",
    config: &["schema", "threads", "samples", "seed"],
    tolerance_pct: 500.0,
    top: Block {
        fields: &[],
        blocks: &[],
        rows: &[Rows {
            key: "datasets",
            kind: "dataset",
            id: "name",
            row: Block {
                fields: &[
                    ("num_nodes", Class::Exact),
                    ("num_edges", Class::Exact),
                    ("num_hyperwedges", Class::Exact),
                ],
                // `null` when the scratch directory could not be used.
                blocks: &[Nested {
                    key: "load",
                    optional: true,
                    block: Block {
                        fields: &[
                            ("loaded_nodes", Class::Exact),
                            ("loaded_edges", Class::Exact),
                            ("text_ms", Class::Timing),
                            ("snapshot_ms", Class::Timing),
                        ],
                        blocks: &[],
                        rows: &[],
                    },
                }],
                rows: &[Rows {
                    key: "methods",
                    kind: "method",
                    id: "method",
                    row: Block {
                        fields: &[
                            ("total_count", Class::Exact),
                            ("counts_fnv", Class::Exact),
                            ("samples_drawn", Class::Exact),
                            ("total_ms", Class::Timing),
                        ],
                        blocks: &[],
                        rows: &[],
                    },
                }],
            },
        }],
    },
};

/// Formats a finite `f64` as a JSON number (JSON has no NaN/Infinity; the
/// perf matrix never produces them, but clamp defensively).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

/// FNV-1a 64 over the 26 counts' `f64::to_bits` in little-endian bytes, as 16
/// lowercase hex digits (a string: a `u64` does not fit a JSON number
/// exactly). Equal fingerprints mean bit-identical counts with overwhelming
/// likelihood, where equal `total_count`s only mean equal rounded sums.
fn counts_fnv(counts: &MotifCounts) -> String {
    let hash = counts
        .as_slice()
        .iter()
        .flat_map(|count| count.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{hash:016x}")
}

/// Escapes a string for embedding in a JSON document (shared with the serve
/// layer through [`mochy_json`]).
fn escape_json(text: &str) -> String {
    json::escape(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;
    use crate::json::JsonValue;
    use mochy_datagen::{generate, DomainKind, GeneratorConfig};

    /// The perf gate, as `mochy-exp perf --check` runs it.
    fn check(baseline: &str, current: &str) -> Result<String, String> {
        gate::check(&GATE, baseline, current)
    }

    fn tiny_options() -> PerfOptions {
        PerfOptions {
            threads: 2,
            samples: 200,
            seed: 0,
        }
    }

    fn tiny_dataset() -> (&'static str, Hypergraph) {
        (
            "tiny-email",
            generate(&GeneratorConfig::new(DomainKind::Email, 60, 90, 5)),
        )
    }

    #[test]
    fn perf_json_is_valid_and_covers_all_method_rows() {
        let datasets = vec![tiny_dataset()];
        let json = run_on(&datasets, &tiny_options());
        json::validate(&json).expect("perf output must be valid JSON");
        for name in [
            "mochy-e",
            "incremental",
            "mochy-a\"",
            "mochy-a+\"",
            "mochy-a+-adaptive",
            "mochy-a+-otf",
            "mochy-e-sharded",
        ] {
            assert!(json.contains(name), "missing method {name} in:\n{json}");
        }
        for key in [
            "\"schema\"",
            "\"projection_ms\"",
            "\"counting_ms\"",
            "\"total_ms\"",
            "\"num_hyperwedges\"",
            "\"samples_drawn\"",
            "\"counts_fnv\"",
            "\"total_count\"",
            "\"load\"",
            "\"text_ms\"",
            "\"snapshot_ms\"",
            "\"loaded_nodes\"",
            "\"loaded_edges\"",
        ] {
            assert!(json.contains(key), "missing key {key}");
        }
    }

    #[test]
    fn load_rows_read_back_the_generated_counts() {
        let datasets = vec![tiny_dataset()];
        let expected_nodes = datasets[0].1.num_nodes() as f64;
        let expected_edges = datasets[0].1.num_edges() as f64;
        let report = json::parse(&run_on(&datasets, &tiny_options())).unwrap();
        let dataset = &report.get("datasets").unwrap().as_array().unwrap()[0];
        let load = dataset.get("load").expect("load block");
        assert_eq!(
            load.get("loaded_nodes").and_then(JsonValue::as_f64),
            Some(expected_nodes)
        );
        // The canonical text path dedups repeated hyperedges, so the edge
        // count read back is at most the generated one (and deterministic).
        let loaded_edges = load
            .get("loaded_edges")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!(
            loaded_edges > 0.0 && loaded_edges <= expected_edges,
            "loaded_edges = {loaded_edges}, generated = {expected_edges}"
        );
        for key in ["text_ms", "snapshot_ms"] {
            let value = load.get(key).and_then(JsonValue::as_f64).unwrap();
            assert!(value >= 0.0, "{key} = {value}");
        }
    }

    #[test]
    fn perf_counts_are_deterministic_across_runs() {
        // Timings differ between runs; everything else must not. Compare the
        // JSON after zeroing the *_ms fields.
        let datasets = vec![tiny_dataset()];
        let strip = |json: &str| -> String {
            json.lines()
                .filter(|line| !line.contains("_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let first = run_on(&datasets, &tiny_options());
        let second = run_on(&datasets, &tiny_options());
        assert_eq!(strip(&first), strip(&second));
    }

    #[test]
    fn json_escaping_and_number_formatting() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_number(1.5), "1.500");
        assert_eq!(json_number(f64::NAN), "null");
        json::validate("{\"a\": [1, 2.5, null, \"x\"]}").unwrap();
        assert!(json::validate("{\"a\": }").is_err());
        assert!(json::validate("[1, 2").is_err());
    }

    #[test]
    fn exact_and_incremental_rows_agree() {
        // The streamed-incremental method is exact: its total_count must
        // match MoCHy-E's on every dataset of the matrix.
        let datasets = vec![tiny_dataset()];
        let report = json::parse(&run_on(&datasets, &tiny_options())).unwrap();
        let methods = report.get("datasets").unwrap().as_array().unwrap()[0]
            .get("methods")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        let row = |name: &str| {
            methods
                .iter()
                .find(|r| r.get("method").and_then(JsonValue::as_str) == Some(name))
                .unwrap()
        };
        let total = |name: &str| row(name).get("total_count").and_then(JsonValue::as_f64);
        let fnv = |name: &str| row(name).get("counts_fnv").and_then(JsonValue::as_str);
        assert_eq!(total("mochy-e"), total("incremental"));
        assert_eq!(fnv("mochy-e"), fnv("incremental"));
        // The scatter-gather row is exact too: bit-identical to MoCHy-E.
        assert_eq!(total("mochy-e"), total("mochy-e-sharded"));
        assert_eq!(fnv("mochy-e"), fnv("mochy-e-sharded"));
    }

    #[test]
    fn check_passes_against_itself_and_catches_count_drift() {
        let datasets = vec![tiny_dataset()];
        let baseline = run_on(&datasets, &tiny_options());
        let current = run_on(&datasets, &tiny_options());
        let summary = check(&baseline, &current).expect("identical runs must pass");
        assert!(summary.contains("perf gate passed"));

        // Any count drift is fatal, regardless of timing tolerance.
        let tampered = baseline.replacen("\"total_count\": ", "\"total_count\": 1", 1);
        let error = check(&baseline, &tampered).unwrap_err();
        assert!(error.contains("`total_count` changed"), "{error}");
    }

    /// Swapping two closed-motif counts keeps `total_count` but not
    /// `counts_fnv`, and a row without `counts_fnv` fails on either side.
    #[test]
    fn check_pins_every_count_not_only_their_sum() {
        let closed = mochy_motif::MotifCatalog::new().closed_motif_ids();
        let (a, b) = (closed[0], closed[1]);
        let mut counts = MotifCounts::zero();
        counts.set(a, 3.0);
        counts.set(b, 5.0);
        let mut swapped = counts.clone();
        swapped.set(a, 5.0);
        swapped.set(b, 3.0);
        let document = |counts: MotifCounts| {
            let row = MethodRow {
                method_name: "mochy-e",
                projection_ms: 0.2,
                counting_ms: 0.8,
                total_ms: 1.0,
                samples_drawn: None,
                counts,
            };
            let block = DatasetBlock {
                name: "d".to_string(),
                num_nodes: 4,
                num_edges: 3,
                num_hyperwedges: Some(3),
                load: None,
                rows: vec![row],
            };
            render_json(&[block], &tiny_options())
        };
        let baseline = document(counts);
        let current = document(swapped);
        assert!(check(&baseline, &baseline).is_ok());
        let error = check(&baseline, &current).unwrap_err();
        assert!(error.contains("`counts_fnv` changed"), "{error}");
        assert!(!error.contains("total_count"), "{error}");

        let unpinned: String = baseline
            .lines()
            .filter(|line| !line.contains("counts_fnv"))
            .collect::<Vec<_>>()
            .join("\n");
        for (base, cur) in [(&unpinned, &baseline), (&baseline, &unpinned)] {
            let error = check(base, cur).unwrap_err();
            assert!(error.contains("missing key `counts_fnv`"), "{error}");
        }
    }

    #[test]
    fn check_catches_timing_regressions_beyond_tolerance_only() {
        let baseline = r#"{
            "schema": "mochy-perf/1", "threads": 2, "samples": 200, "seed": 0,
            "datasets": [{
                "name": "d", "num_nodes": 1, "num_edges": 1, "num_hyperwedges": 0,
                "methods": [{
                    "method": "mochy-e", "projection_ms": 1.0, "counting_ms": 99.0,
                    "total_ms": 100.0, "samples_drawn": null,
                    "counts_fnv": "5ca1ab1e5ca1ab1e", "total_count": 5
                }]
            }]
        }"#;
        let slow = baseline.replace("\"total_ms\": 100.0", "\"total_ms\": 260.0");
        let very_slow = baseline.replace("\"total_ms\": 100.0", "\"total_ms\": 2600.0");
        // 2.6x is inside the 500% (= 6x) tolerance; 26x is not.
        assert!(check(baseline, &slow).is_ok());
        let error = check(baseline, &very_slow).unwrap_err();
        assert!(error.contains("`total_ms` regression"), "{error}");
        // Below the 20 ms noise floor, even huge relative slowdowns are
        // ignored.
        let floored = baseline.replace("\"total_ms\": 100.0", "\"total_ms\": 10.0");
        assert!(check(&floored, &very_slow).is_ok());
    }

    /// A hand-written one-row matrix whose timing sits far below the default
    /// 20 ms floor, so its timing comparison is always skipped.
    fn sub_floor_baseline() -> &'static str {
        r#"{
            "schema": "mochy-perf/1", "threads": 2, "samples": 200, "seed": 0,
            "datasets": [{
                "name": "d", "num_nodes": 4, "num_edges": 3, "num_hyperwedges": 9,
                "methods": [{
                    "method": "mochy-e", "projection_ms": 0.2, "counting_ms": 0.8,
                    "total_ms": 1.0, "samples_drawn": null,
                    "counts_fnv": "5ca1ab1e5ca1ab1e", "total_count": 5
                }]
            }]
        }"#
    }

    #[test]
    fn deterministic_drift_is_fatal_even_on_timing_skipped_rows() {
        let baseline = sub_floor_baseline();
        // Sanity: the row really is under the floor (summary reports the skip)
        // and an identical run passes.
        let summary = check(baseline, baseline).unwrap();
        assert!(summary.contains("1 timing(s) under"), "{summary}");

        // Count drift on the skipped-timing row is still fatal…
        let drifted = baseline.replace("\"total_count\": 5", "\"total_count\": 6");
        let error = check(baseline, &drifted).unwrap_err();
        assert!(error.contains("`total_count` changed"), "{error}");
        // …as is samples_drawn drift…
        let drifted = baseline.replace("\"samples_drawn\": null", "\"samples_drawn\": 100");
        let error = check(baseline, &drifted).unwrap_err();
        assert!(error.contains("`samples_drawn` changed"), "{error}");
        // …and hyperwedge drift at the dataset level.
        let drifted = baseline.replace("\"num_hyperwedges\": 9", "\"num_hyperwedges\": 8");
        let error = check(baseline, &drifted).unwrap_err();
        assert!(error.contains("`num_hyperwedges` changed"), "{error}");
    }

    /// A one-row matrix with an explicit load block whose timings sit above
    /// the default 20 ms floor, so the load-timing comparison actually runs.
    fn load_row_baseline() -> &'static str {
        r#"{
            "schema": "mochy-perf/2", "threads": 2, "samples": 200, "seed": 0,
            "datasets": [{
                "name": "d", "num_nodes": 4, "num_edges": 3, "num_hyperwedges": 9,
                "load": {
                    "text_ms": 80.0, "snapshot_ms": 40.0,
                    "loaded_nodes": 4, "loaded_edges": 3
                },
                "methods": [{
                    "method": "mochy-e", "projection_ms": 0.2, "counting_ms": 0.8,
                    "total_ms": 1.0, "samples_drawn": null,
                    "counts_fnv": "5ca1ab1e5ca1ab1e", "total_count": 5
                }]
            }]
        }"#
    }

    #[test]
    fn load_rows_gate_deterministic_fields_and_timings() {
        let baseline = load_row_baseline();
        assert!(check(baseline, baseline).is_ok());

        // Read-back count drift is fatal regardless of timings.
        let drifted = baseline.replace("\"loaded_edges\": 3", "\"loaded_edges\": 2");
        let error = check(baseline, &drifted).unwrap_err();
        assert!(error.contains("`loaded_edges` changed"), "{error}");

        // Load-timing regressions obey the same tolerance as method rows.
        let slower = baseline.replace("\"snapshot_ms\": 40.0", "\"snapshot_ms\": 100.0");
        assert!(check(baseline, &slower).is_ok(), "within 6x");
        let way_slower = baseline.replace("\"snapshot_ms\": 40.0", "\"snapshot_ms\": 400.0");
        let error = check(baseline, &way_slower).unwrap_err();
        assert!(error.contains("`snapshot_ms` regression"), "{error}");

        // …and the same noise floor.
        let floored = baseline.replace("\"snapshot_ms\": 40.0", "\"snapshot_ms\": 10.0");
        assert!(check(&floored, &way_slower).is_ok());

        // A current run that lost its load block entirely fails.
        let missing = baseline.replace(
            "\"load\": {\n                    \"text_ms\": 80.0, \"snapshot_ms\": 40.0,\n                    \"loaded_nodes\": 4, \"loaded_edges\": 3\n                },",
            "\"load\": null,",
        );
        assert_ne!(missing, baseline, "replacement must have matched");
        let error = check(baseline, &missing).unwrap_err();
        assert!(
            error.contains("`load`: missing from current run"),
            "{error}"
        );
    }

    #[test]
    fn missing_baseline_rows_fail_instead_of_vanishing() {
        let baseline = sub_floor_baseline();
        // A current run whose only dataset lost its method rows: the
        // baseline row must be reported missing, not silently skipped.
        let no_rows = baseline.replace("\"methods\": [{", "\"methods\": [], \"ignored\": [{");
        let error = check(baseline, &no_rows).unwrap_err();
        assert!(
            error.contains("method `mochy-e`: missing from current run"),
            "{error}"
        );
        // A current run missing the whole dataset fails likewise.
        let renamed = baseline.replace("\"name\": \"d\"", "\"name\": \"other\"");
        let error = check(baseline, &renamed).unwrap_err();
        assert!(error.contains("dataset `d`: missing"), "{error}");
        // …and the renamed dataset, which the baseline lacks, fails too.
        assert!(
            error.contains("dataset `other`: not in the baseline"),
            "{error}"
        );
    }

    #[test]
    fn vacuous_baselines_fail_the_gate() {
        // Empty `datasets` array on both sides: nothing compares, which must
        // be a failure, not a pass.
        let empty = r#"{"schema": "mochy-perf/1", "threads": 2, "samples": 200,
                        "seed": 0, "datasets": []}"#;
        let error = check(empty, empty).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
        // Same for a baseline with no `datasets` key at all.
        let keyless = r#"{"schema": "mochy-perf/1", "threads": 2, "samples": 200, "seed": 0}"#;
        let error = check(keyless, keyless).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
        // And for a baseline whose datasets hold empty method lists.
        let no_rows =
            sub_floor_baseline().replace("\"methods\": [{", "\"methods\": [], \"ignored\": [{");
        let error = check(&no_rows, &no_rows).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
    }

    #[test]
    fn check_catches_config_and_coverage_mismatches() {
        let datasets = vec![tiny_dataset()];
        let baseline = run_on(&datasets, &tiny_options());

        let other_threads = run_on(
            &datasets,
            &PerfOptions {
                threads: 1,
                ..tiny_options()
            },
        );
        let error = check(&baseline, &other_threads).unwrap_err();
        assert!(
            error.contains("configuration: `threads` changed"),
            "{error}"
        );

        let missing_method = baseline.replacen("\"incremental\"", "\"renamed\"", 1);
        let error = check(&baseline, &missing_method).unwrap_err();
        assert!(error.contains("missing from current run"), "{error}");

        let empty = r#"{"schema": "mochy-perf/1", "threads": 2, "samples": 200,
                        "seed": 0, "datasets": []}"#;
        let error = check(&baseline, empty).unwrap_err();
        assert!(error.contains("missing from current run"), "{error}");
    }
}
