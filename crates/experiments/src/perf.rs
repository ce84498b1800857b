//! `mochy-exp perf` — the deterministic perf-smoke harness behind
//! `BENCH.json`, and the CI perf-regression gate behind `--check`.
//!
//! Times projection and counting separately (via the engine's per-stage
//! [`CountReport`](mochy_core::CountReport) timings) for all six counting
//! methods — MoCHy-E, streamed-incremental, MoCHy-A, MoCHy-A+, adaptive
//! MoCHy-A+, and on-the-fly MoCHy-A+ — plus a sharded-exact row
//! (`mochy-e-sharded`, MoCHy-E over K = 4 centre spans, merged) on every
//! [`mochy_bench::bench_datasets`] workload, and renders the result as
//! machine-readable JSON. Seeds are fixed, so the *counts* in the output are
//! bit-reproducible; the timings are what CI tracks over time as the
//! `BENCH_*.json` trajectory. Each dataset block also carries a `load`
//! section timing the cold-start path — parsing the text edge-list vs
//! decoding the `.mochy` binary snapshot — so the snapshot speedup is
//! measured on every run, not asserted once.
//!
//! [`check`] turns the matrix into a regression gate: the current run is
//! compared against a committed baseline (`BENCH_BASELINE.json`), failing on
//! **any** count/shape mismatch (those are deterministic — a mismatch is a
//! correctness bug or an unacknowledged behaviour change) and on timing
//! regressions beyond a configurable tolerance (those are noisy — the
//! tolerance is generous and rows faster than a floor are skipped).

use mochy_core::engine::{CountConfig, Method};
use mochy_core::AdaptiveConfig;
use mochy_hypergraph::Hypergraph;
use mochy_projection::MemoPolicy;

use crate::json::{self, JsonValue};
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
    total_count: f64,
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
            total_count: report.counts.total(),
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
        total_count: report.counts.total(),
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

/// Runs the perf matrix on the [`mochy_bench::bench_datasets`] workloads and
/// returns the `BENCH.json` document.
pub fn run(options: &PerfOptions) -> String {
    let datasets = mochy_bench::bench_datasets();
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
                "          \"total_count\": {}\n",
                json_number(row.total_count)
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

/// Options of the perf-regression gate (`mochy-exp perf --check`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOptions {
    /// Maximum tolerated slowdown of `total_ms` over the baseline, in
    /// percent. Timings are noisy across machines and runs, so the default
    /// is deliberately generous — the gate is meant to catch order-of-
    /// magnitude regressions, not 10% jitter. Count mismatches are always
    /// fatal regardless of this setting.
    pub tolerance_pct: f64,
    /// Baseline rows whose `total_ms` is below this floor are exempt from
    /// the timing comparison (sub-floor timings are dominated by noise).
    pub min_ms: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            tolerance_pct: 400.0,
            min_ms: 20.0,
        }
    }
}

fn field<'a>(value: &'a JsonValue, key: &str, context: &str) -> Result<&'a JsonValue, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{context}: missing key `{key}`"))
}

fn number_field(value: &JsonValue, key: &str, context: &str) -> Result<f64, String> {
    field(value, key, context)?
        .as_f64()
        .ok_or_else(|| format!("{context}: key `{key}` is not a number"))
}

/// `samples_drawn` is a number or `null`; normalize for comparison.
fn optional_number(value: &JsonValue, key: &str, context: &str) -> Result<Option<f64>, String> {
    let value = field(value, key, context)?;
    if value.is_null() {
        return Ok(None);
    }
    value
        .as_f64()
        .map(Some)
        .ok_or_else(|| format!("{context}: key `{key}` is neither number nor null"))
}

/// Compares a current perf matrix against a baseline matrix.
///
/// Fails (returns `Err` with one line per violation) on:
/// - differing run configuration (`schema`, `threads`, `samples`, `seed`) —
///   counts are only comparable under identical configuration;
/// - any dataset or method present in the baseline but missing now;
/// - any mismatch in the deterministic fields (`num_nodes`, `num_edges`,
///   `num_hyperwedges`, `total_count`, `samples_drawn`);
/// - any method whose `total_ms` exceeds the baseline by more than
///   [`CheckOptions::tolerance_pct`] percent (rows under
///   [`CheckOptions::min_ms`] in the baseline are skipped).
///
/// On success returns a one-paragraph summary of what was compared.
pub fn check(baseline: &str, current: &str, options: &CheckOptions) -> Result<String, String> {
    let baseline = json::parse(baseline).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let current =
        json::parse(current).map_err(|e| format!("current run is not valid JSON: {e}"))?;
    let mut violations: Vec<String> = Vec::new();

    for key in ["schema", "threads", "samples", "seed"] {
        let b = baseline.get(key);
        let c = current.get(key);
        if b != c {
            violations.push(format!(
                "configuration mismatch on `{key}`: baseline {b:?} vs current {c:?}"
            ));
        }
    }

    let empty = Vec::new();
    let baseline_datasets = baseline
        .get("datasets")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let current_datasets = current
        .get("datasets")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let mut compared_rows = 0usize;
    let mut skipped_fast_rows = 0usize;

    for base_dataset in baseline_datasets {
        let context = "baseline dataset";
        let name = match field(base_dataset, "name", context).and_then(|v| {
            v.as_str()
                .ok_or_else(|| format!("{context}: `name` is not a string"))
        }) {
            Ok(name) => name,
            Err(error) => {
                violations.push(error);
                continue;
            }
        };
        let Some(current_dataset) = current_datasets
            .iter()
            .find(|d| d.get("name").and_then(JsonValue::as_str) == Some(name))
        else {
            violations.push(format!("dataset `{name}` missing from current run"));
            continue;
        };
        for key in ["num_nodes", "num_edges", "num_hyperwedges"] {
            if base_dataset.get(key) != current_dataset.get(key) {
                violations.push(format!(
                    "dataset `{name}`: `{key}` changed: baseline {:?} vs current {:?}",
                    base_dataset.get(key),
                    current_dataset.get(key)
                ));
            }
        }

        // Load rows: the node/edge counts read back are deterministic
        // (drift means the loader, not the machine, changed — fatal), while
        // the text/snapshot load timings are tolerance-gated like every
        // other timing, with the same noise floor.
        match (base_dataset.get("load"), current_dataset.get("load")) {
            (None | Some(JsonValue::Null), _) => {}
            (Some(base_load), Some(current_load)) if !current_load.is_null() => {
                let load_context = format!("dataset `{name}`, load");
                for key in ["loaded_nodes", "loaded_edges"] {
                    if base_load.get(key) != current_load.get(key) {
                        violations.push(format!(
                            "{load_context}: `{key}` changed: baseline {:?} vs current {:?}",
                            base_load.get(key),
                            current_load.get(key)
                        ));
                    }
                }
                for key in ["text_ms", "snapshot_ms"] {
                    match (
                        number_field(base_load, key, &load_context),
                        number_field(current_load, key, &load_context),
                    ) {
                        (Ok(b), Ok(c)) => {
                            if b < options.min_ms {
                                skipped_fast_rows += 1;
                            } else if c > b * (1.0 + options.tolerance_pct / 100.0) {
                                violations.push(format!(
                                    "{load_context}: `{key}` regression: baseline {b:.3} ms vs \
                                     current {c:.3} ms (tolerance {:.0}%)",
                                    options.tolerance_pct
                                ));
                            }
                        }
                        (Err(error), _) | (_, Err(error)) => violations.push(error),
                    }
                }
            }
            (Some(_), _) => violations.push(format!(
                "dataset `{name}`: load rows missing from current run"
            )),
        }

        let base_methods = base_dataset
            .get("methods")
            .and_then(JsonValue::as_array)
            .unwrap_or(&empty);
        let current_methods = current_dataset
            .get("methods")
            .and_then(JsonValue::as_array)
            .unwrap_or(&empty);
        for base_row in base_methods {
            let context = format!("dataset `{name}`");
            let method = match field(base_row, "method", &context).and_then(|v| {
                v.as_str()
                    .ok_or_else(|| format!("{context}: `method` is not a string"))
            }) {
                Ok(method) => method,
                Err(error) => {
                    violations.push(error);
                    continue;
                }
            };
            let row_context = format!("dataset `{name}`, method `{method}`");
            let Some(current_row) = current_methods
                .iter()
                .find(|r| r.get("method").and_then(JsonValue::as_str) == Some(method))
            else {
                violations.push(format!("{row_context}: missing from current run"));
                continue;
            };
            compared_rows += 1;

            // Deterministic fields: any drift is a hard failure.
            match (
                number_field(base_row, "total_count", &row_context),
                number_field(current_row, "total_count", &row_context),
            ) {
                (Ok(b), Ok(c)) => {
                    if (b - c).abs() > 1e-9 * b.abs().max(1.0) {
                        violations.push(format!(
                            "{row_context}: total_count changed: baseline {b} vs current {c}"
                        ));
                    }
                }
                (Err(error), _) | (_, Err(error)) => violations.push(error),
            }
            match (
                optional_number(base_row, "samples_drawn", &row_context),
                optional_number(current_row, "samples_drawn", &row_context),
            ) {
                (Ok(b), Ok(c)) => {
                    if b != c {
                        violations.push(format!(
                            "{row_context}: samples_drawn changed: baseline {b:?} vs current {c:?}"
                        ));
                    }
                }
                (Err(error), _) | (_, Err(error)) => violations.push(error),
            }

            // Timing: generous tolerance, noise floor.
            match (
                number_field(base_row, "total_ms", &row_context),
                number_field(current_row, "total_ms", &row_context),
            ) {
                (Ok(b), Ok(c)) => {
                    if b < options.min_ms {
                        skipped_fast_rows += 1;
                    } else if c > b * (1.0 + options.tolerance_pct / 100.0) {
                        violations.push(format!(
                            "{row_context}: timing regression: baseline {b:.3} ms vs current \
                             {c:.3} ms (tolerance {:.0}%)",
                            options.tolerance_pct
                        ));
                    }
                }
                (Err(error), _) | (_, Err(error)) => violations.push(error),
            }
        }
    }

    // A gate that compared nothing must not report success: a baseline whose
    // `datasets` array is missing, empty, or holds no method rows would
    // otherwise pass vacuously (e.g. after a bad baseline refresh), silently
    // disabling every deterministic check above.
    if compared_rows == 0 {
        violations.push(
            "baseline contains no method rows to compare; the gate would pass vacuously \
             (is the baseline file truncated or its `datasets` array empty?)"
                .to_string(),
        );
    }

    if violations.is_empty() {
        Ok(format!(
            "perf gate passed: {} dataset(s), {} method row(s) compared; counts identical; \
             {} row(s) under the {:.0} ms timing floor skipped; tolerance {:.0}%",
            baseline_datasets.len(),
            compared_rows,
            skipped_fast_rows,
            options.min_ms,
            options.tolerance_pct
        ))
    } else {
        Err(violations.join("\n"))
    }
}

/// Formats a finite `f64` as a JSON number (JSON has no NaN/Infinity; the
/// perf matrix never produces them, but clamp defensively).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON document (shared with the serve
/// layer through [`mochy_json`]).
fn escape_json(text: &str) -> String {
    json::escape(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mochy_datagen::{generate, DomainKind, GeneratorConfig};

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
        let total = |name: &str| {
            methods
                .iter()
                .find(|r| r.get("method").and_then(JsonValue::as_str) == Some(name))
                .and_then(|r| r.get("total_count"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        assert_eq!(total("mochy-e"), total("incremental"));
        // The scatter-gather row is exact too: bit-identical to MoCHy-E.
        assert_eq!(total("mochy-e"), total("mochy-e-sharded"));
    }

    #[test]
    fn check_passes_against_itself_and_catches_count_drift() {
        let datasets = vec![tiny_dataset()];
        let baseline = run_on(&datasets, &tiny_options());
        let current = run_on(&datasets, &tiny_options());
        let options = CheckOptions::default();
        let summary = check(&baseline, &current, &options).expect("identical runs must pass");
        assert!(summary.contains("perf gate passed"));

        // Any count drift is fatal, regardless of timing tolerance.
        let tampered = baseline.replacen("\"total_count\": ", "\"total_count\": 1", 1);
        let error = check(&baseline, &tampered, &options).unwrap_err();
        assert!(error.contains("total_count changed"), "{error}");
    }

    #[test]
    fn check_catches_timing_regressions_beyond_tolerance_only() {
        let baseline = r#"{
            "schema": "mochy-perf/1", "threads": 2, "samples": 200, "seed": 0,
            "datasets": [{
                "name": "d", "num_nodes": 1, "num_edges": 1, "num_hyperwedges": 0,
                "methods": [{
                    "method": "mochy-e", "projection_ms": 1.0, "counting_ms": 99.0,
                    "total_ms": 100.0, "samples_drawn": null, "total_count": 5
                }]
            }]
        }"#;
        let slow = baseline.replace("\"total_ms\": 100.0", "\"total_ms\": 260.0");
        let very_slow = baseline.replace("\"total_ms\": 100.0", "\"total_ms\": 2600.0");
        let options = CheckOptions {
            tolerance_pct: 200.0,
            min_ms: 20.0,
        };
        // 2.6x is inside a 200% (= 3x) tolerance; 26x is not.
        assert!(check(baseline, &slow, &options).is_ok());
        let error = check(baseline, &very_slow, &options).unwrap_err();
        assert!(error.contains("timing regression"), "{error}");
        // Below the noise floor, even huge relative slowdowns are ignored.
        let floored = CheckOptions {
            tolerance_pct: 200.0,
            min_ms: 500.0,
        };
        assert!(check(baseline, &very_slow, &floored).is_ok());
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
                    "total_ms": 1.0, "samples_drawn": null, "total_count": 5
                }]
            }]
        }"#
    }

    #[test]
    fn deterministic_drift_is_fatal_even_on_timing_skipped_rows() {
        let baseline = sub_floor_baseline();
        let options = CheckOptions::default();
        // Sanity: the row really is under the floor (summary reports the skip)
        // and an identical run passes.
        let summary = check(baseline, baseline, &options).unwrap();
        assert!(summary.contains("1 row(s) under"), "{summary}");

        // Count drift on the skipped-timing row is still fatal…
        let drifted = baseline.replace("\"total_count\": 5", "\"total_count\": 6");
        let error = check(baseline, &drifted, &options).unwrap_err();
        assert!(error.contains("total_count changed"), "{error}");
        // …as is samples_drawn drift…
        let drifted = baseline.replace("\"samples_drawn\": null", "\"samples_drawn\": 100");
        let error = check(baseline, &drifted, &options).unwrap_err();
        assert!(error.contains("samples_drawn changed"), "{error}");
        // …and hyperwedge drift at the dataset level.
        let drifted = baseline.replace("\"num_hyperwedges\": 9", "\"num_hyperwedges\": 8");
        let error = check(baseline, &drifted, &options).unwrap_err();
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
                    "total_ms": 1.0, "samples_drawn": null, "total_count": 5
                }]
            }]
        }"#
    }

    #[test]
    fn load_rows_gate_deterministic_fields_and_timings() {
        let baseline = load_row_baseline();
        let options = CheckOptions {
            tolerance_pct: 200.0,
            min_ms: 20.0,
        };
        assert!(check(baseline, baseline, &options).is_ok());

        // Read-back count drift is fatal regardless of timings.
        let drifted = baseline.replace("\"loaded_edges\": 3", "\"loaded_edges\": 2");
        let error = check(baseline, &drifted, &options).unwrap_err();
        assert!(error.contains("`loaded_edges` changed"), "{error}");

        // Load-timing regressions obey the same tolerance as method rows.
        let slower = baseline.replace("\"snapshot_ms\": 40.0", "\"snapshot_ms\": 100.0");
        assert!(check(baseline, &slower, &options).is_ok(), "within 3x");
        let way_slower = baseline.replace("\"snapshot_ms\": 40.0", "\"snapshot_ms\": 400.0");
        let error = check(baseline, &way_slower, &options).unwrap_err();
        assert!(error.contains("`snapshot_ms` regression"), "{error}");

        // …and the same noise floor.
        let floored = CheckOptions {
            tolerance_pct: 200.0,
            min_ms: 500.0,
        };
        assert!(check(baseline, &way_slower, &floored).is_ok());

        // A current run that lost its load block entirely fails.
        let missing = baseline.replace(
            "\"load\": {\n                    \"text_ms\": 80.0, \"snapshot_ms\": 40.0,\n                    \"loaded_nodes\": 4, \"loaded_edges\": 3\n                },",
            "\"load\": null,",
        );
        assert_ne!(missing, baseline, "replacement must have matched");
        let error = check(baseline, &missing, &options).unwrap_err();
        assert!(error.contains("load rows missing"), "{error}");
    }

    #[test]
    fn missing_baseline_rows_fail_instead_of_vanishing() {
        let baseline = sub_floor_baseline();
        let options = CheckOptions::default();
        // A current run whose only dataset lost its method rows: the
        // baseline row must be reported missing, not silently skipped.
        let no_rows = baseline.replace("\"methods\": [{", "\"methods\": [], \"ignored\": [{");
        let error = check(baseline, &no_rows, &options).unwrap_err();
        assert!(
            error.contains("method `mochy-e`: missing from current run"),
            "{error}"
        );
        // A current run missing the whole dataset fails likewise.
        let renamed = baseline.replace("\"name\": \"d\"", "\"name\": \"other\"");
        let error = check(baseline, &renamed, &options).unwrap_err();
        assert!(error.contains("dataset `d` missing"), "{error}");
    }

    #[test]
    fn vacuous_baselines_fail_the_gate() {
        let options = CheckOptions::default();
        // Empty `datasets` array on both sides: nothing compares, which must
        // be a failure, not a pass.
        let empty = r#"{"schema": "mochy-perf/1", "threads": 2, "samples": 200,
                        "seed": 0, "datasets": []}"#;
        let error = check(empty, empty, &options).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
        // Same for a baseline with no `datasets` key at all.
        let keyless = r#"{"schema": "mochy-perf/1", "threads": 2, "samples": 200, "seed": 0}"#;
        let error = check(keyless, keyless, &options).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
        // And for a baseline whose datasets hold empty method lists.
        let no_rows =
            sub_floor_baseline().replace("\"methods\": [{", "\"methods\": [], \"ignored\": [{");
        let error = check(&no_rows, &no_rows, &options).unwrap_err();
        assert!(error.contains("vacuously"), "{error}");
    }

    #[test]
    fn check_catches_config_and_coverage_mismatches() {
        let datasets = vec![tiny_dataset()];
        let baseline = run_on(&datasets, &tiny_options());
        let options = CheckOptions::default();

        let other_threads = run_on(
            &datasets,
            &PerfOptions {
                threads: 1,
                ..tiny_options()
            },
        );
        let error = check(&baseline, &other_threads, &options).unwrap_err();
        assert!(error.contains("configuration mismatch"), "{error}");

        let missing_method = baseline.replacen("\"incremental\"", "\"renamed\"", 1);
        let error = check(&baseline, &missing_method, &options).unwrap_err();
        assert!(error.contains("missing from current run"), "{error}");

        let empty = r#"{"schema": "mochy-perf/1", "threads": 2, "samples": 200,
                        "seed": 0, "datasets": []}"#;
        let error = check(&baseline, empty, &options).unwrap_err();
        assert!(error.contains("missing from current run"), "{error}");
    }
}
