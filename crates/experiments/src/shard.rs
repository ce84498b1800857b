//! `mochy-exp shard-check` — the CI shard-equivalence gate.
//!
//! Every [`mochy_bench::bench_datasets`] workload is counted with
//! scatter-gather MoCHy-E (`CountConfig::shards`) at each requested shard
//! count. The merged [`MotifEngine`] report must be **bit-identical** to the
//! unsharded run for every shard count — the same invariance the
//! thread-count gates pin, extended to the shard axis. The outcome is
//! rendered both as a table and as the `SHARD.json` artifact; divergences
//! are reported in the JSON *and* fail the gate, so the artifact always
//! records what CI saw.
//!
//! [`MotifEngine`]: mochy_core::engine::MotifEngine

use std::fmt::Write as _;

use mochy_core::engine::{CountConfig, CountReport, Method};
use mochy_hypergraph::Hypergraph;

use crate::json;

fn count(hypergraph: &Hypergraph, threads: usize, shards: usize) -> CountReport {
    let mut config = CountConfig::new(Method::Exact).threads(threads);
    if shards > 1 {
        config = config
            .shards(shards)
            .expect("shards on Method::Exact is always accepted");
    }
    config.build().count(hypergraph)
}

/// Options of the `shard-check` gate.
#[derive(Debug, Clone)]
pub struct ShardCheckOptions {
    /// Shard counts to verify (each against the unsharded baseline).
    pub shards: Vec<usize>,
    /// Worker threads for every engine run.
    pub threads: usize,
}

impl Default for ShardCheckOptions {
    fn default() -> Self {
        Self {
            shards: vec![1, 2, 4],
            threads: 2,
        }
    }
}

/// One sharded run of the gate matrix.
struct RunRow {
    shards: usize,
    identical: bool,
    total_count: f64,
    num_hyperwedges: Option<usize>,
    total_ms: f64,
}

/// One dataset block of the gate matrix.
struct DatasetBlock {
    name: String,
    num_nodes: usize,
    num_edges: usize,
    baseline_total: f64,
    baseline_hyperwedges: Option<usize>,
    runs: Vec<RunRow>,
}

/// The rendered outcome of a [`shard_check`] run. `violations` is empty on
/// success; the JSON document records the full matrix either way, so the
/// `SHARD.json` artifact shows what diverged, not just *that* CI failed.
#[derive(Debug)]
pub struct ShardCheckOutcome {
    /// Human-readable per-run table.
    pub table: String,
    /// The `SHARD.json` document.
    pub json: String,
    /// One line per divergence.
    pub violations: Vec<String>,
}

/// Runs the shard-equivalence gate over every bench dataset.
///
/// For each dataset and each shard count, the scatter-gather report at that
/// shard count must be bit-identical to the unsharded baseline. Returns
/// `Err` only for an empty shard list; counting divergences are reported in
/// [`ShardCheckOutcome::violations`] so the JSON still gets written.
pub fn shard_check(options: &ShardCheckOptions) -> Result<ShardCheckOutcome, String> {
    if options.shards.is_empty() {
        return Err("shard-check needs at least one shard count".to_string());
    }

    let mut violations: Vec<String> = Vec::new();
    let mut blocks: Vec<DatasetBlock> = Vec::new();
    for (name, original) in mochy_bench::bench_datasets() {
        let baseline = count(&original, options.threads, 1);
        let mut block = DatasetBlock {
            name: name.to_string(),
            num_nodes: original.num_nodes(),
            num_edges: original.num_edges(),
            baseline_total: baseline.counts.total(),
            baseline_hyperwedges: baseline.num_hyperwedges,
            runs: Vec::new(),
        };
        for &shards in &options.shards {
            let run = count(&original, options.threads, shards);
            let identical = run == baseline;
            if !identical {
                violations.push(format!(
                    "{name}/K={shards}: merged report diverges from unsharded \
                     (total {} vs {}, hyperwedges {:?} vs {:?})",
                    run.counts.total(),
                    baseline.counts.total(),
                    run.num_hyperwedges,
                    baseline.num_hyperwedges
                ));
            }
            block.runs.push(RunRow {
                shards,
                identical,
                total_count: run.counts.total(),
                num_hyperwedges: run.num_hyperwedges,
                total_ms: run.elapsed.as_secs_f64() * 1e3,
            });
        }
        blocks.push(block);
    }

    Ok(ShardCheckOutcome {
        table: render_table(&blocks),
        json: render_json(&blocks, options),
        violations,
    })
}

fn render_table(blocks: &[DatasetBlock]) -> String {
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<10} {:>6} {:>8} {:>14} {:>13} {:>10} {:>10}",
        "dataset", "K", "edges", "total_count", "hyperwedges", "total_ms", "identical"
    );
    for block in blocks {
        for run in &block.runs {
            let _ = writeln!(
                table,
                "{:<10} {:>6} {:>8} {:>14} {:>13} {:>10.3} {:>10}",
                block.name,
                run.shards,
                block.num_edges,
                run.total_count,
                run.num_hyperwedges
                    .map_or_else(|| "-".to_string(), |w| w.to_string()),
                run.total_ms,
                if run.identical { "yes" } else { "NO" }
            );
        }
    }
    table
}

fn render_json(blocks: &[DatasetBlock], options: &ShardCheckOptions) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mochy-shard/1\",\n");
    out.push_str(&format!("  \"threads\": {},\n", options.threads.max(1)));
    out.push_str(&format!(
        "  \"shard_counts\": [{}],\n",
        options
            .shards
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"datasets\": [\n");
    for (d, block) in blocks.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"name\": \"{}\",\n",
            json::escape(&block.name)
        ));
        out.push_str(&format!("      \"num_nodes\": {},\n", block.num_nodes));
        out.push_str(&format!("      \"num_edges\": {},\n", block.num_edges));
        out.push_str(&format!(
            "      \"baseline_total_count\": {},\n",
            json_number(block.baseline_total)
        ));
        out.push_str(&format!(
            "      \"baseline_hyperwedges\": {},\n",
            block
                .baseline_hyperwedges
                .map_or_else(|| "null".to_string(), |w| w.to_string())
        ));
        out.push_str("      \"runs\": [\n");
        for (r, run) in block.runs.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!("          \"shards\": {},\n", run.shards));
            out.push_str(&format!("          \"identical\": {},\n", run.identical));
            out.push_str(&format!(
                "          \"total_count\": {},\n",
                json_number(run.total_count)
            ));
            out.push_str(&format!(
                "          \"num_hyperwedges\": {},\n",
                run.num_hyperwedges
                    .map_or_else(|| "null".to_string(), |w| w.to_string())
            ));
            out.push_str(&format!(
                "          \"total_ms\": {}\n",
                json_number(run.total_ms)
            ));
            out.push_str(if r + 1 < block.runs.len() {
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

/// Formats a finite `f64` as a JSON number (same defensive clamp as the perf
/// matrix — the gate never produces NaN/Infinity).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    /// A down-scaled gate run over a synthetic workload: exercises the
    /// sharded-count comparison without the bench datasets' runtime.
    /// `shard_check` itself always runs the bench workloads, so this drives
    /// its pieces directly.
    #[test]
    fn gate_pipeline_is_identical_on_a_tiny_dataset() {
        let hypergraph = mochy_datagen::generate(&mochy_datagen::GeneratorConfig::new(
            mochy_datagen::DomainKind::Email,
            60,
            90,
            5,
        ));
        let baseline = count(&hypergraph, 2, 1);
        for shards in [1usize, 2, 4] {
            let run = count(&hypergraph, 2, shards);
            assert_eq!(run, baseline, "K={shards}");
        }
    }

    #[test]
    fn json_rendering_is_valid_and_carries_the_matrix() {
        let blocks = vec![DatasetBlock {
            name: "tiny".to_string(),
            num_nodes: 8,
            num_edges: 5,
            baseline_total: 7.0,
            baseline_hyperwedges: Some(9),
            runs: vec![
                RunRow {
                    shards: 1,
                    identical: true,
                    total_count: 7.0,
                    num_hyperwedges: Some(9),
                    total_ms: 0.5,
                },
                RunRow {
                    shards: 2,
                    identical: false,
                    total_count: 6.0,
                    num_hyperwedges: Some(9),
                    total_ms: 0.6,
                },
            ],
        }];
        let options = ShardCheckOptions::default();
        let rendered = render_json(&blocks, &options);
        let parsed = json::parse(&rendered).expect("SHARD.json must be valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some("mochy-shard/1")
        );
        let runs = parsed.get("datasets").unwrap().as_array().unwrap()[0]
            .get("runs")
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(runs.len(), 2);
        assert!(rendered.contains("\"identical\": true"));
        assert!(rendered.contains("\"identical\": false"));
        let table = render_table(&blocks);
        assert!(table.contains("NO"), "{table}");
        assert!(table.contains("yes"), "{table}");
    }

    #[test]
    fn shard_check_rejects_an_empty_shard_list() {
        let options = ShardCheckOptions {
            shards: Vec::new(),
            ..Default::default()
        };
        assert!(shard_check(&options).is_err());
    }
}
