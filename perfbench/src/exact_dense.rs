//! `exact-dense`: exact MoCHy-E counts of a dense e-mail hypergraph.
//!
//! The input is a union of disjoint e-mail-domain blocks, sized so the
//! MoCHy-E walk makes about the same number of neighbour-pair visits for
//! every seed; the pair walk does almost all of the work. One caller; each
//! iteration decodes the `.mochy` bytes and counts at `threads(2)`, then
//! does the same at `shards(4)`.
//!
//! Checks: the 26 counts are bit-identical across every iteration,
//! `threads(2)`, threads = 1 and `shards(4)`.
//!
//! End to end: `latency_p50_ms` is the median `threads(2)` count from the
//! bytes; `throughput` is counts per second over the median iteration,
//! which holds one count of each kind, so the sharded path moves it too.
//! Both medians are printed beside them as `exact_count_s` and
//! `sharded_count_s`. The traced run follows each untraced iteration with a
//! `threads(2)` count made of the same public calls, each in a span, then
//! measures the per-layer metrics ([`crate::layers`]).

use std::time::Instant;

use mochy_core::engine::{CountConfig, MotifEngine};
use mochy_core::{mochy_e_parallel, MotifCounts};
use mochy_datagen::DomainKind;
use mochy_hypergraph::snapshot::read_snapshot_bytes;
use mochy_projection::project_parallel;

use crate::inputs::{self, Recipe, Target};
use crate::stats::median;
use crate::{Report, Run, Scale};

const THREADS: usize = 2;
const SHARDS: usize = 4;
/// Fewest timed iterations, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

fn recipe(scale: Scale) -> Recipe {
    match scale {
        Scale::Full => Recipe {
            kind: DomainKind::Email,
            nodes: 150,
            edges: 500,
            target: Target::PairVisits(12_000_000),
        },
        Scale::Tiny => Recipe {
            kind: DomainKind::Email,
            nodes: 60,
            edges: 150,
            target: Target::PairVisits(40_000),
        },
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let recipe = recipe(run.scale);
    let (input, setup_s) =
        crate::repeat_setup(|| inputs::materialize(recipe, run.seed, &run.work, "exact-dense"))?;
    println!("input fingerprint {}", input.fingerprint.to_json());
    inputs::check_recorded(&run.fingerprint_key("exact-dense"), recipe, &run.work)?;

    let exact = CountConfig::exact().threads(THREADS).build();
    let sharded = CountConfig::exact()
        .threads(THREADS)
        .shards(SHARDS)
        .map_err(|e| e.to_string())?
        .build();
    let count_from_bytes = |engine: &MotifEngine| -> Result<(MotifCounts, f64), String> {
        let start = Instant::now();
        let hypergraph = read_snapshot_bytes(&input.bytes).map_err(|e| e.to_string())?;
        let counts = engine.count(&hypergraph).counts;
        Ok((counts, start.elapsed().as_secs_f64()))
    };

    let mut report = Report::default();
    // Warm-up, untimed: also the reference every later count must equal.
    let (reference, _) = count_from_bytes(&exact)?;
    let tracer = &run.tracer;
    let mut exact_s = Vec::new();
    let mut sharded_s = Vec::new();
    let mut peak_mb = Vec::new();
    let deadline = Instant::now() + run.seconds;
    while exact_s.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let iteration = exact_s.len();
        crate::reset_peak_rss()?;
        for (engine, seconds, what) in [
            (&exact, &mut exact_s, "threads(2)"),
            (&sharded, &mut sharded_s, "shards(4)"),
        ] {
            let (counts, elapsed) = count_from_bytes(engine)?;
            seconds.push(elapsed);
            report.attempted += 1;
            if !crate::same_bits(counts.as_slice(), reference.as_slice()) {
                report.failed += 1;
                report.check(false, || {
                    format!("{what} counts differ in iteration {iteration}")
                });
            }
        }
        peak_mb.push(crate::peak_rss_mb()?);
        if tracer.enabled() {
            let counts = traced_count(run, &input.bytes, iteration)?;
            report.check(
                crate::same_bits(counts.as_slice(), reference.as_slice()),
                || format!("traced counts differ in iteration {iteration}"),
            );
        }
    }

    let single = CountConfig::exact()
        .threads(1)
        .build()
        .count(&input.hypergraph)
        .counts;
    report.check(
        crate::same_bits(single.as_slice(), reference.as_slice()),
        || "threads = 1 counts differ from threads(2)".to_string(),
    );
    let exact_count_s = median(&exact_s);
    println!("instances {}", reference.total());
    println!("{}", crate::stats::summary("exact_count_s", &exact_s));
    println!("{}", crate::stats::summary("sharded_count_s", &sharded_s));
    println!("{}", crate::stats::summary("setup_s", &setup_s));

    if !tracer.enabled() {
        let iteration_s: Vec<f64> = exact_s.iter().zip(&sharded_s).map(|(a, b)| a + b).collect();
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", median(&peak_mb), "MB");
        report.metric("latency_p50_ms", exact_count_s * 1e3, "ms");
        report.metric("throughput", 2.0 / median(&iteration_s), "1/s");
        return Ok(report);
    }

    let span_ms = |name: &str| median(&tracer.durations_ms(name));
    let traced_ms = span_ms("exact-dense.count");
    println!(
        "decode + project + walk = {:.3} ms against exact_count_s {:.3} ms untraced, {:.3} ms traced",
        span_ms("hypergraph::snapshot::read_snapshot_bytes")
            + span_ms("projection::project_parallel")
            + span_ms("core::mochy_e_parallel"),
        exact_count_s * 1e3,
        traced_ms
    );
    crate::layers::probe(run, &input, &mut report)?;
    report.metric(
        "trace.overhead_ratio",
        traced_ms / (exact_count_s * 1e3),
        "ratio",
    );
    Ok(report)
}

/// One traced `threads(2)` count: the untraced path's public calls, each in
/// a span.
fn traced_count(run: &Run, bytes: &[u8], iteration: usize) -> Result<MotifCounts, String> {
    let tracer = &run.tracer;
    let request = iteration as u64;
    tracer.span("exact-dense.count", request, || {
        let hypergraph = tracer
            .span("hypergraph::snapshot::read_snapshot_bytes", request, || {
                read_snapshot_bytes(bytes)
            })
            .map_err(|e| e.to_string())?;
        let projected = tracer.span("projection::project_parallel", request, || {
            project_parallel(&hypergraph, THREADS)
        });
        Ok::<_, String>(tracer.span("core::mochy_e_parallel", request, || {
            mochy_e_parallel(&hypergraph, &projected, THREADS)
        }))
    })
}
