//! The per-layer metrics, measured the same way on every workload's input.
//!
//! The traced run of every workload ends here. Each layer's public call is
//! timed [`REPEATS`] times on the workload's own decoded input, each call in
//! a span, and the metric is the median. So every workload reports every
//! per-layer metric, and a change to one layer shows most on the workloads
//! whose inputs stress it: the pair walk on `exact-dense`, sampling and the
//! null model on `profile-sparse`, the serve layers on `serve-mixed`.
//!
//! Checks: MoCHy-E at `threads(2)`, threads = 1, `shards(4)` and through
//! `MotifEngine` agree bit for bit; the decoded bytes equal the input; every
//! scripted request answers 200 with the expected cache state; a hit body
//! equals its miss body; `api::handle`, `Dataset::mutate` and
//! `StreamingEngine` issue the same hyperedge ids.

use std::time::Instant;

use mochy_core::engine::CountConfig;
use mochy_core::profile::{characteristic_profile, significance, SignificanceOptions};
use mochy_core::{
    count_sharded, merge_partials, mochy_a_plus_parallel, mochy_e, mochy_e_parallel, StreamConfig,
    StreamingEngine,
};
use mochy_hypergraph::snapshot::read_snapshot_bytes;
use mochy_hypergraph::{EdgeId, Hypergraph, NodeId};
use mochy_json::JsonValue;
use mochy_nullmodel::chung_lu_randomize;
use mochy_projection::project_parallel;
use mochy_serve::api::{self, ApiContext, ApiResponse, CacheState, QueryCache, Role};
use mochy_serve::http::Request;
use mochy_serve::registry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, Input};
use crate::serve_mixed::{mutation_body, random_edge, wedge_query, DATASET, SAMPLES};
use crate::stats::median;
use crate::{Report, Run};

const THREADS: usize = 2;
const SHARDS: usize = 4;
/// Timed repeats of every call; each metric is their median.
const REPEATS: usize = 3;
/// Wedge samples as a share of the hyperwedges, as in `profile-sparse`.
const SAMPLE_RATIO: f64 = 0.01;
/// Rounds of the service script: a write, a miss and a hit each.
const ROUNDS: u64 = 10;
/// Seeds of the script's queries, apart from every seed `serve-mixed` sends.
const SCRIPT_SEED_BASE: u64 = 1 << 48;

/// Runs `call` [`REPEATS`] times, each in a span named `name`; returns the
/// median milliseconds and the last result.
fn timed<T>(run: &Run, name: &'static str, mut call: impl FnMut() -> T) -> (f64, T) {
    let mut ms = Vec::with_capacity(REPEATS);
    let mut last = None;
    for repeat in 0..REPEATS {
        drop(last.take());
        let start = Instant::now();
        let value = run.tracer.span(name, repeat as u64, &mut call);
        ms.push(elapsed_ms(start));
        last = Some(value);
    }
    (median(&ms), last.expect("REPEATS > 0"))
}

fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Measures every per-layer metric on `input` and adds it to `report`.
pub fn probe(run: &Run, input: &Input, report: &mut Report) -> Result<(), String> {
    let hypergraph = &input.hypergraph;
    let (decode_ms, decoded) = timed(run, "hypergraph::snapshot::read_snapshot_bytes", || {
        read_snapshot_bytes(&input.bytes)
    });
    report.check(decoded.as_ref().is_ok_and(|h| h == hypergraph), || {
        "decoding the input bytes does not give the input".to_string()
    });
    let (project_ms, projected) = timed(run, "projection::project_parallel", || {
        project_parallel(hypergraph, THREADS)
    });
    let (weight_ns, classify_ns) = crate::walk::lookup_costs(run, hypergraph, &projected);

    let (walk_ms, counts) = timed(run, "core::mochy_e_parallel", || {
        mochy_e_parallel(hypergraph, &projected, THREADS)
    });
    let (walk_1t_ms, single) = timed(run, "core::mochy_e", || mochy_e(hypergraph, &projected));
    let (shard_ms, partials) = timed(run, "core::count_sharded", || {
        count_sharded(hypergraph, &projected, SHARDS, THREADS)
    });
    let (merge_ms, (merged, _)) = timed(run, "core::merge_partials", || merge_partials(&partials));
    let exact = CountConfig::exact().threads(THREADS).build();
    let (engine_exact_ms, engine_exact) = timed(run, "core::MotifEngine::count(mochy-e)", || {
        exact.count(hypergraph)
    });
    for (what, other) in [
        ("threads = 1", &single),
        ("shards(4)", &merged),
        ("MotifEngine", &engine_exact.counts),
    ] {
        report.check(
            crate::same_bits(other.as_slice(), counts.as_slice()),
            || format!("{what} counts of the input differ from threads(2)"),
        );
    }

    let samples = ((projected.num_hyperwedges() as f64 * SAMPLE_RATIO).ceil() as usize).max(1);
    let (sample_ms, real) = timed(run, "core::mochy_a_plus_parallel", || {
        mochy_a_plus_parallel(hypergraph, &projected, samples, THREADS, run.seed)
    });
    let mut rng = StdRng::seed_from_u64(run.seed);
    let (randomize_ms, randomized) = timed(run, "nullmodel::chung_lu_randomize", || {
        chung_lu_randomize(hypergraph, &mut rng)
    });
    let reference = mochy_a_plus_parallel(
        &randomized,
        &project_parallel(&randomized, THREADS),
        samples,
        THREADS,
        run.seed,
    );
    let (assemble_ms, _) = timed(run, "core::profile::characteristic_profile", || {
        characteristic_profile(&significance(
            &real,
            &reference,
            SignificanceOptions::default(),
        ))
    });
    let a_plus = CountConfig::wedge_sample(SAMPLES)
        .seed(1)
        .threads(THREADS)
        .build();
    let (engine_a_plus_ms, _) = timed(run, "core::MotifEngine::count(mochy-a+)", || {
        a_plus.count(hypergraph)
    });

    println!("exact.pair_visits is computed: the sum of C(deg, 2) over ProjectedGraph::degree");
    let pairs = input.fingerprint.pair_visits as f64;
    report.metric("hypergraph.decode_ms", decode_ms, "ms");
    report.metric("projection.project_ms", project_ms, "ms");
    report.metric(
        "projection.hyperwedges",
        projected.num_hyperwedges() as f64,
        "count",
    );
    report.metric("projection.weight_ns", weight_ns, "ns");
    report.metric("classify.ns", classify_ns, "ns");
    report.metric("exact.walk_ms", walk_ms, "ms");
    report.metric("exact.walk_1t_ms", walk_1t_ms, "ms");
    report.metric("exact.speedup_2t", walk_1t_ms / walk_ms, "ratio");
    report.metric("exact.pair_visits", pairs, "count");
    report.metric("exact.ns_per_pair", walk_ms * 1e6 / pairs, "ns");
    report.metric("exact.instances", counts.total(), "count");
    report.metric("exact.yield", counts.total() / pairs, "ratio");
    report.metric("shard.count_ms", shard_ms, "ms");
    report.metric("shard.merge_us", merge_ms * 1e3, "us");
    report.metric("shard.overhead", shard_ms / walk_ms, "ratio");
    report.metric("nullmodel.randomize_ms", randomize_ms, "ms");
    report.metric("sample.count_ms", sample_ms, "ms");
    report.metric("sample.samples", samples as f64, "count");
    report.metric(
        "sample.us_per_sample",
        sample_ms * 1e3 / samples as f64,
        "us",
    );
    report.metric("profile.assemble_us", assemble_ms * 1e3, "us");
    report.metric("engine.count_ms.a_plus", engine_a_plus_ms, "ms");
    report.metric("engine.count_ms.exact", engine_exact_ms, "ms");
    service(run, hypergraph, report)
}

/// One scripted mutation: the inserted members, the removed id and the id
/// `api::handle` issued for the insert.
struct Edit {
    members: Vec<NodeId>,
    removed: Option<EdgeId>,
    inserted: EdgeId,
}

/// The serve layers on `hypergraph`. A seeded script runs through
/// `api::handle` on a fresh context, round by round: a `/v1/mutate` that
/// inserts one seeded hyperedge and removes the previous round's insert,
/// a MoCHy-A+ `/v1/count` with a fresh seed (a miss), and the same query
/// again (a hit). The script's edits then run again through
/// `Dataset::mutate` and a `StreamingEngine`. Round 0 is an untimed write
/// that pays the streaming bootstrap.
fn service(run: &Run, hypergraph: &Hypergraph, report: &mut Report) -> Result<(), String> {
    let context = ApiContext {
        registry: Registry::new(),
        cache: QueryCache::new(64),
        max_threads: THREADS,
        num_workers: 2,
        queue_depth: 16,
        max_requests_per_connection: 1 << 30,
        idle_timeout_ms: 30_000,
        started: Instant::now(),
        role: Role::Standalone,
    };
    context.registry.insert(DATASET, hypergraph.clone());
    let tracer = &run.tracer;
    let call = |path: &str, body: String| -> (ApiResponse, Instant, Instant) {
        let request = Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body,
            keep_alive: true,
        };
        let start = Instant::now();
        let response = api::handle(&context, &request);
        (response, start, Instant::now())
    };
    let ms = |start: Instant, end: Instant| (end - start).as_secs_f64() * 1e3;

    let mut rng = StdRng::seed_from_u64(inputs::mix(run.seed, 2_000));
    let nodes = hypergraph.num_nodes() as u32;
    let mut edits: Vec<Edit> = Vec::new();
    let (mut write_ms, mut miss_ms, mut hit_ms) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=ROUNDS {
        let members = random_edge(&mut rng, nodes);
        let removed = edits.last().map(|edit| edit.inserted);
        let (response, start, end) = call("/v1/mutate", mutation_body(&members, removed));
        let inserted = mochy_json::parse(&response.body)
            .ok()
            .and_then(|body| {
                body.get("inserted")
                    .and_then(JsonValue::as_array)
                    .and_then(|ids| ids.first())
                    .and_then(JsonValue::as_u64)
            })
            .filter(|_| response.status == 200)
            .ok_or_else(|| {
                format!(
                    "scripted mutation {round} answered {}: {}",
                    response.status, response.body
                )
            })?;
        edits.push(Edit {
            members,
            removed,
            inserted: inserted as EdgeId,
        });
        if round == 0 {
            continue;
        }
        tracer.record("serve::api::handle(write)", round, start, end);
        write_ms.push(ms(start, end));

        let query = wedge_query(SCRIPT_SEED_BASE + round);
        let (miss, start, end) = call("/v1/count", query.clone());
        tracer.record("serve::api::handle(miss)", round, start, end);
        miss_ms.push(ms(start, end));
        let (hit, start, end) = call("/v1/count", query);
        tracer.record("serve::api::handle(hit)", round, start, end);
        hit_ms.push(ms(start, end));
        report.check(
            miss.status == 200
                && hit.status == 200
                && miss.cache_state == Some(CacheState::Miss)
                && hit.cache_state == Some(CacheState::Hit)
                && hit.body == miss.body,
            || format!("scripted query {round}: expected a 200 miss, then a 200 hit with its body"),
        );
    }

    let registry = Registry::new();
    registry.insert(DATASET, hypergraph.clone());
    let dataset = registry
        .get(DATASET)
        .ok_or("the script's registry lost its dataset")?;
    let mut stream = StreamingEngine::from_hypergraph(hypergraph, StreamConfig::default());
    let (mut mutate_ms, mut insert_us, mut remove_us) = (Vec::new(), Vec::new(), Vec::new());
    for (round, edit) in (0u64..).zip(&edits) {
        let removes: Vec<EdgeId> = edit.removed.iter().copied().collect();
        let start = Instant::now();
        let outcome = tracer.span("serve::registry::Dataset::mutate", round, || {
            dataset.mutate(std::slice::from_ref(&edit.members), &removes)
        });
        let mutate = elapsed_ms(start);
        let start = Instant::now();
        let id = tracer.span("core::StreamingEngine::insert", round, || {
            stream.insert(edit.members.iter().copied())
        });
        let insert = elapsed_ms(start) * 1e3;
        report.check(
            id == edit.inserted
                && outcome.is_ok_and(|outcome| outcome.inserted.first() == Some(&id)),
            || format!("scripted mutation {round}: the replays issued other ids than api::handle"),
        );
        if let Some(edge) = edit.removed {
            let start = Instant::now();
            let live = tracer.span("core::StreamingEngine::remove", round, || {
                stream.remove(edge)
            });
            remove_us.push(elapsed_ms(start) * 1e3);
            report.check(live, || {
                format!("replayed removal of {edge} found no live edge")
            });
        }
        if round > 0 {
            mutate_ms.push(mutate);
            insert_us.push(insert);
        }
    }

    report.metric("serve.handle_ms.hit", median(&hit_ms), "ms");
    report.metric("serve.handle_ms.miss", median(&miss_ms), "ms");
    report.metric("serve.handle_ms.write", median(&write_ms), "ms");
    report.metric("registry.mutate_ms", median(&mutate_ms), "ms");
    report.metric("streaming.insert_us", median(&insert_us), "us");
    report.metric("streaming.remove_us", median(&remove_us), "us");
    Ok(())
}
