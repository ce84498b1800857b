//! `profile-sparse`: characteristic profiles of a sparse contact hypergraph.
//!
//! `ProfileEstimator` with MoCHy-A+ at `SampleWedgeRatio(0.01)`, the paper's
//! five Chung-Lu references and 2 threads; one caller. MoCHy-A+ never enters
//! the MoCHy-E pair walk, so the work splits between projection, wedge
//! sampling and the null model.
//!
//! Checks: every profile is bit-identical to the first; the profile has unit
//! norm; the MoCHy-A+ total of the real graph is within
//! [`MAX_RELATIVE_ERROR`] of an exact MoCHy-E count.
//!
//! End to end: `latency_p50_ms` is the median time from hypergraph to
//! profile (printed beside it as `profile_s`); `throughput` is profiles per
//! second over the median profile. The traced run follows each untraced
//! `ProfileEstimator::estimate` with a profile rebuilt from the same public
//! calls and seeds, each in a span, and requires the two profiles to be
//! bit-identical, so the decomposition times the same program; then it
//! measures the per-layer metrics ([`crate::layers`]).

use std::time::Instant;

use mochy_analysis::profile::{CountingMethod, ProfileEstimator};
use mochy_core::engine::CountConfig;
use mochy_core::profile::{characteristic_profile, significance, SignificanceOptions};
use mochy_core::{mochy_a_plus_parallel, MotifCounts};
use mochy_datagen::DomainKind;
use mochy_hypergraph::Hypergraph;
use mochy_motif::NUM_MOTIFS;
use mochy_nullmodel::chung_lu_randomize;
use mochy_projection::project_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{self, Recipe, Target};
use crate::stats::median;
use crate::{Report, Run, Scale};

const THREADS: usize = 2;
const RATIO: f64 = 0.01;
/// Chung-Lu references per profile, as in the paper.
const REFERENCES: usize = 5;
/// Largest accepted relative error of the MoCHy-A+ total against MoCHy-E.
pub const MAX_RELATIVE_ERROR: f64 = 0.03;
const MIN_ITERATIONS: usize = 3;

fn recipe(scale: Scale) -> Recipe {
    match scale {
        Scale::Full => Recipe {
            kind: DomainKind::Contact,
            nodes: 2_000,
            edges: 14_000,
            target: Target::Hyperwedges(240_000),
        },
        Scale::Tiny => Recipe {
            kind: DomainKind::Contact,
            nodes: 200,
            edges: 1_200,
            target: Target::Hyperwedges(15_000),
        },
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    let recipe = recipe(run.scale);
    let (input, setup_s) =
        crate::repeat_setup(|| inputs::materialize(recipe, run.seed, &run.work, "profile-sparse"))?;
    println!("input fingerprint {}", input.fingerprint.to_json());
    inputs::check_recorded(&run.fingerprint_key("profile-sparse"), recipe, &run.work)?;
    let hypergraph = &input.hypergraph;
    let estimator = ProfileEstimator {
        method: CountingMethod::SampleWedgeRatio(RATIO),
        num_randomizations: REFERENCES,
        threads: THREADS,
        seed: run.seed,
    };

    let mut report = Report::default();
    // Warm-up, untimed: also the reference every later profile must equal.
    let reference = estimator.estimate(hypergraph);
    let tracer = &run.tracer;
    let mut profile_s = Vec::new();
    let mut peak_mb = Vec::new();
    let deadline = Instant::now() + run.seconds;
    while profile_s.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let iteration = profile_s.len();
        crate::reset_peak_rss()?;
        let start = Instant::now();
        let profile = estimator.estimate(hypergraph);
        profile_s.push(start.elapsed().as_secs_f64());
        peak_mb.push(crate::peak_rss_mb()?);
        report.attempted += 1;
        if !crate::same_bits(&profile.cp, &reference.cp) {
            report.failed += 1;
            report.check(false, || {
                format!("profile differs in iteration {iteration}")
            });
        }
        if tracer.enabled() {
            let cp = tracer.span("profile-sparse.profile", iteration as u64, || {
                traced_profile(run, hypergraph, iteration as u64)
            });
            report.check(crate::same_bits(&cp, &reference.cp), || {
                format!("rebuilt profile differs from ProfileEstimator::estimate in iteration {iteration}")
            });
        }
    }

    let norm = reference.cp.iter().map(|x| x * x).sum::<f64>().sqrt();
    report.check((norm - 1.0).abs() < 1e-9, || {
        format!("characteristic profile norm {norm}, expected 1")
    });
    let exact = CountConfig::exact()
        .threads(THREADS)
        .build()
        .count(hypergraph)
        .counts
        .total();
    let estimate = reference.real_counts.total();
    let relative_error = (estimate - exact).abs() / exact;
    println!(
        "{} profiles; MoCHy-A+ total {estimate} against exact {exact}: relative error {relative_error:.5} (limit {MAX_RELATIVE_ERROR})",
        profile_s.len()
    );
    report.check(relative_error <= MAX_RELATIVE_ERROR, || {
        format!("MoCHy-A+ relative error {relative_error} above {MAX_RELATIVE_ERROR}")
    });

    println!("{}", crate::stats::summary("profile_s", &profile_s));
    println!("{}", crate::stats::summary("setup_s", &setup_s));
    let profile_median = median(&profile_s);
    if !tracer.enabled() {
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", median(&peak_mb), "MB");
        report.metric("latency_p50_ms", profile_median * 1e3, "ms");
        report.metric("throughput", 1.0 / profile_median, "1/s");
        return Ok(report);
    }

    let traced_ms = median(&tracer.durations_ms("profile-sparse.profile"));
    crate::layers::probe(run, &input, &mut report)?;
    report.metric(
        "trace.overhead_ratio",
        traced_ms / (profile_median * 1e3),
        "ratio",
    );
    Ok(report)
}

/// Rebuilds `ProfileEstimator::estimate` from its public parts: the same
/// projection, sample size and engine seed for the real graph and each
/// Chung-Lu reference, with the reference seeds the estimator derives.
fn traced_profile(run: &Run, hypergraph: &Hypergraph, request: u64) -> [f64; NUM_MOTIFS] {
    let tracer = &run.tracer;
    // ProfileEstimator seeds its engine with `seed + 0x9E37`.
    let engine_seed = run.seed.wrapping_add(0x9E37);
    let count = |graph: &Hypergraph| {
        let projected = tracer.span("projection::project_parallel", request, || {
            project_parallel(graph, THREADS)
        });
        let samples = wedge_samples(projected.num_hyperwedges());
        tracer.span("core::mochy_a_plus_parallel", request, || {
            mochy_a_plus_parallel(graph, &projected, samples, THREADS, engine_seed)
        })
    };
    let real = count(hypergraph);
    let references: Vec<MotifCounts> = (0..REFERENCES as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(run.seed.wrapping_add(1 + i));
            let randomized = tracer.span("nullmodel::chung_lu_randomize", request, || {
                chung_lu_randomize(hypergraph, &mut rng)
            });
            count(&randomized)
        })
        .collect();
    let mean = MotifCounts::mean(&references);
    tracer.span("core::profile::characteristic_profile", request, || {
        characteristic_profile(&significance(&real, &mean, SignificanceOptions::default()))
    })
}

/// The engine's sample size for `SampleWedgeRatio`: ⌈|∧| · ratio⌉, at least 1.
fn wedge_samples(hyperwedges: usize) -> usize {
    if hyperwedges == 0 {
        0
    } else {
        ((hyperwedges as f64 * RATIO).ceil() as usize).max(1)
    }
}
