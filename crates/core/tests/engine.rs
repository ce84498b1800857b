//! Integration tests of the `MotifEngine`: every `Method` variant agrees
//! with MoCHy-E on the Figure 2 hypergraph, and equal configurations yield
//! identical reports.

use mochy_core::engine::{CountConfig, Method, ProjectionMode};
use mochy_core::{mochy_e, AdaptiveConfig};
use mochy_hypergraph::{Hypergraph, HypergraphBuilder};
use mochy_projection::{project, MemoPolicy};

/// Figure 2 of the paper: e1={L,K,F}, e2={L,H,K}, e3={B,G,L}, e4={S,R,F}.
/// Three h-motif instances: {e1,e2,e3}, {e1,e2,e4}, {e1,e3,e4}.
fn figure2() -> Hypergraph {
    HypergraphBuilder::new()
        .with_edge([0u32, 1, 2])
        .with_edge([0, 3, 1])
        .with_edge([4, 5, 0])
        .with_edge([6, 7, 2])
        .build()
        .unwrap()
}

/// A denser hypergraph where sampling estimates have enough instances to
/// concentrate.
fn denser() -> Hypergraph {
    let mut builder = HypergraphBuilder::new();
    // 40 overlapping triangles over 25 nodes.
    for i in 0..40u32 {
        builder.add_edge([i % 25, (i * 7 + 1) % 25, (i * 11 + 3) % 25]);
    }
    builder.dedup_hyperedges(true).build().unwrap()
}

#[test]
fn exact_method_matches_mochy_e_bit_for_bit() {
    let h = figure2();
    let reference = mochy_e(&h, &project(&h));
    for threads in [1, 4] {
        let report = CountConfig::exact().threads(threads).build().count(&h);
        assert_eq!(report.counts, reference, "threads = {threads}");
        assert_eq!(report.counts.total(), 3.0);
        assert_eq!(report.samples_drawn, None);
        let expected_mode = if threads > 1 {
            ProjectionMode::EagerParallel { threads }
        } else {
            ProjectionMode::Eager
        };
        assert_eq!(report.projection, expected_mode);
        // Adjacent pairs: e1–e2, e1–e3, e1–e4, e2–e3.
        assert_eq!(report.num_hyperwedges, Some(4));
    }
}

#[test]
fn every_sampling_method_is_within_tolerance_of_exact() {
    let h = denser();
    let exact = mochy_e(&h, &project(&h)).total();
    assert!(exact > 0.0);

    let samples = 20_000;
    let methods = [
        Method::EdgeSample { samples },
        Method::WedgeSample { samples },
        Method::Adaptive(AdaptiveConfig {
            batch_size: 2_000,
            min_batches: 4,
            max_batches: 32,
            target_relative_error: 0.02,
        }),
        Method::OnTheFly {
            samples,
            budget_entries: 64,
            policy: MemoPolicy::Lru,
        },
    ];
    for method in methods {
        let report = CountConfig::new(method).seed(42).build().count(&h);
        let relative = (report.counts.total() - exact).abs() / exact;
        assert!(
            relative < 0.10,
            "{}: estimate {} vs exact {exact} (relative error {relative:.4})",
            method.name(),
            report.counts.total()
        );
        assert!(report.samples_drawn.is_some(), "{}", method.name());
    }
}

#[test]
fn sampling_on_figure2_with_heavy_sampling_is_close() {
    // "Ratio 1.0" sampling on the tiny Figure 2 graph is noisy, so draw
    // many samples; the estimators are unbiased, so the mean concentrates.
    let h = figure2();
    for method in [
        Method::EdgeSample { samples: 30_000 },
        Method::WedgeSample { samples: 30_000 },
    ] {
        let report = CountConfig::new(method).seed(7).build().count(&h);
        let relative = (report.counts.total() - 3.0).abs() / 3.0;
        assert!(
            relative < 0.05,
            "{}: total {} (relative error {relative:.4})",
            method.name(),
            report.counts.total()
        );
    }
}

#[test]
fn parallel_sampling_matches_method_contract() {
    // Parallel runs are deterministic per (seed, threads) and stay within
    // tolerance of the exact counts.
    let h = denser();
    let exact = mochy_e(&h, &project(&h)).total();
    for threads in [2, 4] {
        let config = CountConfig::wedge_sample(20_000).seed(3).threads(threads);
        let a = config.build().count(&h);
        let b = config.build().count(&h);
        assert_eq!(a, b, "threads = {threads}");
        let relative = (a.counts.total() - exact).abs() / exact;
        assert!(relative < 0.10, "threads = {threads}: {relative:.4}");
    }
}

#[test]
fn same_seed_yields_identical_reports() {
    let h = denser();
    let projected = project(&h);
    let methods = [
        CountConfig::exact(),
        CountConfig::edge_sample(500).seed(9),
        CountConfig::wedge_sample(500).seed(9),
        CountConfig::wedge_sample_ratio(0.5).seed(9),
        CountConfig::adaptive(AdaptiveConfig {
            batch_size: 200,
            min_batches: 2,
            max_batches: 8,
            target_relative_error: 0.05,
        })
        .seed(9),
        CountConfig::on_the_fly(500, 32, MemoPolicy::HighestDegree).seed(9),
    ];
    let configs = [1, 4]
        .into_iter()
        .flat_map(|threads| methods.map(|config| config.threads(threads)))
        .chain([
            CountConfig::exact().shards(2).unwrap(),
            CountConfig::exact().generalized(3).unwrap(),
        ]);
    for config in configs {
        let first = config.build().count(&h);
        let second = config.build().count(&h);
        // `CountReport` equality deliberately ignores elapsed wall-clock.
        assert_eq!(first, second, "{config:?}");
        // A supplied projection yields the same report, `projection`
        // included.
        let supplied = config.build().count_projected(&h, &projected);
        assert_eq!(first, supplied, "{config:?}");
    }
}

#[test]
fn wedge_sample_ratio_sizes_from_the_engines_own_projection() {
    let h = denser();
    let num_wedges = project(&h).num_hyperwedges();
    let report = CountConfig::wedge_sample_ratio(0.5)
        .seed(4)
        .build()
        .count(&h);
    assert_eq!(
        report.samples_drawn,
        Some(((num_wedges as f64 * 0.5).ceil() as usize).max(1))
    );
    let exact = mochy_e(&h, &project(&h)).total();
    let relative = (report.counts.total() - exact).abs() / exact;
    assert!(relative < 0.25, "relative error {relative:.4}");
}

#[test]
fn samples_drawn_is_zero_when_nothing_can_be_sampled() {
    // Two disjoint hyperedges: no hyperwedges, so wedge samplers draw
    // nothing regardless of the requested count.
    let h = HypergraphBuilder::new()
        .with_edge([0u32, 1, 2])
        .with_edge([3, 4, 5])
        .build()
        .unwrap();
    for config in [
        CountConfig::wedge_sample(100),
        CountConfig::wedge_sample_ratio(1.0),
        CountConfig::on_the_fly(100, 16, MemoPolicy::Lru),
    ] {
        let report = config.build().count(&h);
        assert_eq!(report.samples_drawn, Some(0), "{}", config.method.name());
        assert_eq!(report.counts.total(), 0.0);
    }
    // Edge sampling still draws (hyperedges exist), it just finds nothing.
    let report = CountConfig::edge_sample(100).build().count(&h);
    assert_eq!(report.samples_drawn, Some(100));
    assert_eq!(report.counts.total(), 0.0);
}

#[test]
fn different_seeds_change_sampled_estimates() {
    let h = denser();
    let per_seed: Vec<f64> = (0..8)
        .map(|seed| {
            CountConfig::wedge_sample(50)
                .seed(seed)
                .build()
                .count(&h)
                .counts
                .total()
        })
        .collect();
    assert!(
        per_seed.iter().any(|&t| (t - per_seed[0]).abs() > 1e-9),
        "eight seeds produced identical 50-sample estimates: {per_seed:?}"
    );
}

#[test]
fn generalized_counts_ride_along() {
    let h = figure2();
    let report = CountConfig::exact()
        .generalized(4)
        .expect("k = 4 is supported")
        .build()
        .count(&h);
    let quads = report.generalized.expect("generalized(4) was configured");
    assert_eq!(quads.k(), 4);
    // Figure 2 has exactly one connected 4-set: all four hyperedges.
    assert_eq!(quads.total(), 1);

    // The option composes with lazy projection too (engine falls back to an
    // eager projection for the generalized pass).
    let otf = CountConfig::on_the_fly(100, 16, MemoPolicy::Lru)
        .generalized(3)
        .expect("k = 3 is supported")
        .build()
        .count(&h);
    assert_eq!(otf.generalized.expect("generalized(3)").total(), 3);
}

#[test]
fn generalized_k4_catalog_has_1853_motifs_through_the_engine() {
    // Section 2.2: 26 motifs over k = 3 hyperedges, 1 853 over k = 4. Pin
    // both through the engine's ride-along path, so the catalog the service
    // layer reports stays anchored to the paper's numbers.
    let h = figure2();
    let quads = CountConfig::exact()
        .generalized(4)
        .expect("k = 4 is supported")
        .build()
        .count(&h)
        .generalized
        .expect("generalized(4) was configured");
    assert_eq!(quads.as_slice().len(), 1853);
    let triples = CountConfig::exact()
        .generalized(3)
        .expect("k = 3 is supported")
        .build()
        .count(&h)
        .generalized
        .expect("generalized(3) was configured");
    assert_eq!(triples.as_slice().len(), 26);
}

#[test]
fn generalized_k3_counts_match_mochy_e_through_the_engine() {
    // On Figure 2 and on a generated dataset, the generalized k = 3 counts
    // must agree with the classic 26-motif MoCHy-E counts: same total, and
    // the same multiset of per-motif counts (the two catalogs label the 26
    // equivalence classes differently).
    let generated = mochy_datagen::generate(&mochy_datagen::GeneratorConfig::new(
        mochy_datagen::DomainKind::Email,
        80,
        120,
        21,
    ));
    for (name, h) in [("figure2", figure2()), ("email", generated)] {
        let report = CountConfig::exact()
            .generalized(3)
            .expect("k = 3 is supported")
            .build()
            .count(&h);
        let triples = report.generalized.as_ref().expect("generalized(3)");
        assert_eq!(
            triples.total() as f64,
            report.counts.total(),
            "{name}: totals must agree"
        );
        let mut general: Vec<u64> = triples
            .as_slice()
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        let mut classic: Vec<u64> = report
            .counts
            .as_slice()
            .iter()
            .map(|&c| c as u64)
            .filter(|&c| c > 0)
            .collect();
        general.sort_unstable();
        classic.sort_unstable();
        assert_eq!(general, classic, "{name}: per-motif multisets must agree");
    }
}

#[test]
fn on_the_fly_reports_cache_behaviour() {
    let h = denser();
    let report = CountConfig::on_the_fly(2_000, 64, MemoPolicy::Lru)
        .seed(1)
        .build()
        .count(&h);
    let stats = report.memo_stats.expect("on-the-fly reports memo stats");
    assert!(stats.hits + stats.misses > 0);
    assert_eq!(
        report.projection,
        ProjectionMode::Lazy {
            budget_entries: 64,
            policy: MemoPolicy::Lru
        }
    );
    // The wedge count discovered by the degree pass matches the eager one.
    assert_eq!(report.num_hyperwedges, Some(project(&h).num_hyperwedges()));
}

#[test]
fn adaptive_reports_convergence_metadata() {
    let h = denser();
    let report = CountConfig::adaptive(AdaptiveConfig {
        batch_size: 1_000,
        min_batches: 3,
        max_batches: 64,
        target_relative_error: 0.05,
    })
    .seed(5)
    .build()
    .count(&h);
    assert!(report.batches.unwrap() >= 3);
    assert_eq!(
        report.samples_drawn.unwrap(),
        report.batches.unwrap() * 1_000
    );
    assert!(report.standard_errors.is_some());
    assert!(report.total_relative_error.is_some());
    let (low, high) = report.confidence_interval(1, 1.96).unwrap();
    assert!(low <= high);
}
