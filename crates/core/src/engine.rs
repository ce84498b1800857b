//! The unified counting engine: one entry point for every MoCHy variant.
//!
//! The paper presents a *family* of interchangeable counting algorithms —
//! MoCHy-E (Algorithm 2), MoCHy-A (Algorithm 4), MoCHy-A+ (Algorithm 5),
//! plus parallel, adaptive, and on-the-fly variants. This module exposes
//! them behind a single configuration-driven API so callers switch
//! algorithms by changing only a [`CountConfig`], never the call site:
//!
//! ```
//! use mochy_core::engine::{CountConfig, Method};
//! use mochy_hypergraph::HypergraphBuilder;
//!
//! let h = HypergraphBuilder::new()
//!     .with_edge([0u32, 1, 2])
//!     .with_edge([0, 3, 1])
//!     .with_edge([4, 5, 0])
//!     .with_edge([6, 7, 2])
//!     .build()
//!     .unwrap();
//!
//! let report = CountConfig::new(Method::Exact).build().count(&h);
//! assert_eq!(report.counts.total(), 3.0);
//!
//! // Same call shape, different algorithm: MoCHy-A+ with 100 samples.
//! let report = CountConfig::new(Method::WedgeSample { samples: 100 })
//!     .seed(7)
//!     .build()
//!     .count(&h);
//! assert_eq!(report.samples_drawn, Some(100));
//! ```
//!
//! | Paper algorithm | [`Method`] variant |
//! |---|---|
//! | Algorithm 2, MoCHy-E (+ Section 3.4 parallel) | [`Method::Exact`] |
//! | Algorithm 4, MoCHy-A | [`Method::EdgeSample`] |
//! | Algorithm 5, MoCHy-A+ | [`Method::WedgeSample`] |
//! | Algorithm 5 + batched stopping rule | [`Method::Adaptive`] |
//! | Section 3.4 on-the-fly projection | [`Method::OnTheFly`] |
//!
//! Exact counts of a hypergraph under hyperedge churn come from a
//! [`crate::streaming::StreamingEngine`], not from a [`Method`].
//!
//! The engine owns the three concerns the free functions used to push onto
//! every caller:
//!
//! - **Projection strategy** — eager ([`project`]), eager-parallel
//!   ([`project_parallel`]) or lazy ([`mochy_projection::LazyProjection`]),
//!   chosen from the method and thread count (reported as
//!   [`ProjectionMode`]). A caller that keeps the projected graph of an
//!   immutable hypergraph passes it to [`MotifEngine::count_projected`]
//!   instead, which reports the same.
//! - **RNG construction** — sampling methods derive every random draw from
//!   the configured `u64` seed; no RNG value crosses the API. Parallel
//!   sampling derives one stream per *sample index*, so counts are
//!   identical for every thread count.
//! - **Thread dispatch** — `threads > 1` routes counting through the shared
//!   work-stealing pool ([`mochy_hypergraph::parallel`]): workers claim
//!   hyperedge (or sample) blocks from an atomic chunked queue, so
//!   skewed-degree datasets do not serialize on one heavy static shard.
//!   Projection ([`project_parallel`]) gives each worker one block of
//!   hyperedges, balanced by the work each costs.
//! - **Per-stage timings** — every [`CountReport`] records
//!   [`CountReport::projection_time`] and [`CountReport::counting_time`]
//!   alongside the total [`CountReport::elapsed`], which is what the
//!   `mochy-exp perf` harness (and `BENCH.json`) reads. Timing fields are
//!   excluded from report equality.

use std::time::{Duration, Instant};

use mochy_hypergraph::Hypergraph;
use mochy_motif::NUM_MOTIFS;
use mochy_projection::{project, project_parallel, MemoPolicy, MemoStats, ProjectedGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adaptive::{mochy_a_plus_adaptive_impl, AdaptiveConfig};
use crate::count::MotifCounts;
use crate::exact::mochy_e_parallel;
use crate::general::{mochy_e_general, GeneralCounts};
use crate::onthefly::{mochy_a_plus_onthefly_impl, OnTheFlyConfig};
use crate::sample::{mochy_a_parallel, mochy_a_plus_parallel};

/// Which counting algorithm the engine runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// MoCHy-E (Algorithm 2): exact counts.
    Exact,
    /// MoCHy-A (Algorithm 4): unbiased estimates from `samples` hyperedges
    /// drawn uniformly with replacement.
    EdgeSample {
        /// Number of hyperedge samples `s`.
        samples: usize,
    },
    /// MoCHy-A+ (Algorithm 5): unbiased estimates from `samples` hyperwedges
    /// drawn uniformly with replacement.
    WedgeSample {
        /// Number of hyperwedge samples `r`.
        samples: usize,
    },
    /// MoCHy-A+ with the sample count set to `ratio · |∧|` (the
    /// parameterization of Figures 8 and 9, sized by
    /// [`wedge_ratio_samples`]); the engine sizes the sample from the
    /// projection it counts on, so callers never need `|∧|` up front.
    WedgeSampleRatio {
        /// Fraction of the hyperwedge count to draw (clamped to ≥ 1 sample
        /// when any hyperwedge exists).
        ratio: f64,
    },
    /// MoCHy-A+ with the batched adaptive stopping rule: samples until the
    /// target relative standard error (or the batch cap) is reached.
    Adaptive(AdaptiveConfig),
    /// MoCHy-A+ over a lazily projected, budget-memoized graph
    /// (Section 3.4): never materializes the full projected graph.
    OnTheFly {
        /// Number of hyperwedge samples `r`.
        samples: usize,
        /// Memoization budget, in adjacency entries.
        budget_entries: usize,
        /// Cache admission/eviction policy.
        policy: MemoPolicy,
    },
}

impl Method {
    /// A short stable name for tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Exact => "mochy-e",
            Method::EdgeSample { .. } => "mochy-a",
            Method::WedgeSample { .. } | Method::WedgeSampleRatio { .. } => "mochy-a+",
            Method::Adaptive(_) => "mochy-a+-adaptive",
            Method::OnTheFly { .. } => "mochy-a+-otf",
        }
    }

    /// Whether the method produces exact counts (vs. unbiased estimates).
    pub fn is_exact(&self) -> bool {
        matches!(self, Method::Exact)
    }
}

/// The number of hyperwedges [`Method::WedgeSampleRatio`] draws from a
/// projected graph with `num_hyperwedges` hyperwedges: `⌈ratio · |∧|⌉`, at
/// least 1 when any hyperwedge exists, and 0 when none does. Callers that
/// bound a query's samples check this same number before counting.
pub fn wedge_ratio_samples(num_hyperwedges: usize, ratio: f64) -> usize {
    if num_hyperwedges == 0 {
        0
    } else {
        ((num_hyperwedges as f64 * ratio).ceil() as usize).max(1)
    }
}

/// A rejected [`CountConfig`] builder call: the requested combination of
/// options is not supported. Returned (never panicked) so callers that
/// assemble configurations from untrusted input — the HTTP API, CLI flag
/// parsing — can map bad requests to their own error surface (e.g. a 400).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// [`CountConfig::shards`] with `K > 1` on a non-exact method: sampling
    /// estimators draw from the global hyperwedge distribution and do not
    /// decompose over contiguous hyperedge shards.
    ShardsRequireExact,
    /// [`CountConfig::generalized`] with a `k` outside `{3, 4}`: those are
    /// the only generalized h-motif orders with a catalog (Section 2.2).
    UnsupportedGeneralizedK(u32),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ShardsRequireExact => {
                write!(f, "sharded counting supports method mochy-e (exact) only")
            }
            ConfigError::UnsupportedGeneralizedK(k) => {
                write!(f, "generalized counting supports k = 3 or 4, got {k}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a counting run; build one, then call
/// [`CountConfig::build`] to obtain the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountConfig {
    /// The counting algorithm.
    pub method: Method,
    /// Worker threads (`0` and `1` both mean sequential).
    pub threads: usize,
    /// Seed for all randomness in sampling methods. Runs with equal
    /// configurations produce identical reports.
    pub seed: u64,
    /// When `Some(k)` (k = 3 or 4), the report additionally carries exact
    /// generalized h-motif counts over `k` hyperedges (Section 2.2).
    pub generalized_k: Option<u32>,
    /// Number of contiguous hyperedge shards for [`Method::Exact`]. `0` and
    /// `1` both mean unsharded; `K > 1` routes through the scatter-gather
    /// path ([`crate::shard`]): MoCHy-E over each shard's span of centre
    /// hyperedges on the one full projection, merged order-fixed. The merged
    /// report is bit-identical to the unsharded run for every `K`
    /// (shard-count invariance, pinned by the `shard_invariance.rs` suite,
    /// which CI runs at two pool sizes).
    pub shards: usize,
}

impl CountConfig {
    /// A configuration running `method` sequentially with seed 0.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            threads: 1,
            seed: 0,
            generalized_k: None,
            shards: 1,
        }
    }

    /// Shorthand for [`Method::Exact`].
    pub fn exact() -> Self {
        Self::new(Method::Exact)
    }

    /// Shorthand for [`Method::EdgeSample`].
    pub fn edge_sample(samples: usize) -> Self {
        Self::new(Method::EdgeSample { samples })
    }

    /// Shorthand for [`Method::WedgeSample`].
    pub fn wedge_sample(samples: usize) -> Self {
        Self::new(Method::WedgeSample { samples })
    }

    /// Shorthand for [`Method::WedgeSampleRatio`].
    pub fn wedge_sample_ratio(ratio: f64) -> Self {
        Self::new(Method::WedgeSampleRatio { ratio })
    }

    /// Shorthand for [`Method::Adaptive`].
    pub fn adaptive(config: AdaptiveConfig) -> Self {
        Self::new(Method::Adaptive(config))
    }

    /// Shorthand for [`Method::OnTheFly`].
    pub fn on_the_fly(samples: usize, budget_entries: usize, policy: MemoPolicy) -> Self {
        Self::new(Method::OnTheFly {
            samples,
            budget_entries,
            policy,
        })
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the RNG seed used by sampling methods.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Splits exact counting across `k` contiguous hyperedge shards
    /// (scatter-gather; merged bit-identical to unsharded). Only
    /// [`Method::Exact`] decomposes this way — sampling estimators draw
    /// from the global hyperwedge distribution, so `k > 1` on any other
    /// method is rejected with [`ConfigError::ShardsRequireExact`].
    pub fn shards(mut self, k: usize) -> Result<Self, ConfigError> {
        if k > 1 && !matches!(self.method, Method::Exact) {
            return Err(ConfigError::ShardsRequireExact);
        }
        self.shards = k;
        Ok(self)
    }

    /// Requests generalized h-motif counts over `k` hyperedges (3 or 4) in
    /// addition to the 26 classic h-motifs; any other `k` is rejected with
    /// [`ConfigError::UnsupportedGeneralizedK`].
    pub fn generalized(mut self, k: u32) -> Result<Self, ConfigError> {
        if !(3..=4).contains(&k) {
            return Err(ConfigError::UnsupportedGeneralizedK(k));
        }
        self.generalized_k = Some(k);
        Ok(self)
    }

    /// Finalizes the configuration into an engine.
    pub fn build(self) -> MotifEngine {
        MotifEngine::new(self)
    }
}

/// How the engine materialized the projected graph for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionMode {
    /// Sequential Algorithm 1 ([`project`]).
    Eager,
    /// Multi-threaded Algorithm 1 ([`project_parallel`]).
    EagerParallel {
        /// Number of projection threads.
        threads: usize,
    },
    /// On-demand neighbourhoods through a budget-memoized
    /// [`mochy_projection::LazyProjection`]; the full projected graph is
    /// never materialized.
    Lazy {
        /// Memoization budget, in adjacency entries.
        budget_entries: usize,
        /// Cache admission/eviction policy.
        policy: MemoPolicy,
    },
}

/// The result of a [`MotifEngine::count`] run: the counts plus estimator
/// metadata.
///
/// Equality compares everything **except** the wall-clock fields
/// ([`CountReport::elapsed`], [`CountReport::projection_time`],
/// [`CountReport::counting_time`]), so two runs with the same configuration
/// and seed compare equal even though their timings differ.
#[derive(Debug, Clone)]
pub struct CountReport {
    /// Exact counts ([`Method::Exact`]) or unbiased estimates (all other
    /// methods) of the 26 h-motif instance counts.
    pub counts: MotifCounts,
    /// The method that produced the counts.
    pub method: Method,
    /// Samples actually drawn, for sampling methods (`None` for
    /// [`Method::Exact`]; `Some(0)` when the hypergraph had nothing to
    /// sample from, e.g. no hyperwedges).
    pub samples_drawn: Option<usize>,
    /// Batches run, for [`Method::Adaptive`].
    pub batches: Option<usize>,
    /// Per-motif standard errors of the estimate, for [`Method::Adaptive`].
    pub standard_errors: Option<[f64; NUM_MOTIFS]>,
    /// Relative standard error of the estimated total at termination, for
    /// [`Method::Adaptive`].
    pub total_relative_error: Option<f64>,
    /// Whether the adaptive stopping rule reached its precision target
    /// (`None` for non-adaptive methods).
    pub converged: Option<bool>,
    /// Memoization cache behaviour, for [`Method::OnTheFly`].
    pub memo_stats: Option<MemoStats>,
    /// Number of hyperwedges `|∧|` in the projected graph, when the run
    /// determined it.
    pub num_hyperwedges: Option<usize>,
    /// Exact generalized h-motif counts, when
    /// [`CountConfig::generalized_k`] was set.
    pub generalized: Option<GeneralCounts>,
    /// How the projected graph was obtained.
    pub projection: ProjectionMode,
    /// Wall-clock time spent materializing the projected graph (excluded
    /// from equality). Zero for [`Method::OnTheFly`], whose neighbourhoods
    /// are computed on demand during counting, and for
    /// [`MotifEngine::count_projected`], whose caller supplies the graph.
    pub projection_time: Duration,
    /// Wall-clock time spent in the counting/sampling stage proper
    /// (excluded from equality). For [`Method::OnTheFly`] this includes the
    /// lazy neighbourhood computation.
    pub counting_time: Duration,
    /// Wall-clock duration of the whole run, including report assembly and
    /// any generalized-count ride-along (excluded from equality).
    pub elapsed: Duration,
}

impl PartialEq for CountReport {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
            && self.method == other.method
            && self.samples_drawn == other.samples_drawn
            && self.batches == other.batches
            && self.standard_errors == other.standard_errors
            && self.total_relative_error == other.total_relative_error
            && self.converged == other.converged
            && self.memo_stats == other.memo_stats
            && self.num_hyperwedges == other.num_hyperwedges
            && self.generalized == other.generalized
            && self.projection == other.projection
    }
}

impl CountReport {
    /// A two-sided normal confidence interval for motif `id` (1-based) at
    /// the given z value (1.96 for ~95%), when standard errors are
    /// available (currently [`Method::Adaptive`] only). The lower bound is
    /// clamped at 0.
    pub fn confidence_interval(&self, id: mochy_motif::MotifId, z: f64) -> Option<(f64, f64)> {
        let errors = self.standard_errors.as_ref()?;
        let center = self.counts.get(id);
        let half = z * errors[(id - 1) as usize];
        Some(((center - half).max(0.0), center + half))
    }
}

/// The unified counting engine. Construct via [`CountConfig::build`] (or
/// [`MotifEngine::new`]) and run with [`MotifEngine::count`], or with
/// [`MotifEngine::count_projected`] on a projected graph already at hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifEngine {
    config: CountConfig,
}

impl MotifEngine {
    /// Creates an engine from a configuration.
    pub fn new(config: CountConfig) -> Self {
        Self { config }
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &CountConfig {
        &self.config
    }

    /// Counts the h-motif instances of `hypergraph` with the configured
    /// method, projection strategy, thread count and seed: every method but
    /// [`Method::OnTheFly`] projects the hypergraph (Algorithm 1), then
    /// counts through [`MotifEngine::count_projected`].
    pub fn count(&self, hypergraph: &Hypergraph) -> CountReport {
        let start = Instant::now();
        let mut report = match self.config.method {
            Method::OnTheFly {
                samples,
                budget_entries,
                policy,
            } => self.sample_on_the_fly(hypergraph, samples, budget_entries, policy, None),
            _ => {
                let (projected, projection_time) =
                    timed(|| project_parallel(hypergraph, self.config.threads));
                let mut report = self.count_projected(hypergraph, &projected);
                report.projection_time = projection_time;
                report
            }
        };
        report.elapsed = start.elapsed();
        report
    }

    /// Counts on `projected`, the projected graph of `hypergraph` that the
    /// caller already holds, so repeated queries on one immutable hypergraph
    /// project it once. The report compares equal to
    /// [`MotifEngine::count`]'s with the same configuration, `projection`
    /// included: the projected graph is the same for every thread count.
    /// Its [`CountReport::projection_time`] is zero. [`Method::OnTheFly`]
    /// still counts without `projected` and uses it only for generalized
    /// counts, and [`Method::EdgeSample`] reads from it only `|∧|`.
    pub fn count_projected(
        &self,
        hypergraph: &Hypergraph,
        projected: &ProjectedGraph,
    ) -> CountReport {
        let start = Instant::now();
        let threads = self.config.threads.max(1);
        let seed = self.config.seed;

        let mut report = match self.config.method {
            Method::Exact => {
                let ((counts, num_hyperwedges), counting_time) = timed(|| {
                    if self.config.shards > 1 {
                        // Scatter-gather: MoCHy-E over each shard's centre
                        // span, merged order-fixed. The merged counts and
                        // hyperwedge total are bit-identical to the
                        // unsharded branches, so the report compares equal
                        // across shard counts (PartialEq ignores timings).
                        let partials = crate::shard::count_sharded(
                            hypergraph,
                            projected,
                            self.config.shards,
                            threads,
                        );
                        crate::shard::merge_partials(&partials)
                    } else {
                        let counts = mochy_e_parallel(hypergraph, projected, threads);
                        (counts, projected.num_hyperwedges())
                    }
                });
                let mut report =
                    self.base_report(counts, counting_time, Some(projected), hypergraph);
                report.num_hyperwedges = Some(num_hyperwedges);
                report
            }
            Method::EdgeSample { samples } => {
                // Sequential and parallel dispatch share this entry point;
                // it derives a per-sample-index StdRng from the seed, so the
                // estimate is thread-count invariant.
                let (counts, counting_time) =
                    timed(|| mochy_a_parallel(hypergraph, samples, threads, seed));
                let mut report =
                    self.base_report(counts, counting_time, Some(projected), hypergraph);
                // The sampler early-returns without drawing on an empty
                // hypergraph; report what was actually drawn.
                report.samples_drawn = Some(if hypergraph.num_edges() == 0 {
                    0
                } else {
                    samples
                });
                report
            }
            Method::WedgeSample { samples } => {
                let (counts, counting_time) =
                    timed(|| mochy_a_plus_parallel(hypergraph, projected, samples, threads, seed));
                let drawn = if projected.num_hyperwedges() == 0 {
                    0
                } else {
                    samples
                };
                let mut report =
                    self.base_report(counts, counting_time, Some(projected), hypergraph);
                report.samples_drawn = Some(drawn);
                report
            }
            Method::WedgeSampleRatio { ratio } => {
                let samples = wedge_ratio_samples(projected.num_hyperwedges(), ratio);
                let (counts, counting_time) =
                    timed(|| mochy_a_plus_parallel(hypergraph, projected, samples, threads, seed));
                let mut report =
                    self.base_report(counts, counting_time, Some(projected), hypergraph);
                report.samples_drawn = Some(samples);
                report
            }
            Method::Adaptive(adaptive_config) => {
                // The stopping rule is inherently sequential (each batch
                // decides whether another is needed), so `threads` only
                // accelerates the projection.
                let mut rng = StdRng::seed_from_u64(seed);
                let (outcome, counting_time) = timed(|| {
                    mochy_a_plus_adaptive_impl(hypergraph, projected, adaptive_config, &mut rng)
                });
                let mut report =
                    self.base_report(outcome.estimate, counting_time, Some(projected), hypergraph);
                report.samples_drawn = Some(outcome.samples);
                report.batches = Some(outcome.batches);
                report.standard_errors = Some(outcome.standard_errors);
                report.total_relative_error = Some(outcome.total_relative_error);
                report.converged = Some(outcome.converged);
                report
            }
            Method::OnTheFly {
                samples,
                budget_entries,
                policy,
            } => {
                self.sample_on_the_fly(hypergraph, samples, budget_entries, policy, Some(projected))
            }
        };
        report.elapsed = start.elapsed();
        report
    }

    /// [`Method::OnTheFly`]: no projection stage, since neighbourhoods are
    /// computed on demand inside the sampling loop, so the whole run is
    /// counting. `projected`, when given, serves only the generalized counts.
    fn sample_on_the_fly(
        &self,
        hypergraph: &Hypergraph,
        samples: usize,
        budget_entries: usize,
        policy: MemoPolicy,
        projected: Option<&ProjectedGraph>,
    ) -> CountReport {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let config = OnTheFlyConfig {
            num_samples: samples,
            budget_entries,
            policy,
        };
        let (outcome, counting_time) =
            timed(|| mochy_a_plus_onthefly_impl(hypergraph, config, &mut rng));
        let mut report = self.base_report(outcome.counts, counting_time, projected, hypergraph);
        report.samples_drawn = Some(if outcome.num_hyperwedges == 0 {
            0
        } else {
            samples
        });
        report.memo_stats = Some(outcome.memo_stats);
        report.num_hyperwedges = Some(outcome.num_hyperwedges);
        report
    }

    /// How the configured method obtains its projected graph.
    fn projection_mode(&self) -> ProjectionMode {
        match self.config.method {
            Method::OnTheFly {
                budget_entries,
                policy,
                ..
            } => ProjectionMode::Lazy {
                budget_entries,
                policy,
            },
            _ if self.config.threads > 1 => ProjectionMode::EagerParallel {
                threads: self.config.threads,
            },
            _ => ProjectionMode::Eager,
        }
    }

    fn base_report(
        &self,
        counts: MotifCounts,
        counting_time: Duration,
        projected: Option<&ProjectedGraph>,
        hypergraph: &Hypergraph,
    ) -> CountReport {
        let generalized = self.config.generalized_k.map(|k| {
            let catalog = mochy_motif::GeneralizedCatalog::new(k);
            match projected {
                Some(projected) => mochy_e_general(hypergraph, projected, &catalog),
                // On-the-fly runs never materialize the projected graph;
                // generalized counting is exact and needs one, so build it
                // here (documented trade-off of combining the two options).
                None => mochy_e_general(hypergraph, &project(hypergraph), &catalog),
            }
        });
        CountReport {
            counts,
            method: self.config.method,
            samples_drawn: None,
            batches: None,
            standard_errors: None,
            total_relative_error: None,
            converged: None,
            memo_stats: None,
            num_hyperwedges: projected.map(ProjectedGraph::num_hyperwedges),
            generalized,
            projection: self.projection_mode(),
            projection_time: Duration::ZERO,
            counting_time,
            elapsed: Duration::ZERO,
        }
    }
}

/// Runs `f` and returns its result together with the wall-clock duration.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}
