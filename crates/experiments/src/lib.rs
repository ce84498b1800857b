//! Experiment implementations regenerating the paper's tables and figures.
//!
//! Each module produces the rows/series of one table or figure of the
//! evaluation section (Section 4) as a plain-text table, so results can be
//! diffed, plotted, or pasted into EXPERIMENTS.md. The `mochy-exp` binary
//! dispatches to these modules; the library form exists so integration tests
//! and benches can call the same code.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table2`] | Table 2 — dataset statistics |
//! | [`table3`] | Table 3 — real vs randomized counts, relative counts, rank differences |
//! | [`fig5`]   | Figures 1 & 5 — characteristic profiles per dataset |
//! | [`fig6`]   | Figure 6 — CP similarity: h-motifs vs network motifs |
//! | [`fig7`]   | Figure 7 — evolution of co-authorship motif fractions |
//! | [`table4`] | Table 4 — hyperedge prediction (HM26 / HM7 / HC) |
//! | [`fig8`]   | Figure 8 — speed vs accuracy of MoCHy-E / A / A+ |
//! | [`fig9`]   | Figure 9 — CP estimation error vs sample size |
//! | [`fig10`]  | Figure 10 — multi-thread speed-ups |
//! | [`fig11`]  | Figure 11 — on-the-fly memoization budgets |
//! | [`q3domain`] | Q3 — leave-one-out domain identification from CPs |
//! | [`pairwise`] | Section 2.2 / 3 — pairwise-baseline collapse study |
//! | [`nullmodels`] | Appendix D — null-model preservation diagnostics |
//!
//! In addition, [`perf`] implements the `mochy-exp perf` subcommand — the
//! deterministic perf-smoke harness that times projection vs counting for
//! every method on the bench workloads, emits `BENCH.json`, and (with
//! `--check`) gates against a committed baseline — and [`evolve`] implements
//! `mochy-exp evolve`, which drives the streaming engine over a temporal
//! hyperedge event stream with per-checkpoint verification (both run by
//! `ci.sh`). The `.mochy` binary-snapshot tooling lives in [`snapshot`]
//! (`mochy-exp convert` and the `snapshot-check` round-trip gate), [`shard`]
//! implements `shard-check`, the CI shard-equivalence gate behind
//! `SHARD.json`, [`cibudget`] implements `mochy-exp ci-budget`, the
//! per-stage wall-clock gate of the CI pipeline, and [`loadtest`] implements
//! `mochy-exp loadtest`
//! — the closed-loop HTTP load harness that proves keep-alive serving beats
//! connection-per-request and (with `--check`) gates throughput and latency
//! quantiles against `LOADTEST_BASELINE.json`. [`dist`] implements
//! `mochy-exp dist-check`, the distributed-equivalence gate: it boots real
//! `mochy-serve --worker`/`--coordinator` processes over one `.mochy`
//! snapshot,
//! verifies the scatter-gathered count is bit-identical to the unsharded
//! one (including after a worker is killed mid-sequence), and emits
//! `DIST.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cibudget;
pub mod common;
pub mod dist;
pub mod evolve;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod loadtest;
pub mod nullmodels;
pub mod pairwise;
pub mod perf;
pub mod q3domain;
pub mod shard;
pub mod snapshot;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod tool;

pub use common::ExperimentScale;
/// The JSON machinery behind `BENCH*.json`, re-exported from its shared home
/// ([`mochy_json`]) so existing `mochy_experiments::json` callers keep
/// working; `mochy-serve` uses the same parser/writer for its API bodies.
pub use mochy_json as json;

/// Runs the experiment with the given name, returning its textual report.
///
/// Valid names: `table2`, `table3`, `table4`, `fig5`, `fig6`, `fig7`, `fig8`,
/// `fig9`, `fig10`, `fig11`, `q3domain`, `pairwise`, `nullmodels`.
pub fn run_experiment(name: &str, scale: ExperimentScale) -> Result<String, String> {
    match name {
        "table2" => Ok(table2::run(scale)),
        "table3" => Ok(table3::run(scale)),
        "table4" => Ok(table4::run(scale)),
        "fig5" => Ok(fig5::run(scale)),
        "fig6" => Ok(fig6::run(scale)),
        "fig7" => Ok(fig7::run(scale)),
        "fig8" => Ok(fig8::run(scale)),
        "fig9" => Ok(fig9::run(scale)),
        "fig10" => Ok(fig10::run(scale)),
        "fig11" => Ok(fig11::run(scale)),
        "q3domain" => Ok(q3domain::run(scale)),
        "pairwise" => Ok(pairwise::run(scale)),
        "nullmodels" => Ok(nullmodels::run(scale)),
        other => Err(format!("unknown experiment `{other}`")),
    }
}

/// The names of every experiment, in paper order.
pub const ALL_EXPERIMENTS: [&str; 13] = [
    "table2",
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "table4",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "q3domain",
    "pairwise",
    "nullmodels",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(run_experiment("fig99", ExperimentScale::Tiny).is_err());
    }

    #[test]
    fn experiment_names_are_unique() {
        let set: std::collections::BTreeSet<_> = ALL_EXPERIMENTS.iter().collect();
        assert_eq!(set.len(), ALL_EXPERIMENTS.len());
    }
}
